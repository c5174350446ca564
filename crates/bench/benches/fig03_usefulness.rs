//! Fig. 3 — distribution and average of useful vs useless page-cross
//! prefetches under "Permit PGC" for Berti/BOP/IPCP.
//!
//! Paper's shape: the full spectrum exists (some workloads ~100% useful,
//! some ~100% useless) and on average roughly half the issued page-cross
//! prefetches are useless — prefetchers are not accurate across pages.

use pagecross_bench::{
    env_scale, mean, motivation_set, print_header, print_row, run_all, Scheme, Summary,
};
use pagecross_cpu::{PgcPolicyKind, PrefetcherKind};

fn main() {
    let cfg = env_scale();
    let workloads = motivation_set();
    let prefetchers = [
        PrefetcherKind::Berti,
        PrefetcherKind::Bop,
        PrefetcherKind::Ipcp,
    ];
    let schemes =
        prefetchers.map(|pf| Scheme::new(&format!("{pf:?}"), pf, PgcPolicyKind::PermitPgc));
    let results = run_all(&workloads, &schemes, &cfg);
    print_header("fig03", &["prefetcher", "workload", "useful%", "useless%"]);

    let mut summaries = Vec::new();
    for (i, pf) in prefetchers.into_iter().enumerate() {
        let mut ratios = Vec::new();
        for cell in results.chunks(schemes.len()) {
            let r = &cell[i].report;
            let resolved = r.l1d.pgc_useful + r.l1d.pgc_useless;
            if resolved == 0 {
                continue;
            }
            let useful = r.l1d.pgc_useful as f64 / resolved as f64;
            ratios.push(useful);
            print_row(
                "fig03",
                &[
                    format!("{pf:?}"),
                    cell[i].workload.clone(),
                    format!("{:.1}", useful * 100.0),
                    format!("{:.1}", (1.0 - useful) * 100.0),
                ],
            );
        }
        let avg = mean(&ratios);
        let spread = ratios.iter().cloned().fold(f64::INFINITY, f64::min)
            ..ratios.iter().cloned().fold(0.0, f64::max);
        print_row(
            "fig03",
            &[
                format!("{pf:?}"),
                "AVERAGE".into(),
                format!("{:.1}", avg * 100.0),
                format!("{:.1}", (1.0 - avg) * 100.0),
            ],
        );
        summaries.push((pf, avg, spread));
    }

    let shape = summaries.iter().all(|(_, avg, spread)| {
        // Average in a broad band around 50% and a wide spread.
        (0.2..=0.8).contains(avg) && spread.start < 0.35 && spread.end > 0.65
    });
    Summary {
        experiment: "fig03".into(),
        paper: "~50% of issued page-cross prefetches are useful on average; \
                per-workload values span ~0%..~100%"
            .into(),
        measured: summaries
            .iter()
            .map(|(pf, avg, s)| {
                format!(
                    "{pf:?}: avg {:.0}%, span {:.0}%..{:.0}%",
                    avg * 100.0,
                    s.start * 100.0,
                    s.end * 100.0
                )
            })
            .collect::<Vec<_>>()
            .join("; "),
        shape_holds: shape,
    }
    .print();
}
