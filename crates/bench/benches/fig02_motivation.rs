//! Fig. 2 — IPC gains of Berti/BOP/IPCP under "Permit PGC" over
//! "Discard PGC" across memory-intensive workloads.
//!
//! Paper's shape: per-workload gains range from strongly negative
//! (sphinx3-, pr.web-like) to strongly positive (astar-, cc.road-like);
//! no static policy wins everywhere.

use pagecross_bench::{
    env_scale, fmt_pct, motivation_set, print_header, print_row, run_all, Scheme, Summary,
};
use pagecross_cpu::{PgcPolicyKind, PrefetcherKind};

fn main() {
    let cfg = env_scale();
    let workloads = motivation_set();
    // Per prefetcher, a (discard, permit) pair of adjacent schemes.
    let schemes: Vec<Scheme> = [
        PrefetcherKind::Berti,
        PrefetcherKind::Bop,
        PrefetcherKind::Ipcp,
    ]
    .into_iter()
    .flat_map(|pf| {
        [
            Scheme::new(&format!("{pf:?}-discard"), pf, PgcPolicyKind::DiscardPgc),
            Scheme::new(&format!("{pf:?}-permit"), pf, PgcPolicyKind::PermitPgc),
        ]
    })
    .collect();
    let results = run_all(&workloads, &schemes, &cfg);
    print_header("fig02", &["workload", "berti", "bop", "ipcp"]);

    let mut any_pos = 0;
    let mut any_neg = 0;
    for cell in results.chunks(schemes.len()) {
        let ratios: Vec<f64> = cell
            .chunks(2)
            .map(|pair| pair[1].report.ipc() / pair[0].report.ipc())
            .collect();
        // Berti's ratio is the first.
        if ratios[0] > 1.002 {
            any_pos += 1;
        }
        if ratios[0] < 0.998 {
            any_neg += 1;
        }
        let mut cells = vec![cell[0].workload.clone()];
        cells.extend(ratios.into_iter().map(fmt_pct));
        print_row("fig02", &cells);
    }

    Summary {
        experiment: "fig02".into(),
        paper: "Permit PGC gains vary per workload: some strongly positive, some strongly \
                negative; no static policy wins everywhere"
            .into(),
        measured: format!(
            "{any_pos}/{} workloads gain and {any_neg}/{} lose under Permit (Berti)",
            workloads.len(),
            workloads.len()
        ),
        shape_holds: any_pos > 0 && any_neg > 0,
    }
    .print();
}
