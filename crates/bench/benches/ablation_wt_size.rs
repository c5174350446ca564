//! Ablation — weight-table size sweep.
//!
//! Table III's 1024×5-bit weight table is another empirically tuned point;
//! the paper notes a design "that can dedicate tens of KBs" could use more
//! features/entries for marginal gains. This sweep shows diminishing
//! returns past the chosen size.

use moka_pgc::dripper::dripper_config;
use moka_pgc::TargetPrefetcher;
use pagecross_bench::{
    env_scale, fmt_pct, geomeans_vs_first, print_header, print_row, run_all, Scheme, Summary,
};
use pagecross_cpu::{PgcPolicyKind, PrefetcherKind};
use pagecross_workloads::representative_seen;

const SWEEP: [usize; 4] = [64, 256, 1024, 4096];

fn main() {
    let workloads = representative_seen(1);
    let pf = PrefetcherKind::Berti;
    let mut schemes = vec![Scheme::new("discard", pf, PgcPolicyKind::DiscardPgc)];
    schemes.extend(SWEEP.map(|entries| {
        let mut s = Scheme::new(&format!("wt{entries}"), pf, PgcPolicyKind::Dripper);
        let mut fcfg = dripper_config(TargetPrefetcher::Berti);
        fcfg.wt_entries = entries;
        s.filter = Some(fcfg);
        s
    }));
    let results = run_all(&workloads, &schemes, &env_scale());
    let geos = geomeans_vs_first(&results, &schemes);

    print_header(
        "ablation_wt_size",
        &["entries", "storage KB", "geomean vs discard"],
    );
    for ((entries, s), g) in SWEEP.iter().zip(&schemes[1..]).zip(&geos) {
        let storage = s.filter.as_ref().expect("sweep filter").storage_kb();
        print_row(
            "ablation_wt_size",
            &[entries.to_string(), format!("{storage:.2}"), fmt_pct(*g)],
        );
    }
    let at = |entries| geos[SWEEP.iter().position(|e| *e == entries).expect("point ran")];
    let (at_1024, at_4096) = (at(1024), at(4096));
    Summary {
        experiment: "ablation_wt_size".into(),
        paper: "the ~1K-entry weight table is the knee; bigger budgets give small geomean \
                gains (§III-E1)"
            .into(),
        measured: format!(
            "1024 entries {}, 4096 entries {}",
            fmt_pct(at_1024),
            fmt_pct(at_4096)
        ),
        shape_holds: (at_4096 - at_1024).abs() < 0.02,
    }
    .print();
}
