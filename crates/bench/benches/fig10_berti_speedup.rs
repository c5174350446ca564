//! Fig. 10 — Berti case study: per-workload s-curve of Permit PGC and
//! DRIPPER speedups over Discard PGC (top), and per-suite geomean
//! breakdown (bottom).
//!
//! Paper's shape: DRIPPER ≥ both static policies for the vast majority of
//! workloads; Permit helps a subset and hurts most; DRIPPER's overall
//! geomean beats Permit (+2.5%) and Discard (+1.7%); GAP benefits most.

use pagecross_bench::{
    core_schemes, env_scale, fmt_pct, print_geomean_row, print_header, print_speedup_rows,
    quick_seen_set, run_all, speedup_rows, SpeedupRow, Summary,
};
use pagecross_cpu::PrefetcherKind;
use std::collections::BTreeSet;

fn main() {
    let cfg = env_scale();
    let workloads = quick_seen_set();
    let schemes = core_schemes(PrefetcherKind::Berti);
    let results = run_all(&workloads, &schemes, &cfg);

    // Top: per-workload s-curve (sorted by DRIPPER speedup).
    let mut rows = speedup_rows(&results, schemes.len());
    rows.sort_by(|a, b| a.speedups[1].total_cmp(&b.speedups[1]));
    print_header("fig10", &["workload", "permit", "dripper"]);
    print_speedup_rows("fig10", &rows);

    // Bottom: per-suite geomeans.
    print_header("fig10", &["suite", "permit geomean", "dripper geomean"]);
    let suites: BTreeSet<&str> = rows.iter().map(|r| r.suite).collect();
    for suite in suites {
        let in_suite: Vec<SpeedupRow> = rows.iter().filter(|r| r.suite == suite).cloned().collect();
        print_geomean_row("fig10", suite, &in_suite);
    }
    let overall = print_geomean_row("fig10", "OVERALL", &rows);
    let (gp, gx) = (overall[0], overall[1]);

    let dripper_majority = rows
        .iter()
        .filter(|r| r.speedups[1] >= r.speedups[0] - 1e-9 && r.speedups[1] >= 1.0 - 1e-9)
        .count();
    Summary {
        experiment: "fig10".into(),
        paper: "DRIPPER beats Permit (+2.5%) and Discard (+1.7%) in geomean; \
                wins for the vast majority of workloads (we require >=60%)"
            .into(),
        measured: format!(
            "dripper {} vs permit {}; dripper>=both on {}/{} workloads",
            fmt_pct(gx),
            fmt_pct(gp),
            dripper_majority,
            rows.len()
        ),
        shape_holds: gx > gp && gx > 1.0 && dripper_majority * 5 >= rows.len() * 3,
    }
    .print();
}
