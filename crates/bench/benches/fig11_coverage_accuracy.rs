//! Fig. 11 — miss coverage (top) and prefetch accuracy (bottom) of Berti
//! with Permit PGC and DRIPPER, relative to Discard PGC, per suite.
//!
//! Paper's shape: DRIPPER matches Permit's coverage (it issues the useful
//! page-cross prefetches) while achieving clearly higher accuracy (it
//! drops the useless ones).

use pagecross_bench::{
    core_schemes, env_scale, mean, print_header, print_row, quick_seen_set, run_all, Summary,
};
use pagecross_cpu::PrefetcherKind;
use std::collections::BTreeMap;

fn main() {
    let cfg = env_scale();
    let workloads = quick_seen_set();
    let schemes = core_schemes(PrefetcherKind::Berti);
    let results = run_all(&workloads, &schemes, &cfg);

    // Per suite: the coverage of each scheme, then the accuracy of each.
    let mut by_suite: BTreeMap<&'static str, [Vec<f64>; 6]> = BTreeMap::new();
    for chunk in results.chunks(3) {
        let e = by_suite.entry(chunk[0].suite).or_default();
        for (i, r) in chunk.iter().enumerate() {
            // An unresolved metric (no prefetches in a cell) contributes 0
            // here, keeping the suite means comparable to earlier runs.
            e[i].push(r.report.coverage().unwrap_or(0.0));
            e[3 + i].push(r.report.prefetch_accuracy().unwrap_or(0.0));
        }
    }

    print_header(
        "fig11",
        &[
            "suite",
            "cov disc",
            "cov permit",
            "cov dripper",
            "acc disc",
            "acc permit",
            "acc dripper",
        ],
    );
    let (mut cov_gap, mut acc_gain) = (Vec::new(), Vec::new());
    for (suite, columns) in &by_suite {
        let row = columns.each_ref().map(|c| mean(c));
        let mut cells = vec![suite.to_string()];
        cells.extend(row.map(|m| format!("{m:.3}")));
        print_row("fig11", &cells);
        cov_gap.push(row[1] - row[2]); // permit cov - dripper cov
        acc_gain.push(row[5] - row[4]); // dripper acc - permit acc
    }

    let avg_cov_gap = mean(&cov_gap);
    let avg_acc_gain = mean(&acc_gain);
    Summary {
        experiment: "fig11".into(),
        paper: "DRIPPER coverage ≈ Permit coverage (gap ~0.1pp); DRIPPER accuracy > Permit \
                accuracy (paper: +3.8pp overall)"
            .into(),
        measured: format!(
            "avg coverage gap (permit − dripper) = {:.3}; avg accuracy gain (dripper − permit) = {:+.3}",
            avg_cov_gap, avg_acc_gain
        ),
        shape_holds: avg_cov_gap < 0.05 && avg_acc_gain > 0.0,
    }
    .print();
}
