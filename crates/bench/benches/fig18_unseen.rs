//! Fig. 18 — DRIPPER on *unseen* workloads (§V-B8): workloads from seed
//! spaces disjoint from the ones used during development.
//!
//! Paper's shape: trends match the seen set — DRIPPER beats Permit (+2.1%)
//! and Discard (+1.2%) in geomean over 178 unseen workloads.

use pagecross_bench::{
    core_schemes, env_per_suite, env_scale, fmt_pct, print_geomean_row, print_header,
    print_speedup_rows, run_all, speedup_rows, Summary,
};
use pagecross_cpu::PrefetcherKind;
use pagecross_workloads::representative_unseen;

fn main() {
    let cfg = env_scale();
    let workloads = representative_unseen(env_per_suite());
    let schemes = core_schemes(PrefetcherKind::Berti);
    let results = run_all(&workloads, &schemes, &cfg);

    print_header("fig18", &["workload", "permit", "dripper"]);
    let rows = speedup_rows(&results, schemes.len());
    print_speedup_rows("fig18", &rows);
    let geos = print_geomean_row("fig18", "GEOMEAN", &rows);
    let (gp, gd) = (geos[0], geos[1]);

    Summary {
        experiment: "fig18".into(),
        paper: "on unseen workloads DRIPPER beats Permit (+2.1%) and Discard (+1.2%)".into(),
        measured: format!(
            "dripper {} vs permit {} over discard",
            fmt_pct(gd),
            fmt_pct(gp)
        ),
        shape_holds: gd > gp && gd >= 0.999,
    }
    .print();
}
