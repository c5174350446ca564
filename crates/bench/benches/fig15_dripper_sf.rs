//! Fig. 15 — DRIPPER vs DRIPPER-SF (system features only): the
//! contribution of the program feature.
//!
//! Paper's shape: DRIPPER beats DRIPPER-SF for the majority of workloads
//! (+0.9% geomean) because the program feature separates individual
//! candidates in ways phase-level system features cannot.

use pagecross_bench::{
    env_scale, fmt_pct, print_geomean_row, print_header, print_speedup_rows, quick_seen_set,
    run_all, speedup_rows, Scheme, Summary,
};
use pagecross_cpu::{PgcPolicyKind, PrefetcherKind};

fn main() {
    let cfg = env_scale();
    let workloads = quick_seen_set();
    let pf = PrefetcherKind::Berti;
    let schemes = vec![
        Scheme::new("discard-pgc", pf, PgcPolicyKind::DiscardPgc),
        Scheme::new("dripper-sf", pf, PgcPolicyKind::DripperSf),
        Scheme::new("dripper", pf, PgcPolicyKind::Dripper),
    ];
    let results = run_all(&workloads, &schemes, &cfg);

    print_header("fig15", &["workload", "dripper-sf", "dripper"]);
    let rows = speedup_rows(&results, schemes.len());
    print_speedup_rows("fig15", &rows);
    let geos = print_geomean_row("fig15", "GEOMEAN", &rows);
    let (g_sf, g_full) = (geos[0], geos[1]);
    let dripper_wins = results
        .chunks(schemes.len())
        .filter(|c| c[2].report.ipc() >= c[1].report.ipc() - 1e-9)
        .count();

    Summary {
        experiment: "fig15".into(),
        paper: "DRIPPER > DRIPPER-SF for the majority of workloads (+0.9% geomean)".into(),
        measured: format!(
            "dripper {} vs dripper-sf {}; dripper >= sf on {}/{} workloads",
            fmt_pct(g_full),
            fmt_pct(g_sf),
            dripper_wins,
            workloads.len()
        ),
        shape_holds: g_full >= g_sf && dripper_wins * 2 >= workloads.len(),
    }
    .print();
}
