//! Experiment harness utilities for the per-figure/table bench targets.
//!
//! Each paper artefact (Figs. 2–4, 9–19, Tables III & V) has a bench target
//! under `benches/` that uses these helpers to run a campaign and print the
//! paper's rows/series plus a paper-vs-measured summary line. See
//! EXPERIMENTS.md for the index and recorded results.

pub mod campaign;
pub mod cli;
pub mod table;

pub use campaign::{
    core_schemes, env_jobs, env_per_suite, env_scale, ipcs_of, motivation_set, quick_seen_set,
    run_all, run_grid, run_one_timed, CampaignConfig, CampaignRun, CellTiming, ShardStats, Subject,
    WorkloadResult,
};
pub use pagecross_cpu::Scheme;
pub use table::{
    fmt_opt_ratio, fmt_pct, geomean_speedup, geomeans_vs_first, mean, mean_delta, mpki_delta,
    print_geomean_row, print_header, print_row, print_speedup_rows, speedup_rows, SpeedupRow,
    Summary,
};
