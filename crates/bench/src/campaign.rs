//! Campaign runner: sweeps (workload × scheme) grids and collects reports,
//! in parallel across a `std::thread` worker pool.
//!
//! A campaign is a flat list of *cells* — every (workload, scheme) pair of
//! the grid, numbered in grid order. Cells are **striped** across shards
//! (cell `i` belongs to shard `i mod jobs`), each shard visits its cells in
//! an order shuffled by its own seeded [`Rng64`] (cheap load spreading when
//! neighbouring cells have correlated cost), and the merged result is
//! sorted back into grid order. Because every cell simulation is itself
//! seeded (via [`CampaignConfig::seed`]), the merged results are
//! **bit-for-bit identical** for any worker count — `--jobs 1` and
//! `--jobs 32` produce the same reports, in the same order.
//!
//! The `benches/fig*`/`table*`/`ablation*` experiment harnesses all call
//! [`run_all`] (fig19's 8-core mixes excepted), which routes through the
//! pool sized by [`env_jobs`] (`PAGECROSS_JOBS`, default: all available
//! cores), so every figure campaign scales with the machine without
//! per-experiment code.

use std::time::{Duration, Instant};

use pagecross_cpu::trace::TraceFactory;
use pagecross_cpu::{
    PgcPolicyKind, PhaseTimings, PrefetcherKind, Report, Scheme, SimulationBuilder,
};
use pagecross_trace::TraceReplay;
use pagecross_types::Rng64;
use pagecross_workloads::Workload;

/// Anything a campaign can simulate: a synthetic [`Workload`] from the
/// registry, or a recorded [`TraceReplay`]. The runner only needs a
/// factory to build streams from, a suite label for reporting, and the
/// default warm-up/measured lengths.
pub trait Subject: Sync {
    /// The trace factory the engine consumes.
    fn factory(&self) -> &dyn TraceFactory;
    /// Suite label for grouping in reports.
    fn suite_label(&self) -> &'static str;
    /// Default (warm-up, measured) instruction counts.
    fn lengths(&self) -> (u64, u64);
}

// References delegate so call sites holding `&&Workload` (iterating a
// `Vec<&Workload>`) still satisfy the generic bound without deref noise.
impl<S: Subject + ?Sized> Subject for &S {
    fn factory(&self) -> &dyn TraceFactory {
        (**self).factory()
    }

    fn suite_label(&self) -> &'static str {
        (**self).suite_label()
    }

    fn lengths(&self) -> (u64, u64) {
        (**self).lengths()
    }
}

impl Subject for Workload {
    fn factory(&self) -> &dyn TraceFactory {
        self
    }

    fn suite_label(&self) -> &'static str {
        self.suite().label()
    }

    fn lengths(&self) -> (u64, u64) {
        self.default_lengths()
    }
}

impl Subject for TraceReplay {
    fn factory(&self) -> &dyn TraceFactory {
        self
    }

    fn suite_label(&self) -> &'static str {
        "trace"
    }

    /// Every registry workload warms up over the first third of its run
    /// (25k/50k and 50k/100k default lengths); a recording of a full run
    /// splits the same way, so replay defaults line up with the direct
    /// run's defaults.
    fn lengths(&self) -> (u64, u64) {
        let n = self.meta().instr_count;
        let warm = n / 3;
        (warm, n - warm)
    }
}

/// Campaign-wide length scaling and seeding (keeps the full figure set
/// tractable and reproducible).
#[derive(Clone, Copy, Debug)]
pub struct CampaignConfig {
    /// Multiplier on each workload's default warm-up length.
    pub warmup_scale: f64,
    /// Multiplier on each workload's default measured length.
    pub measure_scale: f64,
    /// Seed for every cell's simulation (frame allocation etc.) and for
    /// the per-shard visit-order generators.
    pub seed: u64,
}

impl CampaignConfig {
    /// The historical default simulation seed; campaigns that never set a
    /// seed reproduce the pre-campaign-runner numbers exactly.
    pub const DEFAULT_SEED: u64 = 0xC0FFEE;
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            warmup_scale: 1.0,
            measure_scale: 1.0,
            seed: Self::DEFAULT_SEED,
        }
    }
}

/// One (workload, scheme) cell result.
#[derive(Clone, Debug)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: String,
    /// Suite label.
    pub suite: &'static str,
    /// Scheme label.
    pub scheme: String,
    /// Full simulation report (all-default when the cell failed).
    pub report: Report,
    /// Why the cell failed (`None` = the report is a real result). A
    /// failed cell — e.g. physical-memory exhaustion under the OS model —
    /// never sinks the rest of the grid: the other cells still merge.
    pub error: Option<String>,
}

/// Runs one (subject, scheme) cell and reports where the host wall-clock
/// went (setup / warm-up / measured phases).
pub fn run_one_timed<S: Subject + ?Sized>(
    w: &S,
    scheme: &Scheme,
    cfg: &CampaignConfig,
) -> (WorkloadResult, PhaseTimings) {
    let (warm, measure) = w.lengths();
    let factory = w.factory();
    let builder = SimulationBuilder::new()
        .scheme(scheme.clone())
        .seed(cfg.seed)
        .warmup((warm as f64 * cfg.warmup_scale) as u64)
        .instructions((measure as f64 * cfg.measure_scale) as u64);
    let (report, phases, error) = match builder.try_run_workload_with(factory, None) {
        Ok((report, phases, _)) => (report, phases, None),
        Err(e) => (
            Report::default(),
            PhaseTimings::default(),
            Some(e.to_string()),
        ),
    };
    let result = WorkloadResult {
        workload: factory.name().to_string(),
        suite: w.suite_label(),
        scheme: scheme.label.clone(),
        report,
        error,
    };
    (result, phases)
}

/// Wall-clock timing of one executed cell.
#[derive(Clone, Debug)]
pub struct CellTiming {
    /// Cell index in grid order.
    pub cell: usize,
    /// Workload name.
    pub workload: String,
    /// Scheme label.
    pub scheme: String,
    /// Time spent simulating this cell.
    pub elapsed: Duration,
    /// Where the cell's wall-clock went (setup / warm-up / measure).
    pub phases: PhaseTimings,
}

/// Aggregate statistics of one worker shard.
#[derive(Clone, Debug)]
pub struct ShardStats {
    /// Shard index (`cell mod jobs`).
    pub shard: usize,
    /// Number of cells this shard executed.
    pub cells: usize,
    /// Total simulation time spent on this shard.
    pub busy: Duration,
}

/// A completed campaign: merged results plus timing telemetry.
#[derive(Clone, Debug)]
pub struct CampaignRun {
    /// Cell results in grid order (workload-major, scheme-minor) —
    /// independent of the worker count.
    pub results: Vec<WorkloadResult>,
    /// Per-cell timings, in grid order.
    pub timings: Vec<CellTiming>,
    /// Per-shard execution statistics, in shard order.
    pub shards: Vec<ShardStats>,
    /// Worker threads used.
    pub jobs: usize,
    /// Wall-clock time of the parallel section.
    pub wall: Duration,
    /// Process CPU time consumed during the parallel section (Linux;
    /// `None` where `/proc` is unavailable).
    pub cpu: Option<Duration>,
}

impl CampaignRun {
    /// Total per-cell wall time across all cells. On an idle multi-core
    /// machine this approximates serial execution time; when workers
    /// outnumber cores it also counts time spent descheduled, so prefer
    /// [`CampaignRun::speedup`] for efficiency claims.
    pub fn busy_total(&self) -> Duration {
        self.shards.iter().map(|s| s.busy).sum()
    }

    /// Parallel speedup: CPU work over wall-clock time. ~1.0 when serial
    /// (or when workers timeshare one core); approaches `jobs` under ideal
    /// scaling. Falls back to per-cell wall time where process CPU time is
    /// unavailable.
    pub fn speedup(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        let work = self.cpu.unwrap_or_else(|| self.busy_total()).as_secs_f64();
        if wall > 0.0 {
            work / wall
        } else {
            1.0
        }
    }

    /// Phase-wise wall-clock totals across every cell (host profiling:
    /// how much of the campaign went to setup vs warm-up vs measurement).
    pub fn phase_totals(&self) -> PhaseTimings {
        let mut sum = PhaseTimings::default();
        for t in &self.timings {
            sum.accumulate(&t.phases);
        }
        sum
    }

    /// One-line timing summary (`[campaign] ...`) for experiment logs.
    pub fn timing_line(&self) -> String {
        format!(
            "[campaign] {} cells on {} workers: wall {:.2?}, cpu {:.2?}, speedup {:.2}x",
            self.results.len(),
            self.jobs,
            self.wall,
            self.cpu.unwrap_or_else(|| self.busy_total()),
            self.speedup()
        )
    }
}

/// Process CPU time (user + system) read from `/proc/self/stat`.
///
/// Uses the fixed Linux `USER_HZ` of 100 ticks/second; returns `None` on
/// platforms without procfs (callers fall back to wall-clock sums).
fn process_cpu_time() -> Option<Duration> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The comm field may contain spaces; fields of interest follow ") ".
    let rest = stat.rsplit_once(") ")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Overall stat fields 14 (utime) and 15 (stime), 1-based; `rest`
    // starts at field 3 (state).
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(Duration::from_millis((utime + stime) * 10))
}

/// Worker count from the environment: `PAGECROSS_JOBS` when set, otherwise
/// all available cores.
pub fn env_jobs() -> usize {
    std::env::var("PAGECROSS_JOBS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&j| j >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        .min(256)
}

/// Runs the full (workload × scheme) grid on `jobs` worker threads and
/// returns results merged deterministically into grid order.
///
/// Each shard owns the cells with `index % jobs == shard` and visits them
/// in an order drawn from a shard-seeded [`Rng64`]; the merge sorts by cell
/// index, so the output never depends on thread scheduling or `jobs`.
pub fn run_grid<S: Subject + ?Sized>(
    workloads: &[&S],
    schemes: &[Scheme],
    cfg: &CampaignConfig,
    jobs: usize,
) -> CampaignRun {
    let cells: Vec<(usize, &S, &Scheme)> = workloads
        .iter()
        .flat_map(|&w| schemes.iter().map(move |s| (w, s)))
        .enumerate()
        .map(|(i, (w, s))| (i, w, s))
        .collect();
    let jobs = jobs.clamp(1, cells.len().max(1));

    let cpu_before = process_cpu_time();
    let start = Instant::now();
    type Cell = (usize, WorkloadResult, Duration, PhaseTimings);
    let mut per_shard: Vec<(ShardStats, Vec<Cell>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|shard| {
                let cells = &cells;
                scope.spawn(move || {
                    // Stripe, then shuffle the visit order with the
                    // shard's own generator (Fisher–Yates).
                    let mut mine: Vec<&(usize, &S, &Scheme)> =
                        cells.iter().skip(shard).step_by(jobs).collect();
                    let mut rng =
                        Rng64::new(cfg.seed ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    for i in (1..mine.len()).rev() {
                        mine.swap(i, rng.below(i as u64 + 1) as usize);
                    }
                    let mut out = Vec::with_capacity(mine.len());
                    let mut busy = Duration::ZERO;
                    for &&(idx, w, s) in &mine {
                        let t0 = Instant::now();
                        let (r, phases) = run_one_timed(w, s, cfg);
                        let dt = t0.elapsed();
                        busy += dt;
                        out.push((idx, r, dt, phases));
                    }
                    (
                        ShardStats {
                            shard,
                            cells: out.len(),
                            busy,
                        },
                        out,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("campaign worker panicked"))
            .collect()
    });
    let wall = start.elapsed();
    let cpu = match (cpu_before, process_cpu_time()) {
        (Some(a), Some(b)) => Some(b.saturating_sub(a)),
        _ => None,
    };

    per_shard.sort_by_key(|(s, _)| s.shard);
    let shards: Vec<ShardStats> = per_shard.iter().map(|(s, _)| s.clone()).collect();
    let mut merged: Vec<Cell> = per_shard.into_iter().flat_map(|(_, v)| v).collect();
    merged.sort_by_key(|(idx, _, _, _)| *idx);

    let timings = merged
        .iter()
        .map(|(idx, r, dt, phases)| CellTiming {
            cell: *idx,
            workload: r.workload.clone(),
            scheme: r.scheme.clone(),
            elapsed: *dt,
            phases: *phases,
        })
        .collect();
    let results = merged.into_iter().map(|(_, r, _, _)| r).collect();
    CampaignRun {
        results,
        timings,
        shards,
        jobs,
        wall,
        cpu,
    }
}

/// Runs the full cross product on the [`env_jobs`] worker pool; results are
/// grouped by workload then scheme (scheme order preserved within each
/// workload), exactly as the serial runner produced them.
pub fn run_all<S: Subject + ?Sized>(
    workloads: &[&S],
    schemes: &[Scheme],
    cfg: &CampaignConfig,
) -> Vec<WorkloadResult> {
    run_grid(workloads, schemes, cfg, env_jobs()).results
}

/// Campaign scale from the environment: `PAGECROSS_SCALE` multiplies the
/// warm-up and measured instruction counts (default 1.0, floor 0.05, no
/// ceiling). Use e.g. `PAGECROSS_SCALE=4` for higher-fidelity runs.
pub fn env_scale() -> CampaignConfig {
    let scale = std::env::var("PAGECROSS_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| s.is_finite())
        .unwrap_or(1.0)
        .max(0.05);
    CampaignConfig {
        warmup_scale: scale,
        measure_scale: scale,
        ..Default::default()
    }
}

/// Workloads taken per suite from the environment: `PAGECROSS_PER_SUITE`
/// (default 4, clamped to 1..=64).
pub fn env_per_suite() -> usize {
    std::env::var("PAGECROSS_PER_SUITE")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(4)
        .clamp(1, 64)
}

/// The default experiment workload set: a template-stratified slice of the
/// seen set spanning every suite ([`env_per_suite`] each, default 4 → 32
/// workloads).
pub fn quick_seen_set() -> Vec<&'static Workload> {
    pagecross_workloads::representative_seen(env_per_suite())
}

/// The motivation-study set (Figs. 2–4): a curated dozen covering
/// page-cross-friendly, hostile and neutral behaviours.
pub fn motivation_set() -> Vec<&'static Workload> {
    use pagecross_workloads::{suite, SuiteId};
    let pick = |s: SuiteId, idx: &[usize]| {
        idx.iter()
            .map(move |&i| &suite(s).workloads()[i])
            .collect::<Vec<_>>()
    };
    let mut v = Vec::new();
    v.extend(pick(SuiteId::Spec06, &[0, 1, 2, 3, 4]));
    v.extend(pick(SuiteId::Gap, &[0, 1, 2, 3]));
    v.extend(pick(SuiteId::Ligra, &[0, 1]));
    v.extend(pick(SuiteId::QmmInt, &[0]));
    v.extend(pick(SuiteId::QmmFp, &[0]));
    v
}

/// The three Fig. 9-style baseline schemes for a prefetcher.
pub fn core_schemes(pf: PrefetcherKind) -> Vec<Scheme> {
    vec![
        Scheme::new("discard-pgc", pf, PgcPolicyKind::DiscardPgc),
        Scheme::new("permit-pgc", pf, PgcPolicyKind::PermitPgc),
        Scheme::new("dripper", pf, PgcPolicyKind::Dripper),
    ]
}

/// Extracts the per-workload IPC vector of one scheme, in workload order.
pub fn ipcs_of(results: &[WorkloadResult], scheme: &str) -> Vec<f64> {
    results
        .iter()
        .filter(|r| r.scheme == scheme)
        .map(|r| r.report.ipc())
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use pagecross_cpu::{Instr, Op, OsConfig, TraceSource};
    use pagecross_workloads::{suite, SuiteId};

    /// Every instruction lives on its own 4 KB code page; code pages are
    /// pinned by the OS model, so a 64 MB machine runs out of frames with
    /// nothing left to reclaim partway through a run.
    pub(crate) struct CodeBomb;

    struct BombSrc {
        i: u64,
    }

    impl TraceSource for BombSrc {
        fn next_instr(&mut self) -> Instr {
            self.i += 1;
            Instr {
                pc: 0x100_0000 + self.i * 4096,
                op: Op::Alu,
            }
        }
    }

    impl TraceFactory for CodeBomb {
        fn name(&self) -> &str {
            "code-bomb"
        }
        fn build(&self) -> Box<dyn TraceSource> {
            Box::new(BombSrc { i: 0 })
        }
    }

    impl Subject for CodeBomb {
        fn factory(&self) -> &dyn TraceFactory {
            self
        }
        fn suite_label(&self) -> &'static str {
            "synthetic"
        }
        fn lengths(&self) -> (u64, u64) {
            (100, 12_000)
        }
    }

    fn tiny_cfg() -> CampaignConfig {
        // Very short runs: these tests exercise orchestration, not fidelity.
        CampaignConfig {
            warmup_scale: 0.02,
            measure_scale: 0.02,
            ..Default::default()
        }
    }

    fn small_grid() -> (Vec<&'static Workload>, Vec<Scheme>) {
        let ws: Vec<&Workload> = suite(SuiteId::Gap).workloads().iter().take(3).collect();
        (ws, core_schemes(PrefetcherKind::Berti))
    }

    #[test]
    fn parallel_results_match_serial_bit_for_bit() {
        let (ws, schemes) = small_grid();
        let cfg = tiny_cfg();
        let serial = run_grid(&ws, &schemes, &cfg, 1);
        let par = run_grid(&ws, &schemes, &cfg, 4);
        assert_eq!(serial.results.len(), par.results.len());
        for (a, b) in serial.results.iter().zip(&par.results) {
            assert_eq!(a.workload, b.workload);
            assert_eq!(a.scheme, b.scheme);
            assert_eq!(
                a.report, b.report,
                "{}:{} diverged across worker counts",
                a.workload, a.scheme
            );
        }
    }

    #[test]
    fn grid_order_is_workload_major_scheme_minor() {
        let (ws, schemes) = small_grid();
        let run = run_grid(&ws, &schemes, &tiny_cfg(), 3);
        let mut i = 0;
        for w in &ws {
            for s in &schemes {
                assert_eq!(run.results[i].workload, w.name());
                assert_eq!(run.results[i].scheme, s.label);
                assert_eq!(run.timings[i].cell, i);
                i += 1;
            }
        }
    }

    #[test]
    fn shards_cover_all_cells_exactly_once() {
        let (ws, schemes) = small_grid();
        let jobs = 4;
        let run = run_grid(&ws, &schemes, &tiny_cfg(), jobs);
        assert_eq!(run.jobs, jobs);
        assert_eq!(run.shards.len(), jobs);
        let total: usize = run.shards.iter().map(|s| s.cells).sum();
        assert_eq!(total, ws.len() * schemes.len());
        // Striping balances within ±1.
        let min = run.shards.iter().map(|s| s.cells).min().unwrap();
        let max = run.shards.iter().map(|s| s.cells).max().unwrap();
        assert!(
            max - min <= 1,
            "striped shards must be balanced: {min}..{max}"
        );
    }

    #[test]
    fn seed_changes_results_deterministically() {
        let (ws, schemes) = small_grid();
        // Full-length runs: at micro scale the frame-allocation scramble
        // may not surface in any counter.
        let base = CampaignConfig::default();
        let other = CampaignConfig {
            seed: 0xDEAD_BEEF,
            ..base
        };
        let a = run_grid(&ws[..1], &schemes[..1], &base, 2);
        let b = run_grid(&ws[..1], &schemes[..1], &base, 2);
        let c = run_grid(&ws[..1], &schemes[..1], &other, 2);
        assert_eq!(
            a.results[0].report, b.results[0].report,
            "same seed, same report"
        );
        assert_ne!(
            a.results[0].report, c.results[0].report,
            "a different campaign seed must change frame allocation"
        );
    }

    #[test]
    fn cell_timings_carry_phase_breakdown() {
        let (ws, schemes) = small_grid();
        let run = run_grid(&ws[..1], &schemes[..1], &tiny_cfg(), 1);
        assert_eq!(run.timings.len(), 1);
        let cell = &run.timings[0];
        assert!(
            cell.phases.total() > Duration::ZERO,
            "a real simulation spends measurable time in its phases"
        );
        assert!(
            cell.phases.total() <= cell.elapsed,
            "phase breakdown cannot exceed the cell's wall-clock"
        );
        assert_eq!(run.phase_totals(), cell.phases, "one cell, one total");
    }

    #[test]
    fn jobs_clamped_to_grid_size() {
        let (ws, schemes) = small_grid();
        let run = run_grid(&ws[..1], &schemes[..1], &tiny_cfg(), 64);
        assert_eq!(run.jobs, 1, "one cell cannot use more than one worker");
        assert_eq!(run.results.len(), 1);
    }

    #[test]
    fn speedup_at_least_2x_on_4_workers() {
        // Requires real cores; skipped on constrained CI boxes where the
        // workers would just timeshare one CPU.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        if cores < 4 {
            eprintln!("skipping speedup check: only {cores} core(s) available");
            return;
        }
        let ws: Vec<&Workload> = suite(SuiteId::Gap).workloads().iter().take(4).collect();
        let schemes = core_schemes(PrefetcherKind::Berti);
        let cfg = CampaignConfig::default();
        let serial = run_grid(&ws, &schemes, &cfg, 1);
        let par = run_grid(&ws, &schemes, &cfg, 4);
        let wall_ratio = serial.wall.as_secs_f64() / par.wall.as_secs_f64();
        assert!(
            wall_ratio >= 2.0,
            "expected ≥2x wall-clock speedup at 4 workers, got {:.2}x (serial {:.2?}, parallel {:.2?}, {})",
            wall_ratio,
            serial.wall,
            par.wall,
            par.timing_line()
        );
    }

    #[test]
    fn an_oom_cell_fails_alone_and_the_rest_of_the_grid_merges() {
        let mut strained = Scheme::new("os-64M", PrefetcherKind::None, PgcPolicyKind::DiscardPgc);
        strained.os = Some(OsConfig {
            phys_mem_bytes: 64 << 20,
            ..OsConfig::default()
        });
        let plain = Scheme::new("no-os", PrefetcherKind::None, PgcPolicyKind::DiscardPgc);
        let run = run_grid(
            &[&CodeBomb],
            &[strained, plain],
            &CampaignConfig::default(),
            2,
        );
        assert_eq!(
            run.results.len(),
            2,
            "the failed cell still occupies its slot"
        );
        let failed = &run.results[0];
        assert!(
            failed.error.as_deref().is_some_and(|e| e.contains("4KB")),
            "expected a frame-exhaustion error, got {:?}",
            failed.error
        );
        assert_eq!(
            failed.report,
            Report::default(),
            "failed cells carry no numbers"
        );
        let ok = &run.results[1];
        assert!(ok.error.is_none(), "the sibling cell merges normally");
        assert!(ok.report.ipc() > 0.0);
    }

    #[test]
    fn replayed_traces_run_through_the_grid_like_workloads() {
        let w: &Workload = &suite(SuiteId::Gap).workloads()[0];
        let cfg = tiny_cfg();
        let (warm, measure) = w.default_lengths();
        let total = ((warm as f64 * cfg.warmup_scale) as u64)
            + ((measure as f64 * cfg.measure_scale) as u64);
        let path = std::env::temp_dir().join(format!(
            "pct-campaign-{}-{}.pct",
            std::process::id(),
            w.name()
        ));
        pagecross_trace::record(w, total, w.params().seed, &path).unwrap();
        let replay = TraceReplay::open(&path).unwrap();
        let schemes = core_schemes(PrefetcherKind::Berti);
        // The replay's default lengths split n at 1/3, matching the
        // workload's own warmup:measure ratio, so the same scaled cell runs.
        let direct = run_grid(&[w], &schemes, &cfg, 2);
        let replayed = run_grid::<TraceReplay>(
            &[&replay],
            &schemes,
            &CampaignConfig {
                warmup_scale: 1.0,
                measure_scale: 1.0,
                ..cfg
            },
            2,
        );
        for (a, b) in direct.results.iter().zip(&replayed.results) {
            assert_eq!(
                a.workload, b.workload,
                "replay reports carry the recorded name"
            );
            assert_eq!(a.scheme, b.scheme);
            assert_eq!(
                a.report, b.report,
                "{}:{} diverged under replay",
                a.workload, a.scheme
            );
        }
        assert_eq!(replayed.results[0].suite, "trace");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_filter_scheme_runs_the_builder_custom_filter() {
        let w: &Workload = &suite(SuiteId::Gap).workloads()[0];
        let cfg = tiny_cfg();
        let mut fcfg = moka_pgc::dripper::dripper_config(moka_pgc::TargetPrefetcher::Berti);
        fcfg.adaptive = false;
        fcfg.static_threshold = -4;
        let mut scheme = Scheme::new("static(-4)", PrefetcherKind::Berti, PgcPolicyKind::Dripper);
        scheme.filter = Some(fcfg.clone());
        let grid = run_grid(&[w], &[scheme], &cfg, 1);
        let (warm, measure) = w.default_lengths();
        let direct = SimulationBuilder::new()
            .prefetcher(PrefetcherKind::Berti)
            .custom_filter(fcfg)
            .seed(cfg.seed)
            .warmup((warm as f64 * cfg.warmup_scale) as u64)
            .instructions((measure as f64 * cfg.measure_scale) as u64)
            .run_workload(w);
        assert_eq!(grid.results[0].report, direct);
        let adaptive = run_grid(&[w], &core_schemes(PrefetcherKind::Berti)[2..], &cfg, 1);
        assert_ne!(
            adaptive.results[0].report, direct,
            "the filter must override the scheme's own policy"
        );
    }

    #[test]
    fn process_cpu_time_is_monotonic_on_linux() {
        if let Some(a) = process_cpu_time() {
            // Burn a little CPU, then re-read.
            let mut x = 0u64;
            for i in 0..20_000_000u64 {
                x = x.wrapping_add(i ^ (x >> 3));
            }
            black_box_u64(x);
            let b = process_cpu_time().expect("procfs disappeared");
            assert!(b >= a, "CPU time went backwards: {a:?} -> {b:?}");
        }
    }

    fn black_box_u64(v: u64) {
        std::hint::black_box(v);
    }
}
