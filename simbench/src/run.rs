//! One benchmark run: the untraced end-to-end measurement (`--trace 0`) or
//! the traced per-layer run (`--trace 1`), both behind the correctness
//! gate.

use crate::check::{Gate, Sim};
use crate::drive;
use crate::driver::{self, LayerCounts};
use crate::json::{Outcome, END_TO_END, PER_LAYER};
use crate::probe::{self, ChunkClock, Clocked, ClockedMember, JobClock, Probe};
use crate::stats::{highest_percentile, median, percentile, quartiles};
use crate::workloads::{self, Job, WorkloadId};
use pagecross_bench::{run_grid, CampaignConfig, Scheme};
use pagecross_cpu::trace::TraceFactory;
use pagecross_trace::TraceReplay;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Fewest untraced jobs (campaign passes) per run, whatever `--seconds`.
const MIN_JOBS: usize = 5;
/// Fewest jobs per phase of a traced run.
const MIN_TRACED_JOBS: usize = 2;
/// Recordings timed for graph_replay's set-up.
const RECORDINGS: usize = 3;
/// Repetitions of each layer drive (the median is reported).
const DRIVE_REPS: usize = 3;
/// Campaign worker threads: the host has two cores.
const CAMPAIGN_JOBS: usize = 2;

pub struct Args {
    pub workload: WorkloadId,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// A scratch file inside the benchmark's directory, removed when dropped.
struct TmpFile(PathBuf);

impl TmpFile {
    fn new(tag: &str) -> Self {
        let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/tmp"));
        std::fs::create_dir_all(&dir).expect("create the benchmark's tmp directory");
        TmpFile(dir.join(format!("{tag}-{}.pct", std::process::id())))
    }
}

impl Drop for TmpFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// One untraced job, or one campaign pass.
struct Unit {
    mips: f64,
    ns_per_instr: f64,
    /// A job's set-up, or the sum of a pass's per-cell set-up.
    setup_s: f64,
    cells_per_s: f64,
    chunks_ms: Vec<f64>,
}

/// Timings of the untraced jobs (or campaign passes) of one run.
#[derive(Default)]
struct Timing {
    units: Vec<Unit>,
    /// Per job, or per campaign cell.
    cell_ms: Vec<f64>,
    cell_setup_ms: Vec<f64>,
    /// Per job, or per pass.
    imbalance: Vec<f64>,
    speedup: Vec<f64>,
    /// Campaign only, per cell: measured instructions and the fastest
    /// measured phase and set-up seen over the run's passes.
    cell_best: Vec<(u64, f64, f64)>,
}

/// Fewest units the end-to-end figures are taken from.
const FAST_MIN: usize = 3;

fn med(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

fn pct(v: &[f64], per_mille: u32) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        percentile(v, per_mille)
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The fastest tenth of `v` (at least `FAST_MIN`, at most all), by `key`
/// ascending. The host this benchmark was built on flips every few seconds
/// between an undisturbed state and one about 2x slower (neighbour
/// contention, not steal time); interference only ever adds time, so the
/// fastest units estimate the simulator's own speed.
fn fastest<T>(v: &[T], key: impl Fn(&T) -> f64) -> Vec<&T> {
    let mut s: Vec<&T> = v.iter().collect();
    s.sort_by(|a, b| key(a).total_cmp(&key(b)));
    let k = v.len().div_ceil(10).max(FAST_MIN).min(v.len());
    s.truncate(k);
    s
}

impl Timing {
    fn add_job(&mut self, c: &JobClock, wall: Duration) {
        self.units.push(Unit {
            mips: c.instrs as f64 / secs(c.measure) / 1e6,
            ns_per_instr: c.measure.as_nanos() as f64 / c.instrs as f64,
            setup_s: secs(c.setup),
            cells_per_s: 1.0 / secs(wall),
            chunks_ms: c.chunks_ns.iter().map(|&n| n as f64 / 1e6).collect(),
        });
        self.cell_ms.push(secs(wall) * 1e3);
        self.cell_setup_ms.push(secs(c.setup) * 1e3);
        self.imbalance.push(1.0);
    }

    fn fast(&self) -> Vec<&Unit> {
        fastest(&self.units, |u| u.ns_per_instr)
    }

    fn fast_ns_per_instr(&self) -> f64 {
        med(&self
            .fast()
            .iter()
            .map(|u| u.ns_per_instr)
            .collect::<Vec<_>>())
    }

    fn summary(&self, unit: &str) -> String {
        let all: Vec<f64> = self.units.iter().map(|u| u.mips).collect();
        let q = quartiles(&all).map_or("-".into(), |[a, b, c]| format!("{a:.4} / {b:.4} / {c:.4}"));
        let fast = self.fast();
        let chunks: usize = fast.iter().map(|u| u.chunks_ms.len()).sum();
        let tail = highest_percentile(chunks)
            .map_or("none".into(), |p| format!("p{}", f64::from(p) / 10.0));
        format!(
            "untraced: {} {unit}, sim_mips q1/median/q3 {q}; figures from the fastest {} with {chunks} chunks \
             (highest percentile with >=10 samples beyond: {tail})",
            self.units.len(),
            fast.len(),
        )
    }

    /// Each figure from the units fastest in that figure. A campaign
    /// cell lasts milliseconds, so its fastest pass is an undisturbed one:
    /// the campaign's speed and set-up sum each cell's best.
    fn end_to_end(&self, extra_setup_s: f64) -> Vec<(&'static str, f64)> {
        let best = |f: fn(&Unit) -> f64| {
            med(&fastest(&self.units, |u| -f(u))
                .iter()
                .map(|u| f(u))
                .collect::<Vec<_>>())
        };
        let chunks: Vec<f64> = self
            .fast()
            .iter()
            .flat_map(|u| u.chunks_ms.iter().copied())
            .collect();
        let (mips, setup) = if self.cell_best.is_empty() {
            let setups: Vec<f64> = fastest(&self.units, |u| u.setup_s)
                .iter()
                .map(|u| u.setup_s)
                .collect();
            (best(|u| u.mips), med(&setups))
        } else {
            let instrs: u64 = self.cell_best.iter().map(|c| c.0).sum();
            let measure: f64 = self.cell_best.iter().map(|c| c.1).sum();
            (
                instrs as f64 / measure / 1e6,
                self.cell_best.iter().map(|c| c.2).sum(),
            )
        };
        vec![
            ("sim_mips", mips),
            ("chunk_ms_p50", pct(&chunks, 500)),
            ("chunk_ms_p90", pct(&chunks, 900)),
            ("cells_per_s", best(|u| u.cells_per_s)),
            ("setup_s", setup + extra_setup_s),
            ("peak_rss_mb", peak_rss_mb()),
        ]
    }
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Process CPU time (user + system) from `/proc/self/stat`.
fn process_cpu() -> Option<Duration> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let fields: Vec<&str> = stat.rsplit_once(") ")?.1.split_whitespace().collect();
    let ticks: u64 = fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
    Some(Duration::from_millis(ticks * 10))
}

type JobOutcome = thread::Result<Result<Sim, String>>;

/// One untraced job through `SimulationBuilder`, the path users run, with
/// only the chunk clock on its trace sources.
fn untraced_job(
    job: &Job,
    factories: &[&dyn TraceFactory],
) -> (JobOutcome, Option<JobClock>, Duration) {
    let clock = ChunkClock::new(factories.len(), job.warmup, job.chunk);
    let clocked: Vec<Clocked> = factories
        .iter()
        .map(|&inner| Clocked {
            inner,
            clock: clock.clone(),
        })
        .collect();
    let t0 = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| {
        let b = job.builder();
        let sim = if let [one] = clocked.as_slice() {
            b.try_run_workload(one).map(Sim::Single)
        } else {
            let refs: Vec<&dyn TraceFactory> =
                clocked.iter().map(|c| c as &dyn TraceFactory).collect();
            b.try_run_mix(&refs).map(Sim::Mix)
        };
        sim.map_err(|e| e.to_string())
    }));
    let wall = t0.elapsed();
    (out, clock.summary(), wall)
}

fn untraced_jobs(
    job: &Job,
    factories: &[&dyn TraceFactory],
    gate: &mut Gate,
    budget: Duration,
    min: usize,
) -> Timing {
    let mut t = Timing::default();
    let (cpu0, start) = (process_cpu(), Instant::now());
    let mut n = 0;
    while n < min || start.elapsed() < budget {
        n += 1;
        let (out, clock, wall) = untraced_job(job, factories);
        if gate.admit(&format!("job {n}"), out, 1) {
            if let Some(c) = clock {
                t.add_job(&c, wall);
            }
        }
    }
    if let (Some(a), Some(b)) = (cpu0, process_cpu()) {
        t.speedup
            .push(secs(b.saturating_sub(a)) / secs(start.elapsed()));
    }
    t
}

/// The campaign grid, its members carrying per-cell chunk clocks.
struct Campaign {
    members: Vec<ClockedMember>,
    schemes: Vec<Scheme>,
    cfg: CampaignConfig,
    log: Arc<Mutex<Vec<JobClock>>>,
}

impl Campaign {
    fn new(seed: u64) -> Self {
        let (members, schemes, cfg) = workloads::campaign(seed);
        let log = Arc::new(Mutex::new(Vec::new()));
        let members = members
            .into_iter()
            .map(|member| ClockedMember {
                member,
                chunk: workloads::CELL_CHUNK,
                log: log.clone(),
            })
            .collect();
        Campaign {
            members,
            schemes,
            cfg,
            log,
        }
    }

    fn cells(&self) -> u64 {
        (self.members.len() * self.schemes.len()) as u64
    }

    /// One untraced pass over the grid on `CAMPAIGN_JOBS` workers.
    fn pass(&self, gate: &mut Gate, label: &str, t: &mut Timing) {
        self.log.lock().expect("clock log").clear();
        let refs: Vec<&ClockedMember> = self.members.iter().collect();
        let run = catch_unwind(AssertUnwindSafe(|| {
            run_grid(&refs, &self.schemes, &self.cfg, CAMPAIGN_JOBS)
        }));
        let (outcome, run) = match run {
            Err(p) => (Err(p), None),
            Ok(run) => {
                let sim = match run.results.iter().find(|r| r.error.is_some()) {
                    Some(r) => Err(format!(
                        "cell {}/{}: {}",
                        r.workload,
                        r.scheme,
                        r.error.as_deref().unwrap_or_default()
                    )),
                    None => Ok(Sim::Grid(
                        run.results.iter().map(|r| r.report.clone()).collect(),
                    )),
                };
                (Ok(sim), Some(run))
            }
        };
        if !gate.admit(label, outcome, self.cells()) {
            return;
        }
        let run = run.expect("an admitted pass ran");
        let per_member = self.schemes.len();
        let instrs: u64 = run
            .timings
            .iter()
            .map(|c| self.members[c.cell / per_member].member.measure)
            .sum();
        let measure: f64 = run.timings.iter().map(|c| secs(c.phases.measure)).sum();
        if t.cell_best.is_empty() {
            t.cell_best = vec![(0, f64::INFINITY, f64::INFINITY); run.timings.len()];
        }
        for c in &run.timings {
            let b = &mut t.cell_best[c.cell];
            b.0 = self.members[c.cell / per_member].member.measure;
            b.1 = b.1.min(secs(c.phases.measure));
            b.2 = b.2.min(secs(c.phases.setup));
        }
        let setup: f64 = run.timings.iter().map(|c| secs(c.phases.setup)).sum();
        t.cell_ms
            .extend(run.timings.iter().map(|c| secs(c.elapsed) * 1e3));
        t.cell_setup_ms
            .extend(run.timings.iter().map(|c| secs(c.phases.setup) * 1e3));
        let busy: Vec<f64> = run.shards.iter().map(|s| secs(s.busy)).collect();
        let mean = busy.iter().sum::<f64>() / busy.len() as f64;
        t.imbalance
            .push(busy.iter().cloned().fold(0.0, f64::max) / mean);
        t.speedup.push(run.speedup());
        let log = std::mem::take(&mut *self.log.lock().expect("clock log"));
        t.units.push(Unit {
            mips: instrs as f64 / measure / 1e6,
            ns_per_instr: measure * 1e9 / instrs as f64,
            setup_s: setup,
            cells_per_s: run.results.len() as f64 / secs(run.wall),
            chunks_ms: log
                .iter()
                .flat_map(|c| c.chunks_ns.iter().map(|&n| n as f64 / 1e6))
                .collect(),
        });
    }

    fn passes(&self, gate: &mut Gate, budget: Duration, min: usize) -> Timing {
        let mut t = Timing::default();
        let start = Instant::now();
        let mut n = 0;
        while n < min || start.elapsed() < budget {
            n += 1;
            self.pass(gate, &format!("pass {n}"), &mut t);
        }
        t
    }

    /// Every cell through the traced driver, one after another.
    fn traced_pass(&self, probe: &Rc<Probe>) -> (JobOutcome, Vec<LayerCounts>, Duration) {
        let mut reports = Vec::new();
        let mut counts = Vec::new();
        let mut measure = Duration::ZERO;
        let out = catch_unwind(AssertUnwindSafe(|| {
            for m in &self.members {
                for s in &self.schemes {
                    let job = m.member.job(s, &self.cfg);
                    let tr = driver::run(&job, &[&m.member.w], probe).map_err(|e| e.to_string())?;
                    let Sim::Single(r) = tr.sim else {
                        unreachable!("a one-core job yields one report")
                    };
                    reports.push(r);
                    counts.push(tr.counts);
                    measure += tr.measure;
                }
            }
            Ok(Sim::Grid(std::mem::take(&mut reports)))
        }));
        (out, counts, measure)
    }
}

/// The traced phase of a single-job workload.
fn traced_jobs(
    job: &Job,
    factories: &[&dyn TraceFactory],
    gate: &mut Gate,
    budget: Duration,
    probe: &Rc<Probe>,
) -> (Vec<LayerCounts>, Vec<f64>) {
    let (mut counts, mut ns) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut n = 0;
    while n < MIN_TRACED_JOBS || start.elapsed() < budget {
        n += 1;
        let res = catch_unwind(AssertUnwindSafe(|| driver::run(job, factories, probe)));
        let (outcome, seen) = match res {
            Err(p) => (Err(p), None),
            Ok(Err(e)) => (Ok(Err(e.to_string())), None),
            Ok(Ok(tr)) => (Ok(Ok(tr.sim)), Some((tr.counts, tr.measure))),
        };
        if gate.admit(&format!("traced job {n}"), outcome, 1) {
            if let Some((c, m)) = seen {
                ns.push(m.as_nanos() as f64 / c.instrs as f64);
                counts.push(c);
            }
        }
    }
    (counts, ns)
}

/// graph_replay's set-up: record the job's stream `RECORDINGS` times (the
/// fastest recording joins `setup_s`) and open the last recording for
/// inline replay.
struct Recording {
    seconds: Vec<f64>,
    record_ns_per_instr: f64,
    bytes_per_instr: f64,
    replay: TraceReplay,
}

fn record(job: &Job, file: &TmpFile) -> Result<Recording, String> {
    let w = &job.cores[0];
    let n = job.warmup + job.measure;
    let mut seconds = Vec::new();
    let mut last = (0.0, 0.0);
    for _ in 0..RECORDINGS {
        last = drive::record_timed(w, n, w.params.seed, &file.0).map_err(|e| e.to_string())?;
        seconds.push(last.0 * n as f64 / 1e9);
    }
    let replay = TraceReplay::open(&file.0)
        .map_err(|e| e.to_string())?
        .blocking();
    Ok(Recording {
        seconds,
        record_ns_per_instr: last.0,
        bytes_per_instr: last.1,
        replay,
    })
}

/// Runs the benchmark as `args` asks and returns its result line.
pub fn run(args: &Args) -> Outcome {
    let name = args.workload.name();
    let mut gate = Gate::new(name, args.seed);
    let seconds = Duration::from_secs(args.seconds);
    let file = TmpFile::new(name);
    let clock_ns = probe::clock_read_ns();
    println!(
        "simbench {name} seed={} seconds={} trace={} ({} host threads)",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        thread::available_parallelism().map_or(1, |n| n.get())
    );

    // Phase budgets: an untraced run measures for all of `seconds`; a
    // traced run splits it between an untraced reference and the traced
    // driver, then runs the fixed-size layer drives.
    let untraced_budget = if args.trace {
        seconds.mul_f64(0.35)
    } else {
        seconds
    };
    let traced_budget = seconds.mul_f64(0.45);
    let probe = Rc::new(Probe::default());

    let mut recording = None;
    let (timing, traced, drive_job) = match workloads::job(args.workload, args.seed) {
        Some(job) => {
            let generators: Vec<&dyn TraceFactory> =
                job.cores.iter().map(|w| w as &dyn TraceFactory).collect();
            let factories: Vec<&dyn TraceFactory> = if args.workload == WorkloadId::GraphReplay {
                // The direct generator run is the replay's reference: the
                // gate holds every replayed job to its counters.
                let (direct, _, _) = untraced_job(&job, &generators);
                gate.admit("direct generator run", direct, 1);
                match record(&job, &file) {
                    Ok(r) => recording = Some(r),
                    Err(e) => {
                        gate.admit("recording", Ok(Err(e)), 1);
                    }
                }
                match &recording {
                    Some(r) => vec![&r.replay as &dyn TraceFactory],
                    None => generators.clone(),
                }
            } else {
                generators.clone()
            };
            let min = if args.trace {
                MIN_TRACED_JOBS
            } else {
                MIN_JOBS
            };
            let timing = untraced_jobs(&job, &factories, &mut gate, untraced_budget, min);
            let traced = args
                .trace
                .then(|| traced_jobs(&job, &factories, &mut gate, traced_budget, &probe));
            (timing, traced, job)
        }
        None => {
            let c = Campaign::new(args.seed);
            let min = if args.trace {
                MIN_TRACED_JOBS
            } else {
                MIN_JOBS
            };
            let timing = c.passes(&mut gate, untraced_budget, min);
            let traced = args.trace.then(|| {
                let (mut counts, mut ns) = (Vec::new(), Vec::new());
                let start = Instant::now();
                let mut n = 0;
                while n < MIN_TRACED_JOBS || start.elapsed() < traced_budget {
                    n += 1;
                    let (out, cs, measure) = c.traced_pass(&probe);
                    if gate.admit(&format!("traced pass {n}"), out, c.cells()) {
                        let instrs: u64 = cs.iter().map(|x| x.instrs).sum();
                        ns.push(measure.as_nanos() as f64 / instrs as f64);
                        counts.extend(cs);
                    }
                }
                (counts, ns)
            });
            let first = &c.members[0].member;
            (timing, traced, first.job(&c.schemes[0], &c.cfg))
        }
    };

    let unit = if args.workload == WorkloadId::CampaignGrid {
        "grid passes"
    } else {
        "jobs"
    };
    println!("{}", timing.summary(unit));
    let values = match traced {
        None => {
            let record_s = recording.as_ref().map_or(0.0, |r| {
                r.seconds.iter().copied().fold(f64::INFINITY, f64::min)
            });
            if recording.is_some() {
                println!(
                    "setup_s = job set-up + fastest of {RECORDINGS} recordings ({record_s:.4} s)"
                );
            }
            timing.end_to_end(record_s)
        }
        Some((counts, traced_ns)) => {
            let drives = Drives::measure(
                args.workload,
                args.seed,
                &drive_job,
                recording.as_ref(),
                &file,
                &mut gate,
            );
            layer_values(
                &probe,
                clock_ns,
                &counts,
                &traced_ns,
                &timing,
                &drives,
                recording.is_some(),
            )
        }
    };
    print!("{}", gate.log);
    let schema = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let mut out = Outcome::new(schema, values);
    out.attempted = gate.attempted;
    out.failed = gate.failed;
    out.correct = gate.failed == 0 && gate.attempted > 0;
    out
}

/// Layer costs measured outside the engine's path.
struct Drives {
    demand_data_ns: f64,
    translate_ns: f64,
    before_access_ns: f64,
    generator_ns: f64,
    trace: drive::TraceCost,
}

impl Drives {
    fn measure(
        w: WorkloadId,
        seed: u64,
        job: &Job,
        rec: Option<&Recording>,
        file: &TmpFile,
        gate: &mut Gate,
    ) -> Self {
        let accs = drive::accesses(&job.cores);
        let os = workloads::job(WorkloadId::OsMix2, seed)
            .and_then(|j| j.os)
            .expect("os_mix2 runs the OS");
        let mut fails = Vec::new();
        let mut rep = |f: &dyn Fn() -> Result<f64, String>| {
            let v: Vec<f64> = (0..DRIVE_REPS)
                .filter_map(|_| f().map_err(|e| fails.push(e)).ok())
                .collect();
            med(&v)
        };
        let demand_data_ns = rep(&|| drive::demand_data_ns(job, &accs).map_err(|e| e.to_string()));
        let translate_ns = rep(&|| drive::translate_ns(job, &accs).map_err(|e| e.to_string()));
        let before_access_ns =
            rep(&|| drive::before_access_ns(job, os, &accs).map_err(|e| e.to_string()));
        let generator_ns = rep(&|| Ok(drive::generator_ns(&job.cores[0])));
        let trace = match rec {
            // graph_replay's recording is the real one; its decode cost is
            // measured in the engine's path (see `layer_values`).
            Some(r) => drive::TraceCost {
                record_ns_per_instr: r.record_ns_per_instr,
                bytes_per_instr: r.bytes_per_instr,
                next_instr_ns: f64::NAN,
            },
            None => drive::trace_cost(&job.cores[0], &file.0).unwrap_or_else(|e| {
                fails.push(e.to_string());
                drive::TraceCost {
                    record_ns_per_instr: f64::NAN,
                    bytes_per_instr: f64::NAN,
                    next_instr_ns: f64::NAN,
                }
            }),
        };
        for e in fails {
            gate.admit(&format!("{} layer drive", w.name()), Ok(Err(e)), 1);
        }
        Drives {
            demand_data_ns,
            translate_ns,
            before_access_ns,
            generator_ns,
            trace,
        }
    }
}

/// The median of the fastest tenth of per-instruction times.
fn fastest_ns(ns: &[f64]) -> f64 {
    med(&fastest(ns, |&x| x).into_iter().copied().collect::<Vec<_>>())
}

fn layer_values(
    probe: &Probe,
    clock_ns: f64,
    counts: &[LayerCounts],
    traced_ns: &[f64],
    untraced: &Timing,
    drives: &Drives,
    replayed: bool,
) -> Vec<(&'static str, f64)> {
    let sum = |f: fn(&LayerCounts) -> u64| counts.iter().map(f).sum::<u64>() as f64;
    let kinstr = sum(|c| c.instrs) / 1e3;
    let per_k = |x: f64| if kinstr > 0.0 { x / kinstr } else { 0.0 };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let ns = probe.layer_ns(clock_ns);
    // The workload's own trace source is timed in the engine's path; the
    // other kind of source by its drive.
    let (generator_ns, decoder_ns) = if replayed {
        (drives.generator_ns, ns.next_instr)
    } else {
        (ns.next_instr, drives.trace.next_instr_ns)
    };
    let (useful, useless) = (sum(|c| c.pf_useful), sum(|c| c.pf_useless));
    let (pgc_useful, pgc_useless) = (sum(|c| c.pgc_useful), sum(|c| c.pgc_useless));
    let (issued, pgc_cands) = (sum(|c| c.pgc_issued), sum(|c| c.pgc_candidates));
    let (majors, faults) = (sum(|c| c.majors), sum(|c| c.faults));
    println!(
        "traced: {} jobs/cells, {:.0} kinstr, {} sampled instructions (1 in {} on average), clock read {clock_ns:.2} ns",
        counts.len(),
        kinstr,
        probe.samples.get(),
        driver::SAMPLE_MEAN
    );
    println!("ratio bases: prefetch.accuracy = {useful}/{}, core.pgc_issue_ratio = {issued}/{pgc_cands}, core.pgc_accuracy = {pgc_useful}/{}, os.major_share = {majors}/{faults}, tracing.overhead_ratio = {:.2}/{:.2} ns/instr",
        useful + useless, pgc_useful + pgc_useless, fastest_ns(traced_ns), untraced.fast_ns_per_instr());
    println!(
        "bench.cell_ms over {} jobs/cells (highest percentile with >=10 samples beyond: {})",
        untraced.cell_ms.len(),
        highest_percentile(untraced.cell_ms.len())
            .map_or("none".into(), |p| format!("p{}", f64::from(p) / 10.0))
    );
    vec![
        ("workloads.next_instr_ns", generator_ns),
        ("trace.next_instr_ns", decoder_ns),
        ("trace.bytes_per_instr", drives.trace.bytes_per_instr),
        (
            "trace.record_ns_per_instr",
            drives.trace.record_ns_per_instr,
        ),
        ("cpu.step_self_ns", ns.step_self),
        ("prefetch.l1d_ns", ns.prefetch),
        (
            "prefetch.calls_per_kinstr",
            per_k(probe.pf_calls.get() as f64),
        ),
        (
            "prefetch.candidates_per_kinstr",
            per_k(sum(|c| c.candidates)),
        ),
        ("prefetch.accuracy", ratio(useful, useful + useless)),
        ("core.policy_ns", ns.policy),
        (
            "core.decide_per_kinstr",
            per_k(probe.decide_calls.get() as f64),
        ),
        ("core.pgc_issue_ratio", ratio(issued, pgc_cands)),
        (
            "core.pgc_accuracy",
            ratio(pgc_useful, pgc_useful + pgc_useless),
        ),
        ("core.spec_walks_per_kinstr", per_k(sum(|c| c.spec_walks))),
        ("mem.demand_data_ns", drives.demand_data_ns),
        ("mem.translate_ns", drives.translate_ns),
        ("mem.l1d_mpki", per_k(sum(|c| c.l1d_misses))),
        ("mem.llc_mpki", per_k(sum(|c| c.llc_misses))),
        ("mem.dtlb_mpki", per_k(sum(|c| c.dtlb_misses))),
        ("mem.stlb_mpki", per_k(sum(|c| c.stlb_misses))),
        ("mem.walks_per_kinstr", per_k(sum(|c| c.walks))),
        ("os.before_access_ns", drives.before_access_ns),
        ("os.faults_per_kinstr", per_k(faults)),
        ("os.major_share", ratio(majors, faults)),
        ("os.reclaims_per_kinstr", per_k(sum(|c| c.reclaims))),
        ("os.shootdowns_per_kinstr", per_k(sum(|c| c.shootdowns))),
        ("os.ipis_per_kinstr", per_k(sum(|c| c.ipis))),
        ("bench.cell_ms_p50", pct(&untraced.cell_ms, 500)),
        ("bench.cell_ms_p90", pct(&untraced.cell_ms, 900)),
        ("bench.setup_ms_per_cell", med(&untraced.cell_setup_ms)),
        ("bench.shard_imbalance", med(&untraced.imbalance)),
        ("bench.parallel_speedup", med(&untraced.speedup)),
        ("tracing.clock_read_ns", clock_ns),
        (
            "tracing.overhead_ratio",
            ratio(fastest_ns(traced_ns), untraced.fast_ns_per_instr()),
        ),
    ]
}

/// The `expected.txt` line for `(workload, seed)`: one untraced job, or
/// one campaign pass.
pub fn expected_line(w: WorkloadId, seed: u64) -> Result<String, String> {
    let sim = match workloads::job(w, seed) {
        Some(job) => {
            let f: Vec<&dyn TraceFactory> =
                job.cores.iter().map(|w| w as &dyn TraceFactory).collect();
            let (out, _, _) = untraced_job(&job, &f);
            out.map_err(|_| "panicked".to_string())??
        }
        None => {
            let c = Campaign::new(seed);
            let mut gate = Gate::new("", seed);
            c.pass(&mut gate, "pass", &mut Timing::default());
            gate.reference().cloned().ok_or(gate.log)?
        }
    };
    Ok(sim.expected_line(w.name(), seed))
}
