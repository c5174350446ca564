//! Command-line front-end for the simulator (the `pagecross` binary).
//!
//! Subcommands:
//!
//! * `list [--suite <id>]` — print the workload registry;
//! * `run --workload <name> [--prefetcher p] [--policy q] [...]` — one
//!   simulation, full report;
//! * `compare --workload <name> [--prefetcher p]` — Discard vs Permit vs
//!   DRIPPER in one line;
//! * `campaign [--suite <id>] [--prefetcher p] [--jobs n] [--per-suite k]
//!   [--trace-dir <dir>]` — the compare row for every workload of a suite
//!   (or of a representative cross-suite set), computed as one (workload ×
//!   scheme) grid on the parallel campaign runner, then per-cell timing and
//!   the wall-clock/speedup summary; `--trace-dir` runs the grid over every
//!   `.pct` trace in a directory instead and excludes `--suite` and
//!   `--per-suite`;
//! * `record --workload <name> [--out <path>]` — serialize a workload's
//!   instruction stream to a `.pct` trace file;
//! * `replay --trace <path> [...]` — simulate a recorded trace (counters
//!   are bit-identical to the direct run it was recorded from).
//!
//! Argument parsing is hand-rolled (the workspace is dependency-minimal);
//! the parsed command is a plain enum so it is unit-testable, and `run` and
//! `replay` parse straight into the simulator's [`Scheme`].

use crate::campaign::{
    core_schemes, env_jobs, run_grid, CampaignConfig, CampaignRun, Subject, WorkloadResult,
};
use crate::table::fmt_opt_ratio;
use pagecross_cpu::trace::TraceFactory;
use pagecross_cpu::{
    L2PrefetcherKind, OsConfig, PgcPolicyKind, PrefetcherKind, Report, Scheme, SimulationBuilder,
    TelemetryConfig,
};
use pagecross_mem::HugePagePolicy;
use pagecross_telemetry::{chrome_trace_json, intervals_to_jsonl, validate_jsonl};
use pagecross_trace::TraceReplay;
use pagecross_types::OsStats;
use pagecross_workloads::{seen_workloads, suite, SuiteId, Workload};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A parsed CLI invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// List workloads, optionally restricted to one suite.
    List {
        /// Suite filter.
        suite: Option<SuiteId>,
    },
    /// Run one simulation of a registry workload.
    Run(SimArgs),
    /// Compare the three core policies on one workload.
    Compare {
        /// Workload name.
        workload: String,
        /// L1D prefetcher.
        prefetcher: PrefetcherKind,
    },
    /// Run a figure-style experiment grid on the parallel campaign runner.
    Campaign {
        /// Optional suite restriction (default: representative cross-suite
        /// set).
        suite: Option<SuiteId>,
        /// L1D prefetcher.
        prefetcher: PrefetcherKind,
        /// Worker threads (0 = `PAGECROSS_JOBS` / all cores).
        jobs: usize,
        /// Cap on workloads taken per suite (`None` = all of a filtered
        /// suite, or 4 per suite for the cross-suite set).
        per_suite: Option<usize>,
        /// Run the grid over every `.pct` trace in this directory instead
        /// of registry workloads.
        trace_dir: Option<String>,
    },
    /// Record a workload's instruction stream to a `.pct` trace file.
    Record {
        /// Workload name (registry lookup).
        workload: String,
        /// Output path (default: `<workload>.pct`).
        out: Option<String>,
        /// Warm-up instructions to record (0 = workload default).
        warmup: u64,
        /// Measured instructions to record (0 = workload default).
        instructions: u64,
    },
    /// Simulate a recorded `.pct` trace.
    Replay(SimArgs),
    /// Validate a telemetry JSONL file emitted by `--telemetry-out`.
    CheckTelemetry {
        /// Path of the JSONL file.
        jsonl: String,
    },
    /// Print usage.
    Help,
}

/// Arguments of the `run` and `replay` subcommands.
#[derive(Clone, Debug, PartialEq)]
pub struct SimArgs {
    /// What to simulate: a registry workload name (`run --workload`) or
    /// the path of a `.pct` trace (`replay --trace`).
    pub source: String,
    /// The scheme to simulate: `--prefetcher`, `--policy`, `--l2`,
    /// `--huge` and the imitation-OS flags.
    pub scheme: Scheme,
    /// Warm-up instructions (0 = the workload default, or the first third
    /// of a recording).
    pub warmup: u64,
    /// Measured instructions (0 = the workload default, or the rest of a
    /// recording).
    pub instructions: u64,
    /// Interval time-series JSONL output path (`None` = telemetry off).
    pub telemetry_out: Option<String>,
    /// Retired instructions per telemetry sampling interval.
    pub telemetry_interval: u64,
    /// Chrome trace-event JSON output path (`None` = event tracing off).
    pub telemetry_trace: Option<String>,
}

/// Default `--telemetry-interval`: one sample per 10k retired instructions.
pub const DEFAULT_TELEMETRY_INTERVAL: u64 = 10_000;

impl Default for SimArgs {
    fn default() -> Self {
        Self {
            source: String::new(),
            scheme: Scheme::new("", PrefetcherKind::Berti, PgcPolicyKind::Dripper),
            warmup: 0,
            instructions: 0,
            telemetry_out: None,
            telemetry_interval: DEFAULT_TELEMETRY_INTERVAL,
            telemetry_trace: None,
        }
    }
}

/// A CLI error with a user-facing message.
#[derive(Clone, Debug, PartialEq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

type Flags = std::collections::HashMap<String, String>;

/// The flags `run` and `replay` share: every flag of their USAGE lines but
/// the one naming the source.
const SIM_FLAGS: &str = "prefetcher policy l2 huge warmup instructions telemetry-out \
                         telemetry-interval telemetry-trace os phys-mem thp fault-ns";

/// Parses `--key value` pairs. A flag outside `allowed` (the
/// space-separated flags the subcommand's USAGE line lists) or given twice
/// is an error rather than silently ignored or overridden.
fn parse_flags(cmd: &str, args: &[&str], allowed: &str) -> Result<Flags, CliError> {
    let mut kv = Flags::new();
    for pair in args.chunks(2) {
        let flag = pair[0];
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| CliError(format!("expected --flag, got '{flag}'")))?;
        let val = pair
            .get(1)
            .ok_or_else(|| CliError(format!("flag '{flag}' needs a value")))?;
        if !allowed.split_whitespace().any(|a| a == key) {
            return Err(CliError(format!("{cmd} does not take flag '{flag}'")));
        }
        if kv.insert(key.to_string(), val.to_string()).is_some() {
            return Err(CliError(format!("flag '{flag}' given more than once")));
        }
    }
    Ok(kv)
}

/// Parses an instruction-count flag (absent = 0, the default).
fn parse_count(kv: &Flags, key: &str) -> Result<u64, CliError> {
    kv.get(key).map_or(Ok(0), |p| {
        p.parse()
            .map_err(|_| CliError(format!("--{key} expects a count, got '{p}'")))
    })
}

/// Parses a flag that must be a positive count (absent = `None`).
fn parse_positive(kv: &Flags, key: &str) -> Result<Option<u64>, CliError> {
    kv.get(key)
        .map(|p| {
            p.parse::<u64>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| CliError(format!("--{key} expects a positive count, got '{p}'")))
        })
        .transpose()
}

/// Parses a fraction flag, which must lie in [0, 1] (absent = `None`).
fn parse_fraction(kv: &Flags, key: &str) -> Result<Option<f64>, CliError> {
    kv.get(key)
        .map(|p| {
            p.parse::<f64>()
                .ok()
                .filter(|f| (0.0..=1.0).contains(f))
                .ok_or_else(|| CliError(format!("--{key} expects a fraction in [0, 1], got '{p}'")))
        })
        .transpose()
}

/// Parses the flags of `run` and `replay`. They differ only in the flag
/// naming the source: `--workload <name>` or `--trace <path>`.
fn parse_sim(kv: &Flags, cmd: &str, source: &str, what: &str) -> Result<SimArgs, CliError> {
    let mut a = SimArgs {
        source: kv
            .get(source)
            .ok_or_else(|| CliError(format!("{cmd} requires --{source} <{what}>")))?
            .clone(),
        ..Default::default()
    };
    let s = &mut a.scheme;
    if let Some(p) = kv.get("prefetcher") {
        s.prefetcher = parse_prefetcher(p)?;
    }
    if let Some(p) = kv.get("policy") {
        s.policy = parse_policy(p)?;
    }
    if let Some(p) = kv.get("l2") {
        s.l2 = parse_l2(p)?;
    }
    if let Some(f) = parse_fraction(kv, "huge")?.filter(|&f| f > 0.0) {
        s.huge = HugePagePolicy::Fraction(f);
    }
    s.os = parse_os(kv)?;
    a.warmup = parse_count(kv, "warmup")?;
    a.instructions = parse_count(kv, "instructions")?;
    a.telemetry_out = kv.get("telemetry-out").cloned();
    if let Some(n) = parse_positive(kv, "telemetry-interval")? {
        a.telemetry_interval = n;
    }
    a.telemetry_trace = kv.get("telemetry-trace").cloned();
    Ok(a)
}

/// Parses a byte-size literal: plain bytes, or with a `K`/`M`/`G` suffix
/// (binary multiples, case-insensitive), e.g. `64M`, `2G`, `67108864`.
fn parse_size(s: &str) -> Option<u64> {
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' | b'k' => (&s[..s.len() - 1], 1u64 << 10),
        b'M' | b'm' => (&s[..s.len() - 1], 1u64 << 20),
        b'G' | b'g' => (&s[..s.len() - 1], 1u64 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok()?.checked_mul(mult)
}

/// Fails naming the first of `flags` that was given, as `--<flag> <why>`.
fn reject(kv: &Flags, flags: &[&str], why: &str) -> Result<(), CliError> {
    match flags.iter().find(|f| kv.contains_key(**f)) {
        Some(f) => Err(CliError(format!("--{f} {why}"))),
        None => Ok(()),
    }
}

/// Parses the imitation-OS flags of `run` and `replay`: `None` unless
/// `--os on`, and a tuning flag without `--os on` is an error. An unset
/// tuning flag keeps its [`OsConfig`] default (`--thp` 0: never promote).
fn parse_os(kv: &Flags) -> Result<Option<OsConfig>, CliError> {
    match kv.get("os").map(String::as_str) {
        Some("on") => {}
        None | Some("off") => {
            return reject(kv, &["phys-mem", "thp", "fault-ns"], "needs --os on").map(|()| None)
        }
        Some(p) => return Err(CliError(format!("--os expects on|off, got '{p}'"))),
    }
    let mut cfg = OsConfig::default();
    if let Some(p) = kv.get("phys-mem") {
        cfg.phys_mem_bytes = parse_size(p).filter(|&n| n >= 64 << 20).ok_or_else(|| {
            CliError(format!(
                "--phys-mem expects a size of at least 64M (e.g. 64M, 2G), got '{p}'"
            ))
        })?;
    }
    if let Some(f) = parse_fraction(kv, "thp")? {
        cfg.thp = f;
    }
    if let Some(ns) = parse_positive(kv, "fault-ns")? {
        // 4 GHz core: 1 ns = 4 cycles; Linux major faults (I/O plus
        // handler) run ~8x the minor-fault cost in this model.
        cfg.minor_fault_cycles = ns * 4;
        cfg.major_fault_cycles = ns * 32;
    }
    Ok(Some(cfg))
}

fn parse_suite(s: &str) -> Result<SuiteId, CliError> {
    SuiteId::ALL
        .into_iter()
        .find(|id| id.label() == s)
        .ok_or_else(|| {
            CliError(format!(
                "unknown suite '{s}' (try: spec06, gap, qmm_int, …)"
            ))
        })
}

fn parse_prefetcher(s: &str) -> Result<PrefetcherKind, CliError> {
    match s {
        "none" => Ok(PrefetcherKind::None),
        "next-line" => Ok(PrefetcherKind::NextLine),
        "stride" => Ok(PrefetcherKind::Stride),
        "berti" => Ok(PrefetcherKind::Berti),
        "ipcp" => Ok(PrefetcherKind::Ipcp),
        "bop" => Ok(PrefetcherKind::Bop),
        _ => Err(CliError(format!("unknown prefetcher '{s}'"))),
    }
}

fn parse_policy(s: &str) -> Result<PgcPolicyKind, CliError> {
    match s {
        "permit" => Ok(PgcPolicyKind::PermitPgc),
        "discard" => Ok(PgcPolicyKind::DiscardPgc),
        "discard-ptw" => Ok(PgcPolicyKind::DiscardPtw),
        "iso-storage" => Ok(PgcPolicyKind::IsoStorage),
        "dripper" => Ok(PgcPolicyKind::Dripper),
        "dripper-sf" => Ok(PgcPolicyKind::DripperSf),
        "ppf" => Ok(PgcPolicyKind::Ppf),
        "ppf-dthr" => Ok(PgcPolicyKind::PpfDthr),
        _ => Err(CliError(format!("unknown policy '{s}'"))),
    }
}

fn parse_l2(s: &str) -> Result<L2PrefetcherKind, CliError> {
    match s {
        "none" => Ok(L2PrefetcherKind::None),
        "spp" => Ok(L2PrefetcherKind::Spp),
        "ipcp" => Ok(L2PrefetcherKind::Ipcp),
        "bop" => Ok(L2PrefetcherKind::Bop),
        _ => Err(CliError(format!("unknown l2 prefetcher '{s}'"))),
    }
}

/// The flags `cmd`'s USAGE line lists, space-separated; `None` for an
/// unknown subcommand.
fn flags_of(cmd: &str) -> Option<String> {
    Some(match cmd {
        "help" | "--help" | "-h" => String::new(),
        "list" => "suite".into(),
        "run" => format!("workload {SIM_FLAGS}"),
        "compare" => "workload prefetcher".into(),
        "campaign" => "suite prefetcher jobs per-suite trace-dir".into(),
        "record" => "workload out warmup instructions".into(),
        "replay" => format!("trace {SIM_FLAGS}"),
        "check-telemetry" => "jsonl".into(),
        _ => return None,
    })
}

/// Parses an argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let mut it = args.iter().map(String::as_str);
    let Some(cmd) = it.next() else {
        return Ok(Command::Help);
    };

    let allowed = flags_of(cmd)
        .ok_or_else(|| CliError(format!("unknown subcommand '{cmd}' (try 'help')")))?;
    let kv = parse_flags(cmd, &it.collect::<Vec<_>>(), &allowed)?;
    let get = |k: &str| kv.get(k).map(String::as_str);

    match cmd {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "list" => Ok(Command::List {
            suite: get("suite").map(parse_suite).transpose()?,
        }),
        "run" => Ok(Command::Run(parse_sim(&kv, "run", "workload", "name")?)),
        "compare" => Ok(Command::Compare {
            workload: get("workload")
                .ok_or_else(|| CliError("compare requires --workload <name>".into()))?
                .to_string(),
            prefetcher: get("prefetcher")
                .map(parse_prefetcher)
                .transpose()?
                .unwrap_or(PrefetcherKind::Berti),
        }),
        "campaign" => {
            if kv.contains_key("trace-dir") {
                reject(
                    &kv,
                    &["suite", "per-suite"],
                    "cannot be combined with --trace-dir",
                )?;
            }
            Ok(Command::Campaign {
                suite: get("suite").map(parse_suite).transpose()?,
                prefetcher: get("prefetcher")
                    .map(parse_prefetcher)
                    .transpose()?
                    .unwrap_or(PrefetcherKind::Berti),
                // 0 = resolve via env_jobs() at execution time.
                jobs: parse_positive(&kv, "jobs")?.map_or(0, |j| j as usize),
                per_suite: parse_positive(&kv, "per-suite")?.map(|k| k as usize),
                trace_dir: get("trace-dir").map(str::to_string),
            })
        }
        "record" => Ok(Command::Record {
            workload: get("workload")
                .ok_or_else(|| CliError("record requires --workload <name>".into()))?
                .to_string(),
            out: get("out").map(str::to_string),
            warmup: parse_count(&kv, "warmup")?,
            instructions: parse_count(&kv, "instructions")?,
        }),
        "replay" => Ok(Command::Replay(parse_sim(&kv, "replay", "trace", "path")?)),
        "check-telemetry" => Ok(Command::CheckTelemetry {
            jsonl: get("jsonl")
                .ok_or_else(|| CliError("check-telemetry requires --jsonl <path>".into()))?
                .to_string(),
        }),
        _ => unreachable!("subcommand '{cmd}' checked above"),
    }
}

/// Usage text.
pub const USAGE: &str = "\
pagecross — simulate page-cross prefetch filtering (HPCA'25 reproduction)

USAGE:
  pagecross list [--suite <id>]
  pagecross run --workload <name> [--prefetcher berti|ipcp|bop|stride|next-line|none]
                [--policy dripper|permit|discard|discard-ptw|iso-storage|dripper-sf|ppf|ppf-dthr]
                [--l2 none|spp|ipcp|bop] [--huge <fraction>]
                [--warmup <n>] [--instructions <n>]
                [--telemetry-out <path.jsonl>] [--telemetry-interval <n>]
                [--telemetry-trace <path.json>]
                [--os on|off] [--phys-mem <size>] [--thp <f>] [--fault-ns <n>]
  pagecross compare --workload <name> [--prefetcher <p>]
  pagecross campaign [--suite <id>] [--prefetcher <p>] [--jobs <n>] [--per-suite <k>]
                     [--trace-dir <dir>]
  pagecross record --workload <name> [--out <path>] [--warmup <n>] [--instructions <n>]
  pagecross replay --trace <path> [--prefetcher <p>] [--policy <q>] [--l2 <p>]
                   [--huge <fraction>] [--warmup <n>] [--instructions <n>]
                   [--telemetry-out <path.jsonl>] [--telemetry-interval <n>]
                   [--telemetry-trace <path.json>]
                   [--os on|off] [--phys-mem <size>] [--thp <f>] [--fault-ns <n>]
  pagecross check-telemetry --jsonl <path>

Suites: spec06 spec17 gap ligra parsec gkb5 qmm_int qmm_fp

Campaigns run on a worker pool: --jobs (or PAGECROSS_JOBS) sets the
thread count, defaulting to all available cores. Results are
deterministic for a given seed regardless of the worker count.
--per-suite caps the workloads taken per suite (default: all of a
filtered --suite, or 4 per suite for the cross-suite set).

record serializes a workload's stream to a compact checksummed .pct
file (default length: the workload's warm-up + measured defaults).
replay simulates such a file; with default lengths on both sides, the
replayed counters are bit-identical to the direct run. campaign
--trace-dir sweeps the scheme grid over every .pct file in a directory
(it excludes --suite and --per-suite).

Telemetry: --telemetry-out samples the deltas of 28 key counters each
--telemetry-interval retired instructions (default 10000) into a JSONL
time series; --telemetry-trace additionally records structured events
(cache fills/evictions, page walks, DRIPPER decisions) as a Chrome
trace-event file viewable in Perfetto (ui.perfetto.dev).
check-telemetry validates a JSONL file's schema (no unknown keys) and
monotonicity.
Collection is observation-only: reported counters are bit-identical
with telemetry on or off.

OS model: --os on adds demand paging, CLOCK frame reclamation, online
THP promotion, and TLB shootdowns on top of the memory hierarchy.
--phys-mem caps physical memory (binary suffixes: 64M, 2G; minimum
64M), --thp sets promotion aggressiveness in [0,1] (a 2MB region
promotes once ceil((1-thp)*512) of its 4KB pages are resident), and
--fault-ns sets the minor-fault handler latency in nanoseconds (major
faults cost 8x); each of the three needs --os on. With --os off (the
default) every report is bit-identical to a build without the OS model.
";

/// The standard single-run report block (shared by `run` and `replay`, so
/// a replayed trace can be diffed against its direct run with plain text
/// tools).
fn report_text(r: &Report) -> String {
    let mut s = format!(
        "workload     {}\n\
         prefetcher   {} / policy {}\n\
         IPC          {:.4}  ({} instr, {} cycles)\n\
         MPKI         l1i {:.2}  l1d {:.2}  llc {:.2}  dtlb {:.2}  stlb {:.2}\n\
         prefetch     candidates {}  in-page {}  pgc-candidates {}\n\
         page-cross   issued {}  discarded {}  spec-walks {}  useful {}  useless {}\n\
         quality      coverage {}  accuracy {}  pgc-accuracy {:.3}\n",
        r.workload,
        r.prefetcher,
        r.policy,
        r.ipc(),
        r.core.instructions,
        r.core.cycles,
        r.l1i_mpki(),
        r.l1d_mpki(),
        r.llc_mpki(),
        r.dtlb_mpki(),
        r.stlb_mpki(),
        r.prefetch.candidates,
        r.prefetch.inpage_issued,
        r.prefetch.pgc_candidates,
        r.prefetch.pgc_issued,
        r.prefetch.pgc_discarded,
        r.prefetch.speculative_walks,
        r.l1d.pgc_useful,
        r.l1d.pgc_useless,
        fmt_opt_ratio(r.coverage()),
        fmt_opt_ratio(r.prefetch_accuracy()),
        r.pgc_accuracy()
    );
    // Written only when the OS model ran, so OS-off output stays
    // byte-identical to builds without the model (verify.sh diffs it).
    if r.os != OsStats::default() {
        let _ = writeln!(
            s,
            "os           minor {}  major {}  reclaims {}  promote {}  demote {}  shootdowns {}",
            r.os.minor_faults,
            r.os.major_faults,
            r.os.reclaims,
            r.os.thp_promotions,
            r.os.thp_demotions,
            r.os.shootdowns
        );
    }
    s
}

/// Simulates `subject` under `a` (the `run` and `replay` subcommands),
/// writes the requested telemetry files and prints the report block. The
/// telemetry summary lines follow the report, so the report itself stays
/// diffable between `run` and `replay`.
fn simulate<S: Subject + ?Sized>(a: &SimArgs, subject: &S) -> Result<(), CliError> {
    let (dw, di) = subject.lengths();
    let builder = SimulationBuilder::new()
        .scheme(a.scheme.clone())
        .seed(CampaignConfig::DEFAULT_SEED)
        .warmup(if a.warmup > 0 { a.warmup } else { dw })
        .instructions(if a.instructions > 0 {
            a.instructions
        } else {
            di
        });
    let w = subject.factory();
    let (out, trace) = (a.telemetry_out.as_deref(), a.telemetry_trace.as_deref());
    let tcfg = (out.is_some() || trace.is_some()).then(|| TelemetryConfig {
        interval: a.telemetry_interval,
        events: trace.is_some(),
    });
    let (report, _, telemetry) = builder
        .try_run_workload_with(w, tcfg.as_ref())
        .map_err(|e| CliError(format!("simulation aborted: {e}")))?;
    let mut lines = Vec::new();
    if let Some(telemetry) = telemetry {
        if let Some(path) = out {
            std::fs::write(path, intervals_to_jsonl(&telemetry.intervals))
                .map_err(|e| CliError(format!("cannot write telemetry JSONL '{path}': {e}")))?;
            lines.push(format!(
                "telemetry    {} intervals -> {path}",
                telemetry.intervals.len()
            ));
        }
        if let Some(path) = trace {
            std::fs::write(path, chrome_trace_json(&telemetry.events))
                .map_err(|e| CliError(format!("cannot write chrome trace '{path}': {e}")))?;
            lines.push(format!(
                "trace        {} events kept of {} seen -> {path}",
                telemetry.events.len(),
                telemetry.events_seen
            ));
        }
    }
    print!("{}", report_text(&report));
    for line in &lines {
        println!("{line}");
    }
    Ok(())
}

/// Opens a `.pct` trace after a full scan (every chunk CRC and the end
/// marker), so a trace corrupted past the header is a clean CLI error
/// with a named file, not a panic halfway through a simulation.
fn open_trace(path: &Path) -> Result<TraceReplay, CliError> {
    pagecross_trace::verify_file(path)
        .and_then(|_| TraceReplay::open(path))
        .map_err(|e| CliError(format!("cannot open trace '{}': {e}", path.display())))
}

/// Collects the `.pct` files of a directory, sorted by name so the grid
/// order (and therefore the output) is stable across filesystems.
fn trace_dir_replays(dir: &Path) -> Result<Vec<TraceReplay>, CliError> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| CliError(format!("cannot read trace dir '{}': {e}", dir.display())))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "pct"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(CliError(format!("no .pct traces in '{}'", dir.display())));
    }
    // Every trace is scanned before the campaign starts, so a corrupt one
    // fails here rather than on some worker thread.
    paths.iter().map(|p| open_trace(p)).collect()
}

fn find_workload(name: &str) -> Result<&'static Workload, CliError> {
    for id in SuiteId::ALL {
        if let Some(w) = suite(id).workloads().iter().find(|w| w.name() == name) {
            return Ok(w);
        }
    }
    Err(CliError(format!(
        "unknown workload '{name}' (use 'pagecross list')"
    )))
}

/// Formats the discard/permit/dripper row from three grid-ordered cell
/// results of one workload.
fn compare_row(cells: &[WorkloadResult]) -> String {
    let d = cells[0].report.ipc();
    let p = cells[1].report.ipc();
    let x = cells[2].report.ipc();
    format!(
        "{:<14} discard ipc={:.3}  permit {:+.2}%  dripper {:+.2}%",
        cells[0].workload,
        d,
        (p / d - 1.0) * 100.0,
        (x / d - 1.0) * 100.0
    )
}

/// Runs the three core policies for `workloads` on the worker pool and
/// prints one compare row per workload. `jobs == 0` resolves via
/// [`env_jobs`].
fn run_compare_grid<S: Subject + ?Sized>(
    workloads: &[&S],
    pf: PrefetcherKind,
    jobs: usize,
) -> CampaignRun {
    let jobs = if jobs == 0 { env_jobs() } else { jobs };
    let run = run_grid(
        workloads,
        &core_schemes(pf),
        &CampaignConfig::default(),
        jobs,
    );
    for cells in run.results.chunks(3) {
        println!("{}", compare_row(cells));
    }
    run
}

/// Executes a parsed command, printing to stdout. Returns the exit code:
/// 0, 1 for a telemetry file that reads but fails validation, or 2 after
/// printing any other error.
pub fn execute(cmd: Command) -> i32 {
    try_execute(cmd).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        2
    })
}

/// [`execute`] with every error but a failed validation returned.
fn try_execute(cmd: Command) -> Result<i32, CliError> {
    match cmd {
        Command::Help => print!("{USAGE}"),
        Command::List { suite: filter } => {
            for id in SuiteId::ALL {
                if filter.is_some_and(|f| f != id) {
                    continue;
                }
                for w in suite(id).workloads() {
                    println!(
                        "{:<14} suite={:<8} {} {}",
                        w.name(),
                        id.label(),
                        if w.is_seen() { "seen  " } else { "unseen" },
                        if w.is_intensive() {
                            "intensive"
                        } else {
                            "non-intensive"
                        },
                    );
                }
            }
        }
        Command::Run(a) => simulate(&a, find_workload(&a.source)?)?,
        Command::Replay(a) => simulate(&a, &open_trace(Path::new(&a.source))?)?,
        Command::Compare {
            workload,
            prefetcher,
        } => {
            // The three schemes run concurrently on the pool.
            run_compare_grid(&[find_workload(&workload)?], prefetcher, 0);
        }
        Command::Campaign {
            suite: filter,
            prefetcher,
            jobs,
            per_suite,
            trace_dir,
        } => {
            let run = if let Some(dir) = trace_dir {
                let replays = trace_dir_replays(Path::new(&dir))?;
                let refs: Vec<&TraceReplay> = replays.iter().collect();
                run_compare_grid(&refs, prefetcher, jobs)
            } else {
                let ws: Vec<&Workload> = match filter {
                    Some(id) => seen_workloads()
                        .into_iter()
                        .filter(|w| w.suite() == id)
                        .take(per_suite.unwrap_or(usize::MAX))
                        .collect(),
                    None => pagecross_workloads::representative_seen(per_suite.unwrap_or(4)),
                };
                run_compare_grid(&ws, prefetcher, jobs)
            };
            println!();
            for t in &run.timings {
                println!(
                    "[timing] {:<14} {:<12} {:>10.2?}",
                    t.workload, t.scheme, t.elapsed
                );
            }
            for s in &run.shards {
                println!("[shard {}] {} cells, busy {:.2?}", s.shard, s.cells, s.busy);
            }
            let ph = run.phase_totals();
            println!(
                "[phases] setup {:.2?}, warmup {:.2?}, measure {:.2?} (total {:.2?})",
                ph.setup,
                ph.warmup,
                ph.measure,
                ph.total()
            );
            println!("{}", run.timing_line());
        }
        Command::Record {
            workload,
            out,
            warmup,
            instructions,
        } => {
            let w = find_workload(&workload)?;
            let (dw, di) = w.default_lengths();
            let warm = if warmup > 0 { warmup } else { dw };
            let meas = if instructions > 0 { instructions } else { di };
            let path = PathBuf::from(out.unwrap_or_else(|| format!("{workload}.pct")));
            let meta = pagecross_trace::record(w, warm + meas, w.params().seed, &path)
                .map_err(|e| CliError(format!("recording to '{}': {e}", path.display())))?;
            let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            println!(
                "recorded {} instructions of {} to {} ({} bytes, {:.2} bytes/instr)",
                meta.instr_count,
                meta.name,
                path.display(),
                bytes,
                bytes as f64 / meta.instr_count.max(1) as f64
            );
        }
        Command::CheckTelemetry { jsonl } => {
            let text = std::fs::read_to_string(&jsonl)
                .map_err(|e| CliError(format!("cannot read '{jsonl}': {e}")))?;
            match validate_jsonl(&text) {
                Ok(s) => println!(
                    "ok: {} intervals, {} instructions, {} cycles",
                    s.lines, s.final_instructions, s.final_cycles
                ),
                Err(e) => {
                    eprintln!("error: invalid telemetry '{jsonl}': {e}");
                    return Ok(1);
                }
            }
        }
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagecross_types::{CacheStats, CoreStats, PrefetchStats, TlbStats};

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
    }

    #[test]
    fn list_with_suite() {
        assert_eq!(
            parse(&argv("list --suite gap")).unwrap(),
            Command::List {
                suite: Some(SuiteId::Gap)
            }
        );
        assert!(parse(&argv("list --suite nope")).is_err());
    }

    /// `--os on` maps the tuning flags onto an [`OsConfig`]: sizes as
    /// given, `--fault-ns` at 4 cycles/ns (majors 8x that), and every
    /// unset flag at its default.
    #[test]
    fn os_flags_map_to_config() {
        let os = |s: &str| {
            let kv: Flags = s
                .split_whitespace()
                .collect::<Vec<_>>()
                .chunks(2)
                .map(|kv| {
                    (
                        kv[0].trim_start_matches("--").to_string(),
                        kv[1].to_string(),
                    )
                })
                .collect();
            parse_os(&kv)
        };
        let cfg = os("--os on --phys-mem 64M --thp 0.5 --fault-ns 1000")
            .unwrap()
            .expect("os is on");
        assert_eq!(cfg.phys_mem_bytes, 64 << 20);
        assert_eq!(cfg.thp, 0.5);
        assert_eq!(cfg.minor_fault_cycles, 4_000);
        assert_eq!(cfg.major_fault_cycles, 32_000);
        // Unset tuning flags keep the OsConfig defaults; its thp of 0
        // never promotes.
        assert_eq!(os("--os on").unwrap(), Some(OsConfig::default()));
        assert_eq!(OsConfig::default().thp, 0.0, "an unset --thp is 0");
        assert_eq!(os("").unwrap(), None);
        assert_eq!(os("--os off").unwrap(), None);
    }

    /// `run` and `replay` share every flag but the one naming the source:
    /// each row parses to the same arguments under both subcommands, and
    /// each bad value fails both with the same error.
    #[test]
    fn run_and_replay_parse_shared_flags_identically() {
        let d = SimArgs::default;
        let scheme = |s: Scheme| SimArgs { scheme: s, ..d() };
        let os = |os: OsConfig| {
            scheme(Scheme {
                os: Some(os),
                ..d().scheme
            })
        };
        let rows = [
            // Spelled out in full so the defaults themselves are pinned.
            (
                "",
                SimArgs {
                    source: String::new(),
                    scheme: Scheme {
                        label: String::new(),
                        prefetcher: PrefetcherKind::Berti,
                        policy: PgcPolicyKind::Dripper,
                        l2: L2PrefetcherKind::None,
                        boundary: pagecross_cpu::BoundaryMode::Fixed4K,
                        huge: HugePagePolicy::None,
                        os: None,
                        filter: None,
                    },
                    warmup: 0,
                    instructions: 0,
                    telemetry_out: None,
                    telemetry_interval: 10_000,
                    telemetry_trace: None,
                },
            ),
            (
                "--prefetcher bop --policy permit --l2 spp --huge 0.5",
                scheme(Scheme {
                    l2: L2PrefetcherKind::Spp,
                    huge: HugePagePolicy::Fraction(0.5),
                    ..Scheme::new("", PrefetcherKind::Bop, PgcPolicyKind::PermitPgc)
                }),
            ),
            ("--huge 0", d()),
            (
                "--policy ppf --huge 1",
                scheme(Scheme {
                    huge: HugePagePolicy::Fraction(1.0),
                    ..Scheme::new("", PrefetcherKind::Berti, PgcPolicyKind::Ppf)
                }),
            ),
            (
                "--warmup 1000 --instructions 2000",
                SimArgs {
                    warmup: 1_000,
                    instructions: 2_000,
                    ..d()
                },
            ),
            (
                "--telemetry-out t.jsonl --telemetry-interval 5000 --telemetry-trace t.json",
                SimArgs {
                    telemetry_out: Some("t.jsonl".into()),
                    telemetry_interval: 5_000,
                    telemetry_trace: Some("t.json".into()),
                    ..d()
                },
            ),
            ("--os off", d()),
            (
                "--os on --phys-mem 64M --thp 0.5 --fault-ns 1000",
                os(OsConfig {
                    phys_mem_bytes: 64 << 20,
                    thp: 0.5,
                    minor_fault_cycles: 4_000,
                    major_fault_cycles: 32_000,
                }),
            ),
        ];
        for (flags, want) in rows {
            let run = parse(&argv(&format!("run --workload src {flags}"))).unwrap();
            let replay = parse(&argv(&format!("replay --trace src {flags}"))).unwrap();
            let want = SimArgs {
                source: "src".into(),
                ..want
            };
            assert_eq!(run, Command::Run(want.clone()), "run {flags}");
            assert_eq!(replay, Command::Replay(want), "replay {flags}");
        }

        for flags in [
            "--prefetcher nope",
            "--policy nope",
            "--l2 nope",
            "--huge half",
            "--huge 7",
            "--huge -3",
            "--warmup x",
            "--instructions -1",
            "--telemetry-interval 0",
            "--telemetry-interval x",
            "--os maybe",
            "--os on --phys-mem 63M",
            "--os on --phys-mem lots",
            "--os on --thp 1.5",
            "--os on --fault-ns 0",
            "--thp 0.5",
            "--os off --phys-mem 64M",
        ] {
            let run = parse(&argv(&format!("run --workload src {flags}"))).unwrap_err();
            let replay = parse(&argv(&format!("replay --trace src {flags}"))).unwrap_err();
            assert_eq!(run, replay, "{flags}");
        }
    }

    #[test]
    fn run_and_replay_require_their_source() {
        let e = parse(&argv("run --policy dripper")).unwrap_err();
        assert_eq!(e.0, "run requires --workload <name>");
        let e = parse(&argv("replay --policy dripper")).unwrap_err();
        assert_eq!(e.0, "replay requires --trace <path>");
    }

    #[test]
    fn flags_need_values() {
        assert!(parse(&argv("run --workload")).is_err());
        assert!(parse(&argv("list --suite gap stray")).is_err());
    }

    /// Each subcommand takes exactly the flags its USAGE entry lists.
    #[test]
    fn subcommand_flags_match_usage() {
        let mut usage: Vec<(&str, Vec<&str>)> = Vec::new();
        let entries = USAGE
            .lines()
            .skip_while(|l| !l.starts_with("USAGE:"))
            .take_while(|l| !l.starts_with("Suites:"));
        for line in entries {
            let mut words = line.split_whitespace().peekable();
            if words.peek() == Some(&"pagecross") {
                usage.push((words.nth(1).unwrap(), Vec::new()));
            }
            if let Some((_, flags)) = usage.last_mut() {
                flags.extend(words.filter_map(|w| w.trim_start_matches('[').strip_prefix("--")));
            }
        }
        assert_eq!(
            usage.len(),
            7,
            "every subcommand but help has a USAGE entry"
        );
        for (cmd, mut listed) in usage {
            let allowed = flags_of(cmd).expect("USAGE names a real subcommand");
            let mut taken: Vec<&str> = allowed.split_whitespace().collect();
            listed.sort_unstable();
            taken.sort_unstable();
            assert_eq!(taken, listed, "{cmd}");
        }
    }

    /// A flag the subcommand would ignore, or a second value for one it
    /// takes, is an error naming the flag.
    #[test]
    fn unknown_and_repeated_flags_rejected() {
        for (args, want) in [
            (
                "run --workload gap.s00 --polcy permit",
                "run does not take flag '--polcy'",
            ),
            (
                "replay --trace t.pct --workload gap.s00",
                "replay does not take flag '--workload'",
            ),
            (
                "record --workload gap.s00 --policy permit",
                "record does not take flag '--policy'",
            ),
            (
                "campaign --per-suite 2 --telemetry-out t.jsonl",
                "campaign does not take flag '--telemetry-out'",
            ),
            ("help --suite gap", "help does not take flag '--suite'"),
            (
                "run --workload gap.s00 --huge 7",
                "--huge expects a fraction in [0, 1], got '7'",
            ),
            (
                "replay --trace t.pct --huge -3",
                "--huge expects a fraction in [0, 1], got '-3'",
            ),
            (
                "run --workload gap.s00 --warmup 1 --warmup 2",
                "flag '--warmup' given more than once",
            ),
            (
                "campaign --suite gap --suite spec06",
                "flag '--suite' given more than once",
            ),
            (
                "run --workload gap.s00 --phys-mem 64M",
                "--phys-mem needs --os on",
            ),
            (
                "campaign --trace-dir traces --suite gap",
                "--suite cannot be combined with --trace-dir",
            ),
            (
                "campaign --per-suite 1 --trace-dir traces",
                "--per-suite cannot be combined with --trace-dir",
            ),
        ] {
            assert_eq!(parse(&argv(args)).unwrap_err().0, want, "{args}");
        }
    }

    #[test]
    fn unknown_subcommand_rejected() {
        let e = parse(&argv("frobnicate")).unwrap_err();
        assert!(e.0.contains("unknown subcommand"));
    }

    #[test]
    fn campaign_parses_jobs() {
        assert_eq!(
            parse(&argv(
                "campaign --suite gap --prefetcher bop --jobs 4 --per-suite 2"
            ))
            .unwrap(),
            Command::Campaign {
                suite: Some(SuiteId::Gap),
                prefetcher: PrefetcherKind::Bop,
                jobs: 4,
                per_suite: Some(2),
                trace_dir: None,
            }
        );
        // Defaults: jobs 0 (auto), representative cross-suite set of 4.
        assert_eq!(
            parse(&argv("campaign")).unwrap(),
            Command::Campaign {
                suite: None,
                prefetcher: PrefetcherKind::Berti,
                jobs: 0,
                per_suite: None,
                trace_dir: None,
            }
        );
        assert_eq!(
            parse(&argv("campaign --trace-dir traces --jobs 2")).unwrap(),
            Command::Campaign {
                suite: None,
                prefetcher: PrefetcherKind::Berti,
                jobs: 2,
                per_suite: None,
                trace_dir: Some("traces".to_string()),
            }
        );
        assert!(parse(&argv("campaign --jobs 0")).is_err());
        assert!(parse(&argv("campaign --jobs many")).is_err());
        assert!(parse(&argv("campaign --per-suite 0")).is_err());
    }

    #[test]
    fn size_literals_parse_binary_suffixes() {
        assert_eq!(parse_size("64M"), Some(64 << 20));
        assert_eq!(parse_size("2g"), Some(2 << 30));
        assert_eq!(parse_size("128k"), Some(128 << 10));
        assert_eq!(parse_size("4096"), Some(4096));
        assert_eq!(parse_size(""), None);
        assert_eq!(parse_size("M"), None);
        assert_eq!(parse_size("12Q"), None);
    }

    #[test]
    fn check_telemetry_parses() {
        assert_eq!(
            parse(&argv("check-telemetry --jsonl out.jsonl")).unwrap(),
            Command::CheckTelemetry {
                jsonl: "out.jsonl".to_string()
            }
        );
        assert!(parse(&argv("check-telemetry")).is_err());
    }

    #[test]
    fn run_with_telemetry_emits_checkable_outputs() {
        let dir = std::env::temp_dir().join(format!("pct-telem-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let jsonl = dir.join("out.jsonl");
        let trace = dir.join("trace.json");
        let code = execute(Command::Run(SimArgs {
            source: "gap.s00".to_string(),
            warmup: 1_000,
            instructions: 5_000,
            telemetry_out: Some(jsonl.to_string_lossy().into_owned()),
            telemetry_interval: 1_000,
            telemetry_trace: Some(trace.to_string_lossy().into_owned()),
            ..Default::default()
        }));
        assert_eq!(code, 0);
        let code = execute(Command::CheckTelemetry {
            jsonl: jsonl.to_string_lossy().into_owned(),
        });
        assert_eq!(code, 0, "emitted JSONL must validate");
        // The same stream with one key outside the schema must not.
        let text = std::fs::read_to_string(&jsonl).unwrap();
        std::fs::write(&jsonl, text.replacen('}', ",\"bogus\":1}", 1)).unwrap();
        let code = execute(Command::CheckTelemetry {
            jsonl: jsonl.to_string_lossy().into_owned(),
        });
        assert_eq!(code, 1, "an unknown key must fail validation");
        let trace_text = std::fs::read_to_string(&trace).unwrap();
        assert!(trace_text.contains("\"traceEvents\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn record_parses() {
        assert_eq!(
            parse(&argv(
                "record --workload gap.s00 --out /tmp/g.pct --warmup 100 --instructions 200"
            ))
            .unwrap(),
            Command::Record {
                workload: "gap.s00".to_string(),
                out: Some("/tmp/g.pct".to_string()),
                warmup: 100,
                instructions: 200,
            }
        );
        assert_eq!(
            parse(&argv("record --workload gap.s00")).unwrap(),
            Command::Record {
                workload: "gap.s00".to_string(),
                out: None,
                warmup: 0,
                instructions: 0
            }
        );
        assert!(
            parse(&argv("record")).is_err(),
            "record requires --workload"
        );
        assert!(parse(&argv("record --workload gap.s00 --warmup x")).is_err());
    }

    #[test]
    fn record_then_replay_roundtrip_via_execute() {
        let dir = std::env::temp_dir().join(format!("pct-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("gap.s00.pct");
        let code = execute(Command::Record {
            workload: "gap.s00".to_string(),
            out: Some(out.to_string_lossy().into_owned()),
            warmup: 500,
            instructions: 1_500,
        });
        assert_eq!(code, 0);
        let code = execute(Command::Replay(SimArgs {
            source: out.to_string_lossy().into_owned(),
            ..Default::default()
        }));
        assert_eq!(code, 0);
        // A trace-dir campaign over the same directory also runs clean.
        let code = execute(Command::Campaign {
            suite: None,
            prefetcher: PrefetcherKind::Berti,
            jobs: 2,
            per_suite: None,
            trace_dir: Some(dir.to_string_lossy().into_owned()),
        });
        assert_eq!(code, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Running out of physical frames is a clean exit-2 error with
    /// telemetry on, as it is with telemetry off.
    #[test]
    fn out_of_memory_with_telemetry_exits_2() {
        let dir = std::env::temp_dir().join(format!("pct-oom-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("code-bomb.pct");
        pagecross_trace::record(&crate::campaign::tests::CodeBomb, 36_000, 1, &trace).unwrap();
        let args = parse(&argv(&format!(
            "replay --trace {} --os on --phys-mem 64M --telemetry-out {}",
            trace.display(),
            dir.join("x.jsonl").display()
        )))
        .unwrap();
        assert_eq!(execute(args), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_dir_errors_are_reported() {
        let empty = std::env::temp_dir().join(format!("pct-empty-{}", std::process::id()));
        std::fs::create_dir_all(&empty).unwrap();
        assert!(trace_dir_replays(&empty).is_err(), "no traces -> error");
        assert!(trace_dir_replays(Path::new("/nonexistent-dir")).is_err());
        std::fs::remove_dir_all(&empty).ok();
    }

    #[test]
    fn find_workload_by_name() {
        assert!(find_workload("gap.s00").is_ok());
        assert!(find_workload("gap.u00").is_ok());
        assert!(find_workload("nonexistent.z99").is_err());
    }

    /// `execute` exits 0 on success and 2 for any error.
    #[test]
    fn execute_list_and_help_succeed() {
        let dir = std::env::temp_dir().join(format!("pct-exit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let nope = "nonexistent.z99".to_string();
        let path = |p: &Path| p.to_string_lossy().into_owned();
        for (cmd, want) in [
            (Command::Help, 0),
            (
                Command::List {
                    suite: Some(SuiteId::QmmFp),
                },
                0,
            ),
            (
                Command::Run(SimArgs {
                    source: nope.clone(),
                    ..Default::default()
                }),
                2,
            ),
            (
                Command::Compare {
                    workload: nope.clone(),
                    prefetcher: PrefetcherKind::Berti,
                },
                2,
            ),
            (
                Command::Record {
                    workload: nope,
                    out: Some(path(&dir.join("x.pct"))),
                    warmup: 0,
                    instructions: 0,
                },
                2,
            ),
            (
                Command::Replay(SimArgs {
                    source: path(&dir.join("missing.pct")),
                    ..Default::default()
                }),
                2,
            ),
            (
                Command::Campaign {
                    suite: None,
                    prefetcher: PrefetcherKind::Berti,
                    jobs: 1,
                    per_suite: None,
                    trace_dir: Some(path(&dir.join("missing-dir"))),
                },
                2,
            ),
        ] {
            let shown = format!("{cmd:?}");
            assert_eq!(execute(cmd), want, "{shown}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `check-telemetry` exits 1 only for a file that reads but fails
    /// validation, and 2 for one it cannot read.
    #[test]
    fn check_telemetry_rejects_garbage() {
        let dir = std::env::temp_dir().join(format!("pct-telem-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.jsonl");
        std::fs::write(&bad, "{\"seq\":1}\n").unwrap();
        for (jsonl, want) in [(&bad, 1), (&dir.join("missing.jsonl"), 2)] {
            let jsonl = jsonl.to_string_lossy().into_owned();
            assert_eq!(execute(Command::CheckTelemetry { jsonl }), want);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A stream whose `d_*` deltas sum past `u64::MAX` fails validation
    /// (exit 1) instead of passing with a wrapped total.
    #[test]
    fn check_telemetry_rejects_an_overflowing_sum() {
        let dir = std::env::temp_dir().join(format!("pct-telem-sum-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let records: Vec<_> = (0..3)
            .map(|seq| pagecross_types::IntervalRecord {
                seq,
                end_instructions: (seq + 1) * 100,
                end_cycles: (seq + 1) * 200,
                delta: pagecross_types::TelemetryCounters {
                    instructions: 100,
                    cycles: 200,
                    l1d_misses: u64::MAX,
                    ..Default::default()
                },
                policy: None,
            })
            .collect();
        let text = intervals_to_jsonl(&records);
        assert_eq!(
            text.matches("\"d_l1d_misses\":18446744073709551615")
                .count(),
            3
        );
        let jsonl = dir.join("sum.jsonl");
        std::fs::write(&jsonl, text).unwrap();
        let jsonl = jsonl.to_string_lossy().into_owned();
        assert_eq!(execute(Command::CheckTelemetry { jsonl }), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `run` and `replay` print this block; their diff in verify.sh cannot
    /// see a change that alters both, so the exact text is pinned here.
    #[test]
    fn report_block_text_is_pinned() {
        let miss = |demand_misses| CacheStats {
            demand_misses,
            ..Default::default()
        };
        let mut r = Report {
            workload: "gap.s00".into(),
            prefetcher: "berti".into(),
            policy: "dripper".into(),
            core: CoreStats {
                instructions: 20_000,
                cycles: 40_000,
                ..Default::default()
            },
            l1i: miss(20),
            l1d: CacheStats {
                demand_misses: 1_000,
                prefetch_useful: 1_317,
                prefetch_useless: 56,
                pgc_useful: 27,
                pgc_useless: 17,
                ..Default::default()
            },
            llc: miss(500),
            dtlb: TlbStats {
                misses: 800,
                ..Default::default()
            },
            stlb: TlbStats {
                misses: 400,
                ..Default::default()
            },
            prefetch: PrefetchStats {
                candidates: 9_000,
                inpage_issued: 1_300,
                pgc_candidates: 850,
                pgc_issued: 230,
                pgc_discarded: 490,
                speculative_walks: 77,
                ..Default::default()
            },
            ..Default::default()
        };
        let block = "\
workload     gap.s00
prefetcher   berti / policy dripper
IPC          0.5000  (20000 instr, 40000 cycles)
MPKI         l1i 1.00  l1d 50.00  llc 25.00  dtlb 40.00  stlb 20.00
prefetch     candidates 9000  in-page 1300  pgc-candidates 850
page-cross   issued 230  discarded 490  spec-walks 77  useful 27  useless 17
quality      coverage 0.568  accuracy 0.959  pgc-accuracy 0.614
";
        assert_eq!(report_text(&r), block, "OS counters at zero: no os line");

        r.os = OsStats {
            minor_faults: 448,
            major_faults: 2,
            reclaims: 3,
            thp_promotions: 1,
            thp_demotions: 4,
            shootdowns: 5,
            ipis_received: 6,
            fault_cycles: 1_794_000,
        };
        assert_eq!(
            report_text(&r),
            format!(
                "{block}os           minor 448  major 2  reclaims 3  promote 1  demote 4  shootdowns 5\n"
            )
        );
    }
}
