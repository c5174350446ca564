//! The simulation builder: assembles a core + memory system + prefetcher +
//! page-cross policy and runs workloads or multi-core mixes.

use crate::config::{BoundaryMode, CoreConfig};
use crate::engine::CoreEngine;
use crate::report::{MixReport, Report};
use crate::trace::TraceFactory;
use moka_pgc::dripper::{single_program_feature, single_system_feature, TargetPrefetcher};
use moka_pgc::{
    DiscardPgc, DiscardPtw, FilterConfig, FilterPolicy, PageCrossFilter, PermitPgc, PgcPolicy,
    ProgramFeature, SystemFeature,
};
use pagecross_mem::{HugePagePolicy, MemConfig, MemorySystem, OomError};
use pagecross_os::{Os, OsConfig};
use pagecross_prefetch::{
    AccessInfo, Berti, Bop, Ipcp, L1dPrefetcher, L2Prefetcher, NextLine, Spp, Stride,
};
use pagecross_telemetry::{PhaseTimings, TelemetryConfig, TelemetryRun};
use pagecross_types::{PrefetchCandidate, VirtAddr};
use std::time::Instant;

/// L1D prefetcher selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrefetcherKind {
    /// No prefetching.
    None,
    /// Next-line baseline.
    NextLine,
    /// PC-stride baseline.
    Stride,
    /// Berti (MICRO'22) — the paper's primary case study.
    Berti,
    /// IPCP (ISCA'20).
    Ipcp,
    /// BOP (HPCA'16).
    Bop,
}

impl PrefetcherKind {
    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            PrefetcherKind::None => "none",
            PrefetcherKind::NextLine => "next-line",
            PrefetcherKind::Stride => "stride",
            PrefetcherKind::Berti => "berti",
            PrefetcherKind::Ipcp => "ipcp",
            PrefetcherKind::Bop => "bop",
        }
    }

    fn dripper_target(self) -> TargetPrefetcher {
        match self {
            PrefetcherKind::Berti => TargetPrefetcher::Berti,
            PrefetcherKind::Bop => TargetPrefetcher::Bop,
            // IPCP and the baselines share the PC⊕Delta configuration.
            _ => TargetPrefetcher::Ipcp,
        }
    }
}

/// Page-cross policy selection (the schemes of Fig. 9 and §V).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PgcPolicyKind {
    /// Always issue page-cross prefetches.
    PermitPgc,
    /// Never issue page-cross prefetches.
    DiscardPgc,
    /// Issue only when the translation is TLB-resident (no speculative
    /// walks).
    DiscardPtw,
    /// Permit PGC with the prefetcher's tables enlarged by DRIPPER's
    /// storage budget.
    IsoStorage,
    /// DRIPPER (Table II configuration for the active prefetcher).
    Dripper,
    /// DRIPPER with only its system features (§V-B5).
    DripperSf,
    /// PPF converted to a page-cross filter (static threshold).
    Ppf,
    /// PPF with MOKA's dynamic thresholding.
    PpfDthr,
    /// A filter built from exactly one program feature (Fig. 14).
    SingleFeature(ProgramFeature),
    /// A filter built from exactly one system feature (Fig. 14).
    SingleSystemFeature(SystemFeature),
}

impl PgcPolicyKind {
    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            PgcPolicyKind::PermitPgc => "permit-pgc",
            PgcPolicyKind::DiscardPgc => "discard-pgc",
            PgcPolicyKind::DiscardPtw => "discard-ptw",
            PgcPolicyKind::IsoStorage => "iso-storage",
            PgcPolicyKind::Dripper => "dripper",
            PgcPolicyKind::DripperSf => "dripper-sf",
            PgcPolicyKind::Ppf => "ppf",
            PgcPolicyKind::PpfDthr => "ppf+dthr",
            PgcPolicyKind::SingleFeature(_) => "single-feature",
            PgcPolicyKind::SingleSystemFeature(_) => "single-sys-feature",
        }
    }
}

/// L2C prefetcher selection (§V-B7).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum L2PrefetcherKind {
    /// No L2C prefetcher (the paper's main configuration).
    #[default]
    None,
    /// SPP.
    Spp,
    /// IPCP adapted to the physical space.
    Ipcp,
    /// BOP adapted to the physical space.
    Bop,
}

/// Adapts an L1D-style prefetcher to the L2C's physical, page-bounded
/// world: candidates leaving the 4 KB physical page are dropped.
struct L2Adapter<P: L1dPrefetcher> {
    inner: P,
    buf: Vec<PrefetchCandidate>,
}

impl<P: L1dPrefetcher> L2Prefetcher for L2Adapter<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_access(&mut self, pc: u64, paddr: u64, hit: bool, out: &mut Vec<u64>) {
        let va = VirtAddr::new(paddr); // physical bits reinterpreted
        let info = AccessInfo {
            pc,
            va,
            hit,
            cycle: 0,
            first_page_access: false,
        };
        self.buf.clear();
        self.inner.on_access(&info, &mut self.buf);
        if !hit {
            self.inner.on_fill(va, 0);
        }
        for c in &self.buf {
            if !c.crosses_page_4k() {
                out.push(c.target.raw());
            }
        }
    }
}

/// A no-op prefetcher for the `None` kind.
struct NoPrefetch;

impl L1dPrefetcher for NoPrefetch {
    fn name(&self) -> &'static str {
        "none"
    }

    fn on_access(&mut self, _info: &AccessInfo, _out: &mut Vec<PrefetchCandidate>) {}
}

/// Builds and runs simulations.
///
/// # Example
///
/// ```
/// use pagecross_cpu::{SimulationBuilder, PrefetcherKind, PgcPolicyKind};
/// use pagecross_cpu::trace::{Instr, Op, TraceFactory, TraceSource};
/// use pagecross_types::VirtAddr;
///
/// struct Stream;
/// struct StreamSrc(u64);
/// impl TraceSource for StreamSrc {
///     fn next_instr(&mut self) -> Instr {
///         self.0 += 64;
///         Instr { pc: 0x400000, op: Op::Load { va: VirtAddr::new(0x10_0000 + self.0), depends_on_prev: false } }
///     }
/// }
/// impl TraceFactory for Stream {
///     fn name(&self) -> &str { "stream" }
///     fn build(&self) -> Box<dyn TraceSource> { Box::new(StreamSrc(0)) }
/// }
///
/// let report = SimulationBuilder::new()
///     .prefetcher(PrefetcherKind::Berti)
///     .pgc_policy(PgcPolicyKind::Dripper)
///     .warmup(2_000)
///     .instructions(10_000)
///     .run_workload(&Stream);
/// assert!(report.ipc() > 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct SimulationBuilder {
    prefetcher: PrefetcherKind,
    policy: PgcPolicyKind,
    custom_filter: Option<FilterConfig>,
    l2_prefetcher: L2PrefetcherKind,
    boundary: BoundaryMode,
    huge_pages: HugePagePolicy,
    core_cfg: CoreConfig,
    warmup: u64,
    instructions: u64,
    seed: u64,
    os: Option<OsConfig>,
}

impl SimulationBuilder {
    /// A builder with the paper's defaults: Berti + DRIPPER, 4 KB pages,
    /// no L2C prefetcher.
    pub fn new() -> Self {
        Self {
            prefetcher: PrefetcherKind::Berti,
            policy: PgcPolicyKind::Dripper,
            custom_filter: None,
            l2_prefetcher: L2PrefetcherKind::None,
            boundary: BoundaryMode::Fixed4K,
            huge_pages: HugePagePolicy::None,
            core_cfg: CoreConfig::default(),
            warmup: 50_000,
            instructions: 100_000,
            seed: 0xC0FFEE,
            os: None,
        }
    }

    /// Selects the L1D prefetcher.
    pub fn prefetcher(mut self, kind: PrefetcherKind) -> Self {
        self.prefetcher = kind;
        self
    }

    /// Selects the page-cross policy.
    pub fn pgc_policy(mut self, kind: PgcPolicyKind) -> Self {
        self.policy = kind;
        self
    }

    /// Overrides the policy with a filter built from an explicit MOKA
    /// configuration (ablation studies: buffer sizes, table sizes, custom
    /// feature selections).
    pub fn custom_filter(mut self, cfg: FilterConfig) -> Self {
        self.custom_filter = Some(cfg);
        self
    }

    /// Selects the L2C prefetcher.
    pub fn l2_prefetcher(mut self, kind: L2PrefetcherKind) -> Self {
        self.l2_prefetcher = kind;
        self
    }

    /// Selects the filtering boundary mode (§V-B6).
    pub fn boundary(mut self, mode: BoundaryMode) -> Self {
        self.boundary = mode;
        self
    }

    /// Selects the huge-page policy of the address space.
    pub fn huge_pages(mut self, policy: HugePagePolicy) -> Self {
        self.huge_pages = policy;
        self
    }

    /// Overrides the core configuration.
    pub fn core_config(mut self, cfg: CoreConfig) -> Self {
        self.core_cfg = cfg;
        self
    }

    /// Warm-up instructions (statistics discarded).
    pub fn warmup(mut self, n: u64) -> Self {
        self.warmup = n;
        self
    }

    /// Measured instructions.
    pub fn instructions(mut self, n: u64) -> Self {
        self.instructions = n;
        self
    }

    /// Seed for physical frame placement.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables the imitation OS (demand paging, CLOCK reclamation, online
    /// THP, TLB shootdowns). Physical memory shrinks to
    /// `cfg.phys_mem_bytes` and the static [`HugePagePolicy`] is ignored:
    /// 2 MB mappings come only from the OS's own promotion daemon.
    pub fn os(mut self, cfg: OsConfig) -> Self {
        self.os = Some(cfg);
        self
    }

    fn make_prefetcher(&self) -> Box<dyn L1dPrefetcher> {
        // ISO-Storage gives the prefetcher DRIPPER's budget as extra tables.
        let mult = if self.policy == PgcPolicyKind::IsoStorage {
            4
        } else {
            1
        };
        match self.prefetcher {
            PrefetcherKind::None => Box::new(NoPrefetch),
            PrefetcherKind::NextLine => Box::new(NextLine::new(1)),
            PrefetcherKind::Stride => Box::new(Stride::new(2)),
            PrefetcherKind::Berti => Box::new(Berti::new(mult)),
            PrefetcherKind::Ipcp => Box::new(Ipcp::new(mult)),
            PrefetcherKind::Bop => Box::new(Bop::new(mult)),
        }
    }

    fn make_policy(&self) -> Box<dyn PgcPolicy> {
        if let Some(cfg) = &self.custom_filter {
            return Box::new(FilterPolicy::new(
                "custom",
                PageCrossFilter::new(cfg.clone()),
            ));
        }
        match self.policy {
            PgcPolicyKind::PermitPgc | PgcPolicyKind::IsoStorage => Box::new(PermitPgc),
            PgcPolicyKind::DiscardPgc => Box::new(DiscardPgc),
            PgcPolicyKind::DiscardPtw => Box::new(DiscardPtw),
            PgcPolicyKind::Dripper => {
                Box::new(moka_pgc::dripper::dripper(self.prefetcher.dripper_target()))
            }
            PgcPolicyKind::DripperSf => Box::new(moka_pgc::dripper_sf()),
            PgcPolicyKind::Ppf => Box::new(moka_pgc::ppf()),
            PgcPolicyKind::PpfDthr => Box::new(moka_pgc::ppf_dthr()),
            PgcPolicyKind::SingleFeature(f) => Box::new(single_program_feature(f)),
            PgcPolicyKind::SingleSystemFeature(f) => Box::new(single_system_feature(f)),
        }
    }

    fn make_l2(&self) -> Option<Box<dyn L2Prefetcher>> {
        match self.l2_prefetcher {
            L2PrefetcherKind::None => None,
            L2PrefetcherKind::Spp => Some(Box::new(Spp::new())),
            L2PrefetcherKind::Ipcp => Some(Box::new(L2Adapter {
                inner: Ipcp::new(1),
                buf: Vec::new(),
            })),
            L2PrefetcherKind::Bop => Some(Box::new(L2Adapter {
                inner: Bop::new(1),
                buf: Vec::new(),
            })),
        }
    }

    fn make_engine(&self, core_id: usize) -> CoreEngine {
        CoreEngine::new(
            core_id,
            self.core_cfg,
            self.boundary,
            self.make_prefetcher(),
            self.make_policy(),
            self.make_l2(),
        )
    }

    fn collect_report(&self, name: &str, engine: &CoreEngine, mem: &MemorySystem) -> Report {
        let c = mem.core(0);
        Report {
            workload: name.to_string(),
            prefetcher: self.prefetcher.label().to_string(),
            policy: self.policy.label().to_string(),
            core: engine.stats,
            l1i: c.l1i.stats,
            l1d: c.l1d.stats,
            l2c: c.l2c.stats,
            llc: mem.llc.stats,
            dtlb: c.dtlb.stats,
            stlb: c.stlb.stats,
            walks: c.walk_stats,
            prefetch: engine.pstats,
            os: engine.os_stats,
        }
    }

    /// Memory + OS construction shared by the single and mix paths. With
    /// the OS on, its physical-memory size overrides the DRAM capacity
    /// and the static huge-page policy is forced off.
    fn make_mem_and_os(&self, n: usize) -> (MemorySystem, Option<Os>) {
        let mut mcfg = MemConfig::table_iv(n as u32);
        let huge = if let Some(os) = &self.os {
            mcfg.dram.capacity_bytes = os.phys_mem_bytes;
            HugePagePolicy::None
        } else {
            self.huge_pages.clone()
        };
        let mem = MemorySystem::new(mcfg, n, huge, self.seed);
        let os = self.os.map(|cfg| Os::new(cfg, n));
        (mem, os)
    }

    /// The simulation loop shared by single runs and mixes (§IV-A2).
    /// Cores advance in rough cycle lockstep, the laggard first. A core
    /// stops when it reaches its quota; the others keep contending for the
    /// shared LLC, DRAM and OS until every core is done. Telemetry (`tcfg`)
    /// observes core 0 and is pure observation: the counters are
    /// bit-identical with and without it. An `Err` means physical memory
    /// was exhausted with nothing left to reclaim (only possible with the
    /// OS model on and a pathological footprint/pool ratio).
    fn simulate(
        &self,
        workloads: &[&dyn TraceFactory],
        tcfg: Option<&TelemetryConfig>,
    ) -> Result<Finished, OomError> {
        let n = workloads.len();
        assert!(n > 0, "a simulation needs at least one workload");
        let t0 = Instant::now();
        let (mut mem, mut os) = self.make_mem_and_os(n);
        let mut engines: Vec<CoreEngine> = (0..n).map(|i| self.make_engine(i)).collect();
        let mut traces: Vec<_> = workloads.iter().map(|w| w.build()).collect();
        let t_setup = Instant::now();
        let mut run_until = |engines: &mut [CoreEngine],
                             mem: &mut MemorySystem,
                             os: &mut Option<Os>,
                             quota: u64| {
            while let Some(i) = next_core(engines, quota) {
                let instr = traces[i].next_instr();
                engines[i].step(mem, os, &instr)?;
            }
            Ok::<(), OomError>(())
        };
        run_until(&mut engines, &mut mem, &mut os, self.warmup)?;
        let t_warmup = Instant::now();
        if let Some(o) = os.as_mut() {
            o.reset_stats();
        }
        mem.reset_stats();
        for e in &mut engines {
            e.reset_stats(&mem);
        }
        if let Some(cfg) = tcfg {
            engines[0].attach_sampler(cfg.interval);
            if let Some(ring) = cfg.make_ring() {
                mem.attach_events(ring);
            }
        }
        run_until(&mut engines, &mut mem, &mut os, self.instructions)?;
        for e in &mut engines {
            e.finish();
        }
        let telemetry = engines[0].take_sampler().map(|mut sampler| {
            // Close the final partial interval against the report's cycle
            // count (live clock plus drain) so the deltas telescope to the
            // report totals.
            let mut now = engines[0].telemetry_counters(&mem);
            now.cycles = engines[0].stats.cycles;
            sampler.flush(now, engines[0].policy().telemetry());
            let (events, events_seen) = match mem.take_events() {
                Some(ring) => {
                    let seen = ring.seen();
                    (ring.into_events(), seen)
                }
                None => (Vec::new(), 0),
            };
            TelemetryRun {
                intervals: sampler.into_intervals(),
                events,
                events_seen,
            }
        });
        let timings = PhaseTimings {
            setup: t_setup.duration_since(t0),
            warmup: t_warmup.duration_since(t_setup),
            measure: t_warmup.elapsed(),
        };
        Ok(Finished {
            engines,
            mem,
            timings,
            telemetry,
        })
    }

    /// Runs `workload` on one core and reports it with the run's phase
    /// timings and telemetry.
    fn try_run_single(
        &self,
        workload: &dyn TraceFactory,
        tcfg: Option<&TelemetryConfig>,
    ) -> Result<(Report, PhaseTimings, Option<TelemetryRun>), OomError> {
        let f = self.simulate(&[workload], tcfg)?;
        let report = self.collect_report(workload.name(), &f.engines[0], &f.mem);
        Ok((report, f.timings, f.telemetry))
    }

    /// Runs a single workload on a single core.
    pub fn run_workload(&self, workload: &dyn TraceFactory) -> Report {
        self.try_run_workload(workload)
            .expect("out of physical memory")
    }

    /// Runs a single workload, surfacing physical-memory exhaustion as an
    /// error instead of panicking (campaign cells use this so one OOM cell
    /// doesn't sink the whole grid).
    pub fn try_run_workload(&self, workload: &dyn TraceFactory) -> Result<Report, OomError> {
        Ok(self.try_run_single(workload, None)?.0)
    }

    /// Runs a single workload with telemetry collection.
    pub fn run_workload_with_telemetry(
        &self,
        workload: &dyn TraceFactory,
        cfg: &TelemetryConfig,
    ) -> (Report, TelemetryRun) {
        let (report, _, telemetry) = self
            .try_run_single(workload, Some(cfg))
            .expect("out of physical memory");
        (report, telemetry.expect("sampler was attached"))
    }

    /// Runs a single workload, also returning wall-clock phase timings.
    /// Campaign cells use this so one out-of-memory cell surfaces as a
    /// per-cell failure instead of sinking the whole grid.
    pub fn try_run_workload_timed(
        &self,
        workload: &dyn TraceFactory,
    ) -> Result<(Report, PhaseTimings), OomError> {
        let (report, timings, _) = self.try_run_single(workload, None)?;
        Ok((report, timings))
    }

    /// Runs an `n`-core mix (§IV-A2): cores advance in rough cycle
    /// lockstep; each core's statistics freeze when it reaches the measured
    /// instruction quota, and the others keep running to preserve
    /// contention until every core finishes.
    pub fn run_mix(&self, workloads: &[&dyn TraceFactory]) -> MixReport {
        self.try_run_mix(workloads).expect("out of physical memory")
    }

    /// Fallible variant of [`run_mix`](Self::run_mix); see
    /// [`try_run_workload`](Self::try_run_workload).
    pub fn try_run_mix(&self, workloads: &[&dyn TraceFactory]) -> Result<MixReport, OomError> {
        let f = self.simulate(workloads, None)?;
        Ok(MixReport {
            workloads: workloads.iter().map(|w| w.name().to_string()).collect(),
            cores: f.engines.iter().map(|e| e.stats).collect(),
            os: f.engines.iter().map(|e| e.os_stats).collect(),
            llc: f.mem.llc.stats,
        })
    }
}

/// The state a finished [`SimulationBuilder::simulate`] leaves behind.
struct Finished {
    engines: Vec<CoreEngine>,
    mem: MemorySystem,
    timings: PhaseTimings,
    telemetry: Option<TelemetryRun>,
}

/// Picks the laggard among the cores still below `quota` retired
/// instructions, or `None` once every core has reached it.
fn next_core(engines: &[CoreEngine], quota: u64) -> Option<usize> {
    if let [e] = engines {
        // Single-core fast path: no scan on every instruction.
        return (e.instructions() < quota).then_some(0);
    }
    engines
        .iter()
        .enumerate()
        .filter(|(_, e)| e.instructions() < quota)
        .min_by_key(|(_, e)| e.cycle())
        .map(|(i, _)| i)
}

impl Default for SimulationBuilder {
    fn default() -> Self {
        Self::new()
    }
}
