//! The traced driver: a simulation assembled by hand from the crates'
//! public parts (`MemorySystem::new`, `Os::new`, `CoreEngine::new`),
//! mirroring `SimulationBuilder::run_workload` and `run_mix` step for step,
//! with the prefetcher and the policy wrapped in timing decorators and one
//! instruction in `SAMPLE_MEAN` timed. The gate checks that its counters
//! equal the builder's, which shows that tracing only observes.

use crate::check::Sim;
use crate::probe::{Gaps, Probe, TimedPolicy, TimedPrefetcher};
use crate::workloads::Job;
use moka_pgc::{DiscardPgc, PermitPgc, PgcPolicy, TargetPrefetcher};
use pagecross_cpu::engine::CoreEngine;
use pagecross_cpu::trace::{TraceFactory, TraceSource};
use pagecross_cpu::{
    BoundaryMode, CoreConfig, MixReport, Os, PgcPolicyKind, PrefetcherKind, Report,
};
use pagecross_mem::{HugePagePolicy, MemConfig, MemorySystem, OomError};
use pagecross_prefetch::Berti;
use pagecross_types::{CoreStats, OsStats};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Mean distance between sampled instructions.
pub const SAMPLE_MEAN: u64 = 16;

/// Per-layer counts of one traced job's measured phase, summed over cores.
/// For a mix they cover every instruction simulated in the measured phase,
/// including those a core runs after its own quota.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerCounts {
    pub instrs: u64,
    pub l1d_misses: u64,
    pub llc_misses: u64,
    pub dtlb_misses: u64,
    pub stlb_misses: u64,
    pub walks: u64,
    pub pf_useful: u64,
    pub pf_useless: u64,
    pub pgc_useful: u64,
    pub pgc_useless: u64,
    pub candidates: u64,
    pub pgc_candidates: u64,
    pub pgc_issued: u64,
    pub spec_walks: u64,
    pub faults: u64,
    pub majors: u64,
    pub reclaims: u64,
    pub shootdowns: u64,
    pub ipis: u64,
}

impl LayerCounts {
    fn of(mem: &MemorySystem, engines: &[CoreEngine], os: Option<&Os>) -> Self {
        let mut s = LayerCounts {
            llc_misses: mem.llc.stats.demand_misses,
            ..Default::default()
        };
        for (i, e) in engines.iter().enumerate() {
            let c = mem.core(i);
            s.instrs += e.stats.instructions;
            s.l1d_misses += c.l1d.stats.demand_misses;
            s.dtlb_misses += c.dtlb.stats.misses;
            s.stlb_misses += c.stlb.stats.misses;
            s.walks += c.walk_stats.demand_walks + c.walk_stats.prefetch_walks;
            s.pf_useful += c.l1d.stats.prefetch_useful;
            s.pf_useless += c.l1d.stats.prefetch_useless;
            s.pgc_useful += c.l1d.stats.pgc_useful;
            s.pgc_useless += c.l1d.stats.pgc_useless;
            s.candidates += e.pstats.candidates;
            s.pgc_candidates += e.pstats.pgc_candidates;
            s.pgc_issued += e.pstats.pgc_issued;
            s.spec_walks += e.pstats.speculative_walks;
        }
        if let Some(os) = os {
            let t = os.total_stats();
            s.faults = t.faults();
            s.majors = t.major_faults;
            s.reclaims = t.reclaims;
            s.shootdowns = t.shootdowns;
            s.ipis = t.ipis_received;
        }
        s
    }
}

/// One traced job's result.
pub struct Traced {
    pub sim: Sim,
    pub counts: LayerCounts,
    pub measure: Duration,
}

/// The policy `SimulationBuilder` builds for `kind` with Berti at L1D.
fn policy(kind: PgcPolicyKind) -> Box<dyn PgcPolicy> {
    match kind {
        PgcPolicyKind::PermitPgc => Box::new(PermitPgc),
        PgcPolicyKind::DiscardPgc => Box::new(DiscardPgc),
        PgcPolicyKind::Dripper => Box::new(moka_pgc::dripper(TargetPrefetcher::Berti)),
        other => panic!("no benchmark workload uses policy {other:?}"),
    }
}

fn engine(core: usize, kind: PgcPolicyKind, probe: &Rc<Probe>) -> CoreEngine {
    CoreEngine::new(
        core,
        CoreConfig::default(),
        BoundaryMode::Fixed4K,
        Box::new(TimedPrefetcher {
            inner: Box::new(Berti::new(1)),
            probe: probe.clone(),
        }),
        Box::new(TimedPolicy {
            inner: policy(kind),
            probe: probe.clone(),
        }),
        None,
    )
}

/// Memory and OS as the builder makes them: with the OS on, its physical
/// memory replaces the DRAM capacity and static huge pages stay off.
pub fn machine(job: &Job, n: usize) -> (MemorySystem, Option<Os>) {
    let mut cfg = MemConfig::table_iv(n as u32);
    if let Some(os) = &job.os {
        cfg.dram.capacity_bytes = os.phys_mem_bytes;
    }
    let mem = MemorySystem::new(cfg, n, HugePagePolicy::None, job.sim_seed);
    (mem, job.os.map(|c| Os::new(c, n)))
}

/// One measured instruction, timed when `sampled`.
fn step(
    engine: &mut CoreEngine,
    trace: &mut dyn TraceSource,
    mem: &mut MemorySystem,
    os: &mut Option<Os>,
    probe: &Probe,
    sampled: bool,
) -> Result<(), OomError> {
    if sampled {
        probe.sample(|| trace.next_instr(), |i| engine.step(mem, os, &i))
    } else {
        let i = trace.next_instr();
        engine.step(mem, os, &i)
    }
}

/// The laggard eligible core, as the builder's mix scheduler picks it.
fn next_core(engines: &[CoreEngine], mask: &[bool]) -> usize {
    engines
        .iter()
        .enumerate()
        .filter(|(i, _)| mask[*i])
        .min_by_key(|(_, e)| e.cycle())
        .map(|(i, _)| i)
        .expect("at least one eligible core")
}

/// Runs `job` over `factories` (one per core) with timing decorators.
pub fn run(
    job: &Job,
    factories: &[&dyn TraceFactory],
    probe: &Rc<Probe>,
) -> Result<Traced, OomError> {
    let n = factories.len();
    let (mut mem, mut os) = machine(job, n);
    let mut engines: Vec<CoreEngine> = (0..n).map(|i| engine(i, job.policy, probe)).collect();
    let mut traces: Vec<Box<dyn TraceSource>> = factories.iter().map(|f| f.build()).collect();

    let mut warmed = vec![false; n];
    while warmed.iter().any(|w| !w) {
        let pending: Vec<bool> = warmed.iter().map(|w| !w).collect();
        let i = next_core(&engines, &pending);
        let instr = traces[i].next_instr();
        engines[i].step(&mut mem, &mut os, &instr)?;
        if engines[i].instructions() >= job.warmup {
            warmed[i] = true;
        }
    }
    if let Some(o) = os.as_mut() {
        o.reset_stats();
    }
    mem.reset_stats();
    for e in &mut engines {
        e.reset_stats(&mem);
    }

    probe.measuring.set(true);
    let mut gaps = Gaps::new(SAMPLE_MEAN);
    let t0 = Instant::now();
    let mut frozen: Vec<Option<(CoreStats, OsStats)>> = vec![None; n];
    let result = (|| {
        while frozen.iter().any(Option::is_none) {
            let pending: Vec<bool> = frozen.iter().map(Option::is_none).collect();
            let i = next_core(&engines, &pending);
            let e = &mut engines[i];
            step(e, traces[i].as_mut(), &mut mem, &mut os, probe, gaps.next())?;
            if frozen[i].is_none() && e.instructions() >= job.measure {
                e.finish();
                frozen[i] = Some((e.stats, e.os_stats));
            }
        }
        Ok(())
    })();
    let measure = t0.elapsed();
    probe.measuring.set(false);
    result?;

    let counts = LayerCounts::of(&mem, &engines, os.as_ref());
    let names: Vec<String> = factories.iter().map(|f| f.name().to_string()).collect();
    let sim = if n == 1 {
        let (e, c) = (&engines[0], mem.core(0));
        Sim::Single(Report {
            workload: names[0].clone(),
            prefetcher: PrefetcherKind::Berti.label().to_string(),
            policy: job.policy.label().to_string(),
            core: e.stats,
            l1i: c.l1i.stats,
            l1d: c.l1d.stats,
            l2c: c.l2c.stats,
            llc: mem.llc.stats,
            dtlb: c.dtlb.stats,
            stlb: c.stlb.stats,
            walks: c.walk_stats,
            prefetch: e.pstats,
            os: e.os_stats,
        })
    } else {
        let (cores, os_stats) = frozen
            .into_iter()
            .map(|f| f.expect("all cores frozen"))
            .unzip();
        Sim::Mix(MixReport {
            workloads: names,
            cores,
            os: os_stats,
            llc: mem.llc.stats,
        })
    };
    Ok(Traced {
        sim,
        counts,
        measure,
    })
}
