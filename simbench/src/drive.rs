//! Layer drives: a workload's own stream fed straight into one layer's
//! public entry point, timed with one clock read before and one after the
//! whole stream. They measure layers outside the engine's own path, and
//! layers a workload's path does not include (the trace decoder on a
//! generated workload, the generator on a replayed one).

use crate::workloads::{GenWorkload, Job};
use pagecross_cpu::trace::{Op, TraceFactory};
use pagecross_cpu::{Os, OsConfig};
use pagecross_mem::{HugePagePolicy, MemConfig, MemorySystem, OomError};
use pagecross_trace::{record, BlockingSource, TraceError};
use pagecross_types::VirtAddr;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Instructions taken from each core's stream for a drive.
pub const DRIVE_INSTRS: u64 = 300_000;

/// Mean ns per item of `f` over `items`.
fn timed<T>(
    items: &[T],
    mut f: impl FnMut(usize, &T) -> Result<u64, OomError>,
) -> Result<f64, OomError> {
    let mut sink = 0u64;
    let t0 = Instant::now();
    for (k, it) in items.iter().enumerate() {
        sink = sink.wrapping_add(f(k, it)?);
    }
    let elapsed = t0.elapsed();
    black_box(sink);
    Ok(elapsed.as_nanos() as f64 / items.len().max(1) as f64)
}

/// The memory operations of the first `DRIVE_INSTRS` instructions of
/// every core's stream, interleaved round-robin: `(core, va, is_store)`.
pub fn accesses(cores: &[GenWorkload]) -> Vec<(usize, VirtAddr, bool)> {
    let streams: Vec<Vec<(VirtAddr, bool)>> = cores
        .iter()
        .map(|w| {
            let mut src = w.build();
            (0..DRIVE_INSTRS)
                .filter_map(|_| match src.next_instr().op {
                    Op::Load { va, .. } => Some((va, false)),
                    Op::Store { va } => Some((va, true)),
                    _ => None,
                })
                .collect()
        })
        .collect();
    let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest)
        .flat_map(|k| {
            streams
                .iter()
                .enumerate()
                .filter_map(move |(core, s)| s.get(k).map(|&(va, st)| (core, va, st)))
        })
        .collect()
}

/// Cycles between consecutive driven accesses: about one memory access
/// per three cycles, the pace of the simulated cores.
const CYCLES_PER_ACCESS: u64 = 3;

/// `MemorySystem::demand_data` per call, on a fresh hierarchy.
pub fn demand_data_ns(job: &Job, accs: &[(usize, VirtAddr, bool)]) -> Result<f64, OomError> {
    let n = job.cores.len();
    let mut mem = MemorySystem::new(
        MemConfig::table_iv(n as u32),
        n,
        HugePagePolicy::None,
        job.sim_seed,
    );
    timed(accs, |k, &(core, va, st)| {
        mem.demand_data(core, va, st, k as u64 * CYCLES_PER_ACCESS)
            .map(|d| d.ready)
    })
}

/// `MemorySystem::translate_untimed` per call, on a fresh hierarchy.
pub fn translate_ns(job: &Job, accs: &[(usize, VirtAddr, bool)]) -> Result<f64, OomError> {
    let n = job.cores.len();
    let mut mem = MemorySystem::new(
        MemConfig::table_iv(n as u32),
        n,
        HugePagePolicy::None,
        job.sim_seed,
    );
    timed(accs, |_, &(core, va, _)| {
        mem.translate_untimed(core, va).map(|pa| pa.raw())
    })
}

/// `Os::before_access` per call, on a fresh machine with `os` — the
/// workload's own OS configuration, or `fallback` for an OS-off workload.
pub fn before_access_ns(
    job: &Job,
    fallback: OsConfig,
    accs: &[(usize, VirtAddr, bool)],
) -> Result<f64, OomError> {
    let n = job.cores.len();
    let os_cfg = job.os.unwrap_or(fallback);
    let mut cfg = MemConfig::table_iv(n as u32);
    cfg.dram.capacity_bytes = os_cfg.phys_mem_bytes;
    let mut mem = MemorySystem::new(cfg, n, HugePagePolicy::None, job.sim_seed);
    let mut os = Os::new(os_cfg, n);
    timed(accs, |k, &(core, va, _)| {
        os.before_access(&mut mem, core, va, k as u64 * CYCLES_PER_ACCESS)
    })
}

/// `SyntheticTrace::next_instr` per call.
pub fn generator_ns(w: &GenWorkload) -> f64 {
    let mut src = w.build();
    let items = vec![(); DRIVE_INSTRS as usize];
    timed(&items, |_, _| Ok(src.next_instr().pc)).expect("generators cannot fail")
}

/// Recording cost, file density and replay decode cost of a trace.
#[derive(Clone, Copy, Debug)]
pub struct TraceCost {
    pub record_ns_per_instr: f64,
    pub bytes_per_instr: f64,
    pub next_instr_ns: f64,
}

/// Records `instrs` instructions of `w` to `path` and times the recording;
/// reports the file's bytes per instruction.
pub fn record_timed(
    w: &dyn TraceFactory,
    instrs: u64,
    seed: u64,
    path: &Path,
) -> Result<(f64, f64), TraceError> {
    let t0 = Instant::now();
    record(w, instrs, seed, path)?;
    let ns = t0.elapsed().as_nanos() as f64 / instrs as f64;
    let bytes = std::fs::metadata(path)?.len() as f64 / instrs as f64;
    Ok((ns, bytes))
}

/// Records `w`'s first `DRIVE_INSTRS` instructions to `path`, then replays
/// them through the inline decoder.
pub fn trace_cost(w: &GenWorkload, path: &Path) -> Result<TraceCost, TraceError> {
    let (record_ns_per_instr, bytes_per_instr) =
        record_timed(w, DRIVE_INSTRS, w.params.seed, path)?;
    let mut src = BlockingSource::open(path)?;
    let items = vec![(); DRIVE_INSTRS as usize];
    let next_instr_ns = timed(&items, |_, _| {
        Ok(pagecross_cpu::TraceSource::next_instr(&mut src).pc)
    })
    .expect("decoding a verified file cannot run out of memory");
    Ok(TraceCost {
        record_ns_per_instr,
        bytes_per_instr,
        next_instr_ns,
    })
}
