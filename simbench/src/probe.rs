//! Observation hooks: the chunk clock of untraced runs, the timing
//! decorators of traced runs, and the clock calibration both rely on.
//! None of them changes what the simulator computes.

use crate::stats;
use crate::workloads::Member;
use moka_pgc::{FeatureContext, PgcPolicy, PolicyAction};
use pagecross_bench::Subject;
use pagecross_cpu::trace::{Instr, TraceFactory, TraceSource};
use pagecross_prefetch::{AccessInfo, L1dPrefetcher};
use pagecross_types::{PolicyTelemetry, PrefetchCandidate, SystemSnapshot, VirtAddr};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Cost of one `Instant::now()` in ns: the mean over a tight loop, median
/// of five rounds.
pub fn clock_read_ns() -> f64 {
    const READS: u32 = 200_000;
    let rounds: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut last = t0;
            for _ in 0..READS {
                last = std::hint::black_box(Instant::now());
            }
            last.duration_since(t0).as_nanos() as f64 / f64::from(READS)
        })
        .collect();
    stats::median(&rounds)
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Untraced runs: one clock read per chunk of simulated instructions.
// ---------------------------------------------------------------------------

/// The measured-phase clock shared by the trace sources of one job. It
/// reads the clock at the first instruction, at the first measured one,
/// once every `chunk` measured instructions and when a source is dropped —
/// never per instruction.
pub struct ChunkClock {
    warmup: u64,
    chunk: u64,
    created: Instant,
    first_call: Cell<Option<Instant>>,
    /// Sources still inside their warm-up.
    unwarmed: Cell<usize>,
    start: Cell<Option<Instant>>,
    mark: Cell<Option<Instant>>,
    delivered: Cell<u64>,
    chunks_ns: RefCell<Vec<u64>>,
    end: Cell<Option<Instant>>,
}

/// What a chunk clock saw of one job.
#[derive(Clone, Debug, Default)]
pub struct JobClock {
    /// From the clock's creation to the first simulated instruction.
    pub setup: Duration,
    /// From the first measured instruction to the last source's drop.
    pub measure: Duration,
    /// Instructions delivered in the measured phase, all cores.
    pub instrs: u64,
    /// Host time of every complete chunk.
    pub chunks_ns: Vec<u64>,
}

impl ChunkClock {
    /// A clock for `sources` trace sources that each warm up for `warmup`
    /// instructions (the builders stop a warmed core until every core is
    /// warm, so the measured phase starts at the first instruction after
    /// all warm-ups).
    pub fn new(sources: usize, warmup: u64, chunk: u64) -> Rc<Self> {
        Rc::new(ChunkClock {
            warmup,
            chunk,
            created: Instant::now(),
            first_call: Cell::new(None),
            unwarmed: Cell::new(sources),
            start: Cell::new(None),
            mark: Cell::new(None),
            delivered: Cell::new(0),
            chunks_ns: RefCell::new(Vec::new()),
            end: Cell::new(None),
        })
    }

    fn tick(&self) {
        if self.unwarmed.get() > 0 {
            return;
        }
        let n = self.delivered.get();
        if n == 0 {
            let now = Instant::now();
            self.start.set(Some(now));
            self.mark.set(Some(now));
        } else if n.is_multiple_of(self.chunk) {
            let now = Instant::now();
            let mark = self.mark.replace(Some(now)).expect("chunk clock started");
            self.chunks_ns.borrow_mut().push(ns(now - mark));
        }
        self.delivered.set(n + 1);
    }

    /// The job's timings, or `None` when it never reached the measured
    /// phase (it failed first).
    pub fn summary(&self) -> Option<JobClock> {
        let (first, start, end) = (self.first_call.get()?, self.start.get()?, self.end.get()?);
        Some(JobClock {
            setup: first - self.created,
            measure: end - start,
            instrs: self.delivered.get(),
            chunks_ns: self.chunks_ns.borrow().clone(),
        })
    }
}

/// A trace source reporting to a [`ChunkClock`].
struct ClockedSource {
    inner: Box<dyn TraceSource>,
    taken: u64,
    clock: Rc<ChunkClock>,
    /// Where a campaign cell's source files its timings when dropped.
    sink: Option<Arc<Mutex<Vec<JobClock>>>>,
}

impl TraceSource for ClockedSource {
    fn next_instr(&mut self) -> Instr {
        let c = &self.clock;
        if self.taken < c.warmup {
            if self.taken == 0 && c.first_call.get().is_none() {
                c.first_call.set(Some(Instant::now()));
            }
            self.taken += 1;
            if self.taken == c.warmup {
                c.unwarmed.set(c.unwarmed.get() - 1);
            }
        } else {
            c.tick();
        }
        self.inner.next_instr()
    }
}

impl Drop for ClockedSource {
    fn drop(&mut self) {
        self.clock.end.set(Some(Instant::now()));
        if let Some(sink) = &self.sink {
            if let Some(summary) = self.clock.summary() {
                // A poisoned log only loses timings, never correctness.
                if let Ok(mut log) = sink.lock() {
                    log.push(summary);
                }
            }
        }
    }
}

/// A trace factory whose sources report to a shared [`ChunkClock`].
pub struct Clocked<'a> {
    pub inner: &'a dyn TraceFactory,
    pub clock: Rc<ChunkClock>,
}

impl TraceFactory for Clocked<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn build(&self) -> Box<dyn TraceSource> {
        Box::new(ClockedSource {
            inner: self.inner.build(),
            taken: 0,
            clock: self.clock.clone(),
            sink: None,
        })
    }
}

/// A campaign member whose every built source carries its own chunk clock
/// and files its timings in `log` when the cell ends. Worker threads share
/// it, so the per-cell clock lives in the source, on the worker's thread.
pub struct ClockedMember {
    pub member: Member,
    pub chunk: u64,
    pub log: Arc<Mutex<Vec<JobClock>>>,
}

impl TraceFactory for ClockedMember {
    fn name(&self) -> &str {
        &self.member.w.name
    }

    fn build(&self) -> Box<dyn TraceSource> {
        Box::new(ClockedSource {
            inner: self.member.w.build(),
            taken: 0,
            clock: ChunkClock::new(1, self.member.warmup, self.chunk),
            sink: Some(self.log.clone()),
        })
    }
}

impl Subject for ClockedMember {
    fn factory(&self) -> &dyn TraceFactory {
        self
    }

    fn suite_label(&self) -> &'static str {
        self.member.suite
    }

    fn lengths(&self) -> (u64, u64) {
        (self.member.warmup, self.member.measure)
    }
}

// ---------------------------------------------------------------------------
// Traced runs: sampled spans around the calls into each layer.
// ---------------------------------------------------------------------------

/// Span and call totals of a traced run. Span sums hold measured
/// durations, clock cost included; [`Probe::layer_ns`] subtracts it.
/// Counters advance only while `measuring`, spans only on sampled steps.
#[derive(Default)]
pub struct Probe {
    pub measuring: Cell<bool>,
    sampling: Cell<bool>,
    /// Sampled instructions.
    pub samples: Cell<u64>,
    pub next_ns: Cell<u64>,
    pub step_ns: Cell<u64>,
    /// Child spans (prefetcher and policy) inside sampled steps.
    pub children: Cell<u64>,
    pub children_ns: Cell<u64>,
    pub pf_spans: Cell<u64>,
    pub pf_ns: Cell<u64>,
    pub pol_spans: Cell<u64>,
    pub pol_ns: Cell<u64>,
    /// Prefetcher `on_access` + `on_fill` calls.
    pub pf_calls: Cell<u64>,
    /// Policy `decide` calls.
    pub decide_calls: Cell<u64>,
}

fn add(c: &Cell<u64>, v: u64) {
    c.set(c.get() + v);
}

/// Clock-corrected per-instruction means of a traced run, in ns.
#[derive(Clone, Copy, Debug)]
pub struct LayerNs {
    pub next_instr: f64,
    pub step_self: f64,
    pub prefetch: f64,
    pub policy: f64,
}

impl Probe {
    /// Runs `f` as a child span of the current step when it is sampled.
    fn child<R>(&self, policy: bool, f: impl FnOnce() -> R) -> R {
        if !self.sampling.get() {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        let d = ns(t0.elapsed());
        let (spans, total) = if policy {
            (&self.pol_spans, &self.pol_ns)
        } else {
            (&self.pf_spans, &self.pf_ns)
        };
        add(spans, 1);
        add(total, d);
        add(&self.children, 1);
        add(&self.children_ns, d);
        r
    }

    /// Brackets one sampled instruction: `next` fetches it from the trace,
    /// `step` simulates it; both are timed with one shared clock read.
    pub fn sample<T, R>(&self, next: impl FnOnce() -> T, step: impl FnOnce(T) -> R) -> R {
        self.sampling.set(true);
        let a = Instant::now();
        let instr = next();
        let b = Instant::now();
        let r = step(instr);
        let c = Instant::now();
        self.sampling.set(false);
        add(&self.samples, 1);
        add(&self.next_ns, ns(b - a));
        add(&self.step_ns, ns(c - b));
        r
    }

    /// Per-instruction means with the clock cost `clock` (ns) removed: a
    /// span measures its work plus one clock read, and a parent also
    /// carries its children's second reads.
    pub fn layer_ns(&self, clock: f64) -> LayerNs {
        let n = self.samples.get().max(1) as f64;
        let per = |sum: u64, spans: u64| (sum as f64 - spans as f64 * clock) / n;
        LayerNs {
            next_instr: per(self.next_ns.get(), self.samples.get()),
            step_self: (self.step_ns.get() as f64
                - self.children_ns.get() as f64
                - (self.children.get() + self.samples.get()) as f64 * clock)
                / n,
            prefetch: per(self.pf_ns.get(), self.pf_spans.get()),
            policy: per(self.pol_ns.get(), self.pol_spans.get()),
        }
    }
}

/// Sampling gaps: uniform in `[1, 2·mean − 1]`, so sampled instructions
/// never alias with a workload's periodic structure.
pub struct Gaps {
    rng: pagecross_types::Rng64,
    mean: u64,
    left: u64,
}

impl Gaps {
    pub fn new(mean: u64) -> Self {
        Gaps {
            rng: pagecross_types::Rng64::new(0x05A3_D1E5),
            mean,
            left: mean,
        }
    }

    /// True when the next instruction is sampled.
    pub fn next(&mut self) -> bool {
        self.left -= 1;
        if self.left == 0 {
            self.left = self.rng.range(1, 2 * self.mean - 1);
            true
        } else {
            false
        }
    }
}

/// The L1D prefetcher with its calls counted and, on sampled steps, timed.
pub struct TimedPrefetcher {
    pub inner: Box<dyn L1dPrefetcher>,
    pub probe: Rc<Probe>,
}

impl L1dPrefetcher for TimedPrefetcher {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_access(&mut self, info: &AccessInfo, out: &mut Vec<PrefetchCandidate>) {
        let p = &self.probe;
        if p.measuring.get() {
            add(&p.pf_calls, 1);
        }
        let inner = &mut self.inner;
        p.child(false, || inner.on_access(info, out));
    }

    fn on_fill(&mut self, va: VirtAddr, cycle: u64) {
        let p = &self.probe;
        if p.measuring.get() {
            add(&p.pf_calls, 1);
        }
        let inner = &mut self.inner;
        p.child(false, || inner.on_fill(va, cycle));
    }
}

/// The page-cross policy with `decide` counted and, on sampled steps,
/// `decide` and every training hook timed.
pub struct TimedPolicy {
    pub inner: Box<dyn PgcPolicy>,
    pub probe: Rc<Probe>,
}

impl PgcPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(
        &mut self,
        cand: &PrefetchCandidate,
        ctx: &FeatureContext,
        snap: &SystemSnapshot,
    ) -> PolicyAction {
        let p = &self.probe;
        if p.measuring.get() {
            add(&p.decide_calls, 1);
        }
        let inner = &mut self.inner;
        p.child(true, || inner.decide(cand, ctx, snap))
    }

    fn on_issued(&mut self, phys_line: u64) {
        let inner = &mut self.inner;
        self.probe.child(true, || inner.on_issued(phys_line));
    }

    fn on_issue_dropped(&mut self) {
        let inner = &mut self.inner;
        self.probe.child(true, || inner.on_issue_dropped());
    }

    fn on_l1d_demand_miss(&mut self, virt_line: u64) {
        let inner = &mut self.inner;
        self.probe
            .child(true, || inner.on_l1d_demand_miss(virt_line));
    }

    fn on_pcb_first_hit(&mut self, phys_line: u64) {
        let inner = &mut self.inner;
        self.probe.child(true, || inner.on_pcb_first_hit(phys_line));
    }

    fn on_pcb_eviction(&mut self, phys_line: u64, served_hits: bool) {
        let inner = &mut self.inner;
        self.probe
            .child(true, || inner.on_pcb_eviction(phys_line, served_hits));
    }

    fn spot_check(&mut self, snap: &SystemSnapshot) {
        let inner = &mut self.inner;
        self.probe.child(true, || inner.spot_check(snap));
    }

    fn end_epoch(&mut self, snap: &SystemSnapshot) {
        let inner = &mut self.inner;
        self.probe.child(true, || inner.end_epoch(snap));
    }

    fn telemetry(&self) -> Option<PolicyTelemetry> {
        self.inner.telemetry()
    }

    fn current_threshold(&self) -> Option<i32> {
        self.inner.current_threshold()
    }
}
