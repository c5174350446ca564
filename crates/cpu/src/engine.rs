//! The per-core execution engine: an ROB-occupancy-limited out-of-order
//! timing model with a decoupled front-end approximation.
//!
//! The model dispatches instructions in program order at `issue_width` per
//! cycle, bounded by ROB capacity; loads complete when the memory hierarchy
//! returns, everything else in one cycle. Independent loads overlap
//! (memory-level parallelism), dependent loads serialise
//! ([`crate::trace::Op::Load::depends_on_prev`]), branch mispredictions
//! inject front-end bubbles, and the ROB-full condition stalls dispatch at
//! the head's completion time — the same first-order behaviours ChampSim's
//! O3 model exhibits.
//!
//! The engine also owns all the prefetch plumbing of Fig. 5: it trains the
//! L1D prefetcher on demand accesses, splits candidates into in-page and
//! page-cross, routes page-cross candidates through the policy/filter, and
//! feeds every training event (demand misses for the vUB, PCB hits and
//! evictions for the pUB, epoch snapshots for the adaptive threshold) back
//! to the policy.

use crate::branch::BranchPredictor;
use crate::config::{BoundaryMode, CoreConfig};
use crate::trace::{Instr, Op};
use moka_pgc::{FeatureContext, PgcPolicy, PolicyAction};
use pagecross_mem::{Eviction, MemorySystem, OomError};
use pagecross_os::Os;
use pagecross_prefetch::{AccessInfo, FnlMma, L1dPrefetcher, L2Prefetcher};
use pagecross_telemetry::IntervalSampler;
use pagecross_types::{
    CoreStats, FastSet, OsStats, PageSize, PhysAddr, PrefetchCandidate, PrefetchStats, StallCause,
    StatsView, SystemSnapshot, TelemetryCounters, TraceEvent, VirtAddr,
};
use std::collections::VecDeque;

/// What a completing instruction was waiting on — recorded with its ROB
/// entry so an ROB-full stall can be charged to the head's real cause.
/// Never consulted for timing; purely attribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RetireTag {
    /// Non-memory (or unclassified) completion.
    Other,
    /// Load that missed in L1D without needing a page walk.
    L1dMiss,
    /// Load whose translation required a page walk.
    TlbWalk,
    /// Access that trapped into the OS (page fault, IPI ack, collapse).
    OsFault,
}

impl RetireTag {
    fn stall_cause(self) -> StallCause {
        match self {
            RetireTag::Other => StallCause::RobFull,
            RetireTag::L1dMiss => StallCause::L1dMiss,
            RetireTag::TlbWalk => StallCause::TlbWalk,
            RetireTag::OsFault => StallCause::OsFault,
        }
    }
}

/// One core's execution state.
pub struct CoreEngine {
    cfg: CoreConfig,
    boundary: BoundaryMode,
    core_id: usize,

    cycle: u64,
    /// Cycle at which measurement began (end of warm-up).
    cycle_base: u64,
    issued_this_cycle: u32,
    rob: VecDeque<(u64, RetireTag)>,
    last_completion: u64,
    prev_load_completion: u64,
    last_fetch_line: u64,
    fetch_ready: u64,
    fetch_stall_until: u64,

    bp: BranchPredictor,
    l1i_prefetcher: FnlMma,
    l1i_buf: Vec<u64>,
    prefetcher: Box<dyn L1dPrefetcher>,
    policy: Box<dyn PgcPolicy>,
    l2_prefetcher: Option<Box<dyn L2Prefetcher>>,

    // Feature histories (most-recent-first).
    va_hist: [u64; 3],
    pc_hist: [u64; 3],
    delta_hist: [i64; 3],
    last_line: i64,
    touched_pages: FastSet<u64>,

    epoch_base: TelemetryCounters,
    snapshot: SystemSnapshot,
    instrs_since_spot: u64,
    instrs_since_epoch: u64,

    /// Interval sampler, absent unless telemetry requested it. Boxed so
    /// the disabled path carries one pointer of overhead.
    sampler: Option<Box<IntervalSampler>>,

    cand_buf: Vec<PrefetchCandidate>,
    l2_buf: Vec<u64>,

    /// Core statistics.
    pub stats: CoreStats,
    /// Prefetch-issue statistics.
    pub pstats: PrefetchStats,
    /// Mirror of this core's OS counters (zero when the OS is off),
    /// refreshed after every step so captures never need the `Os`.
    pub os_stats: OsStats,
}

impl CoreEngine {
    /// Creates an engine for `core_id` with the given prefetcher and
    /// page-cross policy.
    pub fn new(
        core_id: usize,
        cfg: CoreConfig,
        boundary: BoundaryMode,
        prefetcher: Box<dyn L1dPrefetcher>,
        policy: Box<dyn PgcPolicy>,
        l2_prefetcher: Option<Box<dyn L2Prefetcher>>,
    ) -> Self {
        Self {
            cfg,
            boundary,
            core_id,
            cycle: 0,
            cycle_base: 0,
            issued_this_cycle: 0,
            rob: VecDeque::with_capacity(cfg.rob_size),
            last_completion: 0,
            prev_load_completion: 0,
            last_fetch_line: u64::MAX,
            fetch_ready: 0,
            fetch_stall_until: 0,
            bp: BranchPredictor::new(),
            l1i_prefetcher: FnlMma::new(),
            l1i_buf: Vec::with_capacity(4),
            prefetcher,
            policy,
            l2_prefetcher,
            va_hist: [0; 3],
            pc_hist: [0; 3],
            delta_hist: [0; 3],
            last_line: 0,
            touched_pages: FastSet::default(),
            epoch_base: TelemetryCounters::default(),
            snapshot: SystemSnapshot::default(),
            instrs_since_spot: 0,
            instrs_since_epoch: 0,
            sampler: None,
            cand_buf: Vec::with_capacity(16),
            l2_buf: Vec::with_capacity(8),
            stats: CoreStats::default(),
            pstats: PrefetchStats::default(),
            os_stats: OsStats::default(),
        }
    }

    /// Current cycle (used by the multi-core scheduler to interleave cores).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Retired instructions so far.
    pub fn instructions(&self) -> u64 {
        self.stats.instructions
    }

    /// The active policy (stats access for reports).
    pub fn policy(&self) -> &dyn PgcPolicy {
        self.policy.as_ref()
    }

    /// Finalises cycle accounting: the run's cycle count is the completion
    /// time of the last retiring instruction, measured from the end of
    /// warm-up. The issue slots between the last dispatch and that
    /// completion are charged as drain, closing the stall-accounting
    /// identity (see [`pagecross_types::StallBreakdown`]).
    pub fn finish(&mut self) {
        let end = self.last_completion.max(self.cycle);
        let width = self.cfg.issue_width as u64;
        let drain = ((end - self.cycle) * width).saturating_sub(self.issued_this_cycle as u64);
        self.stats.stalls.charge(StallCause::Drain, drain);
        self.stats.cycles = end - self.cycle_base;
    }

    /// Resets all statistics (end of warm-up) without touching learned
    /// microarchitectural state.
    pub fn reset_stats(&mut self, mem: &MemorySystem) {
        self.stats = CoreStats::default();
        // Measurement starts mid-cycle when warm-up ended partway through
        // an issue group; record those slots so the stall identity stays
        // exact.
        self.stats.stalls.warmup_carry = self.issued_this_cycle as u64;
        self.pstats = PrefetchStats::default();
        self.os_stats = OsStats::default();
        // Rebase cycle accounting at the current cycle: measured cycles
        // count from here.
        let start = self.cycle;
        self.cycle_base = start;
        self.last_completion = self.last_completion.max(start);
        // Rebase windows so the first measured epoch starts clean. The
        // capture reads the clock relative to `cycle_base`, so it must
        // follow the rebase.
        self.epoch_base = self.telemetry_counters(mem);
    }

    /// Attaches an interval sampler closing an interval every `interval`
    /// retired instructions. Call after [`reset_stats`](Self::reset_stats)
    /// so the sampler's zero base aligns with the cleared counters.
    pub fn attach_sampler(&mut self, interval: u64) {
        self.sampler = Some(Box::new(IntervalSampler::new(interval)));
    }

    /// Detaches and returns the sampler, if one was attached.
    pub fn take_sampler(&mut self) -> Option<IntervalSampler> {
        self.sampler.take().map(|b| *b)
    }

    /// Cumulative counters for this core right now, counted from the end
    /// of warm-up. `cycles` is the live clock: windowed snapshots diff two
    /// of these captures, and the interval sampler records them. After
    /// [`finish`](Self::finish) the report's cycle count (which adds the
    /// drain) is in `stats.cycles` instead.
    pub fn telemetry_counters(&self, mem: &MemorySystem) -> TelemetryCounters {
        let c = mem.core(self.core_id);
        let core = CoreStats {
            cycles: self.cycle - self.cycle_base,
            ..self.stats
        };
        TelemetryCounters::capture(&StatsView {
            core: &core,
            l1i: &c.l1i.stats,
            l1d: &c.l1d.stats,
            l2c: &c.l2c.stats,
            llc: &mem.llc.stats,
            dtlb: &c.dtlb.stats,
            stlb: &c.stlb.stats,
            walks: &c.walk_stats,
            prefetch: &self.pstats,
            os: &self.os_stats,
        })
    }

    fn refresh_snapshot(&mut self, mem: &mut MemorySystem) {
        let now = self.telemetry_counters(mem);
        self.snapshot = SystemSnapshot::from_window(
            &now,
            &self.epoch_base,
            self.rob.len() as f64 / self.cfg.rob_size as f64,
            mem.l1d_demand_mshr_occupancy(self.core_id, self.cycle),
        );
    }

    /// Jumps the clock to `to`, charging the skipped issue slots (minus
    /// those already used this cycle) to `cause`. Callers guarantee
    /// `to > self.cycle`; the pacing step guarantees
    /// `issued_this_cycle < issue_width` here, so the charge is positive.
    fn stall_to(&mut self, to: u64, cause: StallCause) {
        let lost = (to - self.cycle) * self.cfg.issue_width as u64 - self.issued_this_cycle as u64;
        self.stats.stalls.charge(cause, lost);
        self.cycle = to;
        self.issued_this_cycle = 0;
    }

    fn handle_eviction(&mut self, ev: &Eviction) {
        if ev.pcb {
            self.policy.on_pcb_eviction(ev.line.raw(), ev.hits > 0);
        }
    }

    /// Routes one prefetch candidate per Fig. 5: in-page candidates issue
    /// directly; page-cross candidates consult the policy.
    fn route_candidate(
        &mut self,
        mem: &mut MemorySystem,
        os: &Option<Os>,
        cand: PrefetchCandidate,
        trigger_page: PageSize,
        at_cycle: u64,
    ) -> Result<(), OomError> {
        self.pstats.candidates += 1;
        let crosses = match self.boundary {
            BoundaryMode::Fixed4K => cand.crosses_page_4k(),
            BoundaryMode::PageSizeAware => match trigger_page {
                PageSize::Huge2M => cand.crosses_page_2m(),
                PageSize::Base4K => cand.crosses_page_4k(),
            },
        };
        // Under the OS model a prefetcher must never fault a page in: a
        // non-resident target forbids the speculative walk (and the walk
        // will miss anyway, dropping the prefetch at translation).
        let resident = os
            .as_ref()
            .is_none_or(|o| o.is_resident(self.core_id, cand.target));

        if !crosses {
            let r = mem.issue_prefetch(self.core_id, cand.target, false, at_cycle, resident)?;
            if r.issued {
                self.pstats.inpage_issued += 1;
                if let Some(ev) = r.l1d_eviction {
                    self.handle_eviction(&ev);
                }
            } else if r.redundant {
                self.pstats.redundant += 1;
            }
            return Ok(());
        }

        self.pstats.pgc_candidates += 1;
        let ctx = FeatureContext {
            pc: cand.pc,
            va: cand.trigger.raw(),
            target_va: cand.target.raw(),
            delta: cand.delta,
            first_page_access: cand.first_page_access,
            va_hist: self.va_hist,
            pc_hist: self.pc_hist,
            delta_hist: self.delta_hist,
        };
        let action = self.policy.decide(&cand, &ctx, &self.snapshot);
        if mem.events_enabled() {
            mem.push_event(
                self.core_id,
                at_cycle,
                TraceEvent::Decision {
                    pc: cand.pc,
                    target_va: cand.target.raw(),
                    issued: matches!(action, PolicyAction::Issue { .. }),
                    threshold: self.policy.current_threshold(),
                },
            );
        }
        match action {
            PolicyAction::Discard => {
                self.pstats.pgc_discarded += 1;
            }
            PolicyAction::Issue { allow_walk } => {
                let r = mem.issue_prefetch(
                    self.core_id,
                    cand.target,
                    true,
                    at_cycle,
                    allow_walk && resident,
                )?;
                if r.walked {
                    self.pstats.speculative_walks += 1;
                }
                if r.issued {
                    self.pstats.pgc_issued += 1;
                    let line = r.paddr.expect("issued prefetch has a PA").line().raw();
                    self.policy.on_issued(line);
                    if let Some(ev) = r.l1d_eviction {
                        self.handle_eviction(&ev);
                    }
                } else {
                    if r.redundant {
                        self.pstats.redundant += 1;
                    }
                    self.policy.on_issue_dropped();
                }
            }
        }
        Ok(())
    }

    /// Returns the data-ready cycle and the retire tag describing what the
    /// access waited on (for stall attribution if it blocks the ROB head).
    fn demand_access(
        &mut self,
        mem: &mut MemorySystem,
        os: &Option<Os>,
        pc: u64,
        va: VirtAddr,
        is_store: bool,
        start: u64,
    ) -> Result<(u64, RetireTag), OomError> {
        let d = mem.demand_data(self.core_id, va, is_store, start)?;
        let tag = if d.walked {
            RetireTag::TlbWalk
        } else if !d.l1d_hit {
            RetireTag::L1dMiss
        } else {
            RetireTag::Other
        };

        // Filter training events (Fig. 7).
        if !d.l1d_hit {
            self.policy.on_l1d_demand_miss(va.line().raw());
        } else if d.first_hit_on_prefetch && d.hit_pcb {
            self.policy.on_pcb_first_hit(d.paddr.line().raw());
        }
        if let Some(ev) = d.l1d_eviction {
            self.handle_eviction(&ev);
        }

        // Optional L2C prefetcher (physical space, in-page only).
        if let (Some(l2pf), Some((pa, l2_hit))) = (&mut self.l2_prefetcher, d.l2_access) {
            self.l2_buf.clear();
            l2pf.on_access(pc, pa.raw(), l2_hit, &mut self.l2_buf);
            let targets = std::mem::take(&mut self.l2_buf);
            for t in &targets {
                mem.issue_l2_prefetch(self.core_id, PhysAddr::new(*t), start);
            }
            self.l2_buf = targets;
        }

        // First touch to the page?
        let fpa = self.touched_pages.insert(va.page_4k().raw());

        // Train the L1D prefetcher and collect candidates.
        let info = AccessInfo {
            pc,
            va,
            hit: d.l1d_hit,
            cycle: start,
            first_page_access: fpa,
        };
        self.cand_buf.clear();
        self.prefetcher.on_access(&info, &mut self.cand_buf);
        // The fill completion trains timeliness-aware prefetchers (Berti);
        // it must follow on_access so the pending miss is registered.
        if !d.l1d_hit {
            self.prefetcher.on_fill(va, d.ready);
        }
        let cands = std::mem::take(&mut self.cand_buf);
        for cand in &cands {
            self.route_candidate(mem, os, *cand, d.page_size, start)?;
        }
        self.cand_buf = cands;

        // Histories for the feature context.
        let line = va.line().raw() as i64;
        let delta = if self.last_line != 0 {
            line - self.last_line
        } else {
            0
        };
        self.last_line = line;
        self.va_hist = [va.raw(), self.va_hist[0], self.va_hist[1]];
        self.pc_hist = [pc, self.pc_hist[0], self.pc_hist[1]];
        self.delta_hist = [delta, self.delta_hist[0], self.delta_hist[1]];

        Ok((d.ready, tag))
    }

    /// Executes one instruction, advancing the core's clock. `os` is the
    /// shared imitation OS (`None` runs the historical infinite-memory
    /// model bit-for-bit). Errors only when physical memory is truly
    /// exhausted — nothing left to reclaim.
    pub fn step(
        &mut self,
        mem: &mut MemorySystem,
        os: &mut Option<Os>,
        instr: &Instr,
    ) -> Result<(), OomError> {
        // Issue-width pacing.
        if self.issued_this_cycle >= self.cfg.issue_width {
            self.cycle += 1;
            self.issued_this_cycle = 0;
        }
        // ROB-full stall: wait for the head to retire, charging the lost
        // slots to whatever the head was waiting on.
        while self.rob.len() >= self.cfg.rob_size {
            let (head, tag) = self.rob.pop_front().expect("rob nonempty");
            if head > self.cycle {
                self.stall_to(head, tag.stall_cause());
            }
        }
        // Opportunistic head retirement keeps the ROB tracking real
        // occupancy for the snapshot.
        while let Some(&(head, _)) = self.rob.front() {
            if head <= self.cycle {
                self.rob.pop_front();
            } else {
                break;
            }
        }
        // Front-end: branch-redirect bubbles and I-fetch.
        if self.fetch_stall_until > self.cycle {
            self.stall_to(self.fetch_stall_until, StallCause::BranchRedirect);
        }
        let pc_line = instr.pc >> 6;
        if pc_line != self.last_fetch_line {
            if let Some(o) = os.as_mut() {
                o.pin_code_page(mem, self.core_id, VirtAddr::new(instr.pc), self.cycle)?;
            }
            let f = mem.fetch_instr(self.core_id, VirtAddr::new(instr.pc), self.cycle)?;
            self.last_fetch_line = pc_line;
            // Decoupled front-end: the fetch unit runs ahead, so only part
            // of a miss is exposed; model as the full latency minus the
            // L1I hit latency already hidden.
            self.fetch_ready = f.ready.saturating_sub(mem.config().l1i.latency);
            // L1I prefetching (fnl+mma, Table IV).
            self.l1i_buf.clear();
            self.l1i_prefetcher
                .on_fetch(pc_line, f.l1i_hit, &mut self.l1i_buf);
            let targets = std::mem::take(&mut self.l1i_buf);
            for t in &targets {
                mem.issue_l1i_prefetch(self.core_id, VirtAddr::new(t << 6), self.cycle);
            }
            self.l1i_buf = targets;
        }
        if self.fetch_ready > self.cycle {
            self.stall_to(self.fetch_ready, StallCause::FetchStarved);
        }

        let dispatch = self.cycle;
        let (completion, tag) = match instr.op {
            Op::Alu => (dispatch + 1, RetireTag::Other),
            Op::Branch { taken } => {
                self.stats.branches += 1;
                let mis = self.bp.update(instr.pc, taken);
                let done = dispatch + 1;
                if mis {
                    self.stats.branch_mispredicts += 1;
                    self.fetch_stall_until = done + self.cfg.mispredict_penalty;
                }
                (done, RetireTag::Other)
            }
            Op::Load {
                va,
                depends_on_prev,
            } => {
                self.stats.loads += 1;
                let start = if depends_on_prev {
                    dispatch.max(self.prev_load_completion)
                } else {
                    dispatch
                };
                let os_cycles = match os.as_mut() {
                    Some(o) => o.before_access(mem, self.core_id, va, start)?,
                    None => 0,
                };
                let (ready, tag) =
                    self.demand_access(mem, os, instr.pc, va, false, start + os_cycles)?;
                self.prev_load_completion = ready;
                let tag = if os_cycles > 0 {
                    RetireTag::OsFault
                } else {
                    tag
                };
                (ready, tag)
            }
            Op::Store { va } => {
                self.stats.stores += 1;
                let os_cycles = match os.as_mut() {
                    Some(o) => o.before_access(mem, self.core_id, va, dispatch)?,
                    None => 0,
                };
                self.demand_access(mem, os, instr.pc, va, true, dispatch + os_cycles)?;
                // Stores retire via the store buffer: their latency never
                // blocks the ROB head — but a fault traps at execute, so
                // the handler latency does.
                if os_cycles > 0 {
                    (dispatch + 1 + os_cycles, RetireTag::OsFault)
                } else {
                    (dispatch + 1, RetireTag::Other)
                }
            }
        };

        self.rob.push_back((completion, tag));
        self.last_completion = self.last_completion.max(completion);
        self.issued_this_cycle += 1;
        self.stats.instructions += 1;

        // Epoch machinery.
        self.instrs_since_spot += 1;
        self.instrs_since_epoch += 1;
        if self.instrs_since_spot >= self.cfg.spot_interval {
            self.instrs_since_spot = 0;
            self.refresh_snapshot(mem);
            let snap = self.snapshot;
            self.policy.spot_check(&snap);
        }
        if self.instrs_since_epoch >= self.cfg.epoch_instrs {
            self.instrs_since_epoch = 0;
            self.refresh_snapshot(mem);
            let snap = self.snapshot;
            self.policy.end_epoch(&snap);
            self.epoch_base = self.telemetry_counters(mem);
        }

        // Interval sampling (pure observation; absent unless telemetry is
        // on). Two-phase so the sampler borrow is released before the
        // counter capture reads `self`.
        if let Some(o) = os.as_ref() {
            self.os_stats = o.stats(self.core_id);
        }
        let due = self.sampler.as_mut().is_some_and(|s| s.on_retire());
        if due {
            let now = self.telemetry_counters(mem);
            let policy = self.policy.telemetry();
            if let Some(s) = &mut self.sampler {
                s.sample(now, policy);
            }
        }
        Ok(())
    }
}
