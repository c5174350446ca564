//! The composed memory system: per-core private L1I/L1D/L2C + TLBs + walker,
//! and a shared LLC + DRAM, wired with the Table IV timing.
//!
//! Timing is modelled as a latency chain with MSHR merging: an access that
//! misses at a level starts the next level after this level's latency; a
//! second miss to an in-flight line merges into the outstanding MSHR entry.
//! Fills propagate back up the chain (fill-path inclusive, like ChampSim's
//! default), and L1D evictions are reported to the caller so the page-cross
//! filter's pUB training can observe useless-PCB evictions.
//!
//! Every request takes three private steps: `translate` walks the TLB
//! chain (and the page table), `read` serves a request that needs the data
//! at one level (and, on a miss, `read_below` the level under it), and
//! `prefetch_into` issues a fire-and-forget prefetch fill at one level.

use crate::cache::{Cache, Eviction, FillKind, Lookup};
use crate::config::MemConfig;
use crate::dram::Dram;
use crate::mshr::Mshr;
use crate::page_table::PageWalker;
use crate::tlb::{Tlb, Translation};
use crate::vmem::{FrameAllocator, HugePagePolicy, OomError, Vmem};
use pagecross_telemetry::EventRing;
use pagecross_types::{
    LineAddr, PageSize, PhysAddr, TraceEvent, TranslationOutcome, VirtAddr, WalkStats,
};

/// Traffic class of a request walking the hierarchy; decides which
/// statistics the request perturbs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Traffic {
    /// Demand load/store: counts demand accesses/misses at every level.
    Demand { is_store: bool },
    /// Instruction fetch: demand on the L1I/L2/LLC path.
    Fetch,
    /// Page-walk reference: neutral at L1D, prefetch traffic below it.
    Walk,
    /// L1D prefetch fill fetch: no demand stats below L1D.
    PrefetchL1 { page_cross: bool },
    /// L1I or L2C prefetch fill fetch.
    PrefetchL2,
}

impl Traffic {
    /// Demand and fetch traffic; MSHR entries they allocate count toward
    /// the demand occupancy.
    fn is_demand(self) -> bool {
        matches!(self, Traffic::Demand { .. } | Traffic::Fetch)
    }

    /// How a block this traffic brings in is installed.
    fn fill_kind(self) -> FillKind {
        match self {
            Traffic::PrefetchL1 { page_cross: true } => FillKind::PrefetchPageCross,
            Traffic::PrefetchL1 { .. } | Traffic::PrefetchL2 => FillKind::PrefetchInPage,
            _ => FillKind::Demand,
        }
    }
}

/// One cache level of the hierarchy: its cache, MSHR file and latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tier {
    L1i,
    L1d,
    L2c,
    Llc,
}

impl Tier {
    /// The level a miss here continues to; `None` is DRAM.
    fn below(self) -> Option<Tier> {
        match self {
            Tier::L1i | Tier::L1d => Some(Tier::L2c),
            Tier::L2c => Some(Tier::Llc),
            Tier::Llc => None,
        }
    }

    /// L1I and L1D: the levels whose hits wait for an in-flight fill.
    fn is_first_level(self) -> bool {
        matches!(self, Tier::L1i | Tier::L1d)
    }
}

/// What a [`MemorySystem::read`] found at its level.
struct Served {
    /// Cycle the data is available at this level.
    ready: u64,
    /// This level's lookup (hit, first hit on a prefetch, PCB).
    lookup: Lookup,
    /// The level below's hit flag, when this level missed and filled.
    below_hit: Option<bool>,
    /// The block this level's fill evicted.
    eviction: Option<Eviction>,
}

/// Who asks [`MemorySystem::translate`] for a translation: decides the
/// first-level TLB, the statistics, the refills and whether it may walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Who {
    /// A demand load or store: dTLB -> sTLB -> walk.
    Data,
    /// An instruction fetch: iTLB -> sTLB -> walk; the walk also fills the
    /// iTLB.
    Instr,
    /// An L1D prefetch: prefetch probes of the dTLB and sTLB, then a
    /// speculative walk when `allow_walk` is set.
    Prefetch { allow_walk: bool },
    /// An L1I prefetch: prefetch probes of the iTLB and sTLB; it never
    /// walks and never refills the iTLB.
    InstrPrefetch,
}

/// Result of a demand data access.
#[derive(Clone, Copy, Debug)]
pub struct DemandDataResult {
    /// Cycle the data is available to the core.
    pub ready: u64,
    /// The access hit in L1D.
    pub l1d_hit: bool,
    /// The hit was the first demand hit on a prefetched block.
    pub first_hit_on_prefetch: bool,
    /// The hit block had its Page-Cross Bit set.
    pub hit_pcb: bool,
    /// Physical address of the access (for pUB-style training).
    pub paddr: PhysAddr,
    /// A block evicted from L1D by this access's fill, if any.
    pub l1d_eviction: Option<Eviction>,
    /// Translation was found in the dTLB.
    pub dtlb_hit: bool,
    /// Translation was found in the sTLB (when the dTLB missed).
    pub stlb_hit: bool,
    /// A page walk was required.
    pub walked: bool,
    /// The request reached the L2C (L1D miss); physical line + L2 hit flag,
    /// used to drive an optional L2C prefetcher.
    pub l2_access: Option<(PhysAddr, bool)>,
    /// Page size backing the accessed address.
    pub page_size: PageSize,
}

/// Result of attempting to issue an L1D prefetch.
#[derive(Clone, Copy, Debug)]
pub struct PrefetchIssueResult {
    /// The prefetch actually fetched a block into L1D.
    pub issued: bool,
    /// The target was already in L1D or in flight.
    pub redundant: bool,
    /// A speculative page walk was performed.
    pub walked: bool,
    /// The TLB level the target's translation was found at.
    pub translation: TranslationOutcome,
    /// Physical line fetched (when issued): pUB key.
    pub paddr: Option<PhysAddr>,
    /// Block evicted from L1D by the prefetch fill.
    pub l1d_eviction: Option<Eviction>,
}

/// Result of an instruction fetch.
#[derive(Clone, Copy, Debug)]
pub struct FetchResult {
    /// Cycle the fetch completes.
    pub ready: u64,
    /// Hit in L1I.
    pub l1i_hit: bool,
}

/// Per-core private memory structures.
#[derive(Clone, Debug)]
pub struct CoreMem {
    /// First-level instruction cache.
    pub l1i: Cache,
    /// First-level data cache (VIPT; the prefetchers' home).
    pub l1d: Cache,
    /// Private second-level cache.
    pub l2c: Cache,
    /// First-level data TLB.
    pub dtlb: Tlb,
    /// First-level instruction TLB.
    pub itlb: Tlb,
    /// Last-level (second-level) TLB.
    pub stlb: Tlb,
    /// Page-table walker with split PSCs.
    pub walker: PageWalker,
    /// This core's address space.
    pub vmem: Vmem,
    /// Walker statistics.
    pub walk_stats: WalkStats,
    mshr_l1i: Mshr,
    mshr_l1d: Mshr,
    mshr_l2c: Mshr,
}

/// The full memory system for `n` cores.
#[derive(Clone, Debug)]
pub struct MemorySystem {
    cfg: MemConfig,
    cores: Vec<CoreMem>,
    /// Shared last-level cache.
    pub llc: Cache,
    llc_mshr: Mshr,
    /// DRAM device.
    pub dram: Dram,
    frames: FrameAllocator,
    /// Structured event trace, absent unless telemetry requested it.
    /// Boxed so the disabled path carries one pointer of overhead.
    events: Option<Box<EventRing>>,
}

impl MemorySystem {
    /// Builds an `n_cores` system with the given configuration and
    /// huge-page policy (applied to every core's address space).
    ///
    /// # Panics
    ///
    /// Panics if `n_cores == 0`.
    pub fn new(cfg: MemConfig, n_cores: usize, huge: HugePagePolicy, seed: u64) -> Self {
        assert!(n_cores > 0, "need at least one core");
        let mut frames = FrameAllocator::with_cores(cfg.dram.capacity_bytes, seed, n_cores as u32);
        let cores = (0..n_cores)
            .map(|i| CoreMem {
                l1i: Cache::new("L1I", cfg.l1i),
                l1d: Cache::new("L1D", cfg.l1d),
                l2c: Cache::new("L2C", cfg.l2c),
                dtlb: Tlb::new("dTLB", cfg.dtlb),
                itlb: Tlb::new("iTLB", cfg.itlb),
                stlb: Tlb::new("sTLB", cfg.stlb),
                walker: PageWalker::for_core(cfg.psc, &mut frames, i as u32),
                vmem: Vmem::for_core(
                    huge.clone(),
                    seed ^ (0x9E37 + i as u64 * 0x61C8_8646),
                    i as u32,
                ),
                walk_stats: WalkStats::default(),
                mshr_l1i: Mshr::new(cfg.l1i.mshr_entries),
                mshr_l1d: Mshr::new(cfg.l1d.mshr_entries),
                mshr_l2c: Mshr::new(cfg.l2c.mshr_entries),
            })
            .collect();
        Self {
            cores,
            llc: Cache::new("LLC", cfg.llc),
            llc_mshr: Mshr::new(cfg.llc.mshr_entries),
            dram: Dram::new(cfg.dram),
            frames,
            events: None,
            cfg,
        }
    }

    /// Attaches an event ring; subsequent fills, evictions, walks and
    /// policy decisions are recorded into it.
    pub fn attach_events(&mut self, ring: EventRing) {
        self.events = Some(Box::new(ring));
    }

    /// Detaches and returns the event ring, if one was attached.
    pub fn take_events(&mut self) -> Option<EventRing> {
        self.events.take().map(|b| *b)
    }

    /// Whether event tracing is active (callers may skip building event
    /// payloads when it is not).
    pub fn events_enabled(&self) -> bool {
        self.events.is_some()
    }

    /// Records one event (no-op when tracing is off). Public so the CPU
    /// model can record engine-side events (policy decisions) into the
    /// same ring.
    pub fn push_event(&mut self, core: usize, cycle: u64, event: TraceEvent) {
        if let Some(ring) = &mut self.events {
            ring.push(cycle, core as u32, event);
        }
    }

    /// Records an L1D fill of `line` and the eviction it caused.
    fn push_fill_events(
        &mut self,
        core: usize,
        cycle: u64,
        line: LineAddr,
        kind: FillKind,
        eviction: &Option<Eviction>,
    ) {
        let Some(ring) = &mut self.events else {
            return;
        };
        let fill = TraceEvent::Fill {
            line: line.raw(),
            prefetch: kind.is_prefetch(),
            page_cross: kind == FillKind::PrefetchPageCross,
        };
        ring.push(cycle, core as u32, fill);
        if let Some(ev) = eviction {
            let evict = TraceEvent::Evict {
                line: ev.line.raw(),
                pcb: ev.pcb,
                dirty: ev.dirty,
                served_hits: ev.hits > 0,
            };
            ring.push(cycle, core as u32, evict);
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Immutable view of one core's private structures.
    pub fn core(&self, core: usize) -> &CoreMem {
        &self.cores[core]
    }

    /// Demand-only L1D MSHR occupancy (adaptive-thresholding input).
    pub fn l1d_demand_mshr_occupancy(&mut self, core: usize, cycle: u64) -> u32 {
        self.cores[core].mshr_l1d.demand_occupancy(cycle)
    }

    // ----- the request path ------------------------------------------------------

    /// The cache, MSHR file and latency of `tier` (for `core`'s private
    /// levels).
    fn level(&mut self, core: usize, tier: Tier) -> (&mut Cache, &mut Mshr, u64) {
        let c = &mut self.cores[core];
        match tier {
            Tier::L1i => (&mut c.l1i, &mut c.mshr_l1i, self.cfg.l1i.latency),
            Tier::L1d => (&mut c.l1d, &mut c.mshr_l1d, self.cfg.l1d.latency),
            Tier::L2c => (&mut c.l2c, &mut c.mshr_l2c, self.cfg.l2c.latency),
            Tier::Llc => (&mut self.llc, &mut self.llc_mshr, self.cfg.llc.latency),
        }
    }

    /// Serves a read of `line` at `tier` starting at `cycle`: a hit, a
    /// merge into an in-flight miss, or a miss that reads the level below
    /// after this level's latency and fills here.
    ///
    /// Always inlined, with `read_below` out of line: the hit path and the
    /// fill then keep `Served` in registers instead of copying it through
    /// the stack, which stalls store forwarding on every request.
    #[inline(always)]
    fn read(
        &mut self,
        core: usize,
        tier: Tier,
        line: LineAddr,
        cycle: u64,
        traffic: Traffic,
    ) -> Served {
        let first_level = tier.is_first_level();
        let dirty = first_level && traffic == Traffic::Demand { is_store: true };
        let (cache, mshr, lat) = self.level(core, tier);
        let lookup = match traffic {
            Traffic::Demand { .. } | Traffic::Fetch => cache.demand_access(line, dirty),
            // Walker reads leave no statistics at L1D; below it, they and
            // prefetch fetches keep LRU warm under the prefetch counters.
            _ => Lookup {
                hit: if first_level {
                    cache.probe(line)
                } else {
                    cache.prefetch_access(line)
                },
                first_hit_on_prefetch: false,
                pcb: false,
            },
        };
        // A first-level hit may be a block still in flight (fills are
        // installed when the miss is issued): its data is usable once the
        // outstanding MSHR entry completes. Lower-level hits do not wait.
        let inflight = if lookup.hit && !first_level {
            None
        } else {
            mshr.lookup(line, cycle)
        };
        if lookup.hit || inflight.is_some() {
            return Served {
                ready: inflight.map_or(cycle + lat, |t| t.max(cycle + lat)),
                lookup,
                below_hit: None,
                eviction: None,
            };
        }
        let (below, below_hit) = self.read_below(core, tier, line, cycle + lat, traffic);
        let (cache, mshr, _) = self.level(core, tier);
        let ready = mshr.allocate_kind(line, cycle, below, traffic.is_demand());
        Served {
            ready,
            lookup,
            below_hit: Some(below_hit),
            eviction: cache.fill(line, traffic.fill_kind(), dirty),
        }
    }

    /// Reads `line` from the level below `tier` (DRAM under the LLC) at
    /// `cycle`. Returns the ready cycle and that level's hit flag.
    #[inline(never)]
    fn read_below(
        &mut self,
        core: usize,
        tier: Tier,
        line: LineAddr,
        cycle: u64,
        traffic: Traffic,
    ) -> (u64, bool) {
        match tier.below() {
            Some(next) => {
                let r = self.read(core, next, line, cycle, traffic);
                (r.ready, r.lookup.hit)
            }
            None => (self.dram.access(line, cycle), false),
        }
    }

    /// Issues a prefetch of `line` into `tier` at `cycle`; the fetch from
    /// the level below starts at `below_at`. Returns `None` when the line
    /// is resident or in flight, else the eviction the fill caused.
    ///
    /// Residency is probed first, and the MSHR is looked up only when the
    /// line is absent: a lookup expires entries, and prefetches run at
    /// translation-ready time, later than the next demand's dispatch.
    ///
    /// Always inlined, like `read`: most prefetches are redundant, and out
    /// of line the nested `Option` result goes through the stack.
    #[inline(always)]
    fn prefetch_into(
        &mut self,
        core: usize,
        tier: Tier,
        line: LineAddr,
        cycle: u64,
        below_at: u64,
        traffic: Traffic,
    ) -> Option<Option<Eviction>> {
        let (cache, mshr, _) = self.level(core, tier);
        if cache.probe(line) || mshr.lookup(line, cycle).is_some() {
            return None;
        }
        let (below, _) = self.read_below(core, tier, line, below_at, traffic);
        let (cache, mshr, _) = self.level(core, tier);
        mshr.allocate_kind(line, cycle, below, false);
        Some(cache.fill(line, traffic.fill_kind(), false))
    }

    /// Translates `va` for `who` starting at `cycle`: the first-level TLB,
    /// then the sTLB, then a page walk whose references are played through
    /// the data cache hierarchy. Returns where the translation was found
    /// and, unless it needs a walk `who` may not start, the translation
    /// and its ready cycle.
    ///
    /// Always inlined: out of line, the returned translation is copied
    /// through the stack, which stalls store forwarding on every TLB hit.
    #[inline(always)]
    fn translate(
        &mut self,
        core: usize,
        va: VirtAddr,
        cycle: u64,
        who: Who,
    ) -> Result<(TranslationOutcome, Option<(Translation, u64)>), OomError> {
        let instr = matches!(who, Who::Instr | Who::InstrPrefetch);
        let demand = matches!(who, Who::Data | Who::Instr);
        let first_lat = if instr { self.cfg.itlb } else { self.cfg.dtlb }.latency;
        let c = &mut self.cores[core];
        let first = if instr { &mut c.itlb } else { &mut c.dtlb };
        let probe = |tlb: &mut Tlb| {
            if demand {
                tlb.lookup(va)
            } else {
                tlb.prefetch_probe(va)
            }
        };
        if let Some(t) = probe(first) {
            return Ok((TranslationOutcome::DtlbHit, Some((t, cycle + first_lat))));
        }
        let walk_at = cycle + first_lat + self.cfg.stlb.latency;
        if let Some(t) = probe(&mut c.stlb) {
            if who != Who::InstrPrefetch {
                first.fill(t, !demand);
            }
            return Ok((TranslationOutcome::StlbHit, Some((t, walk_at))));
        }
        let may_walk = match who {
            Who::Data | Who::Instr => true,
            Who::Prefetch { allow_walk } => allow_walk,
            Who::InstrPrefetch => false,
        };
        if !may_walk {
            return Ok((TranslationOutcome::RequiresWalk, None));
        }
        let (t, ready) = self.do_walk(core, va, walk_at, !demand)?;
        if instr {
            self.cores[core].itlb.fill(t, false);
        }
        Ok((TranslationOutcome::RequiresWalk, Some((t, ready))))
    }

    /// Performs a page walk starting at `cycle`, charging PSC latency plus
    /// one pointer-chased L1D read per remaining level. Fills the sTLB and
    /// the dTLB.
    fn do_walk(
        &mut self,
        core: usize,
        va: VirtAddr,
        cycle: u64,
        speculative: bool,
    ) -> Result<(Translation, u64), OomError> {
        let plan = {
            let c = &mut self.cores[core];
            // Split borrows inside one core are fine.
            let CoreMem { walker, vmem, .. } = c;
            walker.walk(va, vmem, &mut self.frames)?
        };
        {
            let ws = &mut self.cores[core].walk_stats;
            if speculative {
                ws.prefetch_walks += 1;
            } else {
                ws.demand_walks += 1;
            }
            ws.memory_refs += plan.refs.len() as u64;
            ws.psc_hits += plan.levels_skipped as u64;
        }
        let mut t = cycle + self.cfg.psc_latency;
        for pte in &plan.refs {
            // PTE lines fill the L1D (walker goes through L1D, like
            // ChampSim); this is part of the pollution cost of speculative
            // walks.
            t = self
                .read(core, Tier::L1d, pte.line(), t, Traffic::Walk)
                .ready;
        }
        if self.events_enabled() {
            self.push_event(
                core,
                cycle,
                TraceEvent::Walk {
                    va_page: va.page_4k().raw(),
                    latency: t - cycle,
                    refs: plan.refs.len() as u32,
                    psc_skipped: plan.levels_skipped,
                    speculative,
                },
            );
        }
        let tr = plan.translation;
        self.cores[core].stlb.fill(tr, speculative);
        self.cores[core].dtlb.fill(tr, speculative);
        Ok((tr, t))
    }

    // ----- public access paths ---------------------------------------------------

    /// A demand load or store from `core` to virtual address `va`.
    pub fn demand_data(
        &mut self,
        core: usize,
        va: VirtAddr,
        is_store: bool,
        cycle: u64,
    ) -> Result<DemandDataResult, OomError> {
        let (found, resolved) = self.translate(core, va, cycle, Who::Data)?;
        let (tr, trans_ready) = resolved.expect("a demand translation may walk");
        let pa = PhysAddr::new(tr.apply(va));
        let line = pa.line();
        // VIPT: L1D index proceeds in parallel with the dTLB on a dTLB hit,
        // so the L1D access effectively starts at `cycle`; on longer
        // translations it starts when the translation is ready.
        let dtlb_hit = found == TranslationOutcome::DtlbHit;
        let start = if dtlb_hit { cycle } else { trans_ready };
        let r = self.read(core, Tier::L1d, line, start, Traffic::Demand { is_store });
        let mut d = DemandDataResult {
            ready: r.ready,
            l1d_hit: r.lookup.hit,
            first_hit_on_prefetch: r.lookup.first_hit_on_prefetch,
            hit_pcb: r.lookup.pcb,
            paddr: pa,
            l1d_eviction: None,
            dtlb_hit,
            stlb_hit: found == TranslationOutcome::StlbHit,
            walked: found == TranslationOutcome::RequiresWalk,
            l2_access: None,
            page_size: tr.size,
        };
        // Only a miss reaches the L2C, fills the L1D and may evict.
        if let Some(l2_hit) = r.below_hit {
            self.push_fill_events(core, start, line, FillKind::Demand, &r.eviction);
            d.l2_access = Some((pa, l2_hit));
            d.l1d_eviction = r.eviction;
        }
        Ok(d)
    }

    /// An instruction fetch from `core` at virtual address `va`.
    pub fn fetch_instr(
        &mut self,
        core: usize,
        va: VirtAddr,
        cycle: u64,
    ) -> Result<FetchResult, OomError> {
        let (found, resolved) = self.translate(core, va, cycle, Who::Instr)?;
        let (tr, trans_ready) = resolved.expect("an instruction translation may walk");
        let line = PhysAddr::new(tr.apply(va)).line();
        let itlb_hit = found == TranslationOutcome::DtlbHit;
        let start = if itlb_hit { cycle } else { trans_ready };
        let r = self.read(core, Tier::L1i, line, start, Traffic::Fetch);
        Ok(FetchResult {
            ready: r.ready,
            l1i_hit: r.lookup.hit,
        })
    }

    /// Issues an L1D prefetch for virtual address `va` on behalf of `core`.
    ///
    /// The target is translated through the TLB hierarchy (prefetch-probe
    /// statistics); when the translation is absent and `allow_walk` is set,
    /// a *speculative page walk* is performed — the high-risk step the paper
    /// studies (up to 4 extra memory references). When `allow_walk` is
    /// false the prefetch is dropped instead (the `Discard PTW` scenario).
    pub fn issue_prefetch(
        &mut self,
        core: usize,
        va: VirtAddr,
        page_cross: bool,
        cycle: u64,
        allow_walk: bool,
    ) -> Result<PrefetchIssueResult, OomError> {
        let (found, resolved) = self.translate(core, va, cycle, Who::Prefetch { allow_walk })?;
        let mut r = PrefetchIssueResult {
            issued: false,
            redundant: false,
            walked: false,
            translation: found,
            paddr: None,
            l1d_eviction: None,
        };
        let Some((tr, t_ready)) = resolved else {
            return Ok(r);
        };
        let pa = PhysAddr::new(tr.apply(va));
        let line = pa.line();
        r.walked = found == TranslationOutcome::RequiresWalk;
        r.paddr = Some(pa);
        let traffic = Traffic::PrefetchL1 { page_cross };
        match self.prefetch_into(core, Tier::L1d, line, t_ready, t_ready, traffic) {
            None => r.redundant = true,
            Some(eviction) => {
                self.push_fill_events(core, t_ready, line, traffic.fill_kind(), &eviction);
                r.issued = true;
                r.l1d_eviction = eviction;
            }
        }
        Ok(r)
    }

    /// Issues an L1I instruction prefetch for virtual address `va`.
    ///
    /// Instruction prefetches never trigger speculative walks: if the
    /// translation is not resident in the iTLB/sTLB the prefetch is
    /// dropped (returns `false`).
    pub fn issue_l1i_prefetch(&mut self, core: usize, va: VirtAddr, cycle: u64) -> bool {
        // Without a walk the translation cannot fail for lack of frames.
        let Ok((_, Some((tr, _)))) = self.translate(core, va, cycle, Who::InstrPrefetch) else {
            return false;
        };
        let line = PhysAddr::new(tr.apply(va)).line();
        let below_at = cycle + self.cfg.l1i.latency;
        self.prefetch_into(core, Tier::L1i, line, cycle, below_at, Traffic::PrefetchL2)
            .is_some()
    }

    /// Issues an L2C prefetch for a physical line (L2C prefetchers operate
    /// in the physical address space and never cross physical pages, §II-A2).
    pub fn issue_l2_prefetch(&mut self, core: usize, pa: PhysAddr, cycle: u64) -> bool {
        let below_at = cycle + self.cfg.l2c.latency;
        self.prefetch_into(
            core,
            Tier::L2c,
            pa.line(),
            cycle,
            below_at,
            Traffic::PrefetchL2,
        )
        .is_some()
    }

    /// Clears every statistics counter (end of warm-up) without touching
    /// cache, TLB, PSC or page-table state.
    pub fn reset_stats(&mut self) {
        for c in &mut self.cores {
            c.l1i.stats = Default::default();
            c.l1d.stats = Default::default();
            c.l2c.stats = Default::default();
            c.dtlb.stats = Default::default();
            c.itlb.stats = Default::default();
            c.stlb.stats = Default::default();
            c.walk_stats = Default::default();
        }
        self.llc.stats = Default::default();
        self.dram.transfers = 0;
        self.dram.queue_cycles = 0;
    }

    /// Translates without timing (used by tests and trace tooling).
    pub fn translate_untimed(&mut self, core: usize, va: VirtAddr) -> Result<PhysAddr, OomError> {
        let c = &mut self.cores[core];
        let CoreMem { vmem, .. } = c;
        let tr = vmem.translate(va, &mut self.frames)?;
        Ok(PhysAddr::new(tr.apply(va)))
    }

    // ----- OS-facing mechanism (policy lives in `pagecross-os`) ------------------

    /// Split borrow of one core's address space together with the shared
    /// frame allocator, so an external pager can allocate and install
    /// mappings in one step.
    pub fn vmem_and_frames(&mut self, core: usize) -> (&mut Vmem, &mut FrameAllocator) {
        (&mut self.cores[core].vmem, &mut self.frames)
    }

    /// Shared frame allocator (reclaim bookkeeping).
    pub fn frames_mut(&mut self) -> &mut FrameAllocator {
        &mut self.frames
    }

    /// TLB-shootdown flush of one 4 KB page across every core: drops
    /// matching dTLB/iTLB/sTLB entries and conservatively the PSC entry
    /// covering the page. Returns the number of entries dropped (the IPI
    /// cost itself is charged by the OS model, not here).
    pub fn shootdown_page(&mut self, vpn4k: u64) -> u32 {
        let mut dropped = 0;
        for c in &mut self.cores {
            dropped += u32::from(c.dtlb.invalidate_page(vpn4k, PageSize::Base4K));
            dropped += u32::from(c.itlb.invalidate_page(vpn4k, PageSize::Base4K));
            dropped += u32::from(c.stlb.invalidate_page(vpn4k, PageSize::Base4K));
            dropped += u32::from(c.walker.invalidate_psc_page(vpn4k));
        }
        dropped
    }

    /// TLB-shootdown flush of an aligned 2 MB region across every core
    /// (both granularities plus the PSC entries above the region).
    /// Returns the number of entries dropped.
    pub fn shootdown_region(&mut self, vpn2m: u64) -> u32 {
        let mut dropped = 0;
        for c in &mut self.cores {
            dropped += c.dtlb.invalidate_region(vpn2m);
            dropped += c.itlb.invalidate_region(vpn2m);
            dropped += c.stlb.invalidate_region(vpn2m);
            dropped += c.walker.invalidate_psc_region(vpn2m);
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> MemorySystem {
        MemorySystem::new(MemConfig::table_iv(1), 1, HugePagePolicy::None, 42)
    }

    #[test]
    fn cold_access_pays_full_chain() {
        let mut m = sys();
        let r = m
            .demand_data(0, VirtAddr::new(0x1000_0000), false, 0)
            .unwrap();
        assert!(!r.l1d_hit);
        assert!(r.walked, "cold TLB requires a walk");
        // Walk (5 refs through DRAM) + miss chain: far more than DRAM latency.
        assert!(r.ready > 160, "cold access must be slow, got {}", r.ready);
    }

    #[test]
    fn warm_access_hits_l1d_fast() {
        let mut m = sys();
        let va = VirtAddr::new(0x1000_0000);
        m.demand_data(0, va, false, 0).unwrap();
        let r = m.demand_data(0, va, false, 10_000).unwrap();
        assert!(r.l1d_hit);
        assert!(r.dtlb_hit);
        assert_eq!(
            r.ready,
            10_000 + 5,
            "dTLB-parallel L1D hit takes L1D latency"
        );
    }

    #[test]
    fn same_page_second_access_no_walk() {
        let mut m = sys();
        m.demand_data(0, VirtAddr::new(0x1000_0000), false, 0)
            .unwrap();
        let r = m
            .demand_data(0, VirtAddr::new(0x1000_0040), false, 1_000)
            .unwrap();
        assert!(!r.walked);
        assert!(r.dtlb_hit);
    }

    #[test]
    fn mshr_merges_same_line() {
        let mut m = sys();
        let va = VirtAddr::new(0x2000_0000);
        // Touch the page once so translation is warm, then force eviction of
        // nothing — access a new line on the same page twice quickly.
        m.demand_data(0, va, false, 0).unwrap();
        let va2 = VirtAddr::new(0x2000_0080);
        let a = m.demand_data(0, va2, false, 1_000).unwrap();
        let b = m.demand_data(0, va2.offset(8), false, 1_001).unwrap();
        assert!(!a.l1d_hit, "first access misses");
        assert!(
            b.ready >= a.ready,
            "second access cannot complete before the fill"
        );
        assert!(
            b.ready <= a.ready + 6,
            "second access merges into the first's MSHR"
        );
    }

    #[test]
    fn prefetch_fills_l1d_and_is_redundant_after() {
        let mut m = sys();
        let trig = VirtAddr::new(0x3000_0000);
        m.demand_data(0, trig, false, 0).unwrap();
        let tgt = VirtAddr::new(0x3000_0400);
        let r = m.issue_prefetch(0, tgt, false, 100, true).unwrap();
        assert!(r.issued);
        let again = m.issue_prefetch(0, tgt, false, 20_000, true).unwrap();
        assert!(again.redundant);
        // Demand access now hits and promotes the prefetch to useful.
        let d = m.demand_data(0, tgt, false, 30_000).unwrap();
        assert!(d.l1d_hit && d.first_hit_on_prefetch);
    }

    #[test]
    fn page_cross_prefetch_walks_when_allowed() {
        let mut m = sys();
        let trig = VirtAddr::new(0x4000_0FC0); // last line of its page
        m.demand_data(0, trig, false, 0).unwrap();
        let tgt = trig.offset(64); // next page, cold TLB
        let r = m.issue_prefetch(0, tgt, true, 1_000, true).unwrap();
        assert_eq!(r.translation, TranslationOutcome::RequiresWalk);
        assert!(r.issued && r.walked);
        assert_eq!(m.core(0).walk_stats.prefetch_walks, 1);
        // The walk filled the TLBs: a demand access to that page now needs no walk.
        let d = m.demand_data(0, tgt, false, 50_000).unwrap();
        assert!(!d.walked);
        assert!(d.l1d_hit, "prefetched block serves the demand");
        assert!(d.hit_pcb, "block carries the Page-Cross Bit");
    }

    #[test]
    fn discard_ptw_semantics() {
        let mut m = sys();
        let tgt = VirtAddr::new(0x5000_0000);
        let r = m.issue_prefetch(0, tgt, true, 0, false).unwrap();
        assert!(!r.issued && !r.walked);
        assert_eq!(r.translation, TranslationOutcome::RequiresWalk);
        assert_eq!(m.core(0).walk_stats.prefetch_walks, 0);
    }

    #[test]
    fn walk_consumes_memory_refs() {
        let mut m = sys();
        m.demand_data(0, VirtAddr::new(0x6000_0000), false, 0)
            .unwrap();
        let ws = m.core(0).walk_stats;
        assert_eq!(ws.demand_walks, 1);
        assert_eq!(ws.memory_refs, 5, "cold 5-level walk references 5 PTEs");
        // Second walk to a nearby page: PSC-L2 hit -> 1 ref.
        m.demand_data(0, VirtAddr::new(0x6000_0000 + (100 << 12)), false, 100_000)
            .unwrap();
        // Note: +100 pages stays in the same 2MB region only if < 512 pages.
        let ws2 = m.core(0).walk_stats;
        assert_eq!(ws2.demand_walks, 2);
        assert_eq!(ws2.memory_refs, 6, "warm walk references only the PT level");
    }

    #[test]
    fn fetch_path_works() {
        let mut m = sys();
        let pc = VirtAddr::new(0x40_0000);
        let f1 = m.fetch_instr(0, pc, 0).unwrap();
        assert!(!f1.l1i_hit);
        let f2 = m.fetch_instr(0, pc, 10_000).unwrap();
        assert!(f2.l1i_hit);
        assert_eq!(f2.ready, 10_000 + 4);
    }

    #[test]
    fn stlb_hit_path() {
        let mut m = sys();
        let va = VirtAddr::new(0x7000_0000);
        m.demand_data(0, va, false, 0).unwrap();
        // Blow the dTLB (64 entries, 4-way) with many distinct pages.
        for p in 1..200u64 {
            m.demand_data(0, VirtAddr::new(0x7000_0000 + (p << 12)), false, p * 2_000)
                .unwrap();
        }
        let r = m.demand_data(0, va, false, 1_000_000).unwrap();
        assert!(!r.dtlb_hit, "dTLB should have evicted the first page");
        assert!(r.stlb_hit, "sTLB (1536 entries) still holds it");
        assert!(!r.walked);
    }

    #[test]
    fn multicore_private_structures_are_independent() {
        let mut m = MemorySystem::new(MemConfig::table_iv(2), 2, HugePagePolicy::None, 1);
        let va = VirtAddr::new(0x8000_0000);
        m.demand_data(0, va, false, 0).unwrap();
        let r1 = m.demand_data(1, va, false, 10).unwrap();
        assert!(!r1.l1d_hit, "core 1 has its own cold L1D");
        assert!(r1.walked, "core 1 has its own cold TLB and address space");
        // Same VA maps to different frames in the two address spaces.
        let p0 = m.translate_untimed(0, va).unwrap();
        let p1 = m.translate_untimed(1, va).unwrap();
        assert_ne!(p0, p1);
    }

    #[test]
    fn l2_prefetch_fills_l2_only() {
        let mut m = sys();
        let va = VirtAddr::new(0x9000_0000);
        let d = m.demand_data(0, va, false, 0).unwrap();
        let pa_next = PhysAddr::new(d.paddr.raw() + 64);
        assert!(m.issue_l2_prefetch(0, pa_next, 1_000));
        assert!(m.core(0).l2c.probe(pa_next.line()));
        assert!(!m.core(0).l1d.probe(pa_next.line()));
        assert!(!m.issue_l2_prefetch(0, pa_next, 2_000), "now redundant");
    }

    #[test]
    fn prefetch_traffic_never_lands_in_demand_counters() {
        let mut m = sys();
        let trig = VirtAddr::new(0xB000_0000);
        m.demand_data(0, trig, false, 0).unwrap();
        let (l2_da, l2_dm) = {
            let s = &m.core(0).l2c.stats;
            (s.demand_accesses, s.demand_misses)
        };
        let (llc_da, llc_dm) = (m.llc.stats.demand_accesses, m.llc.stats.demand_misses);
        // L1 prefetches probe L2C and LLC on their way down; none of that
        // may count as demand traffic.
        for i in 1..=4u64 {
            m.issue_prefetch(
                0,
                VirtAddr::new(0xB000_0000 + i * 64),
                false,
                i * 1_000,
                i % 2 == 0,
            )
            .unwrap();
        }
        let l2 = &m.core(0).l2c.stats;
        assert_eq!(
            l2.demand_accesses, l2_da,
            "L2C demand accesses moved on prefetch traffic"
        );
        assert_eq!(
            l2.demand_misses, l2_dm,
            "L2C demand misses moved on prefetch traffic"
        );
        assert_eq!(m.llc.stats.demand_accesses, llc_da);
        assert_eq!(m.llc.stats.demand_misses, llc_dm);
        assert!(
            l2.prefetch_accesses > 0,
            "prefetch probes must be visible in the prefetch counters"
        );
    }

    #[test]
    fn event_ring_records_fills_and_walks() {
        let mut m = sys();
        assert!(!m.events_enabled());
        // Events offered before attach are silently dropped.
        m.push_event(
            0,
            0,
            TraceEvent::Fill {
                line: 1,
                prefetch: false,
                page_cross: false,
            },
        );
        m.attach_events(EventRing::new(1024, 1));
        assert!(m.events_enabled());

        let va = VirtAddr::new(0xC000_0000);
        m.demand_data(0, va, false, 0).unwrap(); // cold: walk + demand fill
        let r = m
            .issue_prefetch(0, va.offset(4096), true, 1_000, true)
            .unwrap();
        assert!(r.issued && r.walked);

        let ring = m.take_events().expect("ring attached");
        assert!(!m.events_enabled());
        let events = ring.into_events();
        let kinds: Vec<&str> = events.iter().map(|e| e.event.kind()).collect();
        assert!(kinds.contains(&"walk"), "{kinds:?}");
        assert!(kinds.contains(&"fill"), "{kinds:?}");
        let walks: Vec<_> = events
            .iter()
            .filter_map(|e| match e.event {
                TraceEvent::Walk {
                    latency,
                    refs,
                    speculative,
                    ..
                } => Some((latency, refs, speculative)),
                _ => None,
            })
            .collect();
        assert_eq!(walks.len(), 2, "one demand + one speculative walk");
        assert!(walks.iter().all(|&(lat, refs, _)| lat > 0 && refs > 0));
        assert_eq!(walks.iter().filter(|&&(_, _, s)| s).count(), 1);
        let pf_fills = events
            .iter()
            .filter(|e| {
                matches!(
                    e.event,
                    TraceEvent::Fill {
                        prefetch: true,
                        page_cross: true,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(pf_fills, 1, "the page-cross prefetch fill is recorded");
    }

    // The five tests below pin asymmetries of the request path. Each is a
    // model choice, not a law of hardware: the goldens (`tests/golden.rs`)
    // and `simbench/expected.txt` lock it, so changing one moves both.

    /// Model choice: every walk fills the dTLB, an instruction-side walk
    /// included.
    #[test]
    fn every_walk_fills_the_dtlb() {
        let mut m = sys();
        let pc = VirtAddr::new(0x40_0000);
        m.fetch_instr(0, pc, 0).unwrap();
        assert_eq!(m.core(0).walk_stats.demand_walks, 1);
        assert!(m.core(0).itlb.peek(pc));
        assert!(m.core(0).stlb.peek(pc));
        assert!(m.core(0).dtlb.peek(pc), "the fetch's walk fills the dTLB");
    }

    /// Model choice: a hit at L1D or L1I waits for an in-flight fill of
    /// the line; a hit at L2C or LLC does not.
    #[test]
    fn only_first_level_hits_wait_for_inflight_fills() {
        let mut m = sys();
        let cfg = *m.config();
        let va = VirtAddr::new(0x2000_0000);
        m.demand_data(0, va, false, 0).unwrap();
        let a = m.demand_data(0, va.offset(128), false, 10_000).unwrap();
        let b = m.demand_data(0, va.offset(128), false, 10_001).unwrap();
        assert!(!a.l1d_hit && b.l1d_hit);
        assert_eq!(b.ready, a.ready, "an L1D hit waits for the fill");

        let pc = VirtAddr::new(0x40_0000);
        m.fetch_instr(0, pc, 0).unwrap();
        let a = m.fetch_instr(0, pc.offset(128), 10_000).unwrap();
        let b = m.fetch_instr(0, pc.offset(128), 10_001).unwrap();
        assert!(!a.l1i_hit && b.l1i_hit);
        assert_eq!(b.ready, a.ready, "an L1I hit waits for the fill");

        // An L2C prefetch installs the line at issue; the demand that
        // finds it there pays the L2C latency only.
        let pa = m.translate_untimed(0, va.offset(256)).unwrap();
        assert!(m.issue_l2_prefetch(0, pa, 20_000));
        let d = m.demand_data(0, va.offset(256), false, 20_001).unwrap();
        assert_eq!(d.l2_access, Some((pa, true)));
        assert_eq!(d.ready, 20_001 + cfg.l1d.latency + cfg.l2c.latency);

        // Core 0's L2C prefetch of core 1's line installs it in the shared
        // LLC; core 1 then hits there without waiting for the DRAM fill.
        let mut m = MemorySystem::new(MemConfig::table_iv(2), 2, HugePagePolicy::None, 1);
        let vb = VirtAddr::new(0x8000_0000);
        m.demand_data(1, vb, false, 0).unwrap();
        let pa = m.translate_untimed(1, vb.offset(128)).unwrap();
        assert!(m.issue_l2_prefetch(0, pa, 10_000));
        let d = m.demand_data(1, vb.offset(128), false, 10_001).unwrap();
        assert_eq!(d.l2_access, Some((pa, false)));
        assert_eq!(
            d.ready,
            10_001 + cfg.l1d.latency + cfg.l2c.latency + cfg.llc.latency
        );
    }

    /// Model choice: an L1D prefetch leaves for the L2C at translation-ready
    /// time without the L1D latency; an L1I prefetch pays the L1I latency.
    /// (The L2C prefetch pays the L2C latency; no public call can observe
    /// it, so the `L2PrefetcherKind::Spp` golden row locks it.)
    #[test]
    fn l1d_prefetch_skips_its_own_latency_l1i_prefetch_pays_it() {
        let mut m = sys();
        let cfg = *m.config();
        let va = VirtAddr::new(0x3000_0000);
        m.demand_data(0, va, false, 0).unwrap();
        let tgt = va.offset(512);
        let pa = m.translate_untimed(0, tgt).unwrap();
        assert!(m.issue_l2_prefetch(0, pa, 1_000));
        assert!(
            m.issue_prefetch(0, tgt, false, 10_000, true)
                .unwrap()
                .issued
        );
        let d = m.demand_data(0, tgt, false, 10_002).unwrap();
        assert!(d.l1d_hit);
        assert_eq!(d.ready, 10_000 + cfg.dtlb.latency + cfg.l2c.latency);

        let pc = VirtAddr::new(0x40_0000);
        m.fetch_instr(0, pc, 0).unwrap();
        let tgt = pc.offset(512);
        let pa = m.translate_untimed(0, tgt).unwrap();
        assert!(m.issue_l2_prefetch(0, pa, 1_000));
        assert!(m.issue_l1i_prefetch(0, tgt, 10_000));
        let f = m.fetch_instr(0, tgt, 10_001).unwrap();
        assert!(f.l1i_hit);
        assert_eq!(f.ready, 10_000 + cfg.l1i.latency + cfg.l2c.latency);
    }

    /// Model choice: an L1I prefetch that hits in the sTLB does not fill
    /// the iTLB; an L1D prefetch that hits in the sTLB fills the dTLB.
    #[test]
    fn stlb_hit_refills_dtlb_for_l1d_prefetch_only() {
        let mut m = sys();
        // A data walk fills the sTLB and dTLB, not the iTLB.
        let code = VirtAddr::new(0x50_0000);
        m.demand_data(0, code, false, 0).unwrap();
        assert!(!m.core(0).itlb.peek(code) && m.core(0).stlb.peek(code));
        assert!(m.issue_l1i_prefetch(0, code.offset(64), 1_000));
        assert!(!m.core(0).itlb.peek(code), "iTLB not filled");
        assert_eq!(m.core(0).itlb.stats.prefetch_fills, 0);

        // Four more pages in the same 4-way dTLB set evict the first.
        let va = VirtAddr::new(0x7000_0000);
        m.demand_data(0, va, false, 10_000).unwrap();
        for k in 1..=4u64 {
            m.demand_data(
                0,
                VirtAddr::new(va.raw() + ((k * 16) << 12)),
                false,
                k * 10_000,
            )
            .unwrap();
        }
        assert!(!m.core(0).dtlb.peek(va) && m.core(0).stlb.peek(va));
        let fills = m.core(0).dtlb.stats.prefetch_fills;
        let r = m
            .issue_prefetch(0, va.offset(64), false, 100_000, true)
            .unwrap();
        assert_eq!(r.translation, TranslationOutcome::StlbHit);
        assert!(m.core(0).dtlb.peek(va), "dTLB refilled");
        assert_eq!(m.core(0).dtlb.stats.prefetch_fills, fills + 1);
    }

    /// Model choice: walker reads are neutral at L1D but count as prefetch
    /// accesses at L2C and LLC, and fill there as demand blocks.
    #[test]
    fn walker_reads_count_as_prefetch_accesses_below_l1d() {
        let mut m = sys();
        m.demand_data(0, VirtAddr::new(0x6000_0000), false, 0)
            .unwrap();
        assert_eq!(m.core(0).walk_stats.memory_refs, 5);
        let c = m.core(0);
        assert_eq!(c.l1d.stats.demand_accesses, 1, "the data access only");
        assert_eq!(c.l1d.stats.prefetch_accesses, 0);
        assert_eq!(c.l1d.occupancy(), 6, "5 PTE lines + the data line");
        for s in [&c.l2c.stats, &m.llc.stats] {
            assert_eq!(s.demand_accesses, 1);
            assert_eq!(s.prefetch_accesses, 5, "one per PTE reference");
            assert_eq!(s.prefetch_hits, 0);
            assert_eq!(s.prefetch_fills, 0, "PTE lines fill as demand");
        }
        assert_eq!(c.l2c.occupancy(), 6);
        assert_eq!(m.llc.occupancy(), 6);
    }

    /// A redundant prefetch of a resident line must not look up the MSHR:
    /// prefetches run at translation-ready time, later than the next
    /// demand's dispatch, and a lookup there would expire the demand's
    /// in-flight fill early.
    #[test]
    fn redundant_prefetch_does_not_expire_inflight_fills() {
        let mut m = sys();
        let va = VirtAddr::new(0x3100_0000);
        let d = m.demand_data(0, va, false, 0).unwrap();
        assert!(!d.l1d_hit);
        let ready = d.ready;
        let r = m.issue_prefetch(0, va, false, ready + 1_000, true).unwrap();
        assert!(r.redundant);
        let late = m.demand_data(0, va, false, ready - 10).unwrap();
        assert!(late.l1d_hit);
        assert_eq!(late.ready, ready, "the fill is still in flight");
    }

    #[test]
    fn store_miss_write_allocates_dirty() {
        let mut m = sys();
        let va = VirtAddr::new(0xA000_0000);
        m.demand_data(0, va, true, 0).unwrap();
        // Evicting it later produces a writeback; force evictions by filling
        // the set: lines mapping to the same set are 64 sets * 64B apart.
        let mut wb_before = m.core(0).l1d.stats.writebacks;
        assert_eq!(wb_before, 0);
        for i in 1..=12u64 {
            let conflict = VirtAddr::new(0xA000_0000 + i * 64 * 64);
            m.demand_data(0, conflict, false, i * 3_000).unwrap();
        }
        wb_before = m.core(0).l1d.stats.writebacks;
        assert!(wb_before >= 1, "dirty block eventually written back");
    }
}
