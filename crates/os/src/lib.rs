//! Imitation-OS memory management above the `pagecross-mem` mechanism
//! layer: demand paging, finite physical memory with CLOCK frame
//! reclamation, a khugepaged-style online THP promotion daemon, and TLB
//! shootdowns.
//!
//! The memory system (`crates/mem`) owns the *mechanism* — address
//! spaces, frame pools, TLB/PSC invalidation hooks. This crate owns the
//! *policy*: which virtual pages are resident, which frame backs them,
//! when a region is collapsed to a 2 MB mapping, and who pays for every
//! transition. All latencies are returned to the caller (the CPU engine)
//! in cycles so they land in the faulting core's stall attribution and
//! preserve the exact stall-sum invariant.
//!
//! Deliberate deviations from Linux, chosen for determinism and model
//! economy, are listed in `DESIGN.md` §11: code pages are mapped by a
//! zero-cost loader model, promotion swaps in the whole region as part
//! of the collapse cost, shootdown IPIs broadcast to every core, and
//! split 2 MB frames are never coalesced back (no memory compaction).

use pagecross_mem::{MemorySystem, OomError};
use pagecross_types::{FastMap, FastSet, OsOp, OsStats, TraceEvent, VirtAddr};
use std::collections::VecDeque;

/// Tunables for the imitation OS. All latencies are in core cycles
/// (4 GHz in the paper's Table IV, so 1 ns = 4 cycles).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OsConfig {
    /// Physical memory size; becomes the frame allocator's capacity.
    pub phys_mem_bytes: u64,
    /// THP aggressiveness in `[0, 1]`. `0.0` disables the promotion
    /// daemon entirely; `1.0` collapses a region on its first resident
    /// page. In between, a region is promoted once
    /// `ceil((1 - thp) * 512)` of its 4 KB pages are resident.
    pub thp: f64,
    /// Minor (first-touch) fault handler latency.
    pub minor_fault_cycles: u64,
    /// Major (swapped-out) fault latency, including device swap-in.
    pub major_fault_cycles: u64,
    /// Cost of receiving one shootdown IPI, charged to the receiving
    /// core at its next memory access.
    pub ipi_cycles: u64,
    /// Cost of collapsing a region to a 2 MB mapping, charged to the
    /// core whose fault tipped the region over the threshold.
    pub promote_cycles: u64,
}

impl Default for OsConfig {
    fn default() -> Self {
        OsConfig {
            phys_mem_bytes: 4 << 30,
            thp: 0.0,
            minor_fault_cycles: 4_000,
            major_fault_cycles: 32_000,
            ipi_cycles: 800,
            promote_cycles: 2_000,
        }
    }
}

impl OsConfig {
    /// Number of resident 4 KB pages at which a 2 MB region is
    /// collapsed. `u64::MAX` when the daemon is off.
    pub fn promote_threshold(&self) -> u64 {
        if self.thp <= 0.0 {
            return u64::MAX;
        }
        let t = ((1.0 - self.thp.min(1.0)) * 512.0).ceil() as u64;
        t.max(1)
    }
}

const PAGES_PER_REGION: u64 = 512;

/// Per-core pager state. Every core runs its own process (separate
/// address space), so residency bookkeeping is per core; only the frame
/// pools (partitioned per core inside `FrameAllocator`) and the
/// shootdown broadcast are shared.
#[derive(Default)]
struct CorePager {
    /// Resident 4 KB pages: vpn4k -> CLOCK referenced bit.
    pages: FastMap<u64, bool>,
    /// CLOCK hand order over reclaimable 4 KB pages (lazy deletion:
    /// stale entries are skipped when popped).
    clock: VecDeque<u64>,
    /// Resident 2 MB regions: vpn2m -> CLOCK referenced bit.
    huge: FastMap<u64, bool>,
    clock_huge: VecDeque<u64>,
    /// Pages that were reclaimed; their next touch is a major fault.
    swapped: FastSet<u64>,
    /// Code pages mapped by the loader model: never reclaimed.
    pinned: FastSet<u64>,
    /// Resident 4 KB pages per 2 MB region (promotion trigger).
    region_resident: FastMap<u64, u64>,
    /// Pinned pages per region (a pinned page blocks collapse).
    region_pinned: FastMap<u64, u64>,
    /// 4 KB frames carved out of demoted 2 MB frames, available for
    /// reuse. Split frames are never coalesced back (no compaction).
    free_subframes: Vec<u64>,
    /// Shootdown IPIs not yet acknowledged; drained (and charged) at
    /// this core's next memory access.
    pending_ipis: u64,
    stats: OsStats,
}

/// The imitation OS: one instance per simulation, spanning all cores.
pub struct Os {
    cfg: OsConfig,
    pagers: Vec<CorePager>,
}

impl Os {
    pub fn new(cfg: OsConfig, n_cores: usize) -> Self {
        let pagers = (0..n_cores).map(|_| CorePager::default()).collect();
        Os { cfg, pagers }
    }

    pub fn config(&self) -> &OsConfig {
        &self.cfg
    }

    pub fn n_cores(&self) -> usize {
        self.pagers.len()
    }

    /// Counters for one core since the last [`Os::reset_stats`].
    pub fn stats(&self, core: usize) -> OsStats {
        self.pagers[core].stats
    }

    /// Sum over all cores.
    pub fn total_stats(&self) -> OsStats {
        let mut t = OsStats::default();
        for p in &self.pagers {
            t.accumulate(&p.stats);
        }
        t
    }

    /// Zeroes the counters (warmup/measure boundary). Residency state
    /// is deliberately kept — the page cache survives the boundary.
    pub fn reset_stats(&mut self) {
        for p in &mut self.pagers {
            p.stats = OsStats::default();
        }
    }

    /// True when a demand access to `va` would not fault. Used by the
    /// engine to gate prefetch page walks: a prefetcher is never
    /// allowed to fault a page in.
    pub fn is_resident(&self, core: usize, va: VirtAddr) -> bool {
        let p = &self.pagers[core];
        p.huge.contains_key(&va.page_2m().raw()) || p.pages.contains_key(&va.page_4k().raw())
    }

    /// The demand-paging front door: called by the engine before every
    /// load/store is handed to the memory system. Ensures the page is
    /// resident and returns the cycles to charge to this access (IPI
    /// acknowledgements, fault handling, THP collapse). Zero on the hot
    /// path (page resident, no pending IPIs).
    pub fn before_access(
        &mut self,
        mem: &mut MemorySystem,
        core: usize,
        va: VirtAddr,
        cycle: u64,
    ) -> Result<u64, OomError> {
        let vpn4k = va.page_4k().raw();
        let vpn2m = va.page_2m().raw();
        let mut charge = self.drain_ipis(core);

        let p = &mut self.pagers[core];
        if let Some(r) = p.huge.get_mut(&vpn2m) {
            *r = true;
            p.stats.fault_cycles += charge;
            return Ok(charge);
        }
        if let Some(r) = p.pages.get_mut(&vpn4k) {
            *r = true;
            p.stats.fault_cycles += charge;
            return Ok(charge);
        }

        // Fault path.
        let major = p.swapped.remove(&vpn4k);
        let fault_cost = if major {
            p.stats.major_faults += 1;
            self.cfg.major_fault_cycles
        } else {
            p.stats.minor_faults += 1;
            self.cfg.minor_fault_cycles
        };
        charge += fault_cost;

        let pfn = self.alloc_4k_with_reclaim(mem, core, cycle)?;
        let (vmem, _) = mem.vmem_and_frames(core);
        vmem.map_4k_at(vpn4k, pfn);
        let p = &mut self.pagers[core];
        p.pages.insert(vpn4k, true);
        p.clock.push_back(vpn4k);
        *p.region_resident.entry(vpn2m).or_insert(0) += 1;
        let op = if major {
            OsOp::MajorFault
        } else {
            OsOp::MinorFault
        };
        mem.push_event(
            core,
            cycle,
            TraceEvent::Os {
                op,
                va_page: vpn4k,
                cycles: fault_cost,
            },
        );

        charge += self.maybe_promote(mem, core, vpn2m, cycle);
        self.pagers[core].stats.fault_cycles += charge;
        Ok(charge)
    }

    /// Loader model for code pages: maps the page holding `va` without
    /// charging fault latency (the binary is assumed pre-faulted by the
    /// loader) and pins it so the reclaimer never evicts the working
    /// text. Reclaims it forces on a full pool are still real and
    /// counted.
    pub fn pin_code_page(
        &mut self,
        mem: &mut MemorySystem,
        core: usize,
        va: VirtAddr,
        cycle: u64,
    ) -> Result<(), OomError> {
        let vpn4k = va.page_4k().raw();
        let vpn2m = va.page_2m().raw();
        let p = &mut self.pagers[core];
        if p.huge.contains_key(&vpn2m) {
            return Ok(());
        }
        if p.pages.contains_key(&vpn4k) {
            if p.pinned.insert(vpn4k) {
                *p.region_pinned.entry(vpn2m).or_insert(0) += 1;
            }
            return Ok(());
        }
        p.swapped.remove(&vpn4k);
        let pfn = self.alloc_4k_with_reclaim(mem, core, cycle)?;
        let (vmem, _) = mem.vmem_and_frames(core);
        vmem.map_4k_at(vpn4k, pfn);
        let p = &mut self.pagers[core];
        p.pages.insert(vpn4k, true);
        p.pinned.insert(vpn4k);
        *p.region_pinned.entry(vpn2m).or_insert(0) += 1;
        *p.region_resident.entry(vpn2m).or_insert(0) += 1;
        Ok(())
    }

    fn drain_ipis(&mut self, core: usize) -> u64 {
        let p = &mut self.pagers[core];
        if p.pending_ipis == 0 {
            return 0;
        }
        let n = p.pending_ipis;
        p.pending_ipis = 0;
        p.stats.ipis_received += n;
        n * self.cfg.ipi_cycles
    }

    /// A 4 KB frame for `core`, reclaiming (and if necessary demoting a
    /// 2 MB mapping) until one is free. Split-frame slots are preferred
    /// so demotions actually relieve 4 KB-pool pressure.
    fn alloc_4k_with_reclaim(
        &mut self,
        mem: &mut MemorySystem,
        core: usize,
        cycle: u64,
    ) -> Result<u64, OomError> {
        loop {
            if let Some(pfn) = self.pagers[core].free_subframes.pop() {
                return Ok(pfn);
            }
            match mem.frames_mut().alloc_4k(core as u32) {
                Ok(pfn) => return Ok(pfn),
                Err(e) => self.reclaim_one(mem, core, cycle).map_err(|_| e)?,
            }
        }
    }

    /// Evicts one 4 KB page chosen by CLOCK second-chance; when the
    /// 4 KB clock is exhausted (everything pinned or already huge),
    /// demotes one 2 MB region to refill it. Errors only when nothing
    /// reclaimable remains.
    fn reclaim_one(
        &mut self,
        mem: &mut MemorySystem,
        core: usize,
        cycle: u64,
    ) -> Result<(), OomError> {
        let victim = match self.pick_victim_4k(core) {
            Some(v) => v,
            None => {
                if !self.demote_one(mem, core, cycle) {
                    return Err(OomError::Frames4K);
                }
                self.pick_victim_4k(core).ok_or(OomError::Frames4K)?
            }
        };
        self.evict_4k(mem, core, victim, cycle);
        Ok(())
    }

    /// CLOCK hand over the 4 KB residency list: referenced pages get a
    /// second chance, stale and pinned entries are skipped lazily.
    fn pick_victim_4k(&mut self, core: usize) -> Option<u64> {
        let p = &mut self.pagers[core];
        let mut budget = 2 * p.clock.len() + 1;
        while budget > 0 {
            budget -= 1;
            let vpn = p.clock.pop_front()?;
            if p.pinned.contains(&vpn) {
                continue;
            }
            match p.pages.get_mut(&vpn) {
                None => continue, // promoted away or already evicted
                Some(r) if *r => {
                    *r = false;
                    p.clock.push_back(vpn);
                }
                Some(_) => return Some(vpn),
            }
        }
        None
    }

    fn pick_victim_2m(&mut self, core: usize) -> Option<u64> {
        let p = &mut self.pagers[core];
        let mut budget = 2 * p.clock_huge.len() + 1;
        while budget > 0 {
            budget -= 1;
            let vpn2m = p.clock_huge.pop_front()?;
            match p.huge.get_mut(&vpn2m) {
                None => continue,
                Some(r) if *r => {
                    *r = false;
                    p.clock_huge.push_back(vpn2m);
                }
                Some(_) => return Some(vpn2m),
            }
        }
        None
    }

    fn evict_4k(&mut self, mem: &mut MemorySystem, core: usize, vpn4k: u64, cycle: u64) {
        let huge_base = mem.frames_mut().huge_region_base();
        let (vmem, frames) = mem.vmem_and_frames(core);
        let pfn = vmem.unmap_4k(vpn4k).expect("victim must be mapped");
        let p = &mut self.pagers[core];
        p.pages.remove(&vpn4k);
        let vpn2m = vpn4k >> 9;
        if let Some(n) = p.region_resident.get_mut(&vpn2m) {
            *n -= 1;
            if *n == 0 {
                p.region_resident.remove(&vpn2m);
            }
        }
        if pfn >= huge_base {
            // Carved out of a demoted 2 MB frame: recycle the slot.
            p.free_subframes.push(pfn);
        } else {
            frames.free_4k(pfn);
        }
        p.swapped.insert(vpn4k);
        p.stats.reclaims += 1;
        mem.push_event(
            core,
            cycle,
            TraceEvent::Os {
                op: OsOp::Reclaim,
                va_page: vpn4k,
                cycles: 0,
            },
        );
        self.broadcast_page(mem, core, vpn4k, cycle);
    }

    /// Splits one CLOCK-chosen 2 MB mapping back into 512 resident
    /// 4 KB pages backed by the same physical frame, making them
    /// individually reclaimable. Returns false when no region is
    /// resident.
    fn demote_one(&mut self, mem: &mut MemorySystem, core: usize, cycle: u64) -> bool {
        let Some(vpn2m) = self.pick_victim_2m(core) else {
            return false;
        };
        let p = &mut self.pagers[core];
        p.huge.remove(&vpn2m);
        let (vmem, _) = mem.vmem_and_frames(core);
        let pfn2m = vmem.unmap_2m(vpn2m).expect("huge victim must be mapped");
        let lo = vpn2m << 9;
        for idx in 0..PAGES_PER_REGION {
            vmem.map_4k_at(lo + idx, (pfn2m << 9) + idx);
        }
        let p = &mut self.pagers[core];
        for idx in 0..PAGES_PER_REGION {
            p.pages.insert(lo + idx, false);
            p.clock.push_back(lo + idx);
        }
        p.region_resident.insert(vpn2m, PAGES_PER_REGION);
        p.stats.thp_demotions += 1;
        mem.push_event(
            core,
            cycle,
            TraceEvent::Os {
                op: OsOp::Demote,
                va_page: vpn2m,
                cycles: 0,
            },
        );
        self.broadcast_region(mem, core, vpn2m, cycle);
        true
    }

    /// khugepaged step: collapses `vpn2m` to a 2 MB mapping when enough
    /// of its pages are resident, none are pinned, and a 2 MB frame is
    /// available (allocation failure skips silently, like khugepaged
    /// backing off). Previously swapped pages of the region come back
    /// in as part of the collapse cost. Returns the cycles charged.
    fn maybe_promote(
        &mut self,
        mem: &mut MemorySystem,
        core: usize,
        vpn2m: u64,
        cycle: u64,
    ) -> u64 {
        let threshold = self.cfg.promote_threshold();
        {
            let p = &self.pagers[core];
            if p.huge.contains_key(&vpn2m)
                || p.region_pinned.get(&vpn2m).copied().unwrap_or(0) > 0
                || p.region_resident.get(&vpn2m).copied().unwrap_or(0) < threshold
            {
                return 0;
            }
        }
        let Ok(pfn2m) = mem.frames_mut().alloc_2m(core as u32) else {
            return 0;
        };
        let huge_base = mem.frames_mut().huge_region_base();
        let (vmem, frames) = mem.vmem_and_frames(core);
        let moved = vmem.take_region_4k(vpn2m);
        let p = &mut self.pagers[core];
        for (vpn, pfn) in &moved {
            p.pages.remove(vpn);
            if *pfn >= huge_base {
                p.free_subframes.push(*pfn);
            } else {
                frames.free_4k(*pfn);
            }
        }
        let lo = vpn2m << 9;
        for vpn in lo..lo + PAGES_PER_REGION {
            p.swapped.remove(&vpn);
        }
        vmem.map_2m_at(vpn2m, pfn2m);
        p.huge.insert(vpn2m, true);
        p.clock_huge.push_back(vpn2m);
        p.region_resident.remove(&vpn2m);
        p.stats.thp_promotions += 1;
        mem.push_event(
            core,
            cycle,
            TraceEvent::Os {
                op: OsOp::Promote,
                va_page: vpn2m,
                cycles: self.cfg.promote_cycles,
            },
        );
        self.broadcast_region(mem, core, vpn2m, cycle);
        self.cfg.promote_cycles
    }

    /// One shootdown broadcast: flush the page everywhere, count one
    /// shootdown on the initiator, queue an IPI for every other core.
    fn broadcast_page(&mut self, mem: &mut MemorySystem, core: usize, vpn4k: u64, cycle: u64) {
        mem.shootdown_page(vpn4k);
        self.finish_broadcast(mem, core, vpn4k, cycle);
    }

    fn broadcast_region(&mut self, mem: &mut MemorySystem, core: usize, vpn2m: u64, cycle: u64) {
        mem.shootdown_region(vpn2m);
        self.finish_broadcast(mem, core, vpn2m, cycle);
    }

    fn finish_broadcast(&mut self, mem: &mut MemorySystem, core: usize, va_page: u64, cycle: u64) {
        self.pagers[core].stats.shootdowns += 1;
        for (i, p) in self.pagers.iter_mut().enumerate() {
            if i != core {
                p.pending_ipis += 1;
            }
        }
        mem.push_event(
            core,
            cycle,
            TraceEvent::Os {
                op: OsOp::Shootdown,
                va_page,
                cycles: self.cfg.ipi_cycles,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagecross_mem::vmem::HugePagePolicy;
    use pagecross_mem::MemConfig;

    const MB: u64 = 1 << 20;

    fn sys(cores: usize) -> MemorySystem {
        let mut cfg = MemConfig::table_iv(1);
        cfg.dram.capacity_bytes = 64 * MB;
        MemorySystem::new(cfg, cores, HugePagePolicy::None, 42)
    }

    fn os(thp: f64, cores: usize) -> Os {
        let cfg = OsConfig {
            phys_mem_bytes: 64 * MB,
            thp,
            ..OsConfig::default()
        };
        Os::new(cfg, cores)
    }

    #[test]
    fn promote_threshold_scales_with_thp() {
        let mut c = OsConfig::default();
        assert_eq!(c.promote_threshold(), u64::MAX);
        c.thp = 1.0;
        assert_eq!(c.promote_threshold(), 1);
        c.thp = 0.5;
        assert_eq!(c.promote_threshold(), 256);
        c.thp = 0.25;
        assert_eq!(c.promote_threshold(), 384);
        c.thp = 0.001;
        assert!(c.promote_threshold() <= 512);
    }

    #[test]
    fn first_touch_is_a_minor_fault_second_is_free() {
        let mut mem = sys(1);
        let mut os = os(0.0, 1);
        let va = VirtAddr::new(0x1234_5678);
        let c1 = os.before_access(&mut mem, 0, va, 0).unwrap();
        assert_eq!(c1, os.config().minor_fault_cycles);
        let c2 = os.before_access(&mut mem, 0, va, 10).unwrap();
        assert_eq!(c2, 0);
        let s = os.stats(0);
        assert_eq!(s.minor_faults, 1);
        assert_eq!(s.major_faults, 0);
        assert_eq!(s.fault_cycles, c1);
        assert!(os.is_resident(0, va));
        assert!(!os.is_resident(0, VirtAddr::new(0xdead_0000)));
    }

    #[test]
    fn pressure_reclaims_then_major_faults_on_return() {
        let mut mem = sys(1);
        let mut os = os(0.0, 1);
        // 64 MB => 8192 4 KB pool frames. Touch well past that.
        let n = mem.frames_mut().total_4k_frames() + 512;
        for i in 0..n {
            os.before_access(&mut mem, 0, VirtAddr::new(i << 12), i)
                .unwrap();
        }
        let s = os.stats(0);
        assert_eq!(s.minor_faults, n);
        assert!(s.reclaims >= 512, "reclaims: {}", s.reclaims);
        assert_eq!(s.shootdowns, s.reclaims);
        // Page 0 was evicted long ago: coming back is a major fault.
        let c = os
            .before_access(&mut mem, 0, VirtAddr::new(0), n + 1)
            .unwrap();
        assert_eq!(c, os.config().major_fault_cycles);
        assert_eq!(os.stats(0).major_faults, 1);
    }

    #[test]
    fn clock_gives_referenced_pages_a_second_chance() {
        let mut mem = sys(1);
        let mut os = os(0.0, 1);
        let total = mem.frames_mut().total_4k_frames();
        for i in 0..total {
            os.before_access(&mut mem, 0, VirtAddr::new(i << 12), i)
                .unwrap();
        }
        // First overflow: every page is freshly referenced, so the full
        // CLOCK pass clears all bits and evicts page 0.
        os.before_access(&mut mem, 0, VirtAddr::new(total << 12), total)
            .unwrap();
        assert!(!os.is_resident(0, VirtAddr::new(0)));
        // Re-reference page 1, then overflow again: CLOCK must give
        // page 1 its second chance and evict page 2 instead.
        os.before_access(&mut mem, 0, VirtAddr::new(1 << 12), total + 1)
            .unwrap();
        os.before_access(&mut mem, 0, VirtAddr::new((total + 1) << 12), total + 2)
            .unwrap();
        assert!(os.is_resident(0, VirtAddr::new(1 << 12)));
        assert!(!os.is_resident(0, VirtAddr::new(2 << 12)));
    }

    #[test]
    fn aggressive_thp_promotes_on_first_touch() {
        let mut mem = sys(1);
        let mut os = os(1.0, 1);
        let va = VirtAddr::new(5 << 21);
        let c = os.before_access(&mut mem, 0, va, 0).unwrap();
        assert_eq!(
            c,
            os.config().minor_fault_cycles + os.config().promote_cycles
        );
        let s = os.stats(0);
        assert_eq!(s.thp_promotions, 1);
        assert_eq!(s.shootdowns, 1);
        // The whole region is now resident without further faults.
        let c2 = os
            .before_access(&mut mem, 0, VirtAddr::new((5 << 21) + 300 * 4096), 1)
            .unwrap();
        assert_eq!(c2, 0);
        assert_eq!(os.stats(0).minor_faults, 1);
    }

    #[test]
    fn fractional_thp_waits_for_the_threshold() {
        let mut mem = sys(1);
        let mut os = os(0.5, 1); // threshold = 256 resident pages
        for i in 0..255 {
            os.before_access(&mut mem, 0, VirtAddr::new(i << 12), i)
                .unwrap();
        }
        assert_eq!(os.stats(0).thp_promotions, 0);
        os.before_access(&mut mem, 0, VirtAddr::new(255 << 12), 255)
            .unwrap();
        assert_eq!(os.stats(0).thp_promotions, 1);
        assert!(os.is_resident(0, VirtAddr::new(511 << 12)));
    }

    #[test]
    fn pinned_code_pages_block_promotion_and_reclaim() {
        let mut mem = sys(1);
        let mut os = os(1.0, 1);
        let code = VirtAddr::new(7 << 21);
        os.pin_code_page(&mut mem, 0, code, 0).unwrap();
        assert!(os.is_resident(0, code));
        assert_eq!(os.stats(0).minor_faults, 0, "loader model charges nothing");
        // A data touch in the same region would normally promote
        // (thp=1.0) but the pinned page blocks it.
        os.before_access(&mut mem, 0, VirtAddr::new((7 << 21) + 4096), 1)
            .unwrap();
        assert_eq!(os.stats(0).thp_promotions, 0);
    }

    #[test]
    fn pinned_code_pages_survive_reclaim_pressure() {
        let mut mem = sys(1);
        let mut os = os(0.0, 1);
        let code = VirtAddr::new(7 << 21);
        os.pin_code_page(&mut mem, 0, code, 0).unwrap();
        let total = mem.frames_mut().total_4k_frames();
        for i in 0..total + 64 {
            os.before_access(&mut mem, 0, VirtAddr::new((1 << 30) + (i << 12)), i)
                .unwrap();
        }
        assert!(os.stats(0).reclaims > 0);
        assert!(os.is_resident(0, code));
    }

    #[test]
    fn demotion_splits_a_region_under_pressure() {
        let mut mem = sys(1);
        let mut os = os(1.0, 1);
        // Promote every 2 MB frame the pool has (12 at 64 MB).
        let n2m = mem.frames_mut().total_2m_frames();
        for r in 0..n2m {
            os.before_access(&mut mem, 0, VirtAddr::new(r << 21), r)
                .unwrap();
        }
        assert_eq!(os.stats(0).thp_promotions, n2m);
        // Now pin the whole 4 KB pool so CLOCK has nothing to evict,
        // then fault one more data page: the OS must demote a region
        // and recycle one of its sub-frames.
        let total = mem.frames_mut().total_4k_frames();
        for i in 0..total {
            os.pin_code_page(&mut mem, 0, VirtAddr::new((1 << 31) + (i << 12)), i)
                .unwrap();
        }
        os.before_access(&mut mem, 0, VirtAddr::new(1 << 32), 99)
            .unwrap();
        let s = os.stats(0);
        assert_eq!(s.thp_demotions, 1);
        assert!(s.reclaims >= 1);
        assert!(os.is_resident(0, VirtAddr::new(1 << 32)));
    }

    #[test]
    fn shootdowns_queue_ipis_for_other_cores() {
        let mut mem = sys(2);
        let mut os = os(1.0, 2);
        // Core 0 promotes a region -> broadcast -> core 1 owes an IPI.
        os.before_access(&mut mem, 0, VirtAddr::new(3 << 21), 0)
            .unwrap();
        assert_eq!(os.stats(0).shootdowns, 1);
        assert_eq!(os.stats(1).ipis_received, 0);
        // Core 1's next access pays the IPI on top of its own fault
        // (and, at thp=1.0, its own first-touch collapse).
        let c = os
            .before_access(&mut mem, 1, VirtAddr::new(0x9000), 5)
            .unwrap();
        assert_eq!(
            c,
            os.config().ipi_cycles + os.config().minor_fault_cycles + os.config().promote_cycles
        );
        assert_eq!(os.stats(1).ipis_received, 1);
    }

    #[test]
    fn reset_stats_keeps_residency() {
        let mut mem = sys(1);
        let mut os = os(0.0, 1);
        let va = VirtAddr::new(0xabc0_0000);
        os.before_access(&mut mem, 0, va, 0).unwrap();
        os.reset_stats();
        assert_eq!(os.stats(0), OsStats::default());
        assert!(os.is_resident(0, va));
        assert_eq!(os.before_access(&mut mem, 0, va, 1).unwrap(), 0);
    }

    #[test]
    fn total_stats_accumulates_cores() {
        let mut mem = sys(2);
        let mut os = os(0.0, 2);
        os.before_access(&mut mem, 0, VirtAddr::new(0x1000), 0)
            .unwrap();
        os.before_access(&mut mem, 1, VirtAddr::new(0x2000), 0)
            .unwrap();
        assert_eq!(os.total_stats().minor_faults, 2);
    }
}
