//! 5-level radix page table, split page-structure caches, and the hardware
//! page-table walker.
//!
//! The walker models the three properties the paper's methodology calls out
//! (§IV): (i) the *variable latency* of walks — the number of memory
//! references depends on how deep the page-structure caches (PSCs) reach;
//! (ii) walk references go *through the cache hierarchy* (the walker emits a
//! [`WalkPlan`] of PTE physical addresses that [`crate::system::MemorySystem`]
//! plays through the caches, pointer-chased sequentially); and (iii) *cache
//! locality* in walks — adjacent virtual pages share PT nodes, so their PTEs
//! fall on the same cache lines.
//!
//! 2 MB mappings terminate at the PD level (one reference fewer), matching
//! x86.

use crate::config::PscConfig;
use crate::lru::LruArray;
use crate::tlb::Translation;
use crate::vmem::{FrameAllocator, OomError, Vmem};
use pagecross_types::{FastMap, PageSize, PhysAddr, VirtAddr, PAGE_SHIFT_4K};

/// Radix levels of the 5-level table, from root to leaf.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// PML5 (root).
    L5,
    /// PML4.
    L4,
    /// PDPT.
    L3,
    /// PD (leaf for 2 MB pages).
    L2,
    /// PT (leaf for 4 KB pages).
    L1,
}

impl Level {
    /// Bit position of this level's index within the virtual address.
    pub const fn shift(self) -> u32 {
        match self {
            Level::L5 => 48,
            Level::L4 => 39,
            Level::L3 => 30,
            Level::L2 => 21,
            Level::L1 => 12,
        }
    }

    /// 9-bit index for `va` at this level.
    pub fn index(self, va: VirtAddr) -> u64 {
        (va.raw() >> self.shift()) & 0x1FF
    }
}

/// A fully-associative, LRU page-structure cache for one radix level: one
/// set of `capacity` ways (at least one) keyed by the VA prefix above the
/// level.
#[derive(Clone, Debug)]
struct Psc(LruArray);

impl Psc {
    fn new(capacity: u32) -> Self {
        Self(LruArray::new(1, capacity.max(1) as usize))
    }

    fn lookup(&mut self, key: u64) -> bool {
        let Some(i) = self.0.find(0, key) else {
            return false;
        };
        self.0.touch(i);
        true
    }

    fn fill(&mut self, key: u64) {
        self.0.place(0, key);
    }

    /// Drops the entry for `key` (shootdown).
    fn invalidate(&mut self, key: u64) -> bool {
        let Some(i) = self.0.find(0, key) else {
            return false;
        };
        self.0.invalidate(i);
        true
    }
}

/// The PTE addresses of one walk, root-most first: at most one per radix
/// level, held inline so a walk allocates nothing. Reads as a slice; slots
/// past `len` stay zero, so the derived comparisons see only the walk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PteRefs {
    addrs: [PhysAddr; 5],
    len: u8,
}

impl PteRefs {
    fn push(&mut self, pte: PhysAddr) {
        self.addrs[self.len as usize] = pte;
        self.len += 1;
    }
}

impl std::ops::Deref for PteRefs {
    type Target = [PhysAddr];

    fn deref(&self) -> &[PhysAddr] {
        &self.addrs[..self.len as usize]
    }
}

impl<'a> IntoIterator for &'a PteRefs {
    type Item = &'a PhysAddr;
    type IntoIter = std::slice::Iter<'a, PhysAddr>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// The plan for one page walk: the PTE lines to reference (pointer-chased in
/// order), the resulting translation, and how many levels the PSCs skipped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalkPlan {
    /// Physical addresses of the PTEs to access, root-most first.
    pub refs: PteRefs,
    /// The translation produced by the walk.
    pub translation: Translation,
    /// Radix levels skipped thanks to PSC hits.
    pub levels_skipped: u32,
}

/// Per-address-space page table with walker state (PSCs + node directory).
#[derive(Clone, Debug)]
pub struct PageWalker {
    /// Core this walker's address space belongs to (selects the PT-node
    /// frame slice in the allocator).
    core: u32,
    /// Root (PML5) node frame.
    root_frame: u64,
    /// Interior node frames keyed by (level-below-the-node, va prefix).
    nodes: FastMap<(u8, u64), u64>,
    psc_l5: Psc,
    psc_l4: Psc,
    psc_l3: Psc,
    psc_l2: Psc,
}

impl PageWalker {
    /// Creates a core-0 walker with the given PSC geometry; allocates the
    /// root node.
    pub fn new(cfg: PscConfig, frames: &mut FrameAllocator) -> Self {
        Self::for_core(cfg, frames, 0)
    }

    /// Creates a walker whose PT nodes come from `core`'s frame slice.
    pub fn for_core(cfg: PscConfig, frames: &mut FrameAllocator, core: u32) -> Self {
        Self {
            core,
            root_frame: frames.alloc_pt_node(core),
            nodes: FastMap::default(),
            psc_l5: Psc::new(cfg.l5_entries),
            psc_l4: Psc::new(cfg.l4_entries),
            psc_l3: Psc::new(cfg.l3_entries),
            psc_l2: Psc::new(cfg.l2_entries),
        }
    }

    fn node_frame(&mut self, level: u8, prefix: u64, frames: &mut FrameAllocator) -> u64 {
        let core = self.core;
        *self
            .nodes
            .entry((level, prefix))
            .or_insert_with(|| frames.alloc_pt_node(core))
    }

    fn pte_addr(frame: u64, index: u64) -> PhysAddr {
        PhysAddr::new((frame << PAGE_SHIFT_4K) | (index * 8))
    }

    /// Performs a walk for `va`, consulting and updating the PSCs, and
    /// returns the ordered PTE references plus the final translation.
    ///
    /// The address-space mapping itself comes from `vmem` (allocated on
    /// first touch, so a speculative prefetch walk also materialises the
    /// mapping — the simulator equivalent of the OS having pre-populated the
    /// page table).
    pub fn walk(
        &mut self,
        va: VirtAddr,
        vmem: &mut Vmem,
        frames: &mut FrameAllocator,
    ) -> Result<WalkPlan, OomError> {
        let translation = vmem.translate(va, frames)?;
        let is_huge = translation.size == PageSize::Huge2M;

        let p5 = va.raw() >> Level::L5.shift(); // key for PSC-L5 (PML5E result)
        let p4 = va.raw() >> Level::L4.shift();
        let p3 = va.raw() >> Level::L3.shift();
        let p2 = va.raw() >> Level::L2.shift();

        // Deepest-first PSC probe; a hit at level k means levels >= k are
        // already resolved and the walk resumes below it.
        // For 4 KB pages the deepest useful PSC is L2 (points at the PT
        // node); for 2 MB pages the leaf is the PDE, so the deepest useful
        // PSC is L3 (points at the PD node).
        let mut refs = PteRefs::default();
        let mut skipped = 0u32;

        let start_level: u8 = if !is_huge && self.psc_l2.lookup(p2) {
            skipped = 4;
            1
        } else if self.psc_l3.lookup(p3) {
            skipped = 3;
            2
        } else if self.psc_l4.lookup(p4) {
            skipped = 2;
            3
        } else if self.psc_l5.lookup(p5) {
            skipped = 1;
            4
        } else {
            5
        };

        // Walk remaining levels, root-most first.
        if start_level >= 5 {
            refs.push(Self::pte_addr(self.root_frame, Level::L5.index(va)));
        }
        if start_level >= 4 {
            let f = self.node_frame(4, p5, frames);
            refs.push(Self::pte_addr(f, Level::L4.index(va)));
        }
        if start_level >= 3 {
            let f = self.node_frame(3, p4, frames);
            refs.push(Self::pte_addr(f, Level::L3.index(va)));
        }
        if start_level >= 2 {
            let f = self.node_frame(2, p3, frames);
            refs.push(Self::pte_addr(f, Level::L2.index(va)));
        }
        if !is_huge && start_level >= 1 {
            let f = self.node_frame(1, p2, frames);
            refs.push(Self::pte_addr(f, Level::L1.index(va)));
        }

        // Fill the PSCs for every level the walk resolved.
        self.psc_l5.fill(p5);
        self.psc_l4.fill(p4);
        self.psc_l3.fill(p3);
        if !is_huge {
            self.psc_l2.fill(p2);
        }

        Ok(WalkPlan {
            refs,
            translation,
            levels_skipped: skipped,
        })
    }

    /// Shootdown of a single 4 KB page: conservatively drops the PSC-L2
    /// entry covering it (the cached PT-node pointer may now lead to a
    /// stale leaf). Returns whether an entry was dropped.
    pub fn invalidate_psc_page(&mut self, vpn4k: u64) -> bool {
        self.psc_l2.invalidate(vpn4k >> 9)
    }

    /// Shootdown of an aligned 2 MB region after THP promotion/demotion:
    /// drops the PSC-L2 entry for the region and, conservatively, the
    /// PSC-L3 entry above it (the PD leaf changed shape). Returns the
    /// number of entries dropped.
    pub fn invalidate_psc_region(&mut self, vpn2m: u64) -> u32 {
        u32::from(self.psc_l2.invalidate(vpn2m)) + u32::from(self.psc_l3.invalidate(vpn2m >> 9))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vmem::HugePagePolicy;

    fn setup() -> (PageWalker, Vmem, FrameAllocator) {
        let mut fa = FrameAllocator::new(4u64 << 30, 7);
        let w = PageWalker::new(
            PscConfig {
                l5_entries: 1,
                l4_entries: 2,
                l3_entries: 8,
                l2_entries: 32,
            },
            &mut fa,
        );
        (w, Vmem::new(HugePagePolicy::None, 9), fa)
    }

    #[test]
    fn cold_walk_references_five_levels() {
        let (mut w, mut vm, mut fa) = setup();
        let plan = w
            .walk(VirtAddr::new(0x7000_1234), &mut vm, &mut fa)
            .unwrap();
        assert_eq!(plan.refs.len(), 5);
        assert_eq!(plan.levels_skipped, 0);
        assert_eq!(plan.translation.size, PageSize::Base4K);
    }

    #[test]
    fn warm_walk_hits_psc_l2_single_reference() {
        let (mut w, mut vm, mut fa) = setup();
        let a = VirtAddr::new(0x7000_1000);
        let b = VirtAddr::new(0x7000_2000); // same PT node (same 2MB region)
        w.walk(a, &mut vm, &mut fa).unwrap();
        let plan = w.walk(b, &mut vm, &mut fa).unwrap();
        assert_eq!(
            plan.refs.len(),
            1,
            "PSC-L2 hit leaves only the PT reference"
        );
        assert_eq!(plan.levels_skipped, 4);
    }

    #[test]
    fn adjacent_pages_share_pte_cache_line() {
        let (mut w, mut vm, mut fa) = setup();
        let a = w
            .walk(VirtAddr::new(0x7000_0000), &mut vm, &mut fa)
            .unwrap();
        let b = w
            .walk(VirtAddr::new(0x7000_1000), &mut vm, &mut fa)
            .unwrap();
        let pte_a = *a.refs.last().unwrap();
        let pte_b = *b.refs.last().unwrap();
        assert_eq!(pte_a.line(), pte_b.line(), "adjacent PTEs share a 64B line");
        assert_ne!(pte_a, pte_b);
    }

    #[test]
    fn distant_region_misses_deep_psc() {
        let (mut w, mut vm, mut fa) = setup();
        w.walk(VirtAddr::new(0x7000_1000), &mut vm, &mut fa)
            .unwrap();
        // Different 1GB region: PSC-L2/L3 miss, PSC-L4 should hit.
        let plan = w
            .walk(VirtAddr::new(0x40_7000_1000), &mut vm, &mut fa)
            .unwrap();
        assert_eq!(plan.refs.len(), 3, "PSC-L4 hit walks PDPT, PD, PT");
    }

    #[test]
    fn huge_page_walk_terminates_at_pd() {
        let mut fa = FrameAllocator::new(4u64 << 30, 7);
        let mut w = PageWalker::new(
            PscConfig {
                l5_entries: 1,
                l4_entries: 2,
                l3_entries: 8,
                l2_entries: 32,
            },
            &mut fa,
        );
        let mut vm = Vmem::new(HugePagePolicy::All, 9);
        let plan = w
            .walk(VirtAddr::new(0x7000_1234), &mut vm, &mut fa)
            .unwrap();
        assert_eq!(plan.refs.len(), 4, "2MB walk: PML5, PML4, PDPT, PD");
        assert_eq!(plan.translation.size, PageSize::Huge2M);
        // Second walk in the same region: PSC-L3 hit -> single PD reference.
        let plan2 = w
            .walk(VirtAddr::new(0x7000_1234 + 0x3000), &mut vm, &mut fa)
            .unwrap();
        assert_eq!(plan2.refs.len(), 1);
    }

    #[test]
    fn translation_matches_vmem() {
        let (mut w, mut vm, mut fa) = setup();
        let va = VirtAddr::new(0x1234_5678);
        let plan = w.walk(va, &mut vm, &mut fa).unwrap();
        let direct = vm.translate(va, &mut fa).unwrap();
        assert_eq!(plan.translation, direct);
    }

    #[test]
    fn level_indices() {
        let va = VirtAddr::new(
            (3u64 << 48) | (5u64 << 39) | (7u64 << 30) | (9u64 << 21) | (11u64 << 12),
        );
        assert_eq!(Level::L5.index(va), 3);
        assert_eq!(Level::L4.index(va), 5);
        assert_eq!(Level::L3.index(va), 7);
        assert_eq!(Level::L2.index(va), 9);
        assert_eq!(Level::L1.index(va), 11);
    }

    #[test]
    fn psc_hit_counter_increases() {
        let (mut w, mut vm, mut fa) = setup();
        let cold = w.walk(VirtAddr::new(0x1000), &mut vm, &mut fa).unwrap();
        let warm = w.walk(VirtAddr::new(0x2000), &mut vm, &mut fa).unwrap();
        assert!(warm.levels_skipped > cold.levels_skipped);
    }

    /// The list PSC the set-associative array replaced: a `Vec` of
    /// `(key, lru)` pairs, appended while below capacity, LRU-replaced when
    /// full, `swap_remove`d on invalidation.
    struct RefPsc {
        entries: Vec<(u64, u64)>,
        capacity: usize,
        tick: u64,
    }

    impl RefPsc {
        fn new(capacity: u32) -> Self {
            Self {
                entries: Vec::new(),
                capacity: capacity.max(1) as usize,
                tick: 0,
            }
        }

        fn lookup(&mut self, key: u64) -> bool {
            self.tick += 1;
            let tick = self.tick;
            match self.entries.iter_mut().find(|(k, _)| *k == key) {
                Some(e) => {
                    e.1 = tick;
                    true
                }
                None => false,
            }
        }

        fn fill(&mut self, key: u64) {
            self.tick += 1;
            let tick = self.tick;
            if let Some(e) = self.entries.iter_mut().find(|(k, _)| *k == key) {
                e.1 = tick;
                return;
            }
            if self.entries.len() < self.capacity {
                self.entries.push((key, tick));
            } else if let Some(victim) = self.entries.iter_mut().min_by_key(|(_, lru)| *lru) {
                *victim = (key, tick);
            }
        }

        fn invalidate(&mut self, key: u64) -> bool {
            match self.entries.iter().position(|(k, _)| *k == key) {
                Some(i) => {
                    self.entries.swap_remove(i);
                    true
                }
                None => false,
            }
        }
    }

    #[test]
    fn psc_matches_reference_list() {
        for capacity in [1u32, 2, 8, 32] {
            for seed in 0..20 {
                let mut rng = pagecross_types::Rng64::new(seed * 131 + u64::from(capacity));
                let (mut psc, mut reference) = (Psc::new(capacity), RefPsc::new(capacity));
                let (mut hits, mut misses, mut dropped) = (0, 0, 0);
                // A universe a few keys wider than the PSC, key 0 included
                // (the PSC-L5 key of every address below 2^48).
                let universe = u64::from(capacity) + 3;
                for step in 0..2_000 {
                    let key = rng.below(universe);
                    match rng.below(10) {
                        0..=4 => {
                            let hit = psc.lookup(key);
                            assert_eq!(
                                hit,
                                reference.lookup(key),
                                "capacity {capacity} seed {seed} step {step}: lookup({key})"
                            );
                            if hit {
                                hits += 1;
                            } else {
                                misses += 1;
                            }
                        }
                        5..=8 => {
                            psc.fill(key);
                            reference.fill(key);
                        }
                        _ => {
                            let gone = psc.invalidate(key);
                            assert_eq!(
                                gone,
                                reference.invalidate(key),
                                "capacity {capacity} seed {seed} step {step}: invalidate({key})"
                            );
                            dropped += u32::from(gone);
                        }
                    }
                }
                assert!(hits > 0 && misses > 0 && dropped > 0, "capacity {capacity}");
            }
        }
    }

    #[test]
    fn psc_invalidation_forces_a_deeper_walk() {
        let (mut w, mut vm, mut fa) = setup();
        let va = VirtAddr::new(0x7000_1000);
        w.walk(va, &mut vm, &mut fa).unwrap();
        assert_eq!(
            w.walk(va, &mut vm, &mut fa).unwrap().refs.len(),
            1,
            "warm walk: PSC-L2 hit"
        );
        assert!(w.invalidate_psc_page(va.raw() >> PAGE_SHIFT_4K));
        assert_eq!(
            w.walk(va, &mut vm, &mut fa).unwrap().refs.len(),
            2,
            "PSC-L2 shot down, PSC-L3 still warm: PD + PT references"
        );
        assert_eq!(w.invalidate_psc_region(va.raw() >> Level::L2.shift()), 2);
        assert_eq!(
            w.walk(va, &mut vm, &mut fa).unwrap().refs.len(),
            3,
            "region shootdown drops PSC-L2 and PSC-L3: PDPT, PD, PT"
        );
    }
}
