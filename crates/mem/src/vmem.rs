//! Virtual-memory model: on-demand VPN→PFN mapping with 4 KB and 2 MB pages.
//!
//! Physical frames are handed out by a [`FrameAllocator`] shared by every
//! core (so multi-core mixes contend for the same physical space, as in
//! ChampSim), with deterministic pseudo-random placement so that virtual
//! contiguity does *not* imply physical contiguity — the property that makes
//! page-cross prefetching in the virtual space interesting in the first
//! place (§II-A1).
//!
//! The physical space is partitioned to keep the model simple and
//! collision-free: the lower region holds 4 KB data frames, a middle region
//! holds 2 MB data frames, and the top region holds page-table node frames.
//! Within each region, every core owns a disjoint slice with its own RNG
//! stream, so an address space's frame assignment depends only on
//! `(seed, core, its own touch order)` — never on how accesses from
//! different mix cores interleave. Occupancy is a dense bitmap per slice
//! (one bit per frame), so each random draw costs a bit test. Exhaustion
//! surfaces as a typed [`OomError`] instead of a panic, so callers (the
//! campaign runner, or the OS reclamation layer in `pagecross-os`) can
//! handle it.

use pagecross_types::{FastMap, PageSize, Rng64, VirtAddr, HUGE_PAGE_SHIFT_2M, PAGE_SHIFT_4K};
use std::fmt;

use crate::tlb::Translation;

/// Decides which virtual regions are backed by 2 MB pages, following the
/// methodology of "Page Size Aware Cache Prefetching" (MICRO'22, the paper’s reference \[89\]) where
/// a fraction of eligible regions is promoted to large pages.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum HugePagePolicy {
    /// All mappings use 4 KB pages (the paper's main campaign).
    #[default]
    None,
    /// Each aligned 2 MB virtual region is independently promoted to a huge
    /// page with this probability (deterministic per region given the seed).
    Fraction(f64),
    /// All mappings use 2 MB pages.
    All,
}

/// Physical-frame exhaustion, surfaced as a typed error instead of a panic
/// so a campaign records the cell as failed (or the OS layer reclaims a
/// frame) rather than aborting the worker thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OomError {
    /// The 4 KB data-frame pool is exhausted.
    Frames4K,
    /// The 2 MB data-frame pool is exhausted.
    Frames2M,
}

impl fmt::Display for OomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OomError::Frames4K => write!(f, "out of 4KB physical frames"),
            OomError::Frames2M => write!(f, "out of 2MB physical frames"),
        }
    }
}

impl std::error::Error for OomError {}

/// Occupancy of one core's slice of a data-frame region: one bit per
/// frame, indexed by offset from the slice base, plus the set-bit count.
#[derive(Clone, Debug)]
struct FramePool {
    bits: Vec<u64>,
    used: u64,
}

impl FramePool {
    fn new(frames: u64) -> Self {
        Self {
            bits: vec![0; frames.div_ceil(64) as usize],
            used: 0,
        }
    }

    /// Marks offset `off` used; returns false if it already was.
    #[inline]
    fn insert(&mut self, off: u64) -> bool {
        let (word, mask) = (&mut self.bits[(off / 64) as usize], 1u64 << (off % 64));
        if *word & mask != 0 {
            return false;
        }
        *word |= mask;
        self.used += 1;
        true
    }

    /// Marks offset `off` free; returns false if it was not in use.
    fn remove(&mut self, off: u64) -> bool {
        let mask = 1u64 << (off % 64);
        match self.bits.get_mut((off / 64) as usize) {
            Some(word) if *word & mask != 0 => {
                *word &= !mask;
                self.used -= 1;
                true
            }
            _ => false,
        }
    }
}

/// One core's private allocation context: its own RNG stream and its own
/// occupancy within its slice of each physical region.
#[derive(Clone, Debug)]
struct CoreFrames {
    rng: Rng64,
    used_4k: FramePool,
    used_2m: FramePool,
    next_pt: u64,
}

/// Shared physical-frame allocator, partitioned per core.
#[derive(Clone, Debug)]
pub struct FrameAllocator {
    total_4k_frames: u64,
    huge_region_base: u64,
    huge_frames: u64,
    pt_region_base: u64,
    pt_frames: u64,
    slice_4k: u64,
    slice_2m: u64,
    slice_pt: u64,
    per_core: Vec<CoreFrames>,
}

impl FrameAllocator {
    /// Creates a single-core allocator over `capacity_bytes` of physical
    /// memory.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is smaller than 64 MB (too small to partition).
    pub fn new(capacity_bytes: u64, seed: u64) -> Self {
        Self::with_cores(capacity_bytes, seed, 1)
    }

    /// Creates an allocator whose 4 KB / 2 MB / page-table regions are each
    /// split into `n_cores` disjoint per-core slices. Core 0 of a one-core
    /// allocator behaves bit-identically to the historical shared allocator.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is smaller than 64 MB or `n_cores` is zero.
    pub fn with_cores(capacity_bytes: u64, seed: u64, n_cores: u32) -> Self {
        assert!(capacity_bytes >= 64 << 20, "physical memory too small");
        assert!(n_cores > 0, "allocator needs at least one core");
        let total_frames = capacity_bytes >> PAGE_SHIFT_4K;
        // 1/2 for 4K data, 3/8 for 2M data, 1/8 for page-table nodes.
        let base_4k_frames = total_frames / 2;
        let huge_region_base = base_4k_frames;
        let huge_bytes = capacity_bytes * 3 / 8;
        let huge_frames = huge_bytes >> HUGE_PAGE_SHIFT_2M;
        let pt_region_base = total_frames - total_frames / 8;
        let pt_frames = total_frames - pt_region_base;
        let n = n_cores as u64;
        let (slice_4k, slice_2m, slice_pt) = (base_4k_frames / n, huge_frames / n, pt_frames / n);
        let per_core = (0..n)
            .map(|i| CoreFrames {
                rng: Rng64::new(seed ^ 0x5EED_F4A3 ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                used_4k: FramePool::new(slice_4k),
                used_2m: FramePool::new(slice_2m),
                next_pt: pt_region_base + i * slice_pt,
            })
            .collect();
        Self {
            total_4k_frames: base_4k_frames,
            huge_region_base,
            huge_frames,
            pt_region_base,
            pt_frames,
            slice_4k,
            slice_2m,
            slice_pt,
            per_core,
        }
    }

    /// Total 4 KB data frames across all cores.
    pub fn total_4k_frames(&self) -> u64 {
        self.total_4k_frames
    }

    /// Total 2 MB data frames across all cores.
    pub fn total_2m_frames(&self) -> u64 {
        self.huge_frames
    }

    /// First 4 KB frame number of the 2 MB data region.
    pub fn huge_region_base(&self) -> u64 {
        self.huge_region_base
    }

    /// First frame number of the page-table node region.
    pub fn pt_region_base(&self) -> u64 {
        self.pt_region_base
    }

    /// First 2 MB frame number of the huge region.
    fn base_2m(&self) -> u64 {
        self.huge_region_base >> (HUGE_PAGE_SHIFT_2M - PAGE_SHIFT_4K)
    }

    /// Draws uniformly from `[0, slice)` until a free offset comes up,
    /// marks it used and returns it. One draw per iteration, stopping at the
    /// first free offset: the frame chosen and the number of draws consumed
    /// fix every later physical address, so this loop is part of the
    /// simulated behaviour and must not shortcut to a known free frame.
    fn draw(rng: &mut Rng64, pool: &mut FramePool, slice: u64) -> Option<u64> {
        if pool.used >= slice {
            return None;
        }
        loop {
            let off = rng.below(slice);
            if pool.insert(off) {
                return Some(off);
            }
        }
    }

    /// Allocates a random free 4 KB frame from `core`'s slice.
    pub fn alloc_4k(&mut self, core: u32) -> Result<u64, OomError> {
        let base = core as u64 * self.slice_4k;
        let c = &mut self.per_core[core as usize];
        Self::draw(&mut c.rng, &mut c.used_4k, self.slice_4k)
            .map(|off| base + off)
            .ok_or(OomError::Frames4K)
    }

    /// Allocates a random free 2 MB frame from `core`'s slice; returns its
    /// 2 MB frame number.
    pub fn alloc_2m(&mut self, core: u32) -> Result<u64, OomError> {
        let base = self.base_2m() + core as u64 * self.slice_2m;
        let c = &mut self.per_core[core as usize];
        Self::draw(&mut c.rng, &mut c.used_2m, self.slice_2m)
            .map(|off| base + off)
            .ok_or(OomError::Frames2M)
    }

    /// Returns a 4 KB frame to the pool it was allocated from (reclamation).
    pub fn free_4k(&mut self, pfn: u64) {
        debug_assert!(pfn < self.total_4k_frames, "not a 4KB data frame");
        let owner = (pfn / self.slice_4k).min(self.per_core.len() as u64 - 1);
        let removed = self.per_core[owner as usize]
            .used_4k
            .remove(pfn - owner * self.slice_4k);
        debug_assert!(removed, "double free of 4KB frame {pfn}");
    }

    /// Returns a 2 MB frame to the pool it was allocated from (reclamation).
    pub fn free_2m(&mut self, pfn2m: u64) {
        let idx = pfn2m - self.base_2m();
        debug_assert!(idx < self.huge_frames, "not a 2MB data frame");
        let owner = (idx / self.slice_2m).min(self.per_core.len() as u64 - 1);
        let removed = self.per_core[owner as usize]
            .used_2m
            .remove(idx - owner * self.slice_2m);
        debug_assert!(removed, "double free of 2MB frame {pfn2m}");
    }

    /// Allocates a sequential page-table node frame (4 KB) from `core`'s
    /// slice of the page-table region.
    ///
    /// # Panics
    ///
    /// Panics if the core's page-table slice is exhausted (a configuration
    /// error: the region is sized for far more nodes than any workload
    /// touches).
    pub fn alloc_pt_node(&mut self, core: u32) -> u64 {
        let end = self.pt_region_base + (core as u64 + 1) * self.slice_pt;
        let c = &mut self.per_core[core as usize];
        assert!(c.next_pt < end, "out of page-table node frames");
        let f = c.next_pt;
        c.next_pt += 1;
        f
    }

    /// Frames handed out so far (diagnostics).
    pub fn allocated_frames(&self) -> u64 {
        self.per_core
            .iter()
            .enumerate()
            .map(|(i, c)| {
                c.used_4k.used
                    + c.used_2m.used
                    + (c.next_pt - (self.pt_region_base + i as u64 * self.slice_pt))
            })
            .sum()
    }

    /// Free 4 KB frames remaining in `core`'s slice.
    pub fn free_4k_frames(&self, core: u32) -> u64 {
        self.slice_4k - self.per_core[core as usize].used_4k.used
    }

    /// Free 2 MB frames remaining in `core`'s slice.
    pub fn free_2m_frames(&self, core: u32) -> u64 {
        self.slice_2m - self.per_core[core as usize].used_2m.used
    }

    /// Total page-table node frames across all cores (diagnostics).
    pub fn pt_frames(&self) -> u64 {
        self.pt_frames
    }
}

/// Per-address-space virtual memory: lazily maps pages on first touch.
#[derive(Clone, Debug)]
pub struct Vmem {
    policy: HugePagePolicy,
    core: u32,
    base_seed: u64,
    map_4k: FastMap<u64, u64>,
    map_2m: FastMap<u64, u64>,
    /// Cached promotion decision per 2 MB virtual region.
    region_is_huge: FastMap<u64, bool>,
}

impl Vmem {
    /// Creates a core-0 address space with the given huge-page policy.
    pub fn new(policy: HugePagePolicy, seed: u64) -> Self {
        Self::for_core(policy, seed, 0)
    }

    /// Creates an address space whose frames come from `core`'s slice of
    /// the shared allocator.
    pub fn for_core(policy: HugePagePolicy, seed: u64, core: u32) -> Self {
        Self {
            policy,
            core,
            base_seed: seed,
            map_4k: FastMap::default(),
            map_2m: FastMap::default(),
            region_is_huge: FastMap::default(),
        }
    }

    /// The huge-page policy in force.
    pub fn policy(&self) -> &HugePagePolicy {
        &self.policy
    }

    /// The core whose allocator slice backs this address space.
    pub fn core(&self) -> u32 {
        self.core
    }

    fn region_huge(&mut self, vpn2m: u64) -> bool {
        match self.policy {
            HugePagePolicy::None => false,
            HugePagePolicy::All => true,
            HugePagePolicy::Fraction(p) => {
                // The decision is a pure function of (seed, region): it must
                // not depend on the order regions are first touched, so no
                // shared RNG stream is consumed here.
                let seed = self.base_seed;
                *self.region_is_huge.entry(vpn2m).or_insert_with(|| {
                    let mut r = Rng64::new(seed ^ 0x7A6E_5141 ^ vpn2m.rotate_left(17));
                    r.chance(p)
                })
            }
        }
    }

    /// Returns whether `va` already has a mapping (no allocation).
    pub fn is_mapped(&self, va: VirtAddr) -> bool {
        self.map_2m.contains_key(&va.page_2m().raw())
            || self.map_4k.contains_key(&va.page_4k().raw())
    }

    /// Returns the page size backing `va`, allocating the mapping on first
    /// touch. Use [`Vmem::translate`] to get the full translation.
    pub fn page_size(
        &mut self,
        va: VirtAddr,
        frames: &mut FrameAllocator,
    ) -> Result<PageSize, OomError> {
        Ok(self.translate(va, frames)?.size)
    }

    /// Translates `va`, allocating a frame on first touch.
    pub fn translate(
        &mut self,
        va: VirtAddr,
        frames: &mut FrameAllocator,
    ) -> Result<Translation, OomError> {
        let vpn2m = va.page_2m().raw();
        if let Some(&pfn) = self.map_2m.get(&vpn2m) {
            return Ok(Translation {
                vpn: vpn2m,
                pfn,
                size: PageSize::Huge2M,
            });
        }
        let vpn4k = va.page_4k().raw();
        if let Some(&pfn) = self.map_4k.get(&vpn4k) {
            return Ok(Translation {
                vpn: vpn4k,
                pfn,
                size: PageSize::Base4K,
            });
        }
        if self.region_huge(vpn2m) {
            let pfn = frames.alloc_2m(self.core)?;
            self.map_2m.insert(vpn2m, pfn);
            Ok(Translation {
                vpn: vpn2m,
                pfn,
                size: PageSize::Huge2M,
            })
        } else {
            let pfn = frames.alloc_4k(self.core)?;
            self.map_4k.insert(vpn4k, pfn);
            Ok(Translation {
                vpn: vpn4k,
                pfn,
                size: PageSize::Base4K,
            })
        }
    }

    /// Installs a 4 KB mapping chosen by an external policy layer (the OS).
    pub fn map_4k_at(&mut self, vpn4k: u64, pfn: u64) {
        debug_assert!(
            !self
                .map_2m
                .contains_key(&(vpn4k >> (HUGE_PAGE_SHIFT_2M - PAGE_SHIFT_4K))),
            "4KB mapping inside a huge-mapped region"
        );
        self.map_4k.insert(vpn4k, pfn);
    }

    /// Installs a 2 MB mapping chosen by an external policy layer (the OS).
    pub fn map_2m_at(&mut self, vpn2m: u64, pfn2m: u64) {
        self.map_2m.insert(vpn2m, pfn2m);
    }

    /// Removes a 4 KB mapping; returns the frame it occupied.
    pub fn unmap_4k(&mut self, vpn4k: u64) -> Option<u64> {
        self.map_4k.remove(&vpn4k)
    }

    /// Removes a 2 MB mapping; returns the 2 MB frame it occupied.
    pub fn unmap_2m(&mut self, vpn2m: u64) -> Option<u64> {
        self.map_2m.remove(&vpn2m)
    }

    /// Removes and returns every 4 KB mapping inside the aligned 2 MB
    /// region `vpn2m`, sorted by VPN (deterministic promotion order).
    pub fn take_region_4k(&mut self, vpn2m: u64) -> Vec<(u64, u64)> {
        let lo = vpn2m << (HUGE_PAGE_SHIFT_2M - PAGE_SHIFT_4K);
        let hi = lo + (1 << (HUGE_PAGE_SHIFT_2M - PAGE_SHIFT_4K));
        (lo..hi)
            .filter_map(|vpn| Some((vpn, self.map_4k.remove(&vpn)?)))
            .collect()
    }

    /// Number of mapped 4 KB pages.
    pub fn mapped_4k(&self) -> usize {
        self.map_4k.len()
    }

    /// Number of mapped 2 MB pages.
    pub fn mapped_2m(&self) -> usize {
        self.map_2m.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagecross_types::prop::{check, Config};
    use pagecross_types::{prop_assert, prop_assert_eq};
    use std::collections::HashSet;

    fn setup(policy: HugePagePolicy) -> (Vmem, FrameAllocator) {
        (Vmem::new(policy, 1), FrameAllocator::new(4u64 << 30, 2))
    }

    #[test]
    fn mapping_is_stable() {
        let (mut vm, mut fa) = setup(HugePagePolicy::None);
        let va = VirtAddr::new(0x1234_5678);
        let t1 = vm.translate(va, &mut fa).unwrap();
        let t2 = vm.translate(va, &mut fa).unwrap();
        assert_eq!(t1, t2);
        assert_eq!(vm.mapped_4k(), 1);
    }

    #[test]
    fn same_page_same_frame_different_pages_differ() {
        let (mut vm, mut fa) = setup(HugePagePolicy::None);
        let a = vm.translate(VirtAddr::new(0x1000), &mut fa).unwrap();
        let b = vm.translate(VirtAddr::new(0x1FFF), &mut fa).unwrap();
        let c = vm.translate(VirtAddr::new(0x2000), &mut fa).unwrap();
        assert_eq!(a.pfn, b.pfn);
        assert_ne!(a.pfn, c.pfn);
    }

    #[test]
    fn virtual_contiguity_not_physical() {
        let (mut vm, mut fa) = setup(HugePagePolicy::None);
        let mut contiguous = 0;
        let mut prev = vm.translate(VirtAddr::new(0), &mut fa).unwrap().pfn;
        for p in 1..64u64 {
            let pfn = vm.translate(VirtAddr::new(p << 12), &mut fa).unwrap().pfn;
            if pfn == prev + 1 {
                contiguous += 1;
            }
            prev = pfn;
        }
        assert!(
            contiguous < 8,
            "random placement should rarely be contiguous"
        );
    }

    #[test]
    fn all_huge_policy_maps_2m() {
        let (mut vm, mut fa) = setup(HugePagePolicy::All);
        let t = vm.translate(VirtAddr::new(0x40_0000), &mut fa).unwrap();
        assert_eq!(t.size, PageSize::Huge2M);
        assert_eq!(vm.mapped_2m(), 1);
        // A different 4K page inside the same 2M region reuses the mapping.
        let t2 = vm
            .translate(VirtAddr::new(0x40_0000 + 0x3000), &mut fa)
            .unwrap();
        assert_eq!(t2.pfn, t.pfn);
        assert_eq!(vm.mapped_2m(), 1);
    }

    #[test]
    fn fraction_policy_is_deterministic_per_region() {
        let (mut vm, mut fa) = setup(HugePagePolicy::Fraction(0.5));
        let va = VirtAddr::new(7 << 21);
        let s1 = vm.translate(va, &mut fa).unwrap().size;
        let s2 = vm.translate(va, &mut fa).unwrap().size;
        assert_eq!(s1, s2);
    }

    #[test]
    fn fraction_policy_mixes_sizes() {
        let (mut vm, mut fa) = setup(HugePagePolicy::Fraction(0.5));
        for r in 0..64u64 {
            vm.translate(VirtAddr::new(r << 21), &mut fa).unwrap();
        }
        assert!(vm.mapped_2m() > 0, "some regions must be huge");
        assert!(vm.mapped_4k() > 0, "some regions must be base pages");
    }

    /// Regression for the THP promotion decision: `Fraction` is a pure
    /// function of (seed, region), so two permuted first-touch orders over
    /// the same regions produce bit-identical page-size decisions.
    #[test]
    fn fraction_decisions_ignore_first_touch_order() {
        let regions: Vec<u64> = (0..32).collect();
        let mut permuted = regions.clone();
        permuted.reverse();
        permuted.swap(3, 17);
        permuted.swap(8, 25);

        let sizes_for = |order: &[u64]| -> Vec<(u64, PageSize)> {
            let mut vm = Vmem::new(HugePagePolicy::Fraction(0.5), 42);
            let mut fa = FrameAllocator::new(4u64 << 30, 7);
            let mut out: Vec<(u64, PageSize)> = order
                .iter()
                .map(|&r| {
                    let t = vm.translate(VirtAddr::new(r << 21), &mut fa).unwrap();
                    (r, t.size)
                })
                .collect();
            out.sort_unstable_by_key(|&(r, _)| r);
            out
        };

        assert_eq!(
            sizes_for(&regions),
            sizes_for(&permuted),
            "promotion decisions must depend only on (seed, region)"
        );
    }

    #[test]
    fn pt_nodes_are_sequential_and_disjoint_from_data() {
        let mut fa = FrameAllocator::new(4u64 << 30, 3);
        let n1 = fa.alloc_pt_node(0);
        let n2 = fa.alloc_pt_node(0);
        assert_eq!(n2, n1 + 1);
        let d = fa.alloc_4k(0).unwrap();
        assert!(d < n1, "data frames live below page-table frames");
    }

    #[test]
    fn huge_frames_disjoint_from_4k_frames() {
        let mut fa = FrameAllocator::new(4u64 << 30, 4);
        let pfn2m = fa.alloc_2m(0).unwrap();
        // The 2M frame expressed in 4K frame numbers starts above the 4K region.
        let as_4k = pfn2m << (HUGE_PAGE_SHIFT_2M - PAGE_SHIFT_4K);
        let limit_4k = (4u64 << 30 >> PAGE_SHIFT_4K) / 2;
        assert!(as_4k >= limit_4k);
    }

    #[test]
    fn is_mapped_reflects_touch() {
        let (mut vm, mut fa) = setup(HugePagePolicy::None);
        let va = VirtAddr::new(0x8000);
        assert!(!vm.is_mapped(va));
        vm.translate(va, &mut fa).unwrap();
        assert!(vm.is_mapped(va));
    }

    #[test]
    fn exhaustion_is_a_typed_error_not_a_panic() {
        // 64 MB → 8192 4K data frames in one core slice.
        let mut fa = FrameAllocator::new(64 << 20, 5);
        let total = fa.total_4k_frames();
        for _ in 0..total {
            fa.alloc_4k(0).unwrap();
        }
        assert_eq!(fa.alloc_4k(0), Err(OomError::Frames4K));
        let huge = fa.total_2m_frames();
        for _ in 0..huge {
            fa.alloc_2m(0).unwrap();
        }
        assert_eq!(fa.alloc_2m(0), Err(OomError::Frames2M));
        assert_eq!(OomError::Frames4K.to_string(), "out of 4KB physical frames");
        assert_eq!(OomError::Frames2M.to_string(), "out of 2MB physical frames");
    }

    #[test]
    fn free_makes_frames_reusable() {
        let mut fa = FrameAllocator::new(64 << 20, 9);
        let total = fa.total_4k_frames();
        let mut frames = Vec::new();
        for _ in 0..total {
            frames.push(fa.alloc_4k(0).unwrap());
        }
        assert_eq!(fa.free_4k_frames(0), 0);
        fa.free_4k(frames[10]);
        assert_eq!(fa.free_4k_frames(0), 1);
        assert_eq!(fa.alloc_4k(0).unwrap(), frames[10]);
        let f2m = fa.alloc_2m(0).unwrap();
        fa.free_2m(f2m);
        assert!(fa.free_2m_frames(0) == fa.total_2m_frames());
    }

    #[test]
    fn per_core_slices_are_disjoint() {
        let mut fa = FrameAllocator::with_cores(4u64 << 30, 6, 4);
        let mut seen = HashSet::new();
        for core in 0..4 {
            for _ in 0..256 {
                let pfn = fa.alloc_4k(core).unwrap();
                assert!(seen.insert(pfn), "4K frame collision across cores");
                assert!(pfn < fa.total_4k_frames());
            }
            let p2m = fa.alloc_2m(core).unwrap();
            assert!(seen.insert(u64::MAX - p2m), "2M frame collision");
            let pt = fa.alloc_pt_node(core);
            assert!(pt >= fa.pt_region_base());
            assert!(seen.insert(pt), "PT frame collision");
        }
    }

    #[test]
    fn single_core_allocator_matches_historical_stream() {
        // `new` and `with_cores(.., 1)` are the same allocator; core 0's
        // stream is the historical shared stream.
        let mut a = FrameAllocator::new(4u64 << 30, 77);
        let mut b = FrameAllocator::with_cores(4u64 << 30, 77, 1);
        for _ in 0..64 {
            assert_eq!(a.alloc_4k(0), b.alloc_4k(0));
        }
        assert_eq!(a.alloc_2m(0), b.alloc_2m(0));
    }

    #[test]
    fn os_mapping_primitives_roundtrip() {
        let (mut vm, mut fa) = setup(HugePagePolicy::None);
        let pfn = fa.alloc_4k(0).unwrap();
        vm.map_4k_at(0x40, pfn);
        assert!(vm.is_mapped(VirtAddr::new(0x40 << 12)));
        assert_eq!(vm.unmap_4k(0x40), Some(pfn));
        assert!(!vm.is_mapped(VirtAddr::new(0x40 << 12)));

        // Build a partially-resident region, then promote it.
        let region = 3u64;
        for i in [1u64, 5, 9] {
            let f = fa.alloc_4k(0).unwrap();
            vm.map_4k_at((region << 9) + i, f);
        }
        let taken = vm.take_region_4k(region);
        assert_eq!(taken.len(), 3);
        assert!(taken.windows(2).all(|w| w[0].0 < w[1].0), "sorted by VPN");
        assert_eq!(vm.mapped_4k(), 0);
        let f2m = fa.alloc_2m(0).unwrap();
        vm.map_2m_at(region, f2m);
        let t = vm
            .translate(VirtAddr::new((region << 21) + 0x3000), &mut fa)
            .unwrap();
        assert_eq!(t.size, PageSize::Huge2M);
        assert_eq!(t.pfn, f2m);
        assert_eq!(vm.unmap_2m(region), Some(f2m));
    }

    /// The allocator as it was before the bitmap pools: per-core `HashSet`
    /// occupancy keyed by absolute frame number, the same draw loop and the
    /// same layout. The bitmap allocator must reproduce it draw for draw.
    struct ReferenceAllocator {
        slice_4k: u64,
        slice_2m: u64,
        base_2m: u64,
        pt_base: u64,
        slice_pt: u64,
        rng: Vec<Rng64>,
        used_4k: Vec<HashSet<u64>>,
        used_2m: Vec<HashSet<u64>>,
        next_pt: Vec<u64>,
    }

    impl ReferenceAllocator {
        fn new(capacity_bytes: u64, seed: u64, n_cores: u32) -> Self {
            let total = capacity_bytes >> PAGE_SHIFT_4K;
            let n = n_cores as u64;
            let pt_base = total - total / 8;
            let slice_pt = (total - pt_base) / n;
            Self {
                slice_4k: total / 2 / n,
                slice_2m: ((capacity_bytes * 3 / 8) >> HUGE_PAGE_SHIFT_2M) / n,
                base_2m: (total / 2) >> (HUGE_PAGE_SHIFT_2M - PAGE_SHIFT_4K),
                pt_base,
                slice_pt,
                rng: (0..n)
                    .map(|i| Rng64::new(seed ^ 0x5EED_F4A3 ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
                    .collect(),
                used_4k: vec![HashSet::new(); n as usize],
                used_2m: vec![HashSet::new(); n as usize],
                next_pt: (0..n).map(|i| pt_base + i * slice_pt).collect(),
            }
        }

        fn draw(rng: &mut Rng64, used: &mut HashSet<u64>, base: u64, slice: u64) -> Option<u64> {
            if used.len() as u64 >= slice {
                return None;
            }
            loop {
                let pfn = base + rng.below(slice);
                if used.insert(pfn) {
                    return Some(pfn);
                }
            }
        }

        fn alloc_4k(&mut self, core: u32) -> Result<u64, OomError> {
            let c = core as usize;
            let base = core as u64 * self.slice_4k;
            Self::draw(&mut self.rng[c], &mut self.used_4k[c], base, self.slice_4k)
                .ok_or(OomError::Frames4K)
        }

        fn alloc_2m(&mut self, core: u32) -> Result<u64, OomError> {
            let c = core as usize;
            let base = self.base_2m + core as u64 * self.slice_2m;
            Self::draw(&mut self.rng[c], &mut self.used_2m[c], base, self.slice_2m)
                .ok_or(OomError::Frames2M)
        }

        fn free_4k(&mut self, pfn: u64) {
            let owner = (pfn / self.slice_4k).min(self.used_4k.len() as u64 - 1);
            assert!(self.used_4k[owner as usize].remove(&pfn));
        }

        fn free_2m(&mut self, pfn2m: u64) {
            let owner = ((pfn2m - self.base_2m) / self.slice_2m).min(self.used_2m.len() as u64 - 1);
            assert!(self.used_2m[owner as usize].remove(&pfn2m));
        }

        fn alloc_pt_node(&mut self, core: u32) -> u64 {
            let f = self.next_pt[core as usize];
            self.next_pt[core as usize] += 1;
            f
        }

        fn allocated_frames(&self) -> u64 {
            let pt: u64 = (0..self.next_pt.len() as u64)
                .map(|i| self.next_pt[i as usize] - (self.pt_base + i * self.slice_pt))
                .sum();
            let data: usize = self
                .used_4k
                .iter()
                .chain(&self.used_2m)
                .map(HashSet::len)
                .sum();
            data as u64 + pt
        }
    }

    /// Machine shapes the differential test covers: (capacity, cores).
    const SHAPES: [(u64, u32); 6] = [
        (64 << 20, 1),
        (64 << 20, 2),
        (64 << 20, 8),
        (4 << 30, 1),
        (4 << 30, 2),
        (4 << 30, 8),
    ];

    /// Frees `held[i]` in both allocators.
    fn release(
        fa: &mut FrameAllocator,
        re: &mut ReferenceAllocator,
        held: &mut Vec<(bool, u64)>,
        i: usize,
    ) {
        let (huge, frame) = held.swap_remove(i);
        if huge {
            fa.free_2m(frame);
            re.free_2m(frame);
        } else {
            fa.free_4k(frame);
            re.free_4k(frame);
        }
    }

    /// Runs `ops` against both allocators and compares every result.
    /// An op is `(kind, arg)`: kinds 0–3 allocate a 4 KB frame, 4–5 a 2 MB
    /// frame, 6 a page-table node (core `arg % cores`), and 7–9 free the
    /// `arg`-th held frame. Then every pool the test can afford to fill is
    /// driven to exhaustion, a few frames are freed, and it is refilled.
    fn same_as_reference(shape: usize, seed: u64, ops: &[(u8, u64)]) -> Result<(), String> {
        let (capacity, cores) = SHAPES[shape % SHAPES.len()];
        let mut fa = FrameAllocator::with_cores(capacity, seed, cores);
        let mut re = ReferenceAllocator::new(capacity, seed, cores);
        let mut held: Vec<(bool, u64)> = Vec::new(); // (is_2m, frame)
        let check_counts = |fa: &FrameAllocator, re: &ReferenceAllocator| -> Result<(), String> {
            prop_assert_eq!(fa.allocated_frames(), re.allocated_frames());
            for core in 0..cores {
                let c = core as usize;
                prop_assert_eq!(
                    fa.free_4k_frames(core),
                    re.slice_4k - re.used_4k[c].len() as u64
                );
                prop_assert_eq!(
                    fa.free_2m_frames(core),
                    re.slice_2m - re.used_2m[c].len() as u64
                );
            }
            Ok(())
        };
        let mut allocs: Vec<(bool, u64)> = Vec::new();
        for &(kind, arg) in ops {
            let core = (arg % cores as u64) as u32;
            match kind % 10 {
                0..=3 => {
                    let (a, b) = (fa.alloc_4k(core), re.alloc_4k(core));
                    prop_assert_eq!(a, b, "alloc_4k(core {core})");
                    allocs.extend(a.ok().map(|f| (false, f)));
                }
                4 | 5 => {
                    let (a, b) = (fa.alloc_2m(core), re.alloc_2m(core));
                    prop_assert_eq!(a, b, "alloc_2m(core {core})");
                    allocs.extend(a.ok().map(|f| (true, f)));
                }
                6 => prop_assert_eq!(fa.alloc_pt_node(core), re.alloc_pt_node(core)),
                _ => {
                    held.append(&mut allocs);
                    if !held.is_empty() {
                        let i = (arg % held.len() as u64) as usize;
                        release(&mut fa, &mut re, &mut held, i);
                    }
                }
            }
            check_counts(&fa, &re)?;
        }
        held.append(&mut allocs);

        // Exhaust, free a few, refill: the refill draws land on exactly the
        // freed frames, after as many draws as the reference takes.
        // Filling a 4 GiB 4 KB pool would take ~7M reference draws.
        let fill_4k = capacity <= 64 << 20;
        let pools: &[bool] = if fill_4k { &[true, false] } else { &[true] };
        for round in 0..2 {
            for core in 0..cores {
                for &huge in pools {
                    loop {
                        let (a, b) = if huge {
                            (fa.alloc_2m(core), re.alloc_2m(core))
                        } else {
                            (fa.alloc_4k(core), re.alloc_4k(core))
                        };
                        prop_assert_eq!(a, b, "fill (huge {huge}, core {core}) round {round}");
                        match a {
                            Ok(f) => held.push((huge, f)),
                            Err(_) => break,
                        }
                    }
                }
                prop_assert_eq!(fa.free_2m_frames(core), 0);
                prop_assert!(!fill_4k || fa.free_4k_frames(core) == 0);
            }
            check_counts(&fa, &re)?;
            let mut pick = Rng64::new(seed ^ round);
            for _ in 0..held.len().min(16) {
                let i = pick.below(held.len() as u64) as usize;
                release(&mut fa, &mut re, &mut held, i);
            }
            check_counts(&fa, &re)?;
        }
        Ok(())
    }

    #[test]
    fn bitmap_allocator_matches_hashset_reference() {
        check(
            &Config::cases(36).seed(0xF4A3),
            |rng| {
                let n = rng.below(600) as usize;
                let ops: Vec<(u8, u64)> = (0..n)
                    .map(|_| (rng.below(10) as u8, rng.next_u64()))
                    .collect();
                (rng.below(SHAPES.len() as u64) as u8, rng.next_u64(), ops)
            },
            |(shape, seed, ops)| same_as_reference(*shape as usize, *seed, ops),
        );
    }

    #[test]
    fn bitmap_allocator_covers_every_shape() {
        let mut rng = Rng64::new(5);
        let ops: Vec<(u8, u64)> = (0..400)
            .map(|_| (rng.below(10) as u8, rng.next_u64()))
            .collect();
        for shape in 0..SHAPES.len() {
            same_as_reference(shape, 977, &ops).unwrap();
        }
    }

    #[test]
    fn take_region_4k_leaves_other_regions() {
        let (mut vm, mut fa) = setup(HugePagePolicy::None);
        for vpn in [511u64, 512, 700, 1023, 1024, 5000] {
            vm.map_4k_at(vpn, fa.alloc_4k(0).unwrap());
        }
        let taken: Vec<u64> = vm.take_region_4k(1).into_iter().map(|(v, _)| v).collect();
        assert_eq!(taken, vec![512, 700, 1023]);
        assert_eq!(vm.mapped_4k(), 3);
        assert!(vm.take_region_4k(1).is_empty());
    }
}
