//! Translation Lookaside Buffers.
//!
//! The hierarchy follows Table IV: a small first-level data TLB (dTLB) and
//! instruction TLB (iTLB), backed by a shared last-level TLB (sTLB). Entries
//! are page-size aware (4 KB / 2 MB) — a lookup probes both granularities
//! (the 2 MB set only once the TLB has held a 2 MB entry), matching the
//! paper's §V-B6 large-page methodology. Translations brought
//! in by page-cross prefetch walks are installed in both dTLB and sTLB
//! ("translations brought by page-cross prefetches are stored in both dTLB
//! and sTLB structures", §II-C).

use crate::config::TlbConfig;
use crate::lru::LruArray;
use pagecross_types::{PageSize, TlbStats, VirtAddr};

/// One translation: virtual page -> physical frame at a given page size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Translation {
    /// Virtual page number at the granularity of `size`.
    pub vpn: u64,
    /// Physical frame number at the granularity of `size`.
    pub pfn: u64,
    /// Page size of the mapping.
    pub size: PageSize,
}

impl Translation {
    /// Translates a virtual address under this mapping.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `va` does not lie on this page.
    pub fn apply(&self, va: VirtAddr) -> u64 {
        let shift = self.size.shift();
        debug_assert_eq!(
            va.raw() >> shift,
            self.vpn,
            "address not covered by translation"
        );
        (self.pfn << shift) | (va.raw() & (self.size.bytes() - 1))
    }
}

/// The array tag of a translation of `vpn` at `size`: the VPN over a
/// 2 MB bit. VPNs are below 2^52, so the shift loses nothing.
#[inline]
const fn tag(vpn: u64, size: PageSize) -> u64 {
    vpn << 1 | matches!(size, PageSize::Huge2M) as u64
}

/// The VPN and page size of the array tag `tag`.
#[inline]
const fn untag(tag: u64) -> (u64, PageSize) {
    let size = if tag & 1 != 0 {
        PageSize::Huge2M
    } else {
        PageSize::Base4K
    };
    (tag >> 1, size)
}

/// A set-associative, page-size-aware TLB.
///
/// The crate's set-associative LRU array holds `vpn << 1 | is_2m` tags
/// (the set is a VPN's low bits); a third column beside its keys and
/// stamps holds each entry's frame.
#[derive(Clone, Debug)]
pub struct Tlb {
    lru: LruArray,
    pfn: Vec<u64>,
    /// Whether a 2 MB translation was ever installed. Until then a probe
    /// skips the 2 MB set: it cannot hit.
    holds_huge: bool,
    /// Aggregate statistics.
    pub stats: TlbStats,
}

impl Tlb {
    /// Builds a TLB from a [`TlbConfig`].
    ///
    /// # Panics
    ///
    /// Panics if the configured set count is not a power of two.
    pub fn new(name: &'static str, cfg: TlbConfig) -> Self {
        let sets = cfg.sets() as u64;
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "{name}: TLB sets must be a power of two"
        );
        let lru = LruArray::new(sets, cfg.ways as usize);
        Self {
            pfn: vec![0; lru.len()],
            lru,
            holds_huge: false,
            stats: TlbStats::default(),
        }
    }

    /// The index of the entry for `vpn` at `size`, if resident.
    #[inline]
    fn position(&self, vpn: u64, size: PageSize) -> Option<usize> {
        self.lru.find(vpn, tag(vpn, size))
    }

    /// The index of the entry translating `va`: the 4 KB set first, then
    /// (once a 2 MB entry was ever installed) the 2 MB set.
    #[inline]
    fn position_of(&self, va: VirtAddr) -> Option<usize> {
        let hit = self.position(va.raw() >> PageSize::Base4K.shift(), PageSize::Base4K);
        if hit.is_some() || !self.holds_huge {
            return hit;
        }
        self.position(va.raw() >> PageSize::Huge2M.shift(), PageSize::Huge2M)
    }

    #[inline]
    fn find(&mut self, va: VirtAddr) -> Option<Translation> {
        let i = self.position_of(va)?;
        self.lru.touch(i);
        let (vpn, size) = untag(self.lru.tag(i));
        Some(Translation {
            vpn,
            pfn: self.pfn[i],
            size,
        })
    }

    /// Demand lookup: counts toward demand accesses/misses and updates LRU.
    #[inline]
    pub fn lookup(&mut self, va: VirtAddr) -> Option<Translation> {
        self.stats.accesses += 1;
        let t = self.find(va);
        if t.is_none() {
            self.stats.misses += 1;
        }
        t
    }

    /// Prefetch-side probe: counted separately, still updates LRU on hit
    /// (the hardware port is shared).
    #[inline]
    pub fn prefetch_probe(&mut self, va: VirtAddr) -> Option<Translation> {
        self.stats.prefetch_probes += 1;
        let t = self.find(va);
        if t.is_none() {
            self.stats.prefetch_probe_misses += 1;
        }
        t
    }

    /// Checks presence without LRU or statistics side effects.
    pub fn peek(&self, va: VirtAddr) -> bool {
        self.position_of(va).is_some()
    }

    /// Installs a translation (LRU replacement within its set); a
    /// resident entry is refreshed in place. Setting `from_prefetch`
    /// attributes the fill to a page-cross prefetch walk.
    pub fn fill(&mut self, t: Translation, from_prefetch: bool) {
        if from_prefetch {
            self.stats.prefetch_fills += 1;
        }
        self.holds_huge |= t.size == PageSize::Huge2M;
        let i = self.lru.place(t.vpn, tag(t.vpn, t.size)).index();
        self.pfn[i] = t.pfn;
    }

    /// Number of valid entries.
    pub fn occupancy(&self) -> usize {
        self.lru.occupancy()
    }

    /// Invalidates the entry for `vpn` at `size` (a shootdown of a single
    /// page). Returns whether an entry was dropped.
    pub fn invalidate_page(&mut self, vpn: u64, size: PageSize) -> bool {
        let Some(i) = self.position(vpn, size) else {
            return false;
        };
        self.lru.invalidate(i);
        true
    }

    /// Invalidates every entry covering the aligned 2 MB region `vpn2m`:
    /// the 2 MB entry itself and all 4 KB entries inside it (a shootdown
    /// after THP promotion/demotion). Returns the number of entries dropped.
    pub fn invalidate_region(&mut self, vpn2m: u64) -> u32 {
        self.lru.invalidate_where(|tag| match untag(tag) {
            (vpn, PageSize::Base4K) => {
                vpn >> (PageSize::Huge2M.shift() - PageSize::Base4K.shift()) == vpn2m
            }
            (vpn, PageSize::Huge2M) => vpn == vpn2m,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Tlb {
        Tlb::new(
            "tiny",
            TlbConfig {
                entries: 8,
                ways: 2,
                latency: 1,
            },
        )
    }

    fn map4k(vpn: u64, pfn: u64) -> Translation {
        Translation {
            vpn,
            pfn,
            size: PageSize::Base4K,
        }
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut t = tiny();
        let va = VirtAddr::new(0x5000);
        assert!(t.lookup(va).is_none());
        t.fill(map4k(5, 99), false);
        let tr = t.lookup(va).unwrap();
        assert_eq!(tr.pfn, 99);
        assert_eq!(t.stats.accesses, 2);
        assert_eq!(t.stats.misses, 1);
    }

    #[test]
    fn translation_apply_4k() {
        let tr = map4k(5, 99);
        assert_eq!(tr.apply(VirtAddr::new(0x5123)), (99 << 12) | 0x123);
    }

    #[test]
    fn translation_apply_2m() {
        let tr = Translation {
            vpn: 3,
            pfn: 7,
            size: PageSize::Huge2M,
        };
        let va = VirtAddr::new((3 << 21) | 0x12345);
        assert_eq!(tr.apply(va), (7 << 21) | 0x12345);
    }

    #[test]
    fn huge_page_hit() {
        let mut t = tiny();
        t.fill(
            Translation {
                vpn: 2,
                pfn: 11,
                size: PageSize::Huge2M,
            },
            false,
        );
        // Any 4K page inside huge page 2 must hit.
        let va = VirtAddr::new((2u64 << 21) + 0x3000);
        let tr = t.lookup(va).unwrap();
        assert_eq!(tr.size, PageSize::Huge2M);
        assert_eq!(tr.pfn, 11);
    }

    #[test]
    fn lru_replacement_within_set() {
        let mut t = tiny(); // 4 sets x 2 ways
                            // VPNs 0, 4, 8 share set 0.
        t.fill(map4k(0, 1), false);
        t.fill(map4k(4, 2), false);
        t.lookup(VirtAddr::new(0)); // touch vpn 0 -> vpn 4 is LRU
        t.fill(map4k(8, 3), false);
        assert!(t.peek(VirtAddr::new(0)));
        assert!(!t.peek(VirtAddr::new(4 << 12)));
        assert!(t.peek(VirtAddr::new(8 << 12)));
    }

    #[test]
    fn prefetch_probe_counted_separately() {
        let mut t = tiny();
        t.prefetch_probe(VirtAddr::new(0x9000));
        assert_eq!(t.stats.accesses, 0);
        assert_eq!(t.stats.prefetch_probes, 1);
        assert_eq!(t.stats.prefetch_probe_misses, 1);
    }

    #[test]
    fn prefetch_fill_attributed() {
        let mut t = tiny();
        t.fill(map4k(1, 1), true);
        assert_eq!(t.stats.prefetch_fills, 1);
    }

    #[test]
    fn refill_refreshes_not_duplicates() {
        let mut t = tiny();
        t.fill(map4k(1, 1), false);
        t.fill(map4k(1, 2), false);
        assert_eq!(t.occupancy(), 1);
        assert_eq!(t.lookup(VirtAddr::new(0x1000)).unwrap().pfn, 2);
    }

    #[test]
    fn invalidate_page_drops_only_the_match() {
        let mut t = tiny();
        t.fill(map4k(5, 99), false);
        t.fill(map4k(6, 98), false);
        assert!(t.invalidate_page(5, PageSize::Base4K));
        assert!(!t.invalidate_page(5, PageSize::Base4K), "already gone");
        assert!(!t.peek(VirtAddr::new(5 << 12)));
        assert!(t.peek(VirtAddr::new(6 << 12)));
    }

    #[test]
    fn invalidate_region_drops_both_granularities() {
        let mut t = tiny();
        // Two 4K pages inside region 2, the huge entry for region 2, and a
        // 4K page outside it.
        t.fill(map4k((2 << 9) + 3, 1), false);
        t.fill(map4k((2 << 9) + 7, 2), false);
        t.fill(
            Translation {
                vpn: 2,
                pfn: 11,
                size: PageSize::Huge2M,
            },
            false,
        );
        t.fill(map4k(1, 3), false);
        assert_eq!(t.invalidate_region(2), 3);
        assert!(!t.peek(VirtAddr::new(((2u64 << 9) + 3) << 12)));
        assert!(!t.peek(VirtAddr::new(2u64 << 21)));
        assert!(t.peek(VirtAddr::new(1 << 12)));
    }

    #[test]
    fn peek_has_no_side_effects() {
        let mut t = tiny();
        t.fill(map4k(1, 1), false);
        let before = t.stats;
        assert!(t.peek(VirtAddr::new(0x1000)));
        assert!(!t.peek(VirtAddr::new(0x2000)));
        assert_eq!(t.stats, before);
    }
}
