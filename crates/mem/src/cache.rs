//! A set-associative cache with LRU replacement and per-block prefetch
//! metadata.
//!
//! The cache is purely *structural*: it answers hit/miss, installs fills and
//! reports evictions. Timing (latencies, MSHR merging, DRAM queuing) lives
//! in [`crate::system::MemorySystem`], which composes levels into the
//! Table IV hierarchy.
//!
//! Each block carries the paper's **Page-Cross Bit (PCB)** — "MOKA augments
//! each L1D block with an additional bit indicating whether the block has
//! been fetched in L1D by a page-cross prefetch or not" (§III-C2) — plus a
//! prefetched bit and a demand-hit counter so fill-side usefulness
//! (useful = served ≥ 1 demand hit before eviction) can be classified.

use crate::config::CacheConfig;
use pagecross_types::{CacheStats, LineAddr};

/// Provenance of a block fill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FillKind {
    /// Demand fill.
    Demand,
    /// Prefetch fill that stayed within the triggering page.
    PrefetchInPage,
    /// Prefetch fill that crossed a 4 KB page boundary (sets the PCB).
    PrefetchPageCross,
}

impl FillKind {
    /// True for either prefetch variant.
    #[inline]
    pub const fn is_prefetch(self) -> bool {
        !matches!(self, FillKind::Demand)
    }
}

#[derive(Clone, Copy, Debug)]
struct Block {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Fetched by a prefetch (any kind).
    prefetched: bool,
    /// Page-Cross Bit: fetched by a page-cross prefetch.
    pcb: bool,
    /// Demand hits served since fill.
    hits: u32,
    /// LRU timestamp.
    lru: u64,
}

impl Block {
    const INVALID: Block = Block {
        tag: 0,
        valid: false,
        dirty: false,
        prefetched: false,
        pcb: false,
        hits: 0,
        lru: 0,
    };
}

/// Description of a block evicted by a fill, delivered to the caller so
/// filter training (pUB negative training on useless PCB evictions) and
/// writeback accounting can run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Eviction {
    /// Line address of the evicted block.
    pub line: LineAddr,
    /// The evicted block was dirty.
    pub dirty: bool,
    /// The evicted block was brought in by a prefetch.
    pub prefetched: bool,
    /// The evicted block's Page-Cross Bit.
    pub pcb: bool,
    /// Demand hits the block served during its lifetime.
    pub hits: u32,
}

/// Result of a demand lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lookup {
    /// The line was present.
    pub hit: bool,
    /// On a hit: the block had been brought in by a prefetch and this is its
    /// first demand hit (the "promote prefetch to useful" event).
    pub first_hit_on_prefetch: bool,
    /// On a hit: the block's PCB (page-cross prefetched block).
    pub pcb: bool,
}

/// A set-associative, write-back, write-allocate cache with LRU replacement.
#[derive(Clone, Debug)]
pub struct Cache {
    name: &'static str,
    sets: u64,
    ways: usize,
    blocks: Vec<Block>,
    tick: u64,
    /// Aggregate statistics (demand/prefetch split).
    pub stats: CacheStats,
}

impl Cache {
    /// Builds a cache from a [`CacheConfig`].
    ///
    /// # Panics
    ///
    /// Panics if the configured set count is not a power of two or is zero.
    pub fn new(name: &'static str, cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "{name}: set count must be a power of two"
        );
        Self {
            name,
            sets,
            ways: cfg.ways as usize,
            blocks: vec![Block::INVALID; (sets * cfg.ways as u64) as usize],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Cache name (for reports).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.sets
    }

    /// Associativity.
    pub fn num_ways(&self) -> usize {
        self.ways
    }

    #[inline]
    fn set_range(&self, line: LineAddr) -> std::ops::Range<usize> {
        let set = (line.raw() & (self.sets - 1)) as usize;
        let base = set * self.ways;
        base..base + self.ways
    }

    #[inline]
    fn tag(line: LineAddr) -> u64 {
        line.raw()
    }

    /// Checks presence without updating LRU or statistics.
    pub fn probe(&self, line: LineAddr) -> bool {
        let tag = Self::tag(line);
        self.blocks[self.set_range(line)]
            .iter()
            .any(|b| b.valid && b.tag == tag)
    }

    /// Performs a demand lookup, updating LRU, hit counters, and statistics.
    /// Does **not** fill on miss — the owner decides what to fill after the
    /// lower levels respond (see [`Cache::fill`]).
    pub fn demand_access(&mut self, line: LineAddr, is_store: bool) -> Lookup {
        self.tick += 1;
        self.stats.demand_accesses += 1;
        let tag = Self::tag(line);
        let tick = self.tick;
        let range = self.set_range(line);
        for b in &mut self.blocks[range] {
            if b.valid && b.tag == tag {
                b.lru = tick;
                b.dirty |= is_store;
                b.hits += 1;
                let first = b.prefetched && b.hits == 1;
                if first {
                    self.stats.prefetch_useful += 1;
                    if b.pcb {
                        self.stats.pgc_useful += 1;
                    }
                }
                return Lookup {
                    hit: true,
                    first_hit_on_prefetch: first,
                    pcb: b.pcb,
                };
            }
        }
        self.stats.demand_misses += 1;
        Lookup {
            hit: false,
            first_hit_on_prefetch: false,
            pcb: false,
        }
    }

    /// Performs a prefetch lookup: counted under the prefetch statistics
    /// (never demand), refreshing LRU on a hit so prefetch traffic keeps
    /// resident lines warm. Misses are left for the owner to fill (or not);
    /// a prefetch probe is not a demand hit, so the block's usefulness
    /// counter is untouched.
    pub fn prefetch_access(&mut self, line: LineAddr) -> bool {
        self.stats.prefetch_accesses += 1;
        let tag = Self::tag(line);
        let range = self.set_range(line);
        for b in &mut self.blocks[range] {
            if b.valid && b.tag == tag {
                self.tick += 1;
                b.lru = self.tick;
                self.stats.prefetch_hits += 1;
                return true;
            }
        }
        false
    }

    /// Installs a line, evicting the LRU victim if the set is full.
    ///
    /// Re-filling a resident line only refreshes metadata (this happens when
    /// two misses to the same line race through the MSHR path).
    pub fn fill(&mut self, line: LineAddr, kind: FillKind, dirty: bool) -> Option<Eviction> {
        self.tick += 1;
        if kind.is_prefetch() {
            self.stats.prefetch_fills += 1;
            if matches!(kind, FillKind::PrefetchPageCross) {
                self.stats.pgc_fills += 1;
            }
        }
        let tag = Self::tag(line);
        let tick = self.tick;
        let range = self.set_range(line);

        // Already resident: refresh.
        if let Some(b) = self.blocks[range.clone()]
            .iter_mut()
            .find(|b| b.valid && b.tag == tag)
        {
            b.lru = tick;
            b.dirty |= dirty;
            return None;
        }

        // Free way?
        if let Some(b) = self.blocks[range.clone()].iter_mut().find(|b| !b.valid) {
            *b = Block {
                tag,
                valid: true,
                dirty,
                prefetched: kind.is_prefetch(),
                pcb: matches!(kind, FillKind::PrefetchPageCross),
                hits: 0,
                lru: tick,
            };
            return None;
        }

        // Evict LRU.
        let victim = self.blocks[range]
            .iter_mut()
            .min_by_key(|b| b.lru)
            .expect("set has at least one way");
        let ev = Eviction {
            line: LineAddr(victim.tag),
            dirty: victim.dirty,
            prefetched: victim.prefetched,
            pcb: victim.pcb,
            hits: victim.hits,
        };
        if ev.prefetched && ev.hits == 0 {
            self.stats.prefetch_useless += 1;
            if ev.pcb {
                self.stats.pgc_useless += 1;
            }
        }
        if ev.dirty {
            self.stats.writebacks += 1;
        }
        *victim = Block {
            tag,
            valid: true,
            dirty,
            prefetched: kind.is_prefetch(),
            pcb: matches!(kind, FillKind::PrefetchPageCross),
            hits: 0,
            lru: tick,
        };
        Some(ev)
    }

    /// Invalidates a line if present, returning its eviction record.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<Eviction> {
        let tag = Self::tag(line);
        let range = self.set_range(line);
        for b in &mut self.blocks[range] {
            if b.valid && b.tag == tag {
                let ev = Eviction {
                    line: LineAddr(b.tag),
                    dirty: b.dirty,
                    prefetched: b.prefetched,
                    pcb: b.pcb,
                    hits: b.hits,
                };
                *b = Block::INVALID;
                return Some(ev);
            }
        }
        None
    }

    /// Number of valid blocks (occupancy), mainly for tests and reports.
    pub fn occupancy(&self) -> usize {
        self.blocks.iter().filter(|b| b.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways of 64B lines = 512B.
        Cache::new(
            "tiny",
            CacheConfig {
                size_bytes: 512,
                ways: 2,
                latency: 1,
                mshr_entries: 4,
            },
        )
    }

    fn line(n: u64) -> LineAddr {
        LineAddr(n)
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert!(!c.demand_access(line(5), false).hit);
        assert!(c.fill(line(5), FillKind::Demand, false).is_none());
        assert!(c.demand_access(line(5), false).hit);
        assert_eq!(c.stats.demand_accesses, 2);
        assert_eq!(c.stats.demand_misses, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        c.fill(line(0), FillKind::Demand, false);
        c.fill(line(4), FillKind::Demand, false);
        // Touch line 0 so line 4 becomes LRU.
        c.demand_access(line(0), false);
        let ev = c.fill(line(8), FillKind::Demand, false).expect("eviction");
        assert_eq!(ev.line, line(4));
        assert!(c.probe(line(0)));
        assert!(!c.probe(line(4)));
    }

    #[test]
    fn pcb_set_only_for_page_cross_fills() {
        let mut c = tiny();
        c.fill(line(1), FillKind::PrefetchPageCross, false);
        c.fill(line(2), FillKind::PrefetchInPage, false);
        let l1 = c.demand_access(line(1), false);
        let l2 = c.demand_access(line(2), false);
        assert!(l1.pcb);
        assert!(!l2.pcb);
        assert_eq!(c.stats.pgc_fills, 1);
        assert_eq!(c.stats.prefetch_fills, 2);
    }

    #[test]
    fn first_demand_hit_promotes_prefetch_to_useful() {
        let mut c = tiny();
        c.fill(line(9), FillKind::PrefetchPageCross, false);
        let first = c.demand_access(line(9), false);
        assert!(first.first_hit_on_prefetch);
        let second = c.demand_access(line(9), false);
        assert!(!second.first_hit_on_prefetch);
        assert_eq!(c.stats.prefetch_useful, 1);
        assert_eq!(c.stats.pgc_useful, 1);
    }

    #[test]
    fn useless_prefetch_counted_on_eviction() {
        let mut c = tiny();
        c.fill(line(0), FillKind::PrefetchPageCross, false);
        c.fill(line(4), FillKind::Demand, false);
        // Evict line 0 (LRU) without it ever serving a hit.
        let ev = c.fill(line(8), FillKind::Demand, false).unwrap();
        assert_eq!(ev.line, line(0));
        assert!(ev.pcb && ev.hits == 0);
        assert_eq!(c.stats.prefetch_useless, 1);
        assert_eq!(c.stats.pgc_useless, 1);
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = tiny();
        c.fill(line(0), FillKind::Demand, false);
        c.demand_access(line(0), true); // store dirties the block
        c.fill(line(4), FillKind::Demand, false);
        c.fill(line(8), FillKind::Demand, false); // evicts line 0 or 4
        c.fill(line(12), FillKind::Demand, false);
        assert!(c.stats.writebacks >= 1);
    }

    #[test]
    fn refill_of_resident_line_does_not_evict() {
        let mut c = tiny();
        c.fill(line(3), FillKind::Demand, false);
        assert!(c.fill(line(3), FillKind::Demand, true).is_none());
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn invalidate_removes_block() {
        let mut c = tiny();
        c.fill(line(7), FillKind::Demand, true);
        let ev = c.invalidate(line(7)).unwrap();
        assert!(ev.dirty);
        assert!(!c.probe(line(7)));
        assert!(c.invalidate(line(7)).is_none());
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = tiny();
        for n in 0..4 {
            c.fill(line(n), FillKind::Demand, false);
        }
        assert_eq!(c.occupancy(), 4);
        for n in 0..4 {
            assert!(c.probe(line(n)));
        }
    }

    #[test]
    fn prefetch_access_keeps_demand_counters_disjoint() {
        let mut c = tiny();
        c.fill(line(5), FillKind::Demand, false);
        assert!(c.prefetch_access(line(5)));
        assert!(!c.prefetch_access(line(6)));
        // Prefetch traffic lands only in the prefetch counters...
        assert_eq!(c.stats.prefetch_accesses, 2);
        assert_eq!(c.stats.prefetch_hits, 1);
        assert_eq!(c.stats.demand_accesses, 0);
        assert_eq!(c.stats.demand_misses, 0);
        // ...and demand traffic only in the demand counters.
        c.demand_access(line(5), false);
        c.demand_access(line(6), false);
        assert_eq!(c.stats.demand_accesses, 2);
        assert_eq!(c.stats.demand_misses, 1);
        assert_eq!(c.stats.prefetch_accesses, 2);
        assert_eq!(c.stats.prefetch_hits, 1);
    }

    #[test]
    fn prefetch_access_refreshes_lru() {
        let mut c = tiny();
        // Lines 0, 4, 8 all map to set 0.
        c.fill(line(0), FillKind::Demand, false);
        c.fill(line(4), FillKind::Demand, false);
        // A prefetch hit on line 0 makes line 4 the LRU victim.
        assert!(c.prefetch_access(line(0)));
        let ev = c.fill(line(8), FillKind::Demand, false).expect("eviction");
        assert_eq!(ev.line, line(4));
        assert!(c.probe(line(0)));
    }

    #[test]
    fn prefetch_access_does_not_promote_usefulness() {
        let mut c = tiny();
        c.fill(line(9), FillKind::PrefetchPageCross, false);
        assert!(c.prefetch_access(line(9)));
        // A prefetch probe is not a demand hit: no usefulness promotion.
        assert_eq!(c.stats.prefetch_useful, 0);
        let first = c.demand_access(line(9), false);
        assert!(first.first_hit_on_prefetch);
        assert_eq!(c.stats.prefetch_useful, 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2_sets() {
        let _ = Cache::new(
            "bad",
            CacheConfig {
                size_bytes: 3 * 64,
                ways: 1,
                latency: 1,
                mshr_entries: 1,
            },
        );
    }
}
