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

/// The match key of a resident line: the line address shifted left over
/// a valid bit, so a way search is one compare per way. `0` is the key of
/// an empty way. Line addresses are below 2^63 (`Cache::fill` checks it
/// in debug builds), so the shift loses nothing.
#[inline]
const fn key(line: LineAddr) -> u64 {
    line.raw() << 1 | 1
}

/// A resident block's metadata besides its key and LRU stamp.
#[derive(Clone, Copy, Debug, Default)]
struct Meta {
    dirty: bool,
    /// Fetched by a prefetch (any kind).
    prefetched: bool,
    /// Page-Cross Bit: fetched by a page-cross prefetch.
    pcb: bool,
    /// Demand hits served since fill.
    hits: u32,
}

impl Meta {
    /// The eviction record of the block keyed `key` with this metadata.
    fn eviction(self, key: u64) -> Eviction {
        Eviction {
            line: LineAddr(key >> 1),
            dirty: self.dirty,
            prefetched: self.prefetched,
            pcb: self.pcb,
            hits: self.hits,
        }
    }
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
///
/// Ways are stored as three parallel columns indexed `set * ways + way`:
/// the match keys a way search scans, the LRU stamps only a full set's fill
/// reads, and the metadata of resident blocks.
#[derive(Clone, Debug)]
pub struct Cache {
    name: &'static str,
    sets: u64,
    ways: usize,
    keys: Vec<u64>,
    lru: Vec<u64>,
    meta: Vec<Meta>,
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
        let n = (sets * cfg.ways as u64) as usize;
        Self {
            name,
            sets,
            ways: cfg.ways as usize,
            keys: vec![0; n],
            lru: vec![0; n],
            meta: vec![Meta::default(); n],
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

    /// The index of `line`'s set's first way.
    #[inline]
    fn set_base(&self, line: LineAddr) -> usize {
        (line.raw() & (self.sets - 1)) as usize * self.ways
    }

    /// The index of the way holding `line`, if resident.
    #[inline]
    fn find(&self, line: LineAddr) -> Option<usize> {
        let k = key(line);
        let base = self.set_base(line);
        self.keys[base..base + self.ways]
            .iter()
            .position(|&w| w == k)
            .map(|i| base + i)
    }

    /// Checks presence without updating LRU or statistics.
    pub fn probe(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// Performs a demand lookup, updating LRU, hit counters, and statistics.
    /// Does **not** fill on miss — the owner decides what to fill after the
    /// lower levels respond (see [`Cache::fill`]).
    pub fn demand_access(&mut self, line: LineAddr, is_store: bool) -> Lookup {
        self.tick += 1;
        self.stats.demand_accesses += 1;
        let Some(i) = self.find(line) else {
            self.stats.demand_misses += 1;
            return Lookup {
                hit: false,
                first_hit_on_prefetch: false,
                pcb: false,
            };
        };
        self.lru[i] = self.tick;
        let m = &mut self.meta[i];
        m.dirty |= is_store;
        m.hits += 1;
        let first = m.prefetched && m.hits == 1;
        if first {
            self.stats.prefetch_useful += 1;
            if m.pcb {
                self.stats.pgc_useful += 1;
            }
        }
        Lookup {
            hit: true,
            first_hit_on_prefetch: first,
            pcb: m.pcb,
        }
    }

    /// Performs a prefetch lookup: counted under the prefetch statistics
    /// (never demand), refreshing LRU on a hit so prefetch traffic keeps
    /// resident lines warm. Misses are left for the owner to fill (or not);
    /// a prefetch probe is not a demand hit, so the block's usefulness
    /// counter is untouched.
    pub fn prefetch_access(&mut self, line: LineAddr) -> bool {
        self.stats.prefetch_accesses += 1;
        let Some(i) = self.find(line) else {
            return false;
        };
        self.tick += 1;
        self.lru[i] = self.tick;
        self.stats.prefetch_hits += 1;
        true
    }

    /// Installs a line, evicting the LRU victim if the set is full.
    ///
    /// Re-filling a resident line only refreshes metadata (this happens when
    /// two misses to the same line race through the MSHR path). One pass
    /// over the set's keys finds the resident way, else the first free
    /// way; only a full set reads its LRU stamps, for the least recently
    /// used way.
    pub fn fill(&mut self, line: LineAddr, kind: FillKind, dirty: bool) -> Option<Eviction> {
        debug_assert!(line.raw() < 1 << 63, "line {line:?} does not fit a key");
        self.tick += 1;
        if kind.is_prefetch() {
            self.stats.prefetch_fills += 1;
            if matches!(kind, FillKind::PrefetchPageCross) {
                self.stats.pgc_fills += 1;
            }
        }
        let k = key(line);
        let base = self.set_base(line);
        let set = base..base + self.ways;

        let mut free = None;
        for (i, &w) in self.keys[set.clone()].iter().enumerate() {
            if w == k {
                // Already resident: refresh.
                self.lru[base + i] = self.tick;
                self.meta[base + i].dirty |= dirty;
                return None;
            }
            if w == 0 && free.is_none() {
                free = Some(i);
            }
        }
        let i = base
            + match free {
                Some(i) => i,
                None => self.lru[set.clone()]
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &stamp)| stamp)
                    .map_or(0, |(i, _)| i),
            };
        let evicted = free.is_none().then(|| self.meta[i].eviction(self.keys[i]));
        self.keys[i] = k;
        self.lru[i] = self.tick;
        self.meta[i] = Meta {
            dirty,
            prefetched: kind.is_prefetch(),
            pcb: matches!(kind, FillKind::PrefetchPageCross),
            hits: 0,
        };

        let ev = evicted?;
        if ev.prefetched && ev.hits == 0 {
            self.stats.prefetch_useless += 1;
            if ev.pcb {
                self.stats.pgc_useless += 1;
            }
        }
        if ev.dirty {
            self.stats.writebacks += 1;
        }
        Some(ev)
    }

    /// Invalidates a line if present, returning its eviction record.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<Eviction> {
        let i = self.find(line)?;
        Some(self.meta[i].eviction(std::mem::take(&mut self.keys[i])))
    }

    /// Number of valid blocks (occupancy), mainly for tests and reports.
    pub fn occupancy(&self) -> usize {
        self.keys.iter().filter(|&&w| w != 0).count()
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
