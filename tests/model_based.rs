//! Model-based property tests: the optimised structures must agree with
//! naive reference models over arbitrary operation sequences. Runs on the
//! in-repo harness ([`pagecross::types::prop`]).

use pagecross::mem::{
    Cache, CacheConfig, FillKind, FrameAllocator, HugePagePolicy, Mshr, PageWalker, PscConfig, Tlb,
    TlbConfig, Translation, Vmem,
};
use pagecross::types::prop::{check, vec_of, Config};
use pagecross::types::{prop_assert, prop_assert_eq};
use pagecross::types::{CacheStats, LineAddr, PageSize, VirtAddr};

/// A naive set-associative LRU cache: explicit per-set recency vectors,
/// with the statistics each operation should count.
struct RefCache {
    sets: u64,
    ways: usize,
    /// Per set: most-recent-last list of resident blocks.
    resident: Vec<Vec<RefBlock>>,
    stats: CacheStats,
}

/// One resident block of [`RefCache`], with the metadata an eviction
/// record reports.
#[derive(Clone, Copy)]
struct RefBlock {
    line: u64,
    dirty: bool,
    prefetched: bool,
    pcb: bool,
    hits: u32,
}

impl RefBlock {
    /// The `(line, dirty, prefetched, pcb, hits)` of an eviction record.
    fn record(self) -> (u64, bool, bool, bool, u32) {
        (self.line, self.dirty, self.prefetched, self.pcb, self.hits)
    }
}

impl RefCache {
    fn new(sets: u64, ways: usize) -> Self {
        Self {
            sets,
            ways,
            resident: vec![Vec::new(); sets as usize],
            stats: CacheStats::default(),
        }
    }

    fn set(&mut self, line: u64) -> &mut Vec<RefBlock> {
        &mut self.resident[(line & (self.sets - 1)) as usize]
    }

    /// Moves a resident `line` to the most-recent end; returns it.
    fn touch(&mut self, line: u64) -> Option<&mut RefBlock> {
        let set = self.set(line);
        let pos = set.iter().position(|b| b.line == line)?;
        let b = set.remove(pos);
        set.push(b);
        set.last_mut()
    }

    /// A demand access: `(hit, first hit on a prefetched block, pcb)`.
    fn demand(&mut self, line: u64, is_store: bool) -> (bool, bool, bool) {
        self.stats.demand_accesses += 1;
        let Some(b) = self.touch(line) else {
            self.stats.demand_misses += 1;
            return (false, false, false);
        };
        b.hits += 1;
        b.dirty |= is_store;
        let (first, pcb) = (b.prefetched && b.hits == 1, b.pcb);
        if first {
            self.stats.prefetch_useful += 1;
            self.stats.pgc_useful += u64::from(pcb);
        }
        (true, first, pcb)
    }

    /// A prefetch probe: refreshes LRU on a hit; returns the hit.
    fn prefetch(&mut self, line: u64) -> bool {
        self.stats.prefetch_accesses += 1;
        let hit = self.touch(line).is_some();
        self.stats.prefetch_hits += u64::from(hit);
        hit
    }

    fn fill(&mut self, line: u64, kind: FillKind, dirty: bool) -> Option<RefBlock> {
        if kind.is_prefetch() {
            self.stats.prefetch_fills += 1;
            self.stats.pgc_fills += u64::from(kind == FillKind::PrefetchPageCross);
        }
        if let Some(b) = self.touch(line) {
            b.dirty |= dirty;
            return None;
        }
        let ways = self.ways;
        let set = self.set(line);
        let victim = if set.len() == ways {
            Some(set.remove(0))
        } else {
            None
        };
        set.push(RefBlock {
            line,
            dirty,
            prefetched: kind.is_prefetch(),
            pcb: kind == FillKind::PrefetchPageCross,
            hits: 0,
        });
        if let Some(v) = victim {
            if v.prefetched && v.hits == 0 {
                self.stats.prefetch_useless += 1;
                self.stats.pgc_useless += u64::from(v.pcb);
            }
            self.stats.writebacks += u64::from(v.dirty);
        }
        victim
    }

    fn invalidate(&mut self, line: u64) -> Option<RefBlock> {
        let set = self.set(line);
        let pos = set.iter().position(|b| b.line == line)?;
        Some(set.remove(pos))
    }
}

/// A naive set-associative, page-size-aware LRU TLB: one most-recent-last
/// list of `(huge, vpn, pfn)` per set, probed at 4 KB and then at 2 MB.
struct RefTlb {
    sets: u64,
    ways: usize,
    resident: Vec<Vec<(bool, u64, u64)>>,
}

impl RefTlb {
    fn new(sets: u64, ways: usize) -> Self {
        Self {
            sets,
            ways,
            resident: vec![Vec::new(); sets as usize],
        }
    }

    fn set(&mut self, vpn: u64) -> &mut Vec<(bool, u64, u64)> {
        &mut self.resident[(vpn & (self.sets - 1)) as usize]
    }

    /// Probes (and refreshes) the entry covering `va`: `(huge, vpn, pfn)`.
    fn lookup(&mut self, va: u64) -> Option<(bool, u64, u64)> {
        for (huge, shift) in [(false, 12), (true, 21)] {
            let vpn = va >> shift;
            let set = self.set(vpn);
            if let Some(pos) = set.iter().position(|&(h, v, _)| h == huge && v == vpn) {
                let e = set.remove(pos);
                set.push(e);
                return Some(e);
            }
        }
        None
    }

    fn peek(&self, va: u64) -> bool {
        [(false, 12), (true, 21)].iter().any(|&(huge, shift)| {
            let vpn = va >> shift;
            self.resident[(vpn & (self.sets - 1)) as usize]
                .iter()
                .any(|&(h, v, _)| h == huge && v == vpn)
        })
    }

    fn fill(&mut self, huge: bool, vpn: u64, pfn: u64) {
        let ways = self.ways;
        let set = self.set(vpn);
        if let Some(pos) = set.iter().position(|&(h, v, _)| h == huge && v == vpn) {
            set.remove(pos);
        } else if set.len() == ways {
            set.remove(0);
        }
        set.push((huge, vpn, pfn));
    }

    fn invalidate_page(&mut self, huge: bool, vpn: u64) -> bool {
        let set = self.set(vpn);
        match set.iter().position(|&(h, v, _)| h == huge && v == vpn) {
            Some(pos) => {
                set.remove(pos);
                true
            }
            None => false,
        }
    }

    fn invalidate_region(&mut self, vpn2m: u64) -> u32 {
        let mut dropped = 0;
        for set in &mut self.resident {
            let before = set.len();
            set.retain(|&(h, v, _)| if h { v != vpn2m } else { v >> 9 != vpn2m });
            dropped += (before - set.len()) as u32;
        }
        dropped
    }

    fn occupancy(&self) -> usize {
        self.resident.iter().map(Vec::len).sum()
    }
}

/// A naive MSHR file: a flat list scanned linearly, with the documented
/// semantics spelled out operation by operation — lazy expiry, merge on
/// lookup, and earliest-completing replacement (plus a fixed retry
/// penalty) when full.
struct RefMshr {
    capacity: usize,
    /// (line, completes_at, demand), insertion order.
    inflight: Vec<(u64, u64, bool)>,
    merges: u64,
    full_stalls: u64,
}

/// Mirror of the production `Mshr::FULL_PENALTY` constant.
const REF_MSHR_FULL_PENALTY: u64 = 8;

impl RefMshr {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            inflight: Vec::new(),
            merges: 0,
            full_stalls: 0,
        }
    }

    fn expire(&mut self, now: u64) {
        self.inflight.retain(|&(_, completes, _)| completes > now);
    }

    fn lookup(&mut self, line: u64, now: u64) -> Option<u64> {
        self.expire(now);
        let hit = self
            .inflight
            .iter()
            .find(|&&(l, _, _)| l == line)
            .map(|&(_, c, _)| c);
        if hit.is_some() {
            self.merges += 1;
        }
        hit
    }

    fn allocate(&mut self, line: u64, now: u64, completes_at: u64, demand: bool) -> u64 {
        self.expire(now);
        if self.inflight.len() >= self.capacity {
            self.full_stalls += 1;
            let delayed = completes_at + REF_MSHR_FULL_PENALTY;
            if let Some(slot) = self.inflight.iter_mut().min_by_key(|&&mut (_, c, _)| c) {
                *slot = (line, delayed, demand);
            }
            return delayed;
        }
        self.inflight.push((line, completes_at, demand));
        completes_at
    }

    fn occupancy(&mut self, now: u64) -> usize {
        self.expire(now);
        self.inflight.len()
    }

    fn demand_occupancy(&mut self, now: u64) -> usize {
        self.expire(now);
        self.inflight.iter().filter(|&&(_, _, d)| d).count()
    }
}

/// The production cache and the reference model agree on every hit/miss
/// outcome, every lookup flag, every eviction record and the statistics
/// at the end of each sequence, for arbitrary
/// interleavings of demand accesses, prefetch probes (which refresh LRU),
/// fills of each kind and invalidations followed by refills, at 2-, 12- and
/// 16-way associativity.
#[test]
fn cache_matches_reference_model() {
    // (sets, ways): the L1D/L2C-like narrow set and the 12-way L1D and
    // 16-way LLC widths of Table IV.
    const GEOMETRIES: [(u64, u32); 3] = [(8, 2), (4, 12), (2, 16)];
    check(
        &Config::cases(48),
        |rng| {
            let geometry = rng.below(GEOMETRIES.len() as u64);
            let ops = vec_of(rng, 1, 600, |r| (r.below(96), r.below(8) as u8));
            (geometry, ops)
        },
        |(geometry, ops)| {
            let (sets, ways) = GEOMETRIES[*geometry as usize];
            let mut dut = Cache::new(
                "dut",
                CacheConfig {
                    size_bytes: sets * ways as u64 * 64,
                    ways,
                    latency: 1,
                    mshr_entries: 4,
                },
            );
            let mut model = RefCache::new(sets, ways as usize);
            // The line universe is three times the capacity, so sets fill,
            // evict and (after invalidations) refill free ways.
            let universe = 3 * sets * ways as u64;
            for &(raw, op) in ops {
                let line = raw * universe / 96;
                let l = LineAddr(line);
                match op {
                    0 | 1 => {
                        let r = dut.demand_access(l, op == 1);
                        let got = (r.hit, r.first_hit_on_prefetch, r.pcb);
                        let want = model.demand(line, op == 1);
                        prop_assert_eq!(got, want, "demand mismatch on {}", line);
                    }
                    2..=4 => {
                        let kind = [
                            FillKind::Demand,
                            FillKind::PrefetchInPage,
                            FillKind::PrefetchPageCross,
                        ][op as usize - 2];
                        let dirty = line.is_multiple_of(3);
                        let got = dut
                            .fill(l, kind, dirty)
                            .map(|e| (e.line.raw(), e.dirty, e.prefetched, e.pcb, e.hits));
                        let want = model.fill(line, kind, dirty).map(RefBlock::record);
                        prop_assert_eq!(got, want, "victim mismatch on {}", line);
                    }
                    5 => {
                        let got = dut.prefetch_access(l);
                        let want = model.prefetch(line);
                        prop_assert_eq!(got, want, "prefetch probe mismatch on {}", line);
                    }
                    6 => {
                        let got = dut
                            .invalidate(l)
                            .map(|e| (e.line.raw(), e.dirty, e.prefetched, e.pcb, e.hits));
                        let want = model.invalidate(line).map(RefBlock::record);
                        prop_assert_eq!(got, want, "invalidate mismatch on {}", line);
                    }
                    _ => {
                        let want = model.resident[(line & (sets - 1)) as usize]
                            .iter()
                            .any(|b| b.line == line);
                        prop_assert_eq!(dut.probe(l), want, "probe mismatch on {}", line);
                    }
                }
            }
            let model_occ: usize = model.resident.iter().map(Vec::len).sum();
            prop_assert_eq!(dut.occupancy(), model_occ, "occupancy mismatch");
            prop_assert_eq!(dut.stats, model.stats, "statistics diverged");
            Ok(())
        },
    );
}

/// The production TLB agrees with the reference model on every lookup,
/// prefetch probe, peek, invalidation and on its statistics, for arbitrary
/// interleavings over 4 KB and 2 MB pages. Each sequence runs 4 KB-only
/// traffic up to a random point, so the first 2 MB fill lands in a TLB
/// that has only ever held 4 KB entries.
#[test]
fn tlb_matches_reference_model() {
    check(
        &Config::cases(64),
        |rng| {
            let ops = vec_of(rng, 1, 400, |r| {
                (r.below(4), r.below(24), (r.below(7) as u8, r.below(3) == 0))
            });
            let first_huge = rng.below(ops.len() as u64 + 1);
            (first_huge, ops)
        },
        |(first_huge, ops)| {
            // 4 sets x 4 ways = 16 entries.
            let mut dut = Tlb::new(
                "dut",
                TlbConfig {
                    entries: 16,
                    ways: 4,
                    latency: 1,
                },
            );
            let mut model = RefTlb::new(4, 4);
            let mut stats = pagecross::types::TlbStats::default();
            for (i, &(region, page, (op, huge))) in ops.iter().enumerate() {
                let huge = huge && i as u64 >= *first_huge;
                let vpn4k = (region << 9) + page;
                let va = (vpn4k << 12) | (page * 64);
                let (vpn, size) = if huge {
                    (region, PageSize::Huge2M)
                } else {
                    (vpn4k, PageSize::Base4K)
                };
                let got_of =
                    |t: Option<Translation>| t.map(|t| (t.size == PageSize::Huge2M, t.vpn, t.pfn));
                match op {
                    0 => {
                        let got = got_of(dut.lookup(VirtAddr::new(va)));
                        let want = model.lookup(va);
                        stats.accesses += 1;
                        stats.misses += u64::from(want.is_none());
                        prop_assert_eq!(got, want, "lookup mismatch on {:#x}", va);
                    }
                    1 => {
                        let got = got_of(dut.prefetch_probe(VirtAddr::new(va)));
                        let want = model.lookup(va);
                        stats.prefetch_probes += 1;
                        stats.prefetch_probe_misses += u64::from(want.is_none());
                        prop_assert_eq!(got, want, "probe mismatch on {:#x}", va);
                    }
                    2 | 3 => {
                        // The frame changes with the step, so a refill of a
                        // resident page must update it.
                        let pfn = vpn * 3 + i as u64 % 5;
                        dut.fill(Translation { vpn, pfn, size }, op == 3);
                        model.fill(huge, vpn, pfn);
                        stats.prefetch_fills += u64::from(op == 3);
                    }
                    4 => {
                        let got = dut.invalidate_page(vpn, size);
                        let want = model.invalidate_page(huge, vpn);
                        prop_assert_eq!(got, want, "invalidate_page mismatch on {:#x}", va);
                    }
                    5 => {
                        let got = dut.invalidate_region(region);
                        let want = model.invalidate_region(region);
                        prop_assert_eq!(got, want, "invalidate_region mismatch on {}", region);
                    }
                    _ => {
                        let got = dut.peek(VirtAddr::new(va));
                        prop_assert_eq!(got, model.peek(va), "peek mismatch on {:#x}", va);
                    }
                }
                prop_assert_eq!(dut.occupancy(), model.occupancy(), "occupancy mismatch");
            }
            prop_assert_eq!(dut.stats, stats, "statistics diverged");
            Ok(())
        },
    );
}

/// Prefetch fills obey the same placement rules as demand fills: after
/// any interleaving, the resident set is identical whichever fill kind
/// was used (metadata differs, placement must not).
#[test]
fn fill_kind_does_not_change_placement() {
    check(
        &Config::cases(48),
        |rng| vec_of(rng, 1, 300, |r| r.below(64)),
        |ops| {
            let cfg = CacheConfig {
                size_bytes: 1024,
                ways: 2,
                latency: 1,
                mshr_entries: 4,
            };
            let mut a = Cache::new("a", cfg);
            let mut b = Cache::new("b", cfg);
            for &line in ops {
                a.fill(LineAddr(line), FillKind::Demand, false);
                b.fill(LineAddr(line), FillKind::PrefetchPageCross, false);
            }
            for &line in ops {
                prop_assert_eq!(a.probe(LineAddr(line)), b.probe(LineAddr(line)));
            }
            prop_assert_eq!(a.occupancy(), b.occupancy());
            Ok(())
        },
    );
}

/// The production MSHR agrees with the naive reference on every lookup
/// result, allocation completion time, merge/stall counter, and both
/// occupancy views, for arbitrary interleavings of lookups, demand/prefetch
/// allocations and occupancy reads. As in the engine, `now` is not
/// monotone: it may step back below the last cycle seen. Completion times
/// are coarse, so a full file often holds several entries completing at
/// the same earliest cycle (the first slot is replaced), and a small line
/// universe puts the same line in flight more than once (a lookup sees the
/// first entry in insertion order).
#[test]
fn mshr_matches_reference_model() {
    check(
        &Config::cases(64),
        // Small time steps relative to the 24–32-cycle fill latency so the
        // file regularly fills up and exercises the replacement path.
        |rng| {
            vec_of(rng, 1, 400, |r| {
                (
                    (r.below(10), r.below(15) as i64 - 6),
                    (r.below(4) as u8, r.below(2) == 1),
                    r.below(2),
                )
            })
        },
        |ops| {
            let mut dut = Mshr::new(6);
            let mut model = RefMshr::new(6);
            let mut now = 0u64;
            for &((line, dt), (op, demand), latency) in ops {
                now = now.saturating_add_signed(dt);
                let l = LineAddr(line);
                match op {
                    0 => {
                        let dut_hit = dut.lookup(l, now);
                        let model_hit = model.lookup(line, now);
                        prop_assert_eq!(dut_hit, model_hit, "lookup mismatch on {} @{}", line, now);
                    }
                    1 | 2 => {
                        let completes = (now & !7) + 24 + 8 * latency;
                        let dut_done = dut.allocate_kind(l, now, completes, demand);
                        let model_done = model.allocate(line, now, completes, demand);
                        prop_assert_eq!(
                            dut_done,
                            model_done,
                            "completion mismatch on {} @{}",
                            line,
                            now
                        );
                    }
                    _ => {
                        prop_assert_eq!(dut.occupancy(now) as usize, model.occupancy(now));
                        prop_assert_eq!(
                            dut.demand_occupancy(now) as usize,
                            model.demand_occupancy(now)
                        );
                    }
                }
                prop_assert_eq!(dut.merges, model.merges, "merge counter diverged");
                prop_assert_eq!(dut.full_stalls, model.full_stalls, "stall counter diverged");
            }
            prop_assert_eq!(dut.occupancy(now) as usize, model.occupancy(now));
            prop_assert_eq!(
                dut.demand_occupancy(now) as usize,
                model.demand_occupancy(now)
            );
            Ok(())
        },
    );
}

/// The page-table walker agrees with a flat reference map: the first walk
/// of a page defines its translation, and every later walk of that page —
/// whatever the PSC state — reproduces it exactly. Frames are never
/// shared between pages, and walk depth shrinks monotonically as PSCs
/// warm (1..=5 refs, with repeat walks of the same page depth ≤ 2).
#[test]
fn walker_matches_flat_reference_map() {
    check(
        &Config::cases(48),
        // Small VPN universe so sequences revisit pages through warm PSCs.
        |rng| vec_of(rng, 1, 120, |r| r.below(512) << 12 | (r.below(8) << 6)),
        |vas| {
            let mut fa = FrameAllocator::new(4u64 << 30, 23);
            let mut w = PageWalker::new(
                PscConfig {
                    l5_entries: 1,
                    l4_entries: 2,
                    l3_entries: 8,
                    l2_entries: 32,
                },
                &mut fa,
            );
            let mut vm = Vmem::new(HugePagePolicy::None, 29);
            let mut flat: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
            for &raw in vas {
                let va = VirtAddr::new(raw);
                let vpn = raw >> 12;
                let plan = w.walk(va, &mut vm, &mut fa).expect("4GB pool cannot OOM");
                prop_assert!((1..=5).contains(&plan.refs.len()));
                prop_assert_eq!(
                    plan.translation.vpn,
                    vpn,
                    "walk must translate its own page"
                );
                match flat.get(&vpn) {
                    Some(&pfn) => {
                        prop_assert_eq!(
                            plan.translation.pfn,
                            pfn,
                            "walk of vpn {} changed an established translation",
                            vpn
                        );
                        // A revisited 4 KB page has a warm PSC-L2 entry (the
                        // PSCs are large enough for this VPN universe), so
                        // at most the leaf PT reference plus one level.
                        prop_assert!(
                            plan.refs.len() <= 2,
                            "repeat walk of vpn {} took {} refs",
                            vpn,
                            plan.refs.len()
                        );
                    }
                    None => {
                        flat.insert(vpn, plan.translation.pfn);
                    }
                }
            }
            let frames: std::collections::HashSet<u64> = flat.values().copied().collect();
            prop_assert_eq!(frames.len(), flat.len(), "two pages share a frame");
            Ok(())
        },
    );
}
