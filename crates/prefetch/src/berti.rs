//! Berti: an accurate local-delta data prefetcher (MICRO'22).
//!
//! Berti learns, per load PC, which *local deltas* (distance in lines
//! between two accesses of the same PC) would have produced **timely**
//! prefetches: when a demand miss completes, it searches the PC's recent
//! access history for earlier accesses that happened early enough that a
//! prefetch launched then would have beaten the miss, and credits the
//! corresponding deltas. Deltas with high coverage become active and are
//! used to issue prefetches on subsequent accesses.
//!
//! This implementation keeps the mechanism (history + fill-time timeliness
//! attribution + per-PC delta table with confidence) and compacts the
//! bookkeeping. Unlike the reference code it does **not** drop candidates
//! at page boundaries — that is the page-cross policy's job.
//!
//! The history is a 64-slot ring of `pc`, `line` and `cycle` columns. A
//! fill compares every slot against the missing PC and the timeliness
//! deadline in one branch-free pass that sets one bit per matching slot,
//! then visits only the set bits, newest first. The credit order is the
//! newest-first scan's, so decay and eviction in the delta table come out
//! exactly as they did when the history was a queue scanned from the back.

use crate::{candidate, AccessInfo, L1dPrefetcher};
use pagecross_types::{FastMap, PrefetchCandidate, VirtAddr};
use std::collections::VecDeque;

/// History slots: one bit each of a [`History::matches`] mask.
const HISTORY_LEN: usize = u64::BITS as usize;
const PENDING_LEN: usize = 32;
const MAX_DELTAS_PER_PC: usize = 8;
const MAX_PCS_BASE: usize = 256;
/// Deltas beyond ±4 pages are noise.
const MAX_ABS_DELTA: i64 = 256;
/// Counter value at which a delta becomes active.
const ACTIVE_THRESHOLD: u8 = 4;
const COUNTER_MAX: u8 = 15;

/// The last [`HISTORY_LEN`] accesses, as a ring of `pc`/`line`/`cycle`
/// columns. Slot `head` is written next, so slots `head-1..=0` then
/// `63..=head` run from newest to oldest.
#[derive(Clone, Debug)]
struct History {
    pc: [u64; HISTORY_LEN],
    line: [i64; HISTORY_LEN],
    cycle: [u64; HISTORY_LEN],
    head: usize,
    /// Slots written so far: bit `i` set once slot `i` holds an access.
    filled: u64,
}

impl History {
    const EMPTY: History = History {
        pc: [0; HISTORY_LEN],
        line: [0; HISTORY_LEN],
        cycle: [0; HISTORY_LEN],
        head: 0,
        filled: 0,
    };

    fn push(&mut self, pc: u64, line: i64, cycle: u64) {
        let i = self.head;
        self.pc[i] = pc;
        self.line[i] = line;
        self.cycle[i] = cycle;
        self.filled |= 1 << i;
        self.head = (i + 1) % HISTORY_LEN;
    }

    /// The slots holding an access by `pc` at or before `deadline`, as a
    /// bit mask built in one branch-free pass over every slot.
    fn matches(&self, pc: u64, deadline: u64) -> u64 {
        let mut mask = 0;
        for i in 0..HISTORY_LEN {
            mask |= u64::from((self.pc[i] == pc) & (self.cycle[i] <= deadline)) << i;
        }
        mask & self.filled
    }
}

#[derive(Clone, Copy, Debug)]
struct PendingMiss {
    pc: u64,
    line: i64,
    issue_cycle: u64,
}

#[derive(Clone, Debug, Default)]
struct DeltaSet {
    deltas: Vec<(i64, u8)>, // (delta_lines, confidence)
    updates: u16,
}

impl DeltaSet {
    fn credit(&mut self, delta: i64) {
        // Periodic decay: without it, uniformly random deltas accumulate
        // confidence over time and Berti starts spraying garbage (the
        // original evaluates coverage per window for the same reason).
        self.updates += 1;
        if self.updates >= 256 {
            self.updates = 0;
            for (_, c) in &mut self.deltas {
                *c /= 2;
            }
            self.deltas.retain(|(_, c)| *c > 0);
        }
        if let Some(e) = self.deltas.iter_mut().find(|(d, _)| *d == delta) {
            e.1 = (e.1 + 1).min(COUNTER_MAX);
            return;
        }
        if self.deltas.len() < MAX_DELTAS_PER_PC {
            self.deltas.push((delta, 1));
        } else if let Some(weakest) = self.deltas.iter_mut().min_by_key(|(_, c)| *c) {
            if weakest.1 <= 1 {
                *weakest = (delta, 1);
            } else {
                weakest.1 -= 1;
            }
        }
    }

    /// Up to two strongest active deltas, strongest first; ties keep
    /// table order (a stable top-2, without allocating).
    fn active(&self) -> impl Iterator<Item = i64> {
        let mut top: [Option<(i64, u8)>; 2] = [None, None];
        for &(d, c) in &self.deltas {
            if c < ACTIVE_THRESHOLD {
                continue;
            }
            if top[0].is_none_or(|(_, c0)| c > c0) {
                top = [Some((d, c)), top[0]];
            } else if top[1].is_none_or(|(_, c1)| c > c1) {
                top[1] = Some((d, c));
            }
        }
        top.into_iter().flatten().map(|(d, _)| d)
    }
}

/// The Berti prefetcher.
#[derive(Clone, Debug)]
pub struct Berti {
    history: History,
    pending: VecDeque<PendingMiss>,
    per_pc: FastMap<u64, DeltaSet>,
    max_pcs: usize,
}

impl Berti {
    /// Creates a Berti instance. `size_multiplier` scales the per-PC table
    /// capacity (used by the ISO-Storage scenario of Fig. 9).
    ///
    /// # Panics
    ///
    /// Panics if `size_multiplier == 0`.
    pub fn new(size_multiplier: u32) -> Self {
        assert!(size_multiplier > 0, "size multiplier must be positive");
        Self {
            history: History::EMPTY,
            pending: VecDeque::with_capacity(PENDING_LEN),
            per_pc: FastMap::default(),
            max_pcs: MAX_PCS_BASE * size_multiplier as usize,
        }
    }
}

impl L1dPrefetcher for Berti {
    fn name(&self) -> &'static str {
        "berti"
    }

    fn on_access(&mut self, info: &AccessInfo, out: &mut Vec<PrefetchCandidate>) {
        let line = info.va.line().raw() as i64;

        // Issue from the learned delta set first (pre-update, like hardware
        // would: the table read races the table update).
        if let Some(set) = self.per_pc.get(&info.pc) {
            for delta in set.active() {
                out.push(candidate(info.pc, info.va, delta, info.first_page_access));
            }
        }

        self.history.push(info.pc, line, info.cycle);

        if !info.hit {
            if self.pending.len() == PENDING_LEN {
                self.pending.pop_front();
            }
            self.pending.push_back(PendingMiss {
                pc: info.pc,
                line,
                issue_cycle: info.cycle,
            });
        }
    }

    fn on_fill(&mut self, va: VirtAddr, fill_cycle: u64) {
        let line = va.line().raw() as i64;
        let Some(pos) = self.pending.iter().position(|m| m.line == line) else {
            return;
        };
        let miss = self.pending.remove(pos).expect("position valid");
        let latency = fill_cycle.saturating_sub(miss.issue_cycle);
        // Timely: an access that happened at least `latency` before the fill
        // could have issued a prefetch that arrived in time.
        let deadline = fill_cycle.saturating_sub(latency);
        if self.per_pc.len() >= self.max_pcs && !self.per_pc.contains_key(&miss.pc) {
            self.per_pc.clear(); // bounded storage; cold restart
        }
        let set = self.per_pc.entry(miss.pc).or_default();
        // Visit the matching slots newest first: the set bits below
        // `head` from the highest down, then those at or above it. Credit
        // order decides decay and eviction in `DeltaSet::credit`.
        let mask = self.history.matches(miss.pc, deadline);
        let below_head = (1u64 << self.history.head) - 1;
        for mut part in [mask & below_head, mask & !below_head] {
            while part != 0 {
                let i = 63 - part.leading_zeros() as usize;
                part ^= 1 << i;
                let delta = miss.line - self.history.line[i];
                if delta != 0 && delta.abs() <= MAX_ABS_DELTA {
                    set.credit(delta);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagecross_types::prop::{check, vec_of, Config};
    use pagecross_types::prop_assert_eq;
    use std::collections::BTreeMap;

    fn drive_stream(
        pf: &mut Berti,
        pc: u64,
        base: u64,
        stride_lines: u64,
        n: u64,
    ) -> Vec<PrefetchCandidate> {
        let mut out = Vec::new();
        for i in 0..n {
            let va = VirtAddr::new(base + i * stride_lines * 64);
            let info = AccessInfo {
                pc,
                va,
                hit: false,
                cycle: i * 100,
                first_page_access: false,
            };
            pf.on_access(&info, &mut out);
            pf.on_fill(va, i * 100 + 50);
        }
        out
    }

    #[test]
    fn learns_unit_stride_stream() {
        let mut pf = Berti::new(1);
        let out = drive_stream(&mut pf, 0x400, 0x10_0000, 1, 64);
        assert!(!out.is_empty(), "trained Berti issues prefetches");
        assert!(
            out.iter().all(|c| c.delta > 0),
            "forward stream gives positive deltas"
        );
    }

    #[test]
    fn learns_large_stride() {
        let mut pf = Berti::new(1);
        let out = drive_stream(&mut pf, 0x400, 0x10_0000, 8, 64);
        assert!(out.iter().any(|c| c.delta % 8 == 0 && c.delta != 0));
    }

    #[test]
    fn produces_page_cross_candidates_on_streams() {
        let mut pf = Berti::new(1);
        let out = drive_stream(&mut pf, 0x400, 0x10_0000, 1, 200);
        assert!(
            out.iter().any(|c| c.crosses_page_4k()),
            "a long stream must eventually cross pages"
        );
    }

    #[test]
    fn untrained_pc_is_silent() {
        let mut pf = Berti::new(1);
        let mut out = Vec::new();
        let info = AccessInfo {
            pc: 0x999,
            va: VirtAddr::new(0x5000),
            hit: false,
            cycle: 0,
            first_page_access: true,
        };
        pf.on_access(&info, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn different_pcs_do_not_share_deltas() {
        let mut pf = Berti::new(1);
        drive_stream(&mut pf, 0x400, 0x10_0000, 1, 64);
        let mut out = Vec::new();
        let info = AccessInfo {
            pc: 0x500,
            va: VirtAddr::new(0x20_0000),
            hit: false,
            cycle: 100_000,
            first_page_access: false,
        };
        pf.on_access(&info, &mut out);
        assert!(out.is_empty(), "PC 0x500 never trained");
    }

    #[test]
    fn random_pattern_stays_quiet() {
        let mut pf = Berti::new(1);
        let mut out = Vec::new();
        let mut rng = pagecross_types::Rng64::new(3);
        for i in 0..200 {
            let va = VirtAddr::new(rng.below(1 << 30) & !63);
            let info = AccessInfo {
                pc: 0x700,
                va,
                hit: false,
                cycle: i * 100,
                first_page_access: false,
            };
            pf.on_access(&info, &mut out);
            pf.on_fill(va, i * 100 + 50);
        }
        // Random deltas never accumulate enough confidence.
        assert!(
            out.len() < 20,
            "random stream should rarely trigger prefetches, got {}",
            out.len()
        );
    }

    #[test]
    fn delta_set_eviction_prefers_weak_entries() {
        let mut set = DeltaSet::default();
        for d in 1..=8i64 {
            set.credit(d);
            set.credit(d);
        }
        for _ in 0..10 {
            set.credit(99); // decays weakest entries, eventually replaces one
        }
        assert!(set.deltas.iter().any(|(d, _)| *d == 99));
    }

    /// `active` must equal the stable sort it replaced: filter, sort by
    /// descending confidence keeping table order on ties, take two.
    #[test]
    fn active_is_a_stable_top_two() {
        let reference = |set: &DeltaSet| -> Vec<i64> {
            let mut best: Vec<(i64, u8)> = set
                .deltas
                .iter()
                .copied()
                .filter(|(_, c)| *c >= ACTIVE_THRESHOLD)
                .collect();
            best.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
            best.into_iter().take(2).map(|(d, _)| d).collect()
        };
        pagecross_types::prop::check(
            &pagecross_types::prop::Config::cases(512),
            |rng| {
                // Confidences from a narrow range around the threshold, so
                // most tables hold ties among their active deltas.
                let n = rng.below(MAX_DELTAS_PER_PC as u64 + 1) as usize;
                (0..n)
                    .map(|i| (i as i64 + 1, 2 + rng.below(5) as u8))
                    .collect::<Vec<(i64, u8)>>()
            },
            |deltas| {
                let set = DeltaSet {
                    deltas: deltas.clone(),
                    updates: 0,
                };
                pagecross_types::prop_assert_eq!(set.active().collect::<Vec<_>>(), reference(&set));
                Ok(())
            },
        );
        let tied = DeltaSet {
            deltas: vec![(3, 5), (-1, 7), (9, 5), (4, 7), (2, 7)],
            updates: 0,
        };
        assert_eq!(tied.active().collect::<Vec<_>>(), vec![-1, 4]);
        assert_eq!(reference(&tied), vec![-1, 4]);
    }

    /// Berti as it was before the history became a ring of columns: a
    /// `VecDeque` of the last `HISTORY_LEN` accesses that `on_fill` scans
    /// newest first, skipping each entry of another PC or past the
    /// deadline. Counts the decays and pending-queue drops it runs into.
    struct RefBerti {
        history: VecDeque<(u64, i64, u64)>,
        pending: VecDeque<PendingMiss>,
        per_pc: FastMap<u64, DeltaSet>,
        decays: u64,
        pending_drops: u64,
    }

    impl RefBerti {
        fn new() -> Self {
            Self {
                history: VecDeque::new(),
                pending: VecDeque::new(),
                per_pc: FastMap::default(),
                decays: 0,
                pending_drops: 0,
            }
        }

        fn on_access(&mut self, info: &AccessInfo, out: &mut Vec<PrefetchCandidate>) {
            let line = info.va.line().raw() as i64;
            if let Some(set) = self.per_pc.get(&info.pc) {
                for delta in set.active() {
                    out.push(candidate(info.pc, info.va, delta, info.first_page_access));
                }
            }
            if self.history.len() == HISTORY_LEN {
                self.history.pop_front();
            }
            self.history.push_back((info.pc, line, info.cycle));
            if !info.hit {
                if self.pending.len() == PENDING_LEN {
                    self.pending.pop_front();
                    self.pending_drops += 1;
                }
                self.pending.push_back(PendingMiss {
                    pc: info.pc,
                    line,
                    issue_cycle: info.cycle,
                });
            }
        }

        fn on_fill(&mut self, va: VirtAddr, fill_cycle: u64) {
            let line = va.line().raw() as i64;
            let Some(pos) = self.pending.iter().position(|m| m.line == line) else {
                return;
            };
            let miss = self.pending.remove(pos).expect("position valid");
            let deadline = fill_cycle.saturating_sub(fill_cycle.saturating_sub(miss.issue_cycle));
            if self.per_pc.len() >= MAX_PCS_BASE && !self.per_pc.contains_key(&miss.pc) {
                self.per_pc.clear();
            }
            let set = self.per_pc.entry(miss.pc).or_default();
            for &(pc, past, cycle) in self.history.iter().rev() {
                if pc != miss.pc || cycle > deadline {
                    continue;
                }
                let delta = miss.line - past;
                if delta != 0 && delta.abs() <= MAX_ABS_DELTA {
                    self.decays += u64::from(set.updates == 255);
                    set.credit(delta);
                }
            }
        }
    }

    /// Every PC's delta table: `(deltas, updates)` by PC.
    fn tables(per_pc: &FastMap<u64, DeltaSet>) -> BTreeMap<u64, (Vec<(i64, u8)>, u16)> {
        per_pc
            .iter()
            .map(|(&pc, set)| (pc, (set.deltas.clone(), set.updates)))
            .collect()
    }

    /// The ring history's mask walk credits the same deltas in the same
    /// order as the `VecDeque` scan it replaced, so candidate streams and
    /// delta tables stay identical through history and pending-queue
    /// wraps and through decays.
    #[test]
    fn mask_walk_matches_the_deque_scan() {
        let (decays, drops) = (std::cell::Cell::new(0), std::cell::Cell::new(0));
        check(
            &Config::cases(48),
            |rng| {
                // (PCs, line stride), then per step (op, line, time step):
                // ops 0..8 miss, 8..10 hit, 10..16 fill.
                let shape = (1 + rng.below(4), [1, 3, 9][rng.below(3) as usize]);
                let ops = vec_of(rng, 200, 2_000, |r| (r.below(16), r.below(96), r.below(64)));
                (shape, ops)
            },
            |((pcs, stride), ops)| {
                let mut dut = Berti::new(1);
                let mut model = RefBerti::new();
                let (mut got, mut want) = (Vec::new(), Vec::new());
                let mut cycle = 0;
                for (step, &(op, line, dt)) in ops.iter().enumerate() {
                    cycle += dt;
                    // Lines 90..96 lie far away, beyond MAX_ABS_DELTA.
                    let line = line * stride.max(&1) + if line >= 90 { 10_000 } else { 0 };
                    // Lines start at 0, the line an unwritten slot holds.
                    let va = VirtAddr::new(line * 64);
                    if op < 10 {
                        let info = AccessInfo {
                            // PC 0 is one of them: an unwritten slot must not match it.
                            pc: 0x10 * (op % pcs.max(&1)),
                            va,
                            hit: op >= 8,
                            cycle,
                            first_page_access: line % 7 == 0,
                        };
                        dut.on_access(&info, &mut got);
                        model.on_access(&info, &mut want);
                        prop_assert_eq!(&got, &want, "candidates differ at step {}", step);
                    } else {
                        let fill_cycle = (cycle + dt * 8).saturating_sub(100);
                        dut.on_fill(va, fill_cycle);
                        model.on_fill(va, fill_cycle);
                    }
                    prop_assert_eq!(
                        tables(&dut.per_pc),
                        tables(&model.per_pc),
                        "delta tables differ at step {}",
                        step
                    );
                }
                decays.set(decays.get() + model.decays);
                drops.set(drops.get() + model.pending_drops);
                Ok(())
            },
        );
        assert!(decays.get() > 0, "no sequence reached a 256-credit decay");
        assert!(drops.get() > 0, "no sequence wrapped the pending queue");
    }
}
