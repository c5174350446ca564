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

use crate::{candidate, AccessInfo, L1dPrefetcher};
use pagecross_types::{FastMap, PrefetchCandidate, VirtAddr};
use std::collections::VecDeque;

const HISTORY_LEN: usize = 64;
const PENDING_LEN: usize = 32;
const MAX_DELTAS_PER_PC: usize = 8;
const MAX_PCS_BASE: usize = 256;
/// Deltas beyond ±4 pages are noise.
const MAX_ABS_DELTA: i64 = 256;
/// Counter value at which a delta becomes active.
const ACTIVE_THRESHOLD: u8 = 4;
const COUNTER_MAX: u8 = 15;

#[derive(Clone, Copy, Debug)]
struct HistEntry {
    pc: u64,
    line: i64,
    cycle: u64,
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
    history: VecDeque<HistEntry>,
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
            history: VecDeque::with_capacity(HISTORY_LEN),
            pending: VecDeque::with_capacity(PENDING_LEN),
            per_pc: FastMap::default(),
            max_pcs: MAX_PCS_BASE * size_multiplier as usize,
        }
    }

    fn record_history(&mut self, pc: u64, line: i64, cycle: u64) {
        if self.history.len() == HISTORY_LEN {
            self.history.pop_front();
        }
        self.history.push_back(HistEntry { pc, line, cycle });
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

        self.record_history(info.pc, line, info.cycle);

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
        for h in self.history.iter().rev() {
            if h.pc != miss.pc || h.cycle > deadline {
                continue;
            }
            let delta = miss.line - h.line;
            if delta != 0 && delta.abs() <= MAX_ABS_DELTA {
                set.credit(delta);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
