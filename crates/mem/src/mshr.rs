//! Miss Status Holding Registers.
//!
//! An MSHR tracks in-flight misses per cache so that a second miss to the
//! same line *merges* into the outstanding request instead of issuing a
//! duplicate memory access, and so that the filter's system snapshot can
//! report in-flight L1D misses (an adaptive-thresholding input, Fig. 8).
//!
//! Entries are retired lazily: a lookup at cycle `c` first drops every entry
//! whose fill completed at or before `c`. The engine does not present
//! cycles in order (a prefetch runs at its translation-ready cycle, later
//! than the next demand's dispatch), so `c` may be earlier than the last
//! cycle seen; an entry once dropped stays dropped.
//!
//! The file is nearly full on the common path (the L1D holds 15–16 of its
//! 16 entries at a typical lookup), so every operation is built to avoid a
//! pass over it: entries live in dense columns in insertion order, a
//! watermark (the earliest completion cycle in the file) lets expiry skip
//! the file until an entry has completed, and a 64-bit line signature lets
//! a lookup reject an absent line without scanning.

use pagecross_types::LineAddr;

/// The signature bit of `line`.
#[inline]
fn sig_bit(line: LineAddr) -> u64 {
    1 << (line.raw() & 63)
}

/// A fixed-capacity MSHR file.
///
/// Entry `i` is `(lines[i], completes[i], demand[i])`, in insertion order;
/// a replaced entry keeps its slot. Invariants: `earliest` is the smallest
/// of `completes` (`u64::MAX` when empty) and `signature` has exactly the
/// `sig_bit`s of `lines`.
#[derive(Clone, Debug)]
pub struct Mshr {
    lines: Vec<LineAddr>,
    completes: Vec<u64>,
    demand: Vec<bool>,
    earliest: u64,
    signature: u64,
    capacity: usize,
    /// Misses that merged into an existing entry.
    pub merges: u64,
    /// Misses that found the MSHR full (charged a retry penalty by the owner).
    pub full_stalls: u64,
}

impl Mshr {
    /// Creates an MSHR file with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u32) -> Self {
        assert!(capacity > 0, "MSHR capacity must be positive");
        let capacity = capacity as usize;
        Self {
            lines: Vec::with_capacity(capacity),
            completes: Vec::with_capacity(capacity),
            demand: Vec::with_capacity(capacity),
            earliest: u64::MAX,
            signature: 0,
            capacity,
            merges: 0,
            full_stalls: 0,
        }
    }

    /// Drops every entry completed at or before `now`; free until the
    /// earliest entry has completed.
    #[inline]
    fn expire(&mut self, now: u64) {
        if now >= self.earliest {
            self.drop_completed(now);
        }
    }

    /// Compacts the file in place, keeping the order of the survivors, and
    /// recomputes `earliest` and `signature` in the same pass.
    #[inline(never)]
    fn drop_completed(&mut self, now: u64) {
        let (mut kept, mut earliest, mut signature) = (0, u64::MAX, 0);
        for i in 0..self.completes.len() {
            let c = self.completes[i];
            if c > now {
                let line = self.lines[i];
                self.lines[kept] = line;
                self.completes[kept] = c;
                self.demand[kept] = self.demand[i];
                earliest = earliest.min(c);
                signature |= sig_bit(line);
                kept += 1;
            }
        }
        self.lines.truncate(kept);
        self.completes.truncate(kept);
        self.demand.truncate(kept);
        self.earliest = earliest;
        self.signature = signature;
    }

    /// Looks up an in-flight miss for `line`; returns its completion cycle
    /// (the first entry for `line` in insertion order).
    #[inline]
    pub fn lookup(&mut self, line: LineAddr, now: u64) -> Option<u64> {
        self.expire(now);
        if self.signature & sig_bit(line) == 0 {
            return None;
        }
        let i = self.lines.iter().position(|&l| l == line)?;
        self.merges += 1;
        Some(self.completes[i])
    }

    /// Extra cycles charged when a miss finds the MSHR file full (retry
    /// after a slot frees). A fixed penalty keeps back-pressure bounded:
    /// deriving the delay from resident completion times compounds, because
    /// delayed entries become the reference for later allocations.
    const FULL_PENALTY: u64 = 8;

    /// Allocates an entry completing at `completes_at`. When the file is
    /// full, the request is charged a retry penalty and replaces the
    /// earliest-completing entry (the slot that frees first).
    pub fn allocate(&mut self, line: LineAddr, now: u64, completes_at: u64) -> u64 {
        self.allocate_kind(line, now, completes_at, true)
    }

    /// [`Mshr::allocate`] with an explicit demand/prefetch tag; prefetch
    /// entries are excluded from [`Mshr::demand_occupancy`].
    ///
    /// A full file replaces the first slot completing at `earliest`, in
    /// place: the replacement keeps that slot's position in the lookup
    /// order.
    pub fn allocate_kind(
        &mut self,
        line: LineAddr,
        now: u64,
        completes_at: u64,
        demand: bool,
    ) -> u64 {
        self.expire(now);
        if self.lines.len() >= self.capacity {
            self.full_stalls += 1;
            let delayed = completes_at + Self::FULL_PENALTY;
            // One pass finds the slot and summarises the survivors.
            let (mut slot, mut earliest, mut signature) = (None, delayed, sig_bit(line));
            for (i, (&c, &l)) in self.completes.iter().zip(&self.lines).enumerate() {
                if slot.is_none() && c == self.earliest {
                    slot = Some(i);
                } else {
                    earliest = earliest.min(c);
                    signature |= sig_bit(l);
                }
            }
            let slot = slot.expect("a full file holds its earliest entry");
            self.lines[slot] = line;
            self.completes[slot] = delayed;
            self.demand[slot] = demand;
            self.earliest = earliest;
            self.signature = signature;
            return delayed;
        }
        self.lines.push(line);
        self.completes.push(completes_at);
        self.demand.push(demand);
        self.earliest = self.earliest.min(completes_at);
        self.signature |= sig_bit(line);
        completes_at
    }

    /// Number of in-flight entries at `now`.
    pub fn occupancy(&mut self, now: u64) -> u32 {
        self.expire(now);
        self.lines.len() as u32
    }

    /// Number of in-flight *demand* entries at `now` — the "many in-flight
    /// L1D misses" input of the adaptive thresholding scheme; prefetch
    /// entries are excluded so healthy prefetch-saturated phases do not
    /// trip the ROB-pressure rule.
    pub fn demand_occupancy(&mut self, now: u64) -> u32 {
        self.expire(now);
        self.demand.iter().filter(|&&d| d).count() as u32
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr(n)
    }

    #[test]
    fn merge_returns_existing_completion() {
        let mut m = Mshr::new(4);
        m.allocate(line(1), 0, 100);
        assert_eq!(m.lookup(line(1), 10), Some(100));
        assert_eq!(m.merges, 1);
    }

    #[test]
    fn entries_expire() {
        let mut m = Mshr::new(4);
        m.allocate(line(1), 0, 100);
        assert_eq!(m.lookup(line(1), 100), None);
        assert_eq!(m.occupancy(150), 0);
    }

    #[test]
    fn full_mshr_delays() {
        let mut m = Mshr::new(2);
        m.allocate(line(1), 0, 50);
        m.allocate(line(2), 0, 80);
        let done = m.allocate(line(3), 0, 200);
        assert_eq!(
            done,
            200 + Mshr::FULL_PENALTY,
            "full MSHR adds the retry penalty"
        );
        assert_eq!(m.full_stalls, 1);
    }

    #[test]
    fn demand_occupancy_excludes_prefetches() {
        let mut m = Mshr::new(8);
        m.allocate_kind(line(1), 0, 100, true);
        m.allocate_kind(line(2), 0, 100, false);
        m.allocate_kind(line(3), 0, 100, false);
        assert_eq!(m.occupancy(10), 3);
        assert_eq!(m.demand_occupancy(10), 1);
    }

    #[test]
    fn occupancy_tracks_inflight() {
        let mut m = Mshr::new(8);
        m.allocate(line(1), 0, 100);
        m.allocate(line(2), 0, 120);
        assert_eq!(m.occupancy(50), 2);
        assert_eq!(m.occupancy(110), 1);
        assert_eq!(m.occupancy(130), 0);
    }

    #[test]
    fn different_lines_do_not_merge() {
        let mut m = Mshr::new(4);
        m.allocate(line(1), 0, 100);
        assert_eq!(m.lookup(line(2), 0), None);
        assert_eq!(m.merges, 0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = Mshr::new(0);
    }
}
