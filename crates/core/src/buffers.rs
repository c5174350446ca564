//! The Virtual and Physical Update Buffers (paper §III-B, §III-C2).
//!
//! * **vUB** — remembers page-cross prefetches the filter *discarded*, keyed
//!   by **virtual** line (prefetchers operate in the virtual space). A later
//!   L1D demand miss that hits in the vUB is a *false negative*: the filter
//!   threw away a prefetch that would have saved the miss, so the stored
//!   hash indices receive positive training.
//! * **pUB** — remembers page-cross prefetches the filter *issued*, keyed by
//!   **physical** line (training triggers on L1D demand hits and evictions,
//!   and L1Ds are physically tagged). Demand hits on PCB blocks reward the
//!   stored indices; evictions of zero-hit PCB blocks punish them.
//!
//! Both buffers carry the exact weight-table indices and the active
//! system-feature mask captured at prediction time, so training updates the
//! same entries that produced the decision.

use std::collections::VecDeque;

/// Training context captured at prediction time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UpdateEntry {
    /// Line address (virtual for vUB, physical for pUB).
    pub line: u64,
    /// Per-weight-table hash indices.
    pub indices: Vec<u16>,
    /// Active system-feature bitmask at prediction time.
    pub sf_mask: u8,
}

/// A small FIFO update buffer with associative lookup by line.
#[derive(Clone, Debug)]
pub struct UpdateBuffer {
    entries: VecDeque<UpdateEntry>,
    capacity: usize,
}

impl UpdateBuffer {
    /// Creates a buffer of `capacity` entries (4 for vUB, 128 for pUB in
    /// the paper's Table III configuration).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "update buffer capacity must be positive");
        Self {
            entries: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Inserts an entry, evicting the oldest when full. An existing entry
    /// for the same line is replaced (refreshed).
    pub fn insert(&mut self, entry: UpdateEntry) {
        if let Some(pos) = self.entries.iter().position(|e| e.line == entry.line) {
            self.entries.remove(pos);
        } else if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(entry);
    }

    /// Removes and returns the entry for `line`, if present.
    pub fn take(&mut self, line: u64) -> Option<UpdateEntry> {
        let pos = self.entries.iter().position(|e| e.line == line)?;
        self.entries.remove(pos)
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(line: u64) -> UpdateEntry {
        UpdateEntry {
            line,
            indices: vec![7, 9],
            sf_mask: 0b01,
        }
    }

    #[test]
    fn insert_take_roundtrip() {
        let mut b = UpdateBuffer::new(4);
        b.insert(entry(100));
        let e = b.take(100).unwrap();
        assert_eq!(e.indices, vec![7, 9]);
        assert_eq!(e.sf_mask, 0b01);
        assert!(b.take(100).is_none(), "take removes");
        assert!(b.is_empty());
    }

    #[test]
    fn fifo_eviction_when_full() {
        let mut b = UpdateBuffer::new(2);
        b.insert(entry(1));
        b.insert(entry(2));
        b.insert(entry(3)); // evicts 1
        assert!(b.take(1).is_none());
        assert!(b.take(2).is_some());
        assert!(b.take(3).is_some());
    }

    #[test]
    fn reinsert_refreshes_position() {
        let mut b = UpdateBuffer::new(2);
        b.insert(entry(1));
        b.insert(entry(2));
        b.insert(entry(1)); // refresh 1 -> 2 is now oldest
        b.insert(entry(3)); // evicts 2
        assert!(b.take(2).is_none());
        assert!(b.take(1).is_some());
    }

    #[test]
    fn paper_capacities() {
        assert_eq!(UpdateBuffer::new(4).capacity(), 4); // vUB
        assert_eq!(UpdateBuffer::new(128).capacity(), 128); // pUB
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = UpdateBuffer::new(0);
    }
}
