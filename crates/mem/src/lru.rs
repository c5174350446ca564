//! The set-associative LRU array behind [`crate::cache::Cache`],
//! [`crate::tlb::Tlb`] and the page-structure caches of
//! [`crate::page_table::PageWalker`].
//!
//! Ways are stored as two parallel columns indexed `set * ways + way`: the
//! match keys a way search scans, and the LRU stamps only a full set's
//! fill reads. An owner keeps its payload (a cache block's metadata, a
//! TLB entry's frame) in a third column of the same length, indexed by the
//! way indices this array returns.
//!
//! A key is the owner's tag shifted left over a valid bit, so a way search
//! is one compare per way and `0` is the key of an empty way (a tag may be
//! `0`: the PSC-L5 key of every address below 2^48 is). The tick advances
//! only when a stamp is written; only the order of stamps is ever read,
//! and every written stamp is distinct, so the least recently used way of
//! a full set is unique.

/// Where [`LruArray::place`] put a tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Placement {
    /// The tag was already resident in this way.
    Resident(usize),
    /// The tag went into this previously empty way.
    Free(usize),
    /// The tag replaced the least recently used way, whose tag is given.
    Evicted(usize, u64),
}

impl Placement {
    /// The way the tag now occupies.
    #[inline]
    pub(crate) fn index(self) -> usize {
        match self {
            Placement::Resident(i) | Placement::Free(i) | Placement::Evicted(i, _) => i,
        }
    }
}

/// A set-associative array of tags with LRU replacement.
#[derive(Clone, Debug)]
pub(crate) struct LruArray {
    sets: u64,
    ways: usize,
    keys: Vec<u64>,
    stamps: Vec<u64>,
    tick: u64,
}

impl LruArray {
    /// An empty array of `sets` sets (a power of two, checked by the
    /// owner) of `ways` ways each.
    pub(crate) fn new(sets: u64, ways: usize) -> Self {
        debug_assert!(sets.is_power_of_two());
        let n = sets as usize * ways;
        Self {
            sets,
            ways,
            keys: vec![0; n],
            stamps: vec![0; n],
            tick: 0,
        }
    }

    /// Number of sets.
    pub(crate) fn sets(&self) -> u64 {
        self.sets
    }

    /// Ways per set.
    pub(crate) fn ways(&self) -> usize {
        self.ways
    }

    /// Number of ways, the length of an owner's payload column.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// The index of the first way of the set `set` selects (its low bits).
    #[inline]
    fn set_base(&self, set: u64) -> usize {
        (set & (self.sets - 1)) as usize * self.ways
    }

    /// The way holding `tag` in the set `set` selects, if resident.
    #[inline]
    pub(crate) fn find(&self, set: u64, tag: u64) -> Option<usize> {
        let k = tag << 1 | 1;
        let base = self.set_base(set);
        self.keys[base..base + self.ways]
            .iter()
            .position(|&w| w == k)
            .map(|i| base + i)
    }

    /// Marks way `i` the most recently used of its set.
    #[inline]
    pub(crate) fn touch(&mut self, i: usize) {
        self.tick += 1;
        self.stamps[i] = self.tick;
    }

    /// Makes `tag` the most recently used way of the set `set` selects: its
    /// resident way, else the set's first empty way, else the set's least
    /// recently used way. One pass over the set's keys finds the first
    /// two; only a full set reads its stamps.
    pub(crate) fn place(&mut self, set: u64, tag: u64) -> Placement {
        debug_assert!(tag < 1 << 63, "tag {tag:#x} does not fit a key");
        let k = tag << 1 | 1;
        let base = self.set_base(set);
        let ways = base..base + self.ways;
        let (mut resident, mut free) = (None, None);
        for (i, &w) in self.keys[ways.clone()].iter().enumerate() {
            if w == k {
                resident = Some(base + i);
                break;
            }
            if w == 0 && free.is_none() {
                free = Some(base + i);
            }
        }
        if let Some(i) = resident {
            self.touch(i);
            return Placement::Resident(i);
        }
        let placement = match free {
            Some(i) => Placement::Free(i),
            None => {
                let i = base
                    + self.stamps[ways]
                        .iter()
                        .enumerate()
                        .min_by_key(|&(_, &stamp)| stamp)
                        .map_or(0, |(i, _)| i);
                Placement::Evicted(i, self.keys[i] >> 1)
            }
        };
        let i = placement.index();
        self.keys[i] = k;
        self.touch(i);
        placement
    }

    /// The tag of resident way `i`.
    #[inline]
    pub(crate) fn tag(&self, i: usize) -> u64 {
        self.keys[i] >> 1
    }

    /// Empties way `i`, returning the tag it held.
    pub(crate) fn invalidate(&mut self, i: usize) -> u64 {
        std::mem::take(&mut self.keys[i]) >> 1
    }

    /// Empties every resident way whose tag `doomed` accepts, returning
    /// how many it emptied.
    pub(crate) fn invalidate_where(&mut self, mut doomed: impl FnMut(u64) -> bool) -> u32 {
        let mut dropped = 0;
        for k in &mut self.keys {
            if *k != 0 && doomed(*k >> 1) {
                *k = 0;
                dropped += 1;
            }
        }
        dropped
    }

    /// Number of resident ways.
    pub(crate) fn occupancy(&self) -> usize {
        self.keys.iter().filter(|&&k| k != 0).count()
    }
}
