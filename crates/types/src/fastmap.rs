//! Fast integer-keyed hash maps for the per-access path.
//!
//! `std`'s default SipHash resists hash flooding, which a simulator whose
//! keys are its own page numbers, PCs and page-table prefixes does not
//! need; on the per-access path it costs more than the lookup it serves.
//! [`FastMap`] and [`FastSet`] are `std` collections with an Fx-style
//! multiply-rotate hasher instead (zero dependencies, deterministic across
//! runs and hosts).
//!
//! # Example
//!
//! ```
//! use pagecross_types::FastMap;
//!
//! let mut m: FastMap<u64, u64> = FastMap::default();
//! m.insert(0x42, 7);
//! assert_eq!(m.get(&0x42), Some(&7));
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 2^64 / golden ratio: an odd multiplier whose products spread
/// sequential keys across the high bits.
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Fx-style hasher: each word is added and multiplied in; `finish` rotates
/// the well-mixed high bits down to where the table takes its bucket index.
#[derive(Clone, Copy, Debug, Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(20)
    }
}

/// `HashMap` with [`FastHasher`]; build with `FastMap::default()`.
///
/// Iteration order differs from a SipHash map, so this alias and
/// [`FastSet`] are only for maps whose iteration order cannot reach a
/// simulated counter. Every current user only inserts, looks up, removes
/// or clears: `CoreEngine::touched_pages`, Berti's `per_pc`, `Vmem`'s
/// mappings (`take_region_4k` probes VPNs in ascending order),
/// `PageWalker::nodes` and the `CorePager` maps and sets of
/// `pagecross-os`.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// `HashSet` with [`FastHasher`]; build with `FastSet::default()`.
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(v)
    }

    #[test]
    fn map_and_set_behave_like_std() {
        let mut m: FastMap<u64, u64> = FastMap::default();
        let mut s: FastSet<(u8, u64)> = FastSet::default();
        let mut reference = HashMap::new();
        let mut rng = crate::Rng64::new(11);
        for i in 0..5_000u64 {
            // Page-number-like keys: dense runs plus sparse far values.
            let k = if i % 3 == 0 {
                rng.below(1 << 40)
            } else {
                i >> 1
            };
            assert_eq!(m.insert(k, i), reference.insert(k, i));
            s.insert(((k & 3) as u8, k));
            if i % 7 == 0 {
                assert_eq!(m.remove(&(i >> 2)), reference.remove(&(i >> 2)));
            }
        }
        assert_eq!(m.len(), reference.len());
        for (k, v) in &reference {
            assert_eq!(m.get(k), Some(v));
            assert!(s.contains(&((k & 3) as u8, *k)));
        }
        m.clear();
        assert!(m.is_empty());
    }

    #[test]
    fn hash_is_deterministic_and_spreads_sequential_keys() {
        assert_eq!(hash_of(&0x1234u64), hash_of(&0x1234u64));
        assert_ne!(hash_of(&(1u8, 2u64)), hash_of(&(2u8, 1u64)));
        // Sequential page numbers must not collide in the low bits the
        // table indexes with, nor in the high bits it tags with.
        let low: std::collections::HashSet<u64> =
            (0..1024u64).map(|k| hash_of(&k) & 1023).collect();
        let high: std::collections::HashSet<u64> =
            (0..1024u64).map(|k| hash_of(&k) >> 57).collect();
        assert!(low.len() > 600, "low bits cluster: {}", low.len());
        assert_eq!(high.len(), 128, "top-7 tag bits must all occur");
    }

    #[test]
    fn byte_writes_cover_the_tail() {
        assert_ne!(hash_of(&"abcdefgh1"), hash_of(&"abcdefgh2"));
        assert_ne!(hash_of(&[1u8, 2, 3][..]), hash_of(&[1u8, 2, 4][..]));
    }
}
