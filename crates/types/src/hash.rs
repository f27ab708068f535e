//! A small, fast, deterministic hasher for the simulator's model tables.
//!
//! `std`'s default `RandomState` hashes with SipHash-1-3, which is
//! built to resist hash flooding from untrusted keys. The simulator's
//! tables (prefetcher metadata, Hawkeye's OPTgen samplers) key on
//! addresses and instruction pointers it generates itself, are probed
//! on every access, and gain nothing from that resistance. [`FastHasher`]
//! is an Fx-style multiply-add hasher in the manner of rustc-hash 2: each
//! word is folded in as `h = (h + w) * K`, and [`finish`](Hasher::finish)
//! rotates the high bits down. The rotation matters because a
//! multiplication only carries bits upwards: without it, keys that share
//! their low bits (page-aligned line addresses, structural slots spaced
//! 256 apart) would share the low bits of their hash and cluster in the
//! table's buckets.
//!
//! Swapping the hasher cannot change what a model computes: a map's
//! lookups, inserts, removals, `clear` and `retain` do not depend on the
//! hasher, and the one kind of operation that does — iteration order —
//! was already randomised per map instance under `RandomState`, so no
//! result could depend on it. (A [`FastMap`] iterates in a deterministic
//! order, which is no weaker.)
//!
//! # Example
//!
//! ```
//! use atc_types::hash::FastMap;
//!
//! let mut m: FastMap<u64, u32> = FastMap::default();
//! m.insert(4096, 1);
//! assert_eq!(m.get(&4096), Some(&1));
//! ```

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed through [`FastHasher`]. Build one with
/// `FastMap::default()`.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// The multiplier rustc-hash 2 uses: odd, with well-spread bits.
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Fx-style multiply-add hasher (see the [module docs](self)).
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
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
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // Bring the well-mixed high bits down to where the table takes
        // its bucket index from.
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(t: &T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(t)
    }

    #[test]
    fn equal_keys_hash_equal_and_maps_work() {
        assert_eq!(hash_of(&(7u64, 9u8)), hash_of(&(7u64, 9u8)));
        let mut m: FastMap<(u64, u64), u64> = FastMap::default();
        for i in 0..1000u64 {
            m.insert((i, i * 64), i);
        }
        assert_eq!(m.len(), 1000);
        assert!((0..1000u64).all(|i| m[&(i, i * 64)] == i));
    }

    #[test]
    fn page_aligned_keys_spread_over_low_bits() {
        // 4096 keys that share their low 12 bits must still fill most of
        // a 4096-bucket index: the finishing rotation at work.
        let buckets: HashSet<u64> = (0..4096u64).map(|i| hash_of(&(i << 12)) & 0xFFF).collect();
        assert!(buckets.len() > 2048, "only {} buckets", buckets.len());
    }
}
