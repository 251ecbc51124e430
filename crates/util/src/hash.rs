//! The workspace's one hasher for in-memory maps and sets.
//!
//! [`FxHasher`] is the multiply-rotate hash rustc uses for its own tables:
//! one rotate, one xor and one multiply per word. The keys hashed in this
//! workspace are interned symbols, constraint trees, node ids, content
//! hashes and net names, all derived from design sources that a user checks
//! on their own behalf. No key arrives from an untrusted peer, so the
//! resistance to crafted collisions that std's seeded SipHash `RandomState`
//! buys costs time and protects nothing here. The hasher is unseeded, so a
//! map's iteration order is also the same from run to run.
//!
//! Hashes that are written out or compared across builds do not use this
//! module: `lilac_core`'s `ComponentHash` and the fuzz fingerprint fold FNV
//! over an explicit byte encoding.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed through [`FxHasher`]; build one with `default()`.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
/// A `HashSet` keyed through [`FxHasher`]; build one with `default()`.
pub type FxHashSet<K> = HashSet<K, FxBuildHasher>;
/// The `BuildHasher` of [`FxHashMap`] and [`FxHashSet`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// The multiplier of rustc's Fx hash: `2^64 / π`, rounded to odd.
const K: u64 = 0x517c_c1b7_2722_0a95;

/// A fast, unseeded, non-cryptographic hasher.
///
/// Bytes are read as little-endian words, so a value hashes the same on
/// every platform.
#[derive(Clone, Copy, Default, Debug)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("an 8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            // The tail's length goes in the unused top byte, so `"ab"` and
            // `"ab\0"` differ.
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            word[7] = tail.len() as u8;
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn fx<T: Hash + ?Sized>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn pinned_values() {
        // Pinned so that a change to the algorithm is a deliberate one:
        // maps keyed through it iterate in this order on every run.
        assert_eq!(fx(&0u32), 0);
        assert_eq!(fx(&1u32), K);
        assert_eq!(fx(&1u64), K);
        assert_eq!(fx(&(1u32, 2u32)), (K.rotate_left(5) ^ 2).wrapping_mul(K));
        assert_eq!(fx("ab"), 0xdbb7_1e9b_eda2_8abe);
        assert_eq!(fx(&u128::MAX), 0xddad_3309_6392_6e52);
    }

    #[test]
    fn short_tails_do_not_collide() {
        let mut a = FxHasher::default();
        a.write(b"ab");
        let mut b = FxHasher::default();
        b.write(b"ab\0");
        assert_ne!(a.finish(), b.finish());
        assert_ne!(fx(""), fx("\0"));
    }

    #[test]
    fn maps_and_sets_work() {
        let mut map: FxHashMap<&str, u32> = FxHashMap::default();
        map.insert("G", 1);
        *map.entry("G").or_insert(0) += 1;
        assert_eq!(map["G"], 2);
        let set: FxHashSet<u32> = (0..100).collect();
        assert_eq!(set.len(), 100);
        assert!(set.contains(&42));
    }
}
