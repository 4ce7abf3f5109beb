//! One fixed hasher for the maps the compiler keys by ids and symbolic
//! terms.
//!
//! The keys of those maps (`StmtId`, `VarId`, `(StmtId, VarId,
//! Property)`, a symbolic atom) are small and made by the compiler, so
//! SipHash's protection against chosen keys buys nothing there and its
//! cost showed in every analysis. [`FxHasher`] is rustc's word hash:
//! rotate, xor, multiply, one step per word. Maps keyed by text a client
//! chose (symbol names, the service's caches) keep `RandomState`.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// rustc's `FxHasher`: `hash = (hash.rotl(5) ^ word) * K` per word.
#[derive(Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

const K: u64 = 0x517c_c1b7_2722_0a95;

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
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
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
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` on [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` on [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn fx<T: Hash>(x: T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(x)
    }

    #[test]
    fn the_hash_is_fixed_and_spreads_small_ids() {
        // The same key hashes the same in every process.
        assert_eq!(fx(1u32), K);
        assert_eq!(fx((1u32, 2u32)), (K.rotate_left(5) ^ 2).wrapping_mul(K));
        // Consecutive ids land in distinct buckets of a small table and
        // differ in their top seven bits (the map's control byte).
        let ids: Vec<u64> = (0u32..64).map(fx).collect();
        let low: HashSet<u64> = ids.iter().map(|h| h & 63).collect();
        let top: HashSet<u64> = ids.iter().map(|h| h >> 57).collect();
        assert_eq!(low.len(), 64);
        assert!(top.len() > 32, "{}", top.len());
        // Byte slices fold in 8-byte words, the tail zero-padded.
        let mut h = FxHasher::default();
        h.write(b"abcdefghij");
        let mut w = FxHasher::default();
        w.write_u64(u64::from_le_bytes(*b"abcdefgh"));
        w.write_u64(u64::from_le_bytes(*b"ij\0\0\0\0\0\0"));
        assert_eq!(h.finish(), w.finish());
    }
}
