//! The one hasher behind every per-instruction map in the library.
//!
//! Allocations, channel lookups, link statistics and generator
//! dependencies are all hashed by small integer keys (device, micro,
//! part, class) on the optimizer's and executors' hot paths. std's
//! default SipHash is built to resist HashDoS — an adversary choosing
//! keys that collide — and pays for it on every lookup. Here the keys
//! come from the user's own schedule, so that resistance buys nothing;
//! [`FxHasher`] is the multiply-rotate hash rustc uses (as in the
//! `rustc-hash` crate), a few instructions per word. Its `finish` folds
//! the high bits, where the multiply leaves its entropy, into the low
//! bits that pick a table bucket.
//!
//! The hash is deterministic (no per-process seed), so map iteration
//! order is too; no output may depend on it all the same — callers that
//! emit a map's contents sort them first.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A [`HashMap`] hashed by [`FxHasher`]; build one with `default()`.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// A [`HashSet`] hashed by [`FxHasher`]; build one with `default()`.
pub type FxHashSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// rustc's Fx hash: one rotate, xor and multiply per word written.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    /// Byte by byte, so the hash of a byte stream does not depend on how
    /// it was split across calls. As in rustc's Fx, zero bytes written
    /// first to a fresh hasher leave it at zero, so variable-length byte
    /// keys differing only in leading zeros collide; the library's keys
    /// are fixed-width integers, which take the word paths below.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
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
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{MicroId, PartId};
    use crate::ledger::AllocKey;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(t: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(t)
    }

    #[test]
    fn hashing_is_deterministic_across_hasher_instances() {
        let key = (3u32, 17u32, 1u32);
        let a = hash(&key);
        assert_eq!(a, hash(&key));
        let mut h = FxHasher::default();
        key.hash(&mut h);
        assert_eq!(h.finish(), a);
        assert_eq!(hash(&AllocKey::Ckpt(MicroId(5), PartId(1))), {
            let mut h = FxHasher::default();
            AllocKey::Ckpt(MicroId(5), PartId(1)).hash(&mut h);
            h.finish()
        });
    }

    #[test]
    fn dense_integer_keys_hash_pairwise_distinct() {
        let mut tuples = FxHashSet::default();
        let mut allocs = FxHashSet::default();
        for d in 0..64u32 {
            for m in 0..256u32 {
                for p in 0..4u32 {
                    assert!(tuples.insert(hash(&(d, m, p))), "({d}, {m}, {p})");
                }
            }
        }
        for m in 0..256u32 {
            for p in 0..4u32 {
                let (m, p) = (MicroId(m), PartId(p));
                for key in [
                    AllocKey::Act(m, p),
                    AllocKey::Ckpt(m, p),
                    AllocKey::OutBuf(m, p),
                    AllocKey::InBuf(m, p),
                    AllocKey::Wgrad(m, p),
                ] {
                    assert!(allocs.insert(hash(&key)), "{key:?}");
                }
            }
        }
        assert!(allocs.insert(hash(&AllocKey::Snapshot)));
        assert_eq!(tuples.len(), 64 * 256 * 4);
        assert_eq!(allocs.len(), 256 * 4 * 5 + 1);
    }

    #[test]
    fn byte_writes_agree_however_they_are_chunked() {
        let bytes: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let mut whole = FxHasher::default();
        whole.write(&bytes);
        for chunk in [1, 3, 7, 8, 13, 64, 999] {
            let mut parts = FxHasher::default();
            for c in bytes.chunks(chunk) {
                parts.write(c);
            }
            assert_eq!(parts.finish(), whole.finish(), "chunk {chunk}");
        }
        let mut flipped = bytes.clone();
        flipped[500] ^= 1;
        let mut other = FxHasher::default();
        other.write(&flipped);
        assert_ne!(other.finish(), whole.finish());
    }
}
