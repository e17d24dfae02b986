//! [`IdMap`] / [`IdSet`]: hash tables for keys that **replicas mint** —
//! [`Dot`](crate::Dot), [`ProcessId`](crate::ProcessId), ballots.
//!
//! The standard library's default hasher (SipHash under a per-process random
//! key) exists so that whoever chooses the keys cannot choose them to
//! collide. Identifiers are small consecutive integers that this code base
//! generates itself (`DotGen` counts up), so that protection buys nothing
//! there and costs a long keyed hash on every lookup of the command path.
//! [`IdHasher`] is one add and one multiply per integer written.
//!
//! Tables keyed by values a **client** controls — [`Key`](crate::Key),
//! [`Rifl`](crate::Rifl) — must keep the default hasher: a client that can
//! pick 10 000 keys landing in one bucket turns every conflict lookup into a
//! linear scan (hostile input, ROADMAP aim 3).
//!
//! Iteration order of an `IdMap` depends on the order of insertions and
//! removals, not on the process; anything that must repeat exactly (encoded
//! state, recovery order) still sorts.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A [`HashMap`] keyed by replica-minted identifiers (see the module docs).
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A [`HashSet`] of replica-minted identifiers (see the module docs).
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// Multiply-rotate hasher for small integer keys; deterministic, not
/// collision-resistant (see the module docs for where it may be used).
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

/// An odd constant with well-spread bits (2⁶⁴ / φ).
const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

impl IdHasher {
    fn mix(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.mix(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    fn finish(&self) -> u64 {
        // A product's high bits are its best mixed; the table indexes
        // buckets by the low ones.
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dot;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(value: impl Hash) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(value)
    }

    #[test]
    fn consecutive_identifiers_spread_over_buckets_and_tags() {
        // What the table uses: the low bits pick a bucket, the top seven are
        // the in-group tag. Neither may collapse for counting identifiers.
        let dots = (1..=3u32).flat_map(|source| (1..=4096u64).map(move |s| Dot::new(source, s)));
        let hashes: Vec<u64> = dots.map(hash_of).collect();
        let buckets: HashSet<u64> = hashes.iter().map(|h| h & 0xfff).collect();
        let tags: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        assert!(buckets.len() > 3500, "{} of 4096 buckets", buckets.len());
        assert_eq!(tags.len(), 128);
        let distinct: HashSet<u64> = hashes.iter().copied().collect();
        assert_eq!(distinct.len(), hashes.len());
    }

    #[test]
    fn hashing_is_the_same_in_every_process() {
        assert_eq!(hash_of(Dot::new(2, 7)), hash_of(Dot::new(2, 7)));
        assert_ne!(hash_of(Dot::new(2, 7)), hash_of(Dot::new(7, 2)));
        let mut map: IdMap<Dot, u8> = IdMap::default();
        map.insert(Dot::new(1, 1), 1);
        assert_eq!(map.get(&Dot::new(1, 1)), Some(&1));
    }
}
