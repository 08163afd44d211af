//! Deterministic key→shard routing.
//!
//! The router is the only thing that must agree between the process that
//! wrote a key and the process that recovers it: a key stored on shard 2
//! must be looked up on shard 2 after a restart. We therefore hash with an
//! explicitly-specified function (FNV-1a) instead of
//! `std::collections::hash_map::DefaultHasher`, whose algorithm and seeding
//! are not guaranteed stable across processes or toolchains. Recovery does
//! not actually *depend* on the router (each shard's pool carries its own
//! items, and [`crate::ShardedKvStore::recover`] rebuilds each shard from
//! its own image), but stability keeps routing, debugging, and the
//! single-pool/multi-pool equivalence tests deterministic.

use crate::Key;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Stable FNV-1a hash of a key's bytes.
#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Deterministic key→shard map over a fixed shard count.
///
/// Two routers with the same `n_shards` agree on every key, in every
/// process, forever — assignment is a pure function of the key bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardRouter {
    n_shards: usize,
}

impl ShardRouter {
    pub fn new(n_shards: usize) -> Self {
        assert!(n_shards > 0, "router needs at least one shard");
        ShardRouter { n_shards }
    }

    #[inline]
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// The shard that owns `key`. A one-shard store has nothing to choose
    /// and hashes nothing.
    #[inline]
    pub fn route(&self, key: &Key) -> usize {
        if self.n_shards == 1 {
            return 0;
        }
        // Multiply-shift instead of `% n`: the low bits of FNV over short,
        // mostly-zero-padded keys are the weakest, and `%` keeps only those.
        (((fnv1a(key) as u128) * (self.n_shards as u128)) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::make_key;

    #[test]
    fn routing_is_stable_and_in_range() {
        let r = ShardRouter::new(4);
        for i in 0..1000 {
            let k = make_key(i);
            let s = r.route(&k);
            assert!(s < 4);
            assert_eq!(s, r.route(&k), "same key, same shard");
            assert_eq!(s, ShardRouter::new(4).route(&k), "fresh router agrees");
        }
    }

    #[test]
    fn single_shard_routes_everything_to_zero() {
        let r = ShardRouter::new(1);
        for i in 0..100 {
            assert_eq!(r.route(&make_key(i)), 0);
        }
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn sequential_keys_spread_across_shards() {
        let r = ShardRouter::new(4);
        let mut counts = [0usize; 4];
        for i in 0..4000 {
            counts[r.route(&make_key(i))] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                c > 500 && c < 2000,
                "shard {s} got {c} of 4000 sequential keys"
            );
        }
    }
}
