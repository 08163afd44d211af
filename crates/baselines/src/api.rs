//! Uniform benchmark-facing interfaces, so every system (Montage included,
//! via adapters in the bench crate) is driven by identical workload code.

use std::hash::{Hash, Hasher};

/// The paper's key format: integer keys "converted to a string and padded to
/// 32 B".
pub type Key32 = [u8; 32];

/// Builds the paper's padded string key for integer `i`.
pub fn make_key(i: u64) -> Key32 {
    let mut k = [0u8; 32]; // NUL padding so "12" and "120" stay distinct
    let s = i.to_string();
    k[..s.len()].copy_from_slice(s.as_bytes());
    k
}

/// The bucket of `key` in a table of `n` buckets.
pub(crate) fn bucket_of(key: &Key32, n: usize) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) % n
}

/// A queue under benchmark: 1:1 enqueue/dequeue workloads.
pub trait BenchQueue: Send + Sync {
    fn enqueue(&self, tid: usize, value: &[u8]);
    /// Returns `true` if an item was dequeued.
    fn dequeue(&self, tid: usize) -> bool;
}

/// A map under benchmark: get/insert/remove mixes.
pub trait BenchMap: Send + Sync {
    /// Returns `true` on hit.
    fn get(&self, tid: usize, key: &Key32) -> bool;
    /// Returns `true` if newly inserted (`false` if the key existed).
    fn insert(&self, tid: usize, key: Key32, value: &[u8]) -> bool;
    /// Returns `true` if the key existed.
    fn remove(&self, tid: usize, key: &Key32) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_padded_strings() {
        let k = make_key(1234);
        assert_eq!(&k[..4], b"1234");
        assert!(k[4..].iter().all(|&b| b == 0));
        assert_ne!(make_key(12), make_key(120), "padding must not alias keys");
    }
}
