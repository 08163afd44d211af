//! The keyed-payload layout shared by the keyed structures
//! ([`MontageHashMap`](crate::MontageHashMap),
//! [`MontageSortedList`](crate::MontageSortedList)): the key's byte image
//! (fixed-size `K: Copy`) followed by the value bytes. Creation encodes,
//! recovery decodes the key, and an overwrite leaves the key image alone
//! (`EpochSys::overwrite_tail` with `size_of::<K>()` as the head).

use std::mem::{size_of, MaybeUninit};

/// `key ‖ value`, ready for `pnew_bytes`.
pub(crate) fn encode<K: Copy>(key: &K, value: &[u8]) -> Vec<u8> {
    let ksize = size_of::<K>();
    let mut buf = vec![0u8; ksize + value.len()];
    // SAFETY: `buf` holds at least `ksize` bytes, `key` is a valid K of
    // exactly that size, and the two cannot overlap (fresh allocation).
    // lint: allow(raw-write): serializes the key into a transient Vec; the pool copy goes through pnew_bytes
    unsafe {
        std::ptr::copy_nonoverlapping(key as *const K as *const u8, buf.as_mut_ptr(), ksize);
    }
    buf[ksize..].copy_from_slice(value);
    buf
}

/// The key a payload written by [`encode`] starts with.
pub(crate) fn key_of<K: Copy>(bytes: &[u8]) -> K {
    assert!(
        bytes.len() >= size_of::<K>(),
        "payload shorter than its key"
    );
    let mut k = MaybeUninit::<K>::uninit();
    // SAFETY: the assert covers the read; `encode` stored a valid K's image
    // in these bytes, and K: Copy has no drop obligations.
    // lint: allow(raw-write): copies pool bytes into a transient stack value, not into the pool
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), k.as_mut_ptr() as *mut u8, size_of::<K>());
        k.assume_init()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_and_value_round_trip() {
        let bytes = encode(&0xfeed_f00d_u64, b"value");
        assert_eq!(bytes.len(), 8 + 5);
        assert_eq!(key_of::<u64>(&bytes), 0xfeed_f00d);
        assert_eq!(&bytes[8..], b"value");
        let wide: [u8; 32] = std::array::from_fn(|i| i as u8);
        assert_eq!(key_of::<[u8; 32]>(&encode(&wide, b"")), wide);
    }
}
