//! The keyed-payload layout shared by the keyed structures
//! ([`MontageHashMap`](crate::MontageHashMap),
//! [`MontageSortedList`](crate::MontageSortedList)): the key's byte image
//! (fixed-size `K: Copy`) followed by the value bytes. Creation hands both
//! parts to `EpochSys::pnew_parts`, recovery decodes the key, and an
//! overwrite leaves the key image alone
//! (`EpochSys::overwrite_tail` with `size_of::<K>()` as the head).

use std::mem::{size_of, MaybeUninit};

/// A key's byte image: the head of a keyed payload (`pnew_parts`' `head`).
pub(crate) fn key_image<K: Copy>(key: &K) -> &[u8] {
    // SAFETY: `key` is a live K, readable for exactly `size_of::<K>()` bytes
    // while the borrow lasts, and `u8` has no alignment requirement. The key
    // types in use (integers, byte arrays) have no padding bytes.
    unsafe { std::slice::from_raw_parts(key as *const K as *const u8, size_of::<K>()) }
}

/// The key a payload created from [`key_image`] starts with.
pub(crate) fn key_of<K: Copy>(bytes: &[u8]) -> K {
    assert!(
        bytes.len() >= size_of::<K>(),
        "payload shorter than its key"
    );
    let mut k = MaybeUninit::<K>::uninit();
    // SAFETY: the assert covers the read; creation stored a valid K's image
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
        let bytes = [key_image(&0xfeed_f00d_u64), b"value"].concat();
        assert_eq!(bytes.len(), 8 + 5);
        assert_eq!(key_of::<u64>(&bytes), 0xfeed_f00d);
        assert_eq!(&bytes[8..], b"value");
        let wide: [u8; 32] = std::array::from_fn(|i| i as u8);
        assert_eq!(key_of::<[u8; 32]>(key_image(&wide)), wide);
    }
}
