//! Segregated size classes.

/// Superblock size: the unit in which the heap is carved.
pub const SB_SIZE: usize = 256 * 1024;

/// Size-class table (bytes). Multiples of 16 so every block is 16-aligned.
const CLASSES: [usize; 23] = [
    16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096, 6144, 8192,
    12288, 16384, 24576, 32768, 65536,
];

/// Number of size classes.
pub const NUM_CLASSES: usize = CLASSES.len();

/// Largest supported allocation.
pub const MAX_ALLOC: usize = CLASSES[NUM_CLASSES - 1];

/// Smallest class index whose blocks hold `size` bytes.
///
/// Panics if `size` exceeds [`MAX_ALLOC`] (Montage payloads are bounded well
/// below it; see DESIGN.md).
#[inline]
pub fn class_for_size(size: usize) -> usize {
    assert!(
        size <= MAX_ALLOC,
        "allocation of {size} B exceeds MAX_ALLOC ({MAX_ALLOC} B)"
    );
    // Classes are few; a linear scan of a 23-entry const table beats a
    // branchy formula and is trivially correct.
    CLASSES.iter().position(|&c| c >= size).unwrap()
}

/// Block size of class `c`.
#[inline]
pub fn class_size(c: usize) -> usize {
    CLASSES[c]
}

/// Blocks per superblock for class `c`.
#[inline]
pub fn blocks_per_sb(c: usize) -> u32 {
    (SB_SIZE / CLASSES[c]) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_are_sorted_and_16_aligned() {
        for w in CLASSES.windows(2) {
            assert!(w[0] < w[1]);
        }
        for &c in &CLASSES {
            assert_eq!(c % 16, 0);
        }
    }

    #[test]
    fn class_for_size_is_tight() {
        assert_eq!(class_size(class_for_size(1)), 16);
        assert_eq!(class_size(class_for_size(16)), 16);
        assert_eq!(class_size(class_for_size(17)), 32);
        assert_eq!(class_size(class_for_size(1024)), 1024);
        assert_eq!(class_size(class_for_size(1025)), 1536);
        assert_eq!(class_size(class_for_size(MAX_ALLOC)), MAX_ALLOC);
    }

    #[test]
    #[should_panic]
    fn oversize_panics() {
        class_for_size(MAX_ALLOC + 1);
    }

    #[test]
    fn every_class_fills_a_superblock() {
        for (c, &class) in CLASSES.iter().enumerate() {
            assert!(blocks_per_sb(c) >= 4, "class {c} too coarse");
            // Slack at the end of a superblock (for non-power-of-two classes)
            // must stay under one block.
            assert!(SB_SIZE - blocks_per_sb(c) as usize * class < class);
        }
    }
}
