//! Payload blocks: the only data Montage keeps in NVM.
//!
//! Every payload starts with a fixed header recording the epoch in which it
//! was created or last modified, whether it is a fresh allocation (`ALLOC`),
//! a copy-on-write replacement (`UPDATE`), or an anti-payload (`DELETE`), and
//! a `uid` shared between a logical object's versions and its anti-payload so
//! recovery can cancel them (paper Sec. 5).

use pmem::{POff, PmemPool};

/// Byte size of the payload header. User data follows immediately.
pub const HDR_SIZE: usize = 32;

/// Header magic for a live payload block.
pub const MAGIC_LIVE: u32 = 0x4D54_4147; // "MTAG"

/// Header magic written when a block is reclaimed, so the post-crash sweep
/// can never resurrect freed memory (see DESIGN.md, reclamation soundness).
pub const MAGIC_TOMBSTONE: u32 = 0xDEAD_D00D;

/// Payload kind, as in the paper's `enum type = {ALLOC, UPDATE, DELETE}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum PayloadKind {
    /// Created by `PNEW`.
    Alloc = 1,
    /// A copy-on-write replacement created by `set`.
    Update = 2,
    /// An anti-payload created by `PDELETE`.
    Delete = 3,
}

impl PayloadKind {
    fn from_u8(v: u8) -> Option<PayloadKind> {
        match v {
            1 => Some(PayloadKind::Alloc),
            2 => Some(PayloadKind::Update),
            3 => Some(PayloadKind::Delete),
            _ => None,
        }
    }
}

/// Raw header accessors over a block at offset `blk` (the block base).
///
/// Layout (32 bytes, all little-endian):
/// ```text
/// 0  magic: u32
/// 4  kind:  u8   |  pad: u8 | type_tag: u16
/// 8  epoch: u64
/// 16 uid:   u64
/// 24 size:  u32 (user bytes)  | sum: u32 (header checksum)
/// ```
///
/// The final word holds a checksum over the other header fields **and the
/// user data bytes**, so that a *torn* payload — a power cut persisting only
/// some of the block's cache lines (see `pmem::ChaosConfig::torn_line_permille`
/// and the nonblocking advance, which deliberately declares epochs durable
/// while a bypassed straggler may still hold half-written payloads) — is
/// detectable: any tear either drops the checksum word (leaving stale bytes
/// that won't match) or drops bytes the stored checksum covers. Recovery
/// quarantines blocks whose checksum does not verify. This is sound because
/// a payload whose content can be torn at a crash cut is always one whose
/// operation was never acknowledged (see DESIGN.md, helping-protocol
/// invariants), so quarantining it preserves the consistent prefix.
pub struct Header;

/// Checksum over the header fields (excluding the magic, which acts as the
/// liveness discriminant, and including the raw kind byte so invalid kinds
/// perturb it too).
#[inline]
fn hdr_sum(kind: u8, tag: u16, epoch: u64, uid: u64, size: u32) -> u32 {
    let mut h: u32 = 0x9E37_79B9;
    for w in [
        (kind as u32) | ((tag as u32) << 16),
        epoch as u32,
        (epoch >> 32) as u32,
        uid as u32,
        (uid >> 32) as u32,
        size,
    ] {
        h = (h ^ w).wrapping_mul(0x85EB_CA6B).rotate_left(13);
    }
    // Never produce 0: a zeroed (never-persisted) checksum word must always
    // read as corrupt.
    if h == 0 {
        1
    } else {
        h
    }
}

/// Folds the data checksum into the header checksum; keeps the never-zero
/// property so an unwritten checksum word still reads as corrupt.
#[inline]
fn full_sum(kind: u8, tag: u16, epoch: u64, uid: u64, size: u32, data_sum: u32) -> u32 {
    let h = hdr_sum(kind, tag, epoch, uid, size) ^ data_sum.rotate_left(7);
    if h == 0 {
        1
    } else {
        h
    }
}

/// FNV-1a 64-bit prime: cheap, odd (so multiplication is invertible), and
/// good avalanche after the final fold for checksum purposes.
const SUM_PRIME: u64 = 0x0000_0100_0000_01B3;

impl Header {
    /// Checksum over a payload's user bytes, for the header seal, one pass.
    ///
    /// The original byte-at-a-time FNV-1a put ~4k serially dependent
    /// multiplies on every 4 KiB value seal/reseal (~4 µs per update — it
    /// dominated the wire benchmarks). Four independent u64 lanes striding
    /// 32-byte blocks keep the multiplier pipeline full; any flipped byte
    /// still flips the folded result with overwhelming probability, which is
    /// all the torn-payload quarantine at recovery needs. Not a cryptographic
    /// or portable format — sums are only ever compared against ones the same
    /// code computed.
    pub fn data_sum(bytes: &[u8]) -> u32 {
        // Distinct lane seeds derived from the FNV-1a 64 offset basis.
        const BASIS: u64 = 0xCBF2_9CE4_8422_2325u64.wrapping_mul(SUM_PRIME);
        let mut lanes = [1u64, 2, 3, 4].map(|i| BASIS.wrapping_add(i));
        let (blocks, tail) = bytes.split_at(bytes.len() & !31);
        for blk in blocks.chunks_exact(32) {
            for (i, lane) in lanes.iter_mut().enumerate() {
                let w = u64::from_le_bytes(blk[i * 8..i * 8 + 8].try_into().unwrap());
                *lane = (*lane ^ w).wrapping_mul(SUM_PRIME);
            }
        }
        let mut h = lanes[0];
        for &lane in &lanes[1..] {
            h = (h ^ lane).wrapping_mul(SUM_PRIME);
        }
        for &b in tail {
            h = (h ^ u64::from(b)).wrapping_mul(SUM_PRIME);
        }
        // Total length in, so content that only differs by trailing zeros
        // cannot alias; fold high into low bits for the 32-bit seal.
        h = (h ^ bytes.len() as u64).wrapping_mul(SUM_PRIME);
        (h ^ (h >> 32)) as u32
    }

    /// [`Header::data_sum`] over the `size` user bytes stored at `blk`'s
    /// data area in the pool, read where they lie.
    pub fn data_sum_pooled(pool: &PmemPool, blk: POff, size: u32) -> u32 {
        // SAFETY: the caller bounds `size` against the arena (a live payload's
        // own header, or recovery's `validate_header`); payload access is the
        // calling operation's alone (constraint 2) while the sum runs.
        Self::data_sum(unsafe { pool.bytes(Self::data(blk), size as usize) })
    }

    /// Writes a fresh header sealing `size` user bytes whose
    /// [`Header::data_sum`] is `data_sum`. The caller writes exactly those
    /// bytes at [`Header::data`] — before or after this call; the checksum
    /// only has to match by the time the block's epoch can be declared
    /// durable, and a crash cut that catches header and data out of step is
    /// precisely what the checksum is there to detect.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn write_new(
        pool: &PmemPool,
        blk: POff,
        kind: PayloadKind,
        tag: u16,
        epoch: u64,
        uid: u64,
        size: u32,
        data_sum: u32,
    ) {
        // SAFETY: the caller hands a block of at least HDR_SIZE bytes that it
        // owns exclusively (fresh allocation or recovery quarantine).
        unsafe {
            pool.write::<u32>(blk, &MAGIC_LIVE);
            pool.write::<u8>(blk.add(4), &(kind as u8));
            pool.write::<u8>(blk.add(5), &0u8);
            pool.write::<u16>(blk.add(6), &tag);
            pool.write::<u64>(blk.add(8), &epoch);
            pool.write::<u64>(blk.add(16), &uid);
            pool.write::<u32>(blk.add(24), &size);
            pool.write::<u32>(
                blk.add(28),
                &full_sum(kind as u8, tag, epoch, uid, size, data_sum),
            );
        }
    }

    /// The checksum word that seals the block's current header fields —
    /// with `kind` as the kind byte — and current pool-resident data bytes.
    fn sum_with_kind(pool: &PmemPool, blk: POff, kind: u8) -> u32 {
        let size = Self::size(pool, blk);
        full_sum(
            kind,
            Self::tag(pool, blk),
            Self::epoch(pool, blk),
            Self::uid(pool, blk),
            size,
            Self::data_sum_pooled(pool, blk, size),
        )
    }

    /// The raw kind byte, valid or not.
    #[inline]
    fn kind_byte(pool: &PmemPool, blk: POff) -> u8 {
        // SAFETY: see `magic` — in-bounds header byte, any bit pattern ok.
        unsafe { pool.read(blk.add(4)) }
    }

    /// Recomputes and rewrites the checksum word from the current header
    /// fields and the current pool-resident data bytes. Used after an
    /// in-place `set` mutated the data area.
    #[inline]
    pub fn reseal(pool: &PmemPool, blk: POff) {
        let sum = Self::sum_with_kind(pool, blk, Self::kind_byte(pool, blk));
        // SAFETY: the owning operation has exclusive write access to the
        // header during its mutation.
        unsafe { pool.write::<u32>(blk.add(28), &sum) }
    }

    #[inline]
    pub fn magic(pool: &PmemPool, blk: POff) -> u32 {
        // SAFETY: `blk` heads an in-bounds payload block; header words are
        // plain data, readable even when never initialized.
        unsafe { pool.read(blk) }
    }

    #[inline]
    pub fn kind(pool: &PmemPool, blk: POff) -> Option<PayloadKind> {
        PayloadKind::from_u8(Self::kind_byte(pool, blk))
    }

    #[inline]
    pub fn set_kind(pool: &PmemPool, blk: POff, kind: PayloadKind) {
        let sum = Self::sum_with_kind(pool, blk, kind as u8);
        // SAFETY: kind transitions happen inside the owning operation (or
        // single-threaded recovery), so the header words cannot race.
        unsafe {
            pool.write::<u8>(blk.add(4), &(kind as u8));
            pool.write::<u32>(blk.add(28), &sum);
        }
    }

    #[inline]
    pub fn tag(pool: &PmemPool, blk: POff) -> u16 {
        // SAFETY: see `magic`.
        unsafe { pool.read(blk.add(6)) }
    }

    #[inline]
    pub fn epoch(pool: &PmemPool, blk: POff) -> u64 {
        // SAFETY: see `magic`.
        unsafe { pool.read(blk.add(8)) }
    }

    #[inline]
    pub fn uid(pool: &PmemPool, blk: POff) -> u64 {
        // SAFETY: see `magic`.
        unsafe { pool.read(blk.add(16)) }
    }

    #[inline]
    pub fn size(pool: &PmemPool, blk: POff) -> u32 {
        // SAFETY: see `magic`.
        unsafe { pool.read(blk.add(24)) }
    }

    /// Verifies the block checksum (header fields + user data). `false`
    /// means some of the block's lines reached durable media only partially
    /// — a torn header, a half-flushed in-place update, a bypassed
    /// straggler's unfinished payload — and the block must be quarantined,
    /// not trusted. The caller must have validated the `size` field's bound
    /// against the arena before calling (recovery's `validate_header` does).
    #[inline]
    pub fn checksum_ok(pool: &PmemPool, blk: POff) -> bool {
        // SAFETY: see `magic` — in-bounds header word, any bit pattern ok.
        let stored = unsafe { pool.read::<u32>(blk.add(28)) };
        stored == Self::sum_with_kind(pool, blk, Self::kind_byte(pool, blk))
    }

    /// Marks a block as reclaimed. The caller schedules the header line for
    /// write-back with the surrounding epoch boundary's flush batch.
    #[inline]
    pub fn tombstone(pool: &PmemPool, blk: POff) {
        // SAFETY: only the retiring operation tombstones a block, so the
        // in-bounds magic word has a single writer.
        unsafe { pool.write::<u32>(blk, &MAGIC_TOMBSTONE) }
    }

    /// Offset of the user bytes.
    #[inline]
    pub fn data(blk: POff) -> POff {
        blk.add(HDR_SIZE as u64)
    }
}

/// A typed handle to a payload block. `Copy`; the `T` is only a phantom —
/// all access is via [`crate::EpochSys`] so epoch labelling stays correct.
pub struct PHandle<T: ?Sized> {
    pub(crate) blk: POff,
    _m: std::marker::PhantomData<*const T>,
}

// SAFETY: a handle is just an offset; all access goes through the pool.
unsafe impl<T: ?Sized> Send for PHandle<T> {}
unsafe impl<T: ?Sized> Sync for PHandle<T> {}

impl<T: ?Sized> PHandle<T> {
    /// Wraps a raw block offset (e.g. one returned by recovery).
    #[inline]
    pub fn from_raw(blk: POff) -> Self {
        PHandle {
            blk,
            _m: std::marker::PhantomData,
        }
    }

    /// The block's base offset (header included).
    #[inline]
    pub fn raw(&self) -> POff {
        self.blk
    }

    /// The persistent-null handle.
    #[inline]
    pub fn null() -> Self {
        Self::from_raw(POff::NULL)
    }

    #[inline]
    pub fn is_null(&self) -> bool {
        self.blk.is_null()
    }
}

impl<T: ?Sized> Clone for PHandle<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: ?Sized> Copy for PHandle<T> {}

impl<T: ?Sized> PartialEq for PHandle<T> {
    fn eq(&self, other: &Self) -> bool {
        self.blk == other.blk
    }
}
impl<T: ?Sized> Eq for PHandle<T> {}

impl<T: ?Sized> std::fmt::Debug for PHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PHandle({:?})", self.blk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::PmemConfig;

    #[test]
    fn header_roundtrip() {
        let pool = PmemPool::new(PmemConfig::default());
        let blk = POff::new(8192);
        let data = vec![0xA5u8; 1024];
        pool.write_bytes(Header::data(blk), &data);
        Header::write_new(
            &pool,
            blk,
            PayloadKind::Update,
            99,
            12,
            345,
            1024,
            Header::data_sum(&data),
        );
        assert_eq!(Header::magic(&pool, blk), MAGIC_LIVE);
        assert_eq!(Header::kind(&pool, blk), Some(PayloadKind::Update));
        assert_eq!(Header::tag(&pool, blk), 99);
        assert_eq!(Header::epoch(&pool, blk), 12);
        assert_eq!(Header::uid(&pool, blk), 345);
        assert_eq!(Header::size(&pool, blk), 1024);
        assert_eq!(Header::data(blk).raw(), blk.raw() + 32);
        assert!(Header::checksum_ok(&pool, blk));
    }

    #[test]
    fn tombstone_invalidates() {
        let pool = PmemPool::new(PmemConfig::default());
        let blk = POff::new(8192);
        Header::write_new(
            &pool,
            blk,
            PayloadKind::Alloc,
            0,
            5,
            1,
            0,
            Header::data_sum(&[]),
        );
        Header::tombstone(&pool, blk);
        assert_eq!(Header::magic(&pool, blk), MAGIC_TOMBSTONE);
        // Other fields are untouched; only the magic decides liveness.
        assert_eq!(Header::epoch(&pool, blk), 5);
    }

    #[test]
    fn checksum_verifies_and_detects_tears() {
        let pool = PmemPool::new(PmemConfig::default());
        let blk = POff::new(8192);
        let data = [7u8; 64];
        pool.write_bytes(Header::data(blk), &data);
        Header::write_new(
            &pool,
            blk,
            PayloadKind::Alloc,
            7,
            12,
            345,
            64,
            Header::data_sum(&data),
        );
        assert!(Header::checksum_ok(&pool, blk));
        Header::set_kind(&pool, blk, PayloadKind::Delete);
        assert!(Header::checksum_ok(&pool, blk), "set_kind keeps the sum");
        // A tear that kept the first 16 bytes but lost uid/size/sum reads as
        // corrupt (the stale checksum word no longer matches).
        // SAFETY: in-bounds test scratch words; this thread owns the pool.
        unsafe {
            pool.write::<u64>(blk.add(16), &0u64);
            pool.write::<u32>(blk.add(24), &0u32);
            pool.write::<u32>(blk.add(28), &0u32);
        }
        assert!(!Header::checksum_ok(&pool, blk));
    }

    #[test]
    fn checksum_covers_data_bytes() {
        // A payload whose header persisted but whose data lines tore (the
        // bypassed-straggler crash shape) must read as corrupt.
        let pool = PmemPool::new(PmemConfig::default());
        let blk = POff::new(8192);
        let data = [0x5Au8; 200];
        pool.write_bytes(Header::data(blk), &data);
        Header::write_new(
            &pool,
            blk,
            PayloadKind::Alloc,
            1,
            9,
            77,
            200,
            Header::data_sum(&data),
        );
        assert!(Header::checksum_ok(&pool, blk));
        // Corrupt one data byte far from the header: still detected.
        pool.write_bytes(Header::data(blk).add(150), &[0x00]);
        assert!(!Header::checksum_ok(&pool, blk));
        // An in-place mutation becomes valid again after a reseal.
        Header::reseal(&pool, blk);
        assert!(Header::checksum_ok(&pool, blk));
        // Pooled and slice-based data sums agree.
        let mut cur = [0u8; 200];
        pool.read_bytes(Header::data(blk), &mut cur);
        assert_eq!(
            Header::data_sum(&cur),
            Header::data_sum_pooled(&pool, blk, 200)
        );
    }

    #[test]
    fn pooled_and_oneshot_sums_agree_at_every_chunk_boundary() {
        // data_sum seals at pnew time from the caller's slice; recovery (and
        // reseal) recompute with data_sum_pooled over the pool's bytes. The
        // two must agree for every size straddling the lane width (32), or
        // valid payloads would be quarantined.
        let pool = PmemPool::new(PmemConfig::default());
        let blk = POff::new(8192);
        for size in [0usize, 1, 31, 32, 33, 255, 1023, 1024, 1025, 4096, 5000] {
            let data: Vec<u8> = (0..size).map(|i| (i * 7 + 13) as u8).collect();
            pool.write_bytes(Header::data(blk), &data);
            assert_eq!(
                Header::data_sum(&data),
                Header::data_sum_pooled(&pool, blk, size as u32),
                "size {size}"
            );
        }
    }

    #[test]
    fn data_sum_sees_every_byte_and_the_length() {
        let base = vec![0u8; 4096];
        let s0 = Header::data_sum(&base);
        for pos in [0usize, 31, 32, 1023, 1024, 4095] {
            let mut b = base.clone();
            b[pos] = 1;
            assert_ne!(Header::data_sum(&b), s0, "flip at {pos} undetected");
        }
        assert_ne!(Header::data_sum(&base[..4095]), s0, "truncation undetected");
    }

    #[test]
    fn kind_parsing_rejects_garbage() {
        assert_eq!(PayloadKind::from_u8(0), None);
        assert_eq!(PayloadKind::from_u8(4), None);
        assert_eq!(PayloadKind::from_u8(2), Some(PayloadKind::Update));
    }

    #[test]
    fn handles_are_value_types() {
        let a: PHandle<u64> = PHandle::from_raw(POff::new(64));
        let b = a;
        assert_eq!(a, b);
        assert!(!a.is_null());
        assert!(PHandle::<u64>::null().is_null());
    }
}
