//! The generated load: operation cycles drawn from `--seed` through the
//! repository's own `workloads` generators, the self-describing value
//! format, the request packets, and the digest that pins all of it.

use std::sync::Arc;

use workloads::mix::{MapMix, MapOp, MapOpGen};
use workloads::ycsb::{YcsbOp, YcsbWorkload};
use workloads::zipfian::KeyDist;

/// Requests in flight per connection-round.
pub const DEPTH: usize = 8;
/// A connection's request stream is a fixed cycle of this many rounds.
pub const CYCLE_ROUNDS: usize = 1 << 16;
/// Ops per latency sample of the in-process workload.
pub const MAP_ROUND: usize = 64;
/// Rounds of each connection whose packet bytes enter the digest.
const DIGEST_ROUNDS: usize = 1024;

/// What an operation does to its key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Get,
    /// Wire `set` / map `put`.
    Put,
    /// Map `remove` (the wire workloads have none).
    Remove,
}

/// One generated operation, packed: key in the low 30 bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op(u32);

impl Op {
    pub fn new(kind: Kind, key: u64) -> Op {
        assert!(key < 1 << 30, "key exceeds the packed range");
        Op(key as u32 | (kind as u32) << 30)
    }

    pub fn key(self) -> u64 {
        u64::from(self.0 & ((1 << 30) - 1))
    }

    pub fn kind(self) -> Kind {
        match self.0 >> 30 {
            0 => Kind::Get,
            1 => Kind::Put,
            _ => Kind::Remove,
        }
    }
}

/// Derives one stream's generator seed from the run seed, so streams of one
/// run differ and the same run seed always gives the same streams.
fn stream_seed(seed: u64, stream: u64) -> u64 {
    splitmix(seed ^ (stream + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One connection's cycle of YCSB operations (Zipfian keys `1..=records`).
pub fn ycsb_cycle(
    records: u64,
    read_permille: u32,
    seed: u64,
    conn: u64,
    rounds: usize,
) -> Arc<[Op]> {
    let n = (rounds * DEPTH) as u64;
    YcsbWorkload::with_mix(records, n, stream_seed(seed, conn), read_permille)
        .map(|op| match op {
            YcsbOp::Read(k) => Op::new(Kind::Get, k),
            YcsbOp::Update(k) => Op::new(Kind::Put, k),
        })
        .collect()
}

/// The generator's cycle of map operations (uniform keys `1..=key_range`).
pub fn map_cycle(mix: MapMix, key_range: u64, seed: u64, ops: usize) -> Arc<[Op]> {
    let mut gen = MapOpGen::new(mix, KeyDist::Uniform, key_range, stream_seed(seed, 0));
    (0..ops)
        .map(|_| match gen.next() {
            MapOp::Get(k) => Op::new(Kind::Get, k),
            MapOp::Insert(k) => Op::new(Kind::Put, k),
            MapOp::Remove(k) => Op::new(Kind::Remove, k),
        })
        .collect()
}

// ---- values ---------------------------------------------------------------

/// Bytes of every value that identify it: 8 hex digits derived from the key,
/// then 8 hex digits of the version. The rest is filler that depends on the
/// version, so bytes of two versions cannot be mixed unnoticed. All ASCII:
/// the text protocol transcodes anything else.
pub const VALUE_HEAD: usize = 16;

fn hex8(x: u32) -> [u8; 8] {
    let mut out = [0u8; 8];
    for (i, b) in out.iter_mut().enumerate() {
        *b = b"0123456789abcdef"[((x >> (28 - 4 * i)) & 0xF) as usize];
    }
    out
}

pub fn key_tag(key: u64) -> [u8; 8] {
    hex8(splitmix(key) as u32)
}

fn filler_byte(version: u32) -> u8 {
    b'a' + (version % 26) as u8
}

/// Appends the `len`-byte value of `(key, version)`.
pub fn push_value(out: &mut Vec<u8>, key: u64, version: u32, len: usize) {
    assert!(len >= VALUE_HEAD);
    out.extend_from_slice(&key_tag(key));
    out.extend_from_slice(&hex8(version));
    out.resize(out.len() + len - VALUE_HEAD, filler_byte(version));
}

/// The version `bytes` carries if every byte of it is the value of
/// `(key, that version)`; `None` for bytes that were never written for `key`.
pub fn value_version(bytes: &[u8], key: u64) -> Option<u32> {
    if bytes.len() < VALUE_HEAD || bytes[..8] != key_tag(key) {
        return None;
    }
    let version = u32::from_str_radix(std::str::from_utf8(&bytes[8..16]).ok()?, 16).ok()?;
    let fill = filler_byte(version);
    bytes[VALUE_HEAD..]
        .iter()
        .all(|&b| b == fill)
        .then_some(version)
}

/// The padded 32-byte key of record `i`, as the paper's benchmarks use.
pub fn padded_key(i: u64) -> [u8; 32] {
    let mut k = [0u8; 32];
    let mut buf = [0u8; 20];
    let digits = decimal(i, &mut buf);
    k[..digits.len()].copy_from_slice(digits);
    k
}

// ---- packets --------------------------------------------------------------

/// The decimal digits of `n`, written at the end of `buf`.
fn decimal(mut n: u64, buf: &mut [u8; 20]) -> &[u8] {
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return &buf[i..];
        }
    }
}

pub fn push_decimal(out: &mut Vec<u8>, n: u64) {
    out.extend_from_slice(decimal(n, &mut [0u8; 20]));
}

/// Serialises rounds of a wire workload into memcached text-protocol bytes.
pub struct PacketBuilder {
    value_len: usize,
    /// Updates carry ` rid=<n>` (the connection has attached a session).
    rids: bool,
}

impl PacketBuilder {
    pub fn new(value_len: usize, rids: bool) -> PacketBuilder {
        PacketBuilder { value_len, rids }
    }

    /// Replaces `out` with the packet for `ops`. Values are version
    /// `version`; `rid` is the session's last used request id.
    pub fn build(&self, ops: &[Op], version: u32, rid: &mut u64, out: &mut Vec<u8>) {
        out.clear();
        for op in ops {
            match op.kind() {
                Kind::Get => {
                    out.extend_from_slice(b"get k");
                    push_decimal(out, op.key());
                    out.extend_from_slice(b"\r\n");
                }
                _ => {
                    out.extend_from_slice(b"set k");
                    push_decimal(out, op.key());
                    out.extend_from_slice(b" 0 0 ");
                    push_decimal(out, self.value_len as u64);
                    if self.rids {
                        *rid += 1;
                        out.extend_from_slice(b" rid=");
                        push_decimal(out, *rid);
                    }
                    out.extend_from_slice(b"\r\n");
                    push_value(out, op.key(), version, self.value_len);
                    out.extend_from_slice(b"\r\n");
                }
            }
        }
    }
}

// ---- digest ---------------------------------------------------------------

pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of a wire workload's load: every operation of every connection's
/// cycle, and the exact packet bytes of each connection's first rounds.
pub fn wire_digest(cycles: &[Arc<[Op]>], builder: &PacketBuilder) -> u64 {
    let mut h = Fnv::new();
    let mut pkt = Vec::new();
    for ops in cycles {
        for op in ops.iter() {
            h.feed(&op.0.to_le_bytes());
        }
        let mut rid = 0;
        for round in ops.chunks(DEPTH).take(DIGEST_ROUNDS) {
            builder.build(round, 0, &mut rid, &mut pkt);
            h.feed(&pkt);
        }
    }
    h.finish()
}

/// Digest of the in-process workload's load: every operation of the cycle
/// and one sample value.
pub fn map_digest(ops: &[Op], value_len: usize) -> u64 {
    let mut h = Fnv::new();
    for op in ops {
        h.feed(&op.0.to_le_bytes());
    }
    let mut v = Vec::new();
    push_value(&mut v, 1, 0, value_len);
    h.feed(&v);
    h.finish()
}

/// The digests recorded for seed 1, one `workload seed digest` per line.
const EXPECTED_DIGESTS: &str = include_str!("../expected_digests.txt");

/// Checks `digest` against the recorded one, if this `(workload, seed)` has
/// one: a later edit to `crates/workloads` must not silently change what is
/// measured.
pub fn check_digest(workload: &str, seed: u64, digest: u64) -> Result<(), String> {
    for line in EXPECTED_DIGESTS.lines() {
        let mut f = line.split_whitespace();
        if f.next() == Some(workload) && f.next() == Some(&seed.to_string()) {
            let want = f.next().unwrap_or("");
            let got = format!("{digest:016x}");
            if want != got {
                return Err(format!(
                    "stream_digest of {workload} seed {seed} is {got}, recorded {want}: the generated load changed"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_pack_and_unpack() {
        for kind in [Kind::Get, Kind::Put, Kind::Remove] {
            let op = Op::new(kind, 123_456);
            assert_eq!((op.kind(), op.key()), (kind, 123_456));
        }
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let a = ycsb_cycle(1000, 500, 7, 0, 64);
        assert_eq!(a, ycsb_cycle(1000, 500, 7, 0, 64));
        assert_ne!(a, ycsb_cycle(1000, 500, 8, 0, 64));
        assert_ne!(a, ycsb_cycle(1000, 500, 7, 1, 64));
        assert_eq!(a.len(), 64 * DEPTH);
    }

    #[test]
    fn values_name_their_key_and_version() {
        let mut v = Vec::new();
        push_value(&mut v, 42, 3, 64);
        assert_eq!(v.len(), 64);
        assert!(v.is_ascii());
        assert_eq!(value_version(&v, 42), Some(3));
        assert_eq!(value_version(&v, 43), None);
        // One filler byte of another version is bytes never written.
        let mut mixed = v.clone();
        mixed[40] = filler_byte(4);
        assert_eq!(value_version(&mixed, 42), None);
        assert_eq!(value_version(&v[..10], 42), None);
    }

    #[test]
    fn packets_are_memcached_text() {
        let b = PacketBuilder::new(16, true);
        let ops = [Op::new(Kind::Get, 5), Op::new(Kind::Put, 17)];
        let (mut rid, mut pkt) = (9, Vec::new());
        b.build(&ops, 0, &mut rid, &mut pkt);
        let mut want = b"get k5\r\nset k17 0 0 16 rid=10\r\n".to_vec();
        push_value(&mut want, 17, 0, 16);
        want.extend_from_slice(b"\r\n");
        assert_eq!(pkt, want);
        assert_eq!(rid, 10);
    }

    #[test]
    fn digest_is_fnv1a_and_tracks_the_load() {
        let mut h = Fnv::new();
        h.feed(b"a");
        assert_eq!(h.finish(), 0xAF63_DC4C_8601_EC8C);
        let b = PacketBuilder::new(32, false);
        let one = [ycsb_cycle(100, 500, 1, 0, 8)];
        let two = [ycsb_cycle(100, 500, 2, 0, 8)];
        assert_eq!(wire_digest(&one, &b), wire_digest(&one, &b));
        assert_ne!(wire_digest(&one, &b), wire_digest(&two, &b));
        assert!(check_digest("no_such_workload", 1, 0).is_ok());
    }

    #[test]
    fn decimal_and_padded_keys() {
        let mut out = Vec::new();
        push_decimal(&mut out, 0);
        push_decimal(&mut out, 18_446_744_073_709_551_615);
        assert_eq!(out, b"018446744073709551615");
        let k = padded_key(120);
        assert_eq!(&k[..3], b"120");
        assert!(k[3..].iter().all(|&b| b == 0));
    }
}
