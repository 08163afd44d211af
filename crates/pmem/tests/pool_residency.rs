//! A pool costs what it touches: a fresh pool's images are zeroed lazily, so
//! its resident set grows only where the program stores (DESIGN.md S1,
//! Memory), and a crash copies only what the durable image received. The
//! tests read the process's RSS, so they run one at a time under one lock,
//! each dropping its pools before it lets go. The sanitizer's shadow is one
//! eager entry per line, so a `persist-san` build is resident by design.

#![cfg(all(target_os = "linux", not(feature = "persist-san")))]

use pmem::{POff, PmemConfig, PmemMode, PmemPool};

const MIB: usize = 1 << 20;

/// Held by each test for its whole run: the RSS it reads is the process's.
static RSS_READER: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn rss() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: usize = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .expect("VmRSS line");
    kib * 1024
}

#[test]
fn a_pool_is_resident_only_where_touched() {
    let _alone = RSS_READER.lock().unwrap_or_else(|e| e.into_inner());
    const SIZE: usize = 512 * MIB;
    const STRIDE: usize = 64 * MIB;
    for mode in [PmemMode::Fast, PmemMode::Strict] {
        let before = rss();
        let pool = PmemPool::new(PmemConfig {
            size: SIZE,
            mode,
            ..PmemConfig::default()
        });
        let fresh = rss().saturating_sub(before);
        assert!(
            fresh < 16 * MIB,
            "{mode:?}: a fresh 512 MiB pool is {} MiB resident",
            fresh / MIB
        );

        // One line every 64 MiB: a page each (a huge page at worst), never
        // the spacing between them.
        let offs: Vec<u64> = (4096..SIZE as u64).step_by(STRIDE).collect();
        for &off in &offs {
            pool.write_bytes(POff::new(off), &[0xA5; 64]);
        }
        let grown = rss().saturating_sub(before + fresh);
        assert!(
            grown < offs.len() * 4 * MIB,
            "{mode:?}: {} one-line writes made {} MiB resident",
            offs.len(),
            grown / MIB
        );

        // Untouched bytes, including the neighbours of the written lines,
        // read back 0.
        let mut byte = [1u8];
        for &off in &offs {
            for probe in [off - 1, off + 64, off + STRIDE as u64 / 2] {
                pool.read_bytes(POff::new(probe), &mut byte);
                assert_eq!(byte, [0], "{mode:?}: byte {probe} of a fresh pool");
            }
        }
        pool.read_bytes(POff::new(SIZE as u64 - 1), &mut byte);
        assert_eq!(byte, [0], "{mode:?}: last byte of a fresh pool");
    }
}

#[test]
fn a_crash_copies_only_what_the_durable_image_received() {
    let _alone = RSS_READER.lock().unwrap_or_else(|e| e.into_inner());
    const SIZE: usize = 128 * MIB;
    let pool = PmemPool::new(PmemConfig {
        size: SIZE,
        mode: PmemMode::Strict,
        ..PmemConfig::default()
    });
    // 1 MiB made durable at the low end; 1 MiB above it never fenced.
    let (durable, lost) = (POff::new(4096), POff::new(4096 + 2 * MIB as u64));
    pool.write_bytes(durable, &vec![0x5A; MIB]);
    pool.persist_range(durable, MIB);
    pool.write_bytes(lost, &vec![0xA5; MIB]);

    let before = rss();
    let restarted = pool.crash();
    let grown = rss().saturating_sub(before);
    assert!(
        grown < 16 * MIB,
        "a crash of a {} MiB pool with 1 MiB durable made {} MiB resident",
        SIZE / MIB,
        grown / MIB
    );
    let mut byte = [0u8];
    for (off, want) in [
        (durable, 0x5A),
        (durable.add(MIB as u64 - 1), 0x5A),
        (lost, 0),
    ] {
        restarted.read_bytes(off, &mut byte);
        assert_eq!(byte, [want], "byte {} after the crash", off.raw());
    }
    restarted.read_bytes(POff::new(SIZE as u64 - 1), &mut byte);
    assert_eq!(byte, [0], "last byte after the crash");
    // Crashing the restarted pool again keeps the same extent.
    let twice = restarted.crash();
    twice.read_bytes(durable, &mut byte);
    assert_eq!(byte, [0x5A], "a second crash keeps the durable bytes");
}
