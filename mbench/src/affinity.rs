//! Thread placement. On the reference box the two CPUs are slow to wake one
//! another (a virtual machine's cross-CPU wake-up), so whether the scheduler
//! happens to put the generator and the server's worker on one CPU or two
//! decides between two very different throughputs. Pinning removes that
//! coin toss: see README, box caveats.

use std::sync::OnceLock;

/// Restricts thread `tid` (0 = the calling thread) to `cpu`. Best effort: a
/// refusal (a restricted cpuset, an unsupported platform) leaves the thread
/// where it was and returns false.
fn pin(tid: u32, cpu: usize) -> bool {
    let mut mask = [0u64; 16];
    if cpu >= mask.len() * 64 {
        return false;
    }
    mask[cpu / 64] = 1 << (cpu % 64);
    sched_setaffinity(tid, &mask)
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn sched_setaffinity(tid: u32, mask: &[u64; 16]) -> bool {
    const SYS_SCHED_SETAFFINITY: i64 = 203;
    let ret: i64;
    // SAFETY: the raw `sched_setaffinity(pid, len, mask)` system call. The
    // kernel only reads `len` bytes at `mask`, which points at a live array
    // of exactly that size; the registers named are the x86-64 syscall ABI
    // (rcx and r11 are clobbered by `syscall`).
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_SCHED_SETAFFINITY => ret,
            in("rdi") i64::from(tid),
            in("rsi") std::mem::size_of_val(mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn sched_setaffinity(_tid: u32, _mask: &[u64; 16]) -> bool {
    false
}

/// CPUs this process could use when it started — read before `start_cold`
/// narrows the main thread, since `available_parallelism` honours affinity.
static CPUS: OnceLock<usize> = OnceLock::new();

pub fn cpus() -> usize {
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The CPU the measured threads share, and the one everything else stays
/// on: the last and the first of the box. `None` on a one-CPU box.
fn hot_and_cold() -> Option<(usize, usize)> {
    (cpus() >= 2).then(|| (cpus() - 1, 0))
}

/// Called once at start-up, before any thread is spawned: confines the
/// process to the cold CPU. Threads inherit that, so set-up, the advancer,
/// the server's accept loop and recovery all stay off the hot CPU.
pub fn start_cold() {
    if let Some((_, cold)) = hot_and_cold() {
        pin(0, cold);
    }
}

/// Moves the calling (generator) thread, and every thread whose name starts
/// with one of `with`, onto the hot CPU. A generator and the worker serving
/// it share that CPU: each runs while the other waits, and no wake-up ever
/// crosses CPUs.
pub fn take_hot_cpu(with: &[&str]) {
    if let Some((hot, _)) = hot_and_cold() {
        pin(0, hot);
        pin_named(with, hot);
    }
}

/// Pins every thread of this process whose name starts with one of
/// `prefixes` to `cpu`; returns how many were pinned.
fn pin_named(prefixes: &[&str], cpu: usize) -> usize {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    dir.flatten()
        .filter(|e| {
            std::fs::read_to_string(e.path().join("comm"))
                .is_ok_and(|c| prefixes.iter().any(|p| c.starts_with(p)))
        })
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&tid| pin(tid, cpu))
        .count()
}
