//! A counting global allocator: heap allocations and bytes, per thread, so
//! the traced replay can charge them to the layer that made them. The
//! counters are thread-local — no cache line is shared between the
//! generator and the server's threads — and the replay reads its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

pub struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain thread-local cells without
// destructors, so touching them allocates nothing and cannot re-enter.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's `GlobalAlloc::alloc` contract is `System`'s.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    // SAFETY: the caller's `GlobalAlloc::alloc_zeroed` contract is `System`'s.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    // SAFETY: `ptr` came from this allocator, so from `System`, with `layout`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: `ptr` came from this allocator, so from `System`, with `layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

fn note(size: usize) {
    // `try_with`: a thread being torn down may allocate after its
    // thread-locals are gone; those allocations go uncounted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
}

/// `(allocations, bytes)` made by the calling thread so far.
pub fn thread_totals() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

/// The calling thread's heap traffic inside the stretches it brackets with
/// `open` / `close` — the replay charges a layer only what its spans did.
#[derive(Clone, Copy, Debug, Default)]
pub struct Bracketed {
    pub allocs: u64,
    pub bytes: u64,
    mark: (u64, u64),
}

impl Bracketed {
    pub fn open(&mut self) {
        self.mark = thread_totals();
    }

    pub fn close(&mut self) {
        let (allocs, bytes) = thread_totals();
        self.allocs += allocs - self.mark.0;
        self.bytes += bytes - self.mark.1;
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn counts_this_threads_allocations() {
        let (a0, b0) = super::thread_totals();
        let v = std::hint::black_box(vec![0u8; 4096]);
        let (a1, b1) = super::thread_totals();
        assert_eq!(a1 - a0, 1);
        assert_eq!(b1 - b0, 4096);
        drop(v);
        let mut heap = super::Bracketed::default();
        heap.open();
        let v = std::hint::black_box(vec![0u8; 100]);
        heap.close();
        let w = std::hint::black_box(vec![0u8; 100]); // outside the bracket
        assert_eq!((heap.allocs, heap.bytes), (1, 100));
        drop((v, w));
    }
}
