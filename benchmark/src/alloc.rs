//! Allocation counting for the traced run.
//!
//! [`CountingAlloc`] is installed as the `#[global_allocator]` of the
//! traced binary only, so the untraced end-to-end run keeps the system
//! allocator untouched. It counts allocation calls (`alloc`,
//! `alloc_zeroed`, `realloc`) twice: per thread, for stages that run on
//! the caller's thread and must repeat exactly, and process-wide, for
//! stages whose work happens on other threads (the daemon's connection
//! thread answers the client's requests).
//!
//! When the allocator is not installed the counters stay at zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static GLOBAL_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// System allocator wrapper that counts allocation calls.
pub struct CountingAlloc;

#[inline]
fn note() {
    GLOBAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocation calls made so far on the current thread.
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// Allocation calls made so far by the whole process.
pub fn global_allocs() -> u64 {
    GLOBAL_ALLOCS.load(Ordering::Relaxed)
}
