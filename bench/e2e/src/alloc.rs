//! The counting `#[global_allocator]` behind `bench.allocs_per_op` and
//! `bench.alloc_bytes_per_op`, after `crates/core/tests/zero_alloc.rs`.
//!
//! Counting is switched on only inside the traced run's timed phase; with
//! it off (every end-to-end measurement) the shim costs one relaxed load
//! per allocation. This file holds the benchmark's only `unsafe`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct CountingAlloc;

// Statistics only: they publish no other data, so `Relaxed` is enough.
static ENABLED: AtomicBool = AtomicBool::new(false);
static EVENTS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn count(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        EVENTS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation events and bytes requested since the process started
/// counting; read it before and after a window and subtract.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocSnapshot {
    pub events: u64,
    pub bytes: u64,
}

pub fn set_counting(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot { events: EVENTS.load(Ordering::Relaxed), bytes: BYTES.load(Ordering::Relaxed) }
}
