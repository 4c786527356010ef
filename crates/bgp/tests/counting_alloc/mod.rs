//! A counting global allocator for the test binaries that budget what
//! the code allocates. It forwards to the system allocator and keeps,
//! per thread, the number of calls that hand out memory and the bytes
//! currently live, so tests on other threads disturb neither. Declaring
//! this module installs it for the whole test binary.

// A `GlobalAlloc` impl is unsafe by signature; the allowance is local to
// this module.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    // Const-initialized and without a destructor: reading them from
    // inside the allocator never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn count(grown: i64) {
    // A thread being torn down has no counters left; nothing to count.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = LIVE.try_with(|n| n.set(n.get() + grown));
}

fn release(size: usize) {
    let _ = LIVE.try_with(|n| n.set(n.get() - size as i64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        release(layout.size());
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Calls that handed out memory on this thread so far (`alloc`,
/// `alloc_zeroed` and `realloc`).
// Not every binary that installs the allocator reads both counters.
#[allow(dead_code)]
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Bytes this thread has allocated and not freed, net of what it freed.
#[allow(dead_code)]
pub fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}
