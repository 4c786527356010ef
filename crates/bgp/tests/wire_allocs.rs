//! The encoder's allocation contract: every successful `encode_message`
//! makes exactly one allocation — the returned buffer, sized exactly —
//! for every message kind, OPEN included. Checked over the byte golden's
//! corpus; a test binary of its own because it installs a counting
//! global allocator.

// A `GlobalAlloc` impl is unsafe by signature; the allowance is local to
// this test binary.
#![allow(unsafe_code)]

mod wire_corpus;

use peering_bgp::wire::encode_message;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;

/// Forwards to the system allocator and counts, per thread, the calls
/// that hand out memory; tests on other threads do not disturb a count.
struct Counting;

thread_local! {
    // Const-initialized and without a destructor: reading it from inside
    // the allocator never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down has no counter left; nothing to count.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn every_encoded_message_is_one_allocation() {
    let mut kinds = BTreeSet::new();
    for case in wire_corpus::corpus() {
        let before = allocations();
        let encoded = encode_message(&case.msg, case.cfg);
        let made = allocations() - before;
        if let Ok(bytes) = encoded {
            assert_eq!(
                made,
                1,
                "{}: {made} allocations for {} bytes",
                case.name,
                bytes.len()
            );
            kinds.insert(case.msg.kind());
        }
    }
    let want = [
        "KEEPALIVE",
        "NOTIFICATION",
        "OPEN",
        "ROUTE-REFRESH",
        "UPDATE",
    ];
    assert_eq!(kinds, BTreeSet::from(want), "every message kind encoded");
}
