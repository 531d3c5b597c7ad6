//! The counting global allocator of the workspace's allocation tests: a
//! test binary that installs it,
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;
//! ```
//!
//! reads what a closure allocates on its own thread with [`counted`], so
//! parallel tests do not see each other. The allocation tests take it as
//! a dev-dependency; the one other binary that installs it is `repro`
//! (`peanut-bench`), whose work ledger counts each row's allocator calls.
//! It depends on nothing: a crate that enabled features of the
//! workspace's crates here would change what every binary using it
//! compiles.

// the allocator below is the workspace's one audited test `unsafe` site
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // const-initialized and destructor-free: reading them inside the
    // allocator neither allocates nor re-enters it
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

/// `System`, plus per-thread counts of allocating calls and bytes while
/// [`counted`] runs on the allocating thread.
pub struct CountingAlloc;

/// What a closure allocated on its thread.
#[derive(Clone, Copy, Debug)]
pub struct Allocs {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub calls: usize,
    /// Bytes those calls asked for: a `realloc` counts only its growth.
    pub bytes: usize,
}

fn note(bytes: usize) {
    if COUNTING.with(Cell::get) {
        CALLS.with(|c| c.set(c.get() + 1));
        BYTES.with(|b| b.set(b.get() + bytes));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain thread-local
// cells that never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: the caller's layout obligations are exactly `System`'s.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: the caller's layout obligations are exactly `System`'s.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }
    // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size.saturating_sub(layout.size()));
        // SAFETY: forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// The value of `f` and what it allocated on this thread. Counts only in
/// a binary that installs [`CountingAlloc`] as its global allocator.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, Allocs) {
    CALLS.with(|c| c.set(0));
    BYTES.with(|b| b.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    let allocs = Allocs {
        calls: CALLS.with(Cell::get),
        bytes: BYTES.with(Cell::get),
    };
    (out, allocs)
}
