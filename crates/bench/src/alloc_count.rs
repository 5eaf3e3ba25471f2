//! A counting allocator for the harness binaries.
//!
//! Candidate evaluation is allocation-bound, so the number of heap
//! allocations a piece of work makes is the cost measure that does not
//! depend on the machine: it is a pure function of the program. A binary
//! opts in with
//!
//! ```ignore
//! #[global_allocator]
//! static GLOBAL: tensorir_bench::alloc_count::CountingAlloc = tensorir_bench::alloc_count::CountingAlloc;
//! ```
//!
//! and reads counts with [`counted`]. Only the calling thread is counted,
//! so a test harness's own threads do not disturb the numbers; without the
//! opt-in every count reads 0.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (`alloc`, and `realloc`, which may move) made by this
    /// thread while it is counting.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// The system allocator, counting the calls [`counted`] asks it to.
pub struct CountingAlloc;

fn count_one() {
    // `try_with`: the allocator also runs while a thread tears down its
    // thread-locals, when the cells are gone.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only
// const-initialized thread-local `Cell`s without destructors, which neither
// allocate nor unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` and returns its result with the allocations this thread made
/// meanwhile.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, ALLOCS.with(Cell::get))
}
