//! Looking up a metric that is already registered allocates nothing. A
//! counting `#[global_allocator]` wraps the system allocator and counts
//! only on the thread that switched it on. The single test in this file
//! must stay alone here: the allocator is process-wide.

use clam_obs::Registry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn looking_up_a_registered_metric_allocates_nothing() {
    let r = Registry::new();
    let (c, g, h) = (
        r.counter("a.count"),
        r.gauge("a.level"),
        r.histogram("a.time"),
    );

    COUNTING.with(|on| on.set(true));
    for _ in 0..100 {
        r.counter("a.count").inc();
        r.gauge("a.level").adjust(1);
        r.histogram("a.time").observe(7);
    }
    COUNTING.with(|on| on.set(false));

    assert_eq!(
        ALLOCS.load(Ordering::Relaxed),
        0,
        "allocations in 300 lookups"
    );
    assert_eq!((c.get(), g.get(), h.count()), (100, 100, 100));
}
