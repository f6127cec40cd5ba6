//! A placement-cache hit allocates nothing. A counting
//! `#[global_allocator]` wraps the system allocator and counts only on
//! the thread that switched it on, so the node's own threads do not
//! disturb the count. The single test in this file must stay alone here:
//! the allocator is process-wide.

use clam_cluster::{demo, ClusterClient, ClusterConfig, ClusterNode};
use clam_net::Endpoint;
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
fn placement_cache_hits_allocate_nothing() {
    let node = ClusterNode::start(ClusterConfig::new(1, Endpoint::in_proc("lookup-alloc")))
        .expect("node starts");
    let bound = demo::install(&node).expect("install the demo counter");
    let client = ClusterClient::connect(node.endpoint()).expect("client connects");
    let name = demo::counter_name(1);
    // The first lookup asks the node and fills the cache; the first hit
    // resolves the hit counter's metric handle.
    assert_eq!(client.lookup(&name).expect("lookup"), bound);
    assert_eq!(client.lookup(&name).expect("lookup"), bound);

    COUNTING.with(|c| c.set(true));
    let mut hits = 0;
    for _ in 0..100 {
        hits += usize::from(client.lookup(&name).is_ok_and(|h| h == bound));
    }
    COUNTING.with(|c| c.set(false));

    assert_eq!(hits, 100);
    assert_eq!(ALLOCS.load(Ordering::Relaxed), 0, "allocations in 100 hits");
}
