//! Proves the zero-copy claim: after warm-up, a batched async call on
//! the wire path performs **zero** heap allocations. A counting
//! `#[global_allocator]` wraps the system allocator; the single test in
//! this file (it must stay alone here — the counter is process-global)
//! drives the caller through enough batches to reach steady state, then
//! measures an allocation delta of exactly zero across 256 more calls.

use clam_net::{Frame, MsgWriter, NetResult};
use clam_rpc::{Caller, CallerConfig, Target};
use clam_task::Scheduler;
use clam_xdr::{BufferPool, Opaque};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// A sink transport that completes the buffer cycle the way a real
/// transport does: every sent frame's buffer is recycled into the pool
/// the caller attached, so the next batch draws from the pool instead
/// of the allocator.
struct RecycleWriter {
    pool: Option<BufferPool>,
    frames: u64,
}

impl MsgWriter for RecycleWriter {
    fn send(&mut self, frame: Frame) -> NetResult<()> {
        self.frames += 1;
        if let Some(pool) = &self.pool {
            pool.recycle(frame.into_wire());
        }
        Ok(())
    }
}

#[test]
fn batched_async_calls_allocate_nothing_at_steady_state() {
    let sched = Scheduler::new("alloc-test");
    let writer = Box::new(RecycleWriter {
        pool: None,
        frames: 0,
    });
    let caller = Caller::new(
        &sched,
        writer,
        CallerConfig {
            flush_at_calls: 8,
            flush_at_bytes: 64 * 1024,
            ..CallerConfig::default()
        },
    );

    let issue = |n: u32| {
        for _ in 0..n {
            caller
                .call_async(Target::Builtin(1), 7, Opaque::new())
                .expect("async call");
        }
    };

    // Warm up: grow the batch buffer to its steady-state capacity and
    // seed the pool via the writer's recycle path.
    issue(64);
    caller.flush().expect("flush");
    let stats = caller.buffer_pool().metrics();
    assert!(
        stats.counter("xdr.pool.recycled") > 0,
        "warm-up must seed the pool: {stats:?}"
    );

    // Measure: every batch buffer must now come from the pool, every
    // append must fit existing capacity — zero allocator traffic.
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    issue(256);
    caller.flush().expect("flush");
    COUNTING.store(false, Ordering::SeqCst);

    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        allocs, 0,
        "batched-async wire path allocated {allocs} time(s) across 256 calls"
    );

    // Sanity: the calls really did stream out as full batches.
    let after = caller.buffer_pool().metrics();
    assert!(
        after.counter("xdr.pool.hits") >= 32,
        "steady-state batches should be pool hits: {after:?}"
    );
}
