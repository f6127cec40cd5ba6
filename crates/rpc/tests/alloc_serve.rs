//! End to end, a batched async call allocates nothing at steady state:
//! the caller writes it into its pooled batch buffer, a socket carries
//! the batch, and the server reads the frame into its own pool and
//! serves every call straight out of it. A counting
//! `#[global_allocator]` wraps the system allocator; the single test in
//! this file (it must stay alone here — the counter is process-global)
//! warms both pools up, then counts the allocations of 16 more 64-call
//! batches of a oneway method. The application's own argument encoding
//! is not part of the runtime, so every argument is built before
//! counting starts.

use clam_rpc::{Caller, CallerConfig, ConnId, RpcResult, RpcServer, Target, TaskWriter};
use clam_task::Scheduler;
use clam_xdr::{BufferPool, Opaque};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

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

clam_rpc::remote_interface! {
    /// One oneway method: the batched path of section 3.4.
    interface Notes {
        proxy NotesProxy;
        skeleton NotesSkeleton;
        class NotesClass;

        fn note(seq: u32) = 1 oneway;
    }
}

/// Checks that the notes arrive in issue order.
struct InOrder {
    next: AtomicU32,
    out_of_order: AtomicU32,
}

impl Notes for InOrder {
    fn note(&self, seq: u32) -> RpcResult<()> {
        if self.next.fetch_add(1, Ordering::Relaxed) != seq {
            self.out_of_order.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }
}

const BATCH: u32 = 64;
const WARM_UP_BATCHES: u32 = 16;
const COUNTED_BATCHES: u32 = 16;

#[test]
fn batched_calls_allocate_nothing_from_call_async_through_serve_frame() {
    let (client, server_end) = clam_net::pair();
    let (client_writer, _client_reader) = client.split();
    let caller = Caller::new(
        &Scheduler::new("alloc-serve-client"),
        client_writer,
        CallerConfig {
            flush_at_calls: BATCH as usize,
            flush_at_bytes: 1 << 20,
            ..CallerConfig::default()
        },
    );

    let server = RpcServer::new();
    let notes = Arc::new(InOrder {
        next: AtomicU32::new(0),
        out_of_order: AtomicU32::new(0),
    });
    server.register_service(1, Arc::new(NotesSkeleton::new(Arc::clone(&notes))));
    // The session's pool: request frames are read into it, the calls'
    // argument buffer comes from it, and both go back after the frame.
    let pool = BufferPool::default();
    let mut server_end = server_end;
    server_end.attach_pool(&pool);
    let (server_writer, mut reader) = server_end.split();
    let writer = TaskWriter::new(&Scheduler::new("alloc-serve-server"), server_writer);
    let dedup = parking_lot::Mutex::default();

    let total = (WARM_UP_BATCHES + COUNTED_BATCHES) * BATCH;
    let mut args: Vec<Opaque> = (0..total)
        .map(|seq| Opaque::from(clam_xdr::encode(&(seq,)).unwrap()))
        .collect();
    args.reverse();
    let mut batch = || {
        // The 64th call fills the batch and flushes it to the socket.
        for _ in 0..BATCH {
            let args = args.pop().expect("prebuilt args");
            caller
                .call_async(Target::Builtin(1), 1, args)
                .expect("async call");
        }
        let frame = reader.recv().expect("batch frame");
        server
            .serve_frame(ConnId(1), &dedup, frame, &pool, &writer)
            .expect("serve batch");
    };

    for _ in 0..WARM_UP_BATCHES {
        batch();
    }
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    for _ in 0..COUNTED_BATCHES {
        batch();
    }
    COUNTING.store(false, Ordering::SeqCst);

    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        allocs,
        0,
        "{} batched calls allocated {allocs} time(s) from call_async through serve_frame",
        COUNTED_BATCHES * BATCH
    );
    assert_eq!(notes.next.load(Ordering::SeqCst), total, "every call ran");
    assert_eq!(
        notes.out_of_order.load(Ordering::SeqCst),
        0,
        "in issue order"
    );
}
