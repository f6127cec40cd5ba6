//! Heap allocations of the synchronous operations over unix, counted on
//! both ends: a distributed upcall `u32 → u32`, sync and async, makes
//! none once warm (its arguments are bundled straight into the pooled
//! upcall frame, the client's handler reads them from that frame and
//! bundles its result straight into the pooled reply frame, which the
//! upcaller decodes in place; its reply waiter takes a reused slot), and
//! a sync `echo(u32)` through `Caller::call` makes at most 3 (the stub's
//! argument bundle, the skeleton's result bundle and the owned result
//! the caller returns).
//!
//! A counting `#[global_allocator]` wraps the system allocator. The count
//! covers every thread of the process, so this test must stay alone in
//! its file.

use clam_core::{ClamClient, ClamServer, UpcallTarget};
use clam_integration::unique_unix;
use clam_rpc::{current_conn, ProcId, RpcError, RpcResult, StatusCode, Target};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

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

/// The allocations `f` makes on every thread of the process.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.load(Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (out, ALLOCS.load(Ordering::SeqCst) - before)
}

const UPCALLS: u32 = 1_000;
const ECHOES: u32 = 1_000;
const WARM_ECHOES: u32 = 16;
const COUNTED_SERVICE_ID: u32 = 84;

clam_rpc::remote_interface! {
    /// Upcalls counted inside one served call.
    pub interface Counted {
        proxy CountedProxy;
        skeleton CountedSkeleton;
        class CountedClass;

        /// Sync-upcall `proc` once uncounted, then `n` times counted;
        /// returns the allocations of the counted ones.
        fn upcalls(proc: ProcId, n: u32) -> u64 = 1;
        /// Async-upcall `proc` once uncounted, then `n` times counted,
        /// ending with a sync upcall so the client has handled them all;
        /// returns the allocations of the counted ones.
        fn async_upcalls(proc: ProcId, n: u32) -> u64 = 2;
        /// Returns `x + 1`.
        fn echo(x: u32) -> u32 = 3;
    }
}

struct CountedImpl {
    server: Weak<ClamServer>,
}

impl CountedImpl {
    fn to_caller(&self, proc: ProcId) -> RpcResult<UpcallTarget<u32, u32>> {
        let server = self
            .server
            .upgrade()
            .ok_or_else(|| RpcError::status(StatusCode::AppError, "gone"))?;
        let conn =
            current_conn().ok_or_else(|| RpcError::status(StatusCode::AppError, "no conn"))?;
        server.upcall_target(conn, proc)
    }
}

fn checked(x: u32, got: u32) -> RpcResult<()> {
    if got == x + 1 {
        Ok(())
    } else {
        Err(RpcError::status(StatusCode::AppError, "wrong result"))
    }
}

impl Counted for CountedImpl {
    fn upcalls(&self, proc: ProcId, n: u32) -> RpcResult<u64> {
        let target = self.to_caller(proc)?;
        checked(0, target.invoke(0)?)?;
        let (out, allocs) = counted(|| (1..=n).try_for_each(|x| checked(x, target.invoke(x)?)));
        out.map(|()| allocs)
    }

    fn async_upcalls(&self, proc: ProcId, n: u32) -> RpcResult<u64> {
        let target = self.to_caller(proc)?;
        target.invoke_async(0)?;
        checked(0, target.invoke(0)?)?;
        let (out, allocs) = counted(|| {
            (1..=n).try_for_each(|x| target.invoke_async(x))?;
            checked(0, target.invoke(0)?)
        });
        out.map(|()| allocs)
    }

    fn echo(&self, x: u32) -> RpcResult<u32> {
        Ok(x + 1)
    }
}

#[allow(clippy::cast_precision_loss)]
#[test]
fn sync_and_async_upcalls_allocate_nothing_and_a_sync_call_at_most_three_times() {
    let server = ClamServer::builder()
        .listen(unique_unix("alloc-sync"))
        .build()
        .expect("server starts");
    server.rpc().register_service(
        COUNTED_SERVICE_ID,
        Arc::new(CountedSkeleton::new(Arc::new(CountedImpl {
            server: Arc::downgrade(&server),
        }))),
    );
    let client = ClamClient::connect(&server.endpoints()[0]).expect("client connects");
    let counted_proxy = CountedProxy::new(
        Arc::clone(client.caller()),
        Target::Builtin(COUNTED_SERVICE_ID),
    );
    let proc = client.register_upcall(|x: u32| Ok(x + 1));

    let sync = counted_proxy.upcalls(proc, UPCALLS).expect("upcalls");
    assert_eq!(sync, 0, "{UPCALLS} sync upcalls allocated {sync} times");
    let async_ = counted_proxy
        .async_upcalls(proc, UPCALLS)
        .expect("async upcalls");
    assert_eq!(
        async_, 0,
        "{UPCALLS} async upcalls allocated {async_} times"
    );
    assert_eq!(
        client.upcalls_handled(),
        u64::from(UPCALLS) * 2 + 4,
        "every upcall was handled"
    );

    // The server's at-most-once window is sized in full at the first
    // sync call, so a few calls warm the echo path.
    for x in 0..WARM_ECHOES {
        assert_eq!(counted_proxy.echo(x).expect("echo"), x + 1);
    }
    let (out, allocs) =
        counted(|| (0..ECHOES).try_for_each(|x| checked(x, counted_proxy.echo(x)?)));
    out.expect("echo");
    let per_call = allocs as f64 / f64::from(ECHOES);
    assert!(per_call <= 3.0, "a sync echo allocated {per_call:.2} times");
    println!("allocations: sync upcall 0, async upcall 0, sync echo {per_call:.2}");
    server.shutdown();
}
