//! Async upcalls queue in the transport while the client's upcall task
//! is busy (section 4.4: the task "is unblocked on receipt of an
//! upcall"). A client whose handler sits in a nested call gets all of a
//! burst of async upcalls, in order, once the handler returns; and the
//! server keeps serving other clients while the burst waits for room in
//! the transport's buffer.

use clam_core::{ClamClient, ClamServer, SessionCtl, UpcallTarget};
use clam_integration::{unique_inproc, unique_unix};
use clam_net::Endpoint;
use clam_rpc::{current_conn, ProcId, RpcError, RpcResult, StatusCode, Target};
use clam_task::Event;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

const BURST: u32 = 1_000;
const FLOOD_SERVICE_ID: u32 = 82;

clam_rpc::remote_interface! {
    /// Blocks a nested call on a gate and floods a client with upcalls.
    pub interface Flood {
        proxy FloodProxy;
        skeleton FloodSkeleton;
        class FloodClass;

        /// Async-upcall `proc(0)` to the caller.
        fn kick(proc: ProcId) = 1 oneway;
        /// Wait (as a task) until the gate opens.
        fn hold() -> () = 2;
        /// Async-upcall `proc(i)` to the caller for `i` in `0..n`.
        fn flood(proc: ProcId, n: u32) = 3 oneway;
    }
}

struct FloodImpl {
    server: Weak<ClamServer>,
    gate: Arc<Event>,
    held: Arc<AtomicBool>,
}

impl FloodImpl {
    fn to_caller(&self, proc: ProcId) -> RpcResult<UpcallTarget<u32, ()>> {
        let server = self
            .server
            .upgrade()
            .ok_or_else(|| RpcError::status(StatusCode::AppError, "gone"))?;
        let conn =
            current_conn().ok_or_else(|| RpcError::status(StatusCode::AppError, "no conn"))?;
        server.upcall_target(conn, proc)
    }
}

impl Flood for FloodImpl {
    fn kick(&self, proc: ProcId) -> RpcResult<()> {
        self.to_caller(proc)?.invoke_async(0)
    }

    fn hold(&self) -> RpcResult<()> {
        self.held.store(true, Ordering::SeqCst);
        self.gate.wait();
        Ok(())
    }

    fn flood(&self, proc: ProcId, n: u32) -> RpcResult<()> {
        let target = self.to_caller(proc)?;
        for i in 0..n {
            target.invoke_async(i)?;
        }
        Ok(())
    }
}

fn poll(what: &str, mut done: impl FnMut() -> bool) {
    let give_up = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < give_up, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn burst_waits_in_the_transport(endpoint: Endpoint) {
    let server = ClamServer::builder()
        .listen(endpoint)
        .build()
        .expect("server starts");
    let gate = Arc::new(Event::new(server.scheduler()));
    let held = Arc::new(AtomicBool::new(false));
    server.rpc().register_service(
        FLOOD_SERVICE_ID,
        Arc::new(FloodSkeleton::new(Arc::new(FloodImpl {
            server: Arc::downgrade(&server),
            gate: Arc::clone(&gate),
            held: Arc::clone(&held),
        }))),
    );
    let target = Target::Builtin(FLOOD_SERVICE_ID);
    let busy = ClamClient::connect(&server.endpoints()[0]).expect("client connects");
    let other = ClamClient::connect(&server.endpoints()[0]).expect("client connects");
    let busy_flood = FloodProxy::new(Arc::clone(busy.caller()), target);

    // The handler makes a nested call that waits on the gate.
    let blocker = {
        let flood = FloodProxy::new(Arc::clone(busy.caller()), target);
        busy.register_upcall(move |_: u32| flood.hold())
    };
    let got = Arc::new(Mutex::new(Vec::new()));
    let note = {
        let got = Arc::clone(&got);
        busy.register_upcall(move |i: u32| {
            got.lock().push(i);
            Ok(())
        })
    };
    busy_flood.kick(blocker).unwrap();
    busy.caller().flush().unwrap();
    poll("the handler's nested call", || held.load(Ordering::SeqCst));

    busy_flood.flood(note, BURST).unwrap();
    busy.caller().flush().unwrap();
    // The server serves another client meanwhile (over a socket the
    // busy client's session task may be waiting for buffer room).
    for _ in 0..20 {
        other.session().ping().expect("the other client is served");
    }
    assert!(got.lock().is_empty(), "an upcall overtook the busy handler");

    gate.signal();
    poll("the burst", || got.lock().len() == BURST as usize);
    assert_eq!(*got.lock(), (0..BURST).collect::<Vec<_>>());
    assert_eq!(busy.upcalls_handled(), u64::from(BURST) + 1);
    busy.session()
        .ping()
        .expect("the busy client is served again");
    server.shutdown();
}

#[test]
fn a_burst_of_async_upcalls_waits_in_memory_for_a_busy_handler() {
    burst_waits_in_the_transport(unique_inproc("async-burst"));
}

#[test]
fn a_burst_of_async_upcalls_waits_over_unix_for_a_busy_handler() {
    burst_waits_in_the_transport(unique_unix("async-burst"));
}
