//! Dropping a client and shutting down its server ends every thread the
//! two started and closes every socket they opened, in process as over a
//! Unix-domain socket; no connection runs a pump thread for its replies
//! or upcalls, nor a thread that times their deadlines: waiters read
//! those replies and time their waits themselves.
//!
//! The test counts the threads and file descriptors of this whole
//! process, so it must stay alone in this file.

use clam_core::{ClamClient, ClamServer, SessionCtl, UpcallTarget};
use clam_integration::{unique_inproc, unique_unix};
use clam_net::Endpoint;
use clam_rpc::{CallContext, ProcId, RpcResult, RpcServer, Service, Target};
use clam_xdr::Opaque;
use std::sync::{mpsc, Arc, Mutex, Weak};
use std::time::{Duration, Instant};

const UPCALL_SERVICE_ID: u32 = 81;
const GATE_SERVICE_ID: u32 = 82;
const CYCLES: usize = 20;

/// Upcalls `proc(x)` from the serving task and returns its result.
struct Bounce {
    server: Weak<ClamServer>,
}

impl Service for Bounce {
    fn dispatch(&self, _rpc: &RpcServer, ctx: &CallContext) -> RpcResult<Opaque> {
        let (proc, x): (ProcId, u32) = clam_xdr::decode(ctx.args.as_slice())?;
        let server = self.server.upgrade().expect("server alive");
        let target: UpcallTarget<u32, u32> = server.upcall_target(ctx.conn, proc)?;
        Ok(Opaque::from(clam_xdr::encode(&target.invoke(x)?)?))
    }
}

/// Answers once the test opens the gate, so that two calls overlap.
struct Gate(Mutex<mpsc::Receiver<()>>);

impl Service for Gate {
    fn dispatch(&self, _rpc: &RpcServer, _ctx: &CallContext) -> RpcResult<Opaque> {
        self.0
            .lock()
            .expect("gate lock")
            .recv()
            .expect("gate opens");
        Ok(Opaque::from(Vec::new()))
    }
}

/// Two sync calls from two threads, both outstanding at once, so one of
/// them waits as a follower (under the default call deadline) while the
/// other reads.
fn overlapping_calls(client: &Arc<ClamClient>, open: &mpsc::Sender<()>) {
    let calls: Vec<_> = (0..2)
        .map(|_| {
            let client = Arc::clone(client);
            std::thread::spawn(move || {
                client
                    .caller()
                    .call(
                        Target::Builtin(GATE_SERVICE_ID),
                        0,
                        Opaque::from(Vec::new()),
                    )
                    .expect("gated call");
            })
        })
        .collect();
    while client.caller().outstanding() < 2 {
        std::thread::yield_now();
    }
    // Let the follower settle into its wait before the replies come.
    std::thread::sleep(Duration::from_millis(20));
    for _ in &calls {
        open.send(()).expect("gate");
    }
    for call in calls {
        call.join().expect("gated call");
    }
}

/// Names of this process's threads that clam-rs started (`clam-*`; the
/// kernel keeps 15 bytes of a name).
fn clam_threads() -> Vec<String> {
    let mut names = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let comm = task.expect("task entry").path().join("comm");
        if let Ok(name) = std::fs::read_to_string(comm) {
            let name = name.trim();
            if name.starts_with("clam-") {
                names.push(name.to_string());
            }
        }
    }
    names.sort();
    names
}

/// This process's open file descriptors.
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("procfs").count()
}

/// One set-up: a server on `endpoint`, a client, a sync call and a sync
/// upcall (and, the first time, two overlapping sync calls); then drop
/// the client and shut the server down.
fn cycle(endpoint: Endpoint, first: bool) {
    let server = ClamServer::builder()
        .listen(endpoint)
        .build()
        .expect("server starts");
    server.rpc().register_service(
        UPCALL_SERVICE_ID,
        Arc::new(Bounce {
            server: Arc::downgrade(&server),
        }),
    );
    let (open, gate) = mpsc::channel();
    server
        .rpc()
        .register_service(GATE_SERVICE_ID, Arc::new(Gate(Mutex::new(gate))));
    let client = ClamClient::connect(&server.endpoints()[0]).expect("client connects");
    client.session().ping().expect("sync call");
    let proc = client.register_upcall(|x: u32| Ok(x + 1));
    let args = Opaque::from(clam_xdr::encode(&(proc, 41u32)).unwrap());
    let out = client
        .caller()
        .call(Target::Builtin(UPCALL_SERVICE_ID), 0, args)
        .expect("sync upcall");
    assert_eq!(clam_xdr::decode::<u32>(out.as_slice()).unwrap(), 42);
    if first {
        overlapping_calls(&client, &open);
        let live = clam_threads();
        for pump in [
            "clam-reply-pump",
            "clam-upcall-pum",
            "clam-upcall-rep",
            "clam-deadline-s",
        ] {
            assert!(
                !live.iter().any(|name| name.starts_with(pump)),
                "a {pump}* thread runs: {live:?}"
            );
        }
    }
    drop(client);
    server.shutdown();
}

#[test]
fn connect_shutdown_cycles_leave_no_clam_threads_behind() {
    let before = clam_threads();
    let fds_before = open_fds();
    for i in 0..CYCLES {
        let endpoint = if i % 2 == 0 {
            unique_unix("leak")
        } else {
            unique_inproc("leak")
        };
        cycle(endpoint, i == 0);
    }
    let give_up = Instant::now() + Duration::from_secs(10);
    loop {
        let now = clam_threads();
        let fds = open_fds();
        if now.len() == before.len() && fds == fds_before {
            break;
        }
        assert!(
            Instant::now() < give_up,
            "{} clam threads and {fds_before} fds before {CYCLES} cycles, \
             {} threads and {fds} fds after: {now:?}",
            before.len(),
            now.len()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}
