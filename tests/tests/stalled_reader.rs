//! A client that stops reading its replies stalls only its own session.
//!
//! A raw peer completes the handshake, sends thousands of sync calls and
//! never reads a reply. Once the socket buffer toward it is full, the
//! serving task that sends its replies must wait for room outside the
//! server's baton, and the server serves no more of its calls: the
//! replies held for it are bounded by the buffer, in process as over a
//! Unix-domain socket. Another client's sync call on the same server
//! still returns at once. Shutting the server down ends the stuck
//! session, and with it every thread the server started.
//!
//! The test counts the threads of this whole process, so it must stay
//! alone in this file, and it runs its transports one after the other.

use clam_core::{ClamClient, ClamServer, SessionCtl};
use clam_integration::{unique_inproc, unique_unix};
use clam_net::Endpoint;
use clam_rpc::{CallContext, Message, RpcResult, RpcServer, Service, Target};
use clam_xdr::Opaque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const BLOB_SERVICE_ID: u32 = 84;
/// Calls per frame and frames sent: 10 000 replies of 1 KiB each, far
/// more than any socket buffer holds.
const CALLS_PER_FRAME: u64 = 100;
const FRAMES: u64 = 100;

/// Answers every call with 1 KiB, and counts the calls it served.
#[derive(Default)]
struct Blob {
    served: AtomicU64,
}

impl Service for Blob {
    fn dispatch(&self, _rpc: &RpcServer, _ctx: &CallContext) -> RpcResult<Opaque> {
        self.served.fetch_add(1, Ordering::Relaxed);
        Ok(Opaque::from(vec![0xB1; 1024]))
    }
}

/// Names of this process's threads that clam-rs started.
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

fn poll_until(what: &str, mut done: impl FnMut() -> bool) {
    let give_up = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < give_up, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn a_peer_that_never_reads_does_not_stall_other_sessions() {
    stall(&unique_unix("stalled-reader"));
    stall(&unique_inproc("stalled-reader"));
}

/// The scenario on one transport; it ends with as many clam threads as
/// it started with.
fn stall(endpoint: &Endpoint) {
    let before = clam_threads();
    let server = ClamServer::builder()
        .listen(endpoint.clone())
        .build()
        .expect("server starts");
    let blob = Arc::new(Blob::default());
    server.rpc().register_service(BLOB_SERVICE_ID, blob.clone());

    // The raw peer: handshake on both channels, then calls only.
    let nonce = 0x5_7A11_u64;
    let mut rpc_ch = clam_net::connect(endpoint).expect("rpc channel");
    rpc_ch
        .send(clam_xdr::encode(&(0u32, nonce)).unwrap()) // Hello{Rpc}
        .unwrap();
    let mut up_ch = clam_net::connect(endpoint).expect("upcall channel");
    up_ch
        .send(clam_xdr::encode(&(1u32, nonce)).unwrap()) // Hello{Upcall}
        .unwrap();
    poll_until("the session to form", || server.sessions().len() == 1);
    for frame in 0..FRAMES {
        let calls = (1..=CALLS_PER_FRAME)
            .map(|i| clam_rpc::Call {
                request_id: frame * CALLS_PER_FRAME + i,
                target: Target::Builtin(BLOB_SERVICE_ID),
                ..clam_rpc::Call::default()
            })
            .collect();
        rpc_ch
            .send(Message::CallBatch(calls).to_frame().unwrap())
            .expect("the server reads every call");
    }
    // Let the serving task run into the full socket buffer.
    std::thread::sleep(Duration::from_millis(200));
    let served = blob.served.load(Ordering::Relaxed);
    let sent = FRAMES * CALLS_PER_FRAME;
    assert!(
        served <= sent / 2,
        "{endpoint}: served {served} of {sent} calls to a peer that reads no reply"
    );

    // Another client's sync call still gets through.
    let client = ClamClient::connect(&server.endpoints()[0]).expect("client connects");
    let (done, finished) = mpsc::channel();
    let pinger = Arc::clone(&client);
    std::thread::spawn(move || {
        let _ = done.send(pinger.session().ping());
    });
    let reply = finished
        .recv_timeout(Duration::from_secs(1))
        .expect("a peer that does not read its replies stalled another session");
    reply.expect("ping");

    // Shutdown ends the stuck session while the peer still holds its
    // channels and still reads nothing.
    drop(client);
    server.shutdown();
    let give_up = Instant::now() + Duration::from_secs(10);
    loop {
        let now = clam_threads();
        if now.len() == before.len() {
            break;
        }
        assert!(
            Instant::now() < give_up,
            "{endpoint}: {} clam threads before, {} after shutdown: {now:?}",
            before.len(),
            now.len()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    drop((rpc_ch, up_ch));
}
