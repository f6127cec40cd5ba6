//! Synchronous calls execute at most once per session: a re-delivered
//! call batch (a duplicating transport, a retrying relay) replays request
//! ids the session has served, and the session's dedup window drops them
//! without running them or replying again. The window belongs to the
//! session, so another session may use the same ids.

use clam_core::ClamServer;
use clam_integration::unique_inproc;
use clam_net::{Channel, Endpoint};
use clam_rpc::{
    Call, CallContext, Message, MessageView, RpcResult, RpcServer, Service, StatusCode, Target,
    SYNC_SERVICE_ID,
};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const COUNTING_SERVICE_ID: u32 = 78;

/// Counts the calls it serves.
#[derive(Default)]
struct Counting(AtomicU32);

impl Service for Counting {
    fn dispatch(&self, _rpc: &RpcServer, _ctx: &CallContext, _: &mut Vec<u8>) -> RpcResult<()> {
        self.0.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }
}

/// A raw client session: both channels, handshaken by hand with `nonce`.
fn session(server: &ClamServer, endpoint: &Endpoint, nonce: u64) -> (Channel, Channel) {
    let sessions = server.sessions().len();
    let mut rpc_ch = clam_net::connect(endpoint).expect("rpc channel");
    rpc_ch
        .send(clam_xdr::encode(&(0u32, nonce)).unwrap()) // Hello{Rpc}
        .unwrap();
    let mut up_ch = clam_net::connect(endpoint).expect("upcall channel");
    up_ch
        .send(clam_xdr::encode(&(1u32, nonce)).unwrap()) // Hello{Upcall}
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.sessions().len() == sessions {
        assert!(
            Instant::now() < deadline,
            "timed out waiting for the session"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    (rpc_ch, up_ch)
}

/// Send one sync call to `service` with `request_id`, alone in a batch.
fn send(rpc_ch: &mut Channel, service: u32, request_id: u64) {
    let call = Call {
        request_id,
        target: Target::Builtin(service),
        ..Call::default()
    };
    rpc_ch
        .send(Message::CallBatch(vec![call]).to_frame().unwrap())
        .unwrap();
}

/// Read the next reply: its request id and status.
fn reply(rpc_ch: &mut Channel) -> (u64, StatusCode) {
    let frame = rpc_ch.recv().expect("reply frame");
    let Ok(MessageView::Reply(reply)) = MessageView::parse(&frame) else {
        panic!("expected a reply");
    };
    (reply.request_id, reply.status)
}

#[test]
fn a_redelivered_sync_call_runs_once_per_session() {
    let endpoint = unique_inproc("at-most-once");
    let server = ClamServer::builder()
        .listen(endpoint.clone())
        .build()
        .expect("server starts");
    let counting = Arc::new(Counting::default());
    server.rpc().register_service(
        COUNTING_SERVICE_ID,
        Arc::clone(&counting) as Arc<dyn Service>,
    );

    let (mut rpc_ch, _up_ch) = session(&server, &endpoint, 0x0A70_0001);
    send(&mut rpc_ch, COUNTING_SERVICE_ID, 7);
    send(&mut rpc_ch, COUNTING_SERVICE_ID, 7); // the same call, re-delivered
    send(&mut rpc_ch, SYNC_SERVICE_ID, 8);
    // Replies come back in call order: 8's reply follows 7's at once, so
    // the duplicate sent none.
    assert_eq!(reply(&mut rpc_ch), (7, StatusCode::Ok));
    assert_eq!(reply(&mut rpc_ch), (8, StatusCode::Ok));
    assert_eq!(counting.0.load(Ordering::SeqCst), 1, "the duplicate ran");

    // Another session has its own window: its id 7 is a new call.
    let (mut other, _other_up) = session(&server, &endpoint, 0x0A70_0002);
    send(&mut other, COUNTING_SERVICE_ID, 7);
    assert_eq!(reply(&mut other), (7, StatusCode::Ok));
    assert_eq!(counting.0.load(Ordering::SeqCst), 2);
    server.shutdown();
}
