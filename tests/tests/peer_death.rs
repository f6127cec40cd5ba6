//! Killing a client mid-distributed-upcall.
//!
//! The paper's failure story (sections 3.3 and 4.3): a server task
//! blocked in a synchronous upcall to a dead client must not stay
//! blocked forever, the session's RUC must stop accepting upcalls, and
//! the capabilities the dead client created must go stale — Figure 3.3's
//! tag check turns the dangling handles into `StaleHandle` errors
//! wherever they leaked.

use clam_core::{ClamClient, ClamServer, UpcallTarget};
use clam_integration::unique_inproc;
use clam_rpc::{
    Call, CallContext, Handle, Message, MessageView, ProcId, RpcError, RpcResult, RpcServer,
    Service, StatusCode, Target,
};
use clam_xdr::Opaque;
use parking_lot::Mutex;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

const VICTIM_SERVICE_ID: u32 = 77;
const VICTIM_CLASS_ID: u32 = 4242;
const UPCALL_PROC: u64 = 5;

/// Everything the victim dispatch leaves behind for the test to inspect.
#[derive(Default)]
struct Probe {
    handle: Mutex<Option<Handle>>,
    ruc: Mutex<Option<UpcallTarget<(), ()>>>,
    outcome: Mutex<Option<RpcResult<()>>>,
}

/// A service that, on its first call, registers an object owned by the
/// calling connection and then blocks in a sync upcall to the caller.
struct VictimService {
    server: Weak<ClamServer>,
    probe: Arc<Probe>,
}

impl Service for VictimService {
    fn dispatch(&self, rpc: &RpcServer, ctx: &CallContext, _: &mut Vec<u8>) -> RpcResult<()> {
        let handle = rpc.register_object(VICTIM_CLASS_ID, 1, Arc::new(()));
        *self.probe.handle.lock() = Some(handle);

        let server = self.server.upgrade().expect("server alive");
        let ruc = server.upcall_target::<(), ()>(ctx.conn, ProcId { id: UPCALL_PROC })?;
        *self.probe.ruc.lock() = Some(ruc.clone());

        // Blocks this server task until the client replies — or dies.
        let outcome = ruc.invoke(());
        *self.probe.outcome.lock() = Some(outcome);
        Ok(())
    }
}

fn poll_until<T>(what: &str, mut probe: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Some(v) = probe() {
            return v;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn client_death_unblocks_the_upcaller_and_stales_its_handles() {
    let endpoint = unique_inproc("peer-death");
    let server = ClamServer::builder()
        .listen(endpoint.clone())
        .build()
        .expect("server starts");
    let probe = Arc::new(Probe::default());
    server.rpc().register_service(
        VICTIM_SERVICE_ID,
        Arc::new(VictimService {
            server: Arc::downgrade(&server),
            probe: Arc::clone(&probe),
        }),
    );

    // A raw client: hand-rolled handshake on two channels, so the test
    // controls exactly when it dies (a real ClamClient would tidy up).
    let nonce = 0x00D1_E500_u64;
    let mut rpc_ch = clam_net::connect(&endpoint).expect("rpc channel");
    rpc_ch
        .send(clam_xdr::encode(&(0u32, nonce)).unwrap()) // Hello{Rpc}
        .unwrap();
    let mut up_ch = clam_net::connect(&endpoint).expect("upcall channel");
    up_ch
        .send(clam_xdr::encode(&(1u32, nonce)).unwrap()) // Hello{Upcall}
        .unwrap();
    poll_until("session to form", || {
        (server.sessions().len() == 1).then_some(())
    });

    // Fire-and-forget call into the victim service; its dispatch blocks
    // the session's main RPC task in a sync upcall back to us.
    let call = Call {
        request_id: 0,
        target: Target::Builtin(VICTIM_SERVICE_ID),
        method: 0,
        args: Opaque::new(),
        ..Call::default()
    };
    rpc_ch
        .send(Message::CallBatch(vec![call]).to_frame().unwrap())
        .unwrap();

    // The upcall reaches the client: the server task is now blocked.
    let frame = up_ch.recv().expect("upcall frame");
    let Ok(MessageView::Upcall(up)) = MessageView::parse(&frame) else {
        panic!("expected an upcall on the upcall channel");
    };
    assert_eq!(up.proc_id, UPCALL_PROC);
    assert_ne!(up.request_id, 0, "sync upcalls carry a request id");

    // Die mid-upcall: never reply, just vanish.
    drop(rpc_ch);
    drop(up_ch);

    // The blocked server task wakes with an error instead of a reply.
    let outcome = poll_until("the upcaller to unblock", || probe.outcome.lock().take());
    assert!(
        matches!(outcome, Err(RpcError::Disconnected)),
        "expected Disconnected, got {outcome:?}"
    );

    // The session's RUC is invalidated: further upcalls fail immediately.
    let ruc = probe.ruc.lock().take().expect("ruc captured");
    assert!(
        matches!(ruc.invoke(()), Err(RpcError::Disconnected)),
        "a dead session's RUC must refuse upcalls"
    );

    // The dead client's capability goes stale (its object left the table).
    let handle = probe.handle.lock().take().expect("handle captured");
    poll_until("the handle to go stale", || {
        match server.rpc().objects().lookup(handle) {
            Err(RpcError::Status {
                code: StatusCode::StaleHandle,
                ..
            }) => Some(()),
            _ => None,
        }
    });
    poll_until("the session to be reaped", || {
        server.sessions().is_empty().then_some(())
    });

    // Even through the full stack: a fresh, healthy client presenting
    // the leaked handle gets StaleHandle back, not the object.
    let client = ClamClient::connect(&endpoint).expect("second client connects");
    let err = client
        .caller()
        .call(Target::Object(handle), 0, Opaque::new())
        .unwrap_err();
    assert!(
        matches!(
            err,
            RpcError::Status {
                code: StatusCode::StaleHandle,
                ..
            }
        ),
        "expected StaleHandle through the stack, got {err:?}"
    );
}
