//! Server shutdown semantics: clients observe disconnection; the server
//! process stays healthy.

use clam_core::{ClamClient, ServerConfig, SessionCtl};
use clam_integration::{desktop_client, unique_inproc, window_server};
use clam_windows::module::Desktop;

#[test]
fn shutdown_disconnects_clients_cleanly() {
    let server = window_server(unique_inproc("shutdown"), ServerConfig::default());
    let (client, desktop) = desktop_client(&server);
    desktop.screen_size().unwrap();
    assert!(!server.is_shutting_down());

    server.shutdown();
    assert!(server.is_shutting_down());
    assert!(server.sessions().is_empty());

    // In-flight and subsequent calls fail rather than hang.
    let err = desktop.screen_size();
    assert!(err.is_err(), "calls after shutdown fail");
    let _ = client;
}

#[test]
fn shutdown_is_idempotent() {
    let server = window_server(unique_inproc("shutdown-2x"), ServerConfig::default());
    server.shutdown();
    server.shutdown();
    assert!(server.is_shutting_down());
}

#[test]
fn new_connections_after_shutdown_are_refused() {
    let server = window_server(unique_inproc("shutdown-new"), ServerConfig::default());
    let endpoint = server.endpoints()[0].clone();
    server.shutdown();
    // The connect itself may succeed at the transport level (the
    // listener still exists) but the session never forms: the first RPC
    // fails or the channel closes. Refusal outright is also acceptable.
    if let Ok(client) = ClamClient::connect(&endpoint) {
        assert!(client.session().ping().is_err());
    }
}

/// A service whose one call makes a sync upcall to `proc` from the
/// serving task and records how it ended and when.
mod blocked_upcall {
    use clam_core::{ClamServer, UpcallTarget};
    use clam_rpc::{CallContext, ProcId, RpcResult, RpcServer, Service};
    use clam_xdr::Opaque;
    use parking_lot::Mutex;
    use std::sync::{Arc, Weak};
    use std::time::Instant;

    pub const SERVICE_ID: u32 = 79;

    pub type Outcome = Arc<Mutex<Option<(RpcResult<u32>, Instant)>>>;

    pub struct UpcallOnce {
        pub server: Weak<ClamServer>,
        pub outcome: Outcome,
    }

    impl Service for UpcallOnce {
        fn dispatch(&self, _rpc: &RpcServer, ctx: &CallContext) -> RpcResult<Opaque> {
            let proc: ProcId = clam_xdr::decode(ctx.args.as_slice())?;
            let server = self.server.upgrade().expect("server alive");
            let target: UpcallTarget<u32, u32> = server.upcall_target(ctx.conn, proc)?;
            let result = target.invoke(1);
            *self.outcome.lock() = Some((result, Instant::now()));
            Ok(Opaque::new())
        }
    }
}

/// Shut the server down while its task waits in a sync upcall on a live
/// client whose handler sleeps for 10 s, with no upcall deadline: the
/// upcaller must fail with `Disconnected` well before the handler ends.
fn shutdown_fails_a_waiting_upcaller(endpoint: clam_net::Endpoint) {
    use clam_rpc::{RpcError, Target};
    use clam_xdr::Opaque;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let server = clam_core::ClamServer::builder()
        .config(ServerConfig::default())
        .listen(endpoint)
        .build()
        .expect("server starts");
    assert_eq!(server.config().upcall_timeout, None);
    let outcome = blocked_upcall::Outcome::default();
    server.rpc().register_service(
        blocked_upcall::SERVICE_ID,
        Arc::new(blocked_upcall::UpcallOnce {
            server: Arc::downgrade(&server),
            outcome: Arc::clone(&outcome),
        }),
    );
    let client = ClamClient::connect(&server.endpoints()[0]).expect("client connects");
    let entered = Arc::new(std::sync::Barrier::new(2));
    let proc = {
        let entered = Arc::clone(&entered);
        client.register_upcall(move |x: u32| {
            entered.wait();
            std::thread::sleep(Duration::from_secs(10));
            Ok(x)
        })
    };
    let args = Opaque::from(clam_xdr::encode(&proc).unwrap());
    client
        .caller()
        .call_async(Target::Builtin(blocked_upcall::SERVICE_ID), 0, args)
        .unwrap();
    client.caller().flush().unwrap();
    entered.wait(); // the handler is running: the upcaller waits on it

    let shut_at = Instant::now();
    server.shutdown();
    let poll_until = shut_at + Duration::from_secs(1);
    let (result, ended) = loop {
        if let Some(done) = outcome.lock().take() {
            break done;
        }
        assert!(
            Instant::now() < poll_until,
            "the upcaller still waits 1 s after shutdown"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(
        matches!(result, Err(RpcError::Disconnected)),
        "got {result:?}"
    );
    assert!(ended.duration_since(shut_at) < Duration::from_secs(1));
}

#[test]
fn shutdown_fails_a_waiting_upcaller_in_memory() {
    shutdown_fails_a_waiting_upcaller(unique_inproc("shutdown-upcall"));
}

#[test]
fn shutdown_fails_a_waiting_upcaller_over_unix() {
    shutdown_fails_a_waiting_upcaller(clam_integration::unique_unix("shutdown-upcall"));
}
