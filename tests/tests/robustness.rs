//! Protocol robustness: misbehaving peers must be contained, not crash
//! the process or wedge other clients.

use clam_core::{ClamClient, ClamServer, ServerConfig, SessionCtl, UpcallTarget};
use clam_integration::{desktop_client, unique_inproc, window_server};
use clam_rpc::{
    CallContext, CallerConfig, ProcId, RpcError, RpcResult, RpcServer, Service, StatusCode, Target,
};
use clam_windows::module::Desktop;
use clam_windows::Rect;
use clam_xdr::Opaque;
use parking_lot::Mutex;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

#[test]
fn garbage_on_the_rpc_channel_drops_only_that_client() {
    let server = window_server(unique_inproc("rb-garbage"), ServerConfig::default());
    // A healthy client first.
    let (healthy, desktop) = desktop_client(&server);

    // A raw connection that handshakes correctly, then sends garbage.
    let endpoint = server.endpoints()[0].clone();
    let mut rogue = clam_net::connect(&endpoint).unwrap();
    let nonce = 0xbad_cafe_u64;
    rogue
        .send(
            clam_xdr::encode(&(0u32, nonce)) // Hello{Rpc, nonce} wire-compatible
                .unwrap(),
        )
        .unwrap();
    let mut rogue_up = clam_net::connect(&endpoint).unwrap();
    rogue_up
        .send(clam_xdr::encode(&(1u32, nonce)).unwrap())
        .unwrap();
    std::thread::sleep(Duration::from_millis(20)); // session forms
    rogue.send(&[0xff; 32]).unwrap(); // not a Message

    // The rogue session dies; the healthy client is untouched.
    std::thread::sleep(Duration::from_millis(30));
    desktop
        .create_window(Rect::new(0, 0, 10, 10), "ok".into())
        .unwrap();
    assert_eq!(desktop.window_count().unwrap(), 1);
    let _ = healthy;
}

#[test]
fn half_a_handshake_never_becomes_a_session() {
    let server = window_server(unique_inproc("rb-half"), ServerConfig::default());
    let endpoint = server.endpoints()[0].clone();
    // Connect only the RPC channel; never the upcall channel.
    let mut lonely = clam_net::connect(&endpoint).unwrap();
    lonely
        .send(clam_xdr::encode(&(0u32, 42u64)).unwrap())
        .unwrap();
    std::thread::sleep(Duration::from_millis(30));
    assert!(server.sessions().is_empty(), "no session from half a pair");
    // A real client still connects fine afterwards.
    let client = ClamClient::connect(&endpoint).unwrap();
    client.session().ping().unwrap();
}

#[test]
fn duplicate_role_in_handshake_is_rejected() {
    let server = window_server(unique_inproc("rb-dup"), ServerConfig::default());
    let endpoint = server.endpoints()[0].clone();
    let nonce = 7u64;
    // Two RPC-role connections with the same nonce: protocol error.
    let mut a = clam_net::connect(&endpoint).unwrap();
    a.send(clam_xdr::encode(&(0u32, nonce)).unwrap()).unwrap();
    std::thread::sleep(Duration::from_millis(10));
    let mut b = clam_net::connect(&endpoint).unwrap();
    b.send(clam_xdr::encode(&(0u32, nonce)).unwrap()).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    assert!(server.sessions().is_empty());
    // The server remains healthy.
    let client = ClamClient::connect(&endpoint).unwrap();
    client.session().ping().unwrap();
}

#[test]
fn garbage_hello_is_ignored() {
    let server = window_server(unique_inproc("rb-hello"), ServerConfig::default());
    let endpoint = server.endpoints()[0].clone();
    let mut rogue = clam_net::connect(&endpoint).unwrap();
    rogue.send(b"not a hello at all").unwrap();
    std::thread::sleep(Duration::from_millis(20));
    assert!(server.sessions().is_empty());
    let client = ClamClient::connect(&endpoint).unwrap();
    client.session().ping().unwrap();
}

#[test]
fn client_survives_garbage_on_its_upcall_channel() {
    // We cannot easily make a real server misbehave, so build the
    // situation directly: the client's upcall pump must stop cleanly on
    // a non-Upcall frame, failing nothing else until the RPC channel
    // also closes.
    let server = window_server(unique_inproc("rb-client"), ServerConfig::default());
    let (client, desktop) = desktop_client(&server);
    // Normal operation first.
    desktop
        .create_window(Rect::new(0, 0, 10, 10), "w".into())
        .unwrap();
    // The RPC path keeps working regardless of upcall-channel state.
    assert_eq!(desktop.window_count().unwrap(), 1);
    let _ = client;
}

const OVERSIZED_SERVICE_ID: u32 = 81;
/// One mebibyte over the 16 MiB opaque cap.
const OVERSIZED: usize = 17 << 20;
/// Short enough that a reply that never comes fails the test quickly.
const DEADLINE: Duration = Duration::from_secs(2);
/// Shorter than `DEADLINE`, so an upcall that is never answered fails
/// before the call that triggered it.
const UPCALL_TIMEOUT: Duration = Duration::from_secs(1);

/// Method 0 returns `OVERSIZED` bytes and method 1 returns its
/// arguments. Method 2 upcalls `proc(x)` and records the outcome.
struct OversizedService {
    server: Weak<ClamServer>,
    upcalls: Mutex<Vec<RpcResult<u32>>>,
}

impl Service for OversizedService {
    fn dispatch(
        &self,
        _rpc: &RpcServer,
        ctx: &CallContext,
        results: &mut Vec<u8>,
    ) -> RpcResult<()> {
        match ctx.method {
            0 => results.resize(results.len() + OVERSIZED, 0),
            1 => results.extend_from_slice(ctx.args),
            _ => {
                let (proc, x): (ProcId, u32) = clam_xdr::decode(ctx.args)?;
                let server = self.server.upgrade().expect("server alive");
                let target: UpcallTarget<u32, u32> = server.upcall_target(ctx.conn, proc)?;
                self.upcalls.lock().push(target.invoke(x));
            }
        }
        Ok(())
    }
}

fn oversized_server(name: &str) -> (Arc<ClamServer>, Arc<OversizedService>) {
    let server = ClamServer::builder()
        .config(ServerConfig::default().with_upcall_timeout(UPCALL_TIMEOUT))
        .listen(unique_inproc(name))
        .build()
        .expect("server starts");
    let service = Arc::new(OversizedService {
        server: Arc::downgrade(&server),
        upcalls: Mutex::new(Vec::new()),
    });
    server.rpc().register_service(
        OVERSIZED_SERVICE_ID,
        Arc::clone(&service) as Arc<dyn Service>,
    );
    (server, service)
}

fn client_of(server: &ClamServer) -> Arc<ClamClient> {
    let config = CallerConfig {
        call_timeout: Some(DEADLINE),
        ..CallerConfig::default()
    };
    ClamClient::connect_with(&server.endpoints()[0], config).expect("client connects")
}

#[test]
fn an_oversized_result_is_an_error_reply_and_the_next_call_returns() {
    let (server, _service) = oversized_server("rb-oversized-result");
    let client = client_of(&server);
    let target = Target::Builtin(OVERSIZED_SERVICE_ID);

    let start = Instant::now();
    let outcome = client.caller().call(target, 0, Opaque::new());
    assert!(
        matches!(
            outcome,
            Err(RpcError::Status {
                code: StatusCode::AppError,
                ..
            })
        ),
        "got {outcome:?} after {:?}",
        start.elapsed()
    );
    let echoed = client.caller().call(target, 1, Opaque::from(vec![5, 6]));
    assert_eq!(echoed.expect("the next call returns").as_slice(), &[5, 6]);
    server.shutdown();
}

#[test]
fn an_oversized_upcall_result_is_an_error_and_the_next_upcall_is_served() {
    const BIG: u32 = 0;
    let (server, service) = oversized_server("rb-oversized-upcall");
    let client = client_of(&server);
    let proc = client.procs().register_raw(Arc::new(|args: &Opaque| {
        let x: u32 = clam_xdr::decode(args.as_slice())?;
        if x == BIG {
            return Ok(Opaque::from(vec![0; OVERSIZED]));
        }
        Ok(Opaque::from(clam_xdr::encode(&(x + 1))?))
    }));
    let upcall = |x: u32| {
        let args = Opaque::from(clam_xdr::encode(&(proc, x)).unwrap());
        client
            .caller()
            .call(Target::Builtin(OVERSIZED_SERVICE_ID), 2, args)
            .expect("the triggering call itself succeeds");
    };

    upcall(BIG);
    upcall(7);
    let upcalls = service.upcalls.lock();
    assert!(
        matches!(
            upcalls[0],
            Err(RpcError::Status {
                code: StatusCode::AppError,
                ..
            })
        ),
        "got {:?}",
        upcalls[0]
    );
    assert_eq!(upcalls[1].as_ref().ok(), Some(&8), "got {:?}", upcalls[1]);
    drop(upcalls);
    server.shutdown();
}
