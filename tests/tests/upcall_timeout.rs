//! `ServerConfig::upcall_timeout` end to end.
//!
//! A client handler that sleeps past the deadline must fail the server
//! task's synchronous upcall with `DeadlineExceeded` within twice the
//! timeout. The handler's late reply must be dropped, and the next
//! upcall to the same client must go through: the expired upcall gave
//! back the client's one active-upcall slot (section 4.4).

use clam_core::{ClamClient, ClamServer, ServerConfig, SessionCtl, UpcallTarget};
use clam_integration::unique_inproc;
use clam_rpc::{CallContext, ConnId, ProcId, RpcError, RpcResult, RpcServer, Service, Target};
use clam_xdr::Opaque;
use parking_lot::Mutex;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

const UPCALL_SERVICE_ID: u32 = 78;
const TIMEOUT: Duration = Duration::from_millis(200);
/// The argument that makes the client's handler sleep past the deadline.
const SLOW: u32 = 0;

/// Each upcall's outcome and how long the serving task was blocked in it.
type Outcomes = Arc<Mutex<Vec<(RpcResult<u32>, Duration)>>>;

/// Each call upcalls `proc(x)` from the serving task and records it.
struct UpcallService {
    server: Weak<ClamServer>,
    outcomes: Outcomes,
}

impl Service for UpcallService {
    fn dispatch(&self, _rpc: &RpcServer, ctx: &CallContext) -> RpcResult<Opaque> {
        let (proc, x): (ProcId, u32) = clam_xdr::decode(ctx.args.as_slice())?;
        let server = self.server.upgrade().expect("server alive");
        let target: UpcallTarget<u32, u32> = server.upcall_target(ctx.conn, proc)?;
        let start = Instant::now();
        let outcome = target.invoke(x);
        self.outcomes.lock().push((outcome, start.elapsed()));
        Ok(Opaque::new())
    }
}

#[test]
fn expired_upcall_fails_in_time_drops_the_late_reply_and_frees_the_slot() {
    let endpoint = unique_inproc("upcall-timeout");
    let server = ClamServer::builder()
        .config(ServerConfig::default().with_upcall_timeout(TIMEOUT))
        .listen(endpoint.clone())
        .build()
        .expect("server starts");
    let outcomes = Outcomes::default();
    server.rpc().register_service(
        UPCALL_SERVICE_ID,
        Arc::new(UpcallService {
            server: Arc::downgrade(&server),
            outcomes: Arc::clone(&outcomes),
        }),
    );

    let client = ClamClient::connect(&endpoint).expect("client connects");
    let proc = client.register_upcall(|x: u32| {
        if x == SLOW {
            std::thread::sleep(TIMEOUT * 3);
        }
        Ok(x + 1)
    });
    let upcall = |x: u32| {
        let args = Opaque::from(clam_xdr::encode(&(proc, x)).unwrap());
        client
            .caller()
            .call(Target::Builtin(UPCALL_SERVICE_ID), 0, args)
            .expect("the triggering call itself succeeds");
    };

    let conn = ConnId(client.session().ping().expect("session alive"));

    // 1. The slow handler outlives the deadline.
    upcall(SLOW);
    {
        let outcomes = outcomes.lock();
        let (outcome, blocked) = &outcomes[0];
        assert!(
            matches!(outcome, Err(RpcError::DeadlineExceeded)),
            "got {outcome:?}"
        );
        assert!(*blocked >= TIMEOUT, "deadline fired early: {blocked:?}");
        assert!(
            *blocked < TIMEOUT * 2,
            "upcall deadline must fire within 2x the timeout, took {blocked:?}"
        );
    }

    // 2. Wait for the slow handler to finish, so the next upcall is not
    // queued behind it. Its late reply reaches a table that no longer
    // holds the request. The one handler task sends that reply before it
    // takes the next upcall, so the late reply always arrives first.
    let finished = Instant::now() + Duration::from_secs(5);
    while client.upcalls_handled() < 1 {
        assert!(Instant::now() < finished, "slow handler never finished");
        std::thread::sleep(Duration::from_millis(10));
    }

    // 3. The next upcall gets the slot back and its own reply, not the
    // late one, and the late reply did not cost the session.
    upcall(7);
    {
        let outcomes = outcomes.lock();
        assert_eq!(outcomes.len(), 2);
        let (outcome, _) = &outcomes[1];
        assert_eq!(outcome.as_ref().ok(), Some(&8), "got {outcome:?}");
    }
    assert_eq!(client.upcalls_handled(), 2);
    let session = server.sessions().get(conn).expect("session survives");
    assert_eq!(session.router().outstanding(), 0);
    server.shutdown();
}
