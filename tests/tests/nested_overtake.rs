//! A nested call (one a client makes from inside an upcall handler)
//! overtakes the session's serving task however that task blocks: in a
//! join, waiting for the only upcall permit, or on an event. Each case
//! would deadlock if the serving task kept the session's RPC reader while
//! blocked: the handler's nested `poke` would never be read, so the
//! upcall the serving task waits on would never return.

use clam_core::{ClamClient, ClamServer, ServerConfig, UpcallTarget};
use clam_integration::unique_unix;
use clam_rpc::{current_conn, ProcId, RpcError, RpcResult, StatusCode, Target};
use clam_task::Event;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{mpsc, Arc, Weak};
use std::time::Duration;

clam_rpc::remote_interface! {
    /// Block the serving task while the client's handler calls back.
    pub interface Overtake {
        proxy OvertakeProxy;
        skeleton OvertakeSkeleton;
        class OvertakeClass;

        /// Spawn a task that upcalls `proc`, block the serving task the
        /// way `how` names, and return the pokes seen so far.
        fn block(proc: ProcId, how: u32) -> u32 = 1;
        /// Count a poke and signal the event `block` may wait on.
        fn poke() -> u32 = 2;
    }
}

/// Join the upcalling task.
const IN_JOIN: u32 = 0;
/// Upcall too, once the upcalling task holds the only permit.
const ON_PERMIT: u32 = 1;
/// Wait on the event only `poke` signals.
const ON_EVENT: u32 = 2;

struct OvertakeImpl {
    server: Weak<ClamServer>,
    pokes: AtomicU32,
    poked: Event,
}

fn app_error(what: impl std::fmt::Display) -> RpcError {
    RpcError::status(StatusCode::AppError, what.to_string())
}

impl Overtake for OvertakeImpl {
    fn block(&self, proc: ProcId, how: u32) -> RpcResult<u32> {
        let server = self.server.upgrade().ok_or_else(|| app_error("gone"))?;
        let conn = current_conn().ok_or_else(|| app_error("no conn"))?;
        let target: UpcallTarget<u32, u32> = server.upcall_target(conn, proc)?;
        let upcaller = {
            let target = target.clone();
            server.scheduler().spawn("upcaller", move || {
                target.invoke(1).expect("upcall");
            })
        };
        match how {
            IN_JOIN => {}
            ON_PERMIT => {
                // The upcaller runs until it waits for its reply, holding
                // the permit; this task then waits for the permit.
                server.scheduler().yield_now();
                target.invoke(2)?;
            }
            ON_EVENT => self.poked.wait(),
            _ => return Err(app_error("unknown block")),
        }
        upcaller.join().map_err(app_error)?;
        Ok(self.pokes.load(Ordering::SeqCst))
    }

    fn poke(&self) -> RpcResult<u32> {
        let pokes = self.pokes.fetch_add(1, Ordering::SeqCst) + 1;
        self.poked.signal();
        Ok(pokes)
    }
}

const OVERTAKE_SERVICE: u32 = 90;

/// Run `block(how)` against a fresh server whose upcall limit is 1, and
/// return its result, failing the test if it takes 5 s.
fn block_returns(how: u32) -> u32 {
    let server = ClamServer::builder()
        .config(ServerConfig::default().with_max_concurrent_upcalls(1))
        .listen(unique_unix("overtake"))
        .build()
        .expect("server starts");
    server.rpc().register_service(
        OVERTAKE_SERVICE,
        Arc::new(OvertakeSkeleton::new(Arc::new(OvertakeImpl {
            server: Arc::downgrade(&server),
            pokes: AtomicU32::new(0),
            poked: Event::new(server.scheduler()),
        }))),
    );
    let client = ClamClient::connect(&server.endpoints()[0]).expect("client connects");
    let proxy = OvertakeProxy::new(
        Arc::clone(client.caller()),
        Target::Builtin(OVERTAKE_SERVICE),
    );
    let nested = proxy.clone();
    let proc = client.register_upcall(move |x: u32| {
        nested.poke()?; // a nested call: its upcall is still outstanding
        Ok(x)
    });
    let (done, result) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(proxy.block(proc, how));
    });
    let pokes = result
        .recv_timeout(Duration::from_secs(5))
        .expect("the nested poke overtook the blocked serving task")
        .expect("block succeeds");
    drop(client);
    server.shutdown();
    pokes
}

#[test]
fn a_nested_call_overtakes_a_join() {
    assert_eq!(block_returns(IN_JOIN), 1);
}

#[test]
fn a_nested_call_overtakes_a_wait_for_the_upcall_permit() {
    assert_eq!(block_returns(ON_PERMIT), 2);
}

#[test]
fn a_nested_call_overtakes_an_event_wait() {
    assert_eq!(block_returns(ON_EVENT), 1);
}
