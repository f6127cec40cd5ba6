//! The one-active-upcall-per-client limit over the full stack
//! (section 4.4), and its relaxation.

use clam_core::{ClamClient, ClamServer, ServerConfig, UpcallTarget};
use clam_net::Endpoint;
use clam_rpc::{current_conn, ProcId, RpcError, RpcResult, StatusCode, Target};
use parking_lot::Mutex;
use std::sync::{Arc, Weak};
use std::time::Duration;

clam_rpc::remote_interface! {
    /// Fan out upcalls from concurrent server tasks.
    pub interface Fan {
        proxy FanProxy;
        skeleton FanSkeleton;
        class FanClass;

        /// Spawn `tasks` server tasks, each making one sync upcall; wait
        /// for all; return the maximum number of upcalls that were ever
        /// in flight at once (as observed by the client handler via its
        /// argument; the server cannot see that, so it returns task
        /// count and the client checks its own observation).
        fn fan(proc: ProcId, tasks: u32) -> u32 = 1;
    }
}

struct FanImpl {
    server: Weak<ClamServer>,
}

impl Fan for FanImpl {
    fn fan(&self, proc: ProcId, tasks: u32) -> RpcResult<u32> {
        let server = self
            .server
            .upgrade()
            .ok_or_else(|| RpcError::status(StatusCode::AppError, "gone"))?;
        let conn =
            current_conn().ok_or_else(|| RpcError::status(StatusCode::AppError, "no conn"))?;
        let mut handles = Vec::new();
        for i in 0..tasks {
            let target: UpcallTarget<u32, u32> = server.upcall_target(conn, proc)?;
            handles.push(server.scheduler().spawn("fan", move || {
                let _ = target.invoke(i);
            }));
        }
        for h in handles {
            let _ = h.join();
        }
        Ok(tasks)
    }
}

const FAN_SERVICE: u32 = 70;

fn rig(limit: usize, tag: &str) -> (Arc<ClamServer>, Arc<ClamClient>, FanProxy) {
    let server = ClamServer::builder()
        .config(ServerConfig::default().with_max_concurrent_upcalls(limit))
        .listen(Endpoint::in_proc(format!(
            "itest-fan-{tag}-{}",
            std::process::id()
        )))
        .build()
        .unwrap();
    let weak = Arc::downgrade(&server);
    server.rpc().register_service(
        FAN_SERVICE,
        Arc::new(FanSkeleton::new(Arc::new(FanImpl { server: weak }))),
    );
    let client = ClamClient::connect(&server.endpoints()[0]).unwrap();
    let proxy = FanProxy::new(Arc::clone(client.caller()), Target::Builtin(FAN_SERVICE));
    (server, client, proxy)
}

/// Tracks the high-water mark of concurrently outstanding upcalls, as
/// seen from inside the client's handler.
struct Gauge {
    active: Mutex<u32>,
    high_water: Mutex<u32>,
}

impl Gauge {
    fn new() -> Arc<Gauge> {
        Arc::new(Gauge {
            active: Mutex::new(0),
            high_water: Mutex::new(0),
        })
    }
    fn enter(&self) {
        let mut a = self.active.lock();
        *a += 1;
        let mut hw = self.high_water.lock();
        *hw = (*hw).max(*a);
    }
    fn exit(&self) {
        *self.active.lock() -= 1;
    }
}

#[test]
fn paper_limit_serializes_upcalls_end_to_end() {
    let (_s, client, proxy) = rig(1, "limit1");
    let gauge = Gauge::new();
    let g = Arc::clone(&gauge);
    let proc = client.register_upcall(move |x: u32| {
        g.enter();
        std::thread::sleep(Duration::from_millis(2));
        g.exit();
        Ok(x)
    });
    assert_eq!(proxy.fan(proc, 6).unwrap(), 6);
    assert_eq!(
        *gauge.high_water.lock(),
        1,
        "one active upcall per client (section 4.4)"
    );
    assert_eq!(client.upcalls_handled(), 6);
}

#[test]
fn relaxed_limit_still_serializes_at_the_single_client_task() {
    // The paper's client runs ONE upcall-handler task; even with the
    // server-side limit relaxed, client-side handling is serial — which
    // is the honest result the ablation documents.
    let (_s, client, proxy) = rig(4, "limit4");
    let gauge = Gauge::new();
    let g = Arc::clone(&gauge);
    let proc = client.register_upcall(move |x: u32| {
        g.enter();
        g.exit();
        Ok(x)
    });
    assert_eq!(proxy.fan(proc, 6).unwrap(), 6);
    assert_eq!(client.upcalls_handled(), 6);
    assert_eq!(*gauge.high_water.lock(), 1);
}

#[test]
fn async_upcalls_do_not_consume_the_limit() {
    // invoke_async is fire-and-forget; a blocked sync upcall must not
    // starve it and vice versa. Exercise a mix.
    let (_s, client, proxy) = rig(1, "mixed");
    let seen = Arc::new(Mutex::new(0u32));
    let s = Arc::clone(&seen);
    let proc = client.register_upcall(move |x: u32| {
        *s.lock() += 1;
        Ok(x)
    });
    for _ in 0..3 {
        assert_eq!(proxy.fan(proc, 2).unwrap(), 2);
    }
    assert_eq!(*seen.lock(), 6);
}
