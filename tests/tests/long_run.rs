//! Long-run drift gate: latency must not grow with uptime, and armed
//! deadlines must stay bounded by outstanding requests.
//!
//! With the default configs (a 30 s deadline on every sync call) the
//! client issues 200k timed sync calls, then 50k timed sync calls that
//! each make one synchronous distributed upcall. Each phase runs in
//! blocks after a warm-up block; the median latency of the last block
//! must stay within 1.2x the first block's. A deadline that outlived its
//! call would show up here as latency that climbs block by block and as
//! a `rpc.deadlines_armed` gauge that grows past the outstanding
//! requests (zero between calls).
//!
//! Too slow for the debug tier-1 run, so it is ignored there. Run it in
//! release:
//!
//! ```text
//! cargo test --release -p clam-integration --test long_run -- --ignored
//! ```
//!
//! The single test in this file reads the process-global gauge, so it
//! must stay alone here.

use clam_core::{ClamClient, ClamServer, ServerConfig, UpcallTarget};
use clam_net::Endpoint;
use clam_rpc::{current_conn, ProcId, RpcError, RpcResult, StatusCode, Target};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

clam_rpc::remote_interface! {
    /// Echo, and a call that bounces through one client upcall.
    pub interface Drift {
        proxy DriftProxy;
        skeleton DriftSkeleton;
        class DriftClass;

        /// Return `x + 1`.
        fn echo(x: u32) -> u32 = 1;
        /// Make one synchronous upcall to `proc` with `x`; return its result.
        fn bounce(proc: ProcId, x: u32) -> u32 = 2;
    }
}

struct DriftImpl {
    server: Weak<ClamServer>,
}

impl Drift for DriftImpl {
    fn echo(&self, x: u32) -> RpcResult<u32> {
        Ok(x.wrapping_add(1))
    }

    fn bounce(&self, proc: ProcId, x: u32) -> RpcResult<u32> {
        let server = self
            .server
            .upgrade()
            .ok_or_else(|| RpcError::status(StatusCode::AppError, "server gone"))?;
        let conn = current_conn()
            .ok_or_else(|| RpcError::status(StatusCode::AppError, "no connection"))?;
        let target: UpcallTarget<u32, u32> = server.upcall_target(conn, proc)?;
        target.invoke(x)
    }
}

const DRIFT_SERVICE: u32 = 71;

/// Run `blocks` blocks of `per_block` operations after one untimed
/// warm-up block (which fills the bounded tables: dedup window, journal
/// ring, buffer pools); return each block's median latency and check the
/// armed-deadline gauge after every block.
fn run_blocks(
    blocks: u32,
    per_block: u32,
    client: &ClamClient,
    mut op: impl FnMut(u32),
) -> Vec<Duration> {
    (0..per_block).for_each(&mut op);
    let mut medians = Vec::new();
    let mut lat = Vec::with_capacity(per_block as usize);
    for b in 0..blocks {
        lat.clear();
        for i in 0..per_block {
            let t = Instant::now();
            op(b * per_block + i);
            lat.push(t.elapsed());
        }
        lat.sort_unstable();
        medians.push(lat[lat.len() / 2]);
        let armed = clam_obs::snapshot().gauge("rpc.deadlines_armed");
        let outstanding = client.caller().outstanding();
        assert!(
            usize::try_from(armed).is_ok_and(|a| a <= outstanding),
            "block {b}: rpc.deadlines_armed = {armed} > {outstanding} outstanding"
        );
    }
    medians
}

fn assert_no_drift(phase: &str, medians: &[Duration]) {
    let first = medians[0];
    let last = medians[medians.len() - 1];
    println!("{phase}: block medians {medians:?}");
    assert!(
        last.as_secs_f64() <= 1.2 * first.as_secs_f64(),
        "{phase}: latency drifted from {first:?} (first block) to {last:?} (last block)"
    );
}

#[test]
#[ignore = "long run; use --release -- --ignored"]
fn latency_and_armed_deadlines_do_not_grow_with_uptime() {
    let sock = std::env::temp_dir().join(format!("clam-long-run-{}.sock", std::process::id()));
    let server = ClamServer::builder()
        .config(ServerConfig::default())
        .listen(Endpoint::unix(sock))
        .build()
        .expect("server starts");
    server.rpc().register_service(
        DRIFT_SERVICE,
        Arc::new(DriftSkeleton::new(Arc::new(DriftImpl {
            server: Arc::downgrade(&server),
        }))),
    );
    let client = ClamClient::connect(&server.endpoints()[0]).expect("client connects");
    let proxy = DriftProxy::new(Arc::clone(client.caller()), Target::Builtin(DRIFT_SERVICE));
    let proc = client.register_upcall(|x: u32| Ok(x.wrapping_mul(3)));

    let calls = run_blocks(10, 20_000, &client, |i| {
        assert_eq!(proxy.echo(i).unwrap(), i.wrapping_add(1));
    });
    assert_no_drift("sync calls", &calls);

    let upcalls = run_blocks(5, 10_000, &client, |i| {
        assert_eq!(proxy.bounce(proc, i).unwrap(), i.wrapping_mul(3));
    });
    assert_no_drift("upcalls", &upcalls);
    assert_eq!(client.upcalls_handled(), 60_000, "warm-up + 5 blocks");
}
