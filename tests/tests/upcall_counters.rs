//! `core.upcall.remote` is each upcall router's own counter: the global
//! snapshot sums the routers of every client, while they live and after
//! they are gone. The snapshot covers the whole process, so this test
//! must stay alone in its file.

use clam_core::{ClamClient, ClamServer, UpcallTarget};
use clam_integration::unique_inproc;
use clam_rpc::{current_conn, ProcId, RpcError, RpcResult, StatusCode, Target};
use std::sync::{Arc, Weak};

const BOUNCE_SERVICE_ID: u32 = 85;

clam_rpc::remote_interface! {
    /// Upcalls the caller.
    pub interface Bounce {
        proxy BounceProxy;
        skeleton BounceSkeleton;
        class BounceClass;

        /// Sync-upcall `proc` `n` times, then async-upcall it once.
        fn bounce(proc: ProcId, n: u32) -> () = 1;
    }
}

struct BounceImpl {
    server: Weak<ClamServer>,
}

impl Bounce for BounceImpl {
    fn bounce(&self, proc: ProcId, n: u32) -> RpcResult<()> {
        let server = self
            .server
            .upgrade()
            .ok_or_else(|| RpcError::status(StatusCode::AppError, "gone"))?;
        let conn =
            current_conn().ok_or_else(|| RpcError::status(StatusCode::AppError, "no conn"))?;
        let target: UpcallTarget<u32, u32> = server.upcall_target(conn, proc)?;
        for x in 0..n {
            target.invoke(x)?;
        }
        target.invoke_async(n)
    }
}

fn remote_upcalls() -> u64 {
    clam_obs::snapshot().counter("core.upcall.remote")
}

#[test]
fn the_global_snapshot_sums_every_routers_upcalls() {
    let before = remote_upcalls();
    let server = ClamServer::builder()
        .listen(unique_inproc("upcall-counters"))
        .build()
        .expect("server starts");
    server.rpc().register_service(
        BOUNCE_SERVICE_ID,
        Arc::new(BounceSkeleton::new(Arc::new(BounceImpl {
            server: Arc::downgrade(&server),
        }))),
    );
    let clients: Vec<_> = (0..2)
        .map(|_| ClamClient::connect(&server.endpoints()[0]).expect("client connects"))
        .collect();
    for (client, n) in clients.iter().zip([3, 5]) {
        let proc = client.register_upcall(|x: u32| Ok(x + 1));
        let proxy = BounceProxy::new(
            Arc::clone(client.caller()),
            Target::Builtin(BOUNCE_SERVICE_ID),
        );
        proxy.bounce(proc, n).expect("bounce");
    }
    // 3 + 1 upcalls through one router, 5 + 1 through the other.
    assert_eq!(remote_upcalls() - before, 10);
    assert!(clam_obs::registry().instances("core.upcall.remote") >= 2);

    drop(clients);
    server.shutdown();
    assert_eq!(remote_upcalls() - before, 10, "gone routers still count");
}
