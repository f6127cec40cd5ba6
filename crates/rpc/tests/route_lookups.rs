//! A frame's calls to one target read the service registry once: the
//! dispatch context of `RpcServer::serve_frame` keeps the route while no
//! registration changes it. The test in this file must stay alone here:
//! `rpc.route_lookups` is process-global.

use clam_rpc::{
    Call, CallContext, ConnId, Message, RpcResult, RpcServer, Service, Target, TaskWriter,
};
use clam_task::Scheduler;
use clam_xdr::{BufferPool, Opaque};
use parking_lot::Mutex;
use std::sync::Arc;

/// Method 1 registers a new copy of itself.
struct Swap;

impl Service for Swap {
    fn dispatch(&self, server: &RpcServer, ctx: &CallContext) -> RpcResult<Opaque> {
        if ctx.method == 1 {
            server.register_service(1, Arc::new(Swap));
        }
        Ok(Opaque::new())
    }
}

/// `rpc.route_lookups` made while serving one frame of `calls`.
fn lookups(server: &RpcServer, calls: Vec<Call>) -> u64 {
    let (_client, channel) = clam_net::pair();
    let (writer, _reader) = channel.split();
    let writer = TaskWriter::new(&Scheduler::new("route-lookups"), writer);
    let frame = Message::CallBatch(calls).to_frame().expect("encode batch");
    let before = clam_obs::snapshot();
    server
        .serve_frame(
            ConnId(1),
            &Mutex::default(),
            frame,
            &BufferPool::default(),
            &writer,
        )
        .expect("serve batch");
    clam_obs::snapshot()
        .delta(&before)
        .counter("rpc.route_lookups")
}

#[test]
fn a_frame_reads_the_registry_once_per_route() {
    let server = RpcServer::new();
    server.register_service(1, Arc::new(Swap));
    let to = |method: u32| Call {
        target: Target::Builtin(1),
        method,
        ..Call::default()
    };
    assert_eq!(lookups(&server, (0..64).map(|_| to(0)).collect()), 1);
    // The 32nd call registers the service again: the next call reads the
    // registry again.
    let swapped = (0..64).map(|i| to(u32::from(i == 31))).collect();
    assert_eq!(lookups(&server, swapped), 2);
}
