//! The one buffer rule: every buffer a `BufferPool` hands out goes back to
//! it exactly once, when the frame (or the reader) holding it drops,
//! whatever became of the frame. Once a case's frames and channels are
//! gone, each of its pools reads `xdr.pool.recycled == xdr.pool.hits +
//! xdr.pool.misses`:
//!
//! - (a) over a `FaultyChannel` that drops, duplicates or truncates frames;
//! - (b) after a send to a peer that has closed;
//! - (c) after a reply for an expired request, and a non-`Ok` reply;
//! - (d) after a served call frame, and an upcall frame once its handler
//!   ran (the client's upcall pool is its own, so the process-wide sum
//!   of every pool's counts is read too);
//! - (e) after a frame and its clone are sent.
//!
//! The one test reads the process-wide counters, so it must stay alone
//! in its file. It checks every case and then names each that failed.

use clam_core::{ClamClient, ClamServer};
use clam_integration::unique_unix;
use clam_net::{pair, FaultPlan, FaultyChannel};
use clam_rpc::{
    CallContext, Caller, CallerConfig, ConnId, Message, MessageView, Reply, RpcError, RpcResult,
    RpcServer, Service, StatusCode, Target,
};
use clam_task::Scheduler;
use clam_xdr::{BufferPool, Opaque};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

const UPCALLER_ID: u32 = 85;

/// Buffers handed out (hits and misses) and given back, by `metrics`.
fn cycle(metrics: &clam_obs::MetricsSnapshot) -> (u64, u64) {
    let out = metrics.counter("xdr.pool.hits") + metrics.counter("xdr.pool.misses");
    (out, metrics.counter("xdr.pool.recycled"))
}

/// Wait up to a few seconds for `counts` to read every buffer back
/// (teardown may end a reader's task a little later); a line naming
/// `case` if it never does.
fn home(case: &str, counts: impl Fn() -> (u64, u64)) -> Option<String> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (out, back) = counts();
        if out == back {
            return None;
        }
        if Instant::now() >= deadline {
            return Some(format!(
                "{case}: {out} buffers handed out, {back} given back"
            ));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn pool_home(case: &str, pool: &BufferPool) -> Option<String> {
    home(case, || cycle(&pool.metrics()))
}

fn reply(request_id: u64, status: StatusCode) -> Message {
    Message::Reply(Reply {
        request_id,
        status,
        detail: String::new(),
        results: Opaque::from(vec![7; 40]),
    })
}

/// (a): frames from one pool sent over a faulty link into a reader of
/// another pool.
fn faulty_link(name: &str, plan: FaultPlan) -> Vec<Option<String>> {
    let (sender_pool, reader_pool) = (BufferPool::default(), BufferPool::default());
    let (sender, mut receiver) = pair();
    receiver.attach_pool(&reader_pool);
    let (mut sender, fault) = FaultyChannel::wrap(sender, plan);
    sender.attach_pool(&sender_pool);
    for id in 1..=64 {
        let frame = reply(id, StatusCode::Ok).to_frame_in(&sender_pool).unwrap();
        sender.send(frame).expect("a faulty link takes every frame");
    }
    drop(sender);
    while receiver.recv().is_ok() {}
    drop(receiver);
    let dealt = fault.metrics();
    assert!(
        ["drop", "duplicate", "truncate"]
            .iter()
            .any(|kind| dealt.counter(&format!("net.fault.{kind}")) > 0),
        "the plan dealt no fault: {dealt:?}"
    );
    vec![
        pool_home(&format!("(a) {name}: sender"), &sender_pool),
        pool_home(&format!("(a) {name}: reader"), &reader_pool),
    ]
}

/// (b)
fn closed_peer() -> Option<String> {
    let pool = BufferPool::default();
    let (mut ours, theirs) = pair();
    ours.attach_pool(&pool);
    drop(theirs);
    let failed = (1..=8).any(|id| {
        let frame = reply(id, StatusCode::Ok).to_frame_in(&pool).unwrap();
        ours.send(frame).is_err()
    });
    assert!(failed, "a send to a closed peer fails");
    drop(ours);
    pool_home("(b) a send to a closed peer", &pool)
}

/// The request id of the one call in `frame`.
fn request_id(frame: &[u8]) -> u64 {
    match MessageView::parse(frame) {
        Ok(MessageView::CallBatch(batch)) => batch.iter().next().expect("a call").request_id,
        other => panic!("a call batch, not {other:?}"),
    }
}

/// (c): the peer answers the first call after it expired, and the
/// second with an error.
fn late_and_failed_replies() -> Option<String> {
    let (ours, mut theirs) = pair();
    let (writer, reader) = ours.split();
    let caller = Caller::new(
        &Scheduler::new("buffer-rule"),
        writer,
        CallerConfig {
            call_timeout: Some(Duration::from_millis(50)),
            ..CallerConfig::default()
        },
    );
    caller.attach_reader(reader);
    let pool = caller.buffer_pool().clone();
    let (expired_tx, expired_rx) = std::sync::mpsc::channel();
    let peer = std::thread::spawn(move || {
        let late = request_id(&theirs.recv().unwrap());
        expired_rx.recv().unwrap();
        theirs
            .send(reply(late, StatusCode::Ok).to_frame().unwrap())
            .unwrap();
        let failed = request_id(&theirs.recv().unwrap());
        let refused = reply(failed, StatusCode::AppError).to_frame().unwrap();
        theirs.send(refused).unwrap();
    });
    let call = || caller.call(Target::Builtin(9), 1, Opaque::new());
    assert!(matches!(call(), Err(RpcError::DeadlineExceeded)));
    expired_tx.send(()).unwrap();
    let refused = call().unwrap_err();
    assert_eq!(
        refused.status_code(),
        Some(StatusCode::AppError),
        "{refused}"
    );
    peer.join().unwrap();
    drop(caller);
    pool_home("(c) a late reply and an error reply", &pool)
}

/// Upcalls the procedure its call names, once async and once sync;
/// keeps the connection of its first call.
struct Upcaller {
    server: Weak<ClamServer>,
    conn: OnceLock<ConnId>,
}

impl Service for Upcaller {
    fn dispatch(&self, _: &RpcServer, ctx: &CallContext) -> RpcResult<Opaque> {
        self.conn.get_or_init(|| ctx.conn);
        let server = self.server.upgrade().ok_or(RpcError::Disconnected)?;
        let proc = clam_xdr::decode(ctx.args.as_slice())
            .map_err(|e| RpcError::status(StatusCode::BadArgs, e.to_string()))?;
        let target = server.upcall_target::<u32, u32>(ctx.conn, proc)?;
        target.invoke_async(1)?;
        let got = target.invoke(2)?;
        Ok(Opaque::from(clam_xdr::encode(&got)?))
    }
}

/// (d): served call frames on the server's session, upcall frames on the
/// client's upcall channel.
fn served_and_upcalled() -> Vec<Option<String>> {
    let server = ClamServer::builder()
        .listen(unique_unix("buffer-rule"))
        .build()
        .expect("server starts");
    let upcaller = Arc::new(Upcaller {
        server: Arc::downgrade(&server),
        conn: OnceLock::new(),
    });
    server
        .rpc()
        .register_service(UPCALLER_ID, Arc::clone(&upcaller) as Arc<dyn Service>);
    let client = ClamClient::connect(&server.endpoints()[0]).expect("client connects");
    let proc = client.register_upcall(|x: u32| Ok(x + 1));
    let args = Opaque::from(clam_xdr::encode(&proc).unwrap());
    for _ in 0..4 {
        let out = client
            .caller()
            .call(Target::Builtin(UPCALLER_ID), 0, args.clone())
            .expect("a call that upcalls");
        assert_eq!(clam_xdr::decode::<u32>(out.as_slice()).unwrap(), 3);
    }
    assert_eq!(client.upcalls_handled(), 8);
    let conn = *upcaller.conn.get().expect("the service was called");
    let session = server.sessions().get(conn).expect("the client's session");
    let session_pool = session.buffer_pool().clone();
    let caller_pool = client.caller().buffer_pool().clone();
    drop(session);
    drop(client);
    server.shutdown();
    drop(server);
    vec![
        pool_home("(d) the server session's call frames", &session_pool),
        pool_home("(d) the client's call frames", &caller_pool),
    ]
}

/// (e)
fn cloned_frame() -> Option<String> {
    let pool = BufferPool::default();
    let (mut ours, mut theirs) = pair();
    ours.attach_pool(&pool);
    let frame = reply(1, StatusCode::Ok).to_frame_in(&pool).unwrap();
    ours.send(frame.clone()).unwrap();
    ours.send(frame).unwrap();
    drop(ours);
    while theirs.recv().is_ok() {}
    pool_home("(e) a frame and its clone", &pool)
}

#[test]
fn every_pooled_buffer_goes_home_exactly_once() {
    let process = || cycle(&clam_obs::snapshot());
    let (out_before, back_before) = process();
    let seeded = FaultPlan::seeded(37);
    let mut failed: Vec<Option<String>> = Vec::new();
    failed.extend(faulty_link("drops", seeded.drop_frames(0.5)));
    failed.extend(faulty_link("duplicates", seeded.duplicate_frames(0.5)));
    failed.extend(faulty_link("truncations", seeded.truncate_frames(0.5)));
    failed.push(closed_peer());
    failed.push(late_and_failed_replies());
    failed.extend(served_and_upcalled());
    failed.push(cloned_frame());
    failed.push(home("every pool of the process", || {
        let (out, back) = process();
        (out - out_before, back - back_before)
    }));
    let failed: Vec<String> = failed.into_iter().flatten().collect();
    assert!(failed.is_empty(), "buffers astray:\n{}", failed.join("\n"));
}
