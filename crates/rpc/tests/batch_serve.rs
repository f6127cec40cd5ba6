//! The calls of one frame share a dispatch context in
//! `RpcServer::serve_frame`: the connection, the trace scope and the last
//! service routed to carry over from call to call. Each test here serves one frame in
//! which a call changes what a later call must see, and checks that the
//! later call sees it exactly as if it had arrived alone.

use clam_obs::{EventKind, TraceContext};
use clam_rpc::{
    current_conn, Call, CallContext, ClassDispatch, ConnId, Message, MessageView, RpcResult,
    RpcServer, Service, StatusCode, Target, TaskWriter,
};
use clam_task::Scheduler;
use clam_xdr::{BufferPool, Opaque};
use parking_lot::Mutex;
use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A reply as read back: request id, status and results.
type Answer = (u64, StatusCode, Vec<u8>);

/// Serve `calls` as one frame from connection `conn` and read back the
/// replies it sent, in order.
fn serve(server: &RpcServer, conn: ConnId, calls: Vec<Call>) -> Vec<Answer> {
    let (client, channel) = clam_net::pair();
    let (writer, _reader) = channel.split();
    let writer = TaskWriter::new(&Scheduler::new("batch-serve"), writer);
    let frame = Message::CallBatch(calls).to_frame().expect("encode batch");
    server
        .serve_frame(
            conn,
            &Mutex::default(),
            frame,
            &BufferPool::default(),
            &writer,
        )
        .expect("serve batch");
    drop(writer); // the hangup ends the replies
    let (_, mut reader) = client.split();
    let mut replies = Vec::new();
    while let Ok(frame) = reader.recv() {
        let Ok(MessageView::Reply(reply)) = MessageView::parse(&frame) else {
            panic!("not a reply");
        };
        replies.push((reply.request_id, reply.status, reply.results.to_vec()));
    }
    replies
}

fn call(target: Target, method: u32, request_id: u64) -> Call {
    Call {
        request_id,
        target,
        method,
        ..Call::default()
    }
}

fn ok(request_id: u64, results: &[u8]) -> Answer {
    (request_id, StatusCode::Ok, results.to_vec())
}

fn failed(request_id: u64, status: StatusCode) -> Answer {
    (request_id, status, Vec::new())
}

/// Answers with its tag byte.
struct Tag(u8);

impl Service for Tag {
    fn dispatch(&self, _: &RpcServer, _: &CallContext, results: &mut Vec<u8>) -> RpcResult<()> {
        results.push(self.0);
        Ok(())
    }
}

/// Answers with its arguments.
struct Echo;

impl Service for Echo {
    fn dispatch(&self, _: &RpcServer, ctx: &CallContext, results: &mut Vec<u8>) -> RpcResult<()> {
        results.extend_from_slice(ctx.args);
        Ok(())
    }
}

/// Runs its closure, then answers with nothing.
struct Run<F>(F);

impl<F: Fn(&RpcServer, &CallContext) + Send + Sync> Service for Run<F> {
    fn dispatch(&self, server: &RpcServer, ctx: &CallContext, _: &mut Vec<u8>) -> RpcResult<()> {
        (self.0)(server, ctx);
        Ok(())
    }
}

fn run(f: impl Fn(&RpcServer, &CallContext) + Send + Sync + 'static) -> Arc<dyn Service> {
    Arc::new(Run(f))
}

/// Answers each call with the count of calls its object has had.
struct Counter;

impl ClassDispatch for Counter {
    fn class_name(&self) -> &str {
        "counter"
    }

    fn dispatch(
        &self,
        _server: &RpcServer,
        object: &Arc<dyn Any + Send + Sync>,
        _ctx: &CallContext,
        results: &mut Vec<u8>,
    ) -> RpcResult<()> {
        let calls = object.downcast_ref::<AtomicU64>().expect("a counter");
        let n = calls.fetch_add(1, Ordering::SeqCst) + 1;
        results.push(u8::try_from(n).expect("few calls"));
        Ok(())
    }
}

const COUNTER_CLASS: u32 = 7;

/// Answers with its tag byte. Method 1 first replaces it with the next
/// tag on this thread, method 2 from another thread that it waits for.
struct Swapper(u8);

impl Service for Swapper {
    fn dispatch(
        &self,
        server: &RpcServer,
        ctx: &CallContext,
        results: &mut Vec<u8>,
    ) -> RpcResult<()> {
        let next = || server.register_service(1, Arc::new(Swapper(self.0 + 1)));
        match ctx.method {
            1 => next(),
            2 => std::thread::scope(|s| {
                s.spawn(next);
            }),
            _ => {}
        }
        results.push(self.0);
        Ok(())
    }
}

#[test]
fn a_service_registered_by_a_call_serves_the_next_call() {
    let server = RpcServer::new();
    server.register_service(1, Arc::new(Swapper(1)));
    let one = Target::Builtin(1);
    let methods = [0, 0, 1, 0, 2, 0];
    let calls = (1..).zip(methods).map(|(id, m)| call(one, m, id)).collect();
    let replies = serve(&server, ConnId(1), calls);
    let tags = [1, 1, 1, 2, 2, 3];
    let expected: Vec<_> = (1..).zip(tags).map(|(id, tag)| ok(id, &[tag])).collect();
    assert_eq!(replies, expected);
}

#[test]
fn a_class_unregistered_by_a_call_fails_the_next_object_call() {
    let server = RpcServer::new();
    server.register_class(COUNTER_CLASS, Arc::new(Counter));
    server.register_service(1, run(|server, _| server.unregister_class(COUNTER_CLASS)));
    server.register_service(
        2,
        run(|server, _| server.register_class(COUNTER_CLASS, Arc::new(Counter))),
    );
    let object =
        Target::Object(server.register_object(COUNTER_CLASS, 1, Arc::new(AtomicU64::new(0))));
    let replies = serve(
        &server,
        ConnId(1),
        vec![
            call(object, 0, 1),
            call(Target::Builtin(1), 0, 2),
            call(object, 0, 3),
            call(Target::Builtin(2), 0, 4),
            call(object, 0, 5),
        ],
    );
    assert_eq!(
        replies,
        [
            ok(1, &[1]),
            ok(2, &[]),
            failed(3, StatusCode::NoSuchClass),
            ok(4, &[]),
            ok(5, &[2])
        ]
    );
}

#[test]
fn an_object_invalidated_by_a_call_fails_the_next_call_as_stale() {
    let server = RpcServer::new();
    server.register_class(COUNTER_CLASS, Arc::new(Counter));
    server.register_service(
        1,
        run(|server, ctx| {
            server.invalidate_owner(ctx.conn);
        }),
    );
    let conn = ConnId(5);
    let handle =
        server
            .objects()
            .register_owned(COUNTER_CLASS, 1, Arc::new(AtomicU64::new(0)), Some(conn));
    let object = Target::Object(handle);
    let replies = serve(
        &server,
        conn,
        vec![
            call(object, 0, 1),
            call(object, 0, 2),
            call(Target::Builtin(1), 0, 3),
            call(object, 0, 4),
        ],
    );
    assert_eq!(
        replies,
        [
            ok(1, &[1]),
            ok(2, &[2]),
            ok(3, &[]),
            failed(4, StatusCode::StaleHandle)
        ]
    );
}

#[test]
fn each_call_runs_and_journals_under_its_own_trace_context() {
    let server = RpcServer::new();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&seen);
    server.register_service(1, run(move |_, _| log.lock().push(clam_obs::current())));
    let (a, b) = (TraceContext::new_root(), TraceContext::new_root());
    let traces = [a, a, b, TraceContext::NONE, a, b, b];
    let calls = traces
        .iter()
        .enumerate()
        .map(|(i, &trace)| Call {
            trace,
            ..call(Target::Builtin(1), 9, i as u64 + 1)
        })
        .collect();
    let outer = TraceContext::new_root();
    let scope = clam_obs::enter(outer);
    assert_eq!(serve(&server, ConnId(1), calls).len(), traces.len());
    assert_eq!(clam_obs::current(), outer, "the outer context is back");
    drop(scope);

    assert_eq!(*seen.lock(), traces);
    let journaled = |ctx: TraceContext| {
        clam_obs::journal()
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::ServerDispatch && e.trace == ctx.trace)
            .inspect(|e| assert_eq!((e.span, e.code), (ctx.span, 9)))
            .count()
    };
    assert_eq!((journaled(a), journaled(b)), (3, 3));
}

#[test]
fn current_conn_is_the_frames_connection_in_each_call_and_none_after() {
    let server = RpcServer::new();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&seen);
    server.register_service(1, run(move |_, _| log.lock().push(current_conn())));
    let conn = ConnId(42);
    let calls = (0..4).map(|i| call(Target::Builtin(1), 0, i)).collect();
    assert_eq!(serve(&server, conn, calls).len(), 3);
    assert_eq!(*seen.lock(), [Some(conn); 4]);
    assert_eq!(current_conn(), None);
}

#[test]
fn a_panicking_call_faults_alone_and_later_calls_run() {
    let server = RpcServer::new();
    server.register_service(1, Arc::new(Tag(1)));
    server.register_service(2, run(|_, _| panic!("fault in served code")));
    let faults = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&faults);
    server.set_fault_observer(Arc::new(move |conn, ctx, _| {
        log.lock().push((conn, ctx.request_id));
    }));
    let (tag, panics) = (Target::Builtin(1), Target::Builtin(2));
    let replies = serve(
        &server,
        ConnId(3),
        vec![
            call(tag, 0, 1),
            call(panics, 0, 2),
            call(tag, 0, 3),
            call(panics, 0, 0),
            call(tag, 0, 4),
        ],
    );
    let statuses: Vec<_> = replies.iter().map(|r| (r.0, r.1)).collect();
    assert_eq!(
        statuses,
        [
            (1, StatusCode::Ok),
            (2, StatusCode::Fault),
            (3, StatusCode::Ok),
            (4, StatusCode::Ok)
        ]
    );
    assert_eq!(*faults.lock(), [(ConnId(3), 2), (ConnId(3), 0)]);
    assert_eq!(current_conn(), None);
}

/// What the serving thread and a re-registering thread share.
#[derive(Default)]
struct Watch {
    /// The last registration whose `register_service` has returned.
    published: AtomicU64,
    /// `published` as the last call saw it as it finished: the next call
    /// is routed after that, so it must reach that registration or a
    /// newer one.
    floor: AtomicU64,
    /// Calls that reached an older registration.
    stale: AtomicU64,
}

/// One registration of one of two counting legs.
struct Leg {
    registration: u64,
    calls: Arc<AtomicU64>,
    watch: Arc<Watch>,
}

impl Service for Leg {
    fn dispatch(&self, _: &RpcServer, _: &CallContext, _: &mut Vec<u8>) -> RpcResult<()> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        let watch = &self.watch;
        if self.registration < watch.floor.load(Ordering::SeqCst) {
            watch.stale.fetch_add(1, Ordering::SeqCst);
        }
        let published = watch.published.load(Ordering::SeqCst);
        watch.floor.store(published, Ordering::SeqCst);
        Ok(())
    }
}

#[test]
fn a_service_re_registered_by_another_thread_serves_every_later_call_once() {
    const FRAMES: u64 = 200;
    const CALLS: u64 = 64;
    let server = RpcServer::new();
    let watch = Arc::new(Watch::default());
    let legs = [0, 1].map(|_| Arc::new(AtomicU64::new(0)));
    let leg = |registration: u64| -> Arc<dyn Service> {
        Arc::new(Leg {
            registration,
            calls: Arc::clone(&legs[(registration % 2) as usize]),
            watch: Arc::clone(&watch),
        })
    };
    server.register_service(1, leg(0));
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            for registration in 1.. {
                if done.load(Ordering::SeqCst) {
                    break;
                }
                server.register_service(1, leg(registration));
                watch.published.store(registration, Ordering::SeqCst);
                std::thread::yield_now();
            }
        });
        for frame in 0..FRAMES {
            let calls = (0..CALLS)
                .map(|i| call(Target::Builtin(1), 0, (i % 2) * (frame * CALLS + i + 1)))
                .collect();
            assert_eq!(serve(&server, ConnId(1), calls).len(), CALLS as usize / 2);
        }
        done.store(true, Ordering::SeqCst);
    });
    let counted: u64 = legs.iter().map(|leg| leg.load(Ordering::SeqCst)).sum();
    assert_eq!(counted, FRAMES * CALLS);
    assert_eq!(
        watch.stale.load(Ordering::SeqCst),
        0,
        "a call reached a replaced service"
    );
    assert!(watch.published.load(Ordering::SeqCst) > 0);
}

#[test]
fn a_panic_faults_only_its_own_call_and_the_frame_serves_on() {
    let server = RpcServer::new();
    let runs = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&runs);
    server.register_service(
        1,
        run(move |_, ctx| log.lock().push((ctx.args.to_vec(), current_conn()))),
    );
    server.register_service(2, run(|_, _| panic!("fault in served code")));
    server.register_service(3, Arc::new(Echo));
    let faults = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&faults);
    server.set_fault_observer(Arc::new(move |conn, ctx, _| {
        log.lock().push((conn, ctx.request_id));
    }));
    let with = |target: Target, request_id: u64, args: &[u8]| Call {
        trace: TraceContext::new_root(),
        args: Opaque::from(args.to_vec()),
        ..call(target, 0, request_id)
    };
    let (note, panics, echo) = (Target::Builtin(1), Target::Builtin(2), Target::Builtin(3));
    let conn = ConnId(8);

    let outer = TraceContext::new_root();
    let scope = clam_obs::enter(outer);
    let replies = serve(
        &server,
        conn,
        vec![
            with(note, 0, &[1]),
            with(panics, 5, &[]),
            with(note, 0, &[2]),
            with(panics, 0, &[]),
            with(echo, 6, &[9]),
        ],
    );
    assert_eq!(
        clam_obs::current(),
        outer,
        "the outer trace context is back"
    );
    drop(scope);
    assert_eq!(current_conn(), None, "the frame's connection is gone");

    assert_eq!(replies, [failed(5, StatusCode::Fault), ok(6, &[9])]);
    assert_eq!(
        *runs.lock(),
        [(vec![1], Some(conn)), (vec![2], Some(conn))],
        "both notes ran, in order"
    );
    assert_eq!(*faults.lock(), [(conn, 5), (conn, 0)]);
}
