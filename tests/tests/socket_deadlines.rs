//! Sync-call and upcall deadlines over the stream transports.
//!
//! A lone waiter reads its own reply under its own deadline, so on Unix
//! and TCP the deadline is the reader's own timed wait. Each expiry must fall
//! within [T, 2T), and the link must keep working afterwards: the late
//! reply (if any) is dropped and the next request gets its own reply —
//! also when the deadline cuts a reply off partway.

use clam_core::{ClamClient, ClamServer, ServerConfig, SessionCtl, UpcallTarget};
use clam_integration::unique_unix;
use clam_net::{Channel, Endpoint, Frame, FRAME_PREFIX_LEN};
use clam_rpc::{
    CallContext, Caller, CallerConfig, Message, MessageView, ProcId, Reply, RpcError, RpcResult,
    RpcServer, Service, StatusCode, Target,
};
use clam_task::Scheduler;
use clam_xdr::Opaque;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::sync::{mpsc, Arc, Weak};
use std::time::{Duration, Instant};

const T: Duration = Duration::from_millis(200);
const UPCALL_SERVICE_ID: u32 = 80;
/// The argument that makes the client's handler sleep past the deadline.
const SLOW: u32 = 0;

/// An expiry must fall within [T, 2T).
fn assert_in_window(took: Duration) {
    assert!(took >= T, "deadline fired early: {took:?}");
    assert!(took < T * 2, "deadline fired late: {took:?}");
}

/// Upcalls `proc(x)` from the serving task; returns (the result or
/// `u32::MAX`, whether the upcall expired, how long the task waited in µs).
struct TimedUpcall {
    server: Weak<ClamServer>,
}

impl Service for TimedUpcall {
    fn dispatch(
        &self,
        _rpc: &RpcServer,
        ctx: &CallContext,
        results: &mut Vec<u8>,
    ) -> RpcResult<()> {
        let (proc, x): (ProcId, u32) = clam_xdr::decode(ctx.args)?;
        let server = self.server.upgrade().expect("server alive");
        let target: UpcallTarget<u32, u32> = server.upcall_target(ctx.conn, proc)?;
        let start = Instant::now();
        let outcome = target.invoke(x);
        #[allow(clippy::cast_possible_truncation)]
        let waited = start.elapsed().as_micros() as u64;
        let expired = matches!(outcome, Err(RpcError::DeadlineExceeded));
        let value = outcome.unwrap_or(u32::MAX);
        Ok(clam_xdr::bundle_onto((value, expired, waited), results)?)
    }
}

/// The `upcall_timeout.rs` scenario over `endpoint`: a 200 ms upcall
/// deadline against a handler that sleeps 600 ms.
fn upcall_deadline(endpoint: Endpoint) {
    let server = ClamServer::builder()
        .config(ServerConfig::default().with_upcall_timeout(T))
        .listen(endpoint)
        .build()
        .expect("server starts");
    server.rpc().register_service(
        UPCALL_SERVICE_ID,
        Arc::new(TimedUpcall {
            server: Arc::downgrade(&server),
        }),
    );
    let client = ClamClient::connect(&server.endpoints()[0]).expect("client connects");
    let proc = client.register_upcall(|x: u32| {
        if x == SLOW {
            std::thread::sleep(T * 3);
        }
        Ok(x + 1)
    });
    let upcall = |x: u32| -> (u32, bool, Duration) {
        let args = Opaque::from(clam_xdr::encode(&(proc, x)).unwrap());
        let out = client
            .caller()
            .call(Target::Builtin(UPCALL_SERVICE_ID), 0, args)
            .expect("the triggering call itself succeeds");
        let (value, expired, waited): (u32, bool, u64) = clam_xdr::decode(out.as_slice()).unwrap();
        (value, expired, Duration::from_micros(waited))
    };

    let (_, expired, waited) = upcall(SLOW);
    assert!(expired, "the slow upcall did not expire");
    assert_in_window(waited);

    // The late reply reaches a table that no longer holds the request;
    // the next upcall gets its own reply and the session lives on.
    let finished = Instant::now() + Duration::from_secs(5);
    while client.upcalls_handled() < 1 {
        assert!(Instant::now() < finished, "slow handler never finished");
        std::thread::sleep(Duration::from_millis(10));
    }
    let (value, expired, _) = upcall(7);
    assert!(!expired);
    assert_eq!(value, 8);
    client.session().ping().expect("the link still works");
    server.shutdown();
}

#[test]
fn upcall_deadline_over_unix() {
    upcall_deadline(unique_unix("upcall-deadline"));
}

#[test]
fn upcall_deadline_over_tcp() {
    upcall_deadline(Endpoint::tcp("127.0.0.1:0"));
}

/// A sync call into a black hole over `endpoint`: the server end swallows
/// the first call, then answers every later one with its arguments.
fn black_hole_call_deadline(endpoint: Endpoint) {
    let listener = clam_net::listen(&endpoint).expect("listen");
    let client_end = clam_net::connect(&listener.endpoint()).expect("connect");
    let mut server_end = listener.accept().expect("accept");
    let server = std::thread::spawn(move || {
        let _ = server_end.recv().expect("the black-holed call");
        while let Ok(frame) = server_end.recv() {
            let Ok(MessageView::CallBatch(calls)) = MessageView::parse(&frame) else {
                panic!("unexpected message");
            };
            for call in calls.iter().filter(|c| c.request_id != 0) {
                let reply = Message::Reply(Reply {
                    request_id: call.request_id,
                    status: StatusCode::Ok,
                    detail: String::new(),
                    results: Opaque::from(call.args),
                });
                if server_end.send(reply.to_frame().unwrap()).is_err() {
                    return;
                }
            }
        }
    });
    let (w, r) = client_end.split();
    let caller = Caller::new(
        &Scheduler::new("socket-deadline"),
        w,
        CallerConfig {
            call_timeout: Some(T),
            ..CallerConfig::default()
        },
    );
    caller.attach_reader(r);

    let start = Instant::now();
    let outcome = caller.call(Target::Builtin(1), 0, Opaque::from(vec![1]));
    assert!(
        matches!(outcome, Err(RpcError::DeadlineExceeded)),
        "got {outcome:?}"
    );
    assert_in_window(start.elapsed());
    assert_eq!((caller.outstanding(), caller.replies().armed()), (0, 0));

    for i in 2..5u8 {
        let out = caller
            .call(Target::Builtin(1), 0, Opaque::from(vec![i]))
            .expect("the link keeps working");
        assert_eq!(out.as_slice(), &[i]);
    }
    drop(caller);
    server.join().unwrap();
}

#[test]
fn black_hole_call_deadline_over_unix() {
    black_hole_call_deadline(unique_unix("black-hole"));
}

#[test]
fn black_hole_call_deadline_over_tcp() {
    black_hole_call_deadline(Endpoint::tcp("127.0.0.1:0"));
}

/// Answer `call`'s sync calls by echoing their arguments.
fn echo_replies(call: &Frame) -> Vec<Frame> {
    let Ok(MessageView::CallBatch(calls)) = MessageView::parse(call) else {
        panic!("unexpected message");
    };
    calls
        .iter()
        .filter(|c| c.request_id != 0)
        .map(|c| {
            let reply = Message::Reply(Reply {
                request_id: c.request_id,
                status: StatusCode::Ok,
                detail: String::new(),
                results: Opaque::from(c.args),
            });
            reply.to_frame().unwrap()
        })
        .collect()
}

/// A server that sends the first few bytes of its first reply, stalls
/// until `resume` fires (or for 3T, so a caller that waits for the whole
/// reply fails instead of hanging), sends the rest, then echoes every
/// later call.
fn stall_mid_reply<S: Read + Write>(mut stream: S, resume: &mpsc::Receiver<()>) {
    let first = clam_net::read_frame(&mut stream).expect("the first call");
    let reply = echo_replies(&first).remove(0);
    let cut = FRAME_PREFIX_LEN + 3;
    stream.write_all(&reply.wire()[..cut]).unwrap();
    let _ = resume.recv_timeout(T * 3);
    stream.write_all(&reply.wire()[cut..]).unwrap();
    while let Ok(call) = clam_net::read_frame(&mut stream) {
        for reply in echo_replies(&call) {
            if stream.write_all(reply.wire()).is_err() {
                return;
            }
        }
    }
}

/// A sync call whose reply stops partway: the call still fails at its
/// deadline, and once the rest of the reply arrives the link goes on.
fn stalled_reply_call_deadline<S>(client_end: Channel, server_end: S)
where
    S: Read + Write + Send + 'static,
{
    let (resume, resumed) = mpsc::channel();
    let server = std::thread::spawn(move || stall_mid_reply(server_end, &resumed));
    let (w, r) = client_end.split();
    let caller = Caller::new(
        &Scheduler::new("stalled-reply"),
        w,
        CallerConfig {
            call_timeout: Some(T),
            ..CallerConfig::default()
        },
    );
    caller.attach_reader(r);

    let start = Instant::now();
    let outcome = caller.call(Target::Builtin(1), 0, Opaque::from(vec![1]));
    assert!(
        matches!(outcome, Err(RpcError::DeadlineExceeded)),
        "got {outcome:?}"
    );
    assert_in_window(start.elapsed());
    assert_eq!((caller.outstanding(), caller.replies().armed()), (0, 0));

    // The rest of the late reply arrives; it is dropped, and every later
    // call gets its own reply.
    resume.send(()).unwrap();
    for i in 2..5u8 {
        let out = caller
            .call(Target::Builtin(1), 0, Opaque::from(vec![i]))
            .expect("the link keeps working");
        assert_eq!(out.as_slice(), &[i]);
    }
    drop(caller);
    server.join().unwrap();
}

#[test]
fn stalled_reply_call_deadline_over_unix() {
    let Endpoint::Unix(path) = unique_unix("stalled-reply") else {
        unreachable!("a unix endpoint")
    };
    let listener = UnixListener::bind(&path).unwrap();
    let client_end = clam_net::connect(&Endpoint::unix(&path)).expect("connect");
    let (server_end, _) = listener.accept().unwrap();
    stalled_reply_call_deadline(client_end, server_end);
    let _ = std::fs::remove_file(path);
}

#[test]
fn stalled_reply_call_deadline_over_tcp() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let client_end = clam_net::connect(&Endpoint::tcp(addr)).expect("connect");
    let (server_end, _) = listener.accept().unwrap();
    server_end.set_nodelay(true).unwrap();
    stalled_reply_call_deadline(client_end, server_end);
}
