//! A `Caller` whose peer stops reading stalls only the task that sends to
//! it.
//!
//! Task A sends 2 MiB of calls (1 KiB of arguments each) to a peer that
//! reads nothing, far more than a socket buffer holds. Task B shares A's
//! scheduler; A spawns it before its first send, so B can run only once A
//! gives up the baton. A send into the full socket waits outside the
//! baton, so B runs to completion while A waits. When the peer then
//! drains the socket, every call of A arrives exactly once, in order: as
//! auto-flushed async batches, and as the batch a nested call flushes
//! ahead of its own `NestedCallBatch` frame.

use clam_net::{pair, MsgReader, MsgWriter};
use clam_rpc::{
    nested_call_scope, Caller, CallerConfig, Message, MessageView, Reply, StatusCode, Target,
};
use clam_task::Scheduler;
use clam_xdr::Opaque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// 2 MiB of 1 KiB arguments.
const CALLS: u32 = 2048;

/// Call `i`'s arguments: 1 KiB that begins with `i`.
fn args(i: u32) -> Opaque {
    let mut args = vec![0xA5; 1024];
    args[..4].copy_from_slice(&i.to_be_bytes());
    Opaque::from(args)
}

/// The peer's end of a stalled caller.
struct Peer {
    reader: Box<dyn MsgReader>,
    writer: Box<dyn MsgWriter>,
    /// Task A has sent everything.
    a_done: mpsc::Receiver<()>,
}

/// Run `a` as task A with a caller whose peer reads nothing until task B
/// has run, and return the peer once B has.
fn stall(config: CallerConfig, a: impl FnOnce(&Caller) + Send + 'static) -> Peer {
    let (client, server) = pair();
    let sched = Scheduler::new("caller-stall");
    let (w, r) = client.split();
    let caller = Caller::new(&sched, w, config);
    caller.attach_reader(r);
    let finished = Arc::new(AtomicBool::new(false));
    let (b_ran, b_result) = mpsc::channel();
    let (done, a_done) = mpsc::channel();
    {
        let sched = sched.clone();
        let finished = Arc::clone(&finished);
        sched.clone().spawn("a", move || {
            // Queued behind A, which holds the baton until a send waits.
            let a_finished = Arc::clone(&finished);
            sched.spawn("b", move || {
                let _ = b_ran.send(a_finished.load(Ordering::SeqCst));
            });
            a(&caller);
            finished.store(true, Ordering::SeqCst);
            let _ = done.send(());
        });
    }
    let a_had_finished = b_result
        .recv_timeout(Duration::from_secs(1))
        .expect("task B never ran while task A's send waited for room");
    assert!(!a_had_finished, "B ran only after A had sent everything");
    let (writer, reader) = server.split();
    Peer {
        reader,
        writer,
        a_done,
    }
}

/// Read call frames until `CALLS` calls have come, checking that call
/// `i` is method `i` with its own arguments, and return how many frames
/// they filled.
fn drain_in_order(peer: &mut Peer) -> usize {
    let (mut next, mut frames) = (0u32, 0);
    while next < CALLS {
        let frame = peer.reader.recv().expect("A's calls arrive");
        let Ok(MessageView::CallBatch(calls)) = MessageView::parse(&frame) else {
            panic!("expected a plain call batch");
        };
        frames += 1;
        for call in calls.iter() {
            assert_eq!(call.method, next, "calls arrive in order, once each");
            assert_eq!(call.args, args(next).as_slice());
            next += 1;
        }
    }
    frames
}

/// Nothing but what was checked arrived: once A is done and has dropped
/// its caller, the stream ends.
fn nothing_more(peer: &mut Peer) {
    peer.a_done
        .recv_timeout(Duration::from_secs(10))
        .expect("task A finishes once the peer reads");
    match peer.reader.recv() {
        Err(e) if e.is_closed() => {}
        other => panic!("expected the end of A's stream, got {other:?}"),
    }
}

#[test]
fn async_calls_into_a_full_socket_stall_only_their_task() {
    let mut peer = stall(CallerConfig::default(), |caller| {
        for i in 0..CALLS {
            caller
                .call_async(Target::Builtin(7), i, args(i))
                .expect("call_async");
        }
        caller.flush().expect("flush");
    });
    // The default config flushes every 64 KiB.
    assert!(drain_in_order(&mut peer) > 1);
    nothing_more(&mut peer);
}

#[test]
fn a_nested_call_into_a_full_socket_stalls_only_its_task() {
    let config = CallerConfig {
        flush_at_calls: usize::MAX,
        flush_at_bytes: usize::MAX,
        ..CallerConfig::default()
    };
    let mut peer = stall(config, |caller| {
        nested_call_scope(|| {
            for i in 0..CALLS {
                caller
                    .call_async(Target::Builtin(7), i, args(i))
                    .expect("call_async");
            }
            // Flushes the 2 MiB batch, then sends itself alone.
            caller
                .call(Target::Builtin(7), CALLS, Opaque::new())
                .expect("the nested call returns");
        });
    });
    assert_eq!(drain_in_order(&mut peer), 1);
    let frame = peer.reader.recv().expect("the nested call arrives");
    let Ok(MessageView::NestedCallBatch(calls)) = MessageView::parse(&frame) else {
        panic!("expected the nested call's own frame");
    };
    let calls: Vec<_> = calls.iter().collect();
    assert_eq!(calls.len(), 1);
    assert_eq!(calls[0].method, CALLS);
    let reply = Message::Reply(Reply {
        request_id: calls[0].request_id,
        status: StatusCode::Ok,
        detail: String::new(),
        results: Opaque::new(),
    });
    peer.writer.send(reply.to_frame().unwrap()).unwrap();
    nothing_more(&mut peer);
}
