//! Concurrency behavior of the caller: many tasks sharing one channel,
//! out-of-order replies, interleaved batching.

use clam_net::pair;
use clam_rpc::{Caller, CallerConfig, Message, MessageView, Reply, StatusCode, Target};
use clam_task::Scheduler;
use clam_xdr::Opaque;
use parking_lot::Mutex;
use std::sync::Arc;

/// A server thread that echoes, optionally reordering each batch's
/// replies (last call answered first).
fn serve(mut chan: clam_net::Channel, reverse: bool) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        while let Ok(frame) = chan.recv() {
            let Ok(MessageView::CallBatch(calls)) = MessageView::parse(&frame) else {
                return;
            };
            let mut replies: Vec<Reply> = calls
                .iter()
                .filter(|c| c.request_id != 0)
                .map(|c| Reply {
                    request_id: c.request_id,
                    status: StatusCode::Ok,
                    detail: String::new(),
                    results: Opaque::from(c.args),
                })
                .collect();
            if reverse {
                replies.reverse();
            }
            for r in replies {
                if chan.send(Message::Reply(r).to_frame().unwrap()).is_err() {
                    return;
                }
            }
        }
    })
}

fn rig(reverse: bool) -> (Arc<Caller>, Scheduler, std::thread::JoinHandle<()>) {
    let (client, server) = pair();
    let sched = Scheduler::new("conc");
    let (w, r) = client.split();
    let caller = Caller::new(&sched, w, CallerConfig::default());
    caller.attach_reader(r);
    let handle = serve(server, reverse);
    (caller, sched, handle)
}

#[test]
fn many_tasks_share_one_caller() {
    let (caller, sched, _srv) = rig(false);
    let results = Arc::new(Mutex::new(Vec::new()));
    let mut handles = Vec::new();
    for i in 0..8u8 {
        let caller = Arc::clone(&caller);
        let results = Arc::clone(&results);
        handles.push(sched.spawn("caller-task", move || {
            for j in 0..5u8 {
                let payload = Opaque::from(vec![i, j]);
                let out = caller
                    .call(Target::Builtin(1), 0, payload.clone())
                    .expect("call");
                assert_eq!(out, payload, "reply matched to the right call");
            }
            results.lock().push(i);
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(results.lock().len(), 8);
    assert_eq!(caller.outstanding(), 0);
}

#[test]
fn out_of_order_replies_match_by_request_id() {
    // Two tasks issue calls that end up in one batch; the server answers
    // in reverse. Request-id matching must untangle them.
    let (caller, sched, _srv) = rig(true);
    let mut handles = Vec::new();
    for i in 0..6u8 {
        let caller = Arc::clone(&caller);
        handles.push(sched.spawn("ooo-task", move || {
            let payload = Opaque::from(vec![i; 3]);
            let out = caller
                .call(Target::Builtin(1), 0, payload.clone())
                .expect("call");
            assert_eq!(out, payload);
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn calls_from_plain_threads_also_work() {
    let (caller, _sched, _srv) = rig(false);
    let mut joins = Vec::new();
    for i in 0..4u8 {
        let caller = Arc::clone(&caller);
        joins.push(std::thread::spawn(move || {
            let payload = Opaque::from(vec![i]);
            let out = caller.call(Target::Builtin(1), 0, payload.clone()).unwrap();
            assert_eq!(out, payload);
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
}

#[test]
fn async_and_sync_interleave_without_loss() {
    // A mix of batched async and sync calls from several tasks: the
    // total number of calls that reach the server equals what was sent.
    let (client, server) = pair();
    let sched = Scheduler::new("mix");
    let (w, r) = client.split();
    let caller = Caller::new(&sched, w, CallerConfig::default());
    caller.attach_reader(r);

    let received = Arc::new(Mutex::new(0u64));
    let rcv = Arc::clone(&received);
    let mut server = server;
    let srv = std::thread::spawn(move || {
        while let Ok(frame) = server.recv() {
            let Ok(MessageView::CallBatch(calls)) = MessageView::parse(&frame) else {
                return;
            };
            *rcv.lock() += calls.iter().count() as u64;
            for c in calls.iter().filter(|c| c.request_id != 0) {
                let reply = Reply {
                    request_id: c.request_id,
                    status: StatusCode::Ok,
                    detail: String::new(),
                    results: Opaque::new(),
                };
                if server
                    .send(Message::Reply(reply).to_frame().unwrap())
                    .is_err()
                {
                    return;
                }
            }
        }
    });

    let mut handles = Vec::new();
    for _ in 0..4 {
        let caller = Arc::clone(&caller);
        handles.push(sched.spawn("mixer", move || {
            for k in 0..10u32 {
                if k % 3 == 0 {
                    caller.call(Target::Builtin(1), 0, Opaque::new()).unwrap();
                } else {
                    caller
                        .call_async(Target::Builtin(1), 0, Opaque::new())
                        .unwrap();
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    caller.flush().unwrap();
    // Barrier: one final sync call ensures everything before it arrived.
    caller.call(Target::Builtin(1), 0, Opaque::new()).unwrap();
    assert_eq!(*received.lock(), 4 * 10 + 1);
    drop(caller);
    srv.join().unwrap();
}
