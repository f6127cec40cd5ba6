//! Armed deadlines are bounded by outstanding calls, not by calls ever
//! issued. Every sync call under the default `CallerConfig` arms a 30 s
//! deadline; a reply must disarm it. After 10k calls against an echo
//! server nothing may be left armed — a deadline that could not be
//! disarmed would hold all 10k until they expired.
//!
//! The single test in this file reads the process-global
//! `rpc.deadlines_armed` gauge, so it must stay alone here.

use clam_rpc::{Caller, CallerConfig, Message, MessageView, Reply, StatusCode, Target};
use clam_task::Scheduler;
use clam_xdr::Opaque;

/// Answer every sync call in every batch with its own arguments.
fn serve_echo(mut server: clam_net::Channel) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        while let Ok(frame) = server.recv() {
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
                if server.send(reply.to_frame().unwrap()).is_err() {
                    return;
                }
            }
        }
    })
}

#[test]
fn ten_thousand_sync_calls_leave_no_deadline_armed() {
    let armed_before = clam_obs::snapshot().gauge("rpc.deadlines_armed");
    let (client, server) = clam_net::pair();
    let sched = Scheduler::new("deadline-bound");
    let (w, r) = client.split();
    let caller = Caller::new(&sched, w, CallerConfig::default());
    caller.attach_reader(r);
    let echo = serve_echo(server);

    for i in 0..10_000u32 {
        let args = i.to_be_bytes().to_vec();
        let out = caller
            .call(Target::Builtin(1), 0, Opaque::from(args.clone()))
            .unwrap();
        assert_eq!(out.as_slice(), args.as_slice());
    }

    assert_eq!(caller.outstanding(), 0);
    assert_eq!(
        caller.replies().armed(),
        0,
        "replies disarm their deadlines"
    );
    assert_eq!(
        clam_obs::snapshot().gauge("rpc.deadlines_armed") - armed_before,
        0,
        "rpc.deadlines_armed returns to where it started"
    );
    drop(caller);
    echo.join().unwrap();
}
