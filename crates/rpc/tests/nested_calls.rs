//! The nested-call protocol: calls made inside `nested_call_scope` are
//! framed as `NestedCallBatch` so servers can service them while a main
//! RPC task is blocked in an upcall (paper section 4.4's nested flow).

use clam_net::pair;
use clam_rpc::{
    in_nested_context, nested_call_scope, Caller, CallerConfig, Message, MessageView, Reply,
    StatusCode, Target, TaskWriter,
};
use clam_task::Scheduler;
use clam_xdr::{BufferPool, Opaque};

#[test]
fn nested_scope_is_thread_local_and_restores() {
    assert!(!in_nested_context());
    let out = nested_call_scope(|| {
        assert!(in_nested_context());
        nested_call_scope(|| assert!(in_nested_context()));
        assert!(in_nested_context());
        42
    });
    assert_eq!(out, 42);
    assert!(!in_nested_context());

    // Other threads are unaffected.
    nested_call_scope(|| {
        std::thread::spawn(|| assert!(!in_nested_context()))
            .join()
            .unwrap();
    });
}

#[test]
fn a_panicking_handler_leaves_no_nested_context_behind() {
    let unwound = std::panic::catch_unwind(|| nested_call_scope(|| panic!("handler fault")));
    assert!(unwound.is_err());
    assert!(
        !in_nested_context(),
        "a reused worker would frame every call as nested"
    );
}

#[test]
fn frame_header_identifies_nested_batches() {
    let plain = Message::CallBatch(Vec::new()).to_frame().unwrap();
    let nested = Message::NestedCallBatch(Vec::new()).to_frame().unwrap();
    assert!(!Message::frame_is_nested(&plain));
    assert!(Message::frame_is_nested(&nested));
    assert!(!Message::frame_is_nested(&[]));
    assert!(!Message::frame_is_nested(&[0, 0, 0]));
}

#[test]
fn nested_batches_round_trip_and_dispatch_like_plain_ones() {
    let call = clam_rpc::Call {
        request_id: 9,
        target: Target::Builtin(1),
        method: 2,
        args: Opaque::from(vec![1, 2]),
        ..clam_rpc::Call::default()
    };
    let msg = Message::NestedCallBatch(vec![call.clone()]);
    let frame = msg.to_frame().unwrap();
    let Ok(MessageView::NestedCallBatch(back)) = MessageView::parse(&frame) else {
        panic!("expected nested batch");
    };
    assert!(back.iter().eq([call.view()]));

    // The dispatch engine accepts them.
    let server = clam_rpc::RpcServer::new();
    let (client, channel) = pair();
    let (writer, _reader) = channel.split();
    let writer = TaskWriter::new(&Scheduler::new("nested-serve"), writer);
    server
        .serve_frame(
            clam_rpc::ConnId(1),
            &parking_lot::Mutex::default(),
            frame,
            &BufferPool::default(),
            &writer,
        )
        .unwrap();
    drop(writer); // the hangup ends the replies
    let (_, mut reader) = client.split();
    let mut replies = Vec::new();
    while let Ok(frame) = reader.recv() {
        let Ok(MessageView::Reply(reply)) = MessageView::parse(&frame) else {
            panic!("expected a reply");
        };
        replies.push(reply.status);
    }
    assert_eq!(replies, [StatusCode::NoSuchService]);
}

#[test]
fn calls_in_nested_scope_use_nested_frames_and_flush_first() {
    let (client_ch, mut server_ch) = pair();
    let sched = Scheduler::new("nested-frames");
    let (w, r) = client_ch.split();
    let caller = Caller::new(&sched, w, CallerConfig::default());
    caller.attach_reader(r);

    // Queue two oneways, then make a sync call from nested context.
    caller
        .call_async(Target::Builtin(1), 1, Opaque::new())
        .unwrap();
    caller
        .call_async(Target::Builtin(1), 2, Opaque::new())
        .unwrap();

    let srv = std::thread::spawn(move || {
        // First frame: the flushed ordinary batch with the two oneways.
        let f1 = server_ch.recv().unwrap();
        assert!(!Message::frame_is_nested(&f1));
        let Ok(MessageView::CallBatch(calls)) = MessageView::parse(&f1) else {
            panic!("expected plain batch");
        };
        assert_eq!(calls.iter().count(), 2);

        // Second frame: the nested call alone.
        let f2 = server_ch.recv().unwrap();
        assert!(Message::frame_is_nested(&f2));
        let Ok(MessageView::NestedCallBatch(calls)) = MessageView::parse(&f2) else {
            panic!("expected nested batch");
        };
        let calls: Vec<_> = calls.iter().collect();
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].method, 3);
        let reply = Message::Reply(Reply {
            request_id: calls[0].request_id,
            status: StatusCode::Ok,
            detail: String::new(),
            results: Opaque::new(),
        });
        server_ch.send(reply.to_frame().unwrap()).unwrap();
    });

    nested_call_scope(|| {
        caller.call(Target::Builtin(1), 3, Opaque::new()).unwrap();
    });
    srv.join().unwrap();
}

#[test]
fn calls_outside_nested_scope_stay_plain() {
    let (client_ch, mut server_ch) = pair();
    let sched = Scheduler::new("plain-frames");
    let (w, r) = client_ch.split();
    let caller = Caller::new(&sched, w, CallerConfig::default());
    caller.attach_reader(r);
    let srv = std::thread::spawn(move || {
        let f = server_ch.recv().unwrap();
        assert!(!Message::frame_is_nested(&f));
        let Ok(MessageView::CallBatch(calls)) = MessageView::parse(&f) else {
            panic!("expected plain batch");
        };
        let reply = Message::Reply(Reply {
            request_id: calls.iter().next().unwrap().request_id,
            status: StatusCode::Ok,
            detail: String::new(),
            results: Opaque::new(),
        });
        server_ch.send(reply.to_frame().unwrap()).unwrap();
    });
    caller.call(Target::Builtin(1), 1, Opaque::new()).unwrap();
    srv.join().unwrap();
}
