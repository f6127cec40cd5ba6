//! Hand-written stubs using the `const`/`out`/`inout` parameter modes of
//! section 3.2 — demonstrating the bundling elision the paper's compiler
//! performs, over a real connection.
//!
//! The scenario: `adjust(config, buffer)` where `config` is in-only (the
//! paper's `const`), `buffer` is inout, and the call also produces an
//! out-only `report`. The request carries config+buffer; the reply
//! carries buffer+report. Each leg omits what doesn't travel.

use clam_net::pair;
use clam_rpc::{
    Caller, CallerConfig, Leg, Message, MessageView, ParamMode, Reply, StatusCode, Target,
};
use clam_task::Scheduler;
use clam_xdr::{Opaque, XdrStream};

const CONFIG_MODE: ParamMode = ParamMode::In;
const BUFFER_MODE: ParamMode = ParamMode::InOut;
const REPORT_MODE: ParamMode = ParamMode::Out;

/// Client stub, request leg: bundle only what travels client→server.
fn bundle_request(config: u32, buffer: &[u8]) -> Opaque {
    let mut stream = XdrStream::encoder();
    let mut config_slot = Some(config);
    CONFIG_MODE
        .bundle_if(Leg::Request, &mut stream, &mut config_slot)
        .unwrap();
    let mut buffer_slot = Some(Opaque::from(buffer));
    BUFFER_MODE
        .bundle_if(Leg::Request, &mut stream, &mut buffer_slot)
        .unwrap();
    let mut report_slot: Option<String> = None; // out-only: not bundled here
    REPORT_MODE
        .bundle_if(Leg::Request, &mut stream, &mut report_slot)
        .unwrap();
    Opaque::from(stream.into_bytes())
}

/// Server stub, request leg: unbundle the same way.
fn unbundle_request(args: &[u8]) -> (u32, Vec<u8>) {
    let mut stream = XdrStream::decoder(args);
    let mut config_slot: Option<u32> = None;
    CONFIG_MODE
        .bundle_if(Leg::Request, &mut stream, &mut config_slot)
        .unwrap();
    let mut buffer_slot: Option<Opaque> = None;
    BUFFER_MODE
        .bundle_if(Leg::Request, &mut stream, &mut buffer_slot)
        .unwrap();
    stream.finish_decode().unwrap();
    (
        config_slot.expect("config travels on request"),
        buffer_slot.expect("buffer travels on request").into_inner(),
    )
}

/// Server stub, reply leg: bundle only what travels server→client.
fn bundle_reply(buffer: &[u8], report: &str) -> Opaque {
    let mut stream = XdrStream::encoder();
    let mut config_slot: Option<u32> = None; // in-only: elided from reply
    CONFIG_MODE
        .bundle_if(Leg::Reply, &mut stream, &mut config_slot)
        .unwrap();
    let mut buffer_slot = Some(Opaque::from(buffer));
    BUFFER_MODE
        .bundle_if(Leg::Reply, &mut stream, &mut buffer_slot)
        .unwrap();
    let mut report_slot = Some(report.to_string());
    REPORT_MODE
        .bundle_if(Leg::Reply, &mut stream, &mut report_slot)
        .unwrap();
    Opaque::from(stream.into_bytes())
}

/// Client stub, reply leg.
fn unbundle_reply(results: &Opaque) -> (Vec<u8>, String) {
    let mut stream = XdrStream::decoder(results.as_slice());
    let mut buffer_slot: Option<Opaque> = None;
    BUFFER_MODE
        .bundle_if(Leg::Reply, &mut stream, &mut buffer_slot)
        .unwrap();
    let mut report_slot: Option<String> = None;
    REPORT_MODE
        .bundle_if(Leg::Reply, &mut stream, &mut report_slot)
        .unwrap();
    stream.finish_decode().unwrap();
    (
        buffer_slot.expect("buffer travels on reply").into_inner(),
        report_slot.expect("report travels on reply"),
    )
}

#[test]
fn in_out_inout_elide_the_right_legs() {
    // Elision check without a network: the request has no report bytes,
    // the reply has no config bytes.
    let request = bundle_request(7, &[1, 2, 3, 4]);
    // config (4) + buffer (4 len + 4 data) = 12; a bundled empty report
    // string would have added 4 more.
    assert_eq!(request.len(), 12);

    let reply = bundle_reply(&[9, 9], "ok");
    // buffer (4 + 2 + 2 pad) + report (4 + 2 + 2 pad) = 16; config would
    // have added 4.
    assert_eq!(reply.len(), 16);
}

#[test]
fn hand_stubbed_call_works_end_to_end() {
    let (client_ch, mut server_ch) = pair();
    let sched = Scheduler::new("param-modes");
    let (w, r) = client_ch.split();
    let caller = Caller::new(&sched, w, CallerConfig::default());
    caller.attach_reader(r);

    // The server: doubles config into every buffer byte and reports.
    let srv = std::thread::spawn(move || {
        let frame = server_ch.recv().unwrap();
        let Ok(MessageView::CallBatch(calls)) = MessageView::parse(&frame) else {
            panic!("bad frame")
        };
        let call = calls.iter().next().unwrap();
        let (config, mut buffer) = unbundle_request(call.args);
        for b in &mut buffer {
            *b = b.wrapping_mul(config as u8);
        }
        let results = bundle_reply(&buffer, &format!("scaled by {config}"));
        let reply = Message::Reply(Reply {
            request_id: call.request_id,
            status: StatusCode::Ok,
            detail: String::new(),
            results,
        });
        server_ch.send(reply.to_frame().unwrap()).unwrap();
    });

    let args = bundle_request(3, &[1, 2, 3]);
    let results = caller.call(Target::Builtin(9), 1, args).unwrap();
    let (buffer, report) = unbundle_reply(&results);
    assert_eq!(buffer, vec![3, 6, 9], "inout buffer came back transformed");
    assert_eq!(report, "scaled by 3", "out report came back");
    srv.join().unwrap();
    drop(caller);
}
