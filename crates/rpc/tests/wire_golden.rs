//! Golden frames: one checked-in frame payload per message kind, which
//! pin the bytes of `WIRE_VERSION` 3. The shipped writers and the
//! test-side reference must both produce each one byte for byte, and
//! both readers must read it back as the message it was written from.
//!
//! Each `golden/*.hex` file holds one field a line, in hex, with `#`
//! comments naming the field (DESIGN §5, "Message layouts").

mod reference;

use clam_obs::{SpanId, TraceContext, TraceId};
use clam_rpc::{
    BatchEncoder, Call, Handle, Message, Reply, StatusCode, Target, UpcallMsg, WIRE_VERSION,
};
use clam_xdr::{BufferPool, Opaque};

const TRACE: TraceContext = TraceContext {
    trace: TraceId(0x0011_2233_4455_6677_8899_aabb_ccdd_eeff),
    span: SpanId(0xfedc_ba98),
};

const HANDLE: Handle = Handle {
    object_id: 9,
    tag: 0xfeed,
    home: 2,
};

/// The bytes of a golden file: its hex digits, comments and blanks left
/// out.
fn hex(text: &str) -> Vec<u8> {
    let digits: Vec<u8> = text
        .lines()
        .flat_map(|line| line.split('#').next().unwrap().bytes())
        .filter(|b| !b.is_ascii_whitespace())
        .collect();
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

/// Each golden file with the message it holds, kinds 1 to 5.
fn goldens() -> Vec<(&'static str, &'static str, Message)> {
    vec![
        (
            "call_batch",
            include_str!("golden/call_batch.hex"),
            Message::CallBatch(vec![
                Call {
                    request_id: 0,
                    target: Target::Builtin(7),
                    method: 2,
                    args: Opaque::from(vec![0xab, 0xcd]),
                    trace: TraceContext::NONE,
                },
                Call {
                    request_id: 17,
                    target: Target::Object(HANDLE),
                    method: 4,
                    args: Opaque::from(vec![1, 2, 3, 4, 5]),
                    trace: TRACE,
                },
            ]),
        ),
        (
            "reply",
            include_str!("golden/reply.hex"),
            Message::Reply(Reply {
                request_id: 7,
                status: StatusCode::StaleHandle,
                detail: "stale".to_string(),
                results: Opaque::from(vec![0xab]),
            }),
        ),
        (
            "upcall",
            include_str!("golden/upcall.hex"),
            Message::Upcall(UpcallMsg {
                proc_id: 42,
                request_id: 8,
                args: Opaque::from(vec![1, 2, 3]),
                trace: TRACE,
            }),
        ),
        (
            "upcall_reply",
            include_str!("golden/upcall_reply.hex"),
            Message::UpcallReply(Reply {
                request_id: 8,
                status: StatusCode::Ok,
                detail: String::new(),
                results: Opaque::from(vec![9, 8, 7, 6]),
            }),
        ),
        (
            "nested_call_batch",
            include_str!("golden/nested_call_batch.hex"),
            Message::NestedCallBatch(vec![Call {
                request_id: 5,
                target: Target::Object(HANDLE),
                method: 1,
                args: Opaque::new(),
                trace: TRACE,
            }]),
        ),
    ]
}

#[test]
fn goldens_are_wire_version_3_and_cover_every_kind() {
    assert_eq!(WIRE_VERSION, 3);
    let kinds: Vec<u8> = goldens()
        .iter()
        .map(|(name, text, _)| {
            let bytes = hex(text);
            assert_eq!(bytes[..3], [0, 0, 3], "{name}: version word");
            bytes[3]
        })
        .collect();
    assert_eq!(kinds, [1, 2, 3, 4, 5]);
}

#[test]
fn the_shipped_writers_write_each_golden_frame() {
    let pool = BufferPool::default();
    for (name, text, msg) in goldens() {
        let golden = hex(text);
        let frame = msg.to_frame_in(&pool).unwrap();
        assert_eq!(frame.payload(), golden.as_slice(), "{name}: to_frame_in");
        if let Message::CallBatch(calls) | Message::NestedCallBatch(calls) = &msg {
            let mut enc = if matches!(msg, Message::NestedCallBatch(_)) {
                BatchEncoder::begin_nested(pool.acquire())
            } else {
                BatchEncoder::begin(pool.acquire())
            };
            for call in calls {
                enc.push_view(&call.view()).unwrap();
            }
            let frame = enc.finish().unwrap();
            assert_eq!(frame.payload(), golden.as_slice(), "{name}: push_view");
        }
    }
}

#[test]
fn the_reference_encoder_writes_each_golden_frame() {
    for (name, text, msg) in goldens() {
        assert_eq!(reference::encode(&msg).unwrap(), hex(text), "{name}");
    }
}

#[test]
fn both_readers_read_each_golden_frame_back() {
    for (name, text, msg) in goldens() {
        let golden = hex(text);
        assert_eq!(reference::decode(&golden), Ok(msg.clone()), "{name}");
        assert_eq!(reference::read_in_place(&golden), Some(msg), "{name}");
    }
}

/// `Handle`'s bundler (stub arguments) and the call-target writer both
/// write a handle's 24 bytes; widening one without the other must fail
/// here.
#[test]
fn a_handle_bundles_as_it_rides_in_a_call_target() {
    for handle in [
        HANDLE,
        Handle {
            object_id: u64::MAX,
            tag: 1,
            home: 0x0102_0304_0506_0708,
        },
    ] {
        let bundled = clam_xdr::encode(&handle).unwrap();
        assert_eq!(bundled.len(), 24);
        let call = Call {
            target: Target::Object(handle),
            ..Call::default()
        };
        let frame = Message::CallBatch(vec![call]).to_frame().unwrap();
        // Kind word, count, request id, target kind: then the handle.
        let at = 4 + 4 + 8 + 4;
        assert_eq!(&frame[at..at + 24], bundled.as_slice());
        assert_eq!(
            clam_xdr::decode::<Handle>(&frame[at..at + 24]).unwrap(),
            handle
        );
    }
}
