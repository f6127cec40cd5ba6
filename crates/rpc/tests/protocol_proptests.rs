//! Property tests for the RPC wire protocol and the handle table.
//!
//! The shipped codec is held to `reference`, an independent encoder and
//! decoder written from DESIGN §5's message layouts.

mod reference;

use clam_obs::{SpanId, TraceContext, TraceId};
use clam_rpc::{
    BatchEncoder, Call, Handle, Message, MessageView, ObjectTable, Reply, StatusCode, Target,
    UpcallMsg, WIRE_VERSION,
};
use clam_xdr::{BufferPool, Opaque};
use proptest::prelude::*;
use std::sync::Arc;

fn arb_handle() -> impl Strategy<Value = Handle> {
    (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(object_id, tag, home)| Handle {
        object_id,
        tag,
        home,
    })
}

fn arb_trace() -> impl Strategy<Value = TraceContext> {
    (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(hi, lo, span)| TraceContext {
        trace: TraceId((u128::from(hi) << 64) | u128::from(lo)),
        span: SpanId(span),
    })
}

fn arb_target() -> impl Strategy<Value = Target> {
    prop_oneof![
        any::<u32>().prop_map(Target::Builtin),
        arb_handle().prop_map(Target::Object),
    ]
}

fn arb_opaque() -> impl Strategy<Value = Opaque> {
    proptest::collection::vec(any::<u8>(), 0..128).prop_map(Opaque::from)
}

fn arb_call() -> impl Strategy<Value = Call> {
    (
        any::<u64>(),
        arb_target(),
        any::<u32>(),
        arb_opaque(),
        arb_trace(),
    )
        .prop_map(|(request_id, target, method, args, trace)| Call {
            request_id,
            target,
            method,
            args,
            trace,
        })
}

fn arb_status() -> impl Strategy<Value = StatusCode> {
    prop_oneof![
        Just(StatusCode::Ok),
        Just(StatusCode::NoSuchService),
        Just(StatusCode::NoSuchMethod),
        Just(StatusCode::StaleHandle),
        Just(StatusCode::NoSuchObject),
        Just(StatusCode::BadArgs),
        Just(StatusCode::Fault),
        Just(StatusCode::NoSuchClass),
        Just(StatusCode::UpcallLimit),
        Just(StatusCode::AppError),
    ]
}

fn arb_reply() -> impl Strategy<Value = Reply> {
    (any::<u64>(), arb_status(), ".{0,40}", arb_opaque()).prop_map(
        |(request_id, status, detail, results)| Reply {
            request_id,
            status,
            detail,
            results,
        },
    )
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        proptest::collection::vec(arb_call(), 0..8).prop_map(Message::CallBatch),
        arb_reply().prop_map(Message::Reply),
        (any::<u64>(), any::<u64>(), arb_opaque(), arb_trace()).prop_map(
            |(proc_id, request_id, args, trace)| {
                Message::Upcall(UpcallMsg {
                    proc_id,
                    request_id,
                    args,
                    trace,
                })
            }
        ),
        arb_reply().prop_map(Message::UpcallReply),
    ]
}

proptest! {
    /// What the shipped writers put on the wire, the reference reads
    /// back, and so does the in-place reader.
    #[test]
    fn every_message_round_trips(msg in arb_message()) {
        let frame = msg.to_frame().unwrap();
        prop_assert_eq!(frame.len() % 4, 0, "frames are xdr-aligned");
        prop_assert_eq!(reference::decode(&frame), Ok(msg.clone()));
        prop_assert_eq!(reference::read_in_place(&frame), Some(msg));
    }

    #[test]
    fn corrupt_frames_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = MessageView::parse(&bytes);
        let _ = reference::decode(&bytes);
    }

    #[test]
    fn truncation_is_always_an_error(msg in arb_message(), cut in 1usize..16) {
        let frame = msg.to_frame().unwrap();
        if frame.len() > cut {
            let truncated = &frame[..frame.len() - cut];
            prop_assert!(MessageView::parse(truncated).is_err());
            prop_assert!(reference::decode(truncated).is_err());
        }
    }

    /// Handle lookups: the registered handle always resolves; any handle
    /// with a different tag never does.
    #[test]
    fn handle_table_accepts_only_exact_capabilities(
        values in proptest::collection::vec(any::<u32>(), 1..16),
        tag_delta in 1u64..u64::MAX,
    ) {
        let mut table = ObjectTable::new();
        let handles: Vec<Handle> = values
            .iter()
            .map(|v| table.register(1, 1, Arc::new(*v)))
            .collect();
        for (h, v) in handles.iter().zip(&values) {
            let got: Arc<u32> = table.resolve(*h).unwrap();
            prop_assert_eq!(*got, *v);
            let forged = Handle {
                tag: h.tag.wrapping_add(tag_delta),
                ..*h
            };
            prop_assert!(table.lookup(forged).is_err());
        }
        prop_assert_eq!(table.len(), values.len());
    }

    /// Batches preserve call order through encode/decode.
    #[test]
    fn batch_order_is_preserved(calls in proptest::collection::vec(arb_call(), 0..16)) {
        let frame = Message::CallBatch(calls.clone()).to_frame().unwrap();
        match reference::decode(&frame).unwrap() {
            Message::CallBatch(back) => prop_assert_eq!(back, calls),
            other => prop_assert!(false, "wrong variant {:?}", other),
        }
    }
}

/// Every message kind, the nested batch included.
fn arb_any_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        arb_message(),
        proptest::collection::vec(arb_call(), 0..8).prop_map(Message::NestedCallBatch),
    ]
}

// The shipped codec against the reference: the writers must produce the
// same bytes, and the reader must accept exactly the frames the
// reference accepts, with equal fields.
proptest! {
    #[test]
    fn in_place_codec_round_trips_like_the_reference(msg in arb_any_message()) {
        let frame = reference::encode(&msg).unwrap();
        let pool = BufferPool::default();
        let in_place = msg.to_frame_in(&pool).unwrap();
        prop_assert_eq!(in_place.payload(), frame.as_slice());
        prop_assert_eq!(reference::read_in_place(&frame), Some(msg));
    }

    #[test]
    fn in_place_reader_agrees_on_corrupt_frames(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        prop_assert_eq!(reference::read_in_place(&bytes), reference::decode(&bytes).ok());
    }

    /// A random body behind a valid kind word reaches the field checks.
    #[test]
    fn in_place_reader_agrees_on_random_bodies(
        kind in 0u32..=6,
        body in proptest::collection::vec(any::<u8>(), 0..160),
    ) {
        let mut frame = ((WIRE_VERSION << 8) | kind).to_be_bytes().to_vec();
        frame.extend_from_slice(&body);
        prop_assert_eq!(reference::read_in_place(&frame), reference::decode(&frame).ok());
    }

    /// One damaged byte anywhere in a valid frame: a count, a
    /// discriminant, a length, padding or a trace word.
    #[test]
    fn in_place_reader_agrees_on_damaged_frames(
        msg in arb_any_message(),
        at in any::<usize>(),
        xor in 1u8..=255,
    ) {
        let mut frame = reference::encode(&msg).unwrap();
        let at = at % frame.len();
        frame[at] ^= xor;
        prop_assert_eq!(reference::read_in_place(&frame), reference::decode(&frame).ok());
    }

    #[test]
    fn in_place_truncation_and_trailing_bytes_are_errors(
        msg in arb_any_message(),
        cut in 1usize..16,
    ) {
        let frame = reference::encode(&msg).unwrap();
        if frame.len() > cut {
            prop_assert!(MessageView::parse(&frame[..frame.len() - cut]).is_err());
        }
        let mut long = frame.clone();
        long.extend_from_slice(&[0; 4]);
        prop_assert!(MessageView::parse(&long).is_err());
        prop_assert!(reference::decode(&long).is_err());
    }

    #[test]
    fn in_place_batches_preserve_call_order(
        calls in proptest::collection::vec(arb_call(), 0..16),
        nested in any::<bool>(),
    ) {
        let (mut enc, msg) = if nested {
            (BatchEncoder::begin_nested(Vec::new()), Message::NestedCallBatch(calls.clone()))
        } else {
            (BatchEncoder::begin(Vec::new()), Message::CallBatch(calls.clone()))
        };
        for call in &calls {
            enc.push_view(&call.view()).unwrap();
        }
        let frame = enc.finish().unwrap();
        let expect = reference::encode(&msg).unwrap();
        prop_assert_eq!(frame.payload(), expect.as_slice());
        prop_assert_eq!(reference::read_in_place(&frame), Some(msg));
    }
}
