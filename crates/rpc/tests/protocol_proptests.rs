//! Property tests for the RPC wire protocol and the handle table.

use clam_obs::{SpanId, TraceContext, TraceId};
use clam_rpc::{
    BatchEncoder, Call, CallView, Handle, Message, MessageView, ObjectTable, Reply, ReplyView,
    StatusCode, Target, UpcallMsg, WIRE_VERSION,
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
    #[test]
    fn every_message_round_trips(msg in arb_message()) {
        let frame = msg.to_frame().unwrap();
        prop_assert_eq!(frame.len() % 4, 0, "frames are xdr-aligned");
        let back = Message::from_frame(&frame).unwrap();
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn corrupt_frames_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Message::from_frame(&bytes);
    }

    #[test]
    fn truncation_is_always_an_error(msg in arb_message(), cut in 1usize..16) {
        let frame = msg.to_frame().unwrap();
        if cut <= frame.len() && frame.len() > cut {
            let truncated = &frame[..frame.len() - cut];
            prop_assert!(Message::from_frame(truncated).is_err());
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
        match Message::from_frame(&frame).unwrap() {
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

fn owned_call(view: CallView<'_>) -> Call {
    Call {
        request_id: view.request_id,
        target: view.target,
        method: view.method,
        args: Opaque::from(view.args),
        trace: view.trace,
    }
}

fn owned_reply(view: ReplyView<'_>) -> Reply {
    Reply {
        request_id: view.request_id,
        status: view.status,
        detail: view.detail.to_string(),
        results: Opaque::from(view.results),
    }
}

/// What the in-place reader makes of `frame`, in owned form: `None` if it
/// refuses the frame.
fn read_in_place(frame: &[u8]) -> Option<Message> {
    Some(match MessageView::parse(frame).ok()? {
        MessageView::CallBatch(batch) => Message::CallBatch(batch.iter().map(owned_call).collect()),
        MessageView::NestedCallBatch(batch) => {
            Message::NestedCallBatch(batch.iter().map(owned_call).collect())
        }
        MessageView::Reply(reply) => Message::Reply(owned_reply(reply)),
        MessageView::Upcall(upcall) => Message::Upcall(UpcallMsg {
            proc_id: upcall.proc_id,
            request_id: upcall.request_id,
            args: Opaque::from(upcall.args),
            trace: upcall.trace,
        }),
        MessageView::UpcallReply(reply) => Message::UpcallReply(owned_reply(reply)),
    })
}

// The in-place codec against the owned reference codec
// (`Message::to_frame`/`from_frame`): the writers must produce the same
// bytes, and the reader must accept exactly the frames `from_frame`
// accepts, with equal fields.
proptest! {
    #[test]
    fn in_place_codec_round_trips_like_the_reference(msg in arb_any_message()) {
        let frame = msg.to_frame().unwrap();
        let pool = BufferPool::default();
        let in_place = msg.to_frame_in(&pool).unwrap();
        prop_assert_eq!(in_place.payload(), frame.as_slice());
        prop_assert_eq!(read_in_place(&frame), Some(msg));
    }

    #[test]
    fn in_place_reader_agrees_on_corrupt_frames(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        prop_assert_eq!(read_in_place(&bytes), Message::from_frame(&bytes).ok());
    }

    /// A random body behind a valid kind word reaches the field checks.
    #[test]
    fn in_place_reader_agrees_on_random_bodies(
        kind in 0u32..=6,
        body in proptest::collection::vec(any::<u8>(), 0..160),
    ) {
        let mut frame = ((WIRE_VERSION << 8) | kind).to_be_bytes().to_vec();
        frame.extend_from_slice(&body);
        prop_assert_eq!(read_in_place(&frame), Message::from_frame(&frame).ok());
    }

    /// One damaged byte anywhere in a valid frame: a count, a
    /// discriminant, a length, padding or a trace word.
    #[test]
    fn in_place_reader_agrees_on_damaged_frames(
        msg in arb_any_message(),
        at in any::<usize>(),
        xor in 1u8..=255,
    ) {
        let mut frame = msg.to_frame().unwrap();
        let at = at % frame.len();
        frame[at] ^= xor;
        prop_assert_eq!(read_in_place(&frame), Message::from_frame(&frame).ok());
    }

    #[test]
    fn in_place_truncation_and_trailing_bytes_are_errors(
        msg in arb_any_message(),
        cut in 1usize..16,
    ) {
        let frame = msg.to_frame().unwrap();
        if frame.len() > cut {
            prop_assert!(MessageView::parse(&frame[..frame.len() - cut]).is_err());
        }
        let mut long = frame.clone();
        long.extend_from_slice(&[0; 4]);
        prop_assert!(MessageView::parse(&long).is_err());
        prop_assert!(Message::from_frame(&long).is_err());
    }

    #[test]
    fn in_place_batches_preserve_call_order(
        calls in proptest::collection::vec(arb_call(), 0..16),
        nested in any::<bool>(),
    ) {
        let (mut enc, reference) = if nested {
            (BatchEncoder::begin_nested(Vec::new()), Message::NestedCallBatch(calls.clone()))
        } else {
            (BatchEncoder::begin(Vec::new()), Message::CallBatch(calls.clone()))
        };
        for call in &calls {
            enc.push_view(&call.view()).unwrap();
        }
        let frame = enc.finish().unwrap();
        let reference = reference.to_frame().unwrap();
        prop_assert_eq!(frame.payload(), reference.as_slice());
        match MessageView::parse(&frame).unwrap() {
            MessageView::CallBatch(batch) | MessageView::NestedCallBatch(batch) => {
                let back: Vec<Call> = batch.iter().map(owned_call).collect();
                prop_assert_eq!(back, calls);
            }
            other => prop_assert!(false, "wrong variant {:?}", other),
        }
    }
}
