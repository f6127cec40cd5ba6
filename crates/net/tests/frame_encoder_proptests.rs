//! Property tests: the prefix-reserving [`FrameEncoder`] produces wire
//! images byte-identical to the copying [`Frame::from_payload`] path, for any
//! payload and any way of chunking the writes, and reusing a buffer
//! across frames never leaks bytes from the previous frame.

use clam_net::{Frame, FrameEncoder, FRAME_PREFIX_LEN};
use proptest::prelude::*;

fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..2048)
}

/// Raw split points; reduced modulo `payload.len() + 1` before use so
/// they always land inside the payload.
fn arb_cuts() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(any::<usize>(), 0..8)
}

fn encode_in_chunks(buf: Vec<u8>, payload: &[u8], mut cuts: Vec<usize>) -> Frame {
    for cut in &mut cuts {
        *cut %= payload.len() + 1;
    }
    cuts.sort_unstable();
    let mut enc = FrameEncoder::from(buf);
    let mut at = 0;
    for cut in cuts {
        enc.write(&payload[at..cut.max(at)]);
        at = at.max(cut);
    }
    enc.write(&payload[at..]);
    enc.finish().expect("payload under MAX_FRAME_LEN")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn encoder_matches_encode_frame(payload in arb_payload()) {
        let mut enc = FrameEncoder::from(Vec::new());
        enc.write(&payload);
        let ours = enc.finish().unwrap();
        let reference = Frame::from_payload(&payload).unwrap();
        prop_assert_eq!(ours.wire(), reference.wire());
    }

    #[test]
    fn chunked_writes_match_one_shot((payload, cuts) in (arb_payload(), arb_cuts())) {
        let ours = encode_in_chunks(Vec::new(), &payload, cuts);
        let reference = Frame::from_payload(&payload).unwrap();
        prop_assert_eq!(ours.wire(), reference.wire());
    }

    #[test]
    fn reused_buffer_is_clean((first, second) in (arb_payload(), arb_payload())) {
        // Encode `first`, reclaim the buffer, encode `second` into it:
        // the second frame must be indistinguishable from a fresh encode.
        let mut enc = FrameEncoder::from(Vec::new());
        enc.write(&first);
        let buf = enc.finish().unwrap().into_wire();
        let mut enc = FrameEncoder::from(buf);
        enc.write(&second);
        let reused = enc.finish().unwrap();
        let reference = Frame::from_payload(&second).unwrap();
        prop_assert_eq!(reused.wire(), reference.wire());
    }

    #[test]
    fn wire_round_trips_through_from_wire(payload in arb_payload()) {
        let mut enc = FrameEncoder::from(Vec::new());
        enc.write(&payload);
        let frame = enc.finish().unwrap();
        let back = Frame::from_wire(frame.wire().to_owned()).unwrap();
        prop_assert_eq!(back.payload(), payload.as_slice());
        prop_assert_eq!(back.wire().len(), FRAME_PREFIX_LEN + payload.len());
    }

    #[test]
    fn in_place_writes_preserve_staged_bytes((head, tail) in (arb_payload(), arb_payload())) {
        // The path the message writers take: append to the wire image
        // in place mid-frame, then finish.
        let mut enc = FrameEncoder::from(Vec::new());
        enc.write(&head);
        enc.wire_mut().extend_from_slice(&tail);
        let frame = enc.finish().unwrap();
        let mut whole = head.clone();
        whole.extend_from_slice(&tail);
        let reference = Frame::from_payload(&whole).unwrap();
        prop_assert_eq!(frame.wire(), reference.wire());
    }
}
