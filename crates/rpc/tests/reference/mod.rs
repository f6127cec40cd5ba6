//! A reference codec for the RPC wire messages, written from the
//! "Message layouts" table of DESIGN §5 on `XdrStream`'s primitives.
//!
//! The shipped codec (`Message::to_frame_in`, `BatchEncoder`,
//! `MessageView::parse`) reads and writes the bytes itself and shares no
//! code with this one, so each can be held to the other. Only the tests
//! use it; [`read_in_place`] turns what the shipped reader read into
//! the same owned form, for comparing the two.

use clam_obs::{SpanId, TraceContext, TraceId};
use clam_rpc::{
    Call, CallView, Handle, Message, MessageView, Reply, ReplyView, StatusCode, Target, UpcallMsg,
    WIRE_VERSION,
};
use clam_xdr::{Opaque, XdrError, XdrResult, XdrStream};

const CALL_BATCH: u32 = 1;
const REPLY: u32 = 2;
const UPCALL: u32 = 3;
const UPCALL_REPLY: u32 = 4;
const NESTED_CALL_BATCH: u32 = 5;

/// The frame payload of `msg`: the word `(WIRE_VERSION << 8) | kind`,
/// then the body.
pub fn encode(msg: &Message) -> XdrResult<Vec<u8>> {
    let mut s = XdrStream::encoder();
    let kind = match msg {
        Message::CallBatch(_) => CALL_BATCH,
        Message::Reply(_) => REPLY,
        Message::Upcall(_) => UPCALL,
        Message::UpcallReply(_) => UPCALL_REPLY,
        Message::NestedCallBatch(_) => NESTED_CALL_BATCH,
    };
    put_u32(&mut s, (WIRE_VERSION << 8) | kind)?;
    match msg {
        Message::CallBatch(calls) | Message::NestedCallBatch(calls) => {
            put_u32(&mut s, u32::try_from(calls.len()).unwrap())?;
            for call in calls {
                put_call(&mut s, call)?;
            }
        }
        Message::Reply(reply) | Message::UpcallReply(reply) => {
            put_u64(&mut s, reply.request_id)?;
            put_u32(&mut s, reply.status.discriminant())?;
            s.x_string(&mut reply.detail.clone())?;
            put_opaque(&mut s, &reply.results)?;
        }
        Message::Upcall(upcall) => {
            put_u64(&mut s, upcall.proc_id)?;
            put_u64(&mut s, upcall.request_id)?;
            put_opaque(&mut s, &upcall.args)?;
            put_trace(&mut s, upcall.trace)?;
        }
    }
    Ok(s.into_bytes())
}

/// The message in a frame payload; trailing bytes are an error.
pub fn decode(frame: &[u8]) -> XdrResult<Message> {
    let mut s = XdrStream::decoder(frame);
    let word = get_u32(&mut s)?;
    if word >> 8 != WIRE_VERSION {
        return Err(XdrError::InvalidDiscriminant {
            type_name: "wire version",
            value: word >> 8,
        });
    }
    let msg = match word & 0xff {
        CALL_BATCH => Message::CallBatch(get_calls(&mut s)?),
        NESTED_CALL_BATCH => Message::NestedCallBatch(get_calls(&mut s)?),
        REPLY => Message::Reply(get_reply(&mut s)?),
        UPCALL_REPLY => Message::UpcallReply(get_reply(&mut s)?),
        UPCALL => Message::Upcall(UpcallMsg {
            proc_id: get_u64(&mut s)?,
            request_id: get_u64(&mut s)?,
            args: get_opaque(&mut s)?,
            trace: get_trace(&mut s)?,
        }),
        other => {
            return Err(XdrError::InvalidDiscriminant {
                type_name: "message kind",
                value: other,
            })
        }
    };
    s.finish_decode()?;
    Ok(msg)
}

fn put_call(s: &mut XdrStream<'_>, call: &Call) -> XdrResult<()> {
    put_u64(s, call.request_id)?;
    match call.target {
        Target::Builtin(id) => {
            put_u32(s, 0)?;
            put_u32(s, id)?;
        }
        Target::Object(h) => {
            put_u32(s, 1)?;
            put_u64(s, h.object_id)?;
            put_u64(s, h.tag)?;
            put_u64(s, h.home)?;
        }
    }
    put_u32(s, call.method)?;
    put_opaque(s, &call.args)?;
    put_trace(s, call.trace)
}

fn get_calls(s: &mut XdrStream<'_>) -> XdrResult<Vec<Call>> {
    let count = get_u32(s)?;
    // One at a time: a damaged count must not size an allocation.
    let mut calls = Vec::new();
    for _ in 0..count {
        calls.push(Call {
            request_id: get_u64(s)?,
            target: match get_u32(s)? {
                0 => Target::Builtin(get_u32(s)?),
                1 => Target::Object(Handle {
                    object_id: get_u64(s)?,
                    tag: get_u64(s)?,
                    home: get_u64(s)?,
                }),
                other => {
                    return Err(XdrError::InvalidDiscriminant {
                        type_name: "target kind",
                        value: other,
                    })
                }
            },
            method: get_u32(s)?,
            args: get_opaque(s)?,
            trace: get_trace(s)?,
        });
    }
    Ok(calls)
}

fn get_reply(s: &mut XdrStream<'_>) -> XdrResult<Reply> {
    let request_id = get_u64(s)?;
    let status = StatusCode::from_discriminant(get_u32(s)?)?;
    let mut detail = String::new();
    s.x_string(&mut detail)?;
    Ok(Reply {
        request_id,
        status,
        detail,
        results: get_opaque(s)?,
    })
}

fn put_u32(s: &mut XdrStream<'_>, mut v: u32) -> XdrResult<()> {
    s.x_u32(&mut v)
}

fn put_u64(s: &mut XdrStream<'_>, mut v: u64) -> XdrResult<()> {
    s.x_u64(&mut v)
}

fn put_opaque(s: &mut XdrStream<'_>, bytes: &Opaque) -> XdrResult<()> {
    s.x_opaque(&mut bytes.as_slice().to_vec())
}

/// The trace id's high 64 bits, its low 64 bits, then the span id.
fn put_trace(s: &mut XdrStream<'_>, trace: TraceContext) -> XdrResult<()> {
    put_u64(s, (trace.trace.0 >> 64) as u64)?;
    put_u64(s, trace.trace.0 as u64)?;
    put_u64(s, trace.span.0)
}

fn get_u32(s: &mut XdrStream<'_>) -> XdrResult<u32> {
    let mut v = 0;
    s.x_u32(&mut v)?;
    Ok(v)
}

fn get_u64(s: &mut XdrStream<'_>) -> XdrResult<u64> {
    let mut v = 0;
    s.x_u64(&mut v)?;
    Ok(v)
}

fn get_opaque(s: &mut XdrStream<'_>) -> XdrResult<Opaque> {
    let mut bytes = Vec::new();
    s.x_opaque(&mut bytes)?;
    Ok(Opaque::from(bytes))
}

fn get_trace(s: &mut XdrStream<'_>) -> XdrResult<TraceContext> {
    let hi = get_u64(s)?;
    let lo = get_u64(s)?;
    Ok(TraceContext {
        trace: TraceId(u128::from(hi) << 64 | u128::from(lo)),
        span: SpanId(get_u64(s)?),
    })
}

/// What the shipped in-place reader makes of `frame`, in owned form:
/// `None` if it refuses the frame.
pub fn read_in_place(frame: &[u8]) -> Option<Message> {
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
