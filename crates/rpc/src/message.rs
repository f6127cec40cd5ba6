//! Wire messages of the CLAM protocol.
//!
//! Two message families correspond to the two channels of section 4.4:
//! call batches and replies travel on the RPC channel; upcalls and upcall
//! replies on the upcall channel. Request id `0` marks an asynchronous
//! call that expects no reply (and may therefore ride in a batch).

use crate::error::{RpcError, RpcResult, StatusCode};
use crate::handle::Handle;
use clam_net::{Frame, FrameEncoder, MAX_FRAME_LEN};
use clam_obs::{SpanId, TraceContext, TraceId};
use clam_xdr::{padded_len, BufferPool, Opaque, XdrError, XdrResult, XDR_UNIT};

/// Protocol wire version, packed into the high bits of every frame's
/// leading kind word (`(WIRE_VERSION << 8) | kind`). Version 2 added
/// causal trace propagation: calls and upcalls carry a
/// [`TraceContext`]. Version 3 widened [`Handle`] with the cluster
/// home-node field, so a frame from an older peer — whose handles are
/// 16 bytes — is rejected up front instead of misparsed.
pub const WIRE_VERSION: u32 = 3;

const fn packed_kind(kind: u32) -> u32 {
    (WIRE_VERSION << 8) | kind
}

/// What a call is aimed at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// A builtin server service (bootstrap: loader, naming, registry).
    Builtin(u32),
    /// A dynamically created object, addressed by capability.
    Object(Handle),
}

/// One procedure call within a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    /// Nonzero for calls expecting a reply; 0 for batched async calls.
    pub request_id: u64,
    /// What the call is aimed at.
    pub target: Target,
    /// Method number within the target's interface.
    pub method: u32,
    /// Bundled argument bytes (produced by the client stub).
    pub args: Opaque,
    /// Causal trace context: the trace this call belongs to and the
    /// span opened for it at the call origin, so the server — and any
    /// upcall the call triggers back into the client — stitches into
    /// one tree. [`TraceContext::NONE`] for untraced calls.
    pub trace: TraceContext,
}

impl Default for Call {
    fn default() -> Self {
        Call {
            request_id: 0,
            target: Target::Builtin(0),
            method: 0,
            args: Opaque::new(),
            trace: TraceContext::NONE,
        }
    }
}

/// The reply to a call (or to an upcall).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Reply {
    /// Matches the call's `request_id`.
    pub request_id: u64,
    /// Verdict.
    pub status: StatusCode,
    /// Human-readable detail for non-`Ok` statuses.
    pub detail: String,
    /// Bundled results (empty unless `Ok`).
    pub results: Opaque,
}

impl Reply {
    /// The reply that carries a served call's or upcall's outcome: `Ok`
    /// with its results, or the error's status and text. An error with
    /// no status of its own travels as [`StatusCode::AppError`].
    #[must_use]
    pub fn from_outcome(request_id: u64, outcome: RpcResult<Opaque>) -> Reply {
        let (status, detail, results) = match outcome {
            Ok(results) => (StatusCode::Ok, String::new(), results),
            Err(RpcError::Status { code, message }) => (code, message, Opaque::new()),
            Err(other) => (StatusCode::AppError, other.to_string(), Opaque::new()),
        };
        Reply {
            request_id,
            status,
            detail,
            results,
        }
    }
}

/// A distributed upcall flowing from server to client (section 4).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct UpcallMsg {
    /// The client-side registered procedure to invoke.
    pub proc_id: u64,
    /// Nonzero if the server task will block for a reply.
    pub request_id: u64,
    /// Bundled argument bytes (produced by the server upcall stub).
    pub args: Opaque,
    /// Causal trace context: the span the server opened for this
    /// upcall, a child of the call span that triggered it.
    pub trace: TraceContext,
}

/// A framed protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// One or more calls, client → server, in order.
    CallBatch(Vec<Call>),
    /// Calls issued from inside an upcall handler while its triggering
    /// upcall is still outstanding. Same dispatch semantics as
    /// [`Message::CallBatch`], but the server services these immediately
    /// instead of queuing them behind the (possibly blocked) main RPC
    /// task — the nested choreography of the paper's section 4.4.
    NestedCallBatch(Vec<Call>),
    /// Reply to a sync call, server → client on the RPC channel.
    Reply(Reply),
    /// A distributed upcall, server → client on the upcall channel.
    Upcall(UpcallMsg),
    /// Reply to an upcall, client → server on the upcall channel.
    UpcallReply(Reply),
}

const MSG_CALL_BATCH: u32 = 1;
const MSG_REPLY: u32 = 2;
const MSG_UPCALL: u32 = 3;
const MSG_UPCALL_REPLY: u32 = 4;
const MSG_NESTED_CALL_BATCH: u32 = 5;

/// A reply message's kind: what [`Message::reply_frame_in`] writes and
/// a [`PendingReplies`](crate::PendingReplies) reader accepts (any other
/// message is a protocol violation that drops the link).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum ReplyKind {
    /// [`Message::Reply`], read by a client.
    Reply = MSG_REPLY,
    /// [`Message::UpcallReply`], read by a server.
    UpcallReply = MSG_UPCALL_REPLY,
}

impl Message {
    /// Cheap frame-header test: is this the payload of a
    /// [`Message::NestedCallBatch`]? Lets a reader route nested frames
    /// without decoding the whole message.
    #[must_use]
    pub fn frame_is_nested(frame: &[u8]) -> bool {
        frame.len() >= 4 && frame[..4] == packed_kind(MSG_NESTED_CALL_BATCH).to_be_bytes()
    }

    /// Encode to a frame in a buffer that no pool takes back:
    /// [`to_frame_in`] for code off the wire path.
    ///
    /// # Errors
    ///
    /// As [`to_frame_in`](Message::to_frame_in).
    ///
    /// [`to_frame_in`]: Message::to_frame_in
    pub fn to_frame(&self) -> XdrResult<Frame> {
        self.to_frame_in(Vec::new())
    }

    /// Encode to a finished wire [`Frame`] in `buf`, a [`BufferPool`] or
    /// a `Vec<u8>` (see [`FrameEncoder`]'s `From`s).
    ///
    /// The length prefix is reserved up front and the message written
    /// behind it by the in-place writers, straight from `self`: no clone
    /// of the message, no scratch `Vec`, no re-framing copy, and — with a
    /// warm pool — no allocation. A reply whose detail or results exceed
    /// the opaque cap is written as an error reply that says so, so the
    /// peer waiting on it hears back instead of waiting out its deadline.
    ///
    /// # Errors
    ///
    /// An over-long argument payload in a call or an upcall, or an
    /// over-[`MAX_FRAME_LEN`] message: [`XdrError::LengthTooLarge`].
    pub fn to_frame_in(&self, buf: impl Into<FrameEncoder>) -> XdrResult<Frame> {
        let enc = buf.into();
        let (calls, mut batch) = match self {
            Message::CallBatch(calls) => (calls, BatchEncoder::begin(enc)),
            Message::NestedCallBatch(calls) => (calls, BatchEncoder::begin_nested(enc)),
            Message::Reply(reply) => return write_reply(enc, MSG_REPLY, reply, no_results),
            Message::UpcallReply(reply) => {
                return write_reply(enc, MSG_UPCALL_REPLY, reply, no_results)
            }
            Message::Upcall(upcall) => {
                return Message::upcall_frame_in(
                    enc,
                    upcall.proc_id,
                    upcall.request_id,
                    upcall.trace,
                    |args| {
                        args.extend_from_slice(upcall.args.as_slice());
                        Ok(())
                    },
                );
            }
        };
        for call in calls {
            batch.push_view(&call.view())?;
        }
        batch.finish()
    }

    /// An [`Upcall`](Message::Upcall) frame in `buf`, whose argument
    /// bytes `args` appends in place: the arguments are bundled straight
    /// into the frame, with no buffer of their own.
    ///
    /// # Errors
    ///
    /// `args`' error, or arguments over the opaque cap.
    pub fn upcall_frame_in(
        buf: impl Into<FrameEncoder>,
        proc_id: u64,
        request_id: u64,
        trace: TraceContext,
        args: impl FnOnce(&mut Vec<u8>) -> XdrResult<()>,
    ) -> XdrResult<Frame> {
        let mut enc = buf.into();
        let buf = enc.wire_mut();
        Writer(buf).u32(packed_kind(MSG_UPCALL));
        Writer(buf).u64(proc_id);
        Writer(buf).u64(request_id);
        opaque_in_place(buf, args)?;
        Writer(buf).trace(trace);
        finish_frame(enc)
    }

    /// The reply of `kind` to request `request_id` in a buffer from
    /// `pool`, the one way a served call or upcall is answered: `Ok`
    /// with the result bytes `results` appends in place, or the error
    /// reply if `results` fails, writes over the opaque cap or cuts the
    /// frame short (see [`Reply::from_outcome`]).
    ///
    /// # Errors
    ///
    /// An over-[`MAX_FRAME_LEN`] error reply.
    pub fn reply_frame_in(
        pool: &BufferPool,
        kind: ReplyKind,
        request_id: u64,
        results: impl FnOnce(&mut Vec<u8>) -> RpcResult<()>,
    ) -> XdrResult<Frame> {
        let ok = Reply::from_outcome(request_id, Ok(Opaque::new()));
        write_reply(FrameEncoder::from(pool), kind as u32, &ok, results)
    }
}

fn finish_frame(enc: FrameEncoder) -> XdrResult<Frame> {
    let len = enc.payload_len();
    enc.finish().map_err(|_| XdrError::LengthTooLarge {
        len,
        max: MAX_FRAME_LEN,
    })
}

/// Write `reply` as a message of `kind` into `enc`: its header, then its
/// results followed by the bytes `results` appends in place. If the
/// detail is over the opaque cap, or `results` fails, writes more than
/// the cap or cuts the frame short, the frame is written again as the
/// error reply [`Reply::from_outcome`] makes of that.
fn write_reply(
    mut enc: FrameEncoder,
    kind: u32,
    reply: &Reply,
    results: impl FnOnce(&mut Vec<u8>) -> RpcResult<()>,
) -> XdrResult<Frame> {
    let buf = enc.wire_mut();
    Writer(buf).u32(packed_kind(kind));
    Writer(buf).u64(reply.request_id);
    Writer(buf).u32(reply.status.discriminant());
    let written = check_opaque(reply.detail.len())
        .map_err(RpcError::from)
        .and_then(|()| {
            Writer(buf).opaque(reply.detail.as_bytes());
            opaque_in_place(buf, |out| {
                out.extend_from_slice(reply.results.as_slice());
                results(out)
            })
        });
    let Err(e) = written else {
        return finish_frame(enc);
    };
    enc.wire_mut().resize(clam_net::FRAME_PREFIX_LEN, 0);
    let error = Reply::from_outcome(reply.request_id, Err(e));
    write_reply(enc, kind, &error, no_results)
}

/// No bytes beyond a reply's own. (A function, so that the retry in
/// [`write_reply`] instantiates nothing new.)
fn no_results(_: &mut Vec<u8>) -> RpcResult<()> {
    Ok(())
}

// ----------------------------------------------------------------------
// The codec: it reads and writes every message in place.
//
// The writers (`BatchEncoder::push_view`, `Message::to_frame_in`) put
// each message's fixed header and its body bytes straight into a frame
// buffer; the reader (`MessageView::parse`) checks a whole frame once,
// then hands out views whose `args`/`results` are slices of the frame.
// They are the only code that knows the message layouts (DESIGN §5),
// and they apply the same opaque cap both ways. The tests hold them to
// an independent reference written on `XdrStream`, and to golden frames
// (`tests/protocol_proptests.rs`, `tests/wire_golden.rs`).
// ----------------------------------------------------------------------

/// The opaque cap: [`XdrStream::max_len`](clam_xdr::XdrStream::max_len)'s
/// default, which every other opaque on the wire is held to as well.
const MAX_OPAQUE_LEN: usize = clam_xdr::DEFAULT_MAX_LEN;

fn check_opaque(len: usize) -> XdrResult<()> {
    if len > MAX_OPAQUE_LEN {
        return Err(XdrError::LengthTooLarge {
            len,
            max: MAX_OPAQUE_LEN,
        });
    }
    Ok(())
}

/// Append an opaque item whose bytes `fill` appends to `buf`: a length
/// word, patched once `fill` returns and its length is checked, then
/// the bytes and their padding. A `fill` that leaves `buf` shorter than
/// it found it is an error.
fn opaque_in_place<E: From<XdrError>>(
    buf: &mut Vec<u8>,
    fill: impl FnOnce(&mut Vec<u8>) -> Result<(), E>,
) -> Result<(), E> {
    let at = buf.len() + XDR_UNIT;
    buf.extend_from_slice(&[0; XDR_UNIT]);
    fill(buf)?;
    let len = buf.len().checked_sub(at).ok_or_else(|| {
        XdrError::Custom(format!("a writer cut the frame short of its {at} bytes"))
    })?;
    check_opaque(len)?;
    // Checked against MAX_OPAQUE_LEN, so it fits a u32.
    buf[at - XDR_UNIT..at].copy_from_slice(&(len as u32).to_be_bytes());
    buf.extend_from_slice(&[0; XDR_UNIT][..padded_len(len) - len]);
    Ok(())
}

/// The write half of the in-place codec: appends XDR items to a frame
/// buffer. Opaque lengths are checked ([`check_opaque`]) before a message
/// is written, so a write never fails halfway.
struct Writer<'b>(&'b mut Vec<u8>);

// `#[inline]`, as `Reader`'s are: `Caller::call_async` writes each call
// of a batch through these.
impl Writer<'_> {
    #[inline]
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_be_bytes());
    }

    #[inline]
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_be_bytes());
    }

    #[inline]
    fn opaque(&mut self, bytes: &[u8]) {
        // Checked against MAX_OPAQUE_LEN, so it fits a u32.
        self.u32(bytes.len() as u32);
        self.0.extend_from_slice(bytes);
        self.0
            .extend_from_slice(&[0; XDR_UNIT][..padded_len(bytes.len()) - bytes.len()]);
    }

    #[inline]
    fn target(&mut self, target: Target) {
        match target {
            Target::Builtin(id) => {
                self.u32(0);
                self.u32(id);
            }
            Target::Object(h) => {
                self.u32(1);
                self.u64(h.object_id);
                self.u64(h.tag);
                self.u64(h.home);
            }
        }
    }

    #[inline]
    fn trace(&mut self, trace: TraceContext) {
        self.u64((trace.trace.0 >> 64) as u64);
        self.u64(trace.trace.0 as u64);
        self.u64(trace.span.0);
    }
}

/// The read half of the in-place codec: a cursor over a frame payload
/// that reads XDR items without copying them out, with
/// [`XdrStream`](clam_xdr::XdrStream)'s checks.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

// `#[inline]`: `serve_frame` checks, then reads, every call of a batch
// through these, and left as calls they took a third of its time.
impl<'a> Reader<'a> {
    #[inline]
    fn take(&mut self, n: usize) -> XdrResult<&'a [u8]> {
        let remaining = self.bytes.len() - self.pos;
        if remaining < n {
            return Err(XdrError::UnexpectedEof {
                needed: n,
                remaining,
            });
        }
        let taken = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(taken)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> XdrResult<[u8; N]> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    #[inline]
    fn u32(&mut self) -> XdrResult<u32> {
        self.array().map(u32::from_be_bytes)
    }

    #[inline]
    fn u64(&mut self) -> XdrResult<u64> {
        self.array().map(u64::from_be_bytes)
    }

    #[inline]
    fn opaque(&mut self) -> XdrResult<&'a [u8]> {
        let len = self.u32()? as usize;
        check_opaque(len)?;
        let bytes = self.take(len)?;
        if self.take(padded_len(len) - len)?.iter().any(|&b| b != 0) {
            return Err(XdrError::NonZeroPadding);
        }
        Ok(bytes)
    }

    #[inline]
    fn target(&mut self) -> XdrResult<Target> {
        match self.u32()? {
            0 => Ok(Target::Builtin(self.u32()?)),
            1 => Ok(Target::Object(Handle {
                object_id: self.u64()?,
                tag: self.u64()?,
                home: self.u64()?,
            })),
            other => Err(XdrError::InvalidDiscriminant {
                type_name: "Target",
                value: other,
            }),
        }
    }

    #[inline]
    fn trace(&mut self) -> XdrResult<TraceContext> {
        let hi = self.u64()?;
        let lo = self.u64()?;
        Ok(TraceContext {
            trace: TraceId(u128::from(hi) << 64 | u128::from(lo)),
            span: SpanId(self.u64()?),
        })
    }
}

/// A [`Call`] in place: its fixed header by value and its argument bytes
/// borrowed — from the received frame when read, from the issuer when
/// written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallView<'a> {
    /// Nonzero for calls expecting a reply; 0 for batched async calls.
    pub request_id: u64,
    /// What the call is aimed at.
    pub target: Target,
    /// Method number within the target's interface.
    pub method: u32,
    /// Bundled argument bytes.
    pub args: &'a [u8],
    /// Causal trace context (see [`Call::trace`]).
    pub trace: TraceContext,
}

impl<'a> CallView<'a> {
    #[inline]
    fn read(reader: &mut Reader<'a>) -> XdrResult<CallView<'a>> {
        Ok(CallView {
            request_id: reader.u64()?,
            target: reader.target()?,
            method: reader.u32()?,
            args: reader.opaque()?,
            trace: reader.trace()?,
        })
    }

    /// Append this call to `buf`, or nothing if its arguments are too
    /// long. `buf` grows at most once, by the call's whole wire size.
    #[inline]
    fn write(&self, buf: &mut Vec<u8>) -> XdrResult<()> {
        check_opaque(self.args.len())?;
        let target = match self.target {
            Target::Builtin(_) => 8,
            Target::Object(_) => 28,
        };
        // Request id, target, method, args length and padded args, trace.
        buf.reserve(8 + target + 4 + 4 + padded_len(self.args.len()) + 24);
        let mut writer = Writer(buf);
        writer.u64(self.request_id);
        writer.target(self.target);
        writer.u32(self.method);
        writer.opaque(self.args);
        writer.trace(self.trace);
        Ok(())
    }
}

impl Call {
    /// This call as a view.
    #[must_use]
    pub fn view(&self) -> CallView<'_> {
        CallView {
            request_id: self.request_id,
            target: self.target,
            method: self.method,
            args: self.args.as_slice(),
            trace: self.trace,
        }
    }
}

/// A [`Reply`] in place: `detail` and `results` borrowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplyView<'a> {
    /// Matches the call's `request_id`.
    pub request_id: u64,
    /// Verdict.
    pub status: StatusCode,
    /// Human-readable detail for non-`Ok` statuses.
    pub detail: &'a str,
    /// Bundled results (empty unless `Ok`).
    pub results: &'a [u8],
}

impl<'a> ReplyView<'a> {
    fn read(reader: &mut Reader<'a>) -> XdrResult<ReplyView<'a>> {
        Ok(ReplyView {
            request_id: reader.u64()?,
            status: StatusCode::from_discriminant(reader.u32()?)?,
            detail: std::str::from_utf8(reader.opaque()?).map_err(|_| XdrError::InvalidUtf8)?,
            results: reader.opaque()?,
        })
    }
}

/// An [`UpcallMsg`] in place: `args` borrowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpcallView<'a> {
    /// The client-side registered procedure to invoke.
    pub proc_id: u64,
    /// Nonzero if the server task will block for a reply.
    pub request_id: u64,
    /// Bundled argument bytes.
    pub args: &'a [u8],
    /// Causal trace context (see [`UpcallMsg::trace`]).
    pub trace: TraceContext,
}

impl<'a> UpcallView<'a> {
    fn read(reader: &mut Reader<'a>) -> XdrResult<UpcallView<'a>> {
        Ok(UpcallView {
            proc_id: reader.u64()?,
            request_id: reader.u64()?,
            args: reader.opaque()?,
            trace: reader.trace()?,
        })
    }
}

/// The calls of a checked batch frame, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallBatchView<'a> {
    calls: u32,
    /// The calls' wire bytes, every one of them already read once.
    body: &'a [u8],
}

impl<'a> CallBatchView<'a> {
    /// Read the count and every call behind it, so that no call of a
    /// malformed batch is handed out.
    fn read(reader: &mut Reader<'a>) -> XdrResult<CallBatchView<'a>> {
        let calls = reader.u32()?;
        if calls as usize > MAX_OPAQUE_LEN {
            return Err(XdrError::LengthTooLarge {
                len: calls as usize,
                max: MAX_OPAQUE_LEN,
            });
        }
        let start = reader.pos;
        for _ in 0..calls {
            CallView::read(reader)?;
        }
        Ok(CallBatchView {
            calls,
            body: &reader.bytes[start..reader.pos],
        })
    }

    /// The calls, in order, borrowed from the frame.
    pub fn iter(&self) -> impl Iterator<Item = CallView<'a>> {
        let mut reader = Reader {
            bytes: self.body,
            pos: 0,
        };
        // Every call was read once when the batch was checked, so none
        // of these reads fails.
        (0..self.calls).map_while(move |_| CallView::read(&mut reader).ok())
    }
}

/// A checked frame, read in place: [`Message`] with every body borrowed
/// from the frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageView<'a> {
    /// See [`Message::CallBatch`].
    CallBatch(CallBatchView<'a>),
    /// See [`Message::NestedCallBatch`].
    NestedCallBatch(CallBatchView<'a>),
    /// See [`Message::Reply`].
    Reply(ReplyView<'a>),
    /// See [`Message::Upcall`].
    Upcall(UpcallView<'a>),
    /// See [`Message::UpcallReply`].
    UpcallReply(ReplyView<'a>),
}

impl<'a> MessageView<'a> {
    /// Check a whole frame payload and view it in place.
    ///
    /// # Errors
    ///
    /// The wire version, the kind, every field of every call, and
    /// trailing bytes are all checked here.
    pub fn parse(frame: &'a [u8]) -> XdrResult<MessageView<'a>> {
        let mut reader = Reader {
            bytes: frame,
            pos: 0,
        };
        let word = reader.u32()?;
        let version = word >> 8;
        if version != WIRE_VERSION {
            return Err(XdrError::InvalidDiscriminant {
                type_name: "Message wire version",
                value: version,
            });
        }
        let view = match word & 0xff {
            MSG_CALL_BATCH => MessageView::CallBatch(CallBatchView::read(&mut reader)?),
            MSG_NESTED_CALL_BATCH => {
                MessageView::NestedCallBatch(CallBatchView::read(&mut reader)?)
            }
            MSG_REPLY => MessageView::Reply(ReplyView::read(&mut reader)?),
            MSG_UPCALL => MessageView::Upcall(UpcallView::read(&mut reader)?),
            MSG_UPCALL_REPLY => MessageView::UpcallReply(ReplyView::read(&mut reader)?),
            other => {
                return Err(XdrError::InvalidDiscriminant {
                    type_name: "Message",
                    value: other,
                })
            }
        };
        let trailing = frame.len() - reader.pos;
        if trailing != 0 {
            return Err(XdrError::Custom(format!(
                "{trailing} trailing bytes after decode"
            )));
        }
        Ok(view)
    }
}

/// Incrementally encodes a [`Message::CallBatch`] (or
/// [`Message::NestedCallBatch`]) wire frame call by call.
///
/// The wire image is `[length prefix][kind][count][call…]`; the prefix and
/// a zero `count` are reserved when the encoder begins, each
/// [`push_view`](BatchEncoder::push_view) writes one call directly onto
/// the end,
/// and [`finish`](BatchEncoder::finish) patches `count` and the prefix,
/// without ever materializing a `Vec<Call>` or copying the payload into
/// a second buffer. This is the batching client's hot path
/// (paper section 3.4): with a pooled buffer, batched async calls
/// allocate nothing at steady state.
#[derive(Debug)]
pub struct BatchEncoder {
    enc: FrameEncoder,
    calls: u32,
}

/// Wire offset of the batch's element count: behind the 4-byte frame
/// prefix and the 4-byte message kind.
const BATCH_COUNT_OFFSET: usize = clam_net::FRAME_PREFIX_LEN + 4;

impl BatchEncoder {
    /// Start an ordinary call batch in `buf`: a [`BufferPool`], whose
    /// buffer goes back to it when the batch or its frame drops, or a
    /// `Vec<u8>` of the caller's (see [`FrameEncoder`]'s `From`s).
    #[must_use]
    pub fn begin(buf: impl Into<FrameEncoder>) -> BatchEncoder {
        BatchEncoder::begin_kind(buf.into(), MSG_CALL_BATCH)
    }

    /// Start a nested call batch (see [`Message::NestedCallBatch`]).
    #[must_use]
    pub fn begin_nested(buf: impl Into<FrameEncoder>) -> BatchEncoder {
        BatchEncoder::begin_kind(buf.into(), MSG_NESTED_CALL_BATCH)
    }

    fn begin_kind(mut enc: FrameEncoder, kind: u32) -> BatchEncoder {
        enc.write(&packed_kind(kind).to_be_bytes());
        enc.write(&0u32.to_be_bytes()); // count, patched in finish()
        BatchEncoder { enc, calls: 0 }
    }

    /// Write one call's header and argument bytes straight onto the end
    /// of the batch.
    ///
    /// # Errors
    ///
    /// An over-long argument payload, checked before anything is written,
    /// so the batch stays well-formed.
    #[inline]
    pub fn push_view(&mut self, call: &CallView<'_>) -> XdrResult<()> {
        call.write(self.enc.wire_mut())?;
        self.calls += 1;
        Ok(())
    }

    /// Calls pushed so far.
    #[must_use]
    pub fn calls(&self) -> u32 {
        self.calls
    }

    /// True if no calls have been pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.calls == 0
    }

    /// Payload bytes accumulated so far (kind + count + calls).
    #[must_use]
    pub fn payload_len(&self) -> usize {
        self.enc.payload_len()
    }

    /// Patch the call count and length prefix; return the finished frame.
    ///
    /// # Errors
    ///
    /// Reports [`XdrError::LengthTooLarge`] if the batch outgrew
    /// [`MAX_FRAME_LEN`].
    pub fn finish(mut self) -> XdrResult<Frame> {
        self.enc.wire_mut()[BATCH_COUNT_OFFSET..BATCH_COUNT_OFFSET + 4]
            .copy_from_slice(&self.calls.to_be_bytes());
        finish_frame(self.enc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_call(id: u64) -> Call {
        Call {
            request_id: id,
            target: Target::Object(Handle {
                object_id: 9,
                tag: 0xfeed,
                home: 0,
            }),
            method: 4,
            args: Opaque::from(vec![1, 2, 3]),
            trace: TraceContext {
                trace: clam_obs::TraceId(0x0011_2233_4455_6677_8899_aabb_ccdd_eeff),
                span: clam_obs::SpanId(0xfedc_ba98),
            },
        }
    }

    /// The calls of a batch frame, of either kind.
    fn batch(frame: &[u8]) -> Vec<CallView<'_>> {
        match MessageView::parse(frame).unwrap() {
            MessageView::CallBatch(batch) | MessageView::NestedCallBatch(batch) => {
                batch.iter().collect()
            }
            other => panic!("not a batch: {other:?}"),
        }
    }

    fn views(calls: &[Call]) -> Vec<CallView<'_>> {
        calls.iter().map(Call::view).collect()
    }

    #[test]
    fn reply_from_outcome_maps_results_statuses_and_other_errors() {
        let ok = Reply::from_outcome(4, Ok(Opaque::from(vec![7])));
        assert_eq!((ok.request_id, ok.status), (4, StatusCode::Ok));
        assert_eq!(ok.results.as_slice(), &[7]);
        let status = Reply::from_outcome(5, Err(RpcError::status(StatusCode::Fault, "bug")));
        assert_eq!(
            (status.status, status.detail.as_str()),
            (StatusCode::Fault, "bug")
        );
        assert!(status.results.is_empty());
        let other = Reply::from_outcome(6, Err(RpcError::Disconnected));
        assert_eq!(other.status, StatusCode::AppError);
        assert_eq!(other.detail, RpcError::Disconnected.to_string());
    }

    #[test]
    fn targets_round_trip() {
        for target in [
            Target::Builtin(0),
            Target::Builtin(77),
            Target::Object(Handle {
                object_id: 1,
                tag: 2,
                home: 3,
            }),
        ] {
            let call = Call {
                target,
                ..Call::default()
            };
            let frame = Message::CallBatch(vec![call]).to_frame().unwrap();
            assert_eq!(batch(&frame)[0].target, target);
        }
    }

    #[test]
    fn call_batch_round_trips_preserving_order() {
        let calls = vec![sample_call(0), sample_call(0), sample_call(5)];
        let frame = Message::CallBatch(calls.clone()).to_frame().unwrap();
        assert_eq!(batch(&frame), views(&calls));
    }

    #[test]
    fn replies_round_trip_including_errors() {
        let msg = Message::Reply(Reply {
            request_id: 5,
            status: StatusCode::StaleHandle,
            detail: "tag mismatch".to_string(),
            results: Opaque::new(),
        });
        let frame = msg.to_frame().unwrap();
        let MessageView::Reply(back) = MessageView::parse(&frame).unwrap() else {
            panic!("wrong kind");
        };
        let expect = ReplyView {
            request_id: 5,
            status: StatusCode::StaleHandle,
            detail: "tag mismatch",
            results: &[],
        };
        assert_eq!(back, expect);
    }

    #[test]
    fn upcalls_round_trip() {
        let msg = Message::Upcall(UpcallMsg {
            proc_id: 11,
            request_id: 3,
            args: Opaque::from(vec![9; 40]),
            trace: TraceContext::new_root(),
        });
        let frame = msg.to_frame().unwrap();
        let Message::Upcall(sent) = &msg else {
            unreachable!()
        };
        let MessageView::Upcall(back) = MessageView::parse(&frame).unwrap() else {
            panic!("wrong kind");
        };
        let expect = UpcallView {
            proc_id: 11,
            request_id: 3,
            args: &[9; 40],
            trace: sent.trace,
        };
        assert_eq!(back, expect);

        let msg = Message::UpcallReply(Reply {
            request_id: 3,
            status: StatusCode::Ok,
            detail: String::new(),
            results: Opaque::from(vec![1]),
        });
        let frame = msg.to_frame().unwrap();
        let MessageView::UpcallReply(back) = MessageView::parse(&frame).unwrap() else {
            panic!("wrong kind");
        };
        assert_eq!((back.status, back.results), (StatusCode::Ok, &[1][..]));
        assert_eq!(back.request_id, 3);
    }

    #[test]
    fn an_oversized_reply_becomes_an_error_reply() {
        let results = Opaque::from(vec![0; MAX_OPAQUE_LEN + 1]);
        for msg in [
            Message::Reply(Reply::from_outcome(8, Ok(results.clone()))),
            Message::UpcallReply(Reply::from_outcome(8, Ok(results))),
        ] {
            let frame = msg.to_frame().unwrap();
            let (MessageView::Reply(back) | MessageView::UpcallReply(back)) =
                MessageView::parse(&frame).unwrap()
            else {
                panic!("not a reply");
            };
            assert_eq!((back.request_id, back.status), (8, StatusCode::AppError));
            assert!(back.detail.contains("exceeds"), "{}", back.detail);
            assert!(back.results.is_empty());
        }
    }

    #[test]
    fn unknown_message_kind_is_rejected() {
        let frame = packed_kind(99).to_be_bytes();
        assert!(matches!(
            MessageView::parse(&frame),
            Err(XdrError::InvalidDiscriminant {
                type_name: "Message",
                value: 99,
            })
        ));
    }

    #[test]
    fn wrong_wire_version_is_rejected_up_front() {
        // A version-1 frame led with the bare kind word; under the packed
        // scheme its high bits read as version 0.
        let v1_frame = MSG_CALL_BATCH.to_be_bytes();
        assert!(matches!(
            MessageView::parse(&v1_frame),
            Err(XdrError::InvalidDiscriminant {
                type_name: "Message wire version",
                value: 0,
            })
        ));
        // A future version is refused the same way, not misparsed.
        let future = ((WIRE_VERSION + 1) << 8 | MSG_CALL_BATCH).to_be_bytes();
        assert!(MessageView::parse(&future).is_err());
    }

    #[test]
    fn trace_context_rides_the_wire_on_calls_and_upcalls() {
        let root = TraceContext::new_root();
        for ctx in [
            TraceContext::NONE,
            TraceContext {
                trace: TraceId(0x0102_0304_0506_0708_090a_0b0c_0d0e_0f10),
                span: SpanId(0xdead_beef_cafe_f00d),
            },
            root,
        ] {
            let msg = Message::CallBatch(vec![Call {
                trace: ctx,
                ..Call::default()
            }]);
            assert_eq!(batch(&msg.to_frame().unwrap())[0].trace, ctx);
        }

        let child = root.child();
        let msg = Message::Upcall(UpcallMsg {
            proc_id: 4,
            request_id: 9,
            args: Opaque::new(),
            trace: child,
        });
        let frame = msg.to_frame().unwrap();
        let MessageView::Upcall(back) = MessageView::parse(&frame).unwrap() else {
            panic!("wrong kind");
        };
        assert_eq!(back.trace, child);
        assert_eq!(back.trace.trace, root.trace, "same trace, new span");
    }

    #[test]
    fn trace_contexts_round_trip() {
        // Untraced or not, a context is exactly the 24 header bytes at the
        // tail of the message; nothing else in the frame moves.
        let untraced = Message::Upcall(UpcallMsg::default()).to_frame().unwrap();
        let head = untraced.len() - 24;
        assert!(untraced[head..].iter().all(|&b| b == 0));
        for ctx in [
            TraceContext::NONE,
            TraceContext {
                trace: TraceId(0x0102_0304_0506_0708_090a_0b0c_0d0e_0f10),
                span: SpanId(0xdead_beef_cafe_f00d),
            },
            TraceContext::new_root(),
        ] {
            let msg = Message::Upcall(UpcallMsg {
                trace: ctx,
                ..UpcallMsg::default()
            });
            let frame = msg.to_frame().unwrap();
            assert_eq!(frame.len(), untraced.len(), "trace header is 24 bytes");
            assert_eq!(frame[..head], untraced[..head]);
            let MessageView::Upcall(back) = MessageView::parse(&frame).unwrap() else {
                panic!("wrong kind");
            };
            assert_eq!(back.trace, ctx);
        }
    }

    #[test]
    fn trace_header_is_hi_lo_span_big_endian() {
        let msg = Message::Upcall(UpcallMsg {
            trace: TraceContext {
                trace: TraceId(1u128 << 64 | 2),
                span: SpanId(3),
            },
            ..UpcallMsg::default()
        });
        let frame = msg.to_frame().unwrap();
        let mut expect = Vec::new();
        for word in [1u64, 2, 3] {
            expect.extend_from_slice(&word.to_be_bytes());
        }
        assert_eq!(&frame[frame.len() - 24..], expect.as_slice());
    }

    #[test]
    fn batch_encoder_is_byte_identical_to_to_frame() {
        let calls = vec![sample_call(0), sample_call(7), sample_call(0)];
        let mut enc = BatchEncoder::begin(Vec::new());
        for c in &calls {
            enc.push_view(&c.view()).unwrap();
        }
        assert_eq!(enc.calls(), 3);
        let frame = enc.finish().unwrap();
        assert_eq!(frame, Message::CallBatch(calls.clone()).to_frame().unwrap());
        let reframed = clam_net::Frame::from_payload(frame.payload()).unwrap();
        assert_eq!(frame.wire(), reframed.wire(), "length prefix patched");
        assert_eq!(batch(&frame), views(&calls));
    }

    #[test]
    fn nested_batch_encoder_is_byte_identical_too() {
        let calls = vec![sample_call(3)];
        let mut enc = BatchEncoder::begin_nested(Vec::new());
        enc.push_view(&calls[0].view()).unwrap();
        let frame = enc.finish().unwrap();
        assert!(Message::frame_is_nested(&frame));
        let reference = Message::NestedCallBatch(calls.clone()).to_frame().unwrap();
        assert_eq!(frame, reference);
        assert!(matches!(
            MessageView::parse(&frame),
            Ok(MessageView::NestedCallBatch(_))
        ));
        assert_eq!(batch(&frame), views(&calls));
    }

    #[test]
    fn empty_batch_encoder_matches_empty_call_batch() {
        let frame = BatchEncoder::begin(Vec::new()).finish().unwrap();
        let reference = Message::CallBatch(Vec::new()).to_frame().unwrap();
        assert_eq!(frame, reference);
        // The kind word, then a zero count.
        assert_eq!(frame.payload(), &[0, 0, 3, 1, 0, 0, 0, 0]);
    }

    #[test]
    fn upcall_replies_written_in_place_match_to_frame() {
        let pool = BufferPool::default();
        for kind in [ReplyKind::Reply, ReplyKind::UpcallReply] {
            let owned = |reply| match kind {
                ReplyKind::Reply => Message::Reply(reply),
                ReplyKind::UpcallReply => Message::UpcallReply(reply),
            };
            for results in [vec![], vec![1, 2, 3], vec![9; 8]] {
                let frame = Message::reply_frame_in(&pool, kind, 4, |out| {
                    out.extend_from_slice(&results);
                    Ok(())
                })
                .unwrap();
                let reference = owned(Reply::from_outcome(4, Ok(results.into())));
                assert_eq!(frame, reference.to_frame().unwrap());
            }
            // A failed handler, after writing part of its results, and
            // results over the cap both become the error reply.
            let refused = RpcError::status(StatusCode::BadArgs, "no");
            let frame = Message::reply_frame_in(&pool, kind, 4, |out| {
                out.push(1);
                Err(refused)
            })
            .unwrap();
            let reference =
                Reply::from_outcome(4, Err(RpcError::status(StatusCode::BadArgs, "no")));
            assert_eq!(frame, owned(reference).to_frame().unwrap());
            let frame = Message::reply_frame_in(&pool, kind, 4, |out| {
                out.resize(out.len() + MAX_OPAQUE_LEN + 1, 0);
                Ok(())
            })
            .unwrap();
            let over = Opaque::from(vec![0; MAX_OPAQUE_LEN + 1]);
            let reference = owned(Reply::from_outcome(4, Ok(over)));
            assert_eq!(frame, reference.to_frame().unwrap());
            let (Ok(MessageView::Reply(reply)) | Ok(MessageView::UpcallReply(reply))) =
                MessageView::parse(&frame)
            else {
                panic!("a reply");
            };
            assert_eq!(reply.status, StatusCode::AppError);
            assert!(reply.results.is_empty());
        }
    }

    #[test]
    fn a_results_writer_that_cuts_the_buffer_gets_an_error_reply() {
        let pool = BufferPool::default();
        // Into the results' length word, the header, and the prefix.
        for cut in [1, 4, 9, 64] {
            let frame = Message::reply_frame_in(&pool, ReplyKind::Reply, 6, |out| {
                out.truncate(out.len().saturating_sub(cut));
                Ok(())
            })
            .unwrap();
            let Ok(MessageView::Reply(reply)) = MessageView::parse(&frame) else {
                panic!("a reply");
            };
            assert_eq!((reply.request_id, reply.status), (6, StatusCode::AppError));
            assert!(reply.detail.contains("cut the frame"), "{}", reply.detail);
            assert!(reply.results.is_empty());
        }
    }

    #[test]
    fn to_frame_in_matches_to_frame() {
        // A warm pool hands back buffers that held longer frames: none of
        // their bytes may show through.
        let pool = BufferPool::default();
        let long = Message::CallBatch(vec![sample_call(1); 8]);
        drop(long.to_frame_in(&pool).unwrap());
        for msg in [
            Message::CallBatch(vec![sample_call(0), sample_call(2)]),
            Message::Reply(Reply {
                request_id: 5,
                status: StatusCode::Ok,
                detail: String::new(),
                results: Opaque::from(vec![8; 9]),
            }),
            Message::Upcall(UpcallMsg {
                proc_id: 1,
                request_id: 2,
                args: Opaque::from(vec![3]),
                trace: TraceContext::NONE,
            }),
        ] {
            let pooled = msg.to_frame_in(&pool).unwrap();
            assert_eq!(pooled, msg.to_frame().unwrap());
        }
        assert_eq!(pool.metrics().counter("xdr.pool.hits"), 3);
    }

    #[test]
    fn garbage_frames_never_panic() {
        for len in 0..32 {
            let frame = vec![0xa5u8; len];
            assert!(MessageView::parse(&frame).is_err());
        }
    }
}
