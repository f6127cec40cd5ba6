//! The duplex message channel and its split reader/writer halves.
//!
//! Every channel assembled through [`Channel::from_halves`] is metered:
//! frames and bytes in each direction feed the global `net.*` counters,
//! keyed by the transport kind (the label's first `-`-separated segment:
//! `inmem`, `unix`, `tcp`, `wan`, `faulty`). Layered channels — a WAN
//! shaper or fault injector wrapping a TCP channel — meter at each layer,
//! so the per-kind counters read as per-layer traffic.

use crate::error::NetResult;
use crate::frame::{read_frame_pooled, Frame};
use clam_xdr::BufferPool;
use crossbeam_channel::{Receiver, Sender};
use std::io::{BufReader, Read, Write};
use std::sync::Arc;

/// The sending half of a channel.
pub trait MsgWriter: Send {
    /// Send one message frame. Blocks until the frame is handed to the
    /// transport; the transports deliver reliably and in order.
    ///
    /// Takes the frame by value: stream transports write its wire image
    /// and recycle the buffer into an attached [`BufferPool`]; the
    /// in-process transport moves it to the peer without copying.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Closed`](crate::NetError::Closed) if the peer
    /// is gone, or a transport-level error.
    fn send(&mut self, frame: Frame) -> NetResult<()>;

    /// Recycle spent frame buffers into `pool` after each send. Default:
    /// no pooling (buffers are dropped).
    fn attach_pool(&mut self, _pool: &BufferPool) {}
}

/// The receiving half of a channel.
pub trait MsgReader: Send {
    /// Receive the next message frame, blocking until one arrives.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Closed`](crate::NetError::Closed) when the peer
    /// hangs up, or a transport-level error.
    fn recv(&mut self) -> NetResult<Frame>;

    /// Draw receive buffers from `pool` instead of allocating. Default:
    /// no pooling.
    fn attach_pool(&mut self, _pool: &BufferPool) {}
}

/// A duplex, message-framed connection.
///
/// Channels are used split: the reader half lives in an I/O pump thread,
/// the writer half with the sender. The two halves may be used from
/// different threads concurrently.
pub struct Channel {
    writer: Box<dyn MsgWriter>,
    reader: Box<dyn MsgReader>,
    label: String,
}

impl std::fmt::Debug for Channel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Channel")
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

impl Channel {
    /// Assemble a channel from transport halves. Transport modules use
    /// this; applications get channels from [`connect`](crate::connect)
    /// or [`Listener::accept`](crate::Listener::accept).
    #[must_use]
    pub fn from_halves(
        label: impl Into<String>,
        writer: Box<dyn MsgWriter>,
        reader: Box<dyn MsgReader>,
    ) -> Channel {
        let label = label.into();
        let kind = transport_kind(&label);
        Channel {
            writer: Box::new(MeteredWriter {
                inner: writer,
                frames: clam_obs::counter(&format!("net.frames_sent.{kind}")),
                bytes: clam_obs::counter(&format!("net.bytes_sent.{kind}")),
                frame_bytes: clam_obs::histogram("net.frame_bytes"),
            }),
            reader: Box::new(MeteredReader {
                inner: reader,
                frames: clam_obs::counter(&format!("net.frames_recv.{kind}")),
                bytes: clam_obs::counter(&format!("net.bytes_recv.{kind}")),
            }),
            label,
        }
    }

    /// Assemble a channel over a byte stream (the Unix-domain and TCP
    /// transports): `stream` carries the writes, `read_half` — a clone of
    /// the same socket — the reads.
    pub(crate) fn from_stream<S>(label: &str, stream: S, read_half: S) -> Channel
    where
        S: Read + Write + Send + 'static,
    {
        Channel::from_halves(
            label,
            Box::new(StreamWriter { stream, pool: None }),
            Box::new(StreamReader {
                stream: BufReader::new(read_half),
                pool: None,
            }),
        )
    }

    /// A human-readable transport label (for diagnostics).
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Split into independently-owned writer and reader halves.
    #[must_use]
    pub fn split(self) -> (Box<dyn MsgWriter>, Box<dyn MsgReader>) {
        (self.writer, self.reader)
    }

    /// Pool buffers on both halves (see the trait `attach_pool` methods).
    pub fn attach_pool(&mut self, pool: &BufferPool) {
        self.writer.attach_pool(pool);
        self.reader.attach_pool(pool);
    }

    /// Send on an unsplit channel (convenience for tests and handshakes;
    /// accepts anything frameable, e.g. `&[u8]` or a finished [`Frame`]).
    ///
    /// # Errors
    ///
    /// See [`MsgWriter::send`].
    pub fn send(&mut self, frame: impl Into<Frame>) -> NetResult<()> {
        self.writer.send(frame.into())
    }

    /// Receive on an unsplit channel (convenience for tests and
    /// handshakes).
    ///
    /// # Errors
    ///
    /// See [`MsgReader::recv`].
    pub fn recv(&mut self) -> NetResult<Frame> {
        self.reader.recv()
    }
}

/// The metric-key segment of a channel label: everything before the
/// first `-` (`"unix-client"` → `"unix"`).
fn transport_kind(label: &str) -> &str {
    let head = label.split('-').next().unwrap_or("other");
    if head.is_empty() {
        "other"
    } else {
        head
    }
}

/// Counting wrapper installed around every writer half by
/// [`Channel::from_halves`]. The counter handles are resolved once at
/// channel construction; a send costs three relaxed atomic adds on top
/// of the transport.
struct MeteredWriter {
    inner: Box<dyn MsgWriter>,
    frames: Arc<clam_obs::Counter>,
    bytes: Arc<clam_obs::Counter>,
    frame_bytes: Arc<clam_obs::Histogram>,
}

impl MsgWriter for MeteredWriter {
    fn send(&mut self, frame: Frame) -> NetResult<()> {
        let wire_len = frame.wire().len() as u64;
        self.inner.send(frame)?;
        self.frames.inc();
        self.bytes.add(wire_len);
        self.frame_bytes.observe(wire_len);
        Ok(())
    }

    fn attach_pool(&mut self, pool: &BufferPool) {
        self.inner.attach_pool(pool);
    }
}

/// Counting wrapper around every reader half.
struct MeteredReader {
    inner: Box<dyn MsgReader>,
    frames: Arc<clam_obs::Counter>,
    bytes: Arc<clam_obs::Counter>,
}

impl MsgReader for MeteredReader {
    fn recv(&mut self) -> NetResult<Frame> {
        let frame = self.inner.recv()?;
        self.frames.inc();
        self.bytes.add(frame.wire().len() as u64);
        Ok(frame)
    }

    fn attach_pool(&mut self, pool: &BufferPool) {
        self.inner.attach_pool(pool);
    }
}

// ----------------------------------------------------------------------
// Byte-stream halves shared by the Unix-domain and TCP transports.
// ----------------------------------------------------------------------

struct StreamWriter<S> {
    stream: S,
    pool: Option<BufferPool>,
}

impl<S: Write + Send> MsgWriter for StreamWriter<S> {
    fn send(&mut self, frame: Frame) -> NetResult<()> {
        // The frame already is its wire image: one write_all, no copy.
        self.stream.write_all(frame.wire())?;
        if let Some(pool) = &self.pool {
            pool.recycle(frame.into_wire());
        }
        Ok(())
    }

    fn attach_pool(&mut self, pool: &BufferPool) {
        self.pool = Some(pool.clone());
    }
}

struct StreamReader<S> {
    stream: BufReader<S>,
    pool: Option<BufferPool>,
}

impl<S: Read + Send> MsgReader for StreamReader<S> {
    fn recv(&mut self) -> NetResult<Frame> {
        read_frame_pooled(&mut self.stream, self.pool.as_ref())
    }

    fn attach_pool(&mut self, pool: &BufferPool) {
        self.pool = Some(pool.clone());
    }
}

// ----------------------------------------------------------------------
// In-memory halves shared by the in-process transport and `pair()`.
// ----------------------------------------------------------------------

pub(crate) struct QueueWriter {
    pub(crate) tx: Sender<Frame>,
}

impl MsgWriter for QueueWriter {
    fn send(&mut self, frame: Frame) -> NetResult<()> {
        // The frame's buffer moves to the peer intact — the receiving side
        // recycles it into *its* pool after dispatch, so in-process
        // channels are copy-free end to end.
        self.tx.send(frame).map_err(|_| crate::NetError::Closed)
    }
}

pub(crate) struct QueueReader {
    pub(crate) rx: Receiver<Frame>,
}

impl MsgReader for QueueReader {
    fn recv(&mut self) -> NetResult<Frame> {
        self.rx.recv().map_err(|_| crate::NetError::Closed)
    }
}

/// Create a connected pair of in-memory channels (no listener needed).
///
/// The first element is conventionally the "client" end. Useful for tests
/// and for the local-upcall fast path in benches.
#[must_use]
pub fn pair() -> (Channel, Channel) {
    let (a_tx, a_rx) = crossbeam_channel::unbounded();
    let (b_tx, b_rx) = crossbeam_channel::unbounded();
    let left = Channel::from_halves(
        "inmem-left",
        Box::new(QueueWriter { tx: a_tx }),
        Box::new(QueueReader { rx: b_rx }),
    );
    let right = Channel::from_halves(
        "inmem-right",
        Box::new(QueueWriter { tx: b_tx }),
        Box::new(QueueReader { rx: a_rx }),
    );
    (left, right)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_is_duplex_and_ordered() {
        let (mut a, mut b) = pair();
        a.send(b"one").unwrap();
        a.send(b"two").unwrap();
        b.send(b"reply").unwrap();
        assert_eq!(b.recv().unwrap(), b"one");
        assert_eq!(b.recv().unwrap(), b"two");
        assert_eq!(a.recv().unwrap(), b"reply");
    }

    #[test]
    fn dropping_one_end_closes_the_other() {
        let (a, mut b) = pair();
        drop(a);
        assert!(b.recv().unwrap_err().is_closed());
        assert!(b.send(b"x").unwrap_err().is_closed());
    }

    #[test]
    fn split_halves_work_from_threads() {
        let (a, b) = pair();
        let (mut atx, _arx) = a.split();
        let (_btx, mut brx) = b.split();
        let t = std::thread::spawn(move || brx.recv().unwrap());
        atx.send(Frame::from(b"cross-thread")).unwrap();
        assert_eq!(t.join().unwrap(), b"cross-thread");
    }

    #[test]
    fn inproc_send_moves_the_buffer_without_copying() {
        let (mut a, mut b) = pair();
        let frame = Frame::from_payload(b"moved").unwrap();
        let wire_ptr = frame.wire().as_ptr();
        a.send(frame).unwrap();
        let got = b.recv().unwrap();
        assert_eq!(got, b"moved");
        assert_eq!(
            got.wire().as_ptr(),
            wire_ptr,
            "the very same allocation must arrive at the peer"
        );
    }

    #[test]
    fn channels_meter_frames_and_bytes_by_transport_kind() {
        let before = clam_obs::snapshot();
        let (mut a, mut b) = pair();
        a.send(b"0123456789").unwrap(); // 4-byte prefix + 10 payload
        b.recv().unwrap();
        let delta = clam_obs::snapshot().delta(&before);
        // Lower bounds: the counters are process-global and sibling tests
        // send inmem frames concurrently.
        assert!(delta.counter("net.frames_sent.inmem") >= 1);
        assert!(delta.counter("net.bytes_sent.inmem") >= 14);
        assert!(delta.counter("net.frames_recv.inmem") >= 1);
        let hist = delta.histogram("net.frame_bytes").expect("histogram");
        assert!(hist.count >= 1);
    }

    #[test]
    fn transport_kind_takes_the_label_head() {
        assert_eq!(transport_kind("unix-client"), "unix");
        assert_eq!(transport_kind("faulty-tcp-server"), "faulty");
        assert_eq!(transport_kind("inmem"), "inmem");
        assert_eq!(transport_kind(""), "other");
    }

    #[test]
    fn debug_shows_label() {
        let (a, _b) = pair();
        assert!(format!("{a:?}").contains("inmem-left"));
        assert_eq!(a.label(), "inmem-left");
    }
}
