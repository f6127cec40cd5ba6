//! The duplex message channel and its split reader/writer halves.
//!
//! Every socket's channel is metered once, at its stream halves: each
//! half counts its frames and bytes in counters of its own
//! ([`Registry::instance`](clam_obs::Registry::instance)), which every
//! snapshot sums into the `net.*` totals keyed by the transport kind
//! (the label's first `-`-separated segment: `inmem`, `unix`, `tcp`).
//! A channel layered over another — a fault injector, a WAN link among
//! them — adds no count of its own, so each frame on the wire is counted
//! once, under the transport that carries it.

use crate::error::{NetError, NetResult};
use crate::frame::{Frame, FrameEncoder, FRAME_PREFIX_LEN, MAX_FRAME_LEN};
use clam_xdr::BufferPool;
use std::ffi::{c_long, c_ulong};
use std::io::{self, Read};
use std::net::Shutdown;
use std::os::fd::{AsRawFd, RawFd};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// The sending half of a channel.
pub trait MsgWriter: Send {
    /// Send one message frame. Blocks the thread until the frame is
    /// handed to the transport, so task code sends through
    /// `clam_rpc::TaskWriter`, which waits outside the scheduler's baton;
    /// the transports deliver reliably and in order.
    ///
    /// Takes the frame by value: the transport writes its wire image and
    /// drops the frame, which gives a pooled buffer back to its pool.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Closed`](crate::NetError::Closed) if the peer
    /// is gone, or a transport-level error.
    fn send(&mut self, frame: Frame) -> NetResult<()>;

    /// Send `frame` as far as the transport takes it without waiting for
    /// the peer to read: `Ok(true)` if it is all sent, `Ok(false)` if the
    /// rest waits for [`finish_send`](Self::finish_send). Default: a
    /// whole [`send`](Self::send), for writers that never wait for the
    /// peer themselves (test sinks, and wrappers whose inner writer waits
    /// inside `send`).
    ///
    /// # Errors
    ///
    /// As [`send`](Self::send).
    fn start_send(&mut self, frame: Frame) -> NetResult<bool> {
        self.send(frame).map(|()| true)
    }

    /// Send what [`start_send`](Self::start_send) left of its frame,
    /// waiting as long as that takes; a no-op when nothing is left.
    ///
    /// # Errors
    ///
    /// As [`send`](Self::send).
    fn finish_send(&mut self) -> NetResult<()> {
        Ok(())
    }
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

    /// Like [`recv`](Self::recv), but give up at `deadline` with
    /// `Ok(None)`. Giving up loses nothing: what has arrived of a frame
    /// is kept, and the next receive finishes it.
    ///
    /// # Errors
    ///
    /// As [`recv`](Self::recv).
    fn recv_until(&mut self, deadline: Instant) -> NetResult<Option<Frame>>;

    /// A handle that closes this channel from any thread (see [`Closer`]).
    fn closer(&self) -> Closer;

    /// Read frames into buffers from `pool` instead of allocating; each
    /// goes back to `pool` when its frame drops. Default: no pooling.
    fn attach_pool(&mut self, _pool: &BufferPool) {}
}

/// Closes a channel from any thread. After [`close`](Closer::close) the
/// local writer fails with [`NetError::Closed`], the local reader — even
/// one blocked in `recv` right now — gets what had already arrived and
/// then `Closed`, and the peer's reader sees the hangup. Holding a closer
/// does not keep the channel open.
#[derive(Clone)]
pub struct Closer(Arc<dyn Fn() + Send + Sync>);

impl Closer {
    /// Close the channel; idempotent, and a no-op once it is gone.
    pub fn close(&self) {
        (self.0)();
    }
}

impl std::fmt::Debug for Closer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Closer")
    }
}

/// A duplex, message-framed connection.
///
/// Channels are used split: the reader half with whoever waits for
/// messages, the writer half with the sender. The two halves may be used
/// from different threads concurrently.
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
        Channel {
            writer,
            reader,
            label: label.into(),
        }
    }

    /// Assemble a channel over a connected socket (every transport: a
    /// Unix-domain socket pair in process, a Unix-domain or TCP
    /// connection across processes). Both halves share the one socket,
    /// which closes when both are dropped.
    pub(crate) fn from_stream<S: Socket>(label: &str, stream: S) -> Channel {
        let socket = Arc::new(stream);
        let kind = transport_kind(label);
        Channel::from_halves(
            label,
            Box::new(StreamWriter {
                socket: Arc::clone(&socket),
                unsent: None,
                meter: Meter::new("sent", kind),
            }),
            Box::new(StreamReader::new(socket, kind)),
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

    /// Read frames into buffers from `pool` ([`MsgReader::attach_pool`]).
    pub fn attach_pool(&mut self, pool: &BufferPool) {
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

    /// A handle that closes this channel from any thread.
    #[must_use]
    pub fn closer(&self) -> Closer {
        self.reader.closer()
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

/// `net.frames_{dir}.{kind}` and `net.bytes_{dir}.{kind}`: a stream
/// half's own counters, which only that half writes, under `&mut self`.
struct Meter {
    frames: Arc<clam_obs::Counter>,
    bytes: Arc<clam_obs::Counter>,
}

impl Meter {
    fn new(direction: &str, kind: &str) -> Meter {
        let registry = clam_obs::registry();
        Meter {
            frames: registry.instance(&format!("net.frames_{direction}.{kind}")),
            bytes: registry.instance(&format!("net.bytes_{direction}.{kind}")),
        }
    }

    fn count(&self, wire_len: usize) {
        self.frames.add_exclusive(1);
        self.bytes.add_exclusive(wire_len as u64);
    }
}

/// A stream half's own `net.{name}.{kind}` counter.
fn instance(name: &str, kind: &str) -> Arc<clam_obs::Counter> {
    clam_obs::registry().instance(&format!("net.{name}.{kind}"))
}

// ----------------------------------------------------------------------
// Byte-stream halves shared by every transport.
// ----------------------------------------------------------------------

/// A connected stream socket both halves of a channel use through a
/// shared reference.
pub(crate) trait Socket: AsRawFd + Send + Sync + 'static {
    fn read(&self, buf: &mut [u8]) -> io::Result<usize>;
    /// [`read`](Socket::read) without waiting: `WouldBlock` if nothing is there.
    fn read_now(&self, buf: &mut [u8]) -> io::Result<usize>;
    /// Write without waiting: `WouldBlock` if the socket buffer is full.
    fn write_now(&self, buf: &[u8]) -> io::Result<usize>;
    fn shutdown(&self, how: Shutdown) -> io::Result<()>;
}

macro_rules! impl_socket {
    ($($t:ty),*) => {$(
        impl Socket for $t {
            fn read(&self, buf: &mut [u8]) -> io::Result<usize> {
                <&$t as Read>::read(&mut &*self, buf)
            }
            fn read_now(&self, buf: &mut [u8]) -> io::Result<usize> {
                // SAFETY: `buf` is writable for the `buf.len()` bytes asked for
                // and `recv` keeps no pointer to it. `MSG_DONTWAIT` leaves the
                // `O_NONBLOCK` the writer half shares untouched.
                let n = unsafe { recv(self.as_raw_fd(), buf.as_mut_ptr(), buf.len(), MSG_DONTWAIT) };
                usize::try_from(n).map_err(|_| io::Error::last_os_error())
            }
            fn write_now(&self, buf: &[u8]) -> io::Result<usize> {
                // SAFETY: `buf` is readable for the `buf.len()` bytes given
                // and `send` keeps no pointer to it. `MSG_NOSIGNAL` turns a
                // write to a closed peer into `EPIPE`, as in std's streams.
                let n = unsafe {
                    send(self.as_raw_fd(), buf.as_ptr(), buf.len(), MSG_DONTWAIT | MSG_NOSIGNAL)
                };
                usize::try_from(n).map_err(|_| io::Error::last_os_error())
            }
            fn shutdown(&self, how: Shutdown) -> io::Result<()> {
                <$t>::shutdown(self, how)
            }
        }
    )*};
}
impl_socket!(std::os::unix::net::UnixStream, std::net::TcpStream);

const MSG_DONTWAIT: i32 = 0x40;
const MSG_NOSIGNAL: i32 = 0x4000;
const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn recv(fd: RawFd, buf: *mut u8, len: usize, flags: i32) -> isize;
    fn send(fd: RawFd, buf: *const u8, len: usize, flags: i32) -> isize;
    fn ppoll(fds: *mut PollFd, nfds: c_ulong, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Wait until socket `fd` is ready for `events` (`POLLIN`: bytes or end of
/// stream to read; `POLLOUT`: room to write), or a hangup or error that
/// the next read or write reports (`true`), or until `deadline`, if any,
/// passes (`false`). `ppoll` sleeps to within the timer slack (50 µs),
/// where a socket timeout is rounded up to clock ticks (a 1 ms one took
/// 8 ms on a 250 Hz kernel).
fn ready_by(fd: RawFd, events: i16, deadline: Option<Instant>) -> io::Result<bool> {
    let timeout = deadline.map(|at| {
        let left = at.saturating_duration_since(Instant::now());
        Timespec {
            tv_sec: c_long::try_from(left.as_secs()).unwrap_or(c_long::MAX),
            tv_nsec: c_long::from(left.subsec_nanos()),
        }
    });
    let mut poll = PollFd {
        fd,
        events,
        revents: 0,
    };
    let timeout = timeout
        .as_ref()
        .map_or(std::ptr::null(), std::ptr::from_ref);
    // SAFETY: `poll` and the timeout, if any, outlive the call, which keeps
    // no pointer to them; a null timeout waits without one, and a null
    // signal mask leaves the thread's mask as it is.
    match unsafe { ppoll(&mut poll, 1, timeout, std::ptr::null()) } {
        n if n < 0 => Err(io::Error::last_os_error()),
        n => Ok(n > 0),
    }
}

struct StreamWriter<S: Socket> {
    socket: Arc<S>,
    /// A frame [`start_send`](MsgWriter::start_send) left part-sent, and
    /// how many of its bytes are on the wire.
    unsent: Option<(Frame, usize)>,
    meter: Meter,
}

impl<S: Socket> StreamWriter<S> {
    /// Write the unsent frame until it is all sent (`true`) or the socket
    /// buffer is full (`false`).
    fn write_some(&mut self) -> NetResult<bool> {
        let Some((frame, sent)) = &mut self.unsent else {
            return Ok(true);
        };
        while *sent < frame.wire().len() {
            match self.socket.write_now(&frame.wire()[*sent..]) {
                Ok(0) => {
                    self.unsent = None;
                    return Err(NetError::Closed);
                }
                Ok(n) => *sent += n,
                Err(e) if timed_out(&e) => return Ok(false),
                Err(e) => {
                    self.unsent = None;
                    return Err(e.into());
                }
            }
        }
        self.unsent = None;
        Ok(true)
    }
}

impl<S: Socket> MsgWriter for StreamWriter<S> {
    fn send(&mut self, frame: Frame) -> NetResult<()> {
        if !self.start_send(frame)? {
            self.finish_send()?;
        }
        Ok(())
    }

    /// Counts the frame once the socket has taken it, sent or not.
    fn start_send(&mut self, frame: Frame) -> NetResult<bool> {
        self.finish_send()?;
        let wire_len = frame.wire().len();
        // The frame already is its wire image: written as is, no copy.
        self.unsent = Some((frame, 0));
        let sent = self.write_some()?;
        self.meter.count(wire_len);
        Ok(sent)
    }

    fn finish_send(&mut self) -> NetResult<()> {
        while !self.write_some()? {
            match ready_by(self.socket.as_raw_fd(), POLLOUT, None) {
                Err(e) if !timed_out(&e) => return Err(e.into()),
                _ => {}
            }
        }
        Ok(())
    }
}

impl<S: Socket> Drop for StreamWriter<S> {
    /// A dropped writer is a hangup: the peer's reader sees end of stream
    /// even while our reader lives on.
    fn drop(&mut self) {
        let _ = self.socket.shutdown(Shutdown::Write);
    }
}

/// A read or write that would have waited, or a signal: it may be retried.
fn timed_out(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

/// How far a reader's frame buffer may grow past the bytes read into it.
const READ_STEP: usize = 64 * 1024;

/// The size of a reader's receive buffer: std's default for a buffered reader.
const RECV_BUF: usize = 8 * 1024;

/// The longest wait a reader expects and still probes for, and the most
/// it probes. It covers a loopback tcp round trip (9–13 µs on a 2-vCPU
/// VM) and a batch's barrier, with room for a busy host, where a
/// cross-CPU wake-up alone can pass 12 µs. A wait longer than this
/// costs more CPU in probes than the sleep and wake-up it saves.
const SPIN_CAP: Duration = Duration::from_micros(50);

/// The least a probing reader probes: about one sleep plus a cross-CPU
/// wake-up on a 2-vCPU VM. At 6 µs the probes gave up just before an
/// upcall's reply came.
const SPIN_MIN: Duration = Duration::from_micros(12);

struct StreamReader<S> {
    socket: Arc<S>,
    /// Bytes received past the frame being read are `buf[pos..end]`.
    buf: Box<[u8]>,
    pos: usize,
    end: usize,
    /// The frame being read, in a buffer from `pool` if there is one;
    /// `None` until a read starts it. Its wire image grows with the bytes
    /// that arrive, at most [`READ_STEP`] past them, so a peer that
    /// announces a large frame and sends little of it pins little memory.
    /// A timed read that gives up mid-frame leaves it here, and the next
    /// read goes on where that one stopped.
    partial: Option<FrameEncoder>,
    /// Bytes of `partial`'s wire image read so far.
    filled: usize,
    /// Wire length of the frame being read: the length prefix's until
    /// that is in, then the whole frame's.
    frame_len: usize,
    /// How long this reader's recent waits for bytes took, probing or
    /// sleeping: each wait averaged in with weight 1/2, held at most at
    /// twice [`SPIN_CAP`], so that two short waits bring an idle reader
    /// back to probing. `None` in a fresh reader, which does not probe.
    wait: Option<Duration>,
    pool: Option<BufferPool>,
    meter: Meter,
    /// Waits that ended while probing (`net.recv_spun.{kind}`).
    spun: Arc<clam_obs::Counter>,
    /// Waits that went to a blocking read (`net.recv_slept.{kind}`).
    slept: Arc<clam_obs::Counter>,
    /// Probes that found nothing (`net.recv_probes.{kind}`): the spin's CPU.
    probes: Arc<clam_obs::Counter>,
}

impl<S: Socket> StreamReader<S> {
    fn new(socket: Arc<S>, kind: &str) -> StreamReader<S> {
        StreamReader {
            socket,
            buf: vec![0; RECV_BUF].into_boxed_slice(),
            pos: 0,
            end: 0,
            partial: None,
            filled: 0,
            frame_len: FRAME_PREFIX_LEN,
            wait: None,
            pool: None,
            meter: Meter::new("recv", kind),
            spun: instance("recv_spun", kind),
            slept: instance("recv_slept", kind),
            probes: instance("recv_probes", kind),
        }
    }

    /// Read until a frame is complete, or give up at `deadline` with
    /// `Ok(None)`, keeping what was read of the frame.
    fn read(&mut self, deadline: Option<Instant>) -> NetResult<Option<Frame>> {
        if self.partial.is_none() {
            self.partial = Some(match &self.pool {
                Some(pool) => FrameEncoder::from(pool),
                None => FrameEncoder::from(Vec::new()),
            });
        }
        if self.filled < FRAME_PREFIX_LEN {
            if !self.fill(deadline)? {
                return Ok(None);
            }
            let prefix = wire(&mut self.partial)[..FRAME_PREFIX_LEN]
                .try_into()
                .expect("4 bytes");
            let len = u32::from_be_bytes(prefix) as usize;
            if len > MAX_FRAME_LEN {
                return Err(NetError::FrameTooLarge {
                    len,
                    max: MAX_FRAME_LEN,
                });
            }
            self.frame_len = FRAME_PREFIX_LEN + len;
        }
        if !self.fill(deadline)? {
            return Ok(None);
        }
        self.meter.count(self.frame_len);
        self.filled = 0;
        self.frame_len = FRAME_PREFIX_LEN;
        let frame = self.partial.take().expect("a frame was read");
        frame.finish().map(Some)
    }

    /// Read until `frame_len` bytes are in (`true`) or `deadline` passes.
    fn fill(&mut self, deadline: Option<Instant>) -> NetResult<bool> {
        while self.filled < self.frame_len {
            let partial = wire(&mut self.partial);
            if self.filled == partial.len() {
                let step = (self.frame_len - self.filled).min(READ_STEP);
                partial.resize(self.filled + step, 0);
            }
            if self.pos == self.end {
                let start = Instant::now();
                if deadline.is_some_and(|at| at <= start) {
                    return Ok(false);
                }
                // Probe for half again the expected wait, while that is short.
                let probe_for = self
                    .wait
                    .filter(|&wait| wait < SPIN_CAP)
                    .map(|wait| (wait * 3 / 2).clamp(SPIN_MIN, SPIN_CAP));
                let read = match probe_for.and_then(|limit| self.probe(start + limit, deadline)) {
                    Some(n) => {
                        self.spun.add_exclusive(1);
                        Ok(n)
                    }
                    None => {
                        self.slept.add_exclusive(1);
                        match deadline {
                            None => self.receive(S::read),
                            Some(at) => match ready_by(self.socket.as_raw_fd(), POLLIN, Some(at)) {
                                Ok(true) => self.receive(S::read_now),
                                Ok(false) => return Ok(false),
                                Err(e) => Err(e),
                            },
                        }
                    }
                };
                match read {
                    Ok(0) => return Err(NetError::Closed),
                    Ok(_) => {
                        let waited = start.elapsed();
                        let wait = self.wait.map_or(waited, |wait| (wait + waited) / 2);
                        self.wait = Some(wait.min(SPIN_CAP * 2));
                    }
                    Err(e) if !timed_out(&e) => return Err(e.into()),
                    Err(_) => {}
                }
            }
            let received = &self.buf[self.pos..self.end];
            let partial = wire(&mut self.partial);
            let n = received.len().min(partial.len() - self.filled);
            partial[self.filled..][..n].copy_from_slice(&received[..n]);
            (self.pos, self.filled) = (self.pos + n, self.filled + n);
        }
        Ok(true)
    }

    /// One receive by `read` (the receive buffer must be empty): straight
    /// into the frame buffer when its room is at least the receive
    /// buffer's size, else into the receive buffer.
    fn receive(&mut self, read: fn(&S, &mut [u8]) -> io::Result<usize>) -> io::Result<usize> {
        let partial = wire(&mut self.partial);
        let direct = partial.len() - self.filled >= RECV_BUF;
        let n = if direct {
            read(&self.socket, &mut partial[self.filled..])?
        } else {
            read(&self.socket, &mut self.buf)?
        };
        let (filled, end) = if direct { (n, 0) } else { (0, n) };
        (self.filled, self.pos, self.end) = (self.filled + filled, 0, end);
        Ok(n)
    }

    /// Receive without waiting, yielding the CPU between tries, until
    /// bytes come (`Some`: how many, 0 at end of stream), or until `until`
    /// or `deadline` passes, or a try fails (`None`: the blocking read
    /// waits, or reports the failure). A probing reader is on no wait
    /// queue, so the peer's write wakes no thread.
    fn probe(&mut self, until: Instant, deadline: Option<Instant>) -> Option<usize> {
        let until = deadline.map_or(until, |at| at.min(until));
        loop {
            match self.receive(S::read_now).map_err(|e| e.kind()) {
                Ok(n) => return Some(n),
                Err(io::ErrorKind::WouldBlock) => self.probes.add_exclusive(1),
                Err(io::ErrorKind::Interrupted) => {}
                Err(_) => return None,
            }
            if Instant::now() >= until {
                return None;
            }
            std::thread::yield_now();
        }
    }
}

impl<S: Socket> MsgReader for StreamReader<S> {
    fn recv(&mut self) -> NetResult<Frame> {
        self.read(None)?.ok_or(NetError::Closed)
    }

    fn recv_until(&mut self, deadline: Instant) -> NetResult<Option<Frame>> {
        self.read(Some(deadline))
    }

    fn closer(&self) -> Closer {
        let socket: Weak<S> = Arc::downgrade(&self.socket);
        Closer(Arc::new(move || {
            if let Some(socket) = socket.upgrade() {
                // Wakes our own blocked reader too: it reads end of stream.
                let _ = socket.shutdown(Shutdown::Both);
            }
        }))
    }

    fn attach_pool(&mut self, pool: &BufferPool) {
        self.pool = Some(pool.clone());
    }
}

/// The wire image of the frame a reader is reading.
fn wire(partial: &mut Option<FrameEncoder>) -> &mut Vec<u8> {
    let frame = partial.as_mut().expect("a read starts its frame first");
    frame.wire_mut()
}

/// Create a connected pair of in-process channels (no listener needed):
/// a Unix-domain socket pair, read and written like any other stream.
///
/// The first element is conventionally the "client" end. Useful for tests
/// and benches.
///
/// # Panics
///
/// Panics if no socket pair can be made (the process is out of file
/// descriptors); [`connect`](crate::connect) reports that as an error.
#[must_use]
pub fn pair() -> (Channel, Channel) {
    socket_pair().expect("cannot create a socket pair")
}

/// [`pair`], reporting a failure to make the sockets as an error.
pub(crate) fn socket_pair() -> NetResult<(Channel, Channel)> {
    let (left, right) = std::os::unix::net::UnixStream::pair()?;
    Ok((
        Channel::from_stream("inmem-left", left),
        Channel::from_stream("inmem-right", right),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

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
    }

    /// `net.frames_sent.{kind}` and `net.frames_recv.{kind}` in `snap`.
    fn frames(snap: &clam_obs::MetricsSnapshot, kind: &str) -> [u64; 2] {
        ["sent", "recv"].map(|dir| snap.counter(&format!("net.frames_{dir}.{kind}")))
    }

    #[test]
    fn a_wrapped_channel_meters_each_frame_once() {
        use crate::{Endpoint, FaultPlan, FaultyChannel};
        let before = clam_obs::snapshot();
        let (a, b) = pair();
        let (mut a, _) = FaultyChannel::wrap(a, FaultPlan::seeded(1));
        let (mut b, _) = FaultyChannel::wrap(b, FaultPlan::seeded(2));
        for i in 0..5u8 {
            a.send(&[i][..]).unwrap();
        }
        for i in 0..5u8 {
            assert_eq!(b.recv().unwrap(), [i]);
        }
        let wan = Endpoint::Wan {
            addr: "127.0.0.1:0".to_string(),
            latency: Duration::ZERO,
        };
        let listener = crate::listen(&wan).unwrap();
        let mut client = crate::connect(&listener.endpoint()).unwrap();
        let mut server = listener.accept().unwrap();
        client.send(b"req").unwrap();
        assert_eq!(server.recv().unwrap(), b"req");
        server.send(b"resp").unwrap();
        assert_eq!(client.recv().unwrap(), b"resp");

        // Exact: no channel counts under a wrapper's kind.
        let delta = clam_obs::snapshot().delta(&before);
        assert_eq!(frames(&delta, "faulty"), [0, 0]);
        assert_eq!(frames(&delta, "wan"), [0, 0]);
        // Lower bounds: sibling tests send on these transports too.
        assert!(frames(&delta, "inmem").iter().all(|&n| n >= 5));
        assert!(frames(&delta, "tcp").iter().all(|&n| n >= 2));
    }

    #[test]
    fn transport_kind_takes_the_label_head() {
        assert_eq!(transport_kind("unix-client"), "unix");
        assert_eq!(transport_kind("faulty-tcp-server"), "faulty");
        assert_eq!(transport_kind("inmem"), "inmem");
        assert_eq!(transport_kind(""), "other");
    }

    /// A connected pair on each kind of socket.
    fn pairs() -> Vec<(Channel, Channel)> {
        let tcp = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let c = std::net::TcpStream::connect(tcp.local_addr().unwrap()).unwrap();
        let (d, _) = tcp.accept().unwrap();
        vec![
            pair(),
            (
                Channel::from_stream("tcp-a", c),
                Channel::from_stream("tcp-b", d),
            ),
        ]
    }

    impl Socket for AnySocket {
        fn read(&self, buf: &mut [u8]) -> io::Result<usize> {
            (**self).read(buf)
        }
        fn read_now(&self, buf: &mut [u8]) -> io::Result<usize> {
            (**self).read_now(buf)
        }
        fn write_now(&self, buf: &[u8]) -> io::Result<usize> {
            (**self).write_now(buf)
        }
        fn shutdown(&self, how: Shutdown) -> io::Result<()> {
            (**self).shutdown(how)
        }
    }

    impl AsRawFd for AnySocket {
        fn as_raw_fd(&self) -> RawFd {
            (**self).as_raw_fd()
        }
    }

    type AnySocket = Box<dyn Socket>;

    /// A raw socket and a reader on its peer, for each stream transport.
    fn raw_readers() -> Vec<(AnySocket, StreamReader<AnySocket>)> {
        socket_pairs()
            .into_iter()
            .map(|(a, b)| (a, StreamReader::new(Arc::new(b), "test")))
            .collect()
    }

    /// A connected pair of each kind of stream socket.
    fn socket_pairs() -> Vec<(AnySocket, AnySocket)> {
        let (a, b) = std::os::unix::net::UnixStream::pair().unwrap();
        let tcp = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let c = std::net::TcpStream::connect(tcp.local_addr().unwrap()).unwrap();
        let (d, _) = tcp.accept().unwrap();
        vec![(Box::new(a), Box::new(b)), (Box::new(c), Box::new(d))]
    }

    fn write_all(socket: &dyn Socket, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            match socket.write_now(bytes) {
                Ok(n) => bytes = &bytes[n..],
                Err(e) if timed_out(&e) => {
                    ready_by(socket.as_raw_fd(), POLLOUT, None).unwrap();
                }
                Err(e) => panic!("{e}"),
            }
        }
    }

    #[test]
    fn recv_until_gives_up_at_the_deadline_and_loses_nothing() {
        for (mut a, mut b) in pairs() {
            let start = Instant::now();
            let got = b.reader.recv_until(start + Duration::from_millis(30));
            assert!(matches!(got, Ok(None)), "{}: {got:?}", b.label());
            assert!(start.elapsed() >= Duration::from_millis(30));
            a.send(b"late").unwrap();
            let far = Instant::now() + Duration::from_secs(5);
            assert_eq!(b.reader.recv_until(far).unwrap().unwrap(), b"late");
            assert!(matches!(b.reader.recv_until(start), Ok(None)));

            // After a prompt exchange the reader probes before it sleeps;
            // a deadline inside the probing still ends the wait, no
            // earlier than the deadline and with nothing lost.
            a.send(b"prompt").unwrap();
            assert_eq!(b.reader.recv().unwrap(), b"prompt");
            let short = SPIN_MIN / 3;
            let at = Instant::now();
            let got = b.reader.recv_until(at + short);
            assert!(matches!(got, Ok(None)), "{}: {got:?}", b.label());
            assert!(at.elapsed() >= short, "{}: {:?}", b.label(), at.elapsed());
            a.send(b"after").unwrap();
            assert_eq!(b.reader.recv_until(far).unwrap().unwrap(), b"after");
        }
    }

    /// The waits `reader` ended while probing and in a blocking read.
    fn waits(reader: &StreamReader<AnySocket>) -> [u64; 2] {
        [reader.spun.get(), reader.slept.get()]
    }

    /// Send a small frame from one end of `pair` to a peer thread that
    /// sends it back after `delay`, `warm_up` and then `counted` times;
    /// returns the waits (`[spun, slept]`) of the counted round trips.
    /// A peer with a delay under a millisecond is busy for it, since a
    /// sleep that short overshoots by the kernel's timer slack (50 µs).
    fn round_trips(
        pair: (AnySocket, AnySocket),
        warm_up: u32,
        counted: u32,
        delay: Duration,
    ) -> [u64; 2] {
        let (ours, theirs) = (Arc::new(pair.0), Arc::new(pair.1));
        let mut reader = StreamReader::new(Arc::clone(&ours), "test");
        let mut peer = StreamReader::new(Arc::clone(&theirs), "test");
        let echo = std::thread::spawn(move || {
            while let Ok(frame) = peer.recv() {
                if delay < Duration::from_millis(1) {
                    let busy = Instant::now();
                    while busy.elapsed() < delay {
                        std::hint::spin_loop();
                    }
                } else {
                    std::thread::sleep(delay);
                }
                write_all(&**theirs, frame.wire());
            }
        });
        let ping = Frame::from(b"ping");
        let mut run = |n| {
            let before = waits(&reader);
            for _ in 0..n {
                write_all(&**ours, ping.wire());
                assert_eq!(reader.recv().unwrap(), b"ping");
            }
            let after = waits(&reader);
            [after[0] - before[0], after[1] - before[1]]
        };
        run(warm_up);
        let waited = run(counted);
        ours.shutdown(Shutdown::Write).unwrap();
        echo.join().unwrap();
        waited
    }

    #[test]
    fn a_prompt_peer_is_awaited_by_probing_not_sleeping() {
        for (kind, pair) in socket_pairs().into_iter().enumerate() {
            let [spun, slept] = round_trips(pair, 200, 2_000, Duration::ZERO);
            assert!(slept * 2 < spun + slept, "kind {kind}: [{spun}, {slept}]");
        }
    }

    #[test]
    fn a_busy_peer_is_awaited_mostly_by_probing() {
        // Each wait outlasts the least probe: the peer is busy for 20 µs
        // before it answers. The reader probes for as long as it expects
        // to wait, so the answer wakes no thread.
        for (kind, pair) in socket_pairs().into_iter().enumerate() {
            let [spun, slept] = round_trips(pair, 200, 2_000, Duration::from_micros(20));
            assert!(slept * 4 < spun + slept, "kind {kind}: [{spun}, {slept}]");
        }
    }

    #[test]
    fn a_slow_peer_is_awaited_by_sleeping() {
        for pair in socket_pairs() {
            let [spun, slept] = round_trips(pair, 0, 100, Duration::from_millis(2));
            assert!(spun <= 1, "{spun} waits spun, {slept} slept");
        }
    }

    #[test]
    fn a_fresh_reader_does_not_probe() {
        for (raw, mut reader) in raw_readers() {
            write_all(&*raw, Frame::from(b"first").wire());
            assert_eq!(reader.recv().unwrap(), b"first");
            assert_eq!(waits(&reader), [0, 1]);
        }
    }

    #[test]
    fn a_frame_cut_off_by_the_deadline_is_finished_by_the_next_receive() {
        let wire = Frame::from(b"split across the deadline").into_wire();
        // Cut inside the length prefix, and inside the payload.
        for cut in [2, 9] {
            for (raw, mut reader) in raw_readers() {
                write_all(&*raw, &wire[..cut]);
                let rest = wire[cut..].to_vec();
                // The rest comes long after the deadline: a reader that
                // waits for it fails the checks below instead of hanging.
                let writer = std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_millis(300));
                    write_all(&*raw, &rest);
                    write_all(&*raw, Frame::from(b"next").wire());
                    raw
                });
                let start = Instant::now();
                let got = reader.recv_until(start + Duration::from_millis(50));
                assert!(matches!(got, Ok(None)), "cut {cut}: {got:?}");
                let took = start.elapsed();
                assert!(took >= Duration::from_millis(50), "early: {took:?}");
                assert!(took < Duration::from_millis(100), "late: {took:?}");
                assert!(matches!(reader.recv_until(start), Ok(None)));

                assert_eq!(reader.recv().unwrap(), b"split across the deadline");
                assert_eq!(reader.recv().unwrap(), b"next");
                drop(writer.join().unwrap());
            }
        }
    }

    #[test]
    fn a_frame_buffer_grows_with_the_bytes_that_arrive() {
        for (raw, mut reader) in raw_readers() {
            let prefix = u32::try_from(MAX_FRAME_LEN).unwrap().to_be_bytes();
            write_all(&*raw, &prefix);
            write_all(&*raw, &[7u8; 100]);
            let got = reader.recv_until(Instant::now() + Duration::from_millis(50));
            assert!(matches!(got, Ok(None)), "{got:?}");
            assert_eq!(reader.filled, FRAME_PREFIX_LEN + 100);
            let capacity = wire(&mut reader.partial).capacity();
            assert!(
                capacity <= 128 * 1024,
                "a 104-byte partial frame holds {capacity} bytes"
            );
        }
    }

    #[test]
    fn frames_that_arrive_together_cost_one_wait() {
        let wire: Vec<u8> = [&b"one"[..], b"two", b"three"]
            .into_iter()
            .flat_map(|payload| Frame::from(payload).into_wire())
            .collect();
        for (raw, mut reader) in raw_readers() {
            // A fresh reader sleeps for the first; then it probes.
            for round in 0..2 {
                write_all(&*raw, &wire);
                let before = waits(&reader);
                assert_eq!(reader.recv().unwrap(), b"one");
                let first = waits(&reader);
                assert_eq!(
                    first[0] + first[1],
                    before[0] + before[1] + 1,
                    "round {round}"
                );
                assert_eq!(reader.recv().unwrap(), b"two");
                assert_eq!(reader.recv().unwrap(), b"three");
                assert_eq!(waits(&reader), first, "round {round}: a later frame waited");
            }
        }
    }

    #[test]
    fn a_frame_larger_than_both_buffers_arrives_whole() {
        let payload: Vec<u8> = (0..256 * 1024u32).map(|i| (i % 251) as u8).collect();
        assert!(payload.len() > RECV_BUF.max(READ_STEP));
        let wire = Frame::from(&payload).into_wire();
        for probing in [true, false] {
            for (raw, mut reader) in raw_readers() {
                reader.wait = probing.then_some(Duration::ZERO);
                // A probing reader finds the first bytes there; a sleeping
                // one waits for them. The rest streams in behind.
                let head = if probing { 4096 } else { 0 };
                write_all(&*raw, &wire[..head]);
                let rest = wire[head..].to_vec();
                let writer = std::thread::spawn(move || {
                    if !probing {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    write_all(&*raw, &rest);
                    raw
                });
                let got = reader.recv().unwrap();
                assert!(
                    got == payload,
                    "probing {probing}: the frame arrived damaged"
                );
                let [spun, slept] = waits(&reader);
                assert!(
                    if probing { spun > 0 } else { slept > 0 },
                    "[{spun}, {slept}]"
                );
                drop(writer.join().unwrap());
            }
        }
    }

    #[test]
    fn a_frame_written_in_two_parts_to_a_probing_reader_arrives_whole() {
        let wire = Frame::from(b"in two parts").into_wire();
        for (mut raw, mut reader) in raw_readers() {
            // Inside the length prefix, at its end, and just past it.
            for cut in 1..=8 {
                reader.wait = Some(Duration::ZERO);
                let wire = wire.clone();
                let writer = std::thread::spawn(move || {
                    write_all(&*raw, &wire[..cut]);
                    std::thread::yield_now();
                    write_all(&*raw, &wire[cut..]);
                    raw
                });
                assert_eq!(reader.recv().unwrap(), b"in two parts", "cut {cut}");
                raw = writer.join().unwrap();
            }
        }
    }

    #[test]
    fn a_peer_that_closes_while_the_reader_probes_gives_closed_after_its_frames() {
        for (raw, mut reader) in raw_readers() {
            reader.wait = Some(Duration::ZERO);
            write_all(&*raw, Frame::from(b"last but one").wire());
            write_all(&*raw, Frame::from(b"last").wire());
            raw.shutdown(Shutdown::Write).unwrap();
            assert_eq!(reader.recv().unwrap(), b"last but one");
            assert_eq!(reader.recv().unwrap(), b"last");
            assert!(reader.recv().unwrap_err().is_closed());
            assert_eq!(waits(&reader)[1], 0, "a wait slept");
        }
        // The same with the peer on a thread of its own, closing while
        // the reader probes or sleeps, as the timing falls.
        for (raw, mut reader) in raw_readers() {
            reader.wait = Some(Duration::ZERO);
            let peer = std::thread::spawn(move || {
                for i in 0..50u8 {
                    write_all(&*raw, Frame::from(&[i]).wire());
                }
            });
            for i in 0..50u8 {
                assert_eq!(reader.recv().unwrap(), [i]);
            }
            assert!(reader.recv().unwrap_err().is_closed());
            peer.join().unwrap();
        }
    }

    /// A socket that counts the receives, through either read method,
    /// that return bytes or end of stream.
    struct Counting {
        inner: AnySocket,
        received: Arc<AtomicU64>,
    }

    impl Counting {
        fn count(&self, read: io::Result<usize>) -> io::Result<usize> {
            if read.is_ok() {
                self.received.fetch_add(1, Ordering::Relaxed);
            }
            read
        }
    }

    impl Socket for Counting {
        fn read(&self, buf: &mut [u8]) -> io::Result<usize> {
            self.count(self.inner.read(buf))
        }
        fn read_now(&self, buf: &mut [u8]) -> io::Result<usize> {
            self.count(self.inner.read_now(buf))
        }
        fn write_now(&self, buf: &[u8]) -> io::Result<usize> {
            self.inner.write_now(buf)
        }
        fn shutdown(&self, how: Shutdown) -> io::Result<()> {
            self.inner.shutdown(how)
        }
    }

    impl AsRawFd for Counting {
        fn as_raw_fd(&self) -> RawFd {
            self.inner.as_raw_fd()
        }
    }

    #[test]
    fn a_probed_frame_costs_one_receive() {
        // As in the echo test above, each transport has three fresh pairs
        // to show that most waits end in the probe.
        for kind in 0..2 {
            let mut tries = Vec::new();
            let probed = (0..3).any(|_| {
                let (ours, theirs) = socket_pairs().swap_remove(kind);
                let received = Arc::new(AtomicU64::new(0));
                let ours: AnySocket = Box::new(Counting {
                    inner: ours,
                    received: Arc::clone(&received),
                });
                let [spun, slept] = round_trips((ours, theirs), 200, 2_000, Duration::ZERO);
                // Every frame, warm-up included, in one receive on either
                // path; `WouldBlock` probes are not counted.
                let receives = received.load(Ordering::Relaxed);
                assert_eq!(
                    receives,
                    2_200,
                    "kind {kind}: [spun, slept] {:?}",
                    [spun, slept]
                );
                tries.push([spun, slept]);
                slept * 2 < spun + slept
            });
            assert!(probed, "kind {kind}: [spun, slept] per try {tries:?}");
        }
    }

    /// A socket that counts the probes that find nothing.
    struct Probes {
        inner: AnySocket,
        failed: Arc<AtomicU64>,
    }

    impl Socket for Probes {
        fn read(&self, buf: &mut [u8]) -> io::Result<usize> {
            self.inner.read(buf)
        }
        fn read_now(&self, buf: &mut [u8]) -> io::Result<usize> {
            let read = self.inner.read_now(buf);
            if read
                .as_ref()
                .is_err_and(|e| e.kind() == io::ErrorKind::WouldBlock)
            {
                self.failed.fetch_add(1, Ordering::Relaxed);
            }
            read
        }
        fn write_now(&self, buf: &[u8]) -> io::Result<usize> {
            self.inner.write_now(buf)
        }
        fn shutdown(&self, how: Shutdown) -> io::Result<()> {
            self.inner.shutdown(how)
        }
    }

    impl AsRawFd for Probes {
        fn as_raw_fd(&self) -> RawFd {
            self.inner.as_raw_fd()
        }
    }

    #[test]
    fn an_idle_reader_costs_nothing() {
        let ping = Frame::from(b"ping");
        for (kind, (ours, theirs)) in socket_pairs().into_iter().enumerate() {
            let (failed, received) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
            let ours: AnySocket = Box::new(Counting {
                inner: Box::new(Probes {
                    inner: ours,
                    failed: Arc::clone(&failed),
                }),
                received: Arc::clone(&received),
            });
            let mut reader = StreamReader::new(Arc::new(ours), "test");
            // Frames that are there when asked for: a reader that expects
            // a short wait probes, and one that expects a long one (it was
            // fresh, or descheduled mid-receive) is back to probing within
            // two receives.
            let (mut expected, mut probed) = (vec![reader.wait], Vec::new());
            for _ in 0..100 {
                let spun = reader.spun.get();
                write_all(&*theirs, ping.wire());
                assert_eq!(reader.recv().unwrap(), b"ping");
                probed.push(reader.spun.get() > spun);
                expected.push(reader.wait);
            }
            let short = |i: usize| expected[i].is_some_and(|wait| wait < SPIN_CAP);
            for (i, &probed) in probed.iter().enumerate() {
                let back = short(i + 1) || short((i + 2).min(100));
                assert!(
                    probed || !short(i) && back,
                    "kind {kind}, receive {i}: {expected:?}"
                );
            }
            // The peer falls silent twice, for 0.1 s and then for 1 s.
            let peer = std::thread::spawn(move || {
                for silence in [100, 1_000] {
                    std::thread::sleep(Duration::from_millis(silence));
                    write_all(&*theirs, Frame::from(b"late").wire());
                }
                theirs
            });
            assert_eq!(reader.recv().unwrap(), b"late");
            let probed = failed.load(Ordering::Relaxed);
            assert_eq!(reader.recv().unwrap(), b"late");
            let idle = failed.load(Ordering::Relaxed) - probed;
            assert!(idle <= 5, "kind {kind}: {idle} probes in an idle second");
            assert_eq!(received.load(Ordering::Relaxed), 102, "kind {kind}");
            // Two prompt waits after the silence, and the reader probes again.
            let theirs = peer.join().unwrap();
            let spun = reader.spun.get();
            for _ in 0..3 {
                write_all(&*theirs, ping.wire());
                assert_eq!(reader.recv().unwrap(), b"ping");
            }
            assert_eq!(reader.spun.get(), spun + 1, "kind {kind}");
            assert_eq!(reader.probes.get(), failed.load(Ordering::Relaxed));
        }
    }

    #[test]
    fn a_plain_receive_after_a_timed_one_waits_without_a_timeout() {
        for (raw, mut reader) in raw_readers() {
            let soon = Instant::now() + Duration::from_millis(5);
            assert!(matches!(reader.recv_until(soon), Ok(None)));
            let writer = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                write_all(&*raw, Frame::from(b"idle wait").wire());
                raw
            });
            assert_eq!(reader.recv().unwrap(), b"idle wait");
            drop(writer.join().unwrap());
        }
    }

    #[test]
    fn a_short_deadline_fires_on_time() {
        // A socket read timeout would round 1 ms up to clock ticks: 8 ms
        // on a 250 Hz kernel. The quickest of five tries bounds the
        // overshoot without counting a busy host's stalls.
        for (_raw, mut reader) in raw_readers() {
            let took = (0..5)
                .map(|_| {
                    let at = Instant::now();
                    assert!(matches!(
                        reader.recv_until(at + Duration::from_millis(1)),
                        Ok(None)
                    ));
                    at.elapsed()
                })
                .min()
                .unwrap();
            assert!(took >= Duration::from_millis(1), "early: {took:?}");
            assert!(took < Duration::from_millis(3), "late: {took:?}");
        }
    }

    #[test]
    fn start_send_stops_at_a_full_socket_buffer_and_finish_send_completes_it() {
        // Wrapped writers too: one end of a pair in a benign fault plan,
        // and a WAN pair, whose ends both hold received frames.
        let mut legs = pairs();
        let (faulty, peer) = pair();
        legs.push((
            crate::FaultyChannel::wrap(faulty, crate::FaultPlan::seeded(1)).0,
            peer,
        ));
        let wan = crate::listen(&crate::Endpoint::wan("127.0.0.1:0")).unwrap();
        let client = crate::connect(&wan.endpoint()).unwrap();
        legs.push((client, wan.accept().unwrap()));
        for (a, mut b) in legs {
            let label = a.label().to_string();
            let (mut w, _r) = a.split();
            let frame = || Frame::from(vec![7u8; 64 * 1024]);
            // On a thread, so that a writer that blocks in `start_send`
            // fails the test instead of hanging it.
            let (filled, fill) = std::sync::mpsc::channel();
            let fill_label = label.clone();
            let filler = std::thread::spawn(move || {
                let mut started = 0;
                loop {
                    let at = Instant::now();
                    let sent = w.start_send(frame()).unwrap();
                    assert!(at.elapsed() < Duration::from_millis(100), "{fill_label}");
                    started += 1;
                    if !sent {
                        break;
                    }
                    assert!(
                        started < 10_000,
                        "{fill_label}: the socket buffer never filled"
                    );
                }
                filled.send((w, started)).unwrap();
            });
            let (mut w, started) = fill
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|e| panic!("{label}: the fill loop failed or blocked: {e}"));
            filler.join().unwrap();
            let reader = std::thread::spawn(move || {
                (0..started).all(|_| b.recv().unwrap() == vec![7u8; 64 * 1024])
            });
            w.finish_send().unwrap();
            assert!(reader.join().unwrap(), "{label}: a frame arrived damaged");
        }
    }

    #[test]
    fn start_send_into_a_full_socket_buffer_returns_at_once() {
        // A socket write timeout is rounded up to clock ticks: the write
        // that found the buffer full took 8-16 ms with a 1 µs one.
        for kind in 0..2 {
            let mut took: Vec<Duration> = (0..10)
                .map(|_| {
                    let (a, _b) = pairs().swap_remove(kind);
                    let (mut w, _r) = a.split();
                    (0..10_000)
                        .find_map(|_| {
                            let frame = Frame::from(vec![7u8; 64 * 1024]);
                            let at = Instant::now();
                            let sent = w.start_send(frame).unwrap();
                            (!sent).then(|| at.elapsed())
                        })
                        .expect("the socket buffer never filled")
                })
                .collect();
            took.sort();
            assert!(took[5] < Duration::from_millis(1), "kind {kind}: {took:?}");
        }
    }

    #[test]
    fn closing_wakes_a_blocked_local_reader_and_hangs_up_on_the_peer() {
        for (a, mut b) in pairs() {
            let label = a.label().to_string();
            let closer = a.closer();
            let (_w, mut r) = a.split();
            let blocked = std::thread::spawn(move || r.recv().map(|_| ()));
            std::thread::sleep(Duration::from_millis(20));
            closer.close();
            let err = blocked.join().unwrap().unwrap_err();
            assert!(err.is_closed(), "{label}: {err:?}");
            assert!(b.recv().unwrap_err().is_closed(), "{label}: peer");
            closer.close(); // idempotent
        }
    }

    #[test]
    fn a_closer_does_not_keep_the_channel_open() {
        for (a, mut b) in pairs() {
            let closer = a.closer();
            drop(a);
            assert!(b.recv().unwrap_err().is_closed(), "{}", b.label());
            closer.close();
        }
    }

    #[test]
    fn dropping_the_writer_half_is_a_hangup() {
        for (a, mut b) in pairs() {
            let (w, _r) = a.split();
            drop(w);
            assert!(b.recv().unwrap_err().is_closed(), "{}", b.label());
        }
    }

    #[test]
    fn debug_shows_label() {
        let (a, _b) = pair();
        assert!(format!("{a:?}").contains("inmem-left"));
        assert_eq!(a.label(), "inmem-left");
    }
}
