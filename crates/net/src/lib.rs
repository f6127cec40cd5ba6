//! Framed, reliable, in-order message transports for `clam-rs`.
//!
//! The CLAM paper assumes "reliable, in-order delivery of messages"
//! (section 3.4) and runs each client/server conversation over dedicated
//! byte streams — 4.3BSD Unix-domain or TCP connections (section 5). This
//! crate provides that substrate:
//!
//! * [`Channel`] — a duplex, message-framed connection. Frames are
//!   length-prefixed byte vectors over a stream socket, which guarantees
//!   order; every transport reads and writes through the same code.
//! * [`Endpoint`] — where to listen/connect: [`Endpoint::InProc`] (both
//!   ends in one process, the paper's "dynamically loaded into the
//!   server" placement, over a Unix-domain socket pair),
//!   [`Endpoint::Unix`], [`Endpoint::Tcp`], and
//!   [`Endpoint::Wan`] — TCP with each end in a latency-only
//!   [`FaultyChannel`] ([`FaultPlan::latency`]), which stands in for the
//!   paper's "different machines" rows of Figure 5.1 (we have one
//!   machine; the paper had two Microvaxes on a LAN).
//! * [`listen`] / [`connect`] — uniform setup across all transports.
//!
//! A channel splits into an owned reader and writer, so a waiter can block
//! in `recv` (or in [`MsgReader::recv_until`], which gives up at a
//! deadline) while tasks send; a [`Closer`] wakes that waiter on teardown.
//!
//! # Example
//!
//! ```rust
//! use clam_net::{connect, listen, Endpoint, Frame};
//!
//! # fn main() -> Result<(), clam_net::NetError> {
//! let listener = listen(&Endpoint::in_proc("example"))?;
//! let client = connect(&listener.endpoint())?;
//! let server = listener.accept()?;
//!
//! let (mut ctx, _crx) = client.split();
//! let (_stx, mut srx) = server.split();
//! ctx.send(Frame::from(b"hello"))?;
//! assert_eq!(srx.recv()?, b"hello");
//! # Ok(())
//! # }
//! ```

mod channel;
mod connector;
mod endpoint;
mod error;
mod fault;
mod frame;
mod inproc;
mod tcp;
mod unix;

pub use channel::{pair, Channel, Closer, MsgReader, MsgWriter};
pub use connector::{Connector, DirectConnector, FaultyConnector};
pub use endpoint::Endpoint;
pub use error::{NetError, NetResult};
pub use fault::{FaultHandle, FaultPlan, FaultyChannel, FrameFate};
pub use frame::{read_frame, Frame, FrameEncoder, FRAME_PREFIX_LEN, MAX_FRAME_LEN};

// Re-exported so transport users can build one pool and give it to
// readers and encoders without importing `clam-xdr` directly.
pub use clam_xdr::BufferPool;

use std::sync::Arc;

/// A listening socket for any transport.
pub trait Listener: Send + Sync {
    /// Accept the next incoming connection, blocking until one arrives.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Closed`] once the listener is shut down, or an
    /// I/O error from the underlying transport.
    fn accept(&self) -> NetResult<Channel>;

    /// The endpoint clients should [`connect`] to.
    fn endpoint(&self) -> Endpoint;
}

/// Open a listener on `endpoint`.
///
/// For [`Endpoint::Tcp`] with port 0 the returned listener's
/// [`Listener::endpoint`] carries the actual bound port.
///
/// # Errors
///
/// Returns transport-level errors (address in use, permission, a stale
/// Unix socket path, a duplicate in-process name).
pub fn listen(endpoint: &Endpoint) -> NetResult<Arc<dyn Listener>> {
    match endpoint {
        Endpoint::InProc(name) => inproc::listen(name),
        Endpoint::Unix(path) => unix::listen(path),
        Endpoint::Tcp(addr) => tcp::listen(addr, None),
        Endpoint::Wan { addr, latency } => tcp::listen(addr, Some(*latency)),
    }
}

/// Connect to a listener at `endpoint`.
///
/// # Errors
///
/// Returns transport-level errors (connection refused, unknown in-process
/// name).
pub fn connect(endpoint: &Endpoint) -> NetResult<Channel> {
    match endpoint {
        Endpoint::InProc(name) => inproc::connect(name),
        Endpoint::Unix(path) => unix::connect(path),
        Endpoint::Tcp(addr) => tcp::connect(addr, None),
        Endpoint::Wan { addr, latency } => tcp::connect(addr, Some(*latency)),
    }
}
