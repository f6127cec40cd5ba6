//! Length-prefixed framing over byte streams, zero-copy edition.
//!
//! Every message travels as a 4-byte big-endian length followed by the
//! payload. The stream transports (Unix domain, TCP) guarantee order and
//! reliability, which is all the paper's RPC protocol requires of its
//! "underlying communication medium" (section 3.4).
//!
//! A [`Frame`] owns its complete *wire image* — prefix and payload in one
//! contiguous `Vec<u8>` — so the path from encoder to socket is a single
//! buffer: a [`FrameEncoder`] reserves the prefix up front, encodes calls
//! directly behind it, patches the length in [`FrameEncoder::finish`],
//! and the transport writes the whole image as it is.
//!
//! One buffer rule: a frame whose buffer came from a
//! [`BufferPool`] holds that pool, and the buffer goes back to it when the
//! frame — or the encoder still building it — drops, wherever that
//! happens: after a send, a failed send, a dispatch, or in a queue that
//! dies. No sender, reader or server recycles a frame by hand, so at
//! steady state no wire-path allocation happens.

use crate::error::{NetError, NetResult};
use clam_xdr::BufferPool;
use std::io::Read;

/// Maximum accepted frame length. Large enough for any batched call
/// message in this system, small enough to stop a corrupt length prefix
/// from allocating gigabytes.
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// Bytes of length prefix at the front of every wire image.
pub const FRAME_PREFIX_LEN: usize = 4;

/// One message frame, stored as its complete wire image.
///
/// The first [`FRAME_PREFIX_LEN`] bytes are the big-endian payload length;
/// the rest is the payload. `Frame` dereferences to the *payload*, so code
/// that treats a received frame as bytes (`MessageView::parse(&frame)`,
/// `clam_xdr::decode(&frame)`) works unchanged, while transports write
/// [`Frame::wire`] in a single call with no copy and no scratch buffer.
///
/// A frame built in a pooled buffer gives it back to its pool when it
/// drops; a clone, and a frame made by [`from_payload`](Frame::from_payload),
/// [`from_wire`](Frame::from_wire) or [`read_frame`], has a buffer of
/// its own, which goes to the allocator.
pub struct Frame {
    wire: Vec<u8>,
    /// The pool `wire` came from and goes back to; `None` if no pool
    /// handed it out.
    pool: Option<BufferPool>,
}

impl Frame {
    /// Build a frame by copying `payload` behind a freshly written prefix.
    ///
    /// One allocation, sized exactly. Prefer [`FrameEncoder`] (which
    /// allocates nothing at steady state) on hot paths; this is the
    /// reference the property tests check it against.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::FrameTooLarge`] for oversized payloads.
    pub fn from_payload(payload: &[u8]) -> NetResult<Frame> {
        check_payload_len(payload.len())?;
        let len = u32::try_from(payload.len()).expect("MAX_FRAME_LEN fits in u32");
        let mut wire = Vec::with_capacity(FRAME_PREFIX_LEN + payload.len());
        wire.extend_from_slice(&len.to_be_bytes());
        wire.extend_from_slice(payload);
        Ok(Frame { wire, pool: None })
    }

    /// Adopt a complete wire image (prefix already in place and
    /// consistent).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::FrameTooLarge`] if the image is shorter than a
    /// prefix, its prefix disagrees with its length, or the payload
    /// exceeds [`MAX_FRAME_LEN`].
    pub fn from_wire(wire: Vec<u8>) -> NetResult<Frame> {
        let payload_len =
            wire.len()
                .checked_sub(FRAME_PREFIX_LEN)
                .ok_or(NetError::FrameTooLarge {
                    len: wire.len(),
                    max: MAX_FRAME_LEN,
                })?;
        check_payload_len(payload_len)?;
        let prefix = u32::from_be_bytes(wire[..FRAME_PREFIX_LEN].try_into().expect("4 bytes"));
        if prefix as usize != payload_len {
            return Err(NetError::FrameTooLarge {
                len: prefix as usize,
                max: MAX_FRAME_LEN,
            });
        }
        Ok(Frame { wire, pool: None })
    }

    /// The payload bytes (what [`Deref`](std::ops::Deref) also yields).
    #[must_use]
    pub fn payload(&self) -> &[u8] {
        &self.wire[FRAME_PREFIX_LEN..]
    }

    /// The complete wire image: prefix followed by payload. Transports
    /// write exactly these bytes.
    #[must_use]
    pub fn wire(&self) -> &[u8] {
        &self.wire
    }

    /// Take the wire image out of the frame. A pooled buffer leaves its
    /// pool with it.
    #[must_use]
    pub fn into_wire(mut self) -> Vec<u8> {
        self.pool = None;
        std::mem::take(&mut self.wire)
    }
}

impl Drop for Frame {
    /// A pooled buffer goes back to its pool, once: a frame is dropped
    /// once, and a clone has no pool.
    fn drop(&mut self) {
        if let Some(pool) = &self.pool {
            pool.recycle(std::mem::take(&mut self.wire));
        }
    }
}

impl Clone for Frame {
    /// A copy in a buffer of its own, which no pool handed out.
    fn clone(&self) -> Frame {
        Frame {
            wire: self.wire.clone(),
            pool: None,
        }
    }
}

impl std::ops::Deref for Frame {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.payload()
    }
}

impl std::fmt::Debug for Frame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Frame")
            .field("payload_len", &self.payload().len())
            .field("payload", &self.payload())
            .finish()
    }
}

impl PartialEq for Frame {
    fn eq(&self, other: &Frame) -> bool {
        self.payload() == other.payload()
    }
}
impl Eq for Frame {}

impl PartialEq<[u8]> for Frame {
    fn eq(&self, other: &[u8]) -> bool {
        self.payload() == other
    }
}
impl PartialEq<&[u8]> for Frame {
    fn eq(&self, other: &&[u8]) -> bool {
        self.payload() == *other
    }
}
impl<const N: usize> PartialEq<[u8; N]> for Frame {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.payload() == other
    }
}
impl<const N: usize> PartialEq<&[u8; N]> for Frame {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.payload() == *other
    }
}
impl PartialEq<Vec<u8>> for Frame {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.payload() == other.as_slice()
    }
}
impl PartialEq<Frame> for Vec<u8> {
    fn eq(&self, other: &Frame) -> bool {
        self.as_slice() == other.payload()
    }
}

/// Payload-copying conversions for handshakes and tests. Hot paths build
/// frames with [`FrameEncoder`] instead.
///
/// # Panics
///
/// Panic on payloads over [`MAX_FRAME_LEN`]; use [`Frame::from_payload`]
/// to handle that case as an error.
impl From<&[u8]> for Frame {
    fn from(payload: &[u8]) -> Frame {
        Frame::from_payload(payload).expect("payload exceeds MAX_FRAME_LEN")
    }
}
impl<const N: usize> From<&[u8; N]> for Frame {
    fn from(payload: &[u8; N]) -> Frame {
        Frame::from(payload.as_slice())
    }
}
impl From<&Vec<u8>> for Frame {
    fn from(payload: &Vec<u8>) -> Frame {
        Frame::from(payload.as_slice())
    }
}
impl From<Vec<u8>> for Frame {
    fn from(payload: Vec<u8>) -> Frame {
        Frame::from(payload.as_slice())
    }
}

fn check_payload_len(len: usize) -> NetResult<()> {
    if len > MAX_FRAME_LEN {
        return Err(NetError::FrameTooLarge {
            len,
            max: MAX_FRAME_LEN,
        });
    }
    Ok(())
}

/// Builds a [`Frame`] in place: the length prefix is reserved up front and
/// patched at the end, so the payload is encoded directly into its final
/// wire position — no scratch buffer, no re-framing copy, and (with a
/// pooled buffer) no allocation.
///
/// An encoder started from a [`BufferPool`] holds the pool, and so does
/// the frame it finishes: the buffer goes back when whichever holds it
/// last drops, an encoder dropped unfinished or a frame that fails
/// to finish included.
#[derive(Debug)]
pub struct FrameEncoder {
    /// The frame being built; its prefix is patched by `finish`.
    frame: Frame,
}

impl FrameEncoder {
    fn begin(mut wire: Vec<u8>, pool: Option<BufferPool>) -> FrameEncoder {
        wire.clear();
        wire.extend_from_slice(&[0u8; FRAME_PREFIX_LEN]);
        FrameEncoder {
            frame: Frame { wire, pool },
        }
    }

    /// Append payload bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        self.frame.wire.extend_from_slice(bytes);
    }

    /// The wire image so far, reserved prefix included, for code that
    /// writes the payload in place. Write behind the prefix only:
    /// [`finish`](FrameEncoder::finish) patches it.
    pub fn wire_mut(&mut self) -> &mut Vec<u8> {
        &mut self.frame.wire
    }

    /// Payload bytes written so far.
    #[must_use]
    pub fn payload_len(&self) -> usize {
        self.frame.wire.len() - FRAME_PREFIX_LEN
    }

    /// Patch the length prefix and produce the finished frame.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::FrameTooLarge`] if the payload outgrew
    /// [`MAX_FRAME_LEN`].
    pub fn finish(mut self) -> NetResult<Frame> {
        let payload_len = self.payload_len();
        check_payload_len(payload_len)?;
        let len = u32::try_from(payload_len).expect("MAX_FRAME_LEN fits in u32");
        self.frame.wire[..FRAME_PREFIX_LEN].copy_from_slice(&len.to_be_bytes());
        Ok(self.frame)
    }
}

/// Start a frame in `buf`, which leaves with the frame: no pool takes it
/// back.
impl From<Vec<u8>> for FrameEncoder {
    fn from(buf: Vec<u8>) -> FrameEncoder {
        FrameEncoder::begin(buf, None)
    }
}

/// Start a frame in a buffer from `pool`, which goes back to `pool` when
/// the encoder or its frame drops.
impl From<&BufferPool> for FrameEncoder {
    fn from(pool: &BufferPool) -> FrameEncoder {
        FrameEncoder::begin(pool.acquire(), Some(pool.clone()))
    }
}

/// Read one frame from a blocking byte stream `r` into a fresh buffer.
/// Channels read with a reader of their own that survives timeouts
/// mid-frame; this is for parsing a raw stream.
///
/// # Errors
///
/// Returns [`NetError::Closed`] on a clean hangup at a frame boundary,
/// [`NetError::FrameTooLarge`] for corrupt length prefixes, or the
/// underlying I/O error.
pub fn read_frame<R: Read>(r: &mut R) -> NetResult<Frame> {
    let mut prefix = [0u8; FRAME_PREFIX_LEN];
    r.read_exact(&mut prefix)?;
    let len = u32::from_be_bytes(prefix) as usize;
    check_payload_len(len)?;
    let mut wire = vec![0; FRAME_PREFIX_LEN + len];
    wire[..FRAME_PREFIX_LEN].copy_from_slice(&prefix);
    r.read_exact(&mut wire[FRAME_PREFIX_LEN..])?;
    Ok(Frame { wire, pool: None })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip_in_order() -> NetResult<()> {
        let mut buf = Vec::new();
        for payload in [&b"first"[..], b"", &[0xab; 1000]] {
            buf.extend(Frame::from_payload(payload)?.into_wire());
        }

        let mut cur = Cursor::new(buf);
        assert_eq!(read_frame(&mut cur)?, b"first");
        assert_eq!(read_frame(&mut cur)?, b"");
        assert_eq!(read_frame(&mut cur)?, vec![0xab; 1000]);
        assert!(read_frame(&mut cur).unwrap_err().is_closed());
        Ok(())
    }

    #[test]
    fn eof_at_frame_boundary_is_closed() {
        let mut cur = Cursor::new(Vec::new());
        assert!(read_frame(&mut cur).unwrap_err().is_closed());
    }

    #[test]
    fn truncated_payload_is_closed() -> NetResult<()> {
        let mut buf = Frame::from_payload(&[0x5a; 100])?.into_wire();
        buf.truncate(FRAME_PREFIX_LEN + 5);
        let mut cur = Cursor::new(buf);
        assert!(read_frame(&mut cur).unwrap_err().is_closed());
        Ok(())
    }

    #[test]
    fn corrupt_length_prefix_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut cur = Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cur).unwrap_err(),
            NetError::FrameTooLarge { .. }
        ));
    }

    #[test]
    fn oversized_write_is_rejected_without_touching_the_stream() {
        // An oversized payload never becomes a frame, so no writer sees it.
        let huge = vec![0u8; MAX_FRAME_LEN + 1];
        assert!(matches!(
            Frame::from_payload(&huge).unwrap_err(),
            NetError::FrameTooLarge { .. }
        ));
        let mut enc = FrameEncoder::from(Vec::new());
        enc.write(&huge);
        assert!(matches!(
            enc.finish().unwrap_err(),
            NetError::FrameTooLarge { .. }
        ));
    }

    #[test]
    fn frame_encoder_matches_encode_frame() {
        let payload = b"some payload bytes";
        let mut enc = FrameEncoder::from(Vec::new());
        enc.write(&payload[..5]);
        enc.write(&payload[5..]);
        let a = enc.finish().unwrap();
        let b = Frame::from_payload(payload).unwrap();
        assert_eq!(a.wire(), b.wire(), "wire images must be identical");
    }

    #[test]
    fn frame_encoder_reuses_buffer_capacity() {
        let pool = BufferPool::default();
        let mut enc = FrameEncoder::from(&pool);
        enc.write(&[1u8; 1000]);
        drop(enc.finish().unwrap());
        // Starting the next frame from the pool keeps the capacity.
        let mut enc = FrameEncoder::from(&pool);
        assert!(enc.wire_mut().capacity() >= FRAME_PREFIX_LEN + 1000);
    }

    #[test]
    fn frame_encoder_keeps_bytes_written_in_place() {
        let mut enc = FrameEncoder::from(Vec::new());
        enc.wire_mut().extend_from_slice(b"externally encoded");
        let frame = enc.finish().unwrap();
        assert_eq!(frame, b"externally encoded");
    }

    #[test]
    fn a_pooled_buffer_goes_back_once_however_its_frame_ends() {
        let pool = BufferPool::default();
        let goes_home = |ends: &dyn Fn(FrameEncoder)| {
            let before = pool.metrics().counter("xdr.pool.recycled");
            ends(FrameEncoder::from(&pool));
            pool.metrics().counter("xdr.pool.recycled") - before
        };
        assert_eq!(goes_home(&|enc| drop(enc.finish().unwrap())), 1);
        assert_eq!(goes_home(&|enc| drop(enc)), 1, "an unfinished encoder");
        let oversized = |mut enc: FrameEncoder| {
            enc.write(&vec![0u8; MAX_FRAME_LEN + 1]);
            assert!(enc.finish().is_err());
        };
        assert_eq!(goes_home(&oversized), 1, "a frame that fails to finish");
        let cloned = |enc: FrameEncoder| {
            let frame = enc.finish().unwrap();
            drop(frame.clone());
            drop(frame);
        };
        assert_eq!(goes_home(&cloned), 1, "a clone has no pool");
        let taken = |enc: FrameEncoder| drop(enc.finish().unwrap().into_wire());
        assert_eq!(goes_home(&taken), 0, "a taken wire image leaves the pool");
    }

    #[test]
    fn frame_derefs_to_payload_and_exposes_wire() {
        let frame = Frame::from_payload(b"abc").unwrap();
        assert_eq!(&*frame, b"abc");
        assert_eq!(frame.wire(), &[0, 0, 0, 3, b'a', b'b', b'c']);
        assert_eq!(Frame::from_wire(frame.clone().into_wire()).unwrap(), frame);
    }

    #[test]
    fn from_wire_rejects_inconsistent_prefix() {
        assert!(Frame::from_wire(vec![0, 0]).is_err());
        assert!(Frame::from_wire(vec![0, 0, 0, 9, 1, 2]).is_err());
    }
}
