//! The bidirectional XDR stream.
//!
//! The paper's bundlers are written against a single object,
//! `RPC_XDR_stream`, whose *direction* (`XDR_ENCODE` / `XDR_DECODE`)
//! determines whether each filter call writes a value out or reads it back.
//! [`XdrStream`] reproduces that interface: one set of methods, two
//! directions.

use crate::error::{XdrError, XdrResult};
use crate::{padded_len, XDR_UNIT};

/// Which way data flows through the stream.
///
/// The paper (Figure 3.2) tests `xget_op() == XDR_DECODE` to decide whether
/// to allocate storage; code written against this crate tests
/// [`XdrStream::direction`] the same way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Values flow from memory onto the stream.
    Encode,
    /// Values flow from the stream back into memory.
    Decode,
}

/// Default cap on variable-length items ([`XdrStream::max_len`]), to stop
/// a corrupt or malicious length prefix from forcing a huge allocation.
pub const DEFAULT_MAX_LEN: usize = 16 * 1024 * 1024;

/// A machine-independent data stream, either encoding or decoding.
///
/// An encoding stream owns a growable buffer; a decoding stream borrows a
/// byte slice and walks a cursor across it. All primitive accessors live in
/// [`primitives`](crate::XdrStream#impl-XdrStream), opaque/string accessors
/// in `opaque`, and array combinators in `array`.
#[derive(Debug)]
pub struct XdrStream<'a> {
    dir: Direction,
    buf: Vec<u8>,
    input: &'a [u8],
    pos: usize,
    max_len: usize,
}

impl<'a> XdrStream<'a> {
    /// Create a stream that encodes into a fresh buffer.
    #[must_use]
    pub fn encoder() -> XdrStream<'static> {
        XdrStream {
            dir: Direction::Encode,
            buf: Vec::new(),
            input: &[],
            pos: 0,
            max_len: DEFAULT_MAX_LEN,
        }
    }

    /// Create a stream that encodes into `buf`, reusing its capacity.
    ///
    /// Existing contents are preserved; encoded bytes are appended. This is
    /// what the batching RPC layer uses to accumulate several calls into
    /// one message (paper section 3.4).
    #[must_use]
    pub fn encoder_into(buf: Vec<u8>) -> XdrStream<'static> {
        XdrStream {
            dir: Direction::Encode,
            buf,
            input: &[],
            pos: 0,
            max_len: DEFAULT_MAX_LEN,
        }
    }

    /// Create a stream that decodes from `input`.
    #[must_use]
    #[inline]
    pub fn decoder(input: &'a [u8]) -> XdrStream<'a> {
        XdrStream {
            dir: Direction::Decode,
            buf: Vec::new(),
            input,
            pos: 0,
            max_len: DEFAULT_MAX_LEN,
        }
    }

    /// The direction data flows through this stream.
    #[must_use]
    #[inline]
    pub fn direction(&self) -> Direction {
        self.dir
    }

    /// True if this stream is decoding (the paper's
    /// `xget_op() == XDR_DECODE` test).
    #[must_use]
    #[inline]
    pub fn is_decoding(&self) -> bool {
        self.dir == Direction::Decode
    }

    /// Set the maximum accepted length for variable-length items.
    pub fn set_max_len(&mut self, max: usize) {
        self.max_len = max;
    }

    /// The maximum accepted length for variable-length items.
    #[must_use]
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// Bytes encoded so far (encoding streams only; zero while decoding).
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        self.buf.len()
    }

    /// Bytes remaining to decode (decoding streams only; zero while
    /// encoding).
    #[must_use]
    #[inline]
    pub fn remaining(&self) -> usize {
        self.input.len().saturating_sub(self.pos)
    }

    /// Current cursor position in the decode input.
    #[must_use]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Consume an encoding stream and return the bytes written.
    ///
    /// # Panics
    ///
    /// Panics if called on a decoding stream; that is a programming error,
    /// not a data error.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        assert_eq!(
            self.dir,
            Direction::Encode,
            "into_bytes called on a decoding XdrStream"
        );
        self.buf
    }

    /// Check that a decoding stream was fully consumed.
    ///
    /// # Errors
    ///
    /// Returns [`XdrError::Custom`] if bytes remain.
    #[inline]
    pub fn finish_decode(&self) -> XdrResult<()> {
        if self.remaining() != 0 {
            return Err(XdrError::Custom(format!(
                "{} trailing bytes after decode",
                self.remaining()
            )));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Raw byte-level plumbing used by the primitive/opaque modules.
    // ------------------------------------------------------------------

    #[inline]
    pub(crate) fn write_raw(&mut self, bytes: &[u8]) {
        debug_assert_eq!(self.dir, Direction::Encode);
        self.buf.extend_from_slice(bytes);
    }

    #[inline]
    pub(crate) fn read_raw(&mut self, n: usize) -> XdrResult<&'a [u8]> {
        debug_assert_eq!(self.dir, Direction::Decode);
        if self.remaining() < n {
            return Err(XdrError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let slice = &self.input[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Write zero padding so the stream stays aligned to [`XDR_UNIT`].
    pub(crate) fn write_padding(&mut self, data_len: usize) {
        let pad = padded_len(data_len) - data_len;
        const ZERO: [u8; XDR_UNIT] = [0; XDR_UNIT];
        self.write_raw(&ZERO[..pad]);
    }

    /// Read and verify zero padding after `data_len` bytes of payload.
    pub(crate) fn read_padding(&mut self, data_len: usize) -> XdrResult<()> {
        let pad = padded_len(data_len) - data_len;
        let bytes = self.read_raw(pad)?;
        if bytes.iter().any(|&b| b != 0) {
            return Err(XdrError::NonZeroPadding);
        }
        Ok(())
    }

    pub(crate) fn check_len(&self, len: usize) -> XdrResult<()> {
        if len > self.max_len {
            return Err(XdrError::LengthTooLarge {
                len,
                max: self.max_len,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoder_starts_empty_and_grows() {
        let mut s = XdrStream::encoder();
        assert_eq!(s.direction(), Direction::Encode);
        assert_eq!(s.encoded_len(), 0);
        s.write_raw(&[1, 2, 3, 4]);
        assert_eq!(s.encoded_len(), 4);
        assert_eq!(s.into_bytes(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn encoder_into_appends_to_existing_buffer() {
        let mut s = XdrStream::encoder_into(vec![9, 9]);
        s.write_raw(&[1, 2]);
        assert_eq!(s.into_bytes(), vec![9, 9, 1, 2]);
    }

    #[test]
    fn decoder_tracks_position_and_remaining() {
        let data = [1u8, 2, 3, 4, 5, 6, 7, 8];
        let mut s = XdrStream::decoder(&data);
        assert!(s.is_decoding());
        assert_eq!(s.remaining(), 8);
        let first = s.read_raw(4).unwrap();
        assert_eq!(first, &[1, 2, 3, 4]);
        assert_eq!(s.position(), 4);
        assert_eq!(s.remaining(), 4);
    }

    #[test]
    fn read_past_end_reports_eof() {
        let data = [1u8, 2];
        let mut s = XdrStream::decoder(&data);
        let err = s.read_raw(4).unwrap_err();
        assert_eq!(
            err,
            XdrError::UnexpectedEof {
                needed: 4,
                remaining: 2
            }
        );
    }

    #[test]
    fn finish_decode_rejects_trailing_bytes() {
        let data = [0u8; 4];
        let s = XdrStream::decoder(&data);
        assert!(s.finish_decode().is_err());
        let mut s = XdrStream::decoder(&data);
        s.read_raw(4).unwrap();
        assert!(s.finish_decode().is_ok());
    }

    #[test]
    fn padding_round_trips_and_rejects_garbage() {
        let mut e = XdrStream::encoder();
        e.write_raw(&[7]);
        e.write_padding(1);
        let bytes = e.into_bytes();
        assert_eq!(bytes.len(), 4);

        let mut d = XdrStream::decoder(&bytes);
        d.read_raw(1).unwrap();
        d.read_padding(1).unwrap();

        let bad = [7u8, 0, 1, 0];
        let mut d = XdrStream::decoder(&bad);
        d.read_raw(1).unwrap();
        assert_eq!(d.read_padding(1).unwrap_err(), XdrError::NonZeroPadding);
    }

    #[test]
    fn length_limit_is_enforced() {
        let mut s = XdrStream::encoder();
        s.set_max_len(10);
        assert_eq!(s.max_len(), 10);
        assert!(s.check_len(10).is_ok());
        assert_eq!(
            s.check_len(11).unwrap_err(),
            XdrError::LengthTooLarge { len: 11, max: 10 }
        );
    }

    #[test]
    #[should_panic(expected = "into_bytes called on a decoding XdrStream")]
    fn into_bytes_panics_on_decoder() {
        let data = [0u8; 4];
        let s = XdrStream::decoder(&data);
        let _ = s.into_bytes();
    }
}
