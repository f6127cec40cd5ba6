//! Bidirectional filters for primitive types.
//!
//! These are the `xint`-style filters of the paper's Figure 3.2: each
//! method either writes its argument to the stream or overwrites it with a
//! decoded value, depending on the stream direction.

use crate::error::{XdrError, XdrResult};
use crate::stream::{Direction, XdrStream};

macro_rules! int_filter {
    ($(#[$doc:meta])* $name:ident, $ty:ty, $bytes:expr) => {
        $(#[$doc])*
        ///
        /// # Errors
        ///
        /// Returns [`XdrError::UnexpectedEof`] if a decoding stream runs
        /// out of bytes.
        #[inline]
        pub fn $name(&mut self, v: &mut $ty) -> XdrResult<()> {
            match self.direction() {
                Direction::Encode => {
                    self.write_raw(&v.to_be_bytes());
                    Ok(())
                }
                Direction::Decode => {
                    let raw = self.read_raw($bytes)?;
                    let mut arr = [0u8; $bytes];
                    arr.copy_from_slice(raw);
                    *v = <$ty>::from_be_bytes(arr);
                    Ok(())
                }
            }
        }
    };
}

impl<'a> XdrStream<'a> {
    int_filter!(
        /// Bundle a signed 32-bit integer (XDR `int`).
        x_i32, i32, 4
    );
    int_filter!(
        /// Bundle an unsigned 32-bit integer (XDR `unsigned int`).
        x_u32, u32, 4
    );
    int_filter!(
        /// Bundle a signed 64-bit integer (XDR `hyper`).
        x_i64, i64, 8
    );
    int_filter!(
        /// Bundle an unsigned 64-bit integer (XDR `unsigned hyper`).
        x_u64, u64, 8
    );

    /// Bundle a signed 16-bit integer. XDR has no short type; it travels
    /// widened to 32 bits, exactly as the paper's `Point { short x, y, z }`
    /// members do through `xint`.
    ///
    /// # Errors
    ///
    /// Returns [`XdrError::UnexpectedEof`] on a truncated stream, or
    /// [`XdrError::Custom`] if the decoded value does not fit in 16 bits.
    pub fn x_i16(&mut self, v: &mut i16) -> XdrResult<()> {
        let mut wide = i32::from(*v);
        self.x_i32(&mut wide)?;
        if self.is_decoding() {
            *v = i16::try_from(wide)
                .map_err(|_| XdrError::Custom(format!("value {wide} does not fit in i16")))?;
        }
        Ok(())
    }

    /// Bundle an unsigned 16-bit integer, widened to 32 bits on the wire.
    ///
    /// # Errors
    ///
    /// Returns [`XdrError::UnexpectedEof`] on a truncated stream, or
    /// [`XdrError::Custom`] if the decoded value does not fit in 16 bits.
    pub fn x_u16(&mut self, v: &mut u16) -> XdrResult<()> {
        let mut wide = u32::from(*v);
        self.x_u32(&mut wide)?;
        if self.is_decoding() {
            *v = u16::try_from(wide)
                .map_err(|_| XdrError::Custom(format!("value {wide} does not fit in u16")))?;
        }
        Ok(())
    }

    /// Bundle a single byte, widened to 32 bits on the wire.
    ///
    /// # Errors
    ///
    /// Returns [`XdrError::UnexpectedEof`] on a truncated stream, or
    /// [`XdrError::Custom`] if the decoded value does not fit in 8 bits.
    pub fn x_u8(&mut self, v: &mut u8) -> XdrResult<()> {
        let mut wide = u32::from(*v);
        self.x_u32(&mut wide)?;
        if self.is_decoding() {
            *v = u8::try_from(wide)
                .map_err(|_| XdrError::Custom(format!("value {wide} does not fit in u8")))?;
        }
        Ok(())
    }

    /// Bundle a signed byte, widened to 32 bits on the wire.
    ///
    /// # Errors
    ///
    /// Returns [`XdrError::UnexpectedEof`] on a truncated stream, or
    /// [`XdrError::Custom`] if the decoded value does not fit in 8 bits.
    pub fn x_i8(&mut self, v: &mut i8) -> XdrResult<()> {
        let mut wide = i32::from(*v);
        self.x_i32(&mut wide)?;
        if self.is_decoding() {
            *v = i8::try_from(wide)
                .map_err(|_| XdrError::Custom(format!("value {wide} does not fit in i8")))?;
        }
        Ok(())
    }

    /// Bundle a boolean (XDR `bool`: 0 or 1 on the wire).
    ///
    /// # Errors
    ///
    /// Returns [`XdrError::InvalidBool`] if the wire value is neither 0
    /// nor 1, or [`XdrError::UnexpectedEof`] on a truncated stream.
    pub fn x_bool(&mut self, v: &mut bool) -> XdrResult<()> {
        let mut wide: u32 = u32::from(*v);
        self.x_u32(&mut wide)?;
        if self.is_decoding() {
            *v = match wide {
                0 => false,
                1 => true,
                other => return Err(XdrError::InvalidBool(other)),
            };
        }
        Ok(())
    }

    /// Bundle an IEEE-754 single-precision float.
    ///
    /// # Errors
    ///
    /// Returns [`XdrError::UnexpectedEof`] on a truncated stream.
    pub fn x_f32(&mut self, v: &mut f32) -> XdrResult<()> {
        let mut bits = v.to_bits();
        self.x_u32(&mut bits)?;
        if self.is_decoding() {
            *v = f32::from_bits(bits);
        }
        Ok(())
    }

    /// Bundle an IEEE-754 double-precision float.
    ///
    /// # Errors
    ///
    /// Returns [`XdrError::UnexpectedEof`] on a truncated stream.
    pub fn x_f64(&mut self, v: &mut f64) -> XdrResult<()> {
        let mut bits = v.to_bits();
        self.x_u64(&mut bits)?;
        if self.is_decoding() {
            *v = f64::from_bits(bits);
        }
        Ok(())
    }

    /// Bundle a `usize` as an XDR unsigned hyper. Lengths and counts use
    /// this so that 32- and 64-bit peers agree on the wire format.
    ///
    /// # Errors
    ///
    /// Returns [`XdrError::UnexpectedEof`] on a truncated stream, or
    /// [`XdrError::Custom`] if the decoded value does not fit in `usize`.
    pub fn x_usize(&mut self, v: &mut usize) -> XdrResult<()> {
        let mut wide = *v as u64;
        self.x_u64(&mut wide)?;
        if self.is_decoding() {
            *v = usize::try_from(wide)
                .map_err(|_| XdrError::Custom(format!("value {wide} does not fit in usize")))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::XdrStream;

    /// Round-trip a value through encode + decode with the given filter.
    macro_rules! roundtrip {
        ($filter:ident, $val:expr, $ty:ty) => {{
            let mut v: $ty = $val;
            let mut e = XdrStream::encoder();
            e.$filter(&mut v).unwrap();
            let bytes = e.into_bytes();
            assert_eq!(bytes.len() % 4, 0, "xdr items are 4-byte aligned");
            let mut out: $ty = Default::default();
            let mut d = XdrStream::decoder(&bytes);
            d.$filter(&mut out).unwrap();
            d.finish_decode().unwrap();
            assert_eq!(out, $val);
        }};
    }

    #[test]
    fn integers_round_trip() {
        roundtrip!(x_i32, -123_456, i32);
        roundtrip!(x_i32, i32::MIN, i32);
        roundtrip!(x_u32, u32::MAX, u32);
        roundtrip!(x_i64, i64::MIN, i64);
        roundtrip!(x_u64, u64::MAX, u64);
        roundtrip!(x_i16, -1, i16);
        roundtrip!(x_u16, u16::MAX, u16);
        roundtrip!(x_u8, 255u8, u8);
        roundtrip!(x_i8, -128i8, i8);
        roundtrip!(x_usize, 1 << 40, usize);
    }

    #[test]
    fn floats_round_trip_including_specials() {
        roundtrip!(x_f32, 1.5f32, f32);
        roundtrip!(x_f64, -2.25e300f64, f64);
        // NaN needs a bit-level check rather than ==.
        let mut v = f64::NAN;
        let mut e = XdrStream::encoder();
        e.x_f64(&mut v).unwrap();
        let bytes = e.into_bytes();
        let mut out = 0.0f64;
        let mut d = XdrStream::decoder(&bytes);
        d.x_f64(&mut out).unwrap();
        assert!(out.is_nan());
    }

    #[test]
    fn bools_round_trip() {
        roundtrip!(x_bool, true, bool);
        roundtrip!(x_bool, false, bool);
    }

    #[test]
    fn bool_rejects_other_values() {
        let bytes = [0u8, 0, 0, 2];
        let mut d = XdrStream::decoder(&bytes);
        let mut v = false;
        assert!(d.x_bool(&mut v).is_err());
    }

    #[test]
    fn i32_is_big_endian_on_the_wire() {
        let mut v = 0x0102_0304i32;
        let mut e = XdrStream::encoder();
        e.x_i32(&mut v).unwrap();
        assert_eq!(e.into_bytes(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn short_is_widened_to_four_bytes() {
        let mut v = -2i16;
        let mut e = XdrStream::encoder();
        e.x_i16(&mut v).unwrap();
        let bytes = e.into_bytes();
        assert_eq!(bytes, vec![0xff, 0xff, 0xff, 0xfe]);
    }

    #[test]
    fn narrow_decode_rejects_out_of_range() {
        // 0x0001_0000 does not fit in u16.
        let bytes = [0u8, 1, 0, 0];
        let mut d = XdrStream::decoder(&bytes);
        let mut v = 0u16;
        assert!(d.x_u16(&mut v).is_err());
    }

    #[test]
    fn encode_leaves_value_untouched() {
        let mut v = 42i32;
        let mut e = XdrStream::encoder();
        e.x_i32(&mut v).unwrap();
        assert_eq!(v, 42);
    }
}
