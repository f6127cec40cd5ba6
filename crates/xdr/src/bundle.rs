//! The [`Bundle`] trait: bidirectional, compiler-generated-style bundlers.
//!
//! The paper requires every bundler to obey three rules (section 3.3):
//!
//! 1. the first parameter and the return value have the same type as the
//!    value being bundled;
//! 2. the bundler is *bidirectional* — one routine both encodes and
//!    decodes, driven by the stream direction;
//! 3. the bundler is self-contained and touches no global state.
//!
//! [`Bundle::bundle`] is the Rust rendering of those rules: it takes
//! `&mut Option<Self>` (the paper's pointer-that-may-be-NIL — when decoding
//! into `None` the bundler "allocates", i.e. fills the option) and a stream
//! whose direction selects encode or decode. Trait impls have no access to
//! globals by construction.

use crate::error::{XdrError, XdrResult};
use crate::stream::XdrStream;

/// A user-defined bundler function, the analogue of the paper's
/// `@ pt_bundler()` annotation: same shape as a generated bundler, supplied
/// by the programmer for types whose default bundling would be wrong.
pub type Bundler<T> = fn(&mut XdrStream<'_>, &mut Option<T>) -> XdrResult<()>;

/// A type with a bidirectional bundler.
///
/// Most impls are produced by [`bundle_struct!`](crate::bundle_struct) (the
/// stand-in for the paper's modified C++ compiler) or are the primitive
/// impls below; hand-written impls are the paper's user-defined bundlers.
pub trait Bundle: Sized {
    /// Bundle or unbundle `slot` through `stream`.
    ///
    /// Encoding requires `slot` to be `Some`; decoding fills `slot`
    /// (allocating a default-shaped value first if it is `None`, per the
    /// paper's NIL-pointer rule).
    ///
    /// # Errors
    ///
    /// Returns [`XdrError::MissingValue`] when asked to encode `None`, or
    /// any stream-level error.
    fn bundle(stream: &mut XdrStream<'_>, slot: &mut Option<Self>) -> XdrResult<()>;

    /// Encode `self` onto `stream`. Convenience wrapper over
    /// [`bundle`](Bundle::bundle) for callers that hold a reference.
    ///
    /// # Errors
    ///
    /// Propagates any stream-level error.
    fn encode_onto(&self, stream: &mut XdrStream<'_>) -> XdrResult<()>
    where
        Self: Clone,
    {
        let mut slot = Some(self.clone());
        Self::bundle(stream, &mut slot)
    }

    /// Decode a value of this type from `stream`.
    ///
    /// # Errors
    ///
    /// Propagates any stream-level error.
    fn decode_from(stream: &mut XdrStream<'_>) -> XdrResult<Self> {
        let mut slot = None;
        Self::bundle(stream, &mut slot)?;
        slot.ok_or(XdrError::MissingValue(std::any::type_name::<Self>()))
    }
}

/// Encode a single value to a fresh byte vector.
///
/// # Errors
///
/// Propagates any bundling error.
pub fn encode<T: Bundle + Clone>(value: &T) -> XdrResult<Vec<u8>> {
    let mut stream = XdrStream::encoder();
    value.encode_onto(&mut stream)?;
    Ok(stream.into_bytes())
}

/// Encode a single value, appending to `buf` (used by the RPC batcher).
///
/// # Errors
///
/// Propagates any bundling error.
pub fn encode_into<T: Bundle + Clone>(value: &T, buf: Vec<u8>) -> XdrResult<Vec<u8>> {
    let mut stream = XdrStream::encoder_into(buf);
    value.encode_onto(&mut stream)?;
    Ok(stream.into_bytes())
}

/// Encode `value` onto the end of `buf`, taking the value itself rather
/// than a clone of it: how arguments and results are bundled straight
/// into a pooled frame. After an error `buf` keeps whatever was written.
///
/// # Errors
///
/// Propagates any bundling error.
pub fn bundle_onto<T: Bundle>(value: T, buf: &mut Vec<u8>) -> XdrResult<()> {
    let mut stream = XdrStream::encoder_into(std::mem::take(buf));
    let bundled = T::bundle(&mut stream, &mut Some(value));
    *buf = stream.into_bytes();
    bundled
}

/// Decode a single value from `bytes`, requiring the buffer to be fully
/// consumed.
///
/// # Errors
///
/// Propagates any bundling error; trailing bytes are an error.
pub fn decode<T: Bundle>(bytes: &[u8]) -> XdrResult<T> {
    let mut stream = XdrStream::decoder(bytes);
    let value = T::decode_from(&mut stream)?;
    stream.finish_decode()?;
    Ok(value)
}

macro_rules! bundle_via_filter {
    ($ty:ty, $filter:ident) => {
        impl Bundle for $ty {
            fn bundle(stream: &mut XdrStream<'_>, slot: &mut Option<Self>) -> XdrResult<()> {
                if stream.is_decoding() {
                    // NIL-pointer rule: allocate when decoding into None.
                    let v = slot.get_or_insert_with(Default::default);
                    stream.$filter(v)
                } else {
                    let v = slot
                        .as_mut()
                        .ok_or(XdrError::MissingValue(stringify!($ty)))?;
                    stream.$filter(v)
                }
            }
        }
    };
}

bundle_via_filter!(i8, x_i8);
bundle_via_filter!(u8, x_u8);
bundle_via_filter!(i16, x_i16);
bundle_via_filter!(u16, x_u16);
bundle_via_filter!(i32, x_i32);
bundle_via_filter!(u32, x_u32);
bundle_via_filter!(i64, x_i64);
bundle_via_filter!(u64, x_u64);
bundle_via_filter!(f32, x_f32);
bundle_via_filter!(f64, x_f64);
bundle_via_filter!(bool, x_bool);
bundle_via_filter!(usize, x_usize);
bundle_via_filter!(String, x_string);

impl Bundle for () {
    fn bundle(_stream: &mut XdrStream<'_>, slot: &mut Option<Self>) -> XdrResult<()> {
        *slot = Some(());
        Ok(())
    }
}

/// `Option<T>` travels as XDR's optional-data form: a boolean presence
/// flag, then the value if present.
impl<T: Bundle> Bundle for Option<T> {
    fn bundle(stream: &mut XdrStream<'_>, slot: &mut Option<Self>) -> XdrResult<()> {
        if stream.is_decoding() {
            let mut present = false;
            stream.x_bool(&mut present)?;
            if present {
                let mut inner = None;
                T::bundle(stream, &mut inner)?;
                *slot = Some(Some(
                    inner.ok_or(XdrError::MissingValue(std::any::type_name::<T>()))?,
                ));
            } else {
                *slot = Some(None);
            }
            Ok(())
        } else {
            let value = slot
                .as_mut()
                .ok_or(XdrError::MissingValue(std::any::type_name::<Self>()))?;
            let mut present = value.is_some();
            stream.x_bool(&mut present)?;
            if let Some(inner) = value.take() {
                let mut inner_slot = Some(inner);
                T::bundle(stream, &mut inner_slot)?;
                *value = inner_slot;
            }
            Ok(())
        }
    }
}

// Tuples bundle field by field. Encoding clones each field into the slot
// the field bundler expects; tuples on RPC paths are small, so the clone is
// cheap relative to the wire traffic.
macro_rules! bundle_tuple_clone {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Bundle + Clone),+> Bundle for ($($name,)+) {
            fn bundle(stream: &mut XdrStream<'_>, slot: &mut Option<Self>) -> XdrResult<()> {
                if stream.is_decoding() {
                    $(
                        #[allow(non_snake_case)]
                        let $name = {
                            let mut inner = None;
                            $name::bundle(stream, &mut inner)?;
                            inner.ok_or(XdrError::MissingValue(std::any::type_name::<$name>()))?
                        };
                    )+
                    *slot = Some(($($name,)+));
                } else {
                    let value = slot.as_ref().ok_or(XdrError::MissingValue("tuple"))?;
                    $(
                        {
                            let mut inner = Some(value.$idx.clone());
                            $name::bundle(stream, &mut inner)?;
                        }
                    )+
                }
                Ok(())
            }
        }
    };
}

bundle_tuple_clone!(A: 0);
bundle_tuple_clone!(A: 0, B: 1);
bundle_tuple_clone!(A: 0, B: 1, C: 2);
bundle_tuple_clone!(A: 0, B: 1, C: 2, D: 3);
bundle_tuple_clone!(A: 0, B: 1, C: 2, D: 3, E: 4);
bundle_tuple_clone!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trip_via_helpers() {
        let v = 0x1234_5678u32;
        let bytes = encode(&v).unwrap();
        assert_eq!(bytes, vec![0x12, 0x34, 0x56, 0x78]);
        let back: u32 = decode(&bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn bundle_onto_appends_what_encode_writes() {
        let value = (7u32, String::from("abc"));
        let mut buf = vec![0xEE];
        bundle_onto(value.clone(), &mut buf).unwrap();
        assert_eq!(buf[0], 0xEE, "what was there stays");
        assert_eq!(&buf[1..], encode(&value).unwrap().as_slice());
    }

    #[test]
    fn encode_none_is_an_error() {
        let mut stream = XdrStream::encoder();
        let mut slot: Option<u32> = None;
        assert!(matches!(
            u32::bundle(&mut stream, &mut slot).unwrap_err(),
            XdrError::MissingValue(_)
        ));
    }

    #[test]
    fn decode_into_none_allocates_like_nil_pointer_rule() {
        let bytes = encode(&7u32).unwrap();
        let mut d = XdrStream::decoder(&bytes);
        let mut slot: Option<u32> = None;
        u32::bundle(&mut d, &mut slot).unwrap();
        assert_eq!(slot, Some(7));
    }

    #[test]
    fn decode_into_some_overwrites_in_place() {
        let bytes = encode(&7u32).unwrap();
        let mut d = XdrStream::decoder(&bytes);
        let mut slot: Option<u32> = Some(99);
        u32::bundle(&mut d, &mut slot).unwrap();
        assert_eq!(slot, Some(7));
    }

    #[test]
    fn option_round_trips_both_arms() {
        let some: Option<String> = Some("abc".to_string());
        let none: Option<String> = None;
        let b1 = encode(&some).unwrap();
        let b2 = encode(&none).unwrap();
        assert_eq!(decode::<Option<String>>(&b1).unwrap(), some);
        assert_eq!(decode::<Option<String>>(&b2).unwrap(), none);
        // A None is exactly one 4-byte flag word.
        assert_eq!(b2.len(), 4);
    }

    #[test]
    fn tuples_round_trip() {
        let t = (1u32, "two".to_string(), true);
        let bytes = encode(&t).unwrap();
        let back: (u32, String, bool) = decode(&bytes).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn unit_takes_no_space() {
        let bytes = encode(&()).unwrap();
        assert!(bytes.is_empty());
        decode::<()>(&bytes).unwrap();
    }

    #[test]
    fn trailing_bytes_are_rejected_by_decode_helper() {
        let mut bytes = encode(&1u32).unwrap();
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        assert!(decode::<u32>(&bytes).is_err());
    }

    #[test]
    fn encode_into_appends() {
        let first = encode(&1u32).unwrap();
        let both = encode_into(&2u32, first).unwrap();
        assert_eq!(both.len(), 8);
        let mut d = XdrStream::decoder(&both);
        assert_eq!(u32::decode_from(&mut d).unwrap(), 1);
        assert_eq!(u32::decode_from(&mut d).unwrap(), 2);
    }

    #[test]
    fn user_defined_bundler_matches_generated_shape() {
        // The paper's pt_bundler as a Bundler<T> function pointer.
        fn double_bundler(s: &mut XdrStream<'_>, slot: &mut Option<u32>) -> XdrResult<()> {
            // A deliberately nonstandard wire form: value stored doubled.
            if s.is_decoding() {
                let mut wire = 0u32;
                s.x_u32(&mut wire)?;
                *slot = Some(wire / 2);
            } else {
                let v = slot.ok_or(XdrError::MissingValue("u32"))?;
                let mut wire = v * 2;
                s.x_u32(&mut wire)?;
            }
            Ok(())
        }
        let b: Bundler<u32> = double_bundler;
        let mut e = XdrStream::encoder();
        let mut slot = Some(21u32);
        b(&mut e, &mut slot).unwrap();
        let bytes = e.into_bytes();
        assert_eq!(bytes, vec![0, 0, 0, 42]);
        let mut d = XdrStream::decoder(&bytes);
        let mut out = None;
        b(&mut d, &mut out).unwrap();
        assert_eq!(out, Some(21));
    }
}
