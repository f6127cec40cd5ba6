//! Array bundling: fixed- and variable-length sequences of bundled values.
//!
//! The paper's `pt_array_bundler(number)` shows a bundler that needs an
//! extra parameter (the element count) because C arrays carry no length.
//! Rust vectors carry their length, so `Vec<T>` bundles as an XDR
//! variable-length array (count prefix, then elements) and `[T; N]` as an
//! XDR fixed-length array (no prefix). The "extra bundler parameter"
//! pattern survives in [`bundle_seq_with`], which threads a user-defined
//! element bundler through a sequence the way `drawpoints` threads
//! `number` through `pt_array_bundler`.

use crate::bundle::{Bundle, Bundler};
use crate::error::{XdrError, XdrResult};
use crate::stream::XdrStream;

/// `Vec<T>` travels as an XDR variable-length array: a `u32` element
/// count, then each element through its own bundler.
///
/// Byte payloads should prefer [`Opaque`], which uses the packed opaque
/// encoding instead of widening every byte to a 4-byte word.
impl<T: Bundle> Bundle for Vec<T> {
    fn bundle(stream: &mut XdrStream<'_>, slot: &mut Option<Self>) -> XdrResult<()> {
        if stream.is_decoding() {
            let mut count = 0u32;
            stream.x_u32(&mut count)?;
            let count = count as usize;
            stream.check_len(count)?;
            let out = slot.get_or_insert_with(Vec::new);
            out.clear();
            out.reserve(count.min(stream.max_len()));
            for _ in 0..count {
                let mut elem = None;
                T::bundle(stream, &mut elem)?;
                out.push(elem.ok_or(XdrError::MissingValue(std::any::type_name::<T>()))?);
            }
            Ok(())
        } else {
            // Move the vec out, thread each element through its bundler by
            // value (no Clone bound needed), then put it back.
            let v = slot.take().ok_or(XdrError::MissingValue("Vec"))?;
            stream.check_len(v.len())?;
            let mut count = u32::try_from(v.len()).map_err(|_| XdrError::LengthTooLarge {
                len: v.len(),
                max: u32::MAX as usize,
            })?;
            stream.x_u32(&mut count)?;
            let mut kept = Vec::with_capacity(v.len());
            for item in v {
                let mut tmp = Some(item);
                T::bundle(stream, &mut tmp)?;
                kept.push(tmp.ok_or(XdrError::MissingValue(std::any::type_name::<T>()))?);
            }
            *slot = Some(kept);
            Ok(())
        }
    }
}

/// `[T; N]` travels as an XDR fixed-length array: elements only, no count.
impl<T: Bundle, const N: usize> Bundle for [T; N] {
    fn bundle(stream: &mut XdrStream<'_>, slot: &mut Option<Self>) -> XdrResult<()> {
        if stream.is_decoding() {
            let mut elems = Vec::with_capacity(N);
            for _ in 0..N {
                let mut elem = None;
                T::bundle(stream, &mut elem)?;
                elems.push(elem.ok_or(XdrError::MissingValue(std::any::type_name::<T>()))?);
            }
            let arr: [T; N] =
                elems
                    .try_into()
                    .map_err(|v: Vec<T>| XdrError::FixedLengthMismatch {
                        expected: N,
                        actual: v.len(),
                    })?;
            *slot = Some(arr);
            Ok(())
        } else {
            let arr = slot.take().ok_or(XdrError::MissingValue("array"))?;
            let mut kept = Vec::with_capacity(N);
            for elem in arr {
                let mut tmp = Some(elem);
                T::bundle(stream, &mut tmp)?;
                kept.push(tmp.ok_or(XdrError::MissingValue(std::any::type_name::<T>()))?);
            }
            let arr: [T; N] =
                kept.try_into()
                    .map_err(|v: Vec<T>| XdrError::FixedLengthMismatch {
                        expected: N,
                        actual: v.len(),
                    })?;
            *slot = Some(arr);
            Ok(())
        }
    }
}

/// A packed byte payload using XDR's opaque encoding (length prefix plus
/// raw bytes), instead of the element-wise `Vec<u8>` form that widens each
/// byte to four. RPC argument buffers travel as `Opaque`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Opaque(Vec<u8>);

impl Opaque {
    /// Create an empty payload.
    #[must_use]
    pub fn new() -> Self {
        Opaque(Vec::new())
    }

    /// View the bytes.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// Number of payload bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the payload is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Extract the underlying byte vector.
    #[must_use]
    pub fn into_inner(self) -> Vec<u8> {
        self.0
    }
}

impl From<Vec<u8>> for Opaque {
    fn from(v: Vec<u8>) -> Self {
        Opaque(v)
    }
}

impl From<&[u8]> for Opaque {
    fn from(v: &[u8]) -> Self {
        Opaque(v.to_vec())
    }
}

impl AsRef<[u8]> for Opaque {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl Bundle for Opaque {
    fn bundle(stream: &mut XdrStream<'_>, slot: &mut Option<Self>) -> XdrResult<()> {
        if stream.is_decoding() {
            let v = slot.get_or_insert_with(Opaque::new);
            stream.x_opaque(&mut v.0)
        } else {
            let v = slot.as_mut().ok_or(XdrError::MissingValue("Opaque"))?;
            stream.x_opaque(&mut v.0)
        }
    }
}

/// Bundle a sequence through a caller-supplied element bundler — the
/// paper's "bundler with additional parameters" (`pt_array_bundler`).
///
/// Encoding walks `slot`'s elements through `elem`; decoding reads a count
/// and rebuilds the vector through `elem`.
///
/// # Errors
///
/// Propagates element-bundler and stream errors.
pub fn bundle_seq_with<T>(
    stream: &mut XdrStream<'_>,
    slot: &mut Option<Vec<T>>,
    elem: Bundler<T>,
) -> XdrResult<()> {
    if stream.is_decoding() {
        let mut count = 0u32;
        stream.x_u32(&mut count)?;
        let count = count as usize;
        stream.check_len(count)?;
        let out = slot.get_or_insert_with(Vec::new);
        out.clear();
        for _ in 0..count {
            let mut e = None;
            elem(stream, &mut e)?;
            out.push(e.ok_or(XdrError::MissingValue(std::any::type_name::<T>()))?);
        }
        Ok(())
    } else {
        let v = slot.take().ok_or(XdrError::MissingValue("Vec"))?;
        let mut count = u32::try_from(v.len()).map_err(|_| XdrError::LengthTooLarge {
            len: v.len(),
            max: u32::MAX as usize,
        })?;
        stream.x_u32(&mut count)?;
        let mut kept = Vec::with_capacity(v.len());
        for item in v {
            let mut e = Some(item);
            elem(stream, &mut e)?;
            kept.push(e.ok_or(XdrError::MissingValue(std::any::type_name::<T>()))?);
        }
        *slot = Some(kept);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decode, encode};

    #[test]
    fn vec_round_trips_elementwise() {
        let v = vec![1u32, 2, 3, 4];
        let bytes = encode(&v).unwrap();
        // count word + 4 element words.
        assert_eq!(bytes.len(), 20);
        assert_eq!(decode::<Vec<u32>>(&bytes).unwrap(), v);
    }

    #[test]
    fn empty_vec_is_one_word() {
        let v: Vec<u32> = Vec::new();
        let bytes = encode(&v).unwrap();
        assert_eq!(bytes.len(), 4);
        assert!(decode::<Vec<u32>>(&bytes).unwrap().is_empty());
    }

    #[test]
    fn vec_of_strings_round_trips() {
        let v = vec![
            "a".to_string(),
            "".to_string(),
            "long string here".to_string(),
        ];
        let bytes = encode(&v).unwrap();
        assert_eq!(decode::<Vec<String>>(&bytes).unwrap(), v);
    }

    #[test]
    fn nested_vecs_round_trip() {
        let v = vec![vec![1u16, 2], vec![], vec![3]];
        let bytes = encode(&v).unwrap();
        assert_eq!(decode::<Vec<Vec<u16>>>(&bytes).unwrap(), v);
    }

    #[test]
    fn fixed_array_has_no_count_prefix() {
        let a = [10u32, 20, 30];
        let bytes = encode(&a).unwrap();
        assert_eq!(bytes.len(), 12);
        assert_eq!(decode::<[u32; 3]>(&bytes).unwrap(), a);
    }

    #[test]
    fn opaque_packs_bytes() {
        let o = Opaque::from(vec![1u8, 2, 3, 4, 5]);
        let bytes = encode(&o).unwrap();
        // 4 length + 5 data + 3 pad.
        assert_eq!(bytes.len(), 12);
        assert_eq!(decode::<Opaque>(&bytes).unwrap(), o);
        assert_eq!(o.as_slice(), &[1, 2, 3, 4, 5]);
        assert_eq!(o.len(), 5);
        assert!(!o.is_empty());
    }

    #[test]
    fn vec_u8_elementwise_differs_from_opaque() {
        let raw = vec![1u8, 2, 3, 4, 5];
        let elementwise = encode(&raw).unwrap();
        let packed = encode(&Opaque::from(raw)).unwrap();
        // element-wise: 4 + 5*4 = 24; packed: 12.
        assert_eq!(elementwise.len(), 24);
        assert_eq!(packed.len(), 12);
    }

    #[test]
    fn seq_with_custom_bundler_round_trips() {
        fn negated(s: &mut XdrStream<'_>, slot: &mut Option<i32>) -> XdrResult<()> {
            if s.is_decoding() {
                let mut wire = 0i32;
                s.x_i32(&mut wire)?;
                *slot = Some(-wire);
            } else {
                let v = slot.ok_or(XdrError::MissingValue("i32"))?;
                let mut wire = -v;
                s.x_i32(&mut wire)?;
            }
            Ok(())
        }
        let mut e = XdrStream::encoder();
        let mut slot = Some(vec![1, -2, 3]);
        bundle_seq_with(&mut e, &mut slot, negated).unwrap();
        assert_eq!(slot, Some(vec![1, -2, 3]), "encode restores the value");
        let bytes = e.into_bytes();
        let mut d = XdrStream::decoder(&bytes);
        let mut out = None;
        bundle_seq_with(&mut d, &mut out, negated).unwrap();
        assert_eq!(out, Some(vec![1, -2, 3]));
    }

    #[test]
    fn corrupt_count_is_caught_by_cap() {
        let bytes = [0xffu8, 0xff, 0xff, 0xff];
        let mut d = XdrStream::decoder(&bytes);
        d.set_max_len(100);
        let mut out: Option<Vec<u32>> = None;
        assert!(Vec::<u32>::bundle(&mut d, &mut out).is_err());
    }
}
