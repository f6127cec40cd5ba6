//! XDR-style machine-independent data bundling for `clam-rs`.
//!
//! This crate is the marshalling substrate of the CLAM reproduction. It
//! implements the *bundler* model of the paper's section 3:
//!
//! * A [`XdrStream`] carries data in a machine-independent form (XDR: every
//!   primitive occupies a multiple of four bytes, big-endian).
//! * A *bundler* is **bidirectional**: the same code path encodes a value
//!   onto the stream or decodes it back, depending on the stream's
//!   [`Direction`]. This mirrors the SUN XDR philosophy the paper adopts
//!   (see its Figure 3.2) including the "allocate storage when decoding
//!   into a NIL pointer" rule, which here becomes "fill an `Option` that is
//!   `None`".
//! * The [`Bundle`] trait is the compiler-generated bundler of the paper;
//!   the [`bundle_struct!`] macro plays the role of the modified C++
//!   compiler, deriving a bidirectional bundler from a field list.
//! * A user-defined bundler (the paper's `@ pt_bundler()` annotation) is an
//!   ordinary function of type [`Bundler<T>`] and can be passed wherever a
//!   generated bundler would be used.
//!
//! # Example
//!
//! ```rust
//! use clam_xdr::{Bundle, XdrStream};
//!
//! clam_xdr::bundle_struct! {
//!     /// The `Point` of the paper's Figure 3.1.
//!     #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
//!     pub struct Point { pub x: i16, pub y: i16, pub z: i16 }
//! }
//!
//! # fn main() -> Result<(), clam_xdr::XdrError> {
//! let p = Point { x: 1, y: -2, z: 3 };
//! let bytes = clam_xdr::encode(&p)?;
//! let q: Point = clam_xdr::decode(&bytes)?;
//! assert_eq!(p, q);
//! # Ok(())
//! # }
//! ```

mod array;
mod bundle;
mod error;
mod opaque;
mod pool;
mod primitives;
mod stream;

#[macro_use]
mod macros;

pub use array::{bundle_seq_with, Opaque};
pub use bundle::{bundle_onto, decode, encode, encode_into, Bundle, Bundler};
pub use error::{XdrError, XdrResult};
pub use pool::{BufferPool, DEFAULT_MAX_BUFFERS, DEFAULT_TRIM_CAPACITY};
pub use stream::{Direction, XdrStream, DEFAULT_MAX_LEN};

/// Number of bytes in one XDR unit. Every encoded item occupies a multiple
/// of this many bytes.
pub const XDR_UNIT: usize = 4;

/// Pad `len` up to the next multiple of [`XDR_UNIT`].
#[inline]
#[must_use]
pub fn padded_len(len: usize) -> usize {
    (len + XDR_UNIT - 1) & !(XDR_UNIT - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padded_len_rounds_up_to_four() {
        assert_eq!(padded_len(0), 0);
        assert_eq!(padded_len(1), 4);
        assert_eq!(padded_len(4), 4);
        assert_eq!(padded_len(5), 8);
        assert_eq!(padded_len(8), 8);
    }
}
