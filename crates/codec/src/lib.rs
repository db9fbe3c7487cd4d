//! # duc-codec — deterministic binary serialization
//!
//! The blockchain's transaction payloads, contract call ABI, state storage
//! and the oracle message envelopes all need one canonical byte encoding:
//! signatures and hashes are computed over these bytes, so the encoding must
//! be *deterministic* (one value, one byte string). No serialization-format
//! crate is available offline, so this crate defines the format:
//!
//! * fixed-width little-endian integers,
//! * `u32` length prefixes for strings, byte strings and sequences,
//! * a single tag byte for `Option` and enum discriminants.
//!
//! The [`impl_codec_struct!`] macro derives [`Encode`]/[`Decode`] for named
//! structs; enums are implemented manually with explicit tags.
//!
//! ## Example
//! ```
//! use duc_codec::{decode_from_slice, encode_to_vec};
//!
//! let value = (42u64, "hello".to_string(), vec![1u32, 2, 3]);
//! let bytes = encode_to_vec(&value);
//! let back: (u64, String, Vec<u32>) = decode_from_slice(&bytes)?;
//! assert_eq!(back, value);
//! # Ok::<(), duc_codec::DecodeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

use std::fmt;

use duc_crypto::{Digest, PublicKey, Signature};

/// Serializes a value into a fresh byte vector.
pub fn encode_to_vec<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    let mut buf = Vec::new();
    value.encode(&mut buf);
    buf
}

/// Deserializes a value from a byte slice, requiring full consumption.
///
/// # Errors
/// Returns [`DecodeError::TrailingBytes`] if input remains after decoding,
/// or any error produced while decoding the value itself.
pub fn decode_from_slice<T: Decode>(bytes: &[u8]) -> Result<T, DecodeError> {
    let mut r = Reader::new(bytes);
    let value = T::decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(DecodeError::TrailingBytes {
            remaining: r.remaining(),
        });
    }
    Ok(value)
}

/// A value with a canonical binary encoding.
pub trait Encode {
    /// Appends the canonical encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Appends the encodings of `elems`, one after another: the body of a
    /// sequence after its length prefix. `u8` writes the run in one copy.
    #[doc(hidden)]
    fn encode_elems(elems: &[Self], buf: &mut Vec<u8>)
    where
        Self: Sized,
    {
        for item in elems {
            item.encode(buf);
        }
    }
}

/// A value decodable from its canonical binary encoding.
pub trait Decode: Sized {
    /// Reads one value from the reader.
    ///
    /// # Errors
    /// Implementations return a [`DecodeError`] on malformed input.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;

    /// Reads `len` values, one after another: the body of a sequence whose
    /// length prefix was already checked against the remaining input. `u8`
    /// reads the run in one copy.
    ///
    /// # Errors
    /// The first element's error.
    #[doc(hidden)]
    fn decode_elems(r: &mut Reader<'_>, len: usize) -> Result<Vec<Self>, DecodeError> {
        let mut out = Vec::with_capacity(len.min(4096));
        for _ in 0..len {
            out.push(Self::decode(r)?);
        }
        Ok(out)
    }
}

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before the value was complete.
    UnexpectedEof {
        /// Bytes needed beyond the available input.
        needed: usize,
    },
    /// Input remained after a complete value (strict decoding).
    TrailingBytes {
        /// Number of unconsumed bytes.
        remaining: usize,
    },
    /// An enum/option tag byte was out of range.
    InvalidTag {
        /// The offending tag.
        tag: u8,
        /// The type being decoded.
        type_name: &'static str,
    },
    /// A string was not valid UTF-8.
    InvalidUtf8,
    /// A declared length exceeded the remaining input (corruption guard).
    LengthOverflow {
        /// The declared length.
        declared: usize,
        /// Bytes actually remaining.
        available: usize,
    },
    /// A domain-specific invariant failed during decoding.
    Invalid(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof { needed } => {
                write!(f, "unexpected end of input, {needed} more bytes needed")
            }
            DecodeError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after value")
            }
            DecodeError::InvalidTag { tag, type_name } => {
                write!(f, "invalid tag {tag} for {type_name}")
            }
            DecodeError::InvalidUtf8 => f.write_str("invalid utf-8 in string"),
            DecodeError::LengthOverflow {
                declared,
                available,
            } => {
                write!(
                    f,
                    "declared length {declared} exceeds available {available}"
                )
            }
            DecodeError::Invalid(what) => write!(f, "invalid value: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A cursor over input bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Reads exactly `n` bytes.
    ///
    /// # Errors
    /// [`DecodeError::UnexpectedEof`] if fewer than `n` bytes remain.
    pub(crate) fn read_bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEof {
                needed: n - self.remaining(),
            });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn read_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.read_bytes(1)?[0])
    }

    /// Reads a `u32` length prefix, validating it against remaining input.
    pub(crate) fn read_len(&mut self) -> Result<usize, DecodeError> {
        let len = u32::decode(self)? as usize;
        if len > self.remaining() {
            return Err(DecodeError::LengthOverflow {
                declared: len,
                available: self.remaining(),
            });
        }
        Ok(len)
    }
}

macro_rules! impl_codec_int {
    ($($t:ty),*) => {
        $(
            impl Encode for $t {
                fn encode(&self, buf: &mut Vec<u8>) {
                    buf.extend_from_slice(&self.to_le_bytes());
                }
            }
            impl Decode for $t {
                fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                    let n = std::mem::size_of::<$t>();
                    let bytes = r.read_bytes(n)?;
                    Ok(<$t>::from_le_bytes(bytes.try_into().expect("exact size")))
                }
            }
        )*
    };
}

impl_codec_int!(u16, u32, u64, u128, i8, i16, i32, i64, i128);

impl Encode for u8 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self);
    }

    fn encode_elems(elems: &[u8], buf: &mut Vec<u8>) {
        buf.extend_from_slice(elems);
    }
}

impl Decode for u8 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.read_u8()
    }

    fn decode_elems(r: &mut Reader<'_>, len: usize) -> Result<Vec<u8>, DecodeError> {
        Ok(r.read_bytes(len)?.to_vec())
    }
}

impl Encode for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self as u8);
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::InvalidTag {
                tag,
                type_name: "bool",
            }),
        }
    }
}

impl Encode for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        buf.extend_from_slice(self.as_bytes());
    }
}

impl Encode for str {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        buf.extend_from_slice(self.as_bytes());
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = r.read_len()?;
        let bytes = r.read_bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::InvalidUtf8)
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.as_slice().encode(buf);
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        T::encode_elems(self, buf);
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = u32::decode(r)? as usize;
        // Guard: each element takes at least one byte, so a length larger
        // than the remaining input is corrupt.
        if len > r.remaining() && std::mem::size_of::<T>() > 0 {
            return Err(DecodeError::LengthOverflow {
                declared: len,
                available: r.remaining(),
            });
        }
        T::decode_elems(r, len)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.read_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(DecodeError::InvalidTag {
                tag,
                type_name: "Option",
            }),
        }
    }
}

impl<const N: usize> Encode for [u8; N] {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self);
    }
}

impl<const N: usize> Decode for [u8; N] {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let bytes = r.read_bytes(N)?;
        Ok(bytes.try_into().expect("exact size"))
    }
}

macro_rules! impl_codec_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Encode),+> Encode for ($($name,)+) {
            fn encode(&self, buf: &mut Vec<u8>) {
                $(self.$idx.encode(buf);)+
            }
        }
        impl<$($name: Decode),+> Decode for ($($name,)+) {
            fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                Ok(($($name::decode(r)?,)+))
            }
        }
    };
}

impl_codec_tuple!(A: 0);
impl_codec_tuple!(A: 0, B: 1);
impl_codec_tuple!(A: 0, B: 1, C: 2);
impl_codec_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_codec_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_codec_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

impl Encode for () {
    fn encode(&self, _buf: &mut Vec<u8>) {}
}

impl Decode for () {
    fn decode(_r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(())
    }
}

// --- impls for duc-crypto types (canonical wire forms) ---

impl Encode for Digest {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self.as_bytes());
    }
}

impl Decode for Digest {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let bytes: [u8; 32] = <[u8; 32]>::decode(r)?;
        Ok(Digest(bytes))
    }
}

impl Encode for PublicKey {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
}

impl Decode for PublicKey {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(PublicKey(u64::decode(r)?))
    }
}

impl Encode for Signature {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.e.encode(buf);
        self.s.encode(buf);
    }
}

impl Decode for Signature {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Signature {
            e: u64::decode(r)?,
            s: u64::decode(r)?,
        })
    }
}

/// Implements [`Encode`] and [`Decode`] for a named struct by encoding its
/// fields in declaration order.
///
/// ```
/// use duc_codec::{decode_from_slice, encode_to_vec, impl_codec_struct};
///
/// #[derive(Debug, PartialEq)]
/// struct Point { x: u32, y: u32 }
/// impl_codec_struct!(Point { x, y });
///
/// let p = Point { x: 1, y: 2 };
/// let back: Point = decode_from_slice(&encode_to_vec(&p))?;
/// assert_eq!(back, p);
/// # Ok::<(), duc_codec::DecodeError>(())
/// ```
#[macro_export]
macro_rules! impl_codec_struct {
    ($name:ident { $($field:ident),* $(,)? }) => {
        impl $crate::Encode for $name {
            fn encode(&self, buf: &mut Vec<u8>) {
                $($crate::Encode::encode(&self.$field, buf);)*
            }
        }
        impl $crate::Decode for $name {
            fn decode(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::DecodeError> {
                Ok($name {
                    $($field: $crate::Decode::decode(r)?,)*
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = encode_to_vec(&value);
        let back: T = decode_from_slice(&bytes).expect("decode");
        assert_eq!(back, value);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(u8::MAX);
        roundtrip(u16::MAX);
        roundtrip(123_456_789u32);
        roundtrip(u64::MAX);
        roundtrip(u128::MAX);
        roundtrip(-42i64);
        roundtrip(i128::MIN);
        roundtrip(true);
        roundtrip(false);
    }

    #[test]
    fn strings_and_vectors_roundtrip() {
        roundtrip(String::new());
        roundtrip("héllo wörld ∀".to_string());
        roundtrip(Vec::<u64>::new());
        roundtrip(vec![1u8, 2, 3]);
        roundtrip(vec!["a".to_string(), String::new(), "ccc".to_string()]);
        roundtrip(vec![vec![1u32], vec![], vec![2, 3]]);
    }

    #[test]
    fn options_and_tuples_roundtrip() {
        roundtrip(Option::<u32>::None);
        roundtrip(Some(7u32));
        roundtrip(Some("s".to_string()));
        roundtrip((1u8, 2u16, 3u32));
        roundtrip(((1u8, "x".to_string()), Some(false)));
        roundtrip(());
    }

    #[test]
    fn fixed_arrays_roundtrip() {
        roundtrip([7u8; 32]);
        roundtrip([0u8; 12]);
    }

    #[test]
    fn crypto_types_roundtrip() {
        use duc_crypto::{sha256, KeyPair};
        roundtrip(sha256(b"digest"));
        let kp = KeyPair::from_seed(b"codec");
        roundtrip(kp.public());
        roundtrip(kp.sign(b"message"));
    }

    #[test]
    fn struct_macro_roundtrips() {
        #[derive(Debug, PartialEq)]
        struct Header {
            height: u64,
            parent: Digest,
            note: Option<String>,
            txs: Vec<u32>,
        }
        impl_codec_struct!(Header {
            height,
            parent,
            note,
            txs
        });
        let h = Header {
            height: 9,
            parent: duc_crypto::sha256(b"p"),
            note: Some("n".to_string()),
            txs: vec![1, 2, 3],
        };
        roundtrip(h);
    }

    #[test]
    fn eof_is_detected() {
        let bytes = encode_to_vec(&12345u64);
        let err = decode_from_slice::<u64>(&bytes[..4]).unwrap_err();
        assert!(matches!(err, DecodeError::UnexpectedEof { .. }));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_to_vec(&1u8);
        bytes.push(0xFF);
        let err = decode_from_slice::<u8>(&bytes).unwrap_err();
        assert_eq!(err, DecodeError::TrailingBytes { remaining: 1 });
    }

    #[test]
    fn invalid_bool_tag_rejected() {
        let err = decode_from_slice::<bool>(&[2]).unwrap_err();
        assert!(matches!(err, DecodeError::InvalidTag { tag: 2, .. }));
    }

    #[test]
    fn invalid_option_tag_rejected() {
        let err = decode_from_slice::<Option<u8>>(&[9]).unwrap_err();
        assert!(matches!(err, DecodeError::InvalidTag { tag: 9, .. }));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut bytes = Vec::new();
        2u32.encode(&mut bytes);
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(
            decode_from_slice::<String>(&bytes).unwrap_err(),
            DecodeError::InvalidUtf8
        );
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        // Claims 4 billion elements with 2 bytes of payload.
        let mut bytes = Vec::new();
        u32::MAX.encode(&mut bytes);
        bytes.extend_from_slice(&[1, 2]);
        let err = decode_from_slice::<Vec<u8>>(&bytes).unwrap_err();
        assert!(matches!(err, DecodeError::LengthOverflow { .. }));
        let err = decode_from_slice::<String>(&bytes).unwrap_err();
        assert!(matches!(err, DecodeError::LengthOverflow { .. }));
    }

    #[test]
    fn encoding_is_deterministic() {
        let v = (vec![1u64, 2, 3], Some("abc".to_string()));
        assert_eq!(encode_to_vec(&v), encode_to_vec(&v));
    }

    #[test]
    fn error_display_is_informative() {
        let e = DecodeError::LengthOverflow {
            declared: 10,
            available: 2,
        };
        assert!(e.to_string().contains("10"));
        assert!(DecodeError::InvalidUtf8.to_string().contains("utf-8"));
    }
}
