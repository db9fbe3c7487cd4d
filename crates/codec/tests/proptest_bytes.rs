//! Byte strings take the codec's bulk path (one copy for the whole run of
//! bytes). These properties hold it to a per-element reference written
//! here — a `u32` count, then each byte on its own — on the bytes it
//! writes, on the values it reads back, and on the exact [`DecodeError`]
//! for truncated input and for hostile length prefixes (`u32::MAX`, and one
//! more than the input that remains).

use duc_codec::{decode_from_slice, encode_to_vec, Decode, DecodeError, Reader};
use proptest::prelude::*;

// --- the per-element reference --------------------------------------------

fn ref_encode_bytes(bytes: &[u8], buf: &mut Vec<u8>) {
    buf.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    for b in bytes {
        buf.push(*b);
    }
}

/// A `u32` count checked against the remaining input: every element takes
/// at least one byte, so a larger count is corrupt.
fn ref_count(r: &mut Reader<'_>) -> Result<usize, DecodeError> {
    let len = u32::decode(r)? as usize;
    if len > r.remaining() {
        return Err(DecodeError::LengthOverflow {
            declared: len,
            available: r.remaining(),
        });
    }
    Ok(len)
}

fn ref_decode_bytes(r: &mut Reader<'_>) -> Result<Vec<u8>, DecodeError> {
    let len = ref_count(r)?;
    let mut out = Vec::new();
    for _ in 0..len {
        out.push(r.read_u8()?);
    }
    Ok(out)
}

fn ref_encode_nested(v: &[Vec<u8>], buf: &mut Vec<u8>) {
    buf.extend_from_slice(&(v.len() as u32).to_le_bytes());
    for bytes in v {
        ref_encode_bytes(bytes, buf);
    }
}

fn ref_decode_nested(r: &mut Reader<'_>) -> Result<Vec<Vec<u8>>, DecodeError> {
    let len = ref_count(r)?;
    let mut out = Vec::new();
    for _ in 0..len {
        out.push(ref_decode_bytes(r)?);
    }
    Ok(out)
}

fn ref_encode_option(v: &Option<Vec<u8>>, buf: &mut Vec<u8>) {
    match v {
        None => buf.push(0),
        Some(bytes) => {
            buf.push(1);
            ref_encode_bytes(bytes, buf);
        }
    }
}

fn ref_decode_option(r: &mut Reader<'_>) -> Result<Option<Vec<u8>>, DecodeError> {
    match r.read_u8()? {
        0 => Ok(None),
        1 => Ok(Some(ref_decode_bytes(r)?)),
        tag => Err(DecodeError::InvalidTag {
            tag,
            type_name: "Option",
        }),
    }
}

fn ref_encode_pair(v: &(String, Vec<u8>), buf: &mut Vec<u8>) {
    buf.extend_from_slice(&(v.0.len() as u32).to_le_bytes());
    buf.extend_from_slice(v.0.as_bytes());
    ref_encode_bytes(&v.1, buf);
}

fn ref_decode_pair(r: &mut Reader<'_>) -> Result<(String, Vec<u8>), DecodeError> {
    Ok((String::decode(r)?, ref_decode_bytes(r)?))
}

// --- the comparison --------------------------------------------------------

/// [`decode_from_slice`] under the reference: the value, then no input left.
fn ref_from_slice<T>(
    bytes: &[u8],
    decode: fn(&mut Reader<'_>) -> Result<T, DecodeError>,
) -> Result<T, DecodeError> {
    let mut r = Reader::new(bytes);
    let value = decode(&mut r)?;
    match r.remaining() {
        0 => Ok(value),
        remaining => Err(DecodeError::TrailingBytes { remaining }),
    }
}

/// `bytes` with the `u32` at `at` replaced by `u32::MAX`, and by one more
/// than the input that follows it.
fn hostile_prefixes(bytes: &[u8], at: usize) -> [Vec<u8>; 2] {
    let past = (bytes.len() - at - 4) as u32 + 1;
    [u32::MAX, past].map(|claim| {
        let mut out = bytes.to_vec();
        out[at..at + 4].copy_from_slice(&claim.to_le_bytes());
        out
    })
}

/// The codec and the reference write the same bytes for `value`, and read
/// the same value or the same error back from them, from every truncation
/// in `cuts`, and from hostile length prefixes at `prefixes`.
fn agrees<T>(
    value: &T,
    encode: fn(&T, &mut Vec<u8>),
    decode: fn(&mut Reader<'_>) -> Result<T, DecodeError>,
    cuts: &[usize],
    prefixes: &[usize],
) -> Result<(), TestCaseError>
where
    T: duc_codec::Encode + Decode + PartialEq + std::fmt::Debug,
{
    let mut expected = Vec::new();
    encode(value, &mut expected);
    let bytes = encode_to_vec(value);
    prop_assert_eq!(&bytes, &expected);
    let back = decode_from_slice::<T>(&bytes);
    prop_assert_eq!(back.as_ref(), Ok(value));
    let mut inputs: Vec<Vec<u8>> = cuts
        .iter()
        .map(|cut| bytes[..cut % (bytes.len() + 1)].to_vec())
        .collect();
    for &at in prefixes {
        inputs.extend(hostile_prefixes(&bytes, at));
    }
    for input in inputs {
        let got = decode_from_slice::<T>(&input);
        prop_assert_eq!(&got, &ref_from_slice(&input, decode), "input {:?}", input);
    }
    Ok(())
}

fn byte_string(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bulk_vec_u8_equals_the_per_element_reference(
        v in byte_string(4097),
        cut in any::<usize>(),
    ) {
        let n = v.len();
        agrees(&v, |v, buf| ref_encode_bytes(v, buf), ref_decode_bytes,
            &[0, 1, 3, 4, 5, n / 2 + 4, n + 3, cut], &[0])?;
    }

    #[test]
    fn bulk_nested_byte_strings_equal_the_reference(
        v in proptest::collection::vec(byte_string(64), 0..8),
        cut in any::<usize>(),
    ) {
        let first_inner: Vec<usize> = if v.is_empty() { vec![] } else { vec![4] };
        let prefixes = [vec![0], first_inner].concat();
        agrees(&v, |v, buf| ref_encode_nested(v, buf), ref_decode_nested,
            &[0, 3, 4, 7, cut], &prefixes)?;
    }

    #[test]
    fn bulk_optional_byte_string_equals_the_reference(
        v in proptest::option::of(byte_string(256)),
        cut in any::<usize>(),
    ) {
        let prefixes: Vec<usize> = if v.is_some() { vec![1] } else { vec![] };
        agrees(&v, ref_encode_option, ref_decode_option, &[0, 1, 4, 5, cut], &prefixes)?;
    }

    #[test]
    fn bulk_string_and_byte_string_equal_the_reference(
        v in (".{0,12}", byte_string(256)),
        cut in any::<usize>(),
    ) {
        let at = 4 + v.0.len();
        agrees(&v, ref_encode_pair, ref_decode_pair, &[0, at, at + 3, at + 4, cut], &[0, at])?;
    }
}
