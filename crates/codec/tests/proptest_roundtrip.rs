//! Property tests: every encodable value decodes back to itself, and the
//! decoder never panics on arbitrary input.

use duc_codec::{decode_from_slice, encode_to_vec};
use proptest::prelude::*;

proptest! {
    #[test]
    fn u64_roundtrip(v in any::<u64>()) {
        prop_assert_eq!(decode_from_slice::<u64>(&encode_to_vec(&v)).unwrap(), v);
    }

    #[test]
    fn i128_roundtrip(v in any::<i128>()) {
        prop_assert_eq!(decode_from_slice::<i128>(&encode_to_vec(&v)).unwrap(), v);
    }

    #[test]
    fn string_roundtrip(v in ".*") {
        let owned = v.to_string();
        prop_assert_eq!(decode_from_slice::<String>(&encode_to_vec(&owned)).unwrap(), owned);
    }

    #[test]
    fn nested_roundtrip(
        a in any::<u32>(),
        b in proptest::collection::vec(".*", 0..8),
        c in proptest::option::of(any::<u64>()),
    ) {
        let value = (a, b.clone(), c);
        let back: (u32, Vec<String>, Option<u64>) =
            decode_from_slice(&encode_to_vec(&value)).unwrap();
        prop_assert_eq!(back, value);
    }

    /// Fuzzing the decoder: arbitrary bytes must yield either a clean value
    /// or a clean error — never a panic.
    #[test]
    fn decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_from_slice::<Vec<String>>(&bytes);
        let _ = decode_from_slice::<(u64, Option<String>)>(&bytes);
        let _ = decode_from_slice::<Vec<(bool, u16)>>(&bytes);
    }

    /// Determinism: encoding the same value twice yields identical bytes.
    #[test]
    fn encoding_deterministic(v in proptest::collection::vec(any::<u64>(), 0..64)) {
        prop_assert_eq!(encode_to_vec(&v), encode_to_vec(&v));
    }
}
