//! ChaCha20 stream cipher (RFC 8439), implemented from the specification:
//! one cipher over two keystream kernels, the block-at-a-time scalar
//! reference and an eight-block AVX2 twin.
//!
//! Used for TEE sealed storage and for the optional encryption of on-chain
//! policy metadata in the privacy experiment (E9). Encryption and decryption
//! are the same operation (XOR keystream).

use std::fmt;

/// ChaCha20 keystream generator / stream cipher.
#[derive(Clone)]
pub struct ChaCha20 {
    key: [u8; 32],
    nonce: [u8; 12],
}

impl fmt::Debug for ChaCha20 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the key; the nonce is public.
        f.debug_struct("ChaCha20")
            .field("key", &"<redacted>")
            .field("nonce", &self.nonce)
            .finish()
    }
}

/// Bytes of keystream the wide kernel produces per call: eight blocks.
const WIDE_BYTES: usize = 512;

/// The shortest remainder the wide kernel serves. Eight blocks on AVX2 cost
/// about what two cost on the scalar kernel, so from a third block on the
/// wide kernel wins even though part of its batch is thrown away
/// (EXPERIMENTS.md § "Sealed storage at vector speed" has the numbers).
const WIDE_MIN_BYTES: usize = 129;

fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

impl ChaCha20 {
    /// Creates a cipher instance for a 256-bit key and 96-bit nonce.
    pub fn new(key: [u8; 32], nonce: [u8; 12]) -> Self {
        ChaCha20 { key, nonce }
    }

    /// The block function's input (RFC 8439 §2.3): constants, key, block
    /// counter, nonce.
    fn state(&self, counter: u32) -> [u32; 16] {
        const SIGMA: [u32; 4] = [0x61707865, 0x3320646e, 0x79622d32, 0x6b206574];
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&SIGMA);
        for i in 0..8 {
            state[4 + i] = u32::from_le_bytes([
                self.key[i * 4],
                self.key[i * 4 + 1],
                self.key[i * 4 + 2],
                self.key[i * 4 + 3],
            ]);
        }
        state[12] = counter;
        for i in 0..3 {
            state[13 + i] = u32::from_le_bytes([
                self.nonce[i * 4],
                self.nonce[i * 4 + 1],
                self.nonce[i * 4 + 2],
                self.nonce[i * 4 + 3],
            ]);
        }
        state
    }

    /// The RFC 8439 §2.3 block function, word by word: the only kernel on
    /// CPUs without AVX2 and the reference the wide one is tested against.
    /// Inlined into each caller's block loop: with two callers the
    /// compiler stops doing so on its own, and a call per 64 bytes costs
    /// 3–4 % at one or two blocks.
    #[inline(always)]
    fn block(&self, counter: u32) -> [u8; 64] {
        let state = self.state(counter);
        let mut working = state;
        for _ in 0..10 {
            // Column rounds.
            quarter_round(&mut working, 0, 4, 8, 12);
            quarter_round(&mut working, 1, 5, 9, 13);
            quarter_round(&mut working, 2, 6, 10, 14);
            quarter_round(&mut working, 3, 7, 11, 15);
            // Diagonal rounds.
            quarter_round(&mut working, 0, 5, 10, 15);
            quarter_round(&mut working, 1, 6, 11, 12);
            quarter_round(&mut working, 2, 7, 8, 13);
            quarter_round(&mut working, 3, 4, 9, 14);
        }
        let mut out = [0u8; 64];
        for i in 0..16 {
            let word = working[i].wrapping_add(state[i]);
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// Hands `xor` the keystream for `len` bytes from block
    /// `initial_counter` on, piece by piece: the offset of the piece and its
    /// keystream. Which kernel makes a piece depends on the bytes left
    /// alone: `wide`, when there is one, serves every remainder of
    /// [`WIDE_MIN_BYTES`] or more, the scalar block function the rest.
    fn keystream(
        &self,
        initial_counter: u32,
        len: usize,
        wide: Option<impl Fn(&[u32; 16], &mut [u8; WIDE_BYTES])>,
        mut xor: impl FnMut(usize, &[u8]),
    ) {
        let mut counter = initial_counter;
        let mut at = 0;
        if let Some(wide) = wide.filter(|_| len >= WIDE_MIN_BYTES) {
            let mut state = self.state(counter);
            let mut ks = [0u8; WIDE_BYTES];
            while len - at >= WIDE_MIN_BYTES {
                state[12] = counter;
                wide(&state, &mut ks);
                let n = (len - at).min(WIDE_BYTES);
                xor(at, &ks[..n]);
                at += n;
                counter = counter.wrapping_add(8);
            }
        }
        while at < len {
            let ks = self.block(counter);
            let n = (len - at).min(64);
            xor(at, &ks[..n]);
            at += n;
            counter = counter.wrapping_add(1);
        }
    }

    /// Convenience: encrypts `plaintext` with counter 1 (RFC 8439 convention
    /// reserves counter 0 for the Poly1305 key, which we do not use). One
    /// pass: each output byte is written once, as input XOR keystream.
    pub fn encrypt(&self, plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len());
        self.keystream(1, plaintext.len(), wide_kernel(), |at, ks| {
            out.extend(plaintext[at..].iter().zip(ks).map(|(p, k)| p ^ k));
        });
        out
    }

    /// Convenience: decrypts data produced by [`ChaCha20::encrypt`].
    pub fn decrypt(&self, ciphertext: &[u8]) -> Vec<u8> {
        self.encrypt(ciphertext)
    }
}

/// The widest keystream kernel this CPU has beside the scalar one: given
/// the block function's input, it writes the keystream of the eight blocks
/// from that counter on (wrapping at 2³², as the scalar loop does).
fn wide_kernel() -> Option<impl Fn(&[u32; 16], &mut [u8; WIDE_BYTES])> {
    #[cfg(target_arch = "x86_64")]
    return avx2::Avx2::get().map(|kernel| {
        move |state: &[u32; 16], out: &mut [u8; WIDE_BYTES]| kernel.keystream(state, out)
    });
    #[cfg(not(target_arch = "x86_64"))]
    None::<fn(&[u32; 16], &mut [u8; WIDE_BYTES])>
}

/// Which keystream kernel this process enciphers long inputs with: `"avx2"`
/// when the CPU has it, `"scalar"` otherwise. A fact about the host,
/// recorded beside wall-clock measurements; ciphertext does not depend on
/// it.
pub fn backend() -> &'static str {
    if wide_kernel().is_some() {
        "avx2"
    } else {
        "scalar"
    }
}

/// The block function on AVX2, eight blocks at once: one vector per state
/// word, one lane per block counter.
///
/// With the SHA-NI kernel of [`crate::sha256`], one of the two modules in
/// the workspace allowed to say `unsafe`. Its safety rests on two facts
/// kept inside it: an [`Avx2`] can only be built by the CPU-feature
/// detector, and every store goes through a slice whose length is checked
/// first.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_or_si256, _mm256_permute2x128_si256, _mm256_set1_epi32,
        _mm256_setr_epi32, _mm256_setr_epi8, _mm256_shuffle_epi8, _mm256_slli_epi32,
        _mm256_srli_epi32, _mm256_storeu_si256, _mm256_unpackhi_epi32, _mm256_unpackhi_epi64,
        _mm256_unpacklo_epi32, _mm256_unpacklo_epi64, _mm256_xor_si256,
    };
    use std::sync::OnceLock;

    use super::WIDE_BYTES;

    /// Proof that this CPU has the instruction set the kernel uses.
    #[derive(Clone, Copy)]
    pub(super) struct Avx2(());

    impl Avx2 {
        /// The kernel, if the CPU has it; detected once per process.
        pub(super) fn get() -> Option<Avx2> {
            static DETECTED: OnceLock<Option<Avx2>> = OnceLock::new();
            *DETECTED.get_or_init(|| is_x86_feature_detected!("avx2").then_some(Avx2(())))
        }

        /// Writes the keystream of the eight blocks `state[12]`,
        /// `state[12] + 1`, … (wrapping) over `out`.
        pub(super) fn keystream(self, state: &[u32; 16], out: &mut [u8; WIDE_BYTES]) {
            // SAFETY: an `Avx2` exists only if `get` saw `avx2` on this
            // CPU, which is exactly the feature `keystream8` is compiled
            // with.
            unsafe { keystream8(state, out) }
        }
    }

    /// Writes `v` over the first 32 of `bytes`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn store_bytes(bytes: &mut [u8], v: __m256i) {
        let bytes: &mut [u8; 32] = bytes.first_chunk_mut().expect("at least 32 bytes");
        // SAFETY: `bytes` is 32 writable bytes; `storeu` needs no alignment.
        unsafe { _mm256_storeu_si256(bytes.as_mut_ptr().cast(), v) }
    }

    /// `rotate_left(N)` in every lane, by shift-or (N = 12, 7; the byte
    /// rotations 16 and 8 are one shuffle each).
    #[target_feature(enable = "avx2")]
    #[inline]
    fn rotate_left<const N: i32, const M: i32>(v: __m256i) -> __m256i {
        _mm256_or_si256(_mm256_slli_epi32::<N>(v), _mm256_srli_epi32::<M>(v))
    }

    /// The scalar `quarter_round` on eight blocks.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn quarter_round(x: &mut [__m256i; 16], a: usize, b: usize, c: usize, d: usize) {
        // Byte shuffles (within each 128-bit half) that rotate every 32-bit
        // lane left by 16 and by 8.
        let rot16 = _mm256_setr_epi8(
            2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, //
            2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
        );
        let rot8 = _mm256_setr_epi8(
            3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14, //
            3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
        );
        x[a] = _mm256_add_epi32(x[a], x[b]);
        x[d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[d], x[a]), rot16);
        x[c] = _mm256_add_epi32(x[c], x[d]);
        x[b] = rotate_left::<12, 20>(_mm256_xor_si256(x[b], x[c]));
        x[a] = _mm256_add_epi32(x[a], x[b]);
        x[d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[d], x[a]), rot8);
        x[c] = _mm256_add_epi32(x[c], x[d]);
        x[b] = rotate_left::<7, 25>(_mm256_xor_si256(x[b], x[c]));
    }

    /// Transposes eight state words (a vector each, a lane per block) into
    /// eight 32-byte block halves and stores half `h` of block `b` at
    /// `out[64 * b + 32 * h]`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn store_transposed(words: &[__m256i], h: usize, out: &mut [u8; WIDE_BYTES]) {
        // 32-bit then 64-bit interleaves gather, per 128-bit half, the four
        // words of one block; the cross-half permute joins words 0–3 with
        // words 4–7.
        let ab_lo = _mm256_unpacklo_epi32(words[0], words[1]);
        let ab_hi = _mm256_unpackhi_epi32(words[0], words[1]);
        let cd_lo = _mm256_unpacklo_epi32(words[2], words[3]);
        let cd_hi = _mm256_unpackhi_epi32(words[2], words[3]);
        let ef_lo = _mm256_unpacklo_epi32(words[4], words[5]);
        let ef_hi = _mm256_unpackhi_epi32(words[4], words[5]);
        let gh_lo = _mm256_unpacklo_epi32(words[6], words[7]);
        let gh_hi = _mm256_unpackhi_epi32(words[6], words[7]);
        // `abcd[i]`: words 0–3 of blocks i (low half) and i + 4 (high half).
        let abcd = [
            _mm256_unpacklo_epi64(ab_lo, cd_lo),
            _mm256_unpackhi_epi64(ab_lo, cd_lo),
            _mm256_unpacklo_epi64(ab_hi, cd_hi),
            _mm256_unpackhi_epi64(ab_hi, cd_hi),
        ];
        let efgh = [
            _mm256_unpacklo_epi64(ef_lo, gh_lo),
            _mm256_unpackhi_epi64(ef_lo, gh_lo),
            _mm256_unpacklo_epi64(ef_hi, gh_hi),
            _mm256_unpackhi_epi64(ef_hi, gh_hi),
        ];
        for i in 0..4 {
            let low = _mm256_permute2x128_si256::<0x20>(abcd[i], efgh[i]);
            let high = _mm256_permute2x128_si256::<0x31>(abcd[i], efgh[i]);
            store_bytes(&mut out[64 * i + 32 * h..], low);
            store_bytes(&mut out[64 * (i + 4) + 32 * h..], high);
        }
    }

    /// Twenty rounds over eight counters, the input added back, the words
    /// transposed into block order.
    #[target_feature(enable = "avx2")]
    fn keystream8(state: &[u32; 16], out: &mut [u8; WIDE_BYTES]) {
        let mut input = state.map(|word| _mm256_set1_epi32(word as i32));
        input[12] = _mm256_add_epi32(input[12], _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
        let mut x = input;
        for _ in 0..10 {
            // Column rounds.
            quarter_round(&mut x, 0, 4, 8, 12);
            quarter_round(&mut x, 1, 5, 9, 13);
            quarter_round(&mut x, 2, 6, 10, 14);
            quarter_round(&mut x, 3, 7, 11, 15);
            // Diagonal rounds.
            quarter_round(&mut x, 0, 5, 10, 15);
            quarter_round(&mut x, 1, 6, 11, 12);
            quarter_round(&mut x, 2, 7, 8, 13);
            quarter_round(&mut x, 3, 4, 9, 14);
        }
        for (word, initial) in x.iter_mut().zip(input) {
            *word = _mm256_add_epi32(*word, initial);
        }
        store_transposed(&x[..8], 0, out);
        store_transposed(&x[8..], 1, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use proptest::prelude::*;
    use std::io::Write;

    type Wide = fn(&[u32; 16], &mut [u8; WIDE_BYTES]);

    /// No wide kernel: every block comes from the scalar block function.
    const SCALAR: Option<Wide> = None;

    /// The wide kernel called directly, if this host has one. Otherwise
    /// says so (once per test binary) past the harness's output capture, so
    /// a run that compared nothing cannot be mistaken for one that did.
    fn accelerated() -> Option<impl Fn(&[u32; 16], &mut [u8; WIDE_BYTES])> {
        let kernel = wide_kernel();
        if kernel.is_none() {
            static NOTICE: std::sync::Once = std::sync::Once::new();
            NOTICE.call_once(|| {
                writeln!(
                    std::io::stderr(),
                    "duc-crypto: accelerated chacha20 legs SKIPPED (no avx2)"
                )
                .expect("stderr is writable");
            });
        }
        kernel
    }

    /// The normative cipher: one `block` per 64 bytes, counter wrapping.
    fn reference(cipher: &ChaCha20, initial_counter: u32, data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        for (block_idx, chunk) in out.chunks_mut(64).enumerate() {
            let ks = cipher.block(initial_counter.wrapping_add(block_idx as u32));
            for (byte, k) in chunk.iter_mut().zip(ks.iter()) {
                *byte ^= k;
            }
        }
        out
    }

    /// XORs the keystream from block `initial_counter` on, over `wide`,
    /// into `data` in place.
    fn xor_keystream(
        wide: Option<impl Fn(&[u32; 16], &mut [u8; WIDE_BYTES])>,
        cipher: &ChaCha20,
        initial_counter: u32,
        data: &mut [u8],
    ) {
        cipher.keystream(initial_counter, data.len(), wide, |at, ks| {
            for (byte, k) in data[at..at + ks.len()].iter_mut().zip(ks) {
                *byte ^= k;
            }
        });
    }

    /// `data` under the keystream from `initial_counter` on, over `wide`.
    fn apply_with(
        wide: Option<impl Fn(&[u32; 16], &mut [u8; WIDE_BYTES])>,
        cipher: &ChaCha20,
        initial_counter: u32,
        data: &[u8],
    ) -> Vec<u8> {
        let mut out = data.to_vec();
        xor_keystream(wide, cipher, initial_counter, &mut out);
        out
    }

    fn rfc_cipher(nonce_hex: &str) -> ChaCha20 {
        let key: [u8; 32] = (0u8..32).collect::<Vec<_>>().try_into().unwrap();
        let nonce: [u8; 12] = hex::decode(nonce_hex).unwrap().try_into().unwrap();
        ChaCha20::new(key, nonce)
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 7 + 3) as u8).collect()
    }

    /// RFC 8439 §2.3.2 block-function test vector.
    #[test]
    fn rfc8439_block_vector() {
        let cipher = rfc_cipher("000000090000004a00000000");
        let expected = "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
                        d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e";
        assert_eq!(hex::encode(&cipher.block(1)), expected);
        if let Some(kernel) = accelerated() {
            let mut ks = [0u8; WIDE_BYTES];
            kernel(&cipher.state(1), &mut ks);
            assert_eq!(hex::encode(&ks[..64]), expected, "wide kernel, first block");
            for (i, block) in ks.chunks_exact(64).enumerate() {
                assert_eq!(block, cipher.block(1 + i as u32), "wide kernel, block {i}");
            }
        }
    }

    /// RFC 8439 §2.4.2 encryption test vector.
    #[test]
    fn rfc8439_encryption_vector() {
        let cipher = rfc_cipher("000000000000004a00000000");
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it.";
        let expected = "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
                        f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
                        07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
                        5af90bbf74a35be6b40b8eedf2785e42874d";
        assert_eq!(hex::encode(&cipher.encrypt(plaintext)), expected);
        assert_eq!(
            hex::encode(&apply_with(SCALAR, &cipher, 1, plaintext)),
            expected,
            "scalar kernel"
        );
        if let Some(kernel) = accelerated() {
            // 114 bytes alone stay on the scalar kernel; at the head of a
            // longer message the same bytes meet the wide one.
            let mut message = plaintext.to_vec();
            message.resize(WIDE_BYTES, 0);
            let ct = apply_with(Some(kernel), &cipher, 1, &message);
            assert_eq!(hex::encode(&ct[..plaintext.len()]), expected, "wide kernel");
        }
    }

    #[test]
    fn kernels_agree_on_every_length() {
        let cipher = ChaCha20::new([0x5a; 32], [0xc3; 12]);
        let data = pattern(1100);
        // 1 100 bytes cross 1, 2, 7, 8, 9, 16 and 17 blocks; from
        // `u32::MAX - 3` the block counter wraps inside a wide batch.
        for counter in [0, 1, u32::MAX - 3] {
            for len in 0..=data.len() {
                let message = &data[..len];
                let expected = reference(&cipher, counter, message);
                assert_eq!(
                    apply_with(SCALAR, &cipher, counter, message),
                    expected,
                    "{len} bytes from block {counter}, scalar kernel"
                );
                assert_eq!(
                    apply_with(wide_kernel(), &cipher, counter, message),
                    expected,
                    "{len} bytes from block {counter}, detected kernel"
                );
                if let Some(kernel) = accelerated() {
                    assert_eq!(
                        apply_with(Some(kernel), &cipher, counter, message),
                        expected,
                        "{len} bytes from block {counter}, wide kernel"
                    );
                }
            }
        }
        for len in 0..=data.len() {
            assert_eq!(
                cipher.encrypt(&data[..len]),
                reference(&cipher, 1, &data[..len]),
                "{len} bytes, encrypt"
            );
        }
    }

    #[test]
    fn kernels_agree_on_unaligned_slices() {
        let cipher = ChaCha20::new([0x11; 32], [0x22; 12]);
        let data = pattern(1100);
        for skip in [1usize, 3] {
            let expected = reference(&cipher, 7, &data[skip..]);
            let mut detected = data.clone();
            xor_keystream(wide_kernel(), &cipher, 7, &mut detected[skip..]);
            assert_eq!(&detected[..skip], &data[..skip], "bytes before the slice");
            assert_eq!(
                &detected[skip..],
                expected,
                "detected kernel, offset {skip}"
            );
            assert_eq!(cipher.encrypt(&data[skip..]).len(), expected.len());
            if let Some(kernel) = accelerated() {
                let mut wide = data.clone();
                xor_keystream(Some(kernel), &cipher, 7, &mut wide[skip..]);
                assert_eq!(&wide[skip..], expected, "wide kernel, offset {skip}");
            }
        }
    }

    proptest! {
        #[test]
        fn kernels_agree_under_random_chunking(
            key in proptest::collection::vec(any::<u8>(), 32),
            nonce in proptest::collection::vec(any::<u8>(), 12),
            counter in any::<u32>(),
            message in proptest::collection::vec(any::<u8>(), 0..=8192),
            cuts in proptest::collection::vec(0usize..=128, 0..6),
        ) {
            let cipher = ChaCha20::new(
                key.try_into().expect("32 bytes"),
                nonce.try_into().expect("12 bytes"),
            );
            let expected = reference(&cipher, counter, &message);
            prop_assert_eq!(&apply_with(SCALAR, &cipher, counter, &message), &expected);
            // Block-aligned pieces, each at the counter its offset implies.
            let blocks = message.len() / 64;
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (blocks + 1) * 64).collect();
            cuts.push(message.len());
            cuts.sort_unstable();
            for wide in [false, true] {
                let mut pieces = Vec::with_capacity(message.len());
                let mut from = 0;
                for &to in &cuts {
                    let at = counter.wrapping_add((from / 64) as u32);
                    pieces.extend(match accelerated().filter(|_| wide) {
                        Some(kernel) => apply_with(Some(kernel), &cipher, at, &message[from..to]),
                        None => apply_with(SCALAR, &cipher, at, &message[from..to]),
                    });
                    from = to;
                }
                prop_assert_eq!(&pieces, &expected);
            }
        }
    }

    #[test]
    fn debug_does_not_print_the_key() {
        let key: [u8; 32] = std::array::from_fn(|i| 0xa0 + i as u8);
        let shown = format!("{:?}", ChaCha20::new(key, [9u8; 12]));
        assert!(shown.contains("<redacted>"), "{shown}");
        assert!(!shown.contains(&hex::encode(&key)), "{shown}");
        // Nor as the byte list a derived `Debug` prints.
        assert!(!shown.contains("160, 161"), "{shown}");
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let cipher = ChaCha20::new([7u8; 32], [9u8; 12]);
        let msg = b"usage policy: delete after one week".to_vec();
        let ct = cipher.encrypt(&msg);
        assert_ne!(ct, msg);
        assert_eq!(cipher.decrypt(&ct), msg);
    }

    #[test]
    fn different_nonces_differ() {
        let c1 = ChaCha20::new([1u8; 32], [0u8; 12]);
        let c2 = ChaCha20::new([1u8; 32], [1u8; 12]);
        assert_ne!(c1.encrypt(b"same message"), c2.encrypt(b"same message"));
    }

    #[test]
    fn keystream_continuation_matches_one_shot() {
        let cipher = ChaCha20::new([3u8; 32], [4u8; 12]);
        let mut whole = vec![0u8; 130];
        xor_keystream(wide_kernel(), &cipher, 1, &mut whole);
        // Same keystream applied to an all-zero buffer in two chunks at the
        // correct block offsets.
        let mut part1 = vec![0u8; 64];
        let mut part2 = vec![0u8; 66];
        xor_keystream(wide_kernel(), &cipher, 1, &mut part1);
        xor_keystream(wide_kernel(), &cipher, 2, &mut part2);
        assert_eq!(&whole[..64], &part1[..]);
        assert_eq!(&whole[64..], &part2[..]);
    }

    #[test]
    fn empty_input_is_fine() {
        let cipher = ChaCha20::new([0u8; 32], [0u8; 12]);
        assert!(cipher.encrypt(b"").is_empty());
    }
}
