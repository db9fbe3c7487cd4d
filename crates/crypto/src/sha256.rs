//! SHA-256 (FIPS 180-4), implemented from the specification: one hasher over
//! two compression kernels, the scalar reference and its SHA-NI twin.

use std::fmt;

use crate::hex;

/// A 256-bit digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The all-zero digest (used as a sentinel, e.g. genesis parent hash).
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Lowercase hex encoding.
    pub fn to_hex(&self) -> String {
        hex::encode(&self.0)
    }

    /// A short 8-hex-character prefix for logs.
    pub fn short(&self) -> String {
        hex::encode(&self.0[..4])
    }

    /// XOR of two digests (used to accumulate unordered sets).
    pub fn xor(&self, other: &Digest) -> Digest {
        let mut out = [0u8; 32];
        for (o, (a, b)) in out.iter_mut().zip(self.0.iter().zip(other.0.iter())) {
            *o = a ^ b;
        }
        Digest(out)
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.short())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for Digest {
    fn from(b: [u8; 32]) -> Self {
        Digest(b)
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Example
/// ```
/// use duc_crypto::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// assert_eq!(
///     h.finalize().to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// The state after absorbing the one block `block` from scratch.
    pub(crate) fn state_after(block: &[u8; 64]) -> [u32; 8] {
        let mut state = H0;
        compress(&mut state, block);
        state
    }

    /// A hasher that has absorbed one block, resumed from the state
    /// [`Sha256::state_after`] returned for it.
    pub(crate) fn resume(state: [u32; 8]) -> Self {
        Sha256 {
            state,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 64,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(data, compress);
    }

    /// Completes the hash and returns the digest.
    pub fn finalize(self) -> Digest {
        self.finalize_with(compress)
    }

    /// [`Sha256::update`] over a given compression kernel: only a partial
    /// block is ever copied, full blocks go to the kernel straight from
    /// `data` in one call.
    fn update_with(&mut self, data: &[u8], kernel: impl Fn(&mut [u32; 8], &[u8])) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len < 64 {
                return;
            }
            kernel(&mut self.state, &self.buffer);
        }
        let (blocks, rest) = input.split_at(input.len() & !63);
        if !blocks.is_empty() {
            kernel(&mut self.state, blocks);
        }
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffer_len = rest.len();
    }

    /// [`Sha256::finalize`] over a given compression kernel.
    fn finalize_with(mut self, kernel: impl Fn(&mut [u32; 8], &[u8])) -> Digest {
        // Padding (FIPS 180-4 §5.1.1): 0x80, zeros, then the 64-bit message
        // length closing the block — the next block when fewer than 8 bytes
        // are left after the 0x80. Written in place, compressed in one call.
        let n = self.buffer_len;
        let mut tail = [0u8; 128];
        tail[..n].copy_from_slice(&self.buffer[..n]);
        tail[n] = 0x80;
        let end = if n < 56 { 64 } else { 128 };
        tail[end - 8..end].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        kernel(&mut self.state, &tail[..end]);
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }
}

/// Folds `blocks` (a whole number of 64-byte blocks) into `state` with the
/// fastest kernel this CPU has.
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if let Some(kernel) = sha_ni::ShaNi::get() {
        return kernel.compress(state, blocks);
    }
    compress_scalar(state, blocks);
}

/// Which compression kernel this process hashes with: `"sha-ni"` when the
/// CPU has the x86 SHA extensions, `"scalar"` otherwise. A fact about the
/// host, recorded beside wall-clock measurements; digests do not depend on
/// it.
pub fn backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if sha_ni::ShaNi::get().is_some() {
        return "sha-ni";
    }
    "scalar"
}

/// The FIPS 180-4 §6.2.2 round function, word by word: the only kernel on
/// CPUs without SHA extensions and the reference the accelerated one is
/// tested against.
fn compress_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The same round function on the x86 SHA extensions (Intel SHA-NI): two
/// rounds per `sha256rnds2`, four schedule words per `msg1`/`msg2` pair.
///
/// The one module in the workspace allowed to say `unsafe`. Its safety
/// rests on two facts kept inside it: a [`ShaNi`] can only be built by the
/// CPU-feature detector, and every load or store goes through a slice
/// whose length is checked first.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod sha_ni {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };
    use std::sync::OnceLock;

    use super::K;

    /// Proof that this CPU has every instruction set the kernel uses.
    #[derive(Clone, Copy)]
    pub(super) struct ShaNi(());

    impl ShaNi {
        /// The kernel, if the CPU has it; detected once per process.
        pub(super) fn get() -> Option<ShaNi> {
            static DETECTED: OnceLock<Option<ShaNi>> = OnceLock::new();
            *DETECTED.get_or_init(|| {
                (is_x86_feature_detected!("sha")
                    && is_x86_feature_detected!("sse2")
                    && is_x86_feature_detected!("ssse3")
                    && is_x86_feature_detected!("sse4.1"))
                .then_some(ShaNi(()))
            })
        }

        /// Folds `blocks` (a whole number of 64-byte blocks) into `state`.
        pub(super) fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
            // SAFETY: a `ShaNi` exists only if `get` saw `sha`, `sse2`,
            // `ssse3` and `sse4.1` on this CPU, which are exactly the
            // features `compress_blocks` is compiled with.
            unsafe { compress_blocks(state, blocks) }
        }
    }

    /// The first 16 of `bytes` as one vector.
    #[inline(always)]
    fn load_bytes(bytes: &[u8]) -> __m128i {
        let bytes: &[u8; 16] = bytes.first_chunk().expect("at least 16 bytes");
        // SAFETY: `bytes` is 16 readable bytes; `loadu` needs no alignment.
        unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
    }

    /// The first 4 of `words` as one vector, `words[0]` in the low lane.
    #[inline(always)]
    fn load_words(words: &[u32]) -> __m128i {
        let words: &[u32; 4] = words.first_chunk().expect("at least 4 words");
        // SAFETY: `words` is 16 readable bytes; `loadu` needs no alignment.
        unsafe { _mm_loadu_si128(words.as_ptr().cast()) }
    }

    /// Writes `v` over the first 4 of `words`, low lane to `words[0]`.
    #[inline(always)]
    fn store_words(words: &mut [u32], v: __m128i) {
        let words: &mut [u32; 4] = words.first_chunk_mut().expect("at least 4 words");
        // SAFETY: `words` is 16 writable bytes; `storeu` needs no alignment.
        unsafe { _mm_storeu_si128(words.as_mut_ptr().cast(), v) }
    }

    /// Four rounds over the schedule words `w` and the round constants
    /// at the front of `k`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    #[inline]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, k: &[u32]) {
        let wk = _mm_add_epi32(w, load_words(k));
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }

    /// W[i] = s1(W[i-2]) + W[i-7] + s0(W[i-15]) + W[i-16] for four
    /// consecutive `i`, from the sixteen words before them.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    #[inline]
    fn schedule(w16: __m128i, w12: __m128i, w8: __m128i, w4: __m128i) -> __m128i {
        let partial = _mm_add_epi32(_mm_sha256msg1_epu32(w16, w12), _mm_alignr_epi8(w4, w8, 4));
        _mm_sha256msg2_epu32(partial, w4)
    }

    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        // `sha256rnds2` wants the working variables as {A,B,E,F} and
        // {C,D,G,H}; they stay in that form across all of `blocks`.
        let cdab = _mm_shuffle_epi32(load_words(&state[..4]), 0xB1);
        let efgh = _mm_shuffle_epi32(load_words(&state[4..]), 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
        // Message words are big-endian; lanes are little-endian.
        let byte_swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let mut w0 = _mm_shuffle_epi8(load_bytes(block), byte_swap);
            let mut w1 = _mm_shuffle_epi8(load_bytes(&block[16..]), byte_swap);
            let mut w2 = _mm_shuffle_epi8(load_bytes(&block[32..]), byte_swap);
            let mut w3 = _mm_shuffle_epi8(load_bytes(&block[48..]), byte_swap);
            rounds4(&mut abef, &mut cdgh, w0, &K);
            rounds4(&mut abef, &mut cdgh, w1, &K[4..]);
            rounds4(&mut abef, &mut cdgh, w2, &K[8..]);
            rounds4(&mut abef, &mut cdgh, w3, &K[12..]);
            for k in K[16..].chunks_exact(16) {
                w0 = schedule(w0, w1, w2, w3);
                rounds4(&mut abef, &mut cdgh, w0, k);
                w1 = schedule(w1, w2, w3, w0);
                rounds4(&mut abef, &mut cdgh, w1, &k[4..]);
                w2 = schedule(w2, w3, w0, w1);
                rounds4(&mut abef, &mut cdgh, w2, &k[8..]);
                w3 = schedule(w3, w0, w1, w2);
                rounds4(&mut abef, &mut cdgh, w3, &k[12..]);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        store_words(&mut state[..4], _mm_blend_epi16(feba, dchg, 0xF0));
        store_words(&mut state[4..], _mm_alignr_epi8(dchg, feba, 8));
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Write;

    type Kernel = fn(&mut [u32; 8], &[u8]);

    /// The accelerated kernel called directly, if this host has one.
    /// Otherwise says so (once per test binary) past the harness's output
    /// capture, so a run that compared nothing cannot be mistaken for one
    /// that did.
    fn accelerated() -> Option<Kernel> {
        #[cfg(target_arch = "x86_64")]
        if sha_ni::ShaNi::get().is_some() {
            return Some(|state, blocks| {
                sha_ni::ShaNi::get()
                    .expect("detected above")
                    .compress(state, blocks)
            });
        }
        static NOTICE: std::sync::Once = std::sync::Once::new();
        NOTICE.call_once(|| {
            writeln!(
                std::io::stderr(),
                "duc-crypto: accelerated sha256 legs SKIPPED: this host has no SHA extensions"
            )
            .expect("stderr is writable");
        });
        None
    }

    /// Hashes the concatenation of `chunks`, one `update` each, over `kernel`.
    fn digest_with(kernel: Kernel, chunks: &[&[u8]]) -> Digest {
        let mut h = Sha256::new();
        for chunk in chunks {
            h.update_with(chunk, kernel);
        }
        h.finalize_with(kernel)
    }

    /// `data` must hash to `expected` through the public path and through
    /// each kernel called directly.
    fn assert_vector(data: &[u8], expected: &str) {
        assert_eq!(sha256(data).to_hex(), expected);
        assert_eq!(
            digest_with(compress_scalar, &[data]).to_hex(),
            expected,
            "scalar kernel"
        );
        if let Some(kernel) = accelerated() {
            assert_eq!(
                digest_with(kernel, &[data]).to_hex(),
                expected,
                "accelerated kernel"
            );
        }
    }

    // NIST / well-known vectors.
    #[test]
    fn empty_string_vector() {
        assert_vector(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn abc_vector() {
        assert_vector(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn two_block_vector() {
        assert_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn million_a_vector() {
        assert_vector(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn kernels_agree_on_every_padding_edge() {
        let data: Vec<u8> = (0..128).map(|i| (i * 7 + 3) as u8).collect();
        for len in [0usize, 1, 55, 56, 57, 63, 64, 65, 119, 120, 128] {
            let message = &data[..len];
            let expected = digest_with(compress_scalar, &[message]);
            assert_eq!(sha256(message), expected, "{len} bytes, public path");
            if let Some(kernel) = accelerated() {
                assert_eq!(digest_with(kernel, &[message]), expected, "{len} bytes");
            }
        }
    }

    proptest! {
        #[test]
        fn kernels_agree_under_random_chunking(
            message in proptest::collection::vec(any::<u8>(), 0..=300),
            cuts in proptest::collection::vec(0usize..=300, 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (message.len() + 1)).collect();
            cuts.sort_unstable();
            let mut chunks = Vec::new();
            let mut rest = message.as_slice();
            let mut taken = 0;
            for cut in cuts {
                let (chunk, tail) = rest.split_at(cut - taken);
                chunks.push(chunk);
                (rest, taken) = (tail, cut);
            }
            chunks.push(rest);
            let expected = digest_with(compress_scalar, &[&message]);
            prop_assert_eq!(digest_with(compress_scalar, &chunks), expected);
            if let Some(kernel) = accelerated() {
                prop_assert_eq!(digest_with(kernel, &chunks), expected);
            }
        }
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let one_shot = sha256(&data);
        for chunk_size in [1usize, 3, 63, 64, 65, 127, 500] {
            let mut h = Sha256::new();
            for chunk in data.chunks(chunk_size) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), one_shot, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn boundary_lengths_hash_distinctly() {
        // 55/56/64 bytes exercise the padding edge cases.
        let d55 = sha256(&[0u8; 55]);
        let d56 = sha256(&[0u8; 56]);
        let d64 = sha256(&[0u8; 64]);
        assert_ne!(d55, d56);
        assert_ne!(d56, d64);
    }

    #[test]
    fn digest_helpers() {
        let d = sha256(b"helpers");
        assert_eq!(d.short().len(), 8);
        assert_eq!(d.xor(&d), Digest::ZERO);
        assert_eq!(d.xor(&Digest::ZERO), d);
        assert_eq!(format!("{d}").len(), 64);
        assert!(format!("{d:?}").starts_with("Digest("));
    }
}
