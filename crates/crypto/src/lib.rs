//! # duc-crypto — cryptographic substrate
//!
//! The architecture needs hashing (block and resource integrity), message
//! authentication, symmetric encryption (TEE sealed storage, on-chain policy
//! confidentiality), digital signatures (transactions, attestation quotes,
//! usage evidence) and Merkle commitments (block bodies). No cryptography
//! crates are available offline, so everything here is implemented from
//! primary specifications:
//!
//! * [`mod@sha256`] — FIPS 180-4 SHA-256 (validated against NIST vectors).
//!   Two compression kernels behind the one [`Sha256`]: the word-by-word
//!   scalar one, which is normative, and on x86-64 CPUs that have the SHA
//!   extensions the same round function on `std::arch` intrinsics, chosen
//!   by CPU detection once per process ([`sha256::backend`] names it) and
//!   tested equal to the scalar one. Digests never depend on the choice.
//! * [`hmac`] — RFC 2104 HMAC-SHA-256 (validated against RFC 4231 vectors).
//! * [`chacha20`] — RFC 8439 ChaCha20 stream cipher (validated against the
//!   RFC's vectors). Two keystream kernels behind the one [`ChaCha20`], on
//!   the same terms: the block-at-a-time scalar one is normative; on x86-64
//!   CPUs that have AVX2 an eight-block one on `std::arch` intrinsics
//!   serves every remainder of more than two blocks ([`chacha20::backend`]
//!   names it). Ciphertext never depends on the choice.
//! * [`schnorr`] — Schnorr signatures over a 63-bit safe-prime group. The
//!   group is a constant (`schnorr::GROUP`; the Miller–Rabin search that
//!   derives it runs only in tests), products mod `p` are Montgomery
//!   multiplications, and every power of the generator is 15 products from
//!   a const-evaluated fixed-base table; a key pair keeps its nonce HMAC
//!   key with the pads already compressed. Keys and signatures are those of
//!   the plain square-and-multiply this replaced, pinned by known answers;
//!   the kernels are plain safe Rust on every CPU.
//! * [`merkle`] — binary Merkle trees with inclusion proofs.
//!
//! ## Security model
//!
//! The Schnorr group is deliberately small (a 63-bit safe prime): discrete
//! logs there resist *accidental* forgery in tests but not a determined
//! attacker. This is a documented substitution (see DESIGN.md §2) — the
//! architecture's behaviour depends on the *API contract* of signatures
//! (unforgeability within the simulation, key identity, tamper evidence),
//! not on production-grade key sizes.
//!
//! ## `unsafe`
//!
//! Denied crate-wide and allowed in exactly two private modules, the SHA-NI
//! kernel inside [`mod@sha256`] and the AVX2 kernel inside [`chacha20`];
//! every other crate of the workspace forbids it. The Schnorr arithmetic
//! needs none.

#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(unreachable_pub)]

pub mod chacha20;
pub mod hex;
pub mod hmac;
pub mod merkle;
pub mod schnorr;
pub mod sha256;

pub use chacha20::ChaCha20;
pub use merkle::{MerkleProof, MerkleTree};
pub use schnorr::{KeyPair, PublicKey, Signature, SignatureError};
pub use sha256::{sha256, Digest, Sha256};

/// Hashes the concatenation of parts, domain-separating each part by its
/// length. Used everywhere a composite structure needs one digest.
///
/// # Example
/// ```
/// let a = duc_crypto::hash_parts(&[b"ab", b"c"]);
/// let b = duc_crypto::hash_parts(&[b"a", b"bc"]);
/// assert_ne!(a, b, "length prefixes prevent boundary collisions");
/// ```
pub fn hash_parts(parts: &[&[u8]]) -> Digest {
    let mut h = Sha256::new();
    for p in parts {
        h.update(&(p.len() as u64).to_le_bytes());
        h.update(p);
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_parts_is_injective_on_boundaries() {
        let a = hash_parts(&[b"ab", b"c"]);
        let b = hash_parts(&[b"a", b"bc"]);
        assert_ne!(a, b);
    }

    #[test]
    fn hash_parts_of_same_input_is_stable() {
        assert_eq!(hash_parts(&[b"x", b"y"]), hash_parts(&[b"x", b"y"]));
    }
}
