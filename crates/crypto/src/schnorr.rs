//! Schnorr signatures over a safe-prime group (simulation-scale).
//!
//! The group is the order-`q` subgroup of quadratic residues of `Z_p^*`,
//! where `p = 2q + 1 = 2⁶² + 6595` is the first safe prime with
//! `q ≥ 2⁶¹ + 1` and `g = 4`. `GROUP` is a constant; the deterministic
//! Miller–Rabin search that found it lives in this module's tests, which
//! check it still derives exactly these values.
//! Nonces are derived deterministically (RFC 6979 in spirit) via
//! HMAC-SHA-256 keyed by the secret scalar, so signing needs no RNG and
//! never reuses a nonce across distinct messages; the key pair compresses
//! that HMAC key's two pad blocks once, when it is made.
//!
//! Arithmetic mod `p` is in Montgomery form (`R = 2⁶⁴`, one REDC in `u128`
//! per product; `p < 2⁶³` keeps every intermediate below `2¹²⁸`). Every
//! power of `g` — keygen's `gˣ`, signing's `gᵏ`, verification's `gˢ` — is
//! 15 products of entries of a const-evaluated table of `g^(j·16ⁱ)`; the
//! one power of a variable base, verification's `P^(q−e)`, is
//! square-and-multiply. Keys and signatures are bit-for-bit those of the
//! plain `u128 %` square-and-multiply this replaced (pinned by known-answer
//! tests, and every kernel is property-tested against that reference). It
//! is safe Rust with no runtime dispatch.
//!
//! This is the documented substitution for secp256k1/EdDSA (DESIGN.md §2):
//! the 63-bit modulus is *not* production-grade, but sign/verify semantics,
//! key identity and tamper evidence — the properties the architecture
//! exercises — are faithfully provided.

use std::fmt;

use crate::hmac::{hmac_sha256, HmacKey};
use crate::sha256::Digest;
use crate::{hash_parts, hex};

/// Group parameters: safe prime `p = 2q + 1`, subgroup order `q`,
/// generator `g` of the order-`q` subgroup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GroupParams {
    /// The field prime.
    pub p: u64,
    /// The subgroup order, `(p - 1) / 2`.
    pub q: u64,
    /// A generator of the subgroup of quadratic residues.
    pub g: u64,
}

/// The signature group.
pub(crate) const GROUP: GroupParams = GroupParams {
    p: 4_611_686_018_427_394_499,
    q: 2_305_843_009_213_697_249,
    g: 4,
};

const P: u64 = GROUP.p;
const Q: u64 = GROUP.q;
const _: () = assert!(P < 1 << 63, "REDC's no-overflow bound");

/// `−p⁻¹ mod 2⁶⁴`. Newton's iteration doubles the correct low bits of an
/// inverse each step, from the 3 that any odd `p` is of itself.
const P_NEG_INV: u64 = {
    let mut inv = P;
    let mut i = 0;
    while i < 5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(P.wrapping_mul(inv)));
        i += 1;
    }
    inv.wrapping_neg()
};

/// `R mod p`: one, in Montgomery form.
const ONE: u64 = ((1u128 << 64) % P as u128) as u64;

/// `R² mod p`: multiplying by it takes a residue into Montgomery form.
const R2: u64 = ((ONE as u128 * ONE as u128) % P as u128) as u64;

/// Montgomery reduction: `t·R⁻¹ mod p` for `t < p·R`. `t + m·p` stays
/// below `p·R + R·p < 2¹²⁸` because `p < 2⁶³`.
const fn redc(t: u128) -> u64 {
    let m = (t as u64).wrapping_mul(P_NEG_INV);
    let r = ((t + m as u128 * P as u128) >> 64) as u64;
    if r >= P {
        r - P
    } else {
        r
    }
}

/// The product of two Montgomery-form residues, in Montgomery form.
const fn mont_mul(a: u64, b: u64) -> u64 {
    redc(a as u128 * b as u128)
}

/// `x` (any `u64`) into Montgomery form, reduced mod `p`.
const fn to_mont(x: u64) -> u64 {
    mont_mul(x, R2)
}

/// A Montgomery-form residue back to its plain value.
const fn from_mont(x: u64) -> u64 {
    redc(x as u128)
}

/// `G_TABLE[i][j] = g^(j·16ⁱ)` in Montgomery form: one row per hex digit
/// of a 64-bit exponent.
static G_TABLE: [[u64; 16]; 16] = {
    let mut table = [[0u64; 16]; 16];
    let mut base = to_mont(GROUP.g);
    let mut i = 0;
    while i < 16 {
        let mut acc = ONE;
        let mut j = 0;
        while j < 16 {
            table[i][j] = acc;
            acc = mont_mul(acc, base);
            j += 1;
        }
        // acc = base¹⁶ = g^(16ⁱ⁺¹)
        base = acc;
        i += 1;
    }
    table
};

/// `gᵏ` in Montgomery form, for any `k`: one table entry per hex digit.
fn g_pow(k: u64) -> u64 {
    let mut acc = G_TABLE[0][(k & 15) as usize];
    for (i, row) in G_TABLE.iter().enumerate().skip(1) {
        acc = mont_mul(acc, row[((k >> (4 * i)) & 15) as usize]);
    }
    acc
}

/// `baseᵉˣᵖ` by square-and-multiply, base and result in Montgomery form.
fn pow_mont(mut base: u64, mut exp: u64) -> u64 {
    let mut acc = ONE;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mont_mul(acc, base);
        }
        base = mont_mul(base, base);
        exp >>= 1;
    }
    acc
}

/// A secret scalar, with the HMAC key its signing nonces are derived under
/// (the scalar's bytes, pads compressed once at key generation).
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct SecretKey {
    scalar: u64,
    nonce_key: HmacKey,
}

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the scalar.
        f.write_str("SecretKey(<redacted>)")
    }
}

/// A public group element `g^x`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PublicKey(pub u64);

impl fmt::Display for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pk:{}", hex::encode(&self.0.to_be_bytes()))
    }
}

impl PublicKey {
    /// The key as bytes (big-endian), for hashing into addresses.
    pub fn to_bytes(self) -> [u8; 8] {
        self.0.to_be_bytes()
    }
}

/// A Schnorr signature `(e, s)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    /// Challenge scalar.
    pub e: u64,
    /// Response scalar.
    pub s: u64,
}

impl Signature {
    /// Serializes to 16 bytes (big-endian `e`, then `s`).
    pub fn to_bytes(self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.e.to_be_bytes());
        out[8..].copy_from_slice(&self.s.to_be_bytes());
        out
    }

    /// Parses 16 bytes produced by [`Signature::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Option<Signature> {
        if bytes.len() != 16 {
            return None;
        }
        Some(Signature {
            e: u64::from_be_bytes(bytes[..8].try_into().ok()?),
            s: u64::from_be_bytes(bytes[8..].try_into().ok()?),
        })
    }
}

/// Signature verification failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignatureError;

impl fmt::Display for SignatureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("signature verification failed")
    }
}

impl std::error::Error for SignatureError {}

/// A signing key pair.
///
/// # Example
/// ```
/// use duc_crypto::KeyPair;
/// let kp = KeyPair::from_seed(b"alice");
/// let sig = kp.sign(b"register resource r1");
/// assert!(kp.public().verify(b"register resource r1", &sig).is_ok());
/// assert!(kp.public().verify(b"register resource r2", &sig).is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyPair {
    secret: SecretKey,
    public: PublicKey,
}

fn scalar_from_digest(d: &Digest) -> u64 {
    u64::from_be_bytes(d.as_bytes()[..8].try_into().expect("8 bytes")) % Q
}

impl KeyPair {
    /// Derives a key pair deterministically from seed bytes.
    ///
    /// Identical seeds yield identical keys — convenient for reproducible
    /// simulations where "Alice's key" must be stable across runs.
    pub fn from_seed(seed: &[u8]) -> KeyPair {
        let x = scalar_from_digest(&hmac_sha256(b"duc/keygen", seed)).max(1);
        KeyPair {
            secret: SecretKey {
                scalar: x,
                nonce_key: HmacKey::new(&x.to_be_bytes()),
            },
            public: PublicKey(from_mont(g_pow(x))),
        }
    }

    /// The public half.
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// Signs `message` with a deterministic HMAC-derived nonce.
    pub fn sign(&self, message: &[u8]) -> Signature {
        let x = self.secret.scalar;
        let k = scalar_from_digest(&self.secret.nonce_key.mac(message)).max(1);
        let r = from_mont(g_pow(k));
        let e = challenge(r, self.public, message);
        let s = (k as u128 + e as u128 * x as u128) % Q as u128;
        Signature { e, s: s as u64 }
    }
}

fn challenge(r: u64, public: PublicKey, message: &[u8]) -> u64 {
    let d = hash_parts(&[
        b"duc/schnorr",
        &r.to_be_bytes(),
        &public.to_bytes(),
        message,
    ]);
    scalar_from_digest(&d)
}

impl PublicKey {
    /// Verifies `sig` over `message`.
    ///
    /// The identity `1` and `p − 1` (order 2) are rejected as keys: under
    /// them `P^(q−e)` is `±1` whatever `e` is, so anyone could pick `s`,
    /// set `R = gˢ` and sign. No key derived as `gˣ` is either.
    ///
    /// # Errors
    /// Returns [`SignatureError`] if the signature does not verify.
    pub fn verify(&self, message: &[u8], sig: &Signature) -> Result<(), SignatureError> {
        if sig.e >= Q || sig.s >= Q || self.0 <= 1 || self.0 >= P - 1 {
            return Err(SignatureError);
        }
        // R' = g^s * P^(-e)  =  g^s * P^(q - e)   (P has order q)
        let neg_e = (Q - sig.e) % Q;
        let r_prime = from_mont(mont_mul(g_pow(sig.s), pow_mont(to_mont(self.0), neg_e)));
        if challenge(r_prime, *self, message) == sig.e {
            Ok(())
        } else {
            Err(SignatureError)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The plain kernel the Montgomery ones replaced, kept as their
    /// reference.
    fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
        ((a as u128 * b as u128) % m as u128) as u64
    }

    fn pow_mod(mut base: u64, mut exp: u64, m: u64) -> u64 {
        let mut acc: u64 = 1;
        base %= m;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = mul_mod(acc, base, m);
            }
            base = mul_mod(base, base, m);
            exp >>= 1;
        }
        acc
    }

    /// Deterministic Miller–Rabin, exact for all `n < 2^64`
    /// (witness set due to Sinclair).
    fn is_prime_u64(n: u64) -> bool {
        if n < 2 {
            return false;
        }
        for &p in &[2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
            if n == p {
                return true;
            }
            if n.is_multiple_of(p) {
                return false;
            }
        }
        let mut d = n - 1;
        let mut r = 0u32;
        while d.is_multiple_of(2) {
            d /= 2;
            r += 1;
        }
        'witness: for &a in &[2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
            let mut x = pow_mod(a, d, n);
            if x == 1 || x == n - 1 {
                continue;
            }
            for _ in 0..r - 1 {
                x = mul_mod(x, x, n);
                if x == n - 1 {
                    continue 'witness;
                }
            }
            return false;
        }
        true
    }

    /// The search [`GROUP`] was taken from: the first safe prime
    /// `p = 2q + 1` with `q ≥ 2⁶¹ + 1`, and `g = 4 = 2²`, a quadratic
    /// residue and so of order `q` (it cannot be 1 for `p > 5`).
    fn find_group() -> GroupParams {
        let mut q: u64 = (1u64 << 61) + 1;
        loop {
            if is_prime_u64(q) && is_prime_u64(2 * q + 1) {
                return GroupParams {
                    p: 2 * q + 1,
                    q,
                    g: 4,
                };
            }
            q += 2;
        }
    }

    #[test]
    fn group_params_are_a_safe_prime_group() {
        assert_eq!(
            find_group(),
            GROUP,
            "the constant is what the search derives"
        );
        assert!(is_prime_u64(P));
        assert!(is_prime_u64(Q));
        assert_eq!(P, 2 * Q + 1);
        assert_eq!(pow_mod(GROUP.g, Q, P), 1, "g has order dividing q");
        assert_ne!(GROUP.g, 1);
    }

    #[test]
    fn montgomery_constants() {
        assert_eq!(P.wrapping_mul(P_NEG_INV), u64::MAX, "p·(−p⁻¹) ≡ −1");
        assert_eq!(ONE as u128, (1u128 << 64) % P as u128);
        assert_eq!(from_mont(ONE), 1);
        assert_eq!(from_mont(to_mont(GROUP.g)), GROUP.g);
        for (i, row) in G_TABLE.iter().enumerate() {
            for (j, &entry) in row.iter().enumerate() {
                let exp = (j as u64) << (4 * i);
                assert_eq!(from_mont(entry), pow_mod(GROUP.g, exp, P), "g^({j}·16^{i})");
            }
        }
    }

    #[test]
    fn miller_rabin_known_values() {
        for p in [2u64, 3, 5, 7, 97, 7919, 2_147_483_647] {
            assert!(is_prime_u64(p), "{p} is prime");
        }
        for c in [0u64, 1, 4, 100, 561, 341, 1_000_000] {
            assert!(!is_prime_u64(c), "{c} is composite");
        }
        // Strong pseudoprime to several bases; MR with full witness set
        // must still reject it.
        assert!(!is_prime_u64(3_215_031_751));
    }

    fn bases() -> impl Strategy<Value = u64> {
        prop_oneof![Just(1u64), Just(GROUP.g), Just(P - 1), 0..P]
    }

    fn exponents() -> impl Strategy<Value = u64> {
        prop_oneof![Just(0u64), Just(1), Just(Q - 1), Just(Q), any::<u64>()]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn montgomery_kernels_equal_the_reference(
            a in bases(),
            b in bases(),
            exp in exponents(),
        ) {
            prop_assert_eq!(from_mont(mont_mul(to_mont(a), to_mont(b))), mul_mod(a, b, P));
            prop_assert_eq!(from_mont(g_pow(exp)), pow_mod(GROUP.g, exp, P), "g^{}", exp);
            prop_assert_eq!(
                from_mont(pow_mont(to_mont(a), exp)),
                pow_mod(a, exp, P),
                "{}^{}",
                a,
                exp
            );
        }
    }

    /// Known answers recorded before the arithmetic was rewritten: keys and
    /// signatures are consensus bytes (addresses, tx ids, block hashes), so
    /// any change of kernel must reproduce them exactly.
    #[test]
    fn known_answers() {
        for (seed, public) in [
            (&b"alice"[..], 0x0588_c9cf_e772_c7d1),
            (b"bob", 0x3b38_c328_caf5_0872),
            (b"validator-0", 0x2213_981e_0bdb_86c0),
        ] {
            assert_eq!(KeyPair::from_seed(seed).public(), PublicKey(public));
        }
        let alice = KeyPair::from_seed(b"alice");
        let long: Vec<u8> = (0..300u32).map(|i| (i * 7 + 3) as u8).collect();
        for (msg, e, s) in [
            (&b""[..], 0x152d_6a45_06ef_2893, 0x1cf0_7b47_639f_5df3),
            (b"m", 0x01fd_67f4_5373_a309, 0x1b8c_9085_13ef_780a),
            (&long, 0x1492_107c_235d_41e3, 0x0b26_45bd_b55b_0058),
        ] {
            let sig = alice.sign(msg);
            assert_eq!(sig, Signature { e, s }, "message of {} bytes", msg.len());
            alice
                .public()
                .verify(msg, &sig)
                .expect("known answer verifies");
        }
    }

    /// Under `P = 1` or `P = p − 1`, `P^(q−e)` is `±1`, so `(e, s)` with
    /// `R = gˢ` and `e = H(R, P, m)` satisfies the verification equation
    /// without any secret. The forgery is real — the equation is checked
    /// with the reference kernel — and `verify` must refuse the key.
    #[test]
    fn degenerate_public_keys_cannot_be_forged() {
        for key in [PublicKey(1), PublicKey(P - 1)] {
            let mut forged = None;
            for s in 1..64u64 {
                let r = pow_mod(GROUP.g, s, P);
                let e = challenge(r, key, b"forged");
                let r_prime = mul_mod(pow_mod(GROUP.g, s, P), pow_mod(key.0, (Q - e) % Q, P), P);
                if challenge(r_prime, key, b"forged") == e {
                    forged = Some(Signature { e, s });
                    break;
                }
            }
            let sig = forged.expect("a forgery under a degenerate key takes a few tries");
            assert_eq!(key.verify(b"forged", &sig), Err(SignatureError), "{key}");
        }
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = KeyPair::from_seed(b"alice");
        for msg in [&b"m1"[..], b"", b"a much longer message with content"] {
            let sig = kp.sign(msg);
            kp.public().verify(msg, &sig).expect("valid signature");
        }
    }

    #[test]
    fn wrong_message_rejected() {
        let kp = KeyPair::from_seed(b"alice");
        let sig = kp.sign(b"original");
        assert_eq!(kp.public().verify(b"tampered", &sig), Err(SignatureError));
    }

    #[test]
    fn wrong_key_rejected() {
        let alice = KeyPair::from_seed(b"alice");
        let bob = KeyPair::from_seed(b"bob");
        let sig = alice.sign(b"payload");
        assert!(bob.public().verify(b"payload", &sig).is_err());
    }

    #[test]
    fn mangled_signature_rejected() {
        let kp = KeyPair::from_seed(b"carol");
        let sig = kp.sign(b"payload");
        let bad_e = Signature {
            e: sig.e ^ 1,
            ..sig
        };
        let bad_s = Signature {
            s: sig.s ^ 1,
            ..sig
        };
        assert!(kp.public().verify(b"payload", &bad_e).is_err());
        assert!(kp.public().verify(b"payload", &bad_s).is_err());
    }

    #[test]
    fn out_of_range_signature_rejected() {
        let kp = KeyPair::from_seed(b"dave");
        let sig = Signature { e: Q, s: 0 };
        assert!(kp.public().verify(b"x", &sig).is_err());
    }

    #[test]
    fn deterministic_keys_and_signatures() {
        let a1 = KeyPair::from_seed(b"alice");
        let a2 = KeyPair::from_seed(b"alice");
        assert_eq!(a1.public(), a2.public());
        assert_eq!(a1.sign(b"m"), a2.sign(b"m"));
        assert_ne!(
            a1.sign(b"m"),
            a1.sign(b"n"),
            "different messages, different sigs"
        );
    }

    #[test]
    fn signature_bytes_roundtrip() {
        let kp = KeyPair::from_seed(b"erin");
        let sig = kp.sign(b"bytes");
        let parsed = Signature::from_bytes(&sig.to_bytes()).expect("16 bytes");
        assert_eq!(parsed, sig);
        assert!(Signature::from_bytes(&[0u8; 15]).is_none());
    }

    #[test]
    fn secret_key_debug_is_redacted() {
        let kp = KeyPair::from_seed(b"frank");
        let shown = format!("{kp:?}");
        assert!(shown.contains("redacted"), "{shown}");
        assert!(
            !shown.contains(&kp.secret.scalar.to_string()),
            "scalar leaked: {shown}"
        );
    }

    #[test]
    fn public_key_display_is_stable() {
        let kp = KeyPair::from_seed(b"grace");
        let shown = format!("{}", kp.public());
        assert!(shown.starts_with("pk:"));
        assert_eq!(shown.len(), 3 + 16);
    }
}
