//! Sealed (encrypted-at-rest) copy bytes.

use duc_crypto::{hash_parts, ChaCha20};

use crate::enclave::Enclave;

/// One copy's bytes, sealed to one enclave's sealing key.
///
/// The bytes are encrypted under ChaCha20 with a nonce of their own,
/// derived from the copy's name and the number of seals its trusted
/// application has done, so the host (or a different enclave) sees only
/// ciphertext and sealing a name again never reuses the keystream of what
/// it held before. The nonce is public and kept beside the ciphertext.
#[derive(Debug, Clone)]
pub(crate) struct Sealed {
    nonce: [u8; 12],
    ciphertext: Vec<u8>,
}

impl Sealed {
    /// Seals `plaintext` under `name` as seal number `seal`.
    pub(crate) fn new(enclave: &Enclave, name: &str, seal: u64, plaintext: &[u8]) -> Sealed {
        let d = hash_parts(&[b"duc/seal-nonce", name.as_bytes(), &seal.to_le_bytes()]);
        let nonce: [u8; 12] = d.as_bytes()[..12].try_into().expect("12 bytes");
        let ciphertext = ChaCha20::new(enclave.sealing_key(), nonce).encrypt(plaintext);
        Sealed { nonce, ciphertext }
    }

    /// The plaintext, as `enclave` decrypts it.
    pub(crate) fn open(&self, enclave: &Enclave) -> Vec<u8> {
        ChaCha20::new(enclave.sealing_key(), self.nonce).decrypt(&self.ciphertext)
    }

    /// What the host can observe: the raw ciphertext.
    pub(crate) fn ciphertext(&self) -> &[u8] {
        &self.ciphertext
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessError, TrustedApplication};
    use duc_policy::{Action, Purpose, Rule, UsagePolicy};
    use duc_sim::SimTime;

    fn enclave() -> Enclave {
        Enclave::new("alice-laptop", b"trusted-app-v1")
    }

    fn app() -> TrustedApplication {
        TrustedApplication::new(enclave(), "https://alice.id/me")
    }

    /// Every use permitted for ever: an access returns the plaintext.
    fn store(app: &mut TrustedApplication, name: &str, bytes: &[u8]) {
        let policy = UsagePolicy::builder("urn:p", name, "urn:owner")
            .permit(Rule::permit([Action::Use]))
            .build();
        app.store_resource(name, bytes, policy, SimTime::ZERO);
    }

    fn unseal(app: &mut TrustedApplication, name: &str) -> Result<Vec<u8>, AccessError> {
        app.access(name, Action::Read, Purpose::any(), SimTime::ZERO)
    }

    #[test]
    fn seal_unseal_roundtrip() {
        let mut app = app();
        store(&mut app, "res/medical", b"patient data");
        assert_eq!(unseal(&mut app, "res/medical").unwrap(), b"patient data");
        assert!(app.has_copy("res/medical"));
        assert_eq!(app.resources().count(), 1);
    }

    /// A body the size `lifecycle_mix` publishes plus a ragged tail: whole
    /// eight-block batches, a partial one and a partial block.
    #[test]
    fn seal_unseal_roundtrip_across_cipher_batches() {
        let mut app = app();
        let body: Vec<u8> = (0..4096 + 37).map(|i| (i * 31 + 5) as u8).collect();
        store(&mut app, "res/large", &body);
        assert_eq!(unseal(&mut app, "res/large").unwrap(), body);
        assert_eq!(app.sealed_bytes(), body.len());
    }

    #[test]
    fn host_sees_only_ciphertext() {
        let mut app = app();
        // Short enough for one cipher block, and long enough for the
        // cipher's eight-block batches.
        let short = b"very sensitive payload with structure".to_vec();
        let long = short.repeat(40);
        for secret in [short, long] {
            store(&mut app, "res/x", &secret);
            let visible = app.host_view("res/x").expect("copy held");
            assert_eq!(visible.len(), secret.len());
            assert_ne!(visible, secret);
            // No plaintext substring survives in the ciphertext.
            assert!(!visible
                .windows(b"sensitive".len())
                .any(|w| w == b"sensitive"));
        }
    }

    /// The host keeps what it saw: two plaintexts sealed under one name
    /// must not share a keystream, or `c1 ^ c2 = p1 ^ p2`.
    #[test]
    fn resealing_a_name_does_not_reuse_the_keystream() {
        let mut app = app();
        let first = b"version one of the resource body";
        let second = b"VERSION TWO, after a re-publish!";
        store(&mut app, "res/x", first);
        let c1 = app.host_view("res/x").unwrap().to_vec();
        store(&mut app, "res/x", second);
        let c2 = app.host_view("res/x").unwrap().to_vec();
        let xor = |a: &[u8], b: &[u8]| -> Vec<u8> { a.iter().zip(b).map(|(x, y)| x ^ y).collect() };
        assert_ne!(xor(&c1, &c2), xor(first, second));
        assert_eq!(unseal(&mut app, "res/x").unwrap(), second);
        // Sealing the same bytes again, or after a delete, moves on too.
        store(&mut app, "res/x", second);
        assert_ne!(app.host_view("res/x").unwrap(), c2);
        assert!(app.delete("res/x", SimTime::ZERO));
        store(&mut app, "res/x", second);
        assert_ne!(app.host_view("res/x").unwrap(), c2);
        assert_eq!(unseal(&mut app, "res/x").unwrap(), second);
    }

    #[test]
    fn foreign_enclave_cannot_unseal() {
        let sealed = Sealed::new(&enclave(), "res/x", 0, b"secret");
        let other_code = Enclave::new("alice-laptop", b"other-app");
        let other_device = Enclave::new("mallory-box", b"trusted-app-v1");
        assert_eq!(sealed.open(&enclave()), b"secret");
        assert_ne!(sealed.open(&other_code), b"secret");
        assert_ne!(sealed.open(&other_device), b"secret");
    }

    #[test]
    fn erase_destroys_data() {
        let mut app = app();
        store(&mut app, "res/x", b"secret");
        assert!(app.delete("res/x", SimTime::ZERO));
        assert!(!app.delete("res/x", SimTime::ZERO));
        assert_eq!(unseal(&mut app, "res/x"), Err(AccessError::NoCopy));
        assert!(app.host_view("res/x").is_none());
        assert_eq!(app.sealed_bytes(), 0);
        assert!(!app.has_copy("res/x"));
    }

    #[test]
    fn distinct_entries_use_distinct_nonces() {
        let mut app = app();
        store(&mut app, "a", b"same plaintext");
        store(&mut app, "b", b"same plaintext");
        assert_ne!(app.host_view("a").unwrap(), app.host_view("b").unwrap());
    }

    #[test]
    fn byte_accounting() {
        let mut app = app();
        store(&mut app, "a", &[0u8; 100]);
        store(&mut app, "b", &[0u8; 50]);
        assert_eq!(app.sealed_bytes(), 150);
    }
}
