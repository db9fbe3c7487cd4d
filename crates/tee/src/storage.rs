//! Trusted data storage: sealed (encrypted-at-rest) blobs.

use duc_crypto::{hash_parts, ChaCha20};

use crate::enclave::Enclave;

/// Sealed storage bound to one enclave's sealing key.
///
/// Each entry is encrypted under ChaCha20 with a nonce of its own, derived
/// from the entry name and the number of seals this storage has done, so
/// the host (or a different enclave) sees only ciphertext and sealing a
/// name again never reuses the keystream of what it held before. The nonce
/// is public and kept beside the ciphertext.
///
/// A device holds one to a few copies, so the entries sit in one `Vec`
/// sorted by name and searched by binary search, not in a tree whose first
/// node has room for eleven.
#[derive(Debug, Clone, Default)]
pub struct TrustedDataStorage {
    /// Sorted by `name`, no two alike.
    sealed: Vec<SealedEntry>,
    /// Seals done so far; never decreases, erasures included.
    seals: u64,
}

#[derive(Debug, Clone)]
struct SealedEntry {
    name: String,
    nonce: [u8; 12],
    ciphertext: Vec<u8>,
}

impl TrustedDataStorage {
    /// Creates empty storage.
    pub fn new() -> TrustedDataStorage {
        TrustedDataStorage::default()
    }

    /// Where `name` is, or would be inserted.
    fn find(&self, name: &str) -> Result<usize, usize> {
        self.sealed.binary_search_by(|e| e.name.as_str().cmp(name))
    }

    fn get(&self, name: &str) -> Option<&SealedEntry> {
        self.find(name).ok().map(|i| &self.sealed[i])
    }

    /// Seals `plaintext` under `name`, replacing what the name held.
    pub fn seal(&mut self, enclave: &Enclave, name: &str, plaintext: &[u8]) {
        let d = hash_parts(&[
            b"duc/seal-nonce",
            name.as_bytes(),
            &self.seals.to_le_bytes(),
        ]);
        self.seals += 1;
        let nonce: [u8; 12] = d.as_bytes()[..12].try_into().expect("12 bytes");
        let ciphertext = ChaCha20::new(enclave.sealing_key(), nonce).encrypt(plaintext);
        match self.find(name) {
            Ok(i) => {
                let entry = &mut self.sealed[i];
                entry.nonce = nonce;
                entry.ciphertext = ciphertext;
            }
            Err(i) => self.sealed.insert(
                i,
                SealedEntry {
                    name: name.to_string(),
                    nonce,
                    ciphertext,
                },
            ),
        }
    }

    /// Unseals the entry under `name`.
    pub fn unseal(&self, enclave: &Enclave, name: &str) -> Option<Vec<u8>> {
        let entry = self.get(name)?;
        Some(ChaCha20::new(enclave.sealing_key(), entry.nonce).decrypt(&entry.ciphertext))
    }

    /// Securely deletes an entry; returns whether it existed.
    pub fn erase(&mut self, name: &str) -> bool {
        self.find(name).map(|i| self.sealed.remove(i)).is_ok()
    }

    /// Whether an entry exists.
    pub fn contains(&self, name: &str) -> bool {
        self.find(name).is_ok()
    }

    /// Number of sealed entries.
    pub fn len(&self) -> usize {
        self.sealed.len()
    }

    /// Whether storage is empty.
    pub fn is_empty(&self) -> bool {
        self.sealed.is_empty()
    }

    /// What the *host* operating system can observe: raw ciphertext.
    pub fn host_view(&self, name: &str) -> Option<&[u8]> {
        self.get(name).map(|e| e.ciphertext.as_slice())
    }

    /// Total sealed bytes (ciphertext; nonces are not counted).
    pub fn total_bytes(&self) -> usize {
        self.sealed.iter().map(|e| e.ciphertext.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enclave() -> Enclave {
        Enclave::new("alice-laptop", b"trusted-app-v1")
    }

    #[test]
    fn seal_unseal_roundtrip() {
        let e = enclave();
        let mut s = TrustedDataStorage::new();
        s.seal(&e, "res/medical", b"patient data");
        assert_eq!(s.unseal(&e, "res/medical").unwrap(), b"patient data");
        assert!(s.contains("res/medical"));
        assert_eq!(s.len(), 1);
    }

    /// A body the size `lifecycle_mix` publishes plus a ragged tail: whole
    /// eight-block batches, a partial one and a partial block.
    #[test]
    fn seal_unseal_roundtrip_across_cipher_batches() {
        let e = enclave();
        let mut s = TrustedDataStorage::new();
        let body: Vec<u8> = (0..4096 + 37).map(|i| (i * 31 + 5) as u8).collect();
        s.seal(&e, "res/large", &body);
        assert_eq!(s.unseal(&e, "res/large").unwrap(), body);
        assert_eq!(s.total_bytes(), body.len());
    }

    #[test]
    fn host_sees_only_ciphertext() {
        let e = enclave();
        let mut s = TrustedDataStorage::new();
        // Short enough for one cipher block, and long enough for the
        // cipher's eight-block batches.
        let short = b"very sensitive payload with structure".to_vec();
        let long = short.repeat(40);
        for secret in [short, long] {
            s.seal(&e, "res/x", &secret);
            let visible = s.host_view("res/x").expect("entry exists");
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
        let e = enclave();
        let mut s = TrustedDataStorage::new();
        let first = b"version one of the resource body";
        let second = b"VERSION TWO, after a re-publish!";
        s.seal(&e, "res/x", first);
        let c1 = s.host_view("res/x").unwrap().to_vec();
        s.seal(&e, "res/x", second);
        let c2 = s.host_view("res/x").unwrap().to_vec();
        let xor = |a: &[u8], b: &[u8]| -> Vec<u8> { a.iter().zip(b).map(|(x, y)| x ^ y).collect() };
        assert_ne!(xor(&c1, &c2), xor(first, second));
        assert_eq!(s.unseal(&e, "res/x").unwrap(), second);
        // Sealing the same bytes again, or after an erase, moves on too.
        s.seal(&e, "res/x", second);
        assert_ne!(s.host_view("res/x").unwrap(), c2);
        assert!(s.erase("res/x"));
        s.seal(&e, "res/x", second);
        assert_ne!(s.host_view("res/x").unwrap(), c2);
        assert_eq!(s.unseal(&e, "res/x").unwrap(), second);
    }

    #[test]
    fn foreign_enclave_cannot_unseal() {
        let alice = enclave();
        let other_code = Enclave::new("alice-laptop", b"other-app");
        let other_device = Enclave::new("mallory-box", b"trusted-app-v1");
        let mut s = TrustedDataStorage::new();
        s.seal(&alice, "res/x", b"secret");
        assert_ne!(s.unseal(&other_code, "res/x").unwrap(), b"secret");
        assert_ne!(s.unseal(&other_device, "res/x").unwrap(), b"secret");
    }

    #[test]
    fn erase_destroys_data() {
        let e = enclave();
        let mut s = TrustedDataStorage::new();
        s.seal(&e, "res/x", b"secret");
        assert!(s.erase("res/x"));
        assert!(!s.erase("res/x"));
        assert!(s.unseal(&e, "res/x").is_none());
        assert!(s.host_view("res/x").is_none());
        assert!(s.is_empty());
    }

    #[test]
    fn distinct_entries_use_distinct_nonces() {
        let e = enclave();
        let mut s = TrustedDataStorage::new();
        s.seal(&e, "a", b"same plaintext");
        s.seal(&e, "b", b"same plaintext");
        assert_ne!(s.host_view("a").unwrap(), s.host_view("b").unwrap());
    }

    #[test]
    fn byte_accounting() {
        let e = enclave();
        let mut s = TrustedDataStorage::new();
        s.seal(&e, "a", &[0u8; 100]);
        s.seal(&e, "b", &[0u8; 50]);
        assert_eq!(s.total_bytes(), 150);
    }
}
