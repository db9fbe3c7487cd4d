//! HMAC-SHA-256 (RFC 2104), validated against RFC 4231 test vectors.

use crate::sha256::{sha256, Digest, Sha256};

/// Computes `HMAC-SHA256(key, message)`.
///
/// Used for deterministic Schnorr nonces, TEE sealing-key derivation and
/// attestation MACs.
pub(crate) fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    HmacKey::new(key).mac(message)
}

/// An HMAC-SHA-256 key with its two padded key blocks already compressed,
/// so a MAC under it costs two compressions fewer than [`hmac_sha256`].
/// Holds key material: it has no `Debug`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct HmacKey {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl HmacKey {
    pub(crate) fn new(key: &[u8]) -> HmacKey {
        let mut key_block = [0u8; 64];
        if key.len() > 64 {
            key_block[..32].copy_from_slice(sha256(key).as_bytes());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0x36u8; 64];
        let mut opad = [0x5cu8; 64];
        for i in 0..64 {
            ipad[i] ^= key_block[i];
            opad[i] ^= key_block[i];
        }
        HmacKey {
            inner: Sha256::state_after(&ipad),
            outer: Sha256::state_after(&opad),
        }
    }

    pub(crate) fn mac(&self, message: &[u8]) -> Digest {
        let mut inner = Sha256::resume(self.inner);
        inner.update(message);
        let inner_digest = inner.finalize();
        let mut outer = Sha256::resume(self.outer);
        outer.update(inner_digest.as_bytes());
        outer.finalize()
    }
}

/// Derives a subkey from a master key and a context label (HKDF-like
/// expand-only construction: `HMAC(master, label || 0x01)`).
pub fn derive_key(master: &[u8], label: &[u8]) -> Digest {
    let mut msg = Vec::with_capacity(label.len() + 1);
    msg.extend_from_slice(label);
    msg.push(0x01);
    hmac_sha256(master, &msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    // RFC 4231 test case 1.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let out = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            out.to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    // RFC 4231 test case 2 ("Jefe").
    #[test]
    fn rfc4231_case2() {
        let out = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            out.to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    // RFC 4231 test case 3: 20-byte 0xaa key, 50-byte 0xdd data.
    #[test]
    fn rfc4231_case3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let out = hmac_sha256(&key, &data);
        assert_eq!(
            out.to_hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    // RFC 4231 test case 6: key longer than the block size.
    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaau8; 131];
        let out = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            out.to_hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn different_keys_give_different_macs() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
    }

    #[test]
    fn derive_key_separates_labels() {
        let master = b"master-secret";
        let sealing = derive_key(master, b"tee/sealing");
        let attest = derive_key(master, b"tee/attestation");
        assert_ne!(sealing, attest);
        assert_eq!(sealing, derive_key(master, b"tee/sealing"), "deterministic");
    }
}
