//! The enclave: measured identity and key material.

use std::fmt;

use duc_crypto::hmac::derive_key;
use duc_crypto::{hash_parts, Digest, KeyPair, PublicKey, Signature};

/// A simulated hardware enclave.
///
/// Key material is derived deterministically from the device seed and the
/// code measurement, mirroring real TEEs where sealing keys are bound to
/// the measured code identity: a *different* trusted application on the
/// same device cannot unseal this application's data.
#[derive(Clone)]
pub struct Enclave {
    device: String,
    measurement: Digest,
    attestation_keys: KeyPair,
    sealing_key: [u8; 32],
}

impl fmt::Debug for Enclave {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the sealing key (`KeyPair` redacts its own secret).
        f.debug_struct("Enclave")
            .field("device", &self.device)
            .field("measurement", &self.measurement)
            .field("attestation_keys", &self.attestation_keys)
            .field("sealing_key", &"<redacted>")
            .finish()
    }
}

impl Enclave {
    /// Creates an enclave for `device` running code with the given
    /// `code_identity` (hashed into the measurement).
    pub fn new(device: impl Into<String>, code_identity: &[u8]) -> Enclave {
        let device = device.into();
        let measurement = hash_parts(&[b"duc/enclave-measurement", code_identity]);
        let seed = hash_parts(&[
            b"duc/enclave-seed",
            device.as_bytes(),
            measurement.as_bytes(),
        ]);
        let attestation_keys = KeyPair::from_seed(seed.as_bytes());
        let sealing_key = *derive_key(seed.as_bytes(), b"tee/sealing").as_bytes();
        Enclave {
            device,
            measurement,
            attestation_keys,
            sealing_key,
        }
    }

    /// The device name.
    pub fn device(&self) -> &str {
        &self.device
    }

    /// The code measurement.
    pub fn measurement(&self) -> Digest {
        self.measurement
    }

    /// The attestation public key (registered on-chain with each copy).
    pub(crate) fn attestation_public_key(&self) -> PublicKey {
        self.attestation_keys.public()
    }

    /// Signs bytes with the attestation key (compliance evidence).
    pub fn sign(&self, message: &[u8]) -> Signature {
        self.attestation_keys.sign(message)
    }

    /// The sealing key (crate-internal: only trusted storage may see it).
    pub(crate) fn sealing_key(&self) -> [u8; 32] {
        self.sealing_key
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_deterministic() {
        let a = Enclave::new("alice-laptop", b"trusted-app-v1");
        let b = Enclave::new("alice-laptop", b"trusted-app-v1");
        assert_eq!(a.measurement(), b.measurement());
        assert_eq!(a.attestation_public_key(), b.attestation_public_key());
    }

    #[test]
    fn different_code_different_measurement_and_keys() {
        let v1 = Enclave::new("alice-laptop", b"trusted-app-v1");
        let v2 = Enclave::new("alice-laptop", b"trusted-app-v2");
        assert_ne!(v1.measurement(), v2.measurement());
        assert_ne!(v1.attestation_public_key(), v2.attestation_public_key());
        assert_ne!(
            v1.sealing_key(),
            v2.sealing_key(),
            "sealing bound to code identity"
        );
    }

    #[test]
    fn debug_does_not_print_the_sealing_key() {
        let e = Enclave::new("alice-laptop", b"trusted-app-v1");
        let shown = format!("{e:?}");
        assert!(shown.contains("<redacted>"), "{shown}");
        assert!(
            !shown.contains(&duc_crypto::hex::encode(&e.sealing_key())),
            "{shown}"
        );
        // Nor as the byte list a derived `Debug` prints.
        let [a, b, ..] = e.sealing_key();
        assert!(!shown.contains(&format!("{a}, {b}, ")), "{shown}");
    }

    #[test]
    fn different_devices_different_keys() {
        let a = Enclave::new("alice-laptop", b"app");
        let b = Enclave::new("bob-laptop", b"app");
        assert_eq!(
            a.measurement(),
            b.measurement(),
            "same code, same measurement"
        );
        assert_ne!(a.attestation_public_key(), b.attestation_public_key());
    }

    #[test]
    fn signatures_verify_under_attestation_key() {
        let e = Enclave::new("d", b"app");
        let sig = e.sign(b"evidence");
        assert!(e.attestation_public_key().verify(b"evidence", &sig).is_ok());
        assert!(e
            .attestation_public_key()
            .verify(b"tampered", &sig)
            .is_err());
    }
}
