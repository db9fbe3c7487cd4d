//! Remote attestation.
//!
//! A [`Quote`] binds an enclave's measurement and attestation public key,
//! countersigned by the [`AttestationAuthority`] — the simulation's stand-in
//! for the hardware vendor's attestation service (e.g. Intel IAS). Remote
//! parties trust the authority's public key and therefore any quoted
//! enclave key.

use duc_crypto::{quote_signing_bytes, Digest, KeyPair, PublicKey, Signature};

use crate::enclave::Enclave;

/// An attestation quote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quote {
    /// The quoted device.
    pub device: String,
    /// The enclave's code measurement.
    pub measurement: Digest,
    /// The enclave's attestation public key.
    pub enclave_key: PublicKey,
    /// Authority countersignature.
    pub signature: Signature,
}

impl Quote {
    /// The bytes the authority signs ([`quote_signing_bytes`]), which the
    /// DE App checks when the quoted enclave's copy is registered.
    pub fn signing_bytes(&self) -> Vec<u8> {
        quote_signing_bytes(&self.device, &self.measurement, &self.enclave_key)
    }
}

/// The attestation authority (hardware-vendor root of trust).
#[derive(Debug, Clone)]
pub struct AttestationAuthority {
    keys: KeyPair,
    /// Measurements the authority recognizes as genuine trusted apps.
    trusted_measurements: Vec<Digest>,
}

impl AttestationAuthority {
    /// Creates an authority from a seed.
    pub fn new(seed: &[u8]) -> AttestationAuthority {
        AttestationAuthority {
            keys: KeyPair::from_seed(seed),
            trusted_measurements: Vec::new(),
        }
    }

    /// The authority's public key (baked into verifiers).
    pub fn public_key(&self) -> PublicKey {
        self.keys.public()
    }

    /// Whitelists a code measurement.
    pub fn trust_measurement(&mut self, measurement: Digest) {
        if !self.trusted_measurements.contains(&measurement) {
            self.trusted_measurements.push(measurement);
        }
    }

    /// Issues a quote for an enclave.
    ///
    /// # Errors
    /// Returns `Err(())`-like `None` when the enclave's measurement is not
    /// whitelisted (an unrecognized — possibly malicious — application).
    pub fn issue_quote(&self, enclave: &Enclave) -> Option<Quote> {
        if !self.trusted_measurements.contains(&enclave.measurement()) {
            return None;
        }
        let mut quote = Quote {
            device: enclave.device().to_string(),
            measurement: enclave.measurement(),
            enclave_key: enclave.attestation_public_key(),
            signature: Signature { e: 0, s: 0 },
        };
        quote.signature = self.keys.sign(&quote.signing_bytes());
        Some(quote)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verifies(authority_key: &PublicKey, quote: &Quote) -> bool {
        authority_key
            .verify(&quote.signing_bytes(), &quote.signature)
            .is_ok()
    }

    fn setup() -> (AttestationAuthority, Enclave) {
        let enclave = Enclave::new("alice-laptop", b"trusted-app-v1");
        let mut authority = AttestationAuthority::new(b"vendor-root");
        authority.trust_measurement(enclave.measurement());
        (authority, enclave)
    }

    #[test]
    fn quote_issuance_and_verification() {
        let (authority, enclave) = setup();
        let quote = authority.issue_quote(&enclave).expect("whitelisted");
        assert!(verifies(&authority.public_key(), &quote));
        assert_eq!(quote.enclave_key, enclave.attestation_public_key());
    }

    #[test]
    fn unknown_measurement_is_refused() {
        let (authority, _) = setup();
        let rogue = Enclave::new("mallory-box", b"malicious-app");
        assert!(authority.issue_quote(&rogue).is_none());
    }

    #[test]
    fn tampered_quote_fails_verification() {
        let (authority, enclave) = setup();
        let mut quote = authority.issue_quote(&enclave).unwrap();
        quote.device = "other-device".into();
        assert!(!verifies(&authority.public_key(), &quote));
    }

    #[test]
    fn quote_from_wrong_authority_fails() {
        let (_, enclave) = setup();
        let mut fake_authority = AttestationAuthority::new(b"fake-root");
        fake_authority.trust_measurement(enclave.measurement());
        let quote = fake_authority.issue_quote(&enclave).unwrap();
        let real = AttestationAuthority::new(b"vendor-root");
        assert!(!verifies(&real.public_key(), &quote));
    }

    #[test]
    fn duplicate_whitelisting_is_idempotent() {
        let (mut authority, enclave) = setup();
        authority.trust_measurement(enclave.measurement());
        authority.trust_measurement(enclave.measurement());
        assert!(authority.issue_quote(&enclave).is_some());
    }
}
