//! A DE App deployment with a test attestation authority, and the quotes
//! `register_copy`'s `QuotedEnclave` rule accepts from it.

// Each test binary uses the part of this module it needs.
#![allow(dead_code)]

use duc_contracts::calls::{RegisterCopy, UnregisterCopy};
use duc_contracts::DistExchange;
use duc_crypto::{hash_parts, quote_signing_bytes, Digest, KeyPair, PublicKey, Signature};
use duc_sim::SimTime;

/// The test attestation authority.
pub fn authority() -> KeyPair {
    KeyPair::from_seed(b"test/attestation-root")
}

/// The trusted application's measurement.
pub fn measurement() -> Digest {
    hash_parts(&[b"test/trusted-app"])
}

/// The DE App trusting [`authority`]'s quotes of [`measurement`].
pub fn dex_app() -> DistExchange {
    DistExchange::new(authority().public(), measurement())
}

/// The authority's quote of `key` as `device`'s enclave key.
pub fn quote(device: &str, key: &PublicKey) -> Signature {
    authority().sign(&quote_signing_bytes(device, &measurement(), key))
}

/// A registration of `device`'s copy of `resource` under a quoted key.
pub fn quoted_copy(
    resource: &str,
    device: &str,
    holder_webid: &str,
    key: &PublicKey,
) -> RegisterCopy {
    RegisterCopy {
        resource: resource.into(),
        device: device.into(),
        holder_webid: holder_webid.into(),
        attestation_key: *key,
        quote: quote(device, key),
    }
}

/// An unregistration of `device`'s copy of `resource`, signed by `enclave`.
pub fn signed_unregister(
    resource: &str,
    device: &str,
    as_of: SimTime,
    enclave: &KeyPair,
) -> UnregisterCopy {
    UnregisterCopy::signed(resource.into(), device.into(), as_of, |b| enclave.sign(b))
}
