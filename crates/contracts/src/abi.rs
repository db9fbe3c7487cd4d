//! On-chain data types and the contract ABI.
//!
//! Everything here crosses the contract boundary, so every type carries a
//! canonical [`duc_codec`] encoding.

use duc_codec::{encode_without_signature, impl_codec_struct, DecodeError};
use duc_crypto::{ChaCha20, Digest, PublicKey, Signature};
use duc_policy::UsagePolicy;
use duc_sim::SimTime;

use duc_blockchain::Address;

/// A usage policy as stored on-chain: either plaintext or ChaCha20
/// ciphertext (the privacy experiment E9 compares the two).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyEnvelope {
    /// Whether `bytes` is encrypted.
    pub encrypted: bool,
    /// `duc_codec`-encoded [`UsagePolicy`], possibly encrypted.
    pub bytes: Vec<u8>,
}

impl PolicyEnvelope {
    /// Wraps a policy in plaintext.
    pub fn plain(policy: &UsagePolicy) -> PolicyEnvelope {
        PolicyEnvelope {
            encrypted: false,
            bytes: duc_codec::encode_to_vec(policy),
        }
    }

    /// Wraps a policy encrypted under `key`/`nonce`.
    pub fn sealed(policy: &UsagePolicy, key: [u8; 32], nonce: [u8; 12]) -> PolicyEnvelope {
        let cipher = ChaCha20::new(key, nonce);
        PolicyEnvelope {
            encrypted: true,
            bytes: cipher.encrypt(&duc_codec::encode_to_vec(policy)),
        }
    }

    /// Opens a plaintext envelope.
    ///
    /// # Errors
    /// Fails when the envelope is encrypted or the bytes are corrupt.
    pub fn open_plain(&self) -> Result<UsagePolicy, DecodeError> {
        if self.encrypted {
            return Err(DecodeError::Invalid("envelope is encrypted"));
        }
        duc_codec::decode_from_slice(&self.bytes)
    }

    /// Opens an encrypted envelope with the decryption key.
    ///
    /// # Errors
    /// Fails when the envelope is plaintext-marked or decryption yields
    /// garbage (wrong key).
    pub(crate) fn open_sealed(
        &self,
        key: [u8; 32],
        nonce: [u8; 12],
    ) -> Result<UsagePolicy, DecodeError> {
        if !self.encrypted {
            return Err(DecodeError::Invalid("envelope is not encrypted"));
        }
        let cipher = ChaCha20::new(key, nonce);
        duc_codec::decode_from_slice(&cipher.decrypt(&self.bytes))
    }

    /// Opens with an optional key, dispatching on the encryption flag.
    ///
    /// # Errors
    /// Fails when an encrypted envelope is opened without a key, or on
    /// corrupt bytes.
    pub fn open(&self, key: Option<([u8; 32], [u8; 12])>) -> Result<UsagePolicy, DecodeError> {
        match (self.encrypted, key) {
            (false, _) => self.open_plain(),
            (true, Some((k, n))) => self.open_sealed(k, n),
            (true, None) => Err(DecodeError::Invalid("missing decryption key")),
        }
    }

    /// Envelope size in bytes (gas/privacy experiments).
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the envelope is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

impl_codec_struct!(PolicyEnvelope { encrypted, bytes });

/// A registered pod.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PodRecord {
    /// The owner's WebID.
    pub owner_webid: String,
    /// The owner's chain address (authorization identity).
    pub owner_addr: Address,
    /// The pod's web reference (where the pod manager listens).
    pub web_ref: String,
    /// The pod's default usage policy.
    pub default_policy: PolicyEnvelope,
    /// Registration block time.
    pub registered_at: SimTime,
}

impl_codec_struct!(PodRecord {
    owner_webid,
    owner_addr,
    web_ref,
    default_policy,
    registered_at as (SimTime::as_nanos, SimTime::from_nanos),
});

/// A resource in the index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceRecord {
    /// The resource IRI (index key).
    pub resource: String,
    /// Physical location (URL under the owning pod).
    pub location: String,
    /// The owner's WebID.
    pub owner_webid: String,
    /// The owner's chain address.
    pub owner_addr: Address,
    /// Free-form metadata pairs shown in the market.
    pub metadata: Vec<(String, String)>,
    /// The governing usage policy.
    pub policy: PolicyEnvelope,
    /// Digest anchoring the exact policy bytes on-chain: devices verify a
    /// pushed update against it before recompiling their local program.
    pub policy_hash: Digest,
    /// Policy version (monotonic; the contract enforces increments).
    pub policy_version: u64,
    /// Registration block time.
    pub registered_at: SimTime,
}

impl PolicyEnvelope {
    /// The digest anchored on-chain for this envelope's exact bytes.
    pub fn digest(&self) -> Digest {
        duc_crypto::hash_parts(&[b"duc/policy-envelope", &[self.encrypted as u8], &self.bytes])
    }
}

impl_codec_struct!(ResourceRecord {
    resource,
    location,
    owner_webid,
    owner_addr,
    metadata,
    policy,
    policy_hash,
    policy_version,
    registered_at as (SimTime::as_nanos, SimTime::from_nanos),
});

/// A device holding a copy of a resource.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CopyRecord {
    /// Device identifier (the TEE's logical name).
    pub device: String,
    /// WebID of the consumer operating the device.
    pub holder_webid: String,
    /// The device's attestation public key (evidence must verify against
    /// it).
    pub attestation_key: PublicKey,
    /// When the copy was registered.
    pub registered_at: SimTime,
}

impl_codec_struct!(CopyRecord {
    device,
    holder_webid,
    attestation_key,
    registered_at as (SimTime::as_nanos, SimTime::from_nanos),
});

/// Evidence a device submits during a monitoring round.
///
/// The signature covers `(resource, round, device, compliant, violations,
/// evidence_digest)` and must verify against the device's registered
/// attestation key — a forged or replayed submission is rejected on-chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvidenceSubmission {
    /// The audited resource.
    pub resource: String,
    /// The round this evidence answers.
    pub round: u64,
    /// The submitting device.
    pub device: String,
    /// The device's own compliance verdict.
    pub compliant: bool,
    /// Human-readable violation descriptions (empty when compliant).
    pub violations: Vec<String>,
    /// Digest of the full usage log backing this evidence.
    pub evidence_digest: Digest,
    /// Enclave signature over the submission.
    pub signature: Signature,
}

impl EvidenceSubmission {
    /// The bytes the enclave signs: the encoding less the signature.
    pub fn signing_bytes(&self) -> Vec<u8> {
        encode_without_signature(self)
    }
}

// The signature is listed last: `signing_bytes` is this encoding less it.
impl_codec_struct!(EvidenceSubmission {
    resource,
    round,
    device,
    compliant,
    violations,
    evidence_digest,
    signature
});

/// A lightweight follow-up to a prior [`EvidenceSubmission`]: the device
/// attests that its usage log (hence its verdict) is unchanged since
/// `prev_round`, so the contract copies the prior evidence into the new
/// round instead of shipping and storing the full submission again — the
/// incremental-monitoring path.
///
/// The signature covers `(resource, round, device, prev_round,
/// evidence_digest)` and must verify against the device's registered
/// attestation key, so a reaffirmation cannot be forged or replayed into a
/// different round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvidenceReaffirmation {
    /// The audited resource.
    pub resource: String,
    /// The round this reaffirmation answers.
    pub round: u64,
    /// The submitting device.
    pub device: String,
    /// The earlier round whose evidence still stands.
    pub prev_round: u64,
    /// The (unchanged) usage-log digest.
    pub evidence_digest: Digest,
    /// Enclave signature over the reaffirmation.
    pub signature: Signature,
}

impl EvidenceReaffirmation {
    /// The bytes the enclave signs: the encoding less the signature.
    pub fn signing_bytes(&self) -> Vec<u8> {
        encode_without_signature(self)
    }
}

// The signature is listed last: `signing_bytes` is this encoding less it.
impl_codec_struct!(EvidenceReaffirmation {
    resource,
    round,
    device,
    prev_round,
    evidence_digest,
    signature
});

/// The state of one monitoring round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitoringRound {
    /// Round number (per resource, starting at 1).
    pub round: u64,
    /// The audited resource.
    pub resource: String,
    /// Who asked for the round (pod manager's chain address).
    pub requested_by: Address,
    /// When the round opened.
    pub started_at: SimTime,
    /// Devices expected to answer (copies registered at open time).
    pub expected_devices: Vec<String>,
    /// Evidence received so far.
    pub evidence: Vec<EvidenceSubmission>,
    /// Compliant devices that reaffirmed earlier evidence instead of
    /// resubmitting: `(device, prev_round)` pairs. Kept compact so rounds
    /// over unchanged copies stay cheap to store.
    pub reaffirmed: Vec<(String, u64)>,
    /// Whether the round has been closed.
    pub closed: bool,
}

impl MonitoringRound {
    /// Whether every expected device has answered (full evidence or a
    /// verified reaffirmation).
    pub fn complete(&self) -> bool {
        self.expected_devices.iter().all(|d| {
            self.evidence.iter().any(|e| &e.device == d)
                || self.reaffirmed.iter().any(|(r, _)| r == d)
        })
    }

    /// Devices that reported violations.
    pub fn violators(&self) -> Vec<&EvidenceSubmission> {
        self.evidence.iter().filter(|e| !e.compliant).collect()
    }
}

impl_codec_struct!(MonitoringRound {
    round,
    resource,
    requested_by,
    started_at as (SimTime::as_nanos, SimTime::from_nanos),
    expected_devices,
    evidence,
    reaffirmed,
    closed,
});

/// A market subscription with its payment certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subscription {
    /// Subscriber WebID.
    pub webid: String,
    /// Subscriber chain address.
    pub addr: Address,
    /// Certificate identifier (presented to pod managers).
    pub certificate: Digest,
    /// Payment time.
    pub paid_at: SimTime,
    /// Expiry time.
    pub valid_until: SimTime,
}

impl Subscription {
    /// Whether the certificate is valid at `now`.
    pub fn valid_at(&self, now: SimTime) -> bool {
        now < self.valid_until
    }
}

impl_codec_struct!(Subscription {
    webid,
    addr,
    certificate,
    paid_at as (SimTime::as_nanos, SimTime::from_nanos),
    valid_until as (SimTime::as_nanos, SimTime::from_nanos),
});

#[cfg(test)]
mod tests {
    use super::*;
    use duc_codec::{decode_from_slice, encode_to_vec};
    use duc_crypto::KeyPair;
    use duc_policy::UsagePolicy;

    fn policy() -> UsagePolicy {
        UsagePolicy::default_for("urn:res", "urn:owner")
    }

    #[test]
    fn plain_envelope_roundtrip() {
        let env = PolicyEnvelope::plain(&policy());
        assert!(!env.encrypted);
        assert_eq!(env.open_plain().unwrap(), policy());
        assert_eq!(env.open(None).unwrap(), policy());
    }

    #[test]
    fn sealed_envelope_requires_key() {
        let key = [7u8; 32];
        let nonce = [9u8; 12];
        let env = PolicyEnvelope::sealed(&policy(), key, nonce);
        assert!(env.encrypted);
        assert!(env.open(None).is_err());
        assert!(env.open_plain().is_err());
        assert_eq!(env.open(Some((key, nonce))).unwrap(), policy());
        // Wrong key yields garbage that fails to decode.
        assert!(env.open(Some(([0u8; 32], nonce))).is_err());
    }

    #[test]
    fn sealed_is_larger_than_nothing_but_same_size_as_plain() {
        let plain = PolicyEnvelope::plain(&policy());
        let sealed = PolicyEnvelope::sealed(&policy(), [1; 32], [2; 12]);
        assert_eq!(plain.len(), sealed.len(), "stream cipher preserves length");
        assert!(!plain.is_empty());
        assert_ne!(plain.bytes, sealed.bytes);
    }

    #[test]
    fn record_codecs_roundtrip() {
        let pod = PodRecord {
            owner_webid: "https://alice.id/me".into(),
            owner_addr: Address::from_seed(b"alice"),
            web_ref: "https://alice.pod/".into(),
            default_policy: PolicyEnvelope::plain(&policy()),
            registered_at: SimTime::from_secs(4),
        };
        let back: PodRecord = decode_from_slice(&encode_to_vec(&pod)).unwrap();
        assert_eq!(back, pod);

        let res = ResourceRecord {
            resource: "urn:res".into(),
            location: "https://alice.pod/data/r".into(),
            owner_webid: "https://alice.id/me".into(),
            owner_addr: Address::from_seed(b"alice"),
            metadata: vec![("domain".into(), "health".into())],
            policy: PolicyEnvelope::plain(&policy()),
            policy_hash: PolicyEnvelope::plain(&policy()).digest(),
            policy_version: 1,
            registered_at: SimTime::from_secs(5),
        };
        let back: ResourceRecord = decode_from_slice(&encode_to_vec(&res)).unwrap();
        assert_eq!(back, res);
    }

    #[test]
    fn evidence_signature_covers_payload() {
        let enclave = KeyPair::from_seed(b"enclave");
        let mut ev = EvidenceSubmission {
            resource: "urn:res".into(),
            round: 1,
            device: "device-1".into(),
            compliant: true,
            violations: vec![],
            evidence_digest: duc_crypto::sha256(b"log"),
            signature: Signature { e: 0, s: 0 },
        };
        ev.signature = enclave.sign(&ev.signing_bytes());
        assert!(enclave
            .public()
            .verify(&ev.signing_bytes(), &ev.signature)
            .is_ok());
        // Flipping the verdict invalidates the signature.
        ev.compliant = false;
        assert!(enclave
            .public()
            .verify(&ev.signing_bytes(), &ev.signature)
            .is_err());
    }

    #[test]
    fn round_completion_and_violators() {
        let mk = |device: &str, compliant: bool| EvidenceSubmission {
            resource: "urn:r".into(),
            round: 1,
            device: device.into(),
            compliant,
            violations: if compliant {
                vec![]
            } else {
                vec!["late".into()]
            },
            evidence_digest: Digest::ZERO,
            signature: Signature { e: 0, s: 0 },
        };
        let mut round = MonitoringRound {
            round: 1,
            resource: "urn:r".into(),
            requested_by: Address::from_seed(b"pm"),
            started_at: SimTime::ZERO,
            expected_devices: vec!["d1".into(), "d2".into()],
            evidence: vec![mk("d1", true)],
            reaffirmed: Vec::new(),
            closed: false,
        };
        assert!(!round.complete());
        round.evidence.push(mk("d2", false));
        assert!(round.complete());
        assert_eq!(round.violators().len(), 1);
        let back: MonitoringRound = decode_from_slice(&encode_to_vec(&round)).unwrap();
        assert_eq!(back, round);
    }

    #[test]
    fn subscription_validity_window() {
        let sub = Subscription {
            webid: "urn:alice".into(),
            addr: Address::from_seed(b"alice"),
            certificate: duc_crypto::sha256(b"cert"),
            paid_at: SimTime::from_secs(0),
            valid_until: SimTime::from_secs(100),
        };
        assert!(sub.valid_at(SimTime::from_secs(99)));
        assert!(!sub.valid_at(SimTime::from_secs(100)));
        let back: Subscription = decode_from_slice(&encode_to_vec(&sub)).unwrap();
        assert_eq!(back, sub);
    }
}
