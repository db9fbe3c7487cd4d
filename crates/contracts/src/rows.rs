//! Compact on-chain row encodings for the DE App's hot tables.
//!
//! The ABI records in [`crate::abi`] are what callers see; they repeat
//! identity strings that already live in the storage key (a pod row knows
//! its owner WebID, a copy row its device) and embed the full
//! [`PolicyEnvelope`] in every pod and resource row. At population scale
//! (E15/E19, 10⁵–10⁶ owners) those repeats dominate resident state.
//!
//! This module defines the rows as *stored*: identity strings are dropped
//! in favour of the key, and policy envelopes move to a shared
//! content-addressed table
//!
//! ```text
//! pol/{digest}  →  PolicyEnvelope   (digest = envelope.digest())
//! ```
//!
//! written idempotently by whichever call introduces the envelope. A row
//! then anchors its policy by [`Digest`] — 32 bytes instead of the full
//! envelope — and the hot mutation paths (`update_policy`,
//! `start_monitoring`) never materialize the envelope at all. View methods
//! reconstruct the exact ABI records from key + row + pol table, so the
//! wire format of every method is unchanged.
//!
//! A monitoring round is stored the same way: a [`RoundRow`] header, a
//! counter of the answers recorded so far, and one [`AnswerRow`] per
//! device that answered, so a submission writes its own row and the
//! counter, never the round. `get_round` reassembles the
//! [`MonitoringRound`] from them.

use duc_blockchain::Address;
use duc_codec::{impl_codec_struct, Decode, DecodeError, Encode, Reader};
use duc_crypto::{Digest, PublicKey, Signature};
use duc_sim::SimTime;

use crate::abi::{
    CopyRecord, EvidenceSubmission, MonitoringRound, PodRecord, PolicyEnvelope, ResourceRecord,
    Subscription,
};

/// A registered pod as stored: the owner WebID lives in the key
/// (`pod/{owner_webid}`), the default policy in the pol table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PodRow {
    /// The owner's chain address (authorization identity).
    pub owner_addr: Address,
    /// The pod's web reference.
    pub web_ref: String,
    /// Digest of the default policy envelope (pol-table key).
    pub policy: Digest,
    /// Registration block time.
    pub registered_at: SimTime,
}

impl PodRow {
    /// Reconstructs the ABI record from key identity + pol-table envelope.
    pub(crate) fn into_record(
        self,
        owner_webid: String,
        default_policy: PolicyEnvelope,
    ) -> PodRecord {
        PodRecord {
            owner_webid,
            owner_addr: self.owner_addr,
            web_ref: self.web_ref,
            default_policy,
            registered_at: self.registered_at,
        }
    }
}

impl_codec_struct!(PodRow {
    owner_addr,
    web_ref,
    policy,
    registered_at as (SimTime::as_nanos, SimTime::from_nanos),
});

/// A resource as stored: the IRI lives in the key (`res/{resource}`), the
/// policy in the pol table, and the location collapses to `None` when it
/// equals the IRI. The on-chain policy hash IS `policy` — the pol table is
/// content-addressed — so the separate `policy_hash` field vanishes too.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceRow {
    /// Physical location, or `None` when identical to the resource IRI.
    pub location: Option<String>,
    /// The owner's WebID.
    pub owner_webid: String,
    /// The owner's chain address.
    pub owner_addr: Address,
    /// Free-form metadata pairs.
    pub metadata: Vec<(String, String)>,
    /// Digest of the governing policy envelope (pol-table key, and the
    /// hash devices verify pushed updates against).
    pub policy: Digest,
    /// Policy version (monotonic).
    pub policy_version: u64,
    /// Registration block time.
    pub registered_at: SimTime,
}

impl ResourceRow {
    /// Collapses `location` against the resource IRI.
    pub(crate) fn encode_location(resource: &str, location: String) -> Option<String> {
        if location == resource {
            None
        } else {
            Some(location)
        }
    }

    /// Reconstructs the ABI record from key identity + pol-table envelope.
    pub(crate) fn into_record(self, resource: String, policy: PolicyEnvelope) -> ResourceRecord {
        ResourceRecord {
            location: self.location.unwrap_or_else(|| resource.clone()),
            resource,
            owner_webid: self.owner_webid,
            owner_addr: self.owner_addr,
            metadata: self.metadata,
            policy,
            policy_hash: self.policy,
            policy_version: self.policy_version,
            registered_at: self.registered_at,
        }
    }
}

impl_codec_struct!(ResourceRow {
    location,
    owner_webid,
    owner_addr,
    metadata,
    policy,
    policy_version,
    registered_at as (SimTime::as_nanos, SimTime::from_nanos),
});

/// A copy as stored: the device name lives in the key
/// (`copy/{resource}\0{device}`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CopyRow {
    /// WebID of the consumer operating the device.
    pub holder_webid: String,
    /// The device's attestation public key.
    pub attestation_key: PublicKey,
    /// When the copy was registered.
    pub registered_at: SimTime,
}

impl CopyRow {
    /// Reconstructs the ABI record from the key's device suffix.
    pub(crate) fn into_record(self, device: String) -> CopyRecord {
        CopyRecord {
            device,
            holder_webid: self.holder_webid,
            attestation_key: self.attestation_key,
            registered_at: self.registered_at,
        }
    }
}

impl_codec_struct!(CopyRow {
    holder_webid,
    attestation_key,
    registered_at as (SimTime::as_nanos, SimTime::from_nanos),
});

/// A subscription as stored: the WebID lives in the key (`sub/{webid}`).
/// The companion `cert/{digest}` slot shrinks to an empty existence
/// marker — `verify_certificate` needs the subscription row anyway, and
/// its `certificate` field already names the unique valid certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubRow {
    /// Subscriber chain address.
    pub addr: Address,
    /// Certificate identifier.
    pub certificate: Digest,
    /// Payment time.
    pub paid_at: SimTime,
    /// Expiry time.
    pub valid_until: SimTime,
}

impl SubRow {
    /// Reconstructs the ABI record from the key's WebID.
    pub(crate) fn into_record(self, webid: String) -> Subscription {
        Subscription {
            webid,
            addr: self.addr,
            certificate: self.certificate,
            paid_at: self.paid_at,
            valid_until: self.valid_until,
        }
    }

    /// Whether the certificate is valid at `now` (mirrors
    /// [`Subscription::valid_at`]).
    pub fn valid_at(&self, now: SimTime) -> bool {
        now < self.valid_until
    }
}

impl_codec_struct!(SubRow {
    addr,
    certificate,
    paid_at as (SimTime::as_nanos, SimTime::from_nanos),
    valid_until as (SimTime::as_nanos, SimTime::from_nanos),
});

/// A monitoring round's header as stored: the resource and the round
/// number live in the key (`round/{resource}\0{round}`), and the answers
/// in rows of their own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRow {
    /// Who opened the round.
    pub requested_by: Address,
    /// When the round opened.
    pub started_at: SimTime,
    /// Devices expected to answer, in key order: the copies registered
    /// when the round opened.
    pub expected_devices: Vec<String>,
}

impl RoundRow {
    /// Whether `device` is expected to answer (the list is in key order).
    pub(crate) fn expects(&self, device: &str) -> bool {
        self.expected_devices
            .binary_search_by(|d| d.as_str().cmp(device))
            .is_ok()
    }

    /// Reassembles the ABI record from the key's identity and the answer
    /// rows as `(device, row)` in submission order; the round is closed
    /// once every expected device answered.
    pub(crate) fn into_record(
        self,
        resource: String,
        round: u64,
        answers: Vec<(String, AnswerRow)>,
    ) -> MonitoringRound {
        let closed = answers.len() == self.expected_devices.len();
        let mut evidence = Vec::new();
        let mut reaffirmed = Vec::new();
        for (device, row) in answers {
            match row.answer {
                Answer::Evidence {
                    compliant,
                    violations,
                    evidence_digest,
                    signature,
                } => evidence.push(EvidenceSubmission {
                    resource: resource.clone(),
                    round,
                    device,
                    compliant,
                    violations,
                    evidence_digest,
                    signature,
                }),
                Answer::Reaffirmed { prev_round } => reaffirmed.push((device, prev_round)),
            }
        }
        MonitoringRound {
            round,
            resource,
            requested_by: self.requested_by,
            started_at: self.started_at,
            expected_devices: self.expected_devices,
            evidence,
            reaffirmed,
            closed,
        }
    }
}

impl_codec_struct!(RoundRow {
    requested_by,
    started_at as (SimTime::as_nanos, SimTime::from_nanos),
    expected_devices,
});

/// How a device answered a round. The resource, round and device live in
/// the answer row's key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// Full evidence: an [`EvidenceSubmission`] less what its key holds.
    Evidence {
        /// The device's own compliance verdict.
        compliant: bool,
        /// Human-readable violation descriptions (empty when compliant).
        violations: Vec<String>,
        /// Digest of the usage log backing the evidence.
        evidence_digest: Digest,
        /// Enclave signature over the submission.
        signature: Signature,
    },
    /// A verified reaffirmation of the device's evidence in `prev_round`.
    Reaffirmed {
        /// The earlier round whose evidence still stands.
        prev_round: u64,
    },
}

impl Encode for Answer {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Answer::Evidence {
                compliant,
                violations,
                evidence_digest,
                signature,
            } => {
                buf.push(0);
                compliant.encode(buf);
                violations.encode(buf);
                evidence_digest.encode(buf);
                signature.encode(buf);
            }
            Answer::Reaffirmed { prev_round } => {
                buf.push(1);
                prev_round.encode(buf);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            Answer::Evidence {
                compliant,
                violations,
                evidence_digest,
                signature,
            } => {
                compliant.encoded_len()
                    + violations.encoded_len()
                    + evidence_digest.encoded_len()
                    + signature.encoded_len()
            }
            Answer::Reaffirmed { prev_round } => prev_round.encoded_len(),
        }
    }
}

impl Decode for Answer {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.read_u8()? {
            0 => Answer::Evidence {
                compliant: bool::decode(r)?,
                violations: Vec::decode(r)?,
                evidence_digest: Digest::decode(r)?,
                signature: Signature::decode(r)?,
            },
            1 => Answer::Reaffirmed {
                prev_round: u64::decode(r)?,
            },
            tag => {
                return Err(DecodeError::InvalidTag {
                    tag,
                    type_name: "Answer",
                })
            }
        })
    }
}

/// One device's answer to a round as stored at
/// `round/{resource}\0{round}\0{device}`, beside the round's header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnswerRow {
    /// The answer's place in the round's submission order, from 0.
    pub ordinal: u32,
    /// What the device answered.
    pub answer: Answer,
}

impl_codec_struct!(AnswerRow { ordinal, answer });

#[cfg(test)]
mod tests {
    use super::*;
    use duc_codec::{decode_from_slice, encode_to_vec};
    use duc_policy::UsagePolicy;

    fn envelope() -> PolicyEnvelope {
        PolicyEnvelope::plain(&UsagePolicy::default_for("urn:res", "urn:owner"))
    }

    #[test]
    fn rows_roundtrip_and_rebuild_records() {
        let env = envelope();
        let pod = PodRow {
            owner_addr: Address::from_seed(b"alice"),
            web_ref: "https://alice.pod/".into(),
            policy: env.digest(),
            registered_at: SimTime::from_secs(4),
        };
        let back: PodRow = decode_from_slice(&encode_to_vec(&pod)).unwrap();
        assert_eq!(back, pod);
        let rec = back.into_record("https://alice.id/me".into(), env.clone());
        assert_eq!(rec.owner_webid, "https://alice.id/me");
        assert_eq!(rec.default_policy, env);

        let row = ResourceRow {
            location: ResourceRow::encode_location("urn:res", "urn:res".into()),
            owner_webid: "https://alice.id/me".into(),
            owner_addr: Address::from_seed(b"alice"),
            metadata: vec![("domain".into(), "health".into())],
            policy: env.digest(),
            policy_version: 3,
            registered_at: SimTime::from_secs(5),
        };
        assert_eq!(row.location, None, "same-as-IRI location collapses");
        let back: ResourceRow = decode_from_slice(&encode_to_vec(&row)).unwrap();
        let rec = back.into_record("urn:res".into(), env.clone());
        assert_eq!(rec.location, "urn:res", "None expands back to the IRI");
        assert_eq!(rec.policy_hash, env.digest());
        assert_eq!(rec.policy_version, 3);

        let distinct = ResourceRow::encode_location("urn:res", "https://a.pod/r".into());
        assert_eq!(distinct.as_deref(), Some("https://a.pod/r"));

        let sub = SubRow {
            addr: Address::from_seed(b"carol"),
            certificate: env.digest(),
            paid_at: SimTime::from_secs(1),
            valid_until: SimTime::from_secs(100),
        };
        let back: SubRow = decode_from_slice(&encode_to_vec(&sub)).unwrap();
        assert!(back.valid_at(SimTime::from_secs(99)));
        assert!(!back.valid_at(SimTime::from_secs(100)));
        assert_eq!(back.into_record("urn:carol".into()).webid, "urn:carol");
    }

    #[test]
    fn compact_rows_are_smaller_than_abi_records() {
        let env = envelope();
        let row = PodRow {
            owner_addr: Address::from_seed(b"alice"),
            web_ref: "https://alice.pod/".into(),
            policy: env.digest(),
            registered_at: SimTime::from_secs(4),
        };
        let record = row
            .clone()
            .into_record("https://alice.id/me".into(), env.clone());
        let row_len = row.encoded_len();
        let rec_len = record.encoded_len();
        assert!(
            row_len + 32 < rec_len,
            "pod row ({row_len}B) should undercut the ABI record ({rec_len}B) \
             even counting the 32-byte digest twice"
        );
    }
}
