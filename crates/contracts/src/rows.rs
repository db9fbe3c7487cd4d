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

use duc_blockchain::Address;
use duc_codec::{Decode, DecodeError, Encode, Reader};
use duc_crypto::{Digest, PublicKey};
use duc_sim::SimTime;

use crate::abi::{CopyRecord, PodRecord, PolicyEnvelope, ResourceRecord, Subscription};

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

impl Encode for PodRow {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.owner_addr.encode(buf);
        self.web_ref.encode(buf);
        self.policy.encode(buf);
        self.registered_at.as_nanos().encode(buf);
    }
}

impl Decode for PodRow {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(PodRow {
            owner_addr: Address::decode(r)?,
            web_ref: String::decode(r)?,
            policy: Digest::decode(r)?,
            registered_at: SimTime::from_nanos(u64::decode(r)?),
        })
    }
}

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

impl Encode for ResourceRow {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.location.encode(buf);
        self.owner_webid.encode(buf);
        self.owner_addr.encode(buf);
        self.metadata.encode(buf);
        self.policy.encode(buf);
        self.policy_version.encode(buf);
        self.registered_at.as_nanos().encode(buf);
    }
}

impl Decode for ResourceRow {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(ResourceRow {
            location: Option::decode(r)?,
            owner_webid: String::decode(r)?,
            owner_addr: Address::decode(r)?,
            metadata: Vec::decode(r)?,
            policy: Digest::decode(r)?,
            policy_version: u64::decode(r)?,
            registered_at: SimTime::from_nanos(u64::decode(r)?),
        })
    }
}

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

impl Encode for CopyRow {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.holder_webid.encode(buf);
        self.attestation_key.encode(buf);
        self.registered_at.as_nanos().encode(buf);
    }
}

impl Decode for CopyRow {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(CopyRow {
            holder_webid: String::decode(r)?,
            attestation_key: PublicKey::decode(r)?,
            registered_at: SimTime::from_nanos(u64::decode(r)?),
        })
    }
}

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

impl Encode for SubRow {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.addr.encode(buf);
        self.certificate.encode(buf);
        self.paid_at.as_nanos().encode(buf);
        self.valid_until.as_nanos().encode(buf);
    }
}

impl Decode for SubRow {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(SubRow {
            addr: Address::decode(r)?,
            certificate: Digest::decode(r)?,
            paid_at: SimTime::from_nanos(u64::decode(r)?),
            valid_until: SimTime::from_nanos(u64::decode(r)?),
        })
    }
}

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
        let row_len = encode_to_vec(&row).len();
        let rec_len = encode_to_vec(&record).len();
        assert!(
            row_len + 32 < rec_len,
            "pod row ({row_len}B) should undercut the ABI record ({rec_len}B) \
             even counting the 32-byte digest twice"
        );
    }
}
