//! The DE App's event table: each topic's name, its [`topics`] constant and
//! its payload struct, declared once.
//!
//! A row reads `Variant = "Topic" as CONSTANT { field: Type, … }`, the
//! fields in wire order; a payload struct encodes exactly like the tuple it
//! replaced. From the table come one payload struct per topic, which the
//! contract emits, [`topics`], and [`DexEvent`] with `decode()`, which the
//! driver's push-out inbox, its monitoring poll and bulk enrolment match
//! on, so none of them spells a topic or a payload shape.

use duc_blockchain::{CallCtx, ContractError, Event};
use duc_codec::{decode_from_slice, encode_to_vec, impl_codec_struct};
use duc_crypto::Digest;

use crate::abi::PolicyEnvelope;
use crate::dist_exchange::DEX_CONTRACT_ID;

macro_rules! dex_events {
    ($(
        $(#[$doc:meta])*
        $variant:ident = $topic:literal as $constant:ident { $($field:ident: $ty:ty),* $(,)? };
    )*) => {
        $(
            #[doc = concat!("The payload of `", $topic, "`.")]
            #[derive(Debug, Clone, PartialEq, Eq)]
            pub struct $variant { $(pub $field: $ty,)* }
            impl_codec_struct!($variant { $($field),* });
            impl $variant {
                /// Emits this event from the running call (gas-metered).
                pub(crate) fn emit(&self, ctx: &mut CallCtx<'_>) -> Result<(), ContractError> {
                    ctx.emit($topic, encode_to_vec(self))
                }
            }
        )*

        /// Event topics emitted by the DE App (oracle subscriptions filter
        /// on these).
        pub mod topics {
            $($(#[$doc])* pub const $constant: &str = $topic;)*
        }

        /// One decoded DE App event.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum DexEvent {
            $($(#[$doc])* $variant($variant),)*
        }

        impl DexEvent {
            /// Decodes a chain event: `None` for an event another contract
            /// emitted, for a topic outside the table, or for a payload that
            /// does not decode to its topic's struct or leaves bytes over.
            pub fn decode(event: &Event) -> Option<DexEvent> {
                if event.contract.as_str() != DEX_CONTRACT_ID {
                    return None;
                }
                match event.topic {
                    $($topic => decode_from_slice(&event.data).ok().map(DexEvent::$variant),)*
                    _ => None,
                }
            }
        }
    };
}

dex_events! {
    /// A pod was registered.
    PodRegistered = "PodRegistered" as POD_REGISTERED { owner_webid: String };
    /// A resource was added to the index.
    ResourceRegistered = "ResourceRegistered" as RESOURCE_REGISTERED { resource: String };
    /// A usage policy was replaced (push-out oracles fan this out), with
    /// the hash the contract anchored for the new envelope.
    PolicyUpdated = "PolicyUpdated" as POLICY_UPDATED {
        resource: String, version: u64, policy: PolicyEnvelope, policy_hash: Digest,
    };
    /// A device registered a copy of a resource.
    CopyRegistered = "CopyRegistered" as COPY_REGISTERED { resource: String, device: String };
    /// A device dropped its copy.
    CopyRemoved = "CopyRemoved" as COPY_REMOVED { resource: String, device: String };
    /// A monitoring round was opened (pull-in oracles react).
    MonitoringRequested = "MonitoringRequested" as MONITORING_REQUESTED {
        resource: String, round: u64, expected_devices: Vec<String>,
    };
    /// A device's evidence was recorded.
    EvidenceRecorded = "EvidenceRecorded" as EVIDENCE_RECORDED {
        resource: String, round: u64, device: String, compliant: bool,
    };
    /// A monitoring round closed with its verdict: how many answers were
    /// compliant, and the violating devices in submission order.
    RoundClosed = "RoundClosed" as ROUND_CLOSED {
        resource: String, round: u64, compliant: u64, violators: Vec<String>,
    };
    /// A market subscription certificate was issued.
    CertificateIssued = "CertificateIssued" as CERTIFICATE_ISSUED {
        webid: String, certificate: Digest,
    };
}
