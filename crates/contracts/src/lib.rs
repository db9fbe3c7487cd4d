//! # duc-contracts — the DistExchange application (DE App)
//!
//! The on-chain half of the architecture (paper §III-B): smart contracts
//! that (i) record where pods and resources live, (ii) publish the usage
//! policies that govern them, and (iii) monitor compliance. Deployed on the
//! [`duc_blockchain`] substrate.
//!
//! Two contracts:
//!
//! * [`DistExchange`] — pod registry, resource index, policy store, copy
//!   tracking and monitoring rounds. Its events (`PolicyUpdated`,
//!   `MonitoringRequested`, …) are what the push-out and pull-in oracles
//!   subscribe to.
//! * (inside the same contract) the **market**: subscription fees paid in
//!   native tokens, payment certificates that pod managers verify before
//!   serving data (paper §II: "a certificate proving she has paid the
//!   market fee").
//!
//! All argument/return types live in [`abi`] and are encoded with
//! [`duc_codec`]; [`client`] offers typed wrappers so callers never touch
//! raw bytes. [`access`] declares the state footprint of each call so the
//! parallel block executor can schedule non-conflicting calls concurrently.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod abi;
pub mod access;
pub mod client;
pub mod dist_exchange;
mod layout;
pub mod routing;
pub mod rows;

pub use abi::{
    CopyRecord, EvidenceReaffirmation, EvidenceSubmission, MonitoringRound, PodRecord,
    PolicyEnvelope, ResourceRecord, Subscription,
};
pub use access::{dex_access, dex_access_fn};
pub use client::DistExchangeClient;
pub use dist_exchange::{DistExchange, DEX_CONTRACT_ID};
pub use rows::{CopyRow, PodRow, ResourceRow, SubRow};

/// Event topics emitted by the DE App (oracle subscriptions filter on
/// these).
pub mod topics {
    /// A pod was registered.
    pub const POD_REGISTERED: &str = "PodRegistered";
    /// A resource was added to the index.
    pub const RESOURCE_REGISTERED: &str = "ResourceRegistered";
    /// A usage policy was replaced (push-out oracles fan this out).
    pub const POLICY_UPDATED: &str = "PolicyUpdated";
    /// A device registered a copy of a resource.
    pub(crate) const COPY_REGISTERED: &str = "CopyRegistered";
    /// A device dropped its copy.
    pub(crate) const COPY_REMOVED: &str = "CopyRemoved";
    /// A monitoring round was opened (pull-in oracles react).
    pub const MONITORING_REQUESTED: &str = "MonitoringRequested";
    /// A device's evidence was recorded.
    pub(crate) const EVIDENCE_RECORDED: &str = "EvidenceRecorded";
    /// A monitoring round closed with its verdict.
    pub const ROUND_CLOSED: &str = "RoundClosed";
    /// A market subscription certificate was issued.
    pub const CERTIFICATE_ISSUED: &str = "CertificateIssued";
}
