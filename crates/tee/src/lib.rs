//! # duc-tee — trusted execution environment (simulated)
//!
//! The consumer-side half of usage control (paper §III-C): a [`Enclave`]
//! with a measured identity and attested keys, [`TrustedDataStorage`] that
//! seals resource copies at rest, and the [`TrustedApplication`] that
//! mediates *every* local access through the policy engine, executes
//! obligations (deletion on retention expiry), keeps the usage log and
//! produces signed compliance evidence.
//!
//! ## Trust model (what the simulation preserves)
//!
//! * **Isolation** — the host can only observe ciphertext
//!   ([`TrustedDataStorage::host_view`]); plaintext exists only inside
//!   enclave method calls. The host also sees every version of an entry it
//!   cares to keep, so each seal draws a nonce of its own (entry name and
//!   the storage's seal count, kept beside the ciphertext): two bodies
//!   sealed under one name never share a keystream.
//! * **Attested identity** — an [`AttestationAuthority`] (the simulated
//!   hardware vendor) signs a [`Quote`] binding the enclave's measurement to
//!   its attestation public key; remote parties (the DE App) accept
//!   evidence only from quoted keys.
//! * **Policy-faithful mediation** — there is no API that returns resource
//!   bytes without a policy evaluation; this is the invariant the paper's
//!   architecture assumes of TEEs.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod app;
pub mod attestation;
pub mod enclave;
pub mod storage;

pub use app::{
    AccessError, EnforcementAction, ReportedEvidence, TeeError, TrustedApplication, UsageReport,
};
pub use attestation::{AttestationAuthority, Quote};
pub use enclave::Enclave;
pub use storage::TrustedDataStorage;
