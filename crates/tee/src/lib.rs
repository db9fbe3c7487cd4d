//! # duc-tee — trusted execution environment (simulated)
//!
//! The consumer-side half of usage control (paper §III-C): a [`Enclave`]
//! with a measured identity and attested keys, and the
//! [`TrustedApplication`] that seals resource copies at rest, mediates
//! *every* local access through the policy program, executes obligations
//! (deletion on retention expiry), keeps the usage log and produces signed
//! compliance evidence. Each copy is one row of the application's table:
//! its sealed bytes while it lives and its audit state for ever.
//!
//! ## Trust model (what the simulation preserves)
//!
//! * **Isolation** — the host can only observe ciphertext
//!   ([`TrustedApplication::host_view`]); plaintext exists only inside
//!   enclave method calls. The host also sees every version of a copy it
//!   cares to keep, so each seal draws a nonce of its own (the copy's name
//!   and the application's seal count, kept beside the ciphertext): two
//!   bodies sealed under one name never share a keystream.
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
mod storage;

pub use app::{
    AccessError, EnforcementAction, ReportedEvidence, TeeError, TrustedApplication, UsageReport,
};
pub use attestation::{AttestationAuthority, Quote};
pub use enclave::Enclave;
