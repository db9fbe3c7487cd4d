//! What a process resolves to: the typed failure and the per-process
//! outcome records carried by [`Outcome`](super::Outcome).

use duc_oracle::OracleError;
use duc_sim::SimDuration;
use duc_solid::Status;
use duc_tee::{EnforcementAction, TeeError};

/// A process-level failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProcessError {
    /// The WebID has no registered owner.
    UnknownOwner(String),
    /// The device name is not registered.
    UnknownDevice(String),
    /// Process 1 has not run for this owner yet.
    PodNotRegistered(String),
    /// The device has not indexed the resource (process 3 missing).
    NotIndexed {
        /// Device name.
        device: String,
        /// Resource IRI.
        resource: String,
    },
    /// The resource is not in the DE App index.
    UnknownResource(String),
    /// An oracle hop failed.
    Oracle(OracleError),
    /// A transaction was included but reverted.
    Reverted(String),
    /// The pod manager refused the Solid request.
    Solid {
        /// Response status.
        status: Status,
        /// Detail, when provided.
        detail: Option<String>,
    },
    /// A policy operation failed (parsing, envelope, permissions).
    Policy(String),
    /// The device needs a market certificate (process: market subscription).
    NoCertificate(String),
    /// The enclave could not be attested.
    Attestation(String),
    /// The device's trusted application reported a damaged internal state
    /// (see [`TeeError`]). Permanent: retrying cannot heal a broken
    /// enclave, so [`ProcessError::is_transient`] is `false`.
    Tee(TeeError),
}

impl ProcessError {
    /// Whether the failure is *transient* — caused by network faults or
    /// chain liveness, so re-submitting the same request after the fault
    /// heals can plausibly succeed. Permanent failures (unknown
    /// participants, refused requests, reverts) are not worth retrying.
    pub fn is_transient(&self) -> bool {
        matches!(self, ProcessError::Oracle(e) if e.is_transient())
    }
}

impl std::fmt::Display for ProcessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcessError::UnknownOwner(w) => write!(f, "unknown owner {w}"),
            ProcessError::UnknownDevice(d) => write!(f, "unknown device {d}"),
            ProcessError::PodNotRegistered(w) => write!(f, "pod not registered for {w}"),
            ProcessError::NotIndexed { device, resource } => {
                write!(f, "device {device} has not indexed {resource}")
            }
            ProcessError::UnknownResource(r) => write!(f, "resource not in index: {r}"),
            ProcessError::Oracle(e) => write!(f, "oracle failure: {e}"),
            ProcessError::Reverted(msg) => write!(f, "transaction reverted: {msg}"),
            ProcessError::Solid { status, detail } => {
                write!(f, "pod manager refused: {status:?} {detail:?}")
            }
            ProcessError::Policy(msg) => write!(f, "policy error: {msg}"),
            ProcessError::NoCertificate(w) => write!(f, "no market certificate for {w}"),
            ProcessError::Attestation(msg) => write!(f, "attestation failure: {msg}"),
            ProcessError::Tee(e) => write!(f, "trusted application fault: {e}"),
        }
    }
}

impl std::error::Error for ProcessError {}

impl From<OracleError> for ProcessError {
    fn from(e: OracleError) -> Self {
        ProcessError::Oracle(e)
    }
}

impl From<TeeError> for ProcessError {
    fn from(e: TeeError) -> Self {
        ProcessError::Tee(e)
    }
}

/// Outcome of a resource access (process 4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Bytes retrieved.
    pub bytes: usize,
    /// End-to-end latency including on-chain copy registration.
    pub e2e: SimDuration,
    /// Latency of the pod fetch alone (request + transfer + response).
    pub fetch: SimDuration,
}

/// Outcome of a policy modification (process 5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropagationOutcome {
    /// The new on-chain policy version.
    pub version: u64,
    /// Devices that received the update.
    pub devices_notified: usize,
    /// Obligations executed as a consequence (e.g. deletions).
    pub enforcement: Vec<(String, EnforcementAction)>,
    /// Latency from the owner's request to the last device applying the
    /// update.
    pub e2e: SimDuration,
}

/// Outcome of a monitoring round (process 6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitoringOutcome {
    /// Round number.
    pub round: u64,
    /// Devices that were expected to answer.
    pub expected: usize,
    /// Evidence submissions recorded on-chain.
    pub evidence: usize,
    /// Devices whose evidence reported violations.
    pub violators: Vec<String>,
    /// Total evidence bytes shipped.
    pub evidence_bytes: usize,
    /// Wall-clock duration of the round.
    pub duration: SimDuration,
}
