//! The auditable state of a resource copy.
//!
//! The DE App's monitoring process (paper process 6) collects usage evidence
//! from every device holding a copy. A [`CopyState`] with its log of
//! [`AccessRecord`]s is what a device keeps per copy; the trusted
//! application (`duc-tee`) replays it against the policy versions in force
//! to produce each round's self-audit.

use duc_sim::SimTime;

use crate::model::{Action, Purpose};

/// One recorded access in a copy's usage log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessRecord {
    /// When the access happened.
    pub at: SimTime,
    /// The action performed.
    pub action: Action,
    /// The declared purpose.
    pub purpose: Purpose,
    /// WebID of the acting agent.
    pub agent: String,
}

/// The auditable state of one resource copy on one device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CopyState {
    /// IRI of the resource.
    pub resource: String,
    /// WebID of the device owner (the consumer).
    pub holder: String,
    /// When the copy was acquired.
    pub acquired_at: SimTime,
    /// When it was deleted, if it was.
    pub deleted_at: Option<SimTime>,
    /// Every access performed through the trusted application.
    pub log: Vec<AccessRecord>,
}

impl CopyState {
    /// A fresh copy acquired at `acquired_at` by `holder`.
    pub fn new(
        resource: impl Into<String>,
        holder: impl Into<String>,
        acquired_at: SimTime,
    ) -> Self {
        CopyState {
            resource: resource.into(),
            holder: holder.into(),
            acquired_at,
            deleted_at: None,
            log: Vec::new(),
        }
    }

    /// Whether the copy still exists at `now`.
    pub fn alive_at(&self, now: SimTime) -> bool {
        self.deleted_at.is_none_or(|d| d > now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_alive_at() {
        let mut copy = CopyState::new("urn:r", "urn:h", SimTime::from_secs(0));
        assert!(copy.alive_at(SimTime::from_secs(1_000_000)));
        copy.deleted_at = Some(SimTime::from_secs(50));
        assert!(copy.alive_at(SimTime::from_secs(49)));
        assert!(!copy.alive_at(SimTime::from_secs(50)));
    }
}
