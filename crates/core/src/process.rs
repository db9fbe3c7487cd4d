//! The six processes of the architecture (paper Fig. 2) — one-shot API.
//!
//! Each process is a method on [`World`] that plays out the exact hop
//! sequence of the paper's sequence diagrams. Since the driver redesign
//! (see [`crate::driver`]) these methods are thin wrappers over the
//! non-blocking request API: they submit one [`Request`], drive the event
//! loop to idle, and unwrap the single outcome — so their signatures and
//! semantics are unchanged while the same state machines also serve
//! hundreds of concurrent in-flight requests.

use duc_blockchain::Ledger;
use duc_crypto::Digest;
use duc_policy::{Duty, Rule, UsagePolicy};
use duc_solid::Body;

use crate::driver::{
    AccessOutcome, MonitoringOutcome, Outcome, ProcessError, PropagationOutcome, Request,
};
use crate::world::{IndexEntry, World};

impl<L: Ledger> World<L> {
    /// Submits `request` alone, drives the event loop to idle and returns
    /// its outcome (the one-shot wrapper shared by all six processes).
    fn run_one(&mut self, request: Request) -> Result<Outcome, ProcessError> {
        let ticket = self.submit(request);
        self.run_until_idle();
        self.poll_ticket(ticket)
            .expect("run_until_idle completes every in-flight request")
    }

    /// **Process 1 — pod initiation.** The owner asks the pod manager to
    /// initialize the pod; the pod manager sets the default policy and
    /// pushes the pod's web reference + default policy on-chain.
    ///
    /// # Errors
    /// Fails on unknown owners, oracle loss or an on-chain revert.
    pub fn pod_initiation(&mut self, webid: &str) -> Result<(), ProcessError> {
        match self.run_one(Request::PodInitiation {
            webid: webid.to_string(),
        })? {
            Outcome::PodInitiated { .. } => Ok(()),
            other => unreachable!("pod initiation yielded {other:?}"),
        }
    }

    /// **Process 2 — resource initiation.** The owner uploads a resource to
    /// the pod (ACL-checked PUT), attaches a usage policy, and the pod
    /// manager pushes the metadata + policy into the DE App index.
    ///
    /// Returns the resource IRI.
    ///
    /// # Errors
    /// Fails if the pod is not registered, the PUT is refused, or the
    /// on-chain registration fails.
    pub fn resource_initiation(
        &mut self,
        webid: &str,
        path: &str,
        body: Body,
        policy: UsagePolicy,
        metadata: Vec<(String, String)>,
    ) -> Result<String, ProcessError> {
        match self.run_one(Request::ResourceInitiation {
            webid: webid.to_string(),
            path: path.to_string(),
            body,
            policy,
            metadata,
        })? {
            Outcome::ResourceInitiated { resource } => Ok(resource),
            other => unreachable!("resource initiation yielded {other:?}"),
        }
    }

    /// **Process 3 — resource indexing.** A device's trusted application
    /// reads a resource's location and policy from the DE App through the
    /// pull-out oracle and stores them in the TEE.
    ///
    /// # Errors
    /// Fails on unknown devices/resources or oracle loss.
    pub fn resource_indexing(
        &mut self,
        device: &str,
        resource: &str,
    ) -> Result<IndexEntry, ProcessError> {
        match self.run_one(Request::ResourceIndexing {
            device: device.to_string(),
            resource: resource.to_string(),
        })? {
            Outcome::Indexed { entry } => Ok(entry),
            other => unreachable!("resource indexing yielded {other:?}"),
        }
    }

    /// Buys a market subscription for the device's operator and stores the
    /// payment certificate (a prerequisite of process 4, cf. §II).
    ///
    /// # Errors
    /// Fails on unknown devices, oracle loss or revert.
    pub fn market_subscribe(&mut self, device: &str) -> Result<Digest, ProcessError> {
        match self.run_one(Request::MarketSubscribe {
            device: device.to_string(),
        })? {
            Outcome::Subscribed { certificate } => Ok(certificate),
            other => unreachable!("market subscription yielded {other:?}"),
        }
    }

    /// **Process 4 — resource access.** The trusted application fetches the
    /// resource from the owner's pod (presenting the market certificate),
    /// seals the copy in trusted storage under the indexed policy, and
    /// registers the copy on-chain (which also subscribes the device to
    /// policy updates).
    ///
    /// # Errors
    /// Fails when the device lacks an index entry or certificate, the pod
    /// manager refuses the request, attestation fails, or the on-chain copy
    /// registration fails.
    pub fn resource_access(
        &mut self,
        device: &str,
        resource: &str,
    ) -> Result<AccessOutcome, ProcessError> {
        match self.run_one(Request::ResourceAccess {
            device: device.to_string(),
            resource: resource.to_string(),
        })? {
            Outcome::Accessed(outcome) => Ok(outcome),
            other => unreachable!("resource access yielded {other:?}"),
        }
    }

    /// **Process 5 — policy modification.** The owner updates the policy at
    /// the pod manager (permission-checked, version bumped), the push-in
    /// oracle replaces it in the DE App, and the push-out oracle fans the
    /// update out to every device holding a copy, which re-evaluates and
    /// executes consequent obligations (e.g. deleting now-overdue copies).
    ///
    /// # Errors
    /// Fails when the modifier is not the owner, or on oracle/chain errors.
    pub fn policy_modification(
        &mut self,
        webid: &str,
        path: &str,
        rules: Vec<Rule>,
        duties: Vec<Duty>,
    ) -> Result<PropagationOutcome, ProcessError> {
        match self.run_one(Request::PolicyModification {
            webid: webid.to_string(),
            path: path.to_string(),
            rules,
            duties,
        })? {
            Outcome::PolicyPropagated(outcome) => Ok(outcome),
            other => unreachable!("policy modification yielded {other:?}"),
        }
    }

    /// **Process 6 — policy monitoring.** The pod manager opens a round via
    /// the push-in oracle; the DE App emits a request event; the pull-in
    /// oracle collects signed usage reports from every device holding a
    /// copy and records them on-chain; the push-out oracle returns the
    /// verdict to the pod manager.
    ///
    /// # Errors
    /// Fails on unknown participants or oracle/chain errors.
    pub fn policy_monitoring(
        &mut self,
        webid: &str,
        path: &str,
    ) -> Result<MonitoringOutcome, ProcessError> {
        match self.run_one(Request::PolicyMonitoring {
            webid: webid.to_string(),
            path: path.to_string(),
        })? {
            Outcome::Monitored(outcome) => Ok(outcome),
            other => unreachable!("policy monitoring yielded {other:?}"),
        }
    }
}
