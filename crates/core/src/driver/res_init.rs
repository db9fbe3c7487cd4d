//! Process 2 — resource initiation.

use duc_blockchain::{Ledger, Receipt};
use duc_policy::{AclMode, AgentSpec, Authorization, UsagePolicy};
use duc_sim::SimTime;
use duc_solid::{Body, SolidRequest};

use crate::world::World;

use super::flow::{FlowPoll, TxFlow};
use super::{Outcome, ProcessError, Step};

/// Process 2 — resource initiation.
pub(crate) struct ResInit<L> {
    webid: String,
    path: String,
    /// What to publish; `Start` takes all three.
    body: Option<Body>,
    policy: Option<UsagePolicy>,
    metadata: Vec<(String, String)>,
    /// Set by `Start`.
    resource_iri: String,
    started: SimTime,
    phase: ResInitPhase<L>,
}

enum ResInitPhase<L> {
    Start,
    Confirm(TxFlow<L>),
}

impl<L: Ledger> ResInit<L> {
    pub(super) fn new(
        webid: String,
        path: String,
        body: Body,
        policy: UsagePolicy,
        metadata: Vec<(String, String)>,
        started: SimTime,
    ) -> Self {
        ResInit {
            webid,
            path,
            body: Some(body),
            policy: Some(policy),
            metadata,
            resource_iri: String::new(),
            started,
            phase: ResInitPhase::Start,
        }
    }

    pub(super) fn step(&mut self, world: &mut World<L>) -> Step {
        match &mut self.phase {
            ResInitPhase::Start => {
                let Some(owner) = world.owners.get_mut(&self.webid) else {
                    return Step::Done(Err(ProcessError::UnknownOwner(self.webid.clone())));
                };
                if !owner.pod_registered {
                    return Step::Done(Err(ProcessError::PodNotRegistered(self.webid.clone())));
                }
                let endpoint = owner.endpoint;
                let owner_key = owner.key;
                let body = self.body.take().expect("body present in Start phase");
                let policy = self.policy.take().expect("policy present in Start phase");
                let metadata = std::mem::take(&mut self.metadata);

                // Upload via the Solid protocol (the pod manager checks the
                // ACL).
                let put = SolidRequest::put(self.webid.clone(), self.path.clone()).with_body(body);
                let resp = owner.pod_manager.handle(&put);
                if !resp.status.is_success() {
                    return Step::Done(Err(ProcessError::Solid {
                        status: resp.status,
                        detail: resp.detail,
                    }));
                }
                owner.pod_manager.set_policy(&self.path, policy.clone());
                // Market terms: authenticated subscribers may read this
                // resource (certificate-gated), cf. §II "only subscribed
                // users have access".
                self.resource_iri = owner.pod_manager.pod().iri_of(&self.path);
                let mut acl = owner.pod_manager.acl().clone();
                acl.push(Authorization::for_resource(
                    format!("market-readers-{}", self.path),
                    self.resource_iri.clone(),
                    vec![AgentSpec::AuthenticatedAgent],
                    vec![AclMode::Read],
                ));
                owner.pod_manager.set_acl(acl);
                owner.pod_manager.set_require_certificate(true);

                // Push-in oracle: index the resource + publish the policy.
                let envelope = world.envelope(&policy);
                let iri = self.resource_iri.clone();
                let webid = self.webid.clone();
                let build = move |w: &World<L>| {
                    w.dex.register_resource_tx(
                        &w.chain,
                        &owner_key,
                        &iri,
                        &iri,
                        &webid,
                        metadata.clone(),
                        envelope.clone(),
                    )
                };
                self.phase = ResInitPhase::Confirm(TxFlow::new(world, endpoint, build));
                self.step(world)
            }
            ResInitPhase::Confirm(flow) => match flow.step(world) {
                FlowPoll::Sleep(wake) => Step::Sleep(wake),
                FlowPoll::Done(res) => {
                    Step::Done(res.map(|receipt| self.registered(world, &receipt)))
                }
            },
        }
    }

    /// The registration executed: the resource is in the DE App index.
    fn registered(&self, world: &mut World<L>, receipt: &Receipt) -> Outcome {
        let now = world.clock.now();
        world
            .metrics
            .record("process.resource_init.e2e", now - self.started);
        world
            .metrics
            .add("process.resource_init.gas", receipt.gas_used);
        world.trace.record(
            now,
            format_args!("pm:{}", self.webid),
            "resource.registered",
            &self.resource_iri,
        );
        Outcome::ResourceInitiated {
            resource: self.resource_iri.clone(),
        }
    }
}
