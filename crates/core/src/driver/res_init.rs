//! Process 2 — resource initiation.

use duc_blockchain::Receipt;
use duc_policy::{AclMode, AgentSpec, Authorization, UsagePolicy};
use duc_sim::SimTime;
use duc_solid::{Body, SolidRequest};

use crate::world::World;

use super::flow::{FlowPoll, PreparedCall, TxFlow};
use super::{Outcome, ProcessError, Step};

/// Process 2 — resource initiation.
pub(crate) struct ResInit {
    webid: String,
    path: String,
    /// What to publish; `Start` takes all three.
    body: Option<Body>,
    policy: Option<UsagePolicy>,
    metadata: Vec<(String, String)>,
    /// Set by `Start`.
    resource_iri: String,
    started: SimTime,
    phase: ResInitPhase,
}

enum ResInitPhase {
    Start,
    Confirm(TxFlow),
}

/// The off-chain half: the owner uploads `body` over the Solid protocol
/// (the pod manager checks the ACL), the pod manager attaches `policy`,
/// opens the resource to the market's subscribers and signs its
/// registration. Returns the resource's IRI with the call.
pub(crate) fn prepare(
    world: &mut World,
    webid: &str,
    path: &str,
    body: Body,
    policy: UsagePolicy,
    metadata: Vec<(String, String)>,
) -> Result<(String, PreparedCall), ProcessError> {
    let Some(owner) = world.owners.get_mut(webid) else {
        return Err(ProcessError::UnknownOwner(webid.to_string()));
    };
    if !owner.pod_registered {
        return Err(ProcessError::PodNotRegistered(webid.to_string()));
    }
    let (from, key) = (owner.endpoint, owner.key);
    let resp = owner
        .pod_manager
        .handle(&SolidRequest::put(webid, path).with_body(body));
    if !resp.status.is_success() {
        return Err(ProcessError::Solid {
            status: resp.status,
            detail: resp.detail,
        });
    }
    owner.pod_manager.set_policy(path, policy.clone());
    // Market terms: authenticated subscribers may read this resource
    // (certificate-gated), cf. §II "only subscribed users have access".
    let iri = owner.pod_manager.pod().iri_of(path);
    owner.pod_manager.grant(Authorization::for_resource(
        format!("market-readers-{path}"),
        iri.clone(),
        vec![AgentSpec::AuthenticatedAgent],
        vec![AclMode::Read],
    ));
    owner.pod_manager.set_require_certificate(true);

    // Push-in oracle: index the resource + publish the policy.
    let envelope = world.envelope(&policy);
    let tx =
        world
            .dex
            .register_resource_tx(&world.chain, &key, &iri, &iri, webid, metadata, envelope);
    Ok((iri, PreparedCall { from, key, tx }))
}

impl ResInit {
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

    pub(super) fn step(&mut self, world: &mut World) -> Step {
        match &mut self.phase {
            ResInitPhase::Start => {
                let body = self.body.take().expect("body present in Start phase");
                let policy = self.policy.take().expect("policy present in Start phase");
                let metadata = std::mem::take(&mut self.metadata);
                let call = match prepare(world, &self.webid, &self.path, body, policy, metadata) {
                    Ok((iri, call)) => {
                        self.resource_iri = iri;
                        call
                    }
                    Err(e) => return Step::Done(Err(e)),
                };
                self.phase = ResInitPhase::Confirm(TxFlow::new(world, call));
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
    fn registered(&self, world: &mut World, receipt: &Receipt) -> Outcome {
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
