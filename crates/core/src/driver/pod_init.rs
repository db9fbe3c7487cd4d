//! Process 1 — pod initiation.

use duc_contracts::topics;
use duc_policy::UsagePolicy;
use duc_sim::SimTime;

use crate::world::World;

use super::flow::{FlowPoll, PreparedCall, TxFlow};
use super::{Outcome, ProcessError, Step};

/// Process 1 — pod initiation.
pub(crate) struct PodInit {
    webid: String,
    started: SimTime,
    phase: PodInitPhase,
}

enum PodInitPhase {
    Start,
    Confirm(TxFlow),
}

/// The off-chain half: the pod manager attaches the default policy at the
/// pod root and signs the pod's registration.
pub(crate) fn prepare(world: &mut World, webid: &str) -> Result<PreparedCall, ProcessError> {
    let Some(owner) = world.owners.get_mut(webid) else {
        return Err(ProcessError::UnknownOwner(webid.to_string()));
    };
    let root = owner.pod_manager.pod().root().to_string();
    let (from, key) = (owner.endpoint, owner.key);
    let default_policy = UsagePolicy::default_for(root.clone(), webid);
    owner.pod_manager.set_policy("", default_policy.clone());
    let envelope = world.envelope(&default_policy);
    let tx = world
        .dex
        .register_pod_tx(&world.chain, &key, webid, &root, envelope);
    Ok(PreparedCall { from, key, tx })
}

/// The confirmed tail: the pod counts as registered and its manager
/// listens for monitoring verdicts from now on.
pub(crate) fn registered(world: &mut World, webid: &str) {
    let owner = world.owners.get_mut(webid).expect("prepared above");
    owner.pod_registered = true;
    world
        .push_out
        .subscribe(topics::ROUND_CLOSED, owner.endpoint);
}

impl PodInit {
    pub(super) fn new(webid: String, started: SimTime) -> Self {
        PodInit {
            webid,
            started,
            phase: PodInitPhase::Start,
        }
    }

    pub(super) fn step(&mut self, world: &mut World) -> Step {
        match &mut self.phase {
            PodInitPhase::Start => {
                let call = match prepare(world, &self.webid) {
                    Ok(call) => call,
                    Err(e) => return Step::Done(Err(e)),
                };
                self.trace(world, "pod.create");
                self.phase = PodInitPhase::Confirm(TxFlow::new(world, call));
                self.step(world)
            }
            PodInitPhase::Confirm(flow) => match flow.step(world) {
                FlowPoll::Sleep(wake) => Step::Sleep(wake),
                FlowPoll::Done(Err(e)) => Step::Done(Err(e)),
                FlowPoll::Done(Ok(receipt)) => {
                    registered(world, &self.webid);
                    let e2e = world.clock.now() - self.started;
                    world.metrics.record("process.pod_init.e2e", e2e);
                    world.metrics.add("process.pod_init.gas", receipt.gas_used);
                    self.trace(world, "pod.registered");
                    Step::Done(Ok(Outcome::PodInitiated {
                        webid: self.webid.clone(),
                    }))
                }
            },
        }
    }

    /// Records `kind` against the pod's root, as the pod manager.
    fn trace(&self, world: &mut World, kind: &str) {
        let owner = world.owners.get(&self.webid).expect("prepared above");
        world.trace.record(
            world.clock.now(),
            format_args!("pm:{}", self.webid),
            kind,
            owner.pod_manager.pod().root(),
        );
    }
}
