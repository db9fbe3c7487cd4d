//! Process 1 — pod initiation.

use duc_blockchain::{Ledger, Receipt};
use duc_contracts::topics;
use duc_policy::UsagePolicy;
use duc_sim::SimTime;

use crate::world::World;

use super::flow::{FlowPoll, TxFlow};
use super::{Outcome, ProcessError, Step};

/// Process 1 — pod initiation.
pub(crate) struct PodInit<L> {
    webid: String,
    started: SimTime,
    phase: PodInitPhase<L>,
}

enum PodInitPhase<L> {
    Start,
    Confirm(TxFlow<L>),
}

impl<L: Ledger> PodInit<L> {
    pub(super) fn new(webid: String, started: SimTime) -> Self {
        PodInit {
            webid,
            started,
            phase: PodInitPhase::Start,
        }
    }

    pub(super) fn step(&mut self, world: &mut World<L>) -> Step {
        match &mut self.phase {
            PodInitPhase::Start => {
                let Some(owner) = world.owners.get_mut(&self.webid) else {
                    return Step::Done(Err(ProcessError::UnknownOwner(self.webid.clone())));
                };
                let root = owner.pod_manager.pod().root().to_string();
                let endpoint = owner.endpoint;
                let owner_key = owner.key;

                // Local setup: default policy attached at the pod root.
                let default_policy = UsagePolicy::default_for(root.clone(), &self.webid);
                owner.pod_manager.set_policy("", default_policy.clone());
                let now = world.clock.now();
                world
                    .trace
                    .record(now, format_args!("pm:{}", self.webid), "pod.create", &root);

                // Push-in oracle: register the pod on-chain.
                let envelope = world.envelope(&default_policy);
                let webid = self.webid.clone();
                let build = move |w: &World<L>| {
                    w.dex
                        .register_pod_tx(&w.chain, &owner_key, &webid, &root, envelope.clone())
                };
                self.phase = PodInitPhase::Confirm(TxFlow::new(world, endpoint, build));
                self.step(world)
            }
            PodInitPhase::Confirm(flow) => match flow.step(world) {
                FlowPoll::Sleep(wake) => Step::Sleep(wake),
                FlowPoll::Done(res) => {
                    Step::Done(res.map(|receipt| self.registered(world, receipt)))
                }
            },
        }
    }

    /// The registration executed: the pod manager starts listening.
    fn registered(&self, world: &mut World<L>, receipt: Receipt) -> Outcome {
        let owner = world
            .owners
            .get_mut(&self.webid)
            .expect("validated at submit");
        owner.pod_registered = true;

        // The pod manager listens for monitoring verdicts from now on.
        world
            .push_out
            .subscribe(topics::ROUND_CLOSED, owner.endpoint);

        let now = world.clock.now();
        world
            .metrics
            .record("process.pod_init.e2e", now - self.started);
        world.metrics.add("process.pod_init.gas", receipt.gas_used);
        world.trace.record(
            now,
            format_args!("pm:{}", self.webid),
            "pod.registered",
            owner.pod_manager.pod().root(),
        );
        Outcome::PodInitiated {
            webid: self.webid.clone(),
        }
    }
}
