//! Process 5 — policy modification and push-out fan-out.

use std::collections::VecDeque;
use std::rc::Rc;

use duc_blockchain::{Ledger, Receipt, TxId};
use duc_policy::{Duty, Rule, UsagePolicy};
use duc_sim::{EndpointId, SimTime};
use duc_tee::EnforcementAction;

use crate::world::World;

use super::flow::{FlowPoll, PreparedCall, TxFlow};
use super::{Outcome, ProcessError, PropagationOutcome, Routed, Step, Wake, CONFIRM_TIMEOUT};

/// Process 5 — policy modification and push-out fan-out.
pub(crate) struct PolicyMod {
    webid: String,
    path: String,
    started: SimTime,
    phase: PolicyModPhase,
    /// Set by `Start`: the resource and the version the amendment takes.
    resource_iri: String,
    version: u64,
    /// `(recipient, arrives_at, policy)` by arrival, set when the update
    /// confirmed; one opened policy per event, shared by its deliveries.
    deliveries: VecDeque<(EndpointId, SimTime, Rc<UsagePolicy>)>,
    notified: usize,
    enforcement: Vec<(String, EnforcementAction)>,
    /// Unregistrations of copies the update deleted, awaiting inclusion.
    pending: VecDeque<TxId>,
    current: Option<(TxId, SimTime)>,
}

enum PolicyModPhase {
    Start { rules: Vec<Rule>, duties: Vec<Duty> },
    Confirm(TxFlow),
    Fanout,
    ConfirmUnregisters,
}

impl PolicyMod {
    pub(super) fn new(
        webid: String,
        path: String,
        rules: Vec<Rule>,
        duties: Vec<Duty>,
        started: SimTime,
    ) -> Self {
        PolicyMod {
            webid,
            path,
            started,
            phase: PolicyModPhase::Start { rules, duties },
            resource_iri: String::new(),
            version: 0,
            deliveries: VecDeque::new(),
            notified: 0,
            enforcement: Vec::new(),
            pending: VecDeque::new(),
            current: None,
        }
    }

    pub(super) fn step<L: Ledger>(&mut self, world: &mut World<L>) -> Step {
        let now = world.clock.now();
        match &mut self.phase {
            PolicyModPhase::Start { rules, duties } => {
                let Some(owner) = world.owners.get_mut(&self.webid) else {
                    return Step::Done(Err(ProcessError::UnknownOwner(self.webid.clone())));
                };
                let (from, key) = (owner.endpoint, owner.key);
                let amended = match owner.pod_manager.modify_policy(
                    &self.webid,
                    &self.path,
                    std::mem::take(rules),
                    std::mem::take(duties),
                ) {
                    Ok(amended) => amended,
                    Err(status) => {
                        return Step::Done(Err(ProcessError::Solid {
                            status,
                            detail: Some("policy modification refused".into()),
                        }))
                    }
                };
                self.resource_iri = owner.pod_manager.pod().iri_of(&self.path);
                self.version = amended.version;

                let tx = world.dex.update_policy_tx(
                    &world.chain,
                    &key,
                    &self.resource_iri,
                    world.envelope(&amended),
                    self.version,
                );
                self.phase =
                    PolicyModPhase::Confirm(TxFlow::new(world, PreparedCall { from, key, tx }));
                self.step(world)
            }
            PolicyModPhase::Confirm(flow) => match flow.step(world) {
                FlowPoll::Sleep(wake) => Step::Sleep(wake),
                FlowPoll::Done(Ok(receipt)) => self.after_confirm(world, &receipt),
                FlowPoll::Done(Err(e)) => Step::Done(Err(e)),
            },
            PolicyModPhase::Fanout => {
                // Apply every delivery that has arrived by now.
                while self
                    .deliveries
                    .front()
                    .is_some_and(|(_, arrives_at, _)| *arrives_at <= now)
                {
                    let (recipient, arrives_at, policy) =
                        self.deliveries.pop_front().expect("peeked");
                    let Some(&sym) = world.device_endpoints.get(&recipient) else {
                        continue;
                    };
                    let Some(device) = world.devices.get_sym_mut(sym) else {
                        continue;
                    };
                    if !device.tee.has_copy(&self.resource_iri) {
                        continue;
                    }
                    let actions = device.tee.apply_policy_update(
                        &self.resource_iri,
                        Rc::unwrap_or_clone(policy),
                        arrives_at,
                    );
                    let device_name = world.ids.resolve(sym);
                    let device_key = device.key;
                    // The device recompiled its program against the new
                    // version: re-arm its obligation wakeup mid-flight
                    // (ongoing authorization on policy change).
                    world.schedule_obligation(&device_name, &self.resource_iri, None);
                    world
                        .metrics
                        .record("process.policy_mod.propagation", arrives_at - self.started);
                    self.notified += 1;
                    for action in actions {
                        if let EnforcementAction::Deleted { .. } = &action {
                            world.metrics.incr("enforcement.deletions");
                            // The copy registry is updated so future rounds
                            // skip this device.
                            let tx = world.dex.unregister_copy_tx(
                                &world.chain,
                                &device_key,
                                &self.resource_iri,
                                &device_name,
                                arrives_at,
                            );
                            if let Ok(id) = world.chain.submit(tx) {
                                self.pending.push_back(id);
                            }
                        }
                        self.enforcement.push((device_name.to_string(), action));
                    }
                }
                match self.deliveries.front() {
                    Some(&(_, at, _)) => Step::Sleep(Wake::At(at)),
                    None => {
                        self.phase = PolicyModPhase::ConfirmUnregisters;
                        self.step(world)
                    }
                }
            }
            PolicyModPhase::ConfirmUnregisters => {
                // Await inclusion of *every* pending unregistration so an
                // earlier deletion cannot race a later monitoring round:
                // park on each in turn until it has a receipt (whatever
                // its status) or times out.
                loop {
                    if let Some((id, deadline)) = self.current {
                        world.chain.advance_to(now);
                        if now < deadline && !world.chain.has_receipt(&id) {
                            return Step::Sleep(Wake::Receipt { id, deadline });
                        }
                        self.current = None;
                    } else if let Some(id) = self.pending.pop_front() {
                        self.current = Some((id, now + CONFIRM_TIMEOUT));
                    } else {
                        break;
                    }
                }
                world.sync_chain();

                let e2e = now - self.started;
                world.metrics.record("process.policy_mod.e2e", e2e);
                world.trace.record(
                    now,
                    format_args!("pm:{}", self.webid),
                    "policy.updated",
                    format_args!("{} v{}", self.resource_iri, self.version),
                );
                Step::Done(Ok(Outcome::PolicyPropagated(PropagationOutcome {
                    version: self.version,
                    devices_notified: self.notified,
                    enforcement: std::mem::take(&mut self.enforcement),
                    e2e,
                })))
            }
        }
    }

    /// Transition out of the confirm phase: record gas, claim this
    /// resource's push-out deliveries and start the fan-out.
    fn after_confirm<L: Ledger>(&mut self, world: &mut World<L>, receipt: &Receipt) -> Step {
        world
            .metrics
            .add("process.policy_mod.gas", receipt.gas_used);

        // Push-out fan-out to subscribed devices: claim the events that
        // belong to *this* update; others stay in the shared inbox for
        // their own in-flight processes.
        let claimed = world.claim_events(|routed| {
            matches!(routed, Routed::PolicyUpdated { resource, version, .. }
                if *resource == self.resource_iri && *version == self.version)
        });
        // Integrity gate: read the policy hash the contract anchored in
        // the *on-chain record* (not the hash travelling inside the pushed
        // event, which a tampered relay could rewrite alongside the
        // envelope). Devices only recompile against bytes matching the
        // chain-side anchor; superseded envelopes (an even newer update
        // already landed) are dropped the same way — their own fan-out
        // delivers the newer policy.
        let anchored_hash = match world.dex.lookup_resource(&world.chain, &self.resource_iri) {
            Ok(Some(record)) => record.policy_hash,
            Ok(None) => {
                return Step::Done(Err(ProcessError::UnknownResource(
                    self.resource_iri.clone(),
                )))
            }
            Err(e) => return Step::Done(Err(ProcessError::Policy(e.to_string()))),
        };
        let mut deliveries = Vec::new();
        for event in claimed {
            let Routed::PolicyUpdated { envelope, .. } = event.routed else {
                continue;
            };
            if envelope.digest() != anchored_hash {
                // Counted per rejected delivery, not per event.
                let rejected = event.deliveries.len() as u64;
                world
                    .metrics
                    .add("driver.policy_update.hash_mismatch", rejected);
                continue;
            }
            let policy = match world.open_envelope(&envelope) {
                Ok(policy) => Rc::new(policy),
                Err(e) => return Step::Done(Err(ProcessError::Policy(e.to_string()))),
            };
            deliveries.extend(
                (event.deliveries.into_iter()).map(|(to, at)| (to, at, Rc::clone(&policy))),
            );
        }
        deliveries.sort_by_key(|&(_, arrives_at, _)| arrives_at);
        self.deliveries = deliveries.into();
        self.phase = PolicyModPhase::Fanout;
        self.step(world)
    }
}

#[cfg(test)]
mod tests {
    use duc_blockchain::{ContractId, Event};
    use duc_contracts::{topics, DEX_CONTRACT_ID};
    use duc_policy::UsagePolicy;
    use duc_sim::SimDuration;

    use crate::chaos::launch_pad;
    use crate::driver::{InboxEvent, Outcome, Request, Routed};
    use crate::scenario::population_policy;
    use crate::world::WorldConfig;

    const OWNER: &str = "https://owner.id/me";
    const PATH: &str = "data/set.bin";

    /// A relay that rewrites the envelope (and the hash travelling beside
    /// it) cannot make a device recompile: the forged event carries the
    /// right resource and version, so process 5 claims it, and the on-chain
    /// anchor rejects every one of its deliveries.
    #[test]
    fn forged_policy_update_is_rejected_per_delivery() {
        // Three devices hold a copy under a seven-day retention policy.
        let holders = ["device-0", "device-1", "device-2"];
        let (mut world, iri) = launch_pad(OWNER, PATH, holders.len(), WorldConfig::default());
        let acquired = world.clock.now();

        // The owner tightens retention to three days (version 2); the
        // forged event claims one day under the same version and reaches
        // every holder before the genuine one can.
        let genuine = population_policy(&iri, OWNER, 3);
        let ticket = world.submit(Request::PolicyModification {
            webid: OWNER.into(),
            path: PATH.into(),
            rules: genuine.rules,
            duties: genuine.duties,
        });
        let forged = world.envelope(&UsagePolicy {
            version: 2,
            ..population_policy(&iri, OWNER, 1)
        });
        let planted = Event {
            contract: ContractId::new(DEX_CONTRACT_ID),
            topic: topics::POLICY_UPDATED.into(),
            data: duc_codec::encode_to_vec(&(iri.clone(), 2u64, forged.clone(), forged.digest())),
        };
        let now = world.clock.now();
        let planted = InboxEvent {
            routed: Routed::decode(&planted).expect("well-formed"),
            deliveries: (holders.iter())
                .map(|device| (world.device(device).endpoint, now))
                .collect(),
        };
        world.driver.inbox.push(planted);
        world.run_until_idle();

        match ticket.poll(&mut world).expect("completed") {
            Ok(Outcome::PolicyPropagated(outcome)) => {
                assert_eq!(outcome.version, 2);
                assert_eq!(outcome.devices_notified, holders.len());
            }
            other => panic!("expected propagation, got {other:?}"),
        }
        assert_eq!(
            world.metrics.counter("driver.policy_update.hash_mismatch"),
            holders.len() as u64,
            "one per rejected delivery"
        );
        for device in holders {
            let tee = &world.device(device).tee;
            assert_eq!(tee.policy_version(&iri), Some(2));
            let deadline = tee.next_deadline_for(&iri).expect("retention duty");
            assert!(
                deadline > acquired + SimDuration::from_days(2),
                "{device} runs the genuine three-day policy, not the forged one-day one"
            );
        }
        assert!(world.driver.inbox.is_empty());
    }
}
