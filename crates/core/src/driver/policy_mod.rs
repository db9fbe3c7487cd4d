//! Process 5 — policy modification and push-out fan-out.

use std::collections::VecDeque;
use std::rc::Rc;

use duc_blockchain::{Ledger, Receipt, TxId};
use duc_oracle::OracleError;
use duc_policy::{Duty, Rule, UsagePolicy};
use duc_sim::{EndpointId, SimTime};
use duc_tee::EnforcementAction;

use crate::process::{ProcessError, PropagationOutcome};
use crate::world::World;

use super::flow::{drive_flow, FlowPoll, TxFlow};
use super::{receipt_ok, Machine, Outcome, Routed, Step, Wake, CONFIRM_TIMEOUT};

/// Process 5 — policy modification and push-out fan-out.
pub(crate) struct PolicyMod<L> {
    webid: String,
    path: String,
    started: SimTime,
    phase: PolicyModPhase<L>,
}

enum PolicyModPhase<L> {
    Start {
        rules: Vec<Rule>,
        duties: Vec<Duty>,
    },
    Confirm {
        flow: TxFlow<L>,
        resource_iri: String,
        version: u64,
    },
    Fanout(FanoutState),
    ConfirmUnregisters(FanoutState),
}

/// Accumulated fan-out state shared by the last two phases of process 5.
struct FanoutState {
    resource_iri: String,
    version: u64,
    /// `(recipient, arrives_at, policy)` by arrival; one opened policy per
    /// event, shared by its deliveries.
    deliveries: VecDeque<(EndpointId, SimTime, Rc<UsagePolicy>)>,
    notified: usize,
    enforcement: Vec<(String, EnforcementAction)>,
    pending: VecDeque<TxId>,
    current: Option<(TxId, SimTime)>,
}

impl<L: Ledger> PolicyMod<L> {
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
        }
    }

    pub(super) fn step(self, world: &mut World<L>) -> Step<L> {
        let PolicyMod {
            webid,
            path,
            started,
            phase,
        } = self;
        let now = world.clock.now();
        match phase {
            PolicyModPhase::Start { rules, duties } => {
                let Some(owner) = world.owners.get_mut(&webid) else {
                    return Step::Done(Err(ProcessError::UnknownOwner(webid)));
                };
                let endpoint = owner.endpoint;
                let owner_key = owner.key;
                let amended = match owner
                    .pod_manager
                    .modify_policy(&webid, &path, rules, duties)
                {
                    Ok(amended) => amended,
                    Err(status) => {
                        return Step::Done(Err(ProcessError::Solid {
                            status,
                            detail: Some("policy modification refused".into()),
                        }))
                    }
                };
                let resource_iri = owner.pod_manager.pod().iri_of(&path);

                let envelope = world.envelope(&amended);
                let version = amended.version;
                let build = {
                    let iri = resource_iri.clone();
                    move |w: &World<L>| {
                        w.dex.update_policy_tx(
                            &w.chain,
                            &owner_key,
                            &iri,
                            envelope.clone(),
                            version,
                        )
                    }
                };
                let (flow, poll) = TxFlow::start(world, endpoint, build);
                match poll {
                    FlowPoll::Sleep(at) => Step::Sleep(
                        Machine::PolicyMod(Box::new(PolicyMod {
                            webid,
                            path,
                            started,
                            phase: PolicyModPhase::Confirm {
                                flow,
                                resource_iri,
                                version,
                            },
                        })),
                        at,
                    ),
                    FlowPoll::Done(res) => {
                        Self::after_confirm(world, webid, path, started, resource_iri, version, res)
                    }
                }
            }
            PolicyModPhase::Confirm {
                flow,
                resource_iri,
                version,
            } => drive_flow!(
                world,
                flow,
                |flow| Machine::PolicyMod(Box::new(PolicyMod {
                    webid: webid.clone(),
                    path: path.clone(),
                    started,
                    phase: PolicyModPhase::Confirm {
                        flow,
                        resource_iri: resource_iri.clone(),
                        version,
                    },
                })),
                |world: &mut World<L>, res| Self::after_confirm(
                    world,
                    webid.clone(),
                    path.clone(),
                    started,
                    resource_iri.clone(),
                    version,
                    res
                )
            ),
            PolicyModPhase::Fanout(mut state) => {
                // Apply every delivery that has arrived by now.
                while state
                    .deliveries
                    .front()
                    .is_some_and(|(_, arrives_at, _)| *arrives_at <= now)
                {
                    let (recipient, arrives_at, policy) =
                        state.deliveries.pop_front().expect("peeked");
                    let Some(&sym) = world.device_endpoints.get(&recipient) else {
                        continue;
                    };
                    let Some(device) = world.devices.get_sym_mut(sym) else {
                        continue;
                    };
                    if !device.tee.has_copy(&state.resource_iri) {
                        continue;
                    }
                    let actions = device.tee.apply_policy_update(
                        &state.resource_iri,
                        Rc::unwrap_or_clone(policy),
                        arrives_at,
                    );
                    let device_name = world.ids.resolve(sym);
                    let device_key = device.key;
                    // The device recompiled its program against the new
                    // version: re-arm its obligation wakeup mid-flight
                    // (ongoing authorization on policy change).
                    world.schedule_obligation(&device_name, &state.resource_iri);
                    world
                        .metrics
                        .record("process.policy_mod.propagation", arrives_at - started);
                    state.notified += 1;
                    for action in actions {
                        if let EnforcementAction::Deleted { .. } = &action {
                            world.metrics.incr("enforcement.deletions");
                            // The copy registry is updated so future rounds
                            // skip this device.
                            let tx = world.dex.unregister_copy_tx(
                                &world.chain,
                                &device_key,
                                &state.resource_iri,
                                &device_name,
                                arrives_at,
                            );
                            if let Ok(id) = world.chain.submit(tx) {
                                state.pending.push_back(id);
                            }
                        }
                        state.enforcement.push((device_name.to_string(), action));
                    }
                }
                match state.deliveries.front() {
                    Some(&(_, at, _)) => Step::Sleep(
                        Machine::PolicyMod(Box::new(PolicyMod {
                            webid,
                            path,
                            started,
                            phase: PolicyModPhase::Fanout(state),
                        })),
                        Wake::At(at),
                    ),
                    None => PolicyMod {
                        webid,
                        path,
                        started,
                        phase: PolicyModPhase::ConfirmUnregisters(state),
                    }
                    .step(world),
                }
            }
            PolicyModPhase::ConfirmUnregisters(mut state) => {
                // Await inclusion of *every* pending unregistration so an
                // earlier deletion cannot race a later monitoring round:
                // park on each in turn until it has a receipt (whatever
                // its status) or times out.
                loop {
                    if let Some((id, deadline)) = state.current.take() {
                        world.chain.advance_to(now);
                        if now < deadline && !world.chain.has_receipt(&id) {
                            state.current = Some((id, deadline));
                            return Step::Sleep(
                                Machine::PolicyMod(Box::new(PolicyMod {
                                    webid,
                                    path,
                                    started,
                                    phase: PolicyModPhase::ConfirmUnregisters(state),
                                })),
                                Wake::Receipt { id, deadline },
                            );
                        }
                    } else if let Some(id) = state.pending.pop_front() {
                        state.current = Some((id, now + CONFIRM_TIMEOUT));
                    } else {
                        break;
                    }
                }
                world.sync_chain();

                let e2e = now - started;
                world.metrics.record("process.policy_mod.e2e", e2e);
                world.trace.record(
                    now,
                    format!("pm:{webid}"),
                    "policy.updated",
                    format!("{} v{}", state.resource_iri, state.version),
                );
                Step::Done(Ok(Outcome::PolicyPropagated(PropagationOutcome {
                    version: state.version,
                    devices_notified: state.notified,
                    enforcement: state.enforcement,
                    e2e,
                })))
            }
        }
    }

    /// Transition out of the confirm phase: record gas, claim this
    /// resource's push-out deliveries and start the fan-out.
    fn after_confirm(
        world: &mut World<L>,
        webid: String,
        path: String,
        started: SimTime,
        resource_iri: String,
        version: u64,
        res: Result<Receipt, OracleError>,
    ) -> Step<L> {
        let receipt = match res.map_err(ProcessError::from).and_then(receipt_ok) {
            Ok(receipt) => receipt,
            Err(e) => return Step::Done(Err(e)),
        };
        world
            .metrics
            .add("process.policy_mod.gas", receipt.gas_used);

        // Push-out fan-out to subscribed devices: claim the events that
        // belong to *this* update; others stay in the shared inbox for
        // their own in-flight processes.
        let claimed = world.claim_events(|routed| {
            matches!(routed, Routed::PolicyUpdated { resource, version: v, .. }
                if *resource == resource_iri && *v == version)
        });
        // Integrity gate: read the policy hash the contract anchored in
        // the *on-chain record* (not the hash travelling inside the pushed
        // event, which a tampered relay could rewrite alongside the
        // envelope). Devices only recompile against bytes matching the
        // chain-side anchor; superseded envelopes (an even newer update
        // already landed) are dropped the same way — their own fan-out
        // delivers the newer policy.
        let anchored_hash = match world.dex.lookup_resource(&world.chain, &resource_iri) {
            Ok(Some(record)) => record.policy_hash,
            Ok(None) => return Step::Done(Err(ProcessError::UnknownResource(resource_iri))),
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

        PolicyMod {
            webid,
            path,
            started,
            phase: PolicyModPhase::Fanout(FanoutState {
                resource_iri,
                version,
                deliveries: deliveries.into(),
                notified: 0,
                enforcement: Vec::new(),
                pending: VecDeque::new(),
                current: None,
            }),
        }
        .step(world)
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
