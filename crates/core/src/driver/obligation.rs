//! The obligation scheduler — deadline-driven usage enforcement.
//!
//! When a governed copy enters a TEE (process 4) or its policy changes
//! (process 5 / a `PolicyUpdated` event), the driver registers a wakeup on
//! the [`duc_sim::Scheduler`] at the copy's compiled
//! `PolicyProgram::next_deadline` instant. When the wakeup fires, an
//! internal [`ObligationRun`] machine executes the due duties — the TEE
//! deletes the overdue copy, notification duties surface — and anchors the
//! on-chain evidence (the `unregister_copy` transaction and its
//! `CopyRemoved` event) through the same non-blocking [`TxFlow`] the user
//! processes use. Enforcement therefore lands at the *declared instant*
//! instead of at the next monitoring sweep, and the `enforcement.lag`
//! histogram (now − deadline) measures exactly the violation→enforcement
//! latency experiment E14 reports.
//!
//! Under [`EnforcementMode::Periodic`] the wakeups land on a fixed grid
//! instead — the round-based baseline E14 compares against. The mode is
//! mapped in [`World::schedule_obligation`] and nowhere else.
//!
//! These wakeups are the only enforcement path: nothing scans devices for
//! overdue copies. A wakeup that fires into a rogue host (suppressed
//! enclave timers) is spent; healing the host re-arms every live copy it
//! holds ([`World::set_rogue_host`]), so an overdue one is enforced at the
//! next instant — or grid point — with its lag and evidence recorded. A
//! damaged enclave surfaces as [`ProcessError::Tee`] and the
//! `driver.obligation.failed` counter; it does not re-arm.

use duc_contracts::calls::UnregisterCopy;
use duc_contracts::DistExchangeClient;
use duc_sim::{SimDuration, SimTime};
use duc_tee::EnforcementAction;

use crate::world::{EnforcementMode, World};

use super::flow::{FlowPoll, PreparedCall, TxFlow};
use super::{Outcome, ProcessError, Step};

/// Internal machine executing one (device, resource) obligation wakeup.
pub(crate) struct ObligationRun {
    device: String,
    resource: String,
    phase: ObligationPhase,
}

enum ObligationPhase {
    Start,
    /// Awaiting inclusion of the `unregister_copy` evidence.
    Confirm(TxFlow),
}

impl ObligationRun {
    pub(crate) fn new(device: String, resource: String) -> Self {
        ObligationRun {
            device,
            resource,
            phase: ObligationPhase::Start,
        }
    }

    pub(super) fn step(&mut self, world: &mut World) -> Step {
        let now = world.clock.now();
        match &mut self.phase {
            ObligationPhase::Start => {
                // Rogue hosts suppress their enclave timers: the wakeup
                // fires into the void and is spent. Monitoring surfaces
                // the violation; healing the host re-arms the copy
                // (`World::set_rogue_host`).
                if world.is_rogue_host(&self.device) {
                    return self.enforced(false);
                }
                let Some(dev) = world.devices.get_mut(&self.device) else {
                    return Step::Done(Err(ProcessError::UnknownDevice(self.device.clone())));
                };
                let due = match dev.tee.next_deadline_for(&self.resource) {
                    // The copy is gone or unconstrained: nothing to do.
                    None => return self.enforced(false),
                    // A stale wakeup (the policy was relaxed since it was
                    // registered): re-arm at the fresh deadline.
                    Some(due) if due > now => {
                        world.schedule_obligation(&self.device, &self.resource, None);
                        return self.enforced(false);
                    }
                    Some(due) => due,
                };
                let (from, key) = (dev.endpoint, dev.key);
                let actions = match dev.tee.enforce_due(&self.resource, now) {
                    Ok(actions) => actions,
                    Err(e) => return Step::Done(Err(ProcessError::Tee(e))),
                };
                world.metrics.record("enforcement.lag", now - due);
                let mut deleted = false;
                for action in &actions {
                    match action {
                        EnforcementAction::Deleted { reason, .. } => {
                            deleted = true;
                            world.metrics.incr("enforcement.deletions");
                            world.trace.record(
                                now,
                                format_args!("tee:{}", self.device),
                                "obligation.deleted",
                                format_args!("{}: {reason}", self.resource),
                            );
                        }
                        EnforcementAction::NotifyOwner { by, .. } => {
                            world.metrics.incr("enforcement.notifications");
                            world.trace.record(
                                now,
                                format_args!("tee:{}", self.device),
                                "obligation.notify",
                                format_args!("{} by {by}", self.resource),
                            );
                        }
                    }
                }
                if !deleted {
                    return self.enforced(false);
                }
                // Anchor the enforcement on-chain: the copy registry drops
                // the entry and the `CopyRemoved` event is the duty's
                // evidence trail.
                // `now` is the deletion instant: the contract keeps any
                // registration made at/after it, so a re-access racing
                // this flow is never clobbered.
                let enclave = world.device(&self.device).tee.enclave();
                let (resource, device) = (self.resource.clone(), self.device.clone());
                let unregister = UnregisterCopy::signed(resource, device, now, |b| enclave.sign(b));
                let tx = world.dex.call_tx(&world.chain, &key, unregister);
                self.phase =
                    ObligationPhase::Confirm(TxFlow::new(world, PreparedCall { from, key, tx }));
                self.step(world)
            }
            ObligationPhase::Confirm(flow) => match flow.step(world) {
                FlowPoll::Sleep(wake) => Step::Sleep(wake),
                FlowPoll::Done(Ok(receipt)) => {
                    // The contract's freshness guard returns `false` when
                    // a racing re-access re-registered the copy: the local
                    // deletion of the *old* copy stands, but no registry
                    // change was anchored.
                    let data = &receipt.return_data;
                    let removed =
                        DistExchangeClient::decode_return::<UnregisterCopy>(data).unwrap_or(false);
                    if removed {
                        world.metrics.incr("enforcement.evidence_anchored");
                    } else {
                        world.metrics.incr("enforcement.anchor_superseded");
                    }
                    self.enforced(removed)
                }
                FlowPoll::Done(Err(e)) => {
                    // The local deletion stands (fail-safe); only the
                    // on-chain anchor is missing. Monitoring surfaces the
                    // stale registry entry, exactly as for a crashed
                    // device.
                    world.metrics.incr("enforcement.anchor_failed");
                    Step::Done(Err(e))
                }
            },
        }
    }

    /// The wakeup ran to its end.
    fn enforced(&self, deleted: bool) -> Step {
        Step::Done(Ok(Outcome::ObligationsEnforced {
            device: self.device.clone(),
            resource: self.resource.clone(),
            deleted,
        }))
    }
}

impl World {
    /// Registers (or refreshes) the obligation wakeup for one governed
    /// copy: the next retention/expiry deadline of `resource` on `device`,
    /// mapped through the world's [`EnforcementMode`]. A no-op when the
    /// copy has no deadline; an existing wakeup at a different instant is
    /// cancelled first.
    ///
    /// With a `floor`, the wakeup is never earlier than the first instant
    /// strictly after it — used to re-arm the copies of a healed rogue
    /// host, whose deadlines may already be behind the clock.
    pub(crate) fn schedule_obligation(
        &mut self,
        device: &str,
        resource: &str,
        floor: Option<SimTime>,
    ) {
        let Some(dev) = self.devices.get(device) else {
            return;
        };
        let Some(mut due) = dev.tee.next_deadline_for(resource) else {
            return;
        };
        if let Some(floor) = floor {
            due = due.max(SimTime::from_nanos(floor.as_nanos().saturating_add(1)));
        }
        let at = match self.config.enforcement {
            EnforcementMode::Deadline => due,
            EnforcementMode::Periodic(period) => grid_instant(due, period),
        };
        // Interned key: re-arming on every policy change costs two u32
        // hashes, not two String allocations.
        let key = (self.ids.intern(device), self.ids.intern(resource));
        if let Some((scheduled_at, id)) = self.driver.scheduled_obligations.get(&key) {
            if *scheduled_at == at {
                return;
            }
            self.sched.cancel(*id);
        }
        let queue = self.driver.obligation_woken.clone();
        let id = self
            .sched
            .schedule_at(at, move |_| queue.borrow_mut().push_back(key));
        self.driver.scheduled_obligations.insert(key, (at, id));
    }
}

/// The first instant on the `period` grid at or after `due` (the
/// round-based baseline: a duty waits for the next periodic sweep).
fn grid_instant(due: SimTime, period: SimDuration) -> SimTime {
    let p = period.as_nanos().max(1);
    let due_n = due.as_nanos();
    let rem = due_n % p;
    if rem == 0 {
        due
    } else {
        SimTime::from_nanos(due_n.saturating_add(p - rem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_rounds_up_to_the_period() {
        let p = SimDuration::from_secs(10);
        assert_eq!(
            grid_instant(SimTime::from_secs(25), p),
            SimTime::from_secs(30)
        );
        assert_eq!(
            grid_instant(SimTime::from_secs(30), p),
            SimTime::from_secs(30)
        );
        assert_eq!(grid_instant(SimTime::ZERO, p), SimTime::ZERO);
    }
}
