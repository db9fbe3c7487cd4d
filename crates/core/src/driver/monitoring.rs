//! Process 6 — policy monitoring round.

use std::collections::VecDeque;
use std::rc::Rc;

use duc_blockchain::{Event, Ledger, Receipt};
use duc_contracts::{DistExchangeClient, EvidenceReaffirmation, EvidenceSubmission};
use duc_oracle::{HopKind, OracleError};
use duc_sim::{EndpointId, SimTime};
use duc_tee::ReportedEvidence;

use crate::world::World;

use super::flow::{FlowPoll, PreparedCall, TxFlow};
use super::hop::{Hop, HopPoll};
use super::{MonitoringOutcome, Outcome, ProcessError, Routed, Step, Wake};

/// Process 6 — policy monitoring round.
pub(crate) struct Monitoring {
    webid: String,
    path: String,
    started: SimTime,
    phase: MonPhase,
    /// Set by `Open`: the resource and the pod manager's endpoint.
    resource_iri: String,
    endpoint: Option<EndpointId>,
    /// Set when the round-opening transaction confirmed.
    round: u64,
    /// Devices still to visit, and how many the round expected in all.
    expected: VecDeque<String>,
    expected_total: usize,
    evidence_bytes: usize,
    submissions: usize,
    /// Encoded size of the submission currently awaiting confirmation
    /// (accounted into `evidence_bytes` only once it lands on-chain).
    pending_bytes: usize,
    /// On evidence confirmation, remember this on the device's TEE so the
    /// *next* round can reaffirm instead of resubmitting. `None` for
    /// reaffirmations (the pointer must keep naming the round holding the
    /// full evidence).
    pending_note: Option<(String, ReportedEvidence)>,
}

enum MonPhase {
    Open,
    OpenConfirm(TxFlow),
    /// Poll hop (relay → gateway), fault-aware.
    PollOut(Hop),
    PollGateway,
    /// Return hop (gateway → relay), fault-aware; the cursor commits only
    /// when the response actually arrives.
    PollReturn {
        events: Vec<(u64, Rc<Event>)>,
        cursor_to: u64,
        hop: Hop,
    },
    PollArrived {
        events: Vec<(u64, Rc<Event>)>,
        cursor_to: u64,
    },
    DeviceRequest,
    /// Evidence probe hop (relay → device), fault-aware: a device that
    /// stays unreachable past the hop budget is skipped, not fatal.
    DeviceProbe {
        device: String,
        hop: Hop,
    },
    DeviceReport {
        device: String,
    },
    EvidenceConfirm(TxFlow),
}

impl Monitoring {
    pub(super) fn new(webid: String, path: String, started: SimTime) -> Self {
        Monitoring {
            webid,
            path,
            started,
            phase: MonPhase::Open,
            resource_iri: String::new(),
            endpoint: None,
            round: 0,
            expected: VecDeque::new(),
            expected_total: 0,
            evidence_bytes: 0,
            submissions: 0,
            pending_bytes: 0,
            pending_note: None,
        }
    }

    pub(super) fn step<L: Ledger>(&mut self, world: &mut World<L>) -> Step {
        let now = world.clock.now();
        match &mut self.phase {
            MonPhase::Open => {
                let Some(owner) = world.try_owner(&self.webid) else {
                    return Step::Done(Err(ProcessError::UnknownOwner(self.webid.clone())));
                };
                let (from, key) = (owner.endpoint, owner.key);
                self.endpoint = Some(from);
                self.resource_iri = owner.pod_manager.pod().iri_of(&self.path);

                // Open the round.
                let tx = world
                    .dex
                    .start_monitoring_tx(&world.chain, &key, &self.resource_iri);
                self.phase =
                    MonPhase::OpenConfirm(TxFlow::new(world, PreparedCall { from, key, tx }));
                self.step(world)
            }
            MonPhase::OpenConfirm(flow) => match flow.step(world) {
                FlowPoll::Sleep(wake) => Step::Sleep(wake),
                FlowPoll::Done(Ok(receipt)) => self.open_confirmed(world, &receipt),
                FlowPoll::Done(Err(e)) => Step::Done(Err(e)),
            },
            MonPhase::PollOut(hop) => match hop.step(world) {
                HopPoll::Sent { arrives } => {
                    self.phase = MonPhase::PollGateway;
                    Step::Sleep(Wake::At(arrives))
                }
                HopPoll::Retry { at } => Step::Sleep(Wake::At(at)),
                HopPoll::Failed(e) => Step::Done(Err(e.into())),
            },
            MonPhase::PollGateway => {
                // At the gateway: collect the request events and ship them
                // back to the relay. The cursor commits only when the
                // response arrives, so a lost hop never strands events.
                // A cursor stranded below the prune horizon (pruning ran
                // while the poll was in flight) resyncs to the checkpoint's
                // event-cursor floor instead of reading silently-empty
                // ranges; rounds whose request events were evicted get
                // re-opened by the scheduler, not replayed from the log.
                let (events, response_size, cursor_to) =
                    match world.pull_in.try_collect_requests(&world.chain) {
                        Ok(collected) => collected,
                        Err(OracleError::Pruned(e)) => {
                            world.pull_in.resync(e.horizon);
                            world
                                .pull_in
                                .try_collect_requests(&world.chain)
                                .expect("cursor at horizon is always valid")
                        }
                        Err(e) => {
                            unreachable!("try_collect_requests only reports pruned ranges: {e}")
                        }
                    };
                let hop = Hop::new(
                    world,
                    world.gateway,
                    world.pull_in.relay,
                    response_size,
                    HopKind::PullInReturn,
                );
                self.phase = MonPhase::PollReturn {
                    events,
                    cursor_to,
                    hop,
                };
                Step::Sleep(Wake::At(now))
            }
            MonPhase::PollReturn {
                events,
                cursor_to,
                hop,
            } => match hop.step(world) {
                HopPoll::Sent { arrives } => {
                    self.phase = MonPhase::PollArrived {
                        events: std::mem::take(events),
                        cursor_to: *cursor_to,
                    };
                    Step::Sleep(Wake::At(arrives))
                }
                HopPoll::Retry { at } => Step::Sleep(Wake::At(at)),
                HopPoll::Failed(e) => Step::Done(Err(e.into())),
            },
            MonPhase::PollArrived { events, cursor_to } => {
                world.pull_in.commit_cursor(*cursor_to);
                // Find our round's request among the fresh events and any
                // stashed by sibling rounds; stash the rest for them. Both
                // sources share one decode policy: an undecodable payload
                // can never match any round, so it is dropped (counted)
                // rather than failing this round or circulating forever.
                let mut matched: Option<Vec<String>> = None;
                let stashed = std::mem::take(&mut world.driver.monitoring_inbox);
                for (height, event) in stashed.into_iter().chain(std::mem::take(events)) {
                    match decode_monitoring_request(&event.data) {
                        Some((res, r, devices))
                            if matched.is_none() && res == self.resource_iri && r == self.round =>
                        {
                            matched = Some(devices);
                        }
                        Some(_) => world.driver.monitoring_inbox.push((height, event)),
                        None => world.metrics.incr("driver.monitoring.bad_event"),
                    }
                }
                if let Some(devices) = matched {
                    self.expected_total = devices.len();
                    self.expected = devices.into();
                }
                self.next_device(world)
            }
            MonPhase::DeviceRequest => {
                // Collect signed evidence from each expected device, in
                // order; devices that stay unreachable past the probe
                // budget are skipped without stalling the round.
                loop {
                    let Some(device) = self.expected.pop_front() else {
                        return self.finish(world);
                    };
                    let Some(dev) = world.try_device(&device) else {
                        continue;
                    };
                    // Request hop: oracle → device (fault-aware).
                    let hop = Hop::new(
                        world,
                        world.pull_in.relay,
                        dev.endpoint,
                        128,
                        HopKind::DeviceProbe,
                    );
                    self.phase = MonPhase::DeviceProbe { device, hop };
                    return Step::Sleep(Wake::At(now));
                }
            }
            MonPhase::DeviceProbe { device, hop } => match hop.step(world) {
                HopPoll::Sent { arrives } => {
                    self.phase = MonPhase::DeviceReport {
                        device: std::mem::take(device),
                    };
                    Step::Sleep(Wake::At(arrives))
                }
                HopPoll::Retry { at } => Step::Sleep(Wake::At(at)),
                HopPoll::Failed(_) => {
                    // The device could not be reached within the probe
                    // budget: record it and move on — absent evidence is
                    // itself visible in the on-chain round.
                    world.metrics.incr("process.monitoring.unreachable");
                    self.next_device(world)
                }
            },
            MonPhase::DeviceReport { device } => {
                let device = std::mem::take(device);
                let Some(dev) = world.try_device(&device) else {
                    return self.next_device(world);
                };
                let Some(report) = dev.tee.report(&self.resource_iri, now) else {
                    return self.next_device(world);
                };
                // Incremental monitoring: when the usage log is unchanged
                // since the device's last *compliant* full submission, the
                // enclave signs a compact reaffirmation instead of
                // re-shipping (and the contract re-storing) the full
                // evidence.
                let reaffirmable = report.compliant && report.violations.is_empty();
                let reaffirmed = dev.tee.last_reported(&self.resource_iri).filter(|prev| {
                    reaffirmable && prev.compliant && prev.digest == report.log_digest
                });
                let (from, key) = (dev.endpoint, dev.key);
                let tx = if let Some(prev) = reaffirmed {
                    let mut reaff = EvidenceReaffirmation {
                        resource: self.resource_iri.clone(),
                        round: self.round,
                        device,
                        prev_round: prev.round,
                        evidence_digest: report.log_digest,
                        signature: duc_crypto::Signature { e: 0, s: 0 },
                    };
                    reaff.signature = dev.tee.enclave().sign(&reaff.signing_bytes());
                    self.pending_bytes = duc_codec::encode_to_vec(&reaff).len();
                    self.pending_note = None;
                    world.dex.reaffirm_evidence_tx(&world.chain, &key, &reaff)
                } else {
                    let mut submission = EvidenceSubmission {
                        resource: self.resource_iri.clone(),
                        round: self.round,
                        device: device.clone(),
                        compliant: report.compliant,
                        violations: report.violations,
                        evidence_digest: report.log_digest,
                        signature: duc_crypto::Signature { e: 0, s: 0 },
                    };
                    submission.signature = dev.tee.enclave().sign(&submission.signing_bytes());
                    self.pending_bytes = duc_codec::encode_to_vec(&submission).len();
                    self.pending_note = Some((
                        device,
                        ReportedEvidence {
                            round: self.round,
                            digest: report.log_digest,
                            compliant: report.compliant,
                        },
                    ));
                    world
                        .dex
                        .record_evidence_tx(&world.chain, &key, &submission)
                };
                self.phase =
                    MonPhase::EvidenceConfirm(TxFlow::new(world, PreparedCall { from, key, tx }));
                self.step(world)
            }
            MonPhase::EvidenceConfirm(flow) => match flow.step(world) {
                FlowPoll::Sleep(wake) => Step::Sleep(wake),
                FlowPoll::Done(Ok(receipt)) => self.evidence_confirmed(world, &receipt),
                FlowPoll::Done(Err(e)) => Step::Done(Err(e)),
            },
        }
    }

    /// The round-opening transaction confirmed: decode the round number and
    /// start the pull-in poll.
    fn open_confirmed<L: Ledger>(&mut self, world: &mut World<L>, receipt: &Receipt) -> Step {
        self.round = match DistExchangeClient::decode_round_number(&receipt.return_data) {
            Ok(round) => round,
            Err(e) => return Step::Done(Err(ProcessError::Policy(e.to_string()))),
        };
        world
            .metrics
            .add("process.monitoring.gas", receipt.gas_used);

        // Pull-in oracle: poll the gateway for the request event
        // (fault-aware hop).
        let hop = Hop::new(
            world,
            world.pull_in.relay,
            world.gateway,
            64,
            HopKind::PullInPoll,
        );
        self.phase = MonPhase::PollOut(hop);
        Step::Sleep(Wake::At(world.clock.now()))
    }

    /// Visits the next expected device, or closes the round after the last.
    fn next_device<L: Ledger>(&mut self, world: &mut World<L>) -> Step {
        self.phase = MonPhase::DeviceRequest;
        self.step(world)
    }

    /// One device's evidence transaction confirmed: account for it and move
    /// on to the next device.
    fn evidence_confirmed<L: Ledger>(&mut self, world: &mut World<L>, receipt: &Receipt) -> Step {
        world
            .metrics
            .add("process.monitoring.gas", receipt.gas_used);
        self.submissions += 1;
        self.evidence_bytes += std::mem::take(&mut self.pending_bytes);
        // Only a *confirmed* submission counts: full evidence is noted
        // device-side so the next unchanged round can reaffirm against
        // this round; a confirmed reaffirmation bumps the counter.
        match self.pending_note.take() {
            Some((device, reported)) => {
                if let Some(dev) = world.devices.get_mut(&device) {
                    dev.tee.note_reported(&self.resource_iri, reported);
                }
            }
            None => world.metrics.incr("process.monitoring.reaffirmed"),
        }
        self.next_device(world)
    }

    /// Every expected device was visited: read the verdict, deliver it to
    /// the pod manager (push-out) and complete.
    fn finish<L: Ledger>(&mut self, world: &mut World<L>) -> Step {
        let record = match world
            .dex
            .get_round(&world.chain, &self.resource_iri, self.round)
        {
            Ok(Some(record)) => record,
            Ok(None) => return Step::Done(Err(ProcessError::Policy("round vanished".into()))),
            Err(e) => return Step::Done(Err(ProcessError::Policy(e.to_string()))),
        };
        let closed = world.claim_events(|routed| {
            matches!(routed, Routed::RoundClosed { resource, round }
                if *resource == self.resource_iri && *round == self.round)
        });
        let mut verdicts = closed.iter().flat_map(|e| &e.deliveries);
        if verdicts.any(|(to, _)| Some(*to) == self.endpoint) {
            world.metrics.incr("process.monitoring.verdicts_delivered");
        }

        let now = world.clock.now();
        let duration = now - self.started;
        world.metrics.record("process.monitoring.e2e", duration);
        world.metrics.add(
            "process.monitoring.evidence_bytes",
            self.evidence_bytes as u64,
        );
        let violators = record.violators();
        world.trace.record(
            now,
            format_args!("pm:{}", self.webid),
            "monitoring.round",
            format_args!(
                "{} round {}: {} violators",
                self.resource_iri,
                self.round,
                violators.len()
            ),
        );
        Step::Done(Ok(Outcome::Monitored(MonitoringOutcome {
            round: self.round,
            expected: self.expected_total,
            evidence: self.submissions,
            violators: violators.iter().map(|e| e.device.clone()).collect(),
            evidence_bytes: self.evidence_bytes,
            duration,
        })))
    }
}

/// Decodes a `MonitoringRequested` event payload.
fn decode_monitoring_request(data: &[u8]) -> Option<(String, u64, Vec<String>)> {
    duc_codec::decode_from_slice(data).ok()
}
