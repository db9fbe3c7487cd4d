//! Process 6 — policy monitoring round.

use std::collections::VecDeque;
use std::rc::Rc;

use duc_blockchain::{Event, Ledger, Receipt};
use duc_contracts::{DistExchangeClient, EvidenceReaffirmation, EvidenceSubmission};
use duc_oracle::{HopKind, OracleError};
use duc_sim::{EndpointId, SimTime};

use crate::process::{MonitoringOutcome, ProcessError};
use crate::world::World;
use duc_tee::ReportedEvidence;

use super::flow::{FlowPoll, TxFlow};
use super::hop::{Hop, HopPoll};
use super::{receipt_ok, Machine, Outcome, Routed, Step, Wake};

/// Process 6 — policy monitoring round.
pub(crate) struct Monitoring<L> {
    webid: String,
    path: String,
    started: SimTime,
    phase: MonPhase<L>,
}

/// Context accumulated while a monitoring round runs.
struct MonCtx {
    resource_iri: String,
    endpoint: EndpointId,
    round: u64,
    expected: VecDeque<String>,
    expected_total: usize,
    evidence_bytes: usize,
    submissions: usize,
    /// Reaffirmations recorded this round (incremental monitoring).
    reaffirmed: usize,
    /// Encoded size of the submission currently awaiting confirmation
    /// (accounted into `evidence_bytes` only once it lands on-chain).
    pending_bytes: usize,
    /// On evidence confirmation, remember this on the device's TEE so the
    /// *next* round can reaffirm instead of resubmitting. `None` for
    /// reaffirmations (the pointer must keep naming the round holding the
    /// full evidence).
    pending_note: Option<(String, ReportedEvidence)>,
}

enum MonPhase<L> {
    Open,
    OpenConfirm {
        flow: TxFlow<L>,
        resource_iri: String,
        endpoint: EndpointId,
    },
    /// Poll hop (relay → gateway), fault-aware.
    PollOut {
        ctx: MonCtx,
        hop: Hop,
    },
    PollGateway(MonCtx),
    /// Return hop (gateway → relay), fault-aware; the cursor commits only
    /// when the response actually arrives.
    PollReturn {
        ctx: MonCtx,
        events: Vec<(u64, Rc<Event>)>,
        cursor_to: u64,
        hop: Hop,
    },
    PollArrived {
        ctx: MonCtx,
        events: Vec<(u64, Rc<Event>)>,
        cursor_to: u64,
    },
    DeviceRequest(MonCtx),
    /// Evidence probe hop (relay → device), fault-aware: a device that
    /// stays unreachable past the hop budget is skipped, not fatal.
    DeviceProbe {
        ctx: MonCtx,
        device: String,
        hop: Hop,
    },
    DeviceReport {
        ctx: MonCtx,
        device: String,
    },
    EvidenceConfirm {
        ctx: MonCtx,
        flow: TxFlow<L>,
    },
}

impl<L: Ledger> Monitoring<L> {
    #[allow(clippy::too_many_lines)]
    pub(super) fn new(webid: String, path: String, started: SimTime) -> Self {
        Monitoring {
            webid,
            path,
            started,
            phase: MonPhase::Open,
        }
    }

    pub(super) fn step(self, world: &mut World<L>) -> Step<L> {
        let Monitoring {
            webid,
            path,
            started,
            phase,
        } = self;
        let now = world.clock.now();
        let wrap = |phase| {
            Machine::Monitoring(Box::new(Monitoring {
                webid: webid.clone(),
                path: path.clone(),
                started,
                phase,
            }))
        };
        match phase {
            MonPhase::Open => {
                let Some(owner) = world.try_owner(&webid) else {
                    return Step::Done(Err(ProcessError::UnknownOwner(webid)));
                };
                let endpoint = owner.endpoint;
                let resource_iri = owner.pod_manager.pod().iri_of(&path);
                let owner_key = owner.key;

                // Open the round.
                let build = {
                    let iri = resource_iri.clone();
                    move |w: &World<L>| w.dex.start_monitoring_tx(&w.chain, &owner_key, &iri)
                };
                let (flow, poll) = TxFlow::start(world, endpoint, build);
                match poll {
                    FlowPoll::Sleep(at) => Step::Sleep(
                        wrap(MonPhase::OpenConfirm {
                            flow,
                            resource_iri,
                            endpoint,
                        }),
                        at,
                    ),
                    FlowPoll::Done(res) => Monitoring {
                        webid,
                        path,
                        started,
                        phase: MonPhase::OpenConfirm {
                            flow: TxFlow::Spent,
                            resource_iri,
                            endpoint,
                        },
                    }
                    .open_confirmed(world, res),
                }
            }
            MonPhase::OpenConfirm {
                flow,
                resource_iri,
                endpoint,
            } => {
                let mut flow = flow;
                match flow.step(world) {
                    FlowPoll::Sleep(at) => Step::Sleep(
                        wrap(MonPhase::OpenConfirm {
                            flow,
                            resource_iri,
                            endpoint,
                        }),
                        at,
                    ),
                    FlowPoll::Done(res) => Monitoring {
                        webid,
                        path,
                        started,
                        phase: MonPhase::OpenConfirm {
                            flow: TxFlow::Spent,
                            resource_iri,
                            endpoint,
                        },
                    }
                    .open_confirmed(world, res),
                }
            }
            MonPhase::PollOut { ctx, mut hop } => match hop.step(world) {
                HopPoll::Sent { arrives } => {
                    Step::Sleep(wrap(MonPhase::PollGateway(ctx)), Wake::At(arrives))
                }
                HopPoll::Retry { at } => {
                    Step::Sleep(wrap(MonPhase::PollOut { ctx, hop }), Wake::At(at))
                }
                HopPoll::Failed(e) => Step::Done(Err(ProcessError::Oracle(e))),
            },
            MonPhase::PollGateway(ctx) => {
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
                Step::Sleep(
                    wrap(MonPhase::PollReturn {
                        ctx,
                        events,
                        cursor_to,
                        hop,
                    }),
                    Wake::At(now),
                )
            }
            MonPhase::PollReturn {
                ctx,
                events,
                cursor_to,
                mut hop,
            } => match hop.step(world) {
                HopPoll::Sent { arrives } => Step::Sleep(
                    wrap(MonPhase::PollArrived {
                        ctx,
                        events,
                        cursor_to,
                    }),
                    Wake::At(arrives),
                ),
                HopPoll::Retry { at } => Step::Sleep(
                    wrap(MonPhase::PollReturn {
                        ctx,
                        events,
                        cursor_to,
                        hop,
                    }),
                    Wake::At(at),
                ),
                HopPoll::Failed(e) => Step::Done(Err(ProcessError::Oracle(e))),
            },
            MonPhase::PollArrived {
                mut ctx,
                events,
                cursor_to,
            } => {
                world.pull_in.commit_cursor(cursor_to);
                // Find our round's request among the fresh events and any
                // stashed by sibling rounds; stash the rest for them. Both
                // sources share one decode policy: an undecodable payload
                // can never match any round, so it is dropped (counted)
                // rather than failing this round or circulating forever.
                let mut matched: Option<Vec<String>> = None;
                let stashed = std::mem::take(&mut world.driver.monitoring_inbox);
                for (height, event) in stashed.into_iter().chain(events) {
                    match decode_monitoring_request(&event.data) {
                        Some((res, r, devices))
                            if matched.is_none() && res == ctx.resource_iri && r == ctx.round =>
                        {
                            matched = Some(devices);
                        }
                        Some(_) => world.driver.monitoring_inbox.push((height, event)),
                        None => world.metrics.incr("driver.monitoring.bad_event"),
                    }
                }
                if let Some(devices) = matched {
                    ctx.expected_total = devices.len();
                    ctx.expected = devices.into();
                }
                Monitoring {
                    webid,
                    path,
                    started,
                    phase: MonPhase::DeviceRequest(ctx),
                }
                .step(world)
            }
            MonPhase::DeviceRequest(mut ctx) => {
                // Collect signed evidence from each expected device, in
                // order; devices that stay unreachable past the probe
                // budget are skipped without stalling the round.
                loop {
                    let Some(device_name) = ctx.expected.pop_front() else {
                        return Self::finish(world, webid, started, ctx);
                    };
                    let Some(device) = world.try_device(&device_name) else {
                        continue;
                    };
                    let dev_endpoint = device.endpoint;
                    // Request hop: oracle → device (fault-aware).
                    let hop = Hop::new(
                        world,
                        world.pull_in.relay,
                        dev_endpoint,
                        128,
                        HopKind::DeviceProbe,
                    );
                    return Step::Sleep(
                        wrap(MonPhase::DeviceProbe {
                            ctx,
                            device: device_name,
                            hop,
                        }),
                        Wake::At(now),
                    );
                }
            }
            MonPhase::DeviceProbe {
                ctx,
                device,
                mut hop,
            } => match hop.step(world) {
                HopPoll::Sent { arrives } => Step::Sleep(
                    wrap(MonPhase::DeviceReport { ctx, device }),
                    Wake::At(arrives),
                ),
                HopPoll::Retry { at } => Step::Sleep(
                    wrap(MonPhase::DeviceProbe { ctx, device, hop }),
                    Wake::At(at),
                ),
                HopPoll::Failed(_) => {
                    // The device could not be reached within the probe
                    // budget: record it and move on — absent evidence is
                    // itself visible in the on-chain round.
                    world.metrics.incr("process.monitoring.unreachable");
                    Monitoring {
                        webid: webid.clone(),
                        path: path.clone(),
                        started,
                        phase: MonPhase::DeviceRequest(ctx),
                    }
                    .step(world)
                }
            },
            MonPhase::DeviceReport { mut ctx, device } => {
                let Some(dev) = world.try_device(&device) else {
                    return Monitoring {
                        webid,
                        path,
                        started,
                        phase: MonPhase::DeviceRequest(ctx),
                    }
                    .step(world);
                };
                let Some(report) = dev.tee.report(&ctx.resource_iri, now) else {
                    return Monitoring {
                        webid,
                        path,
                        started,
                        phase: MonPhase::DeviceRequest(ctx),
                    }
                    .step(world);
                };
                // Incremental monitoring: when the usage log is unchanged
                // since the device's last *compliant* full submission, the
                // enclave signs a compact reaffirmation instead of
                // re-shipping (and the contract re-storing) the full
                // evidence.
                let reaffirmable = report.compliant
                    && report.violations.is_empty()
                    && dev
                        .tee
                        .last_reported(&ctx.resource_iri)
                        .is_some_and(|prev| prev.compliant && prev.digest == report.log_digest);
                let dev_endpoint = dev.endpoint;
                let key = dev.key;
                let (flow, poll) = if reaffirmable {
                    let prev_round = dev
                        .tee
                        .last_reported(&ctx.resource_iri)
                        .expect("checked above")
                        .round;
                    let mut reaff = EvidenceReaffirmation {
                        resource: ctx.resource_iri.clone(),
                        round: ctx.round,
                        device: device.clone(),
                        prev_round,
                        evidence_digest: report.log_digest,
                        signature: duc_crypto::Signature { e: 0, s: 0 },
                    };
                    reaff.signature = dev.tee.enclave().sign(&reaff.signing_bytes());
                    ctx.pending_bytes = duc_codec::encode_to_vec(&reaff).len();
                    ctx.pending_note = None;
                    let build =
                        move |w: &World<L>| w.dex.reaffirm_evidence_tx(&w.chain, &key, &reaff);
                    TxFlow::start(world, dev_endpoint, build)
                } else {
                    let mut submission = EvidenceSubmission {
                        resource: ctx.resource_iri.clone(),
                        round: ctx.round,
                        device: device.clone(),
                        compliant: report.compliant,
                        violations: report.violations.clone(),
                        evidence_digest: report.log_digest,
                        signature: duc_crypto::Signature { e: 0, s: 0 },
                    };
                    submission.signature = dev.tee.enclave().sign(&submission.signing_bytes());
                    ctx.pending_bytes = duc_codec::encode_to_vec(&submission).len();
                    ctx.pending_note = Some((
                        device.clone(),
                        ReportedEvidence {
                            round: ctx.round,
                            digest: report.log_digest,
                            compliant: report.compliant,
                        },
                    ));
                    let build =
                        move |w: &World<L>| w.dex.record_evidence_tx(&w.chain, &key, &submission);
                    TxFlow::start(world, dev_endpoint, build)
                };
                match poll {
                    FlowPoll::Sleep(at) => {
                        Step::Sleep(wrap(MonPhase::EvidenceConfirm { ctx, flow }), at)
                    }
                    FlowPoll::Done(res) => Monitoring {
                        webid,
                        path,
                        started,
                        phase: MonPhase::EvidenceConfirm {
                            ctx,
                            flow: TxFlow::Spent,
                        },
                    }
                    .evidence_confirmed(world, res),
                }
            }
            MonPhase::EvidenceConfirm { ctx, flow } => {
                let mut flow = flow;
                match flow.step(world) {
                    FlowPoll::Sleep(at) => {
                        Step::Sleep(wrap(MonPhase::EvidenceConfirm { ctx, flow }), at)
                    }
                    FlowPoll::Done(res) => Monitoring {
                        webid,
                        path,
                        started,
                        phase: MonPhase::EvidenceConfirm {
                            ctx,
                            flow: TxFlow::Spent,
                        },
                    }
                    .evidence_confirmed(world, res),
                }
            }
        }
    }

    /// The round-opening transaction confirmed: decode the round number and
    /// start the pull-in poll.
    fn open_confirmed(self, world: &mut World<L>, res: Result<Receipt, OracleError>) -> Step<L> {
        let Monitoring {
            webid,
            path,
            started,
            phase,
        } = self;
        let MonPhase::OpenConfirm {
            resource_iri,
            endpoint,
            ..
        } = phase
        else {
            unreachable!("open_confirmed called outside OpenConfirm")
        };
        let receipt = match res.map_err(ProcessError::from).and_then(receipt_ok) {
            Ok(receipt) => receipt,
            Err(e) => return Step::Done(Err(e)),
        };
        let round = match DistExchangeClient::decode_round_number(&receipt.return_data) {
            Ok(round) => round,
            Err(e) => return Step::Done(Err(ProcessError::Policy(e.to_string()))),
        };
        world
            .metrics
            .add("process.monitoring.gas", receipt.gas_used);

        // Pull-in oracle: poll the gateway for the request event
        // (fault-aware hop).
        let now = world.clock.now();
        let hop = Hop::new(
            world,
            world.pull_in.relay,
            world.gateway,
            64,
            HopKind::PullInPoll,
        );
        Step::Sleep(
            Machine::Monitoring(Box::new(Monitoring {
                webid,
                path,
                started,
                phase: MonPhase::PollOut {
                    ctx: MonCtx {
                        resource_iri,
                        endpoint,
                        round,
                        expected: VecDeque::new(),
                        expected_total: 0,
                        evidence_bytes: 0,
                        submissions: 0,
                        reaffirmed: 0,
                        pending_bytes: 0,
                        pending_note: None,
                    },
                    hop,
                },
            })),
            Wake::At(now),
        )
    }

    /// One device's evidence transaction confirmed: account for it and move
    /// on to the next device.
    fn evidence_confirmed(
        self,
        world: &mut World<L>,
        res: Result<Receipt, OracleError>,
    ) -> Step<L> {
        let Monitoring {
            webid,
            path,
            started,
            phase,
        } = self;
        let MonPhase::EvidenceConfirm { mut ctx, .. } = phase else {
            unreachable!("evidence_confirmed called outside EvidenceConfirm")
        };
        let receipt = match res.map_err(ProcessError::from).and_then(receipt_ok) {
            Ok(receipt) => receipt,
            Err(e) => return Step::Done(Err(e)),
        };
        world
            .metrics
            .add("process.monitoring.gas", receipt.gas_used);
        ctx.submissions += 1;
        ctx.evidence_bytes += std::mem::take(&mut ctx.pending_bytes);
        // Only a *confirmed* submission counts: full evidence is noted
        // device-side so the next unchanged round can reaffirm against
        // this round; a confirmed reaffirmation bumps the counters.
        match ctx.pending_note.take() {
            Some((device, reported)) => {
                if let Some(dev) = world.devices.get_mut(&device) {
                    dev.tee.note_reported(&ctx.resource_iri, reported);
                }
            }
            None => {
                ctx.reaffirmed += 1;
                world.metrics.incr("process.monitoring.reaffirmed");
            }
        }
        Monitoring {
            webid,
            path,
            started,
            phase: MonPhase::DeviceRequest(ctx),
        }
        .step(world)
    }

    /// Every expected device was visited: read the verdict, deliver it to
    /// the pod manager (push-out) and complete.
    fn finish(world: &mut World<L>, webid: String, started: SimTime, ctx: MonCtx) -> Step<L> {
        let record = match world
            .dex
            .get_round(&world.chain, &ctx.resource_iri, ctx.round)
        {
            Ok(Some(record)) => record,
            Ok(None) => return Step::Done(Err(ProcessError::Policy("round vanished".into()))),
            Err(e) => return Step::Done(Err(ProcessError::Policy(e.to_string()))),
        };
        let endpoint = ctx.endpoint;
        let closed = world.claim_events(|routed| {
            matches!(routed, Routed::RoundClosed { resource, round }
                if *resource == ctx.resource_iri && *round == ctx.round)
        });
        let mut verdicts = closed.iter().flat_map(|e| &e.deliveries);
        if verdicts.any(|(to, _)| *to == endpoint) {
            world.metrics.incr("process.monitoring.verdicts_delivered");
        }

        let now = world.clock.now();
        let duration = now - started;
        world.metrics.record("process.monitoring.e2e", duration);
        world.metrics.add(
            "process.monitoring.evidence_bytes",
            ctx.evidence_bytes as u64,
        );
        world.trace.record(
            now,
            format!("pm:{webid}"),
            "monitoring.round",
            format!(
                "{} round {}: {} violators",
                ctx.resource_iri,
                ctx.round,
                record.violators().len()
            ),
        );
        Step::Done(Ok(Outcome::Monitored(MonitoringOutcome {
            round: ctx.round,
            expected: ctx.expected_total,
            evidence: ctx.submissions,
            violators: record
                .violators()
                .iter()
                .map(|e| e.device.clone())
                .collect(),
            evidence_bytes: ctx.evidence_bytes,
            duration,
        })))
    }
}

/// Decodes a `MonitoringRequested` event payload.
fn decode_monitoring_request(data: &[u8]) -> Option<(String, u64, Vec<String>)> {
    duc_codec::decode_from_slice(data).ok()
}
