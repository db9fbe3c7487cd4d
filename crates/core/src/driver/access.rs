//! Process 4 — resource access into the TEE.

use duc_blockchain::{Ledger, Receipt};
use duc_contracts::topics;
use duc_crypto::{Digest, PublicKey};
use duc_oracle::{HopKind, OracleError};
use duc_sim::{EndpointId, SimDuration, SimTime};
use duc_solid::{Body, SolidRequest, Status};

use crate::process::{AccessOutcome, ProcessError};
use crate::world::{IndexEntry, World};

use super::flow::{drive_flow, FlowPoll, TxFlow};
use super::hop::{Hop, HopPoll};
use super::{receipt_ok, Machine, Outcome, Step, Wake};

/// Process 4 — resource access into the TEE.
pub(crate) struct Access<L> {
    device: String,
    resource: String,
    started: SimTime,
    phase: AccessPhase<L>,
}

enum AccessPhase<L> {
    Start,
    /// Request hop (device → pod manager), fault-aware.
    ToPod {
        hop: Hop,
        fetch_start: SimTime,
        request: SolidRequest,
        owner_webid: String,
        owner_endpoint: EndpointId,
        dev_endpoint: EndpointId,
        cert_ok: bool,
        entry: IndexEntry,
        enclave_key: PublicKey,
    },
    AtPod {
        fetch_start: SimTime,
        request: SolidRequest,
        owner_webid: String,
        owner_endpoint: EndpointId,
        dev_endpoint: EndpointId,
        cert_ok: bool,
        entry: IndexEntry,
        enclave_key: PublicKey,
    },
    /// Response hop (pod manager → device), fault-aware. The pod manager
    /// served the request exactly once; retries only re-send the bytes.
    FromPod {
        hop: Hop,
        fetch_start: SimTime,
        bytes: Vec<u8>,
        dev_endpoint: EndpointId,
        entry: IndexEntry,
        enclave_key: PublicKey,
    },
    Arrived {
        fetch_start: SimTime,
        bytes: Vec<u8>,
        dev_endpoint: EndpointId,
        entry: IndexEntry,
        enclave_key: PublicKey,
    },
    Confirm {
        flow: TxFlow<L>,
        fetch: SimDuration,
        bytes_len: usize,
        dev_endpoint: EndpointId,
    },
}

impl<L: Ledger> Access<L> {
    #[allow(clippy::too_many_lines)]
    pub(super) fn new(device: String, resource: String, started: SimTime) -> Self {
        Access {
            device,
            resource,
            started,
            phase: AccessPhase::Start,
        }
    }

    pub(super) fn step(self, world: &mut World<L>) -> Step<L> {
        let Access {
            device,
            resource,
            started,
            phase,
        } = self;
        let now = world.clock.now();
        match phase {
            AccessPhase::Start => {
                let Some(dev) = world.try_device(&device) else {
                    return Step::Done(Err(ProcessError::UnknownDevice(device)));
                };
                let sym = world.ids.get(&resource);
                let Some(entry) = sym.and_then(|sym| dev.indexed.get(&sym)).cloned() else {
                    return Step::Done(Err(ProcessError::NotIndexed { device, resource }));
                };
                let Some(certificate) = dev.certificate else {
                    return Step::Done(Err(ProcessError::NoCertificate(dev.webid.clone())));
                };
                let webid = dev.webid.clone();
                let dev_endpoint = dev.endpoint;

                // Attestation gate: only recognized trusted applications
                // may hold governed copies (the market's terms, §II).
                let Some(quote) = world.attestation.issue_quote(dev.tee.enclave()) else {
                    return Step::Done(Err(ProcessError::Attestation(format!(
                        "measurement not trusted for {device}"
                    ))));
                };

                let Some(owner) = world.try_owner(&entry.owner_webid) else {
                    return Step::Done(Err(ProcessError::UnknownOwner(entry.owner_webid)));
                };
                let owner_endpoint = owner.endpoint;
                let root = owner.pod_manager.pod().root().to_string();
                let path = entry
                    .location
                    .strip_prefix(&root)
                    .unwrap_or(entry.location.as_str())
                    .to_string();

                // The pod manager verifies the certificate against the DE
                // App (its own blockchain interaction module does a view
                // call).
                let cert_ok = match world
                    .dex
                    .verify_certificate(&world.chain, &certificate, &webid)
                {
                    Ok(ok) => ok,
                    Err(e) => return Step::Done(Err(ProcessError::Policy(e.to_string()))),
                };

                // Request hop: device → pod manager (fault-aware).
                let request = SolidRequest::get(webid, path).with_certificate(certificate);
                let hop = Hop::new(
                    world,
                    dev_endpoint,
                    owner_endpoint,
                    request.size() as u64,
                    HopKind::PodRequest,
                );
                Step::Sleep(
                    Machine::Access(Box::new(Access {
                        device,
                        resource,
                        started,
                        phase: AccessPhase::ToPod {
                            hop,
                            fetch_start: now,
                            request,
                            owner_webid: entry.owner_webid.clone(),
                            owner_endpoint,
                            dev_endpoint,
                            cert_ok,
                            entry,
                            enclave_key: quote.enclave_key,
                        },
                    })),
                    Wake::At(now),
                )
            }
            AccessPhase::ToPod {
                mut hop,
                fetch_start,
                request,
                owner_webid,
                owner_endpoint,
                dev_endpoint,
                cert_ok,
                entry,
                enclave_key,
            } => match hop.step(world) {
                HopPoll::Sent { arrives } => Step::Sleep(
                    Machine::Access(Box::new(Access {
                        device,
                        resource,
                        started,
                        phase: AccessPhase::AtPod {
                            fetch_start,
                            request,
                            owner_webid,
                            owner_endpoint,
                            dev_endpoint,
                            cert_ok,
                            entry,
                            enclave_key,
                        },
                    })),
                    Wake::At(arrives),
                ),
                HopPoll::Retry { at } => Step::Sleep(
                    Machine::Access(Box::new(Access {
                        device,
                        resource,
                        started,
                        phase: AccessPhase::ToPod {
                            hop,
                            fetch_start,
                            request,
                            owner_webid,
                            owner_endpoint,
                            dev_endpoint,
                            cert_ok,
                            entry,
                            enclave_key,
                        },
                    })),
                    Wake::At(at),
                ),
                HopPoll::Failed(e) => Step::Done(Err(ProcessError::Oracle(e))),
            },
            AccessPhase::AtPod {
                fetch_start,
                request,
                owner_webid,
                owner_endpoint,
                dev_endpoint,
                cert_ok,
                entry,
                enclave_key,
            } => {
                let owner = world
                    .owners
                    .get_mut(&owner_webid)
                    .expect("checked at start");
                let verifier = move |_: &Digest, _: &str| cert_ok;
                let resp = owner.pod_manager.handle_with_verifier(&request, &verifier);
                if resp.status != Status::Ok {
                    return Step::Done(Err(ProcessError::Solid {
                        status: resp.status,
                        detail: resp.detail,
                    }));
                }
                // Response hop: pod manager → device (size-dependent,
                // fault-aware).
                let hop = Hop::new(
                    world,
                    owner_endpoint,
                    dev_endpoint,
                    resp.size() as u64,
                    HopKind::PodResponse,
                );
                let bytes = match resp.body {
                    Body::Turtle(t) | Body::Text(t) => t.into_bytes(),
                    Body::Binary(b) => b,
                    Body::Empty => Vec::new(),
                };
                Step::Sleep(
                    Machine::Access(Box::new(Access {
                        device,
                        resource,
                        started,
                        phase: AccessPhase::FromPod {
                            hop,
                            fetch_start,
                            bytes,
                            dev_endpoint,
                            entry,
                            enclave_key,
                        },
                    })),
                    Wake::At(now),
                )
            }
            AccessPhase::FromPod {
                mut hop,
                fetch_start,
                bytes,
                dev_endpoint,
                entry,
                enclave_key,
            } => match hop.step(world) {
                HopPoll::Sent { arrives } => Step::Sleep(
                    Machine::Access(Box::new(Access {
                        device,
                        resource,
                        started,
                        phase: AccessPhase::Arrived {
                            fetch_start,
                            bytes,
                            dev_endpoint,
                            entry,
                            enclave_key,
                        },
                    })),
                    Wake::At(arrives),
                ),
                HopPoll::Retry { at } => Step::Sleep(
                    Machine::Access(Box::new(Access {
                        device,
                        resource,
                        started,
                        phase: AccessPhase::FromPod {
                            hop,
                            fetch_start,
                            bytes,
                            dev_endpoint,
                            entry,
                            enclave_key,
                        },
                    })),
                    Wake::At(at),
                ),
                HopPoll::Failed(e) => Step::Done(Err(ProcessError::Oracle(e))),
            },
            AccessPhase::Arrived {
                fetch_start,
                bytes,
                dev_endpoint,
                entry,
                enclave_key,
            } => {
                let fetch = now - fetch_start;
                let bytes_len = bytes.len();
                let dev = world.devices.get_mut(&device).expect("checked at start");
                let webid = dev.webid.clone();
                dev.tee
                    .store_resource(&resource, &bytes, entry.policy.clone(), now);

                // Register the copy on-chain and subscribe to policy
                // updates.
                let build = {
                    let key = dev.key;
                    let resource = resource.clone();
                    let device = device.clone();
                    move |w: &World<L>| {
                        w.dex.register_copy_tx(
                            &w.chain,
                            &key,
                            &resource,
                            &device,
                            &webid,
                            enclave_key,
                        )
                    }
                };
                let (flow, poll) = TxFlow::start(world, dev_endpoint, build);
                let next = Access {
                    device,
                    resource,
                    started,
                    phase: AccessPhase::Confirm {
                        flow,
                        fetch,
                        bytes_len,
                        dev_endpoint,
                    },
                };
                match poll {
                    FlowPoll::Sleep(at) => Step::Sleep(Machine::Access(Box::new(next)), at),
                    FlowPoll::Done(res) => {
                        let Access {
                            device,
                            resource,
                            started,
                            phase,
                        } = next;
                        let AccessPhase::Confirm {
                            fetch,
                            bytes_len,
                            dev_endpoint,
                            ..
                        } = phase
                        else {
                            unreachable!()
                        };
                        Self::finish(
                            world,
                            device,
                            resource,
                            started,
                            fetch,
                            bytes_len,
                            dev_endpoint,
                            res,
                        )
                    }
                }
            }
            AccessPhase::Confirm {
                flow,
                fetch,
                bytes_len,
                dev_endpoint,
            } => drive_flow!(
                world,
                flow,
                |flow| Machine::Access(Box::new(Access {
                    device: device.clone(),
                    resource: resource.clone(),
                    started,
                    phase: AccessPhase::Confirm {
                        flow,
                        fetch,
                        bytes_len,
                        dev_endpoint
                    },
                })),
                |world: &mut World<L>, res| Self::finish(
                    world,
                    device.clone(),
                    resource.clone(),
                    started,
                    fetch,
                    bytes_len,
                    dev_endpoint,
                    res
                )
            ),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn finish(
        world: &mut World<L>,
        device: String,
        resource: String,
        started: SimTime,
        fetch: SimDuration,
        bytes_len: usize,
        dev_endpoint: EndpointId,
        res: Result<Receipt, OracleError>,
    ) -> Step<L> {
        let receipt = match res.map_err(ProcessError::from).and_then(receipt_ok) {
            Ok(receipt) => receipt,
            Err(e) => {
                // The governed copy was sealed into the TEE before the
                // on-chain registration; a failed registration rolls it
                // back so no *unregistered* copy survives a fault
                // (fail-safe: the TEE never retains what it could not
                // prove it may hold). A re-access whose earlier
                // registration is already on-chain keeps its copy — that
                // registration is still valid and re-registration is
                // idempotent. A timed-out tx that confirms *after* the
                // rollback leaves a stale registry record pointing at a
                // deleted copy; monitoring surfaces exactly that (the
                // device reports nothing for it).
                let now = world.clock.now();
                let registered = world
                    .dex
                    .list_copies(&world.chain, &resource)
                    .is_ok_and(|copies| copies.iter().any(|c| c.device == device));
                if !registered {
                    if let Some(dev) = world.devices.get_mut(&device) {
                        if dev.tee.delete(&resource, now) {
                            world.metrics.incr("driver.access.rolled_back");
                        }
                    }
                }
                return Step::Done(Err(e));
            }
        };
        world
            .push_out
            .subscribe(topics::POLICY_UPDATED, dev_endpoint);
        // The copy is sealed and registered: arm its obligation wakeup so
        // retention/expiry duties fire at their declared instant.
        world.schedule_obligation(&device, &resource);

        let now = world.clock.now();
        let e2e = now - started;
        world.metrics.record("process.access.e2e", e2e);
        world.metrics.record("process.access.fetch", fetch);
        world.metrics.add("process.access.gas", receipt.gas_used);
        world.metrics.add("process.access.bytes", bytes_len as u64);
        world
            .trace
            .record(now, format!("tee:{device}"), "resource.stored", resource);
        Step::Done(Ok(Outcome::Accessed(AccessOutcome {
            bytes: bytes_len,
            e2e,
            fetch,
        })))
    }
}
