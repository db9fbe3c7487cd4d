//! Process 4 — resource access into the TEE.

use std::rc::Rc;

use duc_blockchain::Receipt;
use duc_contracts::calls::{ListCopies, RegisterCopy, VerifyCertificate};
use duc_contracts::topics;
use duc_crypto::{Digest, PublicKey};
use duc_oracle::HopKind;
use duc_policy::PolicyVersion;
use duc_sim::{EndpointId, SimDuration, SimTime};
use duc_solid::{Body, SolidRequest, Status};

use crate::world::World;

use super::flow::{FlowPoll, PreparedCall, TxFlow};
use super::hop::{Hop, HopPoll};
use super::{AccessOutcome, Outcome, ProcessError, Step, Wake};

/// Process 4 — resource access into the TEE.
pub(crate) struct Access {
    device: String,
    resource: String,
    started: SimTime,
    phase: AccessPhase,
    /// Set by `Start`, read by the phases after it.
    fetch: Option<Fetch>,
    /// The policy in the device's index entry when the access started;
    /// `Arrived` hands it to the TEE, which then shares it with the entry.
    policy: Option<Rc<PolicyVersion>>,
    /// Size of the resource and latency of the pod fetch alone, known once
    /// the response arrived.
    bytes: usize,
    fetched: SimDuration,
}

/// What `Start` resolved about the fetch.
struct Fetch {
    dev_endpoint: EndpointId,
    owner_endpoint: EndpointId,
    owner_webid: String,
    request: SolidRequest,
    cert_ok: bool,
    enclave_key: PublicKey,
    sent_at: SimTime,
}

enum AccessPhase {
    Start,
    /// Request hop (device → pod manager), fault-aware.
    ToPod(Hop),
    AtPod,
    /// Response hop (pod manager → device), fault-aware. The pod manager
    /// served the request exactly once; retries only re-send the bytes.
    FromPod {
        hop: Hop,
        bytes: Vec<u8>,
    },
    Arrived {
        bytes: Vec<u8>,
    },
    Confirm(TxFlow),
}

impl Access {
    pub(super) fn new(device: String, resource: String, started: SimTime) -> Self {
        Access {
            device,
            resource,
            started,
            phase: AccessPhase::Start,
            fetch: None,
            policy: None,
            bytes: 0,
            fetched: SimDuration::ZERO,
        }
    }

    pub(super) fn step(&mut self, world: &mut World) -> Step {
        let now = world.clock.now();
        match &mut self.phase {
            AccessPhase::Start => {
                let Some(dev) = world.try_device(&self.device) else {
                    return Step::Done(Err(ProcessError::UnknownDevice(self.device.clone())));
                };
                let sym = world.ids.get(&self.resource);
                let Some(entry) = sym.and_then(|sym| dev.index_entry(sym)) else {
                    return Step::Done(Err(ProcessError::NotIndexed {
                        device: self.device.clone(),
                        resource: self.resource.clone(),
                    }));
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
                        "measurement not trusted for {}",
                        self.device
                    ))));
                };

                let Some(owner) = world.try_owner(&entry.owner_webid) else {
                    return Step::Done(Err(ProcessError::UnknownOwner(entry.owner_webid.clone())));
                };
                let owner_endpoint = owner.endpoint;
                let path = entry
                    .location
                    .strip_prefix(owner.pod_manager.pod().root())
                    .unwrap_or(entry.location.as_str())
                    .to_string();

                // The pod manager verifies the certificate against the DE
                // App (its own blockchain interaction module does a view
                // call).
                let verify = VerifyCertificate {
                    certificate,
                    webid: webid.clone(),
                };
                let cert_ok = match world.dex.view(&world.chain, verify) {
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
                self.fetch = Some(Fetch {
                    dev_endpoint,
                    owner_endpoint,
                    owner_webid: entry.owner_webid.clone(),
                    request,
                    cert_ok,
                    enclave_key: quote.enclave_key,
                    sent_at: now,
                });
                self.policy = Some(Rc::clone(&entry.policy));
                self.phase = AccessPhase::ToPod(hop);
                Step::Sleep(Wake::At(now))
            }
            AccessPhase::ToPod(hop) => match hop.step(world) {
                HopPoll::Sent { arrives } => {
                    self.phase = AccessPhase::AtPod;
                    Step::Sleep(Wake::At(arrives))
                }
                HopPoll::Retry { at } => Step::Sleep(Wake::At(at)),
                HopPoll::Failed(e) => Step::Done(Err(e.into())),
            },
            AccessPhase::AtPod => {
                let fetch = self.fetch.as_ref().expect("set by Start");
                let owner = world
                    .owners
                    .get_mut(&fetch.owner_webid)
                    .expect("checked at start");
                let cert_ok = fetch.cert_ok;
                let verifier = move |_: &Digest, _: &str| cert_ok;
                let resp = owner
                    .pod_manager
                    .handle_with_verifier(&fetch.request, &verifier);
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
                    fetch.owner_endpoint,
                    fetch.dev_endpoint,
                    resp.size() as u64,
                    HopKind::PodResponse,
                );
                let bytes = match resp.body {
                    Body::Turtle(t) | Body::Text(t) => t.into_bytes(),
                    Body::Binary(b) => b,
                    Body::Empty => Vec::new(),
                };
                self.phase = AccessPhase::FromPod { hop, bytes };
                Step::Sleep(Wake::At(now))
            }
            AccessPhase::FromPod { hop, bytes } => match hop.step(world) {
                HopPoll::Sent { arrives } => {
                    self.phase = AccessPhase::Arrived {
                        bytes: std::mem::take(bytes),
                    };
                    Step::Sleep(Wake::At(arrives))
                }
                HopPoll::Retry { at } => Step::Sleep(Wake::At(at)),
                HopPoll::Failed(e) => Step::Done(Err(e.into())),
            },
            AccessPhase::Arrived { bytes } => {
                let fetch = self.fetch.as_ref().expect("set by Start");
                self.fetched = now - fetch.sent_at;
                self.bytes = bytes.len();
                let policy = self.policy.take().expect("set by Start");
                let dev = world
                    .devices
                    .get_mut(&self.device)
                    .expect("checked at start");
                dev.tee.store_resource(&self.resource, bytes, policy, now);

                // Register the copy on-chain and subscribe to policy
                // updates.
                let key = dev.key;
                let copy = RegisterCopy {
                    resource: self.resource.clone(),
                    device: self.device.clone(),
                    holder_webid: dev.webid.clone(),
                    attestation_key: fetch.enclave_key,
                };
                let tx = world.dex.call_tx(&world.chain, &key, copy);
                let from = fetch.dev_endpoint;
                self.phase =
                    AccessPhase::Confirm(TxFlow::new(world, PreparedCall { from, key, tx }));
                self.step(world)
            }
            AccessPhase::Confirm(flow) => match flow.step(world) {
                FlowPoll::Sleep(wake) => Step::Sleep(wake),
                FlowPoll::Done(res) => self.finish(world, res),
            },
        }
    }

    /// The copy registration resolved: arm the copy's obligations, or roll
    /// the copy back.
    fn finish(&mut self, world: &mut World, res: Result<Receipt, ProcessError>) -> Step {
        let now = world.clock.now();
        let receipt = match res {
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
                let copies = ListCopies {
                    resource: self.resource.clone(),
                };
                let registered = world
                    .dex
                    .view(&world.chain, copies)
                    .is_ok_and(|copies| copies.iter().any(|c| c.device == self.device));
                if !registered {
                    if let Some(dev) = world.devices.get_mut(&self.device) {
                        if dev.tee.delete(&self.resource, now) {
                            world.metrics.incr("driver.access.rolled_back");
                        }
                    }
                }
                return Step::Done(Err(e));
            }
        };
        let fetch = self.fetch.as_ref().expect("set by Start");
        world
            .push_out
            .subscribe(topics::POLICY_UPDATED, fetch.dev_endpoint);
        // The copy is sealed and registered: arm its obligation wakeup so
        // retention/expiry duties fire at their declared instant.
        world.schedule_obligation(&self.device, &self.resource, None);

        let e2e = now - self.started;
        world.metrics.record("process.access.e2e", e2e);
        world.metrics.record("process.access.fetch", self.fetched);
        world.metrics.add("process.access.gas", receipt.gas_used);
        world.metrics.add("process.access.bytes", self.bytes as u64);
        world.trace.record(
            now,
            format_args!("tee:{}", self.device),
            "resource.stored",
            &self.resource,
        );
        Step::Done(Ok(Outcome::Accessed(AccessOutcome {
            bytes: self.bytes,
            e2e,
            fetch: self.fetched,
        })))
    }
}
