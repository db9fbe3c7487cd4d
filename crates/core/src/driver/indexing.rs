//! Process 3 — resource indexing through the pull-out oracle.

use std::rc::Rc;

use duc_blockchain::Ledger;
use duc_oracle::{HopKind, OracleError, PullOutOracle};
use duc_sim::{EndpointId, SimTime};

use crate::world::{IndexEntry, World};

use super::hop::{Hop, HopPoll};
use super::{Outcome, ProcessError, Step, Wake};

/// Process 3 — resource indexing through the pull-out oracle.
pub(crate) struct Indexing {
    device: String,
    resource: String,
    started: SimTime,
    phase: IndexingPhase,
}

enum IndexingPhase {
    Start,
    /// Request hop (device → relay), fault-aware.
    Request {
        hop: Hop,
        args: Vec<u8>,
        dev_endpoint: EndpointId,
    },
    AtRelay {
        args: Vec<u8>,
        dev_endpoint: EndpointId,
    },
    /// Response hop (relay → device), fault-aware.
    Respond {
        hop: Hop,
        out: Vec<u8>,
    },
    Arrived {
        out: Vec<u8>,
    },
}

impl Indexing {
    pub(super) fn new(device: String, resource: String, started: SimTime) -> Self {
        Indexing {
            device,
            resource,
            started,
            phase: IndexingPhase::Start,
        }
    }

    pub(super) fn step<L: Ledger>(&mut self, world: &mut World<L>) -> Step {
        let now = world.clock.now();
        match &mut self.phase {
            IndexingPhase::Start => {
                let Some(dev) = world.try_device(&self.device) else {
                    return Step::Done(Err(ProcessError::UnknownDevice(self.device.clone())));
                };
                let dev_endpoint = dev.endpoint;
                let args = duc_codec::encode_to_vec(&(self.resource.clone(),));
                world.pull_out.count_read();
                let hop = Hop::new(
                    world,
                    dev_endpoint,
                    world.pull_out.relay,
                    PullOutOracle::request_size("lookup_resource", &args),
                    HopKind::PullOutRequest,
                );
                self.phase = IndexingPhase::Request {
                    hop,
                    args,
                    dev_endpoint,
                };
                Step::Sleep(Wake::At(now))
            }
            IndexingPhase::Request {
                hop,
                args,
                dev_endpoint,
            } => match hop.step(world) {
                HopPoll::Sent { arrives } => {
                    self.phase = IndexingPhase::AtRelay {
                        args: std::mem::take(args),
                        dev_endpoint: *dev_endpoint,
                    };
                    Step::Sleep(Wake::At(arrives))
                }
                HopPoll::Retry { at } => Step::Sleep(Wake::At(at)),
                HopPoll::Failed(e) => Step::Done(Err(e.into())),
            },
            IndexingPhase::AtRelay { args, dev_endpoint } => {
                let out =
                    match world
                        .chain
                        .call_view(world.dex.contract_id(), "lookup_resource", args)
                    {
                        Ok(out) => out,
                        Err(e) => return Step::Done(Err(OracleError::View(e).into())),
                    };
                let hop = Hop::new(
                    world,
                    world.pull_out.relay,
                    *dev_endpoint,
                    PullOutOracle::response_size(out.len()),
                    HopKind::PullOutResponse,
                );
                self.phase = IndexingPhase::Respond { hop, out };
                Step::Sleep(Wake::At(now))
            }
            IndexingPhase::Respond { hop, out } => match hop.step(world) {
                HopPoll::Sent { arrives } => {
                    self.phase = IndexingPhase::Arrived {
                        out: std::mem::take(out),
                    };
                    Step::Sleep(Wake::At(arrives))
                }
                HopPoll::Retry { at } => Step::Sleep(Wake::At(at)),
                HopPoll::Failed(e) => Step::Done(Err(e.into())),
            },
            IndexingPhase::Arrived { out } => {
                let record: Option<duc_contracts::ResourceRecord> =
                    match duc_codec::decode_from_slice(out) {
                        Ok(record) => record,
                        Err(e) => return Step::Done(Err(ProcessError::Policy(e.to_string()))),
                    };
                let Some(record) = record else {
                    return Step::Done(Err(ProcessError::UnknownResource(self.resource.clone())));
                };
                let policy = match world.open_envelope(&record.policy) {
                    Ok(policy) => policy,
                    Err(e) => return Step::Done(Err(ProcessError::Policy(e.to_string()))),
                };
                let entry = IndexEntry {
                    location: record.location,
                    owner_webid: record.owner_webid,
                    policy: Rc::new(policy),
                };
                let sym = world.ids.intern(&self.resource);
                let dev = world
                    .devices
                    .get_mut(&self.device)
                    .expect("validated at submit");
                dev.index(sym, entry.clone());

                world
                    .metrics
                    .record("process.indexing.e2e", now - self.started);
                world.trace.record(
                    now,
                    format_args!("tee:{}", self.device),
                    "resource.indexed",
                    &self.resource,
                );
                Step::Done(Ok(Outcome::Indexed { entry }))
            }
        }
    }
}
