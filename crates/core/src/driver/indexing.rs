//! Process 3 — resource indexing through the pull-out oracle.

use duc_blockchain::Ledger;
use duc_oracle::{HopKind, OracleError, PullOutOracle};
use duc_sim::{EndpointId, SimTime};

use crate::process::ProcessError;
use crate::world::{IndexEntry, World};

use super::hop::{Hop, HopPoll};
use super::{Machine, Outcome, Step, Wake};

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

    pub(super) fn step<L: Ledger>(self, world: &mut World<L>) -> Step<L> {
        let Indexing {
            device,
            resource,
            started,
            phase,
        } = self;
        let now = world.clock.now();
        let wrap = |phase| {
            Machine::Indexing(Indexing {
                device: device.clone(),
                resource: resource.clone(),
                started,
                phase,
            })
        };
        match phase {
            IndexingPhase::Start => {
                let Some(dev) = world.try_device(&device) else {
                    return Step::Done(Err(ProcessError::UnknownDevice(device)));
                };
                let dev_endpoint = dev.endpoint;
                let args = duc_codec::encode_to_vec(&(resource.clone(),));
                world.pull_out.count_read();
                let hop = Hop::new(
                    world,
                    dev_endpoint,
                    world.pull_out.relay,
                    PullOutOracle::request_size("lookup_resource", &args),
                    HopKind::PullOutRequest,
                );
                Step::Sleep(
                    wrap(IndexingPhase::Request {
                        hop,
                        args,
                        dev_endpoint,
                    }),
                    Wake::At(now),
                )
            }
            IndexingPhase::Request {
                mut hop,
                args,
                dev_endpoint,
            } => match hop.step(world) {
                HopPoll::Sent { arrives } => Step::Sleep(
                    wrap(IndexingPhase::AtRelay { args, dev_endpoint }),
                    Wake::At(arrives),
                ),
                HopPoll::Retry { at } => Step::Sleep(
                    wrap(IndexingPhase::Request {
                        hop,
                        args,
                        dev_endpoint,
                    }),
                    Wake::At(at),
                ),
                HopPoll::Failed(e) => Step::Done(Err(ProcessError::Oracle(e))),
            },
            IndexingPhase::AtRelay { args, dev_endpoint } => {
                let out =
                    match world
                        .chain
                        .call_view(world.dex.contract_id(), "lookup_resource", &args)
                    {
                        Ok(out) => out,
                        Err(e) => {
                            return Step::Done(Err(ProcessError::Oracle(OracleError::View(e))))
                        }
                    };
                let hop = Hop::new(
                    world,
                    world.pull_out.relay,
                    dev_endpoint,
                    PullOutOracle::response_size(out.len()),
                    HopKind::PullOutResponse,
                );
                Step::Sleep(wrap(IndexingPhase::Respond { hop, out }), Wake::At(now))
            }
            IndexingPhase::Respond { mut hop, out } => match hop.step(world) {
                HopPoll::Sent { arrives } => {
                    Step::Sleep(wrap(IndexingPhase::Arrived { out }), Wake::At(arrives))
                }
                HopPoll::Retry { at } => {
                    Step::Sleep(wrap(IndexingPhase::Respond { hop, out }), Wake::At(at))
                }
                HopPoll::Failed(e) => Step::Done(Err(ProcessError::Oracle(e))),
            },
            IndexingPhase::Arrived { out } => {
                let record: Option<duc_contracts::ResourceRecord> =
                    match duc_codec::decode_from_slice(&out) {
                        Ok(record) => record,
                        Err(e) => return Step::Done(Err(ProcessError::Policy(e.to_string()))),
                    };
                let Some(record) = record else {
                    return Step::Done(Err(ProcessError::UnknownResource(resource)));
                };
                let policy = match world.open_envelope(&record.policy) {
                    Ok(policy) => policy,
                    Err(e) => return Step::Done(Err(ProcessError::Policy(e.to_string()))),
                };
                let entry = IndexEntry {
                    location: record.location.clone(),
                    owner_webid: record.owner_webid.clone(),
                    policy,
                };
                let sym = world.ids.intern(&resource);
                let dev = world.devices.get_mut(&device).expect("validated at submit");
                dev.indexed.insert(sym, entry.clone());

                world.metrics.record("process.indexing.e2e", now - started);
                world
                    .trace
                    .record(now, format!("tee:{device}"), "resource.indexed", resource);
                Step::Done(Ok(Outcome::Indexed { entry }))
            }
        }
    }
}
