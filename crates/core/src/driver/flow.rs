//! The shared transaction sub-machine: push-in submission with bounded
//! retries followed by a non-blocking inclusion wait.
//!
//! A flow is handed a transaction that is already signed — a value, priced
//! for the wire as it stands. Signing is deterministic and the nonce is the
//! only thing a signed call reads from the chain, so when the sender's
//! nonce has moved by the time the transaction reaches the chain (another
//! flow of the same sender got there first), the flow signs the same body
//! again at the nonce the chain now expects; otherwise it delivers the
//! priced transaction as is.

use duc_blockchain::{Receipt, SignedTransaction, Transaction, TxId, TxStatus};
use duc_codec::Encode;
use duc_crypto::KeyPair;
use duc_oracle::{HopKind, OracleError, PushInOracle};
use duc_sim::{EndpointId, SimTime};

use crate::world::World;

use super::{ProcessError, Wake, CONFIRM_TIMEOUT, HOP_TIMEOUT};

/// A signed call and what sending it takes: the sender's endpoint and key.
/// The off-chain half of a process ends in one of these.
pub(crate) struct PreparedCall {
    pub(crate) from: EndpointId,
    pub(crate) key: KeyPair,
    pub(crate) tx: SignedTransaction,
}

/// Sub-machine: push-in submission (with retries) followed by a
/// non-blocking inclusion wait. Reused by every process that sends a
/// transaction.
pub(crate) struct TxFlow {
    /// Taken when the chain gets it.
    tx: Option<Box<SignedTransaction>>,
    /// Signs `tx` again if the sender's nonce moves before delivery.
    key: KeyPair,
    stage: Stage,
}

#[derive(Clone, Copy)]
enum Stage {
    /// Attempting the uplink hop to the relay.
    Send {
        size: u64,
        from: EndpointId,
        attempt: u32,
        deadline: SimTime,
    },
    /// The transaction is on the wire; it reaches the chain at the wake.
    Deliver,
    /// In the mempool; parked on the driver's inclusion wait-set until the
    /// receipt exists or the deadline passes.
    Await { id: TxId, deadline: SimTime },
}

/// One advance of a [`TxFlow`].
pub(crate) enum FlowPoll {
    /// Re-step the flow at the given wake.
    Sleep(Wake),
    /// The flow finished: the receipt of a transaction that executed, or
    /// why there is none.
    Done(Result<Receipt, ProcessError>),
}

impl TxFlow {
    /// A flow about to make its first uplink attempt, its wire size priced
    /// on the transaction as handed in.
    pub(crate) fn new(world: &World, call: PreparedCall) -> TxFlow {
        TxFlow {
            stage: Stage::Send {
                size: call.tx.encoded_len() as u64,
                from: call.from,
                attempt: 0,
                deadline: world.clock.now() + HOP_TIMEOUT,
            },
            tx: Some(Box::new(call.tx)),
            key: call.key,
        }
    }

    /// Advances the flow at the current clock instant.
    pub(crate) fn step(&mut self, world: &mut World) -> FlowPoll {
        let now = world.clock.now();
        match self.stage {
            Stage::Send {
                size,
                from,
                attempt,
                deadline,
            } => {
                // Unlike raw [`Hop`]s, the uplink keeps the push-in
                // oracle's own retry contract — its attempt counters, its
                // linear backoff, its `max_attempts`, and the legacy
                // `NetworkDropped` error on exhaustion. Only the
                // fault-window handling (suspension below, deadline
                // give-up) is the driver's.
                //
                // A declared crash/partition window on the uplink suspends
                // the submission (the component is down or cut off, not
                // retrying against a dead wire) and resumes at recovery.
                let relay = world.push_in.relay;
                if !world.fault_plan().allows(from, relay, now) {
                    world.metrics.incr("driver.hop.suspended");
                    return match world.fault_plan().next_clear(from, relay, now) {
                        Some(at) if at <= deadline => FlowPoll::Sleep(Wake::At(at)),
                        _ => gave_up(world, attempt, deadline),
                    };
                }
                match world
                    .push_in
                    .attempt(&mut world.net, &mut world.rng, from, size, attempt)
                {
                    Some(hop) => {
                        self.stage = Stage::Deliver;
                        FlowPoll::Sleep(Wake::At(now + hop))
                    }
                    None => {
                        world.metrics.incr("driver.hop.drops");
                        let attempt = attempt + 1;
                        if attempt >= world.push_in.max_attempts {
                            return FlowPoll::Done(Err(OracleError::NetworkDropped.into()));
                        }
                        let at = now + PushInOracle::backoff(attempt);
                        if at > deadline {
                            return gave_up(world, attempt, deadline);
                        }
                        self.stage = Stage::Send {
                            size,
                            from,
                            attempt,
                            deadline,
                        };
                        FlowPoll::Sleep(Wake::At(at))
                    }
                }
            }
            Stage::Deliver => {
                // The priced transaction is delivered as is unless the
                // sender's nonce moved while it was on the wire.
                let mut tx = *self.tx.take().expect("a flow delivers once");
                let nonce = world.chain.next_nonce(&tx.tx.from);
                if nonce != tx.tx.nonce {
                    world.metrics.incr("driver.tx.resigned");
                    tx = Transaction { nonce, ..tx.tx }.sign(&self.key);
                }
                match world.chain.submit(tx) {
                    Err(e) => FlowPoll::Done(Err(OracleError::Rejected(e).into())),
                    Ok(id) => {
                        let deadline = now + CONFIRM_TIMEOUT;
                        self.stage = Stage::Await { id, deadline };
                        self.step(world)
                    }
                }
            }
            Stage::Await { id, deadline } => {
                // Stepped on entry, then only once the wait-set saw the
                // receipt or the deadline: never re-polled per slot.
                world.chain.advance_to(now);
                if let Some(receipt) = world.chain.receipt(&id) {
                    FlowPoll::Done(receipt_ok(receipt))
                } else if now >= deadline {
                    FlowPoll::Done(Err(OracleError::InclusionTimeout { deadline }.into()))
                } else {
                    FlowPoll::Sleep(Wake::Receipt { id, deadline })
                }
            }
        }
    }
}

/// The uplink's budget ran out before the message got onto the wire.
fn gave_up(world: &mut World, attempts: u32, deadline: SimTime) -> FlowPoll {
    world.metrics.incr("driver.hop.gave_up");
    FlowPoll::Done(Err(OracleError::GaveUp {
        hop: HopKind::PushInUplink,
        attempts,
        deadline,
    }
    .into()))
}

/// Checks a receipt for contract-level success.
fn receipt_ok(receipt: &Receipt) -> Result<Receipt, ProcessError> {
    match &receipt.status {
        TxStatus::Ok => Ok(receipt.clone()),
        TxStatus::Reverted(msg) => Err(ProcessError::Reverted(msg.clone())),
        TxStatus::OutOfGas => Err(ProcessError::Reverted("out of gas".into())),
        TxStatus::Superseded => Err(ProcessError::Reverted(
            "transaction superseded by a later nonce".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use duc_blockchain::{Address, SignedTransaction};
    use duc_contracts::calls::RegisterCopy;

    use crate::chaos::launch_pad;
    use crate::driver::Request;
    use crate::scenario::population_policy;
    use crate::world::WorldConfig;

    const OWNER: &str = "https://owner.id/me";

    /// Two accesses of one device price their copy registrations at the
    /// same nonce. The one that reaches the chain second is signed again:
    /// the same body at the next nonce, under a signature that verifies.
    #[test]
    fn a_resign_changes_the_nonce_and_nothing_else() {
        let (mut world, first) = launch_pad(OWNER, "data/set.bin", 1, WorldConfig::default());
        let second = world
            .resource_initiation(
                OWNER,
                "data/other.bin",
                duc_solid::Body::Binary(vec![0x5A; 1 << 10]),
                population_policy("https://owner.pod/data/other.bin", OWNER, 7),
                vec![],
            )
            .expect("second resource");
        world.resource_indexing("device-0", &second).expect("index");
        assert_eq!(world.metrics.counter("driver.tx.resigned"), 0);

        // What each access will price: the registration at today's nonce.
        let device = world.device("device-0");
        let sender = Address::from_public_key(&device.key.public());
        let quote = (world.attestation)
            .issue_quote(device.tee.enclave())
            .expect("trusted");
        let priced: Vec<SignedTransaction> = [&first, &second]
            .map(|resource| {
                let copy = RegisterCopy {
                    resource: resource.clone(),
                    device: "device-0".into(),
                    holder_webid: device.webid.clone(),
                    attestation_key: quote.enclave_key,
                    quote: quote.signature,
                };
                world.dex.call_tx(&world.chain, &device.key, copy)
            })
            .into();
        assert_eq!(priced[0].tx.nonce, priced[1].tx.nonce);

        let height = world.chain.height();
        for resource in [&first, &second] {
            world.submit(Request::ResourceAccess {
                device: "device-0".into(),
                resource: resource.clone(),
            });
        }
        world.run_until_idle();
        assert!(world.drain_events().iter().all(|(_, res)| res.is_ok()));
        assert_eq!(world.metrics.counter("driver.tx.resigned"), 1);

        let delivered: Vec<&SignedTransaction> = (height + 1..=world.chain.height())
            .flat_map(|h| &world.chain.block(h).expect("resident").transactions)
            .filter(|tx| tx.tx.from == sender)
            .collect();
        assert_eq!(delivered.len(), 2);
        // Delivered first: the priced transaction, byte for byte.
        let untouched = priced.iter().position(|tx| tx == delivered[0]);
        let untouched = untouched.expect("the first delivery is a priced transaction");
        // Delivered second: the other one, moved to the next nonce.
        let (was, now) = (&priced[1 - untouched], delivered[1]);
        assert_eq!(now.tx.nonce, was.tx.nonce + 1);
        assert_ne!(now.signature, was.signature);
        assert!(now.verify());
        let mut restored = now.clone();
        restored.tx.nonce = was.tx.nonce;
        restored.signature = was.signature;
        assert_eq!(&restored, was, "only nonce and signature differ");
    }
}
