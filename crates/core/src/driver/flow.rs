//! The shared transaction sub-machine: push-in submission with bounded
//! retries followed by a non-blocking inclusion wait.

use duc_blockchain::{Ledger, Receipt, SignedTransaction, TxId, TxStatus};
use duc_oracle::{HopKind, OracleError, PushInOracle};
use duc_sim::{EndpointId, SimTime};

use crate::world::World;

use super::{ProcessError, Wake, CONFIRM_TIMEOUT, HOP_TIMEOUT};

/// Builds a signed transaction against the chain's *current* state: the
/// nonce comes from the routed chain's `next_nonce`, which counts every
/// transaction already in the mempool, so concurrent flows from one sender
/// serialize cleanly instead of colliding.
///
/// **Purity contract.** Apart from that nonce, the result must depend only
/// on values the closure captured: no clock, RNG, metrics or other world
/// state. Signing is deterministic, so two calls that see the same nonce
/// return byte-identical transactions — which is what lets a flow sign
/// once, when it prices the wire size, and deliver that very transaction
/// whenever the sender's nonce has not moved in between.
pub(crate) type TxBuild<L> = Box<dyn Fn(&World<L>) -> SignedTransaction>;

/// Sub-machine: push-in submission (with retries) followed by a
/// non-blocking inclusion wait. Reused by every process that sends a
/// transaction.
pub(crate) struct TxFlow<L> {
    /// Signed when the flow started; taken when the chain gets it.
    tx: Option<Box<SignedTransaction>>,
    /// Kept for the case that the sender's nonce moves before delivery.
    build: TxBuild<L>,
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

impl<L: Ledger> TxFlow<L> {
    /// A flow about to make its first uplink attempt. The builder runs —
    /// and signs — once, now: the wire size is priced on the transaction
    /// that will be delivered.
    pub(crate) fn new(
        world: &World<L>,
        from: EndpointId,
        build: impl Fn(&World<L>) -> SignedTransaction + 'static,
    ) -> TxFlow<L> {
        let tx = Box::new(build(world));
        TxFlow {
            stage: Stage::Send {
                size: tx.encoded_size() as u64,
                from,
                attempt: 0,
                deadline: world.clock.now() + HOP_TIMEOUT,
            },
            tx: Some(tx),
            build: Box::new(build),
        }
    }

    /// Advances the flow at the current clock instant.
    pub(crate) fn step(&mut self, world: &mut World<L>) -> FlowPoll {
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
                // Sign once: the priced transaction is delivered as is
                // unless the sender's nonce moved while it was on the wire
                // (another flow of the same sender got there first) —
                // under the purity contract a rebuild at an unchanged
                // nonce would be byte-identical anyway.
                let mut tx = self.tx.take().expect("a flow delivers once");
                if world.chain.routed_next_nonce(&tx) != tx.tx.nonce {
                    world.metrics.incr("driver.tx.resigned");
                    *tx = (self.build)(world);
                }
                match world.chain.submit(*tx) {
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
fn gave_up<L>(world: &mut World<L>, attempts: u32, deadline: SimTime) -> FlowPoll {
    world.metrics.incr("driver.hop.gave_up");
    FlowPoll::Done(Err(OracleError::GaveUp {
        hop: HopKind::PushInUplink,
        attempts,
        deadline,
    }
    .into()))
}

/// Checks a receipt for contract-level success.
fn receipt_ok(receipt: Receipt) -> Result<Receipt, ProcessError> {
    match &receipt.status {
        TxStatus::Ok => Ok(receipt),
        TxStatus::Reverted(msg) => Err(ProcessError::Reverted(msg.clone())),
        TxStatus::OutOfGas => Err(ProcessError::Reverted("out of gas".into())),
        TxStatus::Superseded => Err(ProcessError::Reverted(
            "transaction superseded by a later nonce".into(),
        )),
    }
}
