//! The shared transaction sub-machine: push-in submission with bounded
//! retries followed by a non-blocking inclusion wait.

use duc_blockchain::{Ledger, Receipt, SignedTransaction, TxId};
use duc_oracle::{HopKind, OracleError, PushInOracle};
use duc_sim::{EndpointId, SimTime};

use crate::world::World;

use super::{Wake, CONFIRM_TIMEOUT, HOP_TIMEOUT};

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
pub(crate) enum TxFlow<L> {
    /// Attempting the uplink hop to the relay. `tx` was signed when the
    /// flow started; `build` is kept for the case that the sender's nonce
    /// moves before delivery.
    Send {
        tx: Box<SignedTransaction>,
        build: TxBuild<L>,
        size: u64,
        from: EndpointId,
        attempt: u32,
        deadline: SimTime,
    },
    /// The transaction is on the wire; it reaches the chain at the wake.
    Deliver {
        tx: Box<SignedTransaction>,
        build: TxBuild<L>,
    },
    /// In the mempool; parked on the driver's inclusion wait-set until the
    /// receipt exists or the deadline passes.
    Await { id: TxId, deadline: SimTime },
    /// Transient placeholder while stepping.
    Spent,
}

/// One advance of a [`TxFlow`].
pub(crate) enum FlowPoll {
    /// Re-step the flow at the given wake.
    Sleep(Wake),
    /// The flow finished.
    Done(Result<Receipt, OracleError>),
}

impl<L: Ledger> TxFlow<L> {
    /// Starts a flow: performs the first uplink attempt at the current
    /// instant. The builder runs — and signs — once, now: the wire size is
    /// priced on the transaction that will be delivered.
    pub(crate) fn start(
        world: &mut World<L>,
        from: EndpointId,
        build: impl Fn(&World<L>) -> SignedTransaction + 'static,
    ) -> (TxFlow<L>, FlowPoll) {
        let tx = Box::new(build(world));
        let size = tx.encoded_size() as u64;
        let mut flow = TxFlow::Send {
            tx,
            build: Box::new(build),
            size,
            from,
            attempt: 0,
            deadline: world.clock.now() + HOP_TIMEOUT,
        };
        let poll = flow.step(world);
        (flow, poll)
    }

    /// Advances the flow at the current clock instant.
    pub(crate) fn step(&mut self, world: &mut World<L>) -> FlowPoll {
        let now = world.clock.now();
        match std::mem::replace(self, TxFlow::Spent) {
            TxFlow::Send {
                tx,
                build,
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
                        Some(at) if at <= deadline => {
                            *self = TxFlow::Send {
                                tx,
                                build,
                                size,
                                from,
                                attempt,
                                deadline,
                            };
                            FlowPoll::Sleep(Wake::At(at))
                        }
                        _ => {
                            world.metrics.incr("driver.hop.gave_up");
                            FlowPoll::Done(Err(OracleError::GaveUp {
                                hop: HopKind::PushInUplink,
                                attempts: attempt,
                                deadline,
                            }))
                        }
                    };
                }
                match world
                    .push_in
                    .attempt(&mut world.net, &mut world.rng, from, size, attempt)
                {
                    Some(hop) => {
                        *self = TxFlow::Deliver { tx, build };
                        FlowPoll::Sleep(Wake::At(now + hop))
                    }
                    None => {
                        world.metrics.incr("driver.hop.drops");
                        let next = attempt + 1;
                        if next >= world.push_in.max_attempts {
                            FlowPoll::Done(Err(OracleError::NetworkDropped))
                        } else {
                            let at = now + PushInOracle::backoff(next);
                            if at > deadline {
                                world.metrics.incr("driver.hop.gave_up");
                                FlowPoll::Done(Err(OracleError::GaveUp {
                                    hop: HopKind::PushInUplink,
                                    attempts: next,
                                    deadline,
                                }))
                            } else {
                                *self = TxFlow::Send {
                                    tx,
                                    build,
                                    size,
                                    from,
                                    attempt: next,
                                    deadline,
                                };
                                FlowPoll::Sleep(Wake::At(at))
                            }
                        }
                    }
                }
            }
            TxFlow::Deliver { mut tx, build } => {
                // Sign once: the priced transaction is delivered as is
                // unless the sender's nonce moved while it was on the wire
                // (another flow of the same sender got there first) —
                // under the purity contract a rebuild at an unchanged
                // nonce would be byte-identical anyway.
                if world.chain.routed_next_nonce(&tx) != tx.tx.nonce {
                    world.metrics.incr("driver.tx.resigned");
                    *tx = build(world);
                }
                match world.chain.submit(*tx) {
                    Err(e) => FlowPoll::Done(Err(OracleError::Rejected(e))),
                    Ok(id) => {
                        *self = TxFlow::Await {
                            id,
                            deadline: now + CONFIRM_TIMEOUT,
                        };
                        self.step(world)
                    }
                }
            }
            TxFlow::Await { id, deadline } => {
                // Stepped on entry, then only once the wait-set saw the
                // receipt or the deadline: never re-polled per slot.
                world.chain.advance_to(now);
                if let Some(receipt) = world.chain.receipt(&id) {
                    FlowPoll::Done(Ok(receipt))
                } else if now >= deadline {
                    FlowPoll::Done(Err(OracleError::InclusionTimeout { deadline }))
                } else {
                    *self = TxFlow::Await { id, deadline };
                    FlowPoll::Sleep(Wake::Receipt { id, deadline })
                }
            }
            TxFlow::Spent => unreachable!("TxFlow stepped while spent"),
        }
    }
}

/// Shorthand: advance an embedded [`TxFlow`] and either sleep (wrapping the
/// machine back up) or hand the receipt result to `finish`.
macro_rules! drive_flow {
    ($world:expr, $flow:expr, $wrap:expr, $finish:expr) => {{
        let mut flow = $flow;
        match flow.step($world) {
            $crate::driver::flow::FlowPoll::Sleep(at) => {
                $crate::driver::Step::Sleep($wrap(flow), at)
            }
            $crate::driver::flow::FlowPoll::Done(res) => $finish($world, res),
        }
    }};
}
pub(crate) use drive_flow;
