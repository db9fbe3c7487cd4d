//! The non-blocking request driver.
//!
//! The six paper processes (plus the market-subscription prerequisite) are
//! expressed as per-process state machines that advance hop-by-hop on the
//! [`duc_sim::Scheduler`]: every network hop is a scheduled continuation
//! instead of an inline loop, so hundreds of requests from many owners and
//! devices interleave deterministically across block boundaries. A machine
//! waiting for a block parks on the *inclusion wait-set*: one slot tick per
//! block interval probes the chain for the parked transactions' receipts
//! and steps, in the order waiting began, only the machines whose receipt
//! exists (or whose timeout is due) — confirmation costs a machine step
//! per included transaction, not one per pending transaction per slot.
//!
//! - [`World::submit`] enqueues a [`Request`] and returns a [`Ticket`]
//!   immediately (unknown participants fail fast with a typed
//!   [`ProcessError`] instead of panicking).
//! - [`World::run_until_idle`] and [`World::advance`] drive the event
//!   loop: until no request is in flight, or for a span of simulated time.
//! - Completed work surfaces as [`Outcome`] events via [`Ticket::poll`] /
//!   [`World::drain_events`].
//!
//! The one-shot methods on [`World`] (see [`crate::process`]) are thin
//! wrappers: submit, run to idle, unwrap the single outcome.
//!
//! ## One loop
//!
//! Time moves in one place. `run_until_idle` and `advance` are two stop
//! conditions over the same loop body — step every woken machine, hop the
//! scheduler to its next event, let the chain catch up to that instant,
//! flip the fault-plan transitions due there — so a batch takes the same
//! trajectory under either. Nothing in [`World`] blocks on the chain:
//! every wait for a receipt is a park on the inclusion wait-set. And a due
//! obligation is enforced by exactly one mechanism, the `obligation`
//! scheduler's wakeups, which are ordinary events of this loop.
//!
//! ## Layout
//!
//! One file per process machine (`pod_init`, `res_init`, `indexing`,
//! `subscribe`, `access`, `policy_mod`, `monitoring`, and the internal
//! `obligation` wakeup) plus the shared machinery: the fault-aware
//! `hop::Hop`, the transaction sub-machine `flow::TxFlow`, the result
//! types in `result`, and this module's dispatch/state.
//!
//! ## Writing a machine
//!
//! A machine is a struct holding everything its request knows, a `phase`
//! enum, and `fn step<L: Ledger>(&mut self, &mut World<L>) -> Step`: the
//! driver keeps the one value it boxed at submission and steps it where it
//! is stored. Machines are plain data — none has a type parameter; only
//! `step` names the ledger backend it runs against.
//! A phase transition is an assignment to `self.phase`. What one phase
//! hands the next moves with `std::mem::take`; what several phases read
//! is a field, set once by the phase that resolves it. A hop's retry and a
//! flow's wait change nothing — the arm returns `Step::Sleep` and the same
//! phase runs again. `Step::Sleep(Wake::At(now))` is not a shortcut for
//! "continue": it is a round trip through the wake queue, which lets every
//! other machine woken at this instant step in between, and so fixes the
//! order of RNG draws and nonces and the count
//! [`World::run_until_idle`] returns — it is part of the replay contract.
//! A phase that falls through to the next within one step assigns the
//! phase and calls `self.step(world)` directly.
//!
//! Every state-changing process is a local step at the pod manager or the
//! TEE, then one transaction. The machine signs that transaction where the
//! local step ends and hands it, with the sender's endpoint and key, to a
//! `flow::TxFlow`; what comes back is the receipt of a call that executed,
//! or why there is none. Processes 1, 2 and the subscription keep that
//! local step (`prepare`) and what follows confirmation (`registered`,
//! `certified`) as functions of their file, because
//! [`crate::scenario::populate_population`] enrols a whole market through
//! the same two halves and only sends differently: straight into the
//! mempool, in chunks. It confirms as this driver does, per sealed slot,
//! from what that slot included — the events naming each pod, resource
//! and subscriber, and then one receipt per included subscription — so
//! its work is per included transaction, not per pending one per slot.
//! Metrics and trace records belong to the machine, not to those
//! functions.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::Rc;

use duc_blockchain::{Event, Ledger, TxId};
use duc_contracts::{topics, PolicyEnvelope};
use duc_crypto::Digest;
use duc_intern::Sym;
use duc_policy::{Duty, Rule, UsagePolicy};
use duc_sim::{EndpointId, EventId, SimDuration, SimTime};
use duc_solid::Body;

use crate::world::{IndexEntry, World};

mod access;
mod flow;
mod hop;
mod indexing;
mod monitoring;
mod obligation;
pub(crate) mod pod_init;
mod policy_mod;
pub(crate) mod res_init;
mod result;
pub(crate) mod subscribe;

use access::Access;
use indexing::Indexing;
use monitoring::Monitoring;
use obligation::ObligationRun;
use pod_init::PodInit;
use policy_mod::PolicyMod;
use res_init::ResInit;
use subscribe::Subscribe;

pub use result::{AccessOutcome, MonitoringOutcome, ProcessError, PropagationOutcome};

/// Confirmation timeout for on-chain operations.
pub const CONFIRM_TIMEOUT: SimDuration = SimDuration::from_secs(120);

/// Retry budget window for a single network hop: a hop that cannot be
/// delivered by then resolves with a typed
/// [`duc_oracle::OracleError::GaveUp`] instead of waiting longer.
pub(crate) const HOP_TIMEOUT: SimDuration = SimDuration::from_secs(60);

/// Maximum delivery attempts per hop against transient loss.
pub(crate) const MAX_HOP_ATTEMPTS: u32 = 8;

/// Deterministic exponential backoff before retry number `attempt`
/// (1-based): 50 ms, 100 ms, 200 ms, … capped at 12.8 s.
pub(crate) fn hop_backoff(attempt: u32) -> SimDuration {
    SimDuration::from_millis(50u64 << attempt.saturating_sub(1).min(8))
}

/// A typed request against the architecture: one variant per paper process
/// (Fig. 2), plus the market-subscription prerequisite of process 4.
#[derive(Debug, Clone)]
pub enum Request {
    /// Process 1 — register `webid`'s pod on-chain.
    PodInitiation {
        /// Owner WebID.
        webid: String,
    },
    /// Process 2 — upload a resource, attach a policy, index it on-chain.
    ResourceInitiation {
        /// Owner WebID.
        webid: String,
        /// Pod-relative path.
        path: String,
        /// Resource content.
        body: Body,
        /// Usage policy to attach.
        policy: UsagePolicy,
        /// DE App metadata key/value pairs.
        metadata: Vec<(String, String)>,
    },
    /// Process 3 — a device reads a resource's location + policy from the
    /// DE App.
    ResourceIndexing {
        /// Device name.
        device: String,
        /// Resource IRI.
        resource: String,
    },
    /// Market subscription — buy the certificate required by process 4.
    MarketSubscribe {
        /// Device name.
        device: String,
    },
    /// Process 4 — fetch a governed copy into the device's TEE.
    ResourceAccess {
        /// Device name.
        device: String,
        /// Resource IRI.
        resource: String,
    },
    /// Process 5 — amend a policy and fan the update out to copy holders.
    PolicyModification {
        /// Owner WebID.
        webid: String,
        /// Pod-relative path.
        path: String,
        /// Replacement rules.
        rules: Vec<Rule>,
        /// Replacement duties.
        duties: Vec<Duty>,
    },
    /// Process 6 — run a monitoring round over every copy holder.
    PolicyMonitoring {
        /// Owner WebID.
        webid: String,
        /// Pod-relative path.
        path: String,
    },
}

/// What a completed [`Request`] produced.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Process 1 finished; the pod is registered.
    PodInitiated {
        /// Owner WebID.
        webid: String,
    },
    /// Process 2 finished; the resource is indexed on-chain.
    ResourceInitiated {
        /// The resource IRI.
        resource: String,
    },
    /// Process 3 finished; the device stored the index entry.
    Indexed {
        /// What the device learned.
        entry: IndexEntry,
    },
    /// The market subscription was bought.
    Subscribed {
        /// The payment certificate.
        certificate: Digest,
    },
    /// Process 4 finished.
    Accessed(AccessOutcome),
    /// Process 5 finished.
    PolicyPropagated(PropagationOutcome),
    /// Process 6 finished.
    Monitored(MonitoringOutcome),
    /// An internal obligation wakeup ran its duties (never surfaced
    /// through a user ticket; the obligation scheduler spawns these).
    ObligationsEnforced {
        /// The device whose TEE was woken.
        device: String,
        /// The governed copy.
        resource: String,
        /// Whether the copy was deleted (and the deletion anchored).
        deleted: bool,
    },
}

/// Handle on an in-flight (or completed) request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ticket(pub(crate) u64);

impl Ticket {
    /// The raw request id (submission order).
    pub fn id(self) -> u64 {
        self.0
    }

    /// Takes the completed outcome for this ticket, if the request has
    /// finished.
    pub fn poll<L: Ledger>(self, world: &mut World<L>) -> Option<Result<Outcome, ProcessError>> {
        world.poll_ticket(self)
    }
}

// ---------------------------------------------------------------- machines

/// One advance of a process machine.
pub(crate) enum Step {
    /// Step the machine again at the given wake.
    Sleep(Wake),
    /// The request completed.
    Done(Result<Outcome, ProcessError>),
}

/// What a sleeping machine waits for.
pub(crate) enum Wake {
    /// An instant (one not in the future means "re-step in this scheduling
    /// round").
    At(SimTime),
    /// The chain holding a receipt for `id` — included or superseded — or
    /// `deadline`, whichever comes first. The machine parks on the
    /// driver's inclusion wait-set and is not stepped in between.
    Receipt { id: TxId, deadline: SimTime },
}

/// The per-process state machines.
pub(crate) enum Machine {
    PodInit(PodInit),
    ResInit(Box<ResInit>),
    Indexing(Indexing),
    Subscribe(Subscribe),
    Access(Box<Access>),
    PolicyMod(Box<PolicyMod>),
    Monitoring(Box<Monitoring>),
    Obligation(Box<ObligationRun>),
}

impl Machine {
    pub(crate) fn step<L: Ledger>(&mut self, world: &mut World<L>) -> Step {
        match self {
            Machine::PodInit(m) => m.step(world),
            Machine::ResInit(m) => m.step(world),
            Machine::Indexing(m) => m.step(world),
            Machine::Subscribe(m) => m.step(world),
            Machine::Access(m) => m.step(world),
            Machine::PolicyMod(m) => m.step(world),
            Machine::Monitoring(m) => m.step(world),
            Machine::Obligation(m) => m.step(world),
        }
    }
}

// ------------------------------------------------------------------ inbox

/// What a pushed-out event is about, decoded once when it enters the
/// shared inbox: the key an in-flight process claims it by, plus the
/// payload that process needs.
pub(crate) enum Routed {
    /// `PolicyUpdated`: the hash travelling inside the event is dropped —
    /// process 5 checks the envelope against the on-chain anchor instead.
    PolicyUpdated {
        resource: String,
        version: u64,
        envelope: PolicyEnvelope,
    },
    /// `RoundClosed`.
    RoundClosed { resource: String, round: u64 },
}

impl Routed {
    /// `None` for a topic no process claims or a payload that does not
    /// decode: no key could ever match such an event.
    fn decode(event: &Event) -> Option<Routed> {
        match event.topic.as_str() {
            topics::POLICY_UPDATED => {
                let (resource, version, envelope, _) =
                    duc_codec::decode_from_slice::<(_, _, _, Digest)>(&event.data).ok()?;
                Some(Routed::PolicyUpdated {
                    resource,
                    version,
                    envelope,
                })
            }
            topics::ROUND_CLOSED => {
                let (resource, round, _, _) =
                    duc_codec::decode_from_slice::<(_, _, u64, Vec<String>)>(&event.data).ok()?;
                Some(Routed::RoundClosed { resource, round })
            }
            _ => None,
        }
    }
}

/// One drained chain event in the shared inbox, with every delivery the
/// push-out oracle computed for it.
pub(crate) struct InboxEvent {
    pub(crate) routed: Routed,
    /// `(recipient, arrives_at)` in the oracle's fan-out order.
    pub(crate) deliveries: Vec<(EndpointId, SimTime)>,
}

// -------------------------------------------------------------- wake queue

/// An entry of the driver's wake queue.
enum Wakeup {
    /// Step this machine.
    Process(u64),
    /// Look through the inclusion wait-set (a slot tick or a waiter's
    /// deadline fired) and step the machines whose wait is over.
    Receipts,
}

/// A machine parked until its transaction has a receipt.
struct Waiter {
    pid: u64,
    id: TxId,
    deadline: SimTime,
}

// ------------------------------------------------------------ driver state

/// Per-world driver bookkeeping: in-flight machines, wake queue, completed
/// outcomes, and the shared push-out/pull-in inboxes that keep concurrent
/// processes from stealing each other's events.
pub(crate) struct DriverState {
    next_ticket: u64,
    inflight: HashMap<u64, Machine>,
    woken: Rc<RefCell<VecDeque<Wakeup>>>,
    /// The inclusion wait-set, in the order waiting began.
    waiting: Vec<Waiter>,
    /// The queued slot tick — one scheduler event at the next slot
    /// boundary, kept armed exactly while `waiting` is non-empty.
    slot_tick: Option<(SimTime, EventId)>,
    completed: VecDeque<(Ticket, Result<Outcome, ProcessError>)>,
    pub(crate) inbox: Vec<InboxEvent>,
    pub(crate) monitoring_inbox: Vec<(u64, Rc<Event>)>,
    /// Machine ids spawned by the obligation scheduler: their outcomes are
    /// dropped on completion instead of surfacing through tickets.
    internal: HashSet<u64>,
    /// Obligation wakeups fired by the scheduler, waiting to materialize
    /// as [`ObligationRun`] machines: interned `(device, resource)` pairs
    /// in the world's shared symbol space.
    pub(crate) obligation_woken: Rc<RefCell<VecDeque<(Sym, Sym)>>>,
    /// The wakeup currently registered per interned `(device, resource)`,
    /// so a policy change re-arms (cancel + reschedule) instead of
    /// stacking. Keyed on two `u32` symbols — no string hashing or clones
    /// on the re-arm hot path.
    pub(crate) scheduled_obligations: HashMap<(Sym, Sym), (SimTime, EventId)>,
}

impl DriverState {
    pub(crate) fn new() -> DriverState {
        DriverState {
            next_ticket: 0,
            inflight: HashMap::new(),
            woken: Rc::new(RefCell::new(VecDeque::new())),
            waiting: Vec::new(),
            slot_tick: None,
            completed: VecDeque::new(),
            inbox: Vec::new(),
            monitoring_inbox: Vec::new(),
            internal: HashSet::new(),
            obligation_woken: Rc::new(RefCell::new(VecDeque::new())),
            scheduled_obligations: HashMap::new(),
        }
    }
}

impl<L: Ledger> World<L> {
    /// Submits a request to the driver and returns its ticket immediately.
    ///
    /// Unknown owners/devices complete at once with a typed error (no
    /// panic); everything else starts advancing when the event loop runs
    /// ([`World::run_until_idle`] or [`World::advance`]).
    pub fn submit(&mut self, request: Request) -> Ticket {
        let ticket = Ticket(self.driver.next_ticket);
        self.driver.next_ticket += 1;
        let started = self.clock.now();

        // Participant validation up front: a typed error, not a panic.
        let rejection = match &request {
            Request::PodInitiation { webid }
            | Request::ResourceInitiation { webid, .. }
            | Request::PolicyModification { webid, .. }
            | Request::PolicyMonitoring { webid, .. } => (!self.owners.contains_key(webid))
                .then(|| ProcessError::UnknownOwner(webid.clone())),
            Request::ResourceIndexing { device, .. }
            | Request::MarketSubscribe { device }
            | Request::ResourceAccess { device, .. } => (!self.devices.contains_key(device))
                .then(|| ProcessError::UnknownDevice(device.clone())),
        };
        if let Some(err) = rejection {
            self.driver.completed.push_back((ticket, Err(err)));
            return ticket;
        }

        let machine = match request {
            Request::PodInitiation { webid } => Machine::PodInit(PodInit::new(webid, started)),
            Request::ResourceInitiation {
                webid,
                path,
                body,
                policy,
                metadata,
            } => Machine::ResInit(Box::new(ResInit::new(
                webid, path, body, policy, metadata, started,
            ))),
            Request::ResourceIndexing { device, resource } => {
                Machine::Indexing(Indexing::new(device, resource, started))
            }
            Request::MarketSubscribe { device } => {
                Machine::Subscribe(Subscribe::new(device, started))
            }
            Request::ResourceAccess { device, resource } => {
                Machine::Access(Box::new(Access::new(device, resource, started)))
            }
            Request::PolicyModification {
                webid,
                path,
                rules,
                duties,
            } => Machine::PolicyMod(Box::new(PolicyMod::new(
                webid, path, rules, duties, started,
            ))),
            Request::PolicyMonitoring { webid, path } => {
                Machine::Monitoring(Box::new(Monitoring::new(webid, path, started)))
            }
        };
        self.driver.inflight.insert(ticket.0, machine);
        self.wake_now(ticket.0);
        ticket
    }

    /// Number of requests currently in flight.
    pub fn in_flight(&self) -> usize {
        self.driver.inflight.len()
    }

    /// Number of in-flight requests parked until a transaction of theirs
    /// has a receipt.
    pub(crate) fn awaiting_inclusion(&self) -> usize {
        self.driver.waiting.len()
    }

    /// Takes the completed outcome for `ticket`, if the request finished.
    pub(crate) fn poll_ticket(&mut self, ticket: Ticket) -> Option<Result<Outcome, ProcessError>> {
        let pos = self
            .driver
            .completed
            .iter()
            .position(|(t, _)| *t == ticket)?;
        self.driver.completed.remove(pos).map(|(_, res)| res)
    }

    /// Drains every completed outcome, in completion order.
    pub fn drain_events(&mut self) -> Vec<(Ticket, Result<Outcome, ProcessError>)> {
        self.driver.completed.drain(..).collect()
    }

    /// Steps every process woken at the current instant, materializing
    /// fired obligation wakeups into internal machines first. Returns the
    /// number of process steps executed.
    fn step_woken(&mut self) -> u64 {
        let mut steps = 0;
        loop {
            self.spawn_due_obligations();
            let Some(wakeup) = self.driver.woken.borrow_mut().pop_front() else {
                break;
            };
            steps += match wakeup {
                Wakeup::Process(pid) => {
                    self.step_process(pid);
                    1
                }
                Wakeup::Receipts => self.step_confirmed(),
            };
        }
        steps
    }

    fn wake_now(&mut self, pid: u64) {
        let wakeup = Wakeup::Process(pid);
        self.driver.woken.borrow_mut().push_back(wakeup);
    }

    /// Queues `wakeup` for the instant `at` (in the future).
    fn wake_at(&mut self, at: SimTime, wakeup: Wakeup) -> EventId {
        let woken = self.driver.woken.clone();
        self.sched
            .schedule_at(at, move |_| woken.borrow_mut().push_back(wakeup))
    }

    /// Steps, in waiting order, exactly the parked machines whose wait is
    /// over — the chain holds their receipt, or their deadline is here —
    /// and re-arms the slot tick for the rest. A waiter that stays costs
    /// one receipt probe, not a machine step. Returns the steps executed.
    ///
    /// Runs when a [`Wakeup::Receipts`] entry is reached, i.e. after the
    /// event loop brought the chain to this instant: a block sealed at
    /// this slot has already recorded its receipts (and those of the
    /// entries it superseded).
    fn step_confirmed(&mut self) -> u64 {
        let now = self.clock.now();
        // Whether the slot tick, rather than one waiter's deadline, is due.
        let ticked = self.driver.slot_tick.is_some_and(|(at, _)| at <= now);
        if ticked {
            self.driver.slot_tick = None;
        }
        let mut steps = 0;
        // A machine stepped here may park again: that lands in the (now
        // empty) set in the driver and is appended below, which keeps the
        // order in which waiting began.
        let waiting = std::mem::take(&mut self.driver.waiting);
        let mut still_waiting = Vec::with_capacity(waiting.len());
        for waiter in waiting {
            if waiter.deadline <= now || self.chain.has_receipt(&waiter.id) {
                self.step_process(waiter.pid);
                steps += 1;
            } else {
                still_waiting.push(waiter);
            }
        }
        if ticked && !still_waiting.is_empty() {
            // No poll sits between two ticks any more, so a deadline that
            // precedes the next tick gets a wake of its own: the timeout
            // still fires at its exact instant.
            let next_tick = self.next_slot_tick();
            for waiter in &still_waiting {
                if waiter.deadline < next_tick {
                    self.wake_at(waiter.deadline, Wakeup::Receipts);
                }
            }
        }
        still_waiting.append(&mut self.driver.waiting);
        self.driver.waiting = still_waiting;
        if self.driver.waiting.is_empty() {
            if let Some((_, tick)) = self.driver.slot_tick.take() {
                self.sched.cancel(tick);
            }
        }
        steps
    }

    /// The instant of the armed slot tick; arms one at the next slot
    /// boundary if none is.
    fn next_slot_tick(&mut self) -> SimTime {
        if let Some((at, _)) = self.driver.slot_tick {
            return at;
        }
        let at = self.chain.next_slot_at(self.clock.now());
        let tick = self.wake_at(at, Wakeup::Receipts);
        self.driver.slot_tick = Some((at, tick));
        at
    }

    /// Parks machine `pid` on the inclusion wait-set.
    fn park(&mut self, pid: u64, id: TxId, deadline: SimTime) {
        self.driver.waiting.push(Waiter { pid, id, deadline });
        if deadline < self.next_slot_tick() {
            self.wake_at(deadline, Wakeup::Receipts);
        }
    }

    /// Turns fired obligation wakeups into in-flight [`ObligationRun`]
    /// machines (internal: their outcomes never surface through tickets).
    fn spawn_due_obligations(&mut self) {
        loop {
            let Some(key) = self.driver.obligation_woken.borrow_mut().pop_front() else {
                break;
            };
            self.driver.scheduled_obligations.remove(&key);
            let device = self.ids.resolve(key.0).to_string();
            let resource = self.ids.resolve(key.1).to_string();
            let pid = self.driver.next_ticket;
            self.driver.next_ticket += 1;
            self.driver.internal.insert(pid);
            self.driver.inflight.insert(
                pid,
                Machine::Obligation(Box::new(ObligationRun::new(device, resource))),
            );
            self.wake_now(pid);
        }
    }

    fn step_process(&mut self, pid: u64) {
        // Out of the map while it runs — it steps against the whole world —
        // and the same value back in if it sleeps.
        let Some(mut machine) = self.driver.inflight.remove(&pid) else {
            return;
        };
        match machine.step(self) {
            Step::Sleep(wake) => {
                self.driver.inflight.insert(pid, machine);
                match wake {
                    Wake::At(at) if at <= self.clock.now() => self.wake_now(pid),
                    Wake::At(at) => {
                        self.wake_at(at, Wakeup::Process(pid));
                    }
                    Wake::Receipt { id, deadline } => self.park(pid, id, deadline),
                }
            }
            Step::Done(result) => {
                if self.driver.internal.remove(&pid) {
                    // Internal obligation machines report through metrics,
                    // not tickets.
                    if result.is_err() {
                        self.metrics.incr("driver.obligation.failed");
                    }
                } else {
                    self.driver.completed.push_back((Ticket(pid), result));
                }
            }
        }
    }

    /// The event loop, up to one of its two stop conditions: `Some(horizon)`
    /// runs everything due by that instant, `None` runs until no request
    /// is in flight. Each turn steps what is woken, hops the scheduler to
    /// its next event, lets the chain catch up and flips the fault-plan
    /// transitions due there. Returns the number of process steps executed.
    fn run_events(&mut self, horizon: Option<SimTime>) -> u64 {
        let mut steps = 0;
        self.apply_faults();
        loop {
            steps += self.step_woken();
            let Some(at) = self.sched.next_event_at() else {
                break;
            };
            let stop = match horizon {
                Some(horizon) => at > horizon,
                // What is queued past an idle driver can only be fault-plan
                // boundary markers or *future* obligation wakeups, which
                // must not drag the clock forward on their own. A wakeup
                // already due (e.g. a zero-retention copy registered this
                // round) still fires first.
                None => self.driver.inflight.is_empty() && at > self.clock.now(),
            };
            if stop {
                break;
            }
            self.sched.run_until(at);
            // The chain catches up under the pre-boundary fault state;
            // plan transitions due at this instant flip afterwards.
            self.chain.advance_to(self.clock.now());
            self.apply_faults();
        }
        steps
    }

    /// Drives the event loop until no request is in flight. Obligation
    /// wakeups that fall due on the way fire; future ones stay queued and
    /// the clock stops where the last request finished. Returns the number
    /// of process steps executed.
    pub fn run_until_idle(&mut self) -> u64 {
        let steps = self.run_events(None);
        if self.driver.inflight.is_empty() {
            // Nothing left to claim them: drop unclaimed deliveries, like
            // the one-shot processes did.
            self.driver.inbox.clear();
            self.driver.monitoring_inbox.clear();
        }
        self.sync_chain();
        steps
    }

    /// Drives the same event loop for `d` of simulated time, whether or
    /// not requests are in flight, and leaves clock and chain at exactly
    /// `now + d`. Obligation wakeups fire at their instants along the way
    /// (paper §III-C: "the TEE automatically deletes the resource ...
    /// after one week has passed, as per the policy") and in-flight
    /// requests progress through their scheduled continuations. Returns
    /// the number of process steps executed.
    pub fn advance(&mut self, d: SimDuration) -> u64 {
        let target = self.clock.now() + d;
        let steps = self.run_events(Some(target));
        self.clock.advance_to(target);
        self.chain.advance_to(target);
        self.apply_faults();
        steps
    }

    /// Drains fresh push-out deliveries into the shared inbox — one entry
    /// per event — then removes and returns the events whose key matches
    /// `pred`. Non-matching events stay for other in-flight processes.
    pub(crate) fn claim_events(
        &mut self,
        mut pred: impl FnMut(&Routed) -> bool,
    ) -> Vec<InboxEvent> {
        // `drain` resyncs a relay cursor that fell below the prune horizon
        // (idle across a finalized checkpoint) and re-polls: everything at
        // or above the horizon is still resident.
        let fresh = self
            .push_out
            .drain(&self.chain, &mut self.net, &self.clock, &mut self.rng);
        // The oracle emits an event's deliveries back to back.
        for group in fresh.chunk_by(|a, b| Rc::ptr_eq(&a.event, &b.event)) {
            if let Some(routed) = Routed::decode(&group[0].event) {
                let deliveries = group.iter().map(|d| (d.recipient, d.arrives_at));
                self.driver.inbox.push(InboxEvent {
                    routed,
                    deliveries: deliveries.collect(),
                });
            }
        }
        let (claimed, rest) = std::mem::take(&mut self.driver.inbox)
            .into_iter()
            .partition(|e| pred(&e.routed));
        self.driver.inbox = rest;
        claimed
    }
}
