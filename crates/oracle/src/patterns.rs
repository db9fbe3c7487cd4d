//! The four oracle patterns.

use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use duc_blockchain::{ContractError, Event, Ledger, PrunedRange, SubmitError};
use duc_sim::{Clock, EndpointId, NetworkModel, Rng, SimDuration, SimTime};

/// Which network hop of an oracle interaction failed. Typed so a driver can
/// attribute a failure to a link and decide retry-vs-abort per hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopKind {
    /// Component → relay uplink of a push-in submission.
    PushInUplink,
    /// Component → relay request of a pull-out read.
    PullOutRequest,
    /// Relay → component response of a pull-out read.
    PullOutResponse,
    /// Device → pod-manager resource request.
    PodRequest,
    /// Pod-manager → device resource response.
    PodResponse,
    /// Relay → gateway poll of the pull-in oracle.
    PullInPoll,
    /// Gateway → relay return of the pull-in oracle.
    PullInReturn,
    /// Relay → device evidence probe of a monitoring round.
    DeviceProbe,
}

impl std::fmt::Display for HopKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            HopKind::PushInUplink => "push-in uplink",
            HopKind::PullOutRequest => "pull-out request",
            HopKind::PullOutResponse => "pull-out response",
            HopKind::PodRequest => "pod request",
            HopKind::PodResponse => "pod response",
            HopKind::PullInPoll => "pull-in poll",
            HopKind::PullInReturn => "pull-in return",
            HopKind::DeviceProbe => "device probe",
        })
    }
}

/// Oracle-layer failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleError {
    /// The message was lost on the network (after any retries).
    NetworkDropped,
    /// A driver abandoned a hop after exhausting its fault-recovery budget
    /// (bounded retries, or a crash/partition window outlasting the hop
    /// deadline).
    GaveUp {
        /// The hop that could not be completed.
        hop: HopKind,
        /// Delivery attempts actually made before giving up.
        attempts: u32,
        /// The retry deadline that forced the decision.
        deadline: SimTime,
    },
    /// The chain rejected the transaction.
    Rejected(SubmitError),
    /// The transaction was not included before the deadline.
    InclusionTimeout {
        /// The deadline that passed.
        deadline: SimTime,
    },
    /// A view call failed.
    View(ContractError),
    /// The cursor fell below the chain's prune horizon: the requested
    /// event range has been evicted behind a checkpoint. Blind retry can
    /// never succeed — the holder must resync its cursor to the carried
    /// horizon (see `PushOutOracle::resync` / `PullInOracle::resync`)
    /// before polling again.
    Pruned(PrunedRange),
}

impl OracleError {
    /// Whether the failure is *transient*: caused by the network or chain
    /// liveness, so re-issuing the whole operation later (after faults
    /// heal) can plausibly succeed. Permanent failures — contract
    /// rejections, view errors, and pruned cursor ranges (which need an
    /// explicit resync, not a retry) — abort instead of retrying.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            OracleError::NetworkDropped
                | OracleError::GaveUp { .. }
                | OracleError::InclusionTimeout { .. }
        )
    }
}

impl std::fmt::Display for OracleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleError::NetworkDropped => f.write_str("message dropped by network"),
            OracleError::GaveUp {
                hop,
                attempts,
                deadline,
            } => {
                write!(
                    f,
                    "gave up on {hop} after {attempts} attempts (deadline {deadline})"
                )
            }
            OracleError::Rejected(e) => write!(f, "transaction rejected: {e}"),
            OracleError::InclusionTimeout { deadline } => {
                write!(f, "transaction not included by {deadline}")
            }
            OracleError::View(e) => write!(f, "view call failed: {e}"),
            OracleError::Pruned(e) => write!(f, "cursor below prune horizon: {e}"),
        }
    }
}

impl std::error::Error for OracleError {}

/// **Push-in**: an off-chain component (pod manager, device) pushes a
/// state-changing transaction to the chain through an oracle relay node.
#[derive(Debug, Clone)]
pub struct PushInOracle {
    /// The relay's network endpoint.
    pub relay: EndpointId,
    /// Submission attempts on network loss (first try + retries).
    pub max_attempts: u32,
    submissions: u64,
    retries: u64,
}

impl PushInOracle {
    /// A push-in oracle at `relay` with 3 attempts.
    pub fn new(relay: EndpointId) -> PushInOracle {
        PushInOracle {
            relay,
            max_attempts: 3,
            submissions: 0,
            retries: 0,
        }
    }

    /// One non-blocking uplink attempt of a logical submission: records the
    /// submission/retry counters (`attempt` 0 is the first try) and returns
    /// the hop delay when the message got through, `None` when it was lost.
    ///
    /// The caller owns the timeline: on success it delivers the transaction
    /// to the chain `Some(hop)` later; on loss it retries [`Self::backoff`]
    /// later, up to [`PushInOracle::max_attempts`] attempts in total.
    pub fn attempt(
        &mut self,
        net: &mut NetworkModel,
        rng: &mut Rng,
        from: EndpointId,
        size: u64,
        attempt: u32,
    ) -> Option<SimDuration> {
        if attempt == 0 {
            self.submissions += 1;
        } else {
            self.retries += 1;
        }
        net.transmit(from, self.relay, size, rng).delay()
    }

    /// Linear backoff before retry number `attempt` (attempt 1 = first
    /// retry).
    pub fn backoff(attempt: u32) -> SimDuration {
        SimDuration::from_millis(100 * attempt as u64)
    }

    /// `(submissions, retries)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.submissions, self.retries)
    }
}

/// One event delivery computed by the push-out oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutboundDelivery {
    /// The chain event (`Rc`-shared with the ledger's log — fan-out to N
    /// subscribers clones N pointers, not N payloads).
    pub event: Rc<Event>,
    /// Block height it was emitted at.
    pub height: u64,
    /// The subscribed recipient.
    pub recipient: EndpointId,
    /// When it arrives at the recipient.
    pub arrives_at: SimTime,
}

/// The endpoints subscribed to one topic: a set, kept in first-seen order
/// so fan-out order (and with it the network model's RNG draw sequence) is
/// a function of who subscribed when, never of how often.
#[derive(Debug, Clone, Default)]
struct Subscribers {
    order: Vec<EndpointId>,
    members: HashSet<EndpointId>,
}

/// **Push-out**: the chain pushes contract events to subscribed off-chain
/// components (policy updates fanning out to every device holding a copy).
///
/// A subscription is a *set member*, not a multiset entry: subscribing an
/// endpoint that already listens to the topic changes nothing, and every
/// event is transmitted once per distinct subscriber.
#[derive(Debug, Clone)]
pub struct PushOutOracle {
    /// The relay's network endpoint.
    pub relay: EndpointId,
    cursor: u64,
    subscriptions: HashMap<String, Subscribers>,
    delivered: u64,
    dropped: u64,
    resyncs: u64,
}

impl PushOutOracle {
    /// A push-out oracle at `relay` with no subscriptions.
    pub fn new(relay: EndpointId) -> PushOutOracle {
        PushOutOracle {
            relay,
            cursor: 0,
            subscriptions: HashMap::new(),
            delivered: 0,
            dropped: 0,
            resyncs: 0,
        }
    }

    /// Subscribes `recipient` to events with `topic`. Idempotent: a pair
    /// that is already present is a hash probe and nothing else.
    pub fn subscribe(&mut self, topic: impl AsRef<str>, recipient: EndpointId) {
        let topic = topic.as_ref();
        let subs = match self.subscriptions.get_mut(topic) {
            Some(subs) => subs,
            None => self.subscriptions.entry(topic.to_owned()).or_default(),
        };
        if subs.members.insert(recipient) {
            subs.order.push(recipient);
        }
    }

    /// Number of `(topic, recipient)` subscriptions currently held.
    pub fn subscriptions(&self) -> usize {
        self.subscriptions.values().map(|s| s.order.len()).sum()
    }

    /// Drains new chain events and computes their deliveries. Lost
    /// messages are counted and omitted (at-most-once delivery, like a
    /// plain webhook relay — the monitoring process tolerates this by
    /// re-polling). If the cursor has fallen below the chain's prune
    /// horizon, the oracle resyncs to the horizon (counted in
    /// [`PushOutOracle::resyncs`]) and drains from there — the behaviour
    /// [`PushOutOracle::try_drain`] surfaces as a typed error instead.
    pub fn drain<L: Ledger>(
        &mut self,
        chain: &L,
        net: &mut NetworkModel,
        clock: &Clock,
        rng: &mut Rng,
    ) -> Vec<OutboundDelivery> {
        match self.try_drain(chain, net, clock, rng) {
            Ok(deliveries) => deliveries,
            Err(OracleError::Pruned(e)) => {
                self.resync(e.horizon);
                self.try_drain(chain, net, clock, rng)
                    .expect("cursor at horizon is always valid")
            }
            Err(_) => unreachable!("try_drain only fails with Pruned"),
        }
    }

    /// Like [`PushOutOracle::drain`], but a cursor below the prune horizon
    /// is a typed [`OracleError::Pruned`] error: events in
    /// `(cursor, horizon]` were evicted before this relay saw them, and the
    /// caller decides how to recover (checkpoint-resync via
    /// [`PushOutOracle::resync`], then drain again).
    ///
    /// # Errors
    /// [`OracleError::Pruned`] when the cursor is below the horizon.
    pub fn try_drain<L: Ledger>(
        &mut self,
        chain: &L,
        net: &mut NetworkModel,
        clock: &Clock,
        rng: &mut Rng,
    ) -> Result<Vec<OutboundDelivery>, OracleError> {
        let fresh = chain
            .try_events_since(self.cursor)
            .map_err(OracleError::Pruned)?;
        let mut deliveries = Vec::new();
        let mut max_height = self.cursor;
        for (height, event) in fresh {
            max_height = max_height.max(*height);
            let Some(subs) = self.subscriptions.get(&event.topic) else {
                continue;
            };
            let size = event.data.len() as u64 + 64;
            for recipient in &subs.order {
                match net.transmit(self.relay, *recipient, size, rng).delay() {
                    None => self.dropped += 1,
                    Some(hop) => {
                        self.delivered += 1;
                        deliveries.push(OutboundDelivery {
                            event: Rc::clone(event),
                            height: *height,
                            recipient: *recipient,
                            arrives_at: clock.now() + hop,
                        });
                    }
                }
            }
        }
        self.cursor = max_height;
        Ok(deliveries)
    }

    /// Checkpoint-resync: advances the cursor to `floor` (monotone) after
    /// a [`OracleError::Pruned`] error. Events in the skipped range are
    /// gone; subscribers recover the way they already tolerate at-most-once
    /// delivery — by re-polling state.
    pub fn resync(&mut self, floor: u64) {
        if floor > self.cursor {
            self.cursor = floor;
            self.resyncs += 1;
        }
    }

    /// How many times the cursor was resynced past a pruned range.
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }

    /// `(delivered, dropped)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.delivered, self.dropped)
    }

    /// The height up to which events have been drained.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }
}

/// **Pull-out**: an off-chain component reads contract state through the
/// oracle (resource indexing, certificate checks). Read-only, no
/// transaction.
#[derive(Debug, Clone)]
pub struct PullOutOracle {
    /// The relay's network endpoint.
    pub relay: EndpointId,
    reads: u64,
}

impl PullOutOracle {
    /// A pull-out oracle at `relay`.
    pub fn new(relay: EndpointId) -> PullOutOracle {
        PullOutOracle { relay, reads: 0 }
    }

    /// The wire size of a read request for `method`/`args` (the
    /// component → relay hop).
    pub fn request_size(method: &str, args: &[u8]) -> u64 {
        (args.len() + method.len() + 64) as u64
    }

    /// The wire size of a read response carrying `payload_len` bytes (the
    /// relay → component hop).
    pub fn response_size(payload_len: usize) -> u64 {
        payload_len as u64 + 32
    }

    /// Accounts one logical read. The driver transmits the two hops itself
    /// under its own per-hop retry policy: it counts the read once up
    /// front, then retries raw hops without inflating the counter.
    pub fn count_read(&mut self) {
        self.reads += 1;
    }

    /// Number of reads served.
    pub fn reads(&self) -> u64 {
        self.reads
    }
}

/// One pull-in poll: the topic-matching request events, the response
/// payload size a gateway would ship back, and the cursor position the
/// poll covers (committed separately via [`PullInOracle::commit_cursor`]).
pub type PullInPoll = (Vec<(u64, Rc<Event>)>, u64, u64);

/// **Pull-in**: the chain *requests* data from off-chain components — the
/// DE App opens a monitoring round and this oracle's off-chain half watches
/// for the request events, collects answers from devices, and pushes them
/// back via a [`PushInOracle`].
#[derive(Debug, Clone)]
pub struct PullInOracle {
    /// The relay's network endpoint.
    pub relay: EndpointId,
    cursor: u64,
    topic: String,
    resyncs: u64,
}

impl PullInOracle {
    /// A pull-in oracle watching for `topic` request events.
    pub fn new(relay: EndpointId, topic: impl Into<String>) -> PullInOracle {
        PullInOracle {
            relay,
            cursor: 0,
            topic: topic.into(),
            resyncs: 0,
        }
    }

    /// Collects the topic-matching request events since the last
    /// acknowledged poll; returns the events, the response payload size a
    /// gateway would ship back, and the cursor position this poll covers.
    /// The cursor is *not* advanced here — the caller commits it with
    /// [`PullInOracle::commit_cursor`] once the response hop actually
    /// arrives, so a lost response never strands events behind the cursor.
    ///
    /// # Errors
    /// [`OracleError::Pruned`] when the cursor is below the chain's prune
    /// horizon: request events in `(cursor, horizon]` were evicted before
    /// this poll saw them, so the caller must checkpoint-resync
    /// ([`PullInOracle::resync`]) instead of treating the poll as empty.
    pub fn try_collect_requests<L: Ledger>(&self, chain: &L) -> Result<PullInPoll, OracleError> {
        let fresh = chain
            .try_events_since(self.cursor)
            .map_err(OracleError::Pruned)?;
        let cursor_to = fresh.iter().map(|(h, _)| *h).max().unwrap_or(self.cursor);
        let events: Vec<(u64, Rc<Event>)> = fresh
            .iter()
            .filter(|(_, e)| e.topic == self.topic)
            .map(|(h, e)| (*h, Rc::clone(e)))
            .collect();
        let response_size: u64 = events
            .iter()
            .map(|(_, e)| e.data.len() as u64 + 64)
            .sum::<u64>()
            .max(32);
        Ok((events, response_size, cursor_to))
    }

    /// Advances the cursor to `height` (monotonic) after a poll's response
    /// hop succeeded, acknowledging everything the poll served.
    pub fn commit_cursor(&mut self, height: u64) {
        self.cursor = self.cursor.max(height);
    }

    /// Checkpoint-resync: advances the cursor to `floor` (monotone) after
    /// a [`OracleError::Pruned`] error, counted in
    /// [`PullInOracle::resyncs`]. Monitoring recovers naturally: rounds
    /// whose request events were pruned before any poll saw them are
    /// re-opened by the round scheduler, not replayed from history.
    pub fn resync(&mut self, floor: u64) {
        if floor > self.cursor {
            self.cursor = floor;
            self.resyncs += 1;
        }
    }

    /// How many times the cursor was resynced past a pruned range.
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }

    /// The watched topic.
    pub fn topic(&self) -> &str {
        &self.topic
    }

    /// The height up to which request events have been acknowledged.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duc_blockchain::{
        Blockchain, CallCtx, Contract, ContractError, ContractId, SignedTransaction,
    };
    use duc_codec::{decode_from_slice, encode_to_vec};
    use duc_sim::{LatencyModel, LinkConfig};

    struct Echo;

    impl Contract for Echo {
        fn call(
            &self,
            ctx: &mut CallCtx<'_>,
            method: &str,
            args: &[u8],
        ) -> Result<Vec<u8>, ContractError> {
            match method {
                "store" => {
                    let (v,): (u64,) = decode_from_slice(args)?;
                    ctx.set(b"v".to_vec(), &v)?;
                    ctx.emit("Stored", encode_to_vec(&(v,)))?;
                    Ok(Vec::new())
                }
                "note" => {
                    ctx.emit("Noted", args.to_vec())?;
                    Ok(Vec::new())
                }
                "load" => {
                    let v: u64 = ctx.get(b"v")?.unwrap_or(0);
                    Ok(encode_to_vec(&(v,)))
                }
                other => Err(ContractError::UnknownMethod(other.into())),
            }
        }
    }

    struct Setup {
        chain: Blockchain,
        net: NetworkModel,
        clock: Clock,
        rng: Rng,
        device: EndpointId,
        relay: EndpointId,
        key: duc_crypto::KeyPair,
    }

    fn setup(link: LinkConfig) -> Setup {
        let mut chain = Blockchain::builder()
            .validators(2)
            .block_interval(SimDuration::from_secs(2))
            .build();
        chain.deploy(ContractId::new("echo"), Box::new(Echo));
        let key = chain.create_funded_account(b"device-owner", 1_000_000_000);
        let mut net = NetworkModel::new(link);
        let device = net.add_endpoint("device");
        let relay = net.add_endpoint("oracle-relay");
        Setup {
            chain,
            net,
            clock: Clock::new(),
            rng: Rng::seed_from_u64(7),
            device,
            relay,
            key,
        }
    }

    fn fixed_link(ms: u64) -> LinkConfig {
        LinkConfig {
            latency: LatencyModel::Constant(SimDuration::from_millis(ms)),
            drop_probability: 0.0,
            bandwidth_bps: None,
        }
    }

    fn echo_tx(s: &Setup, method: &str, v: u64) -> SignedTransaction {
        s.chain.build_call(
            &s.key,
            ContractId::new("echo"),
            method,
            encode_to_vec(&(v,)),
            1_000_000,
        )
    }

    fn store_tx(s: &Setup, v: u64) -> SignedTransaction {
        echo_tx(s, "store", v)
    }

    /// One logical push-in uplink the way the driver runs it: up to
    /// `max_attempts` tries with linear backoff; the hop delay of the try
    /// that got through, `None` when every one was lost.
    fn uplink(s: &mut Setup, oracle: &mut PushInOracle, size: u64) -> Option<SimDuration> {
        (0..oracle.max_attempts).find_map(|attempt| {
            s.clock.advance(PushInOracle::backoff(attempt));
            oracle.attempt(&mut s.net, &mut s.rng, s.device, size, attempt)
        })
    }

    /// Submits a `method(v)` call directly and seals it at the next slot:
    /// `store` emits a `Stored` event, `note` a `Noted` one.
    fn call_and_seal(s: &mut Setup, method: &str, v: u64) {
        let tx = echo_tx(s, method, v);
        let id = s.chain.submit(tx).unwrap();
        let slot = s.chain.next_slot_at(s.clock.now());
        s.clock.advance_to(slot);
        s.chain.advance_to(slot);
        assert!(s.chain.receipt(&id).is_some(), "sealed at the next slot");
    }

    fn store_and_seal(s: &mut Setup, v: u64) {
        call_and_seal(s, "store", v);
    }

    #[test]
    fn push_in_submits_and_confirms() {
        let mut s = setup(fixed_link(10));
        let mut oracle = PushInOracle::new(s.relay);
        let tx = store_tx(&s, 42);
        let hop = oracle
            .attempt(
                &mut s.net,
                &mut s.rng,
                s.device,
                tx.encoded_size() as u64,
                0,
            )
            .expect("lossless link");
        assert_eq!(hop, SimDuration::from_millis(10));
        s.clock.advance(hop);
        let id = s.chain.submit(tx).unwrap();
        // Not included before the 2 s slot boundary, included at it.
        s.chain.advance_to(s.clock.now());
        assert!(s.chain.receipt(&id).is_none());
        assert_eq!(s.chain.next_slot_at(s.clock.now()), SimTime::from_secs(2));
        s.chain.advance_to(SimTime::from_secs(2));
        let receipt = s.chain.receipt(&id).expect("included");
        assert!(receipt.status.is_ok());
        assert_eq!(oracle.stats(), (1, 0));
    }

    #[test]
    fn push_in_retries_on_lossy_network() {
        let mut s = setup(LinkConfig {
            latency: LatencyModel::Constant(SimDuration::from_millis(5)),
            drop_probability: 0.6,
            bandwidth_bps: None,
        });
        let mut oracle = PushInOracle::new(s.relay);
        oracle.max_attempts = 20;
        for _ in 0..10 {
            assert!(
                uplink(&mut s, &mut oracle, 200).is_some(),
                "20 attempts beat 60% loss"
            );
        }
        let (submissions, retries) = oracle.stats();
        assert_eq!(submissions, 10, "one per logical submission");
        assert!(retries > 0, "retries occurred");
    }

    #[test]
    fn push_in_gives_up_when_partitioned() {
        let mut s = setup(fixed_link(5));
        s.net.partition(s.device, s.relay);
        let mut oracle = PushInOracle::new(s.relay);
        assert_eq!(uplink(&mut s, &mut oracle, 200), None);
        assert_eq!(oracle.stats(), (1, 2), "first try plus two retries");
        // Linear backoff before retries 1 and 2.
        assert_eq!(s.clock.now(), SimTime::ZERO + SimDuration::from_millis(300));
    }

    #[test]
    fn push_out_fans_out_to_subscribers() {
        let mut s = setup(fixed_link(10));
        let d2 = s.net.add_endpoint("device-2");
        let mut push_out = PushOutOracle::new(s.relay);
        push_out.subscribe("Stored", s.device);
        push_out.subscribe("Stored", d2);
        push_out.subscribe("OtherTopic", s.device);
        store_and_seal(&mut s, 9);

        let deliveries = push_out.drain(&s.chain, &mut s.net, &s.clock, &mut s.rng);
        assert_eq!(deliveries.len(), 2, "one per matching subscriber");
        for d in &deliveries {
            assert_eq!(d.event.topic, "Stored");
            assert_eq!(d.arrives_at, s.clock.now() + SimDuration::from_millis(10));
        }
        // A second drain yields nothing (cursor advanced).
        assert!(push_out
            .drain(&s.chain, &mut s.net, &s.clock, &mut s.rng)
            .is_empty());
        assert_eq!(push_out.stats(), (2, 0));
    }

    /// Reference model of the subscription table: the flat row list the
    /// oracle used to keep — global insertion order, scanned and
    /// string-compared per event — with first-occurrence dedupe.
    #[derive(Default)]
    struct Rows(Vec<(String, EndpointId)>);

    impl Rows {
        fn subscribe(&mut self, topic: &str, to: EndpointId) {
            if !self.0.iter().any(|(t, r)| t == topic && *r == to) {
                self.0.push((topic.to_string(), to));
            }
        }

        /// The row scan over the events past `cursor`: the deliveries and
        /// how many transmissions the network dropped.
        fn drain(
            &self,
            s: &Setup,
            cursor: u64,
            net: &mut NetworkModel,
            rng: &mut Rng,
        ) -> (Vec<OutboundDelivery>, u64) {
            let (mut deliveries, mut dropped) = (Vec::new(), 0);
            for (height, event) in s.chain.try_events_since(cursor).unwrap() {
                for (_, to) in self.0.iter().filter(|(t, _)| *t == event.topic) {
                    let size = event.data.len() as u64 + 64;
                    match net.transmit(s.relay, *to, size, rng).delay() {
                        None => dropped += 1,
                        Some(hop) => deliveries.push(OutboundDelivery {
                            event: Rc::clone(event),
                            height: *height,
                            recipient: *to,
                            arrives_at: s.clock.now() + hop,
                        }),
                    }
                }
            }
            (deliveries, dropped)
        }
    }

    /// A lossy link with jitter: every transmission draws from the RNG, so
    /// one transmission more or less shows in everything after it.
    fn jittery_link() -> LinkConfig {
        LinkConfig {
            latency: LatencyModel::Uniform(
                SimDuration::from_millis(5),
                SimDuration::from_millis(50),
            ),
            drop_probability: 0.2,
            bandwidth_bps: None,
        }
    }

    #[test]
    fn subscribe_is_idempotent_and_keeps_first_seen_order() {
        let mut s = setup(fixed_link(10));
        let endpoints: Vec<EndpointId> = (0..4)
            .map(|i| s.net.add_endpoint(format!("device-{i}")))
            .collect();
        let mut push_out = PushOutOracle::new(s.relay);
        for round in 0..50 {
            // Later rounds repeat the pairs in another order.
            for i in 0..4 {
                push_out.subscribe("Stored", endpoints[(i + round) % 4]);
            }
        }
        assert_eq!(push_out.subscriptions(), 4);
        store_and_seal(&mut s, 1);
        let deliveries = push_out.drain(&s.chain, &mut s.net, &s.clock, &mut s.rng);
        let recipients: Vec<EndpointId> = deliveries.iter().map(|d| d.recipient).collect();
        assert_eq!(recipients, endpoints, "once each, in first-seen order");
        assert_eq!(push_out.stats(), (4, 0));
    }

    /// With no pair subscribed twice the topic index is the old row scan
    /// exactly: same deliveries in the same order with the same arrival
    /// times, and the same number of draws taken from the RNG.
    #[test]
    fn fan_out_without_duplicates_matches_the_row_scan() {
        let mut s = setup(jittery_link());
        let endpoints: Vec<EndpointId> = (0..12)
            .map(|i| s.net.add_endpoint(format!("device-{i}")))
            .collect();
        let mut push_out = PushOutOracle::new(s.relay);
        let mut rows = Rows::default();
        // Topics interleave in the global order; some endpoints take both.
        for (i, ep) in endpoints.iter().enumerate() {
            let topics: &[&str] = match i % 3 {
                0 => &["Stored"],
                1 => &["Noted"],
                _ => &["Noted", "Stored"],
            };
            for topic in topics {
                push_out.subscribe(*topic, *ep);
                rows.0.push((topic.to_string(), *ep));
            }
        }
        assert_eq!(push_out.subscriptions(), rows.0.len());
        for v in 0..6 {
            call_and_seal(&mut s, ["store", "note"][v as usize % 2], v);
        }
        let (mut net, mut rng) = (s.net.clone(), s.rng.clone());
        let (expected, dropped) = rows.drain(&s, 0, &mut net, &mut rng);
        let deliveries = push_out.drain(&s.chain, &mut s.net, &s.clock, &mut s.rng);
        assert!(dropped > 0 && expected.len() > 20, "the link is exercised");
        assert_eq!(deliveries, expected);
        assert_eq!(push_out.stats(), (expected.len() as u64, dropped));
        assert_eq!(s.rng, rng, "same RNG consumption");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Random subscribe / emit / drain sequences against the reference
        /// rows: same recipients, same order, same counters.
        #[test]
        fn push_out_matches_the_ordered_set_model(
            ops in proptest::collection::vec((0u8..7, 0usize..2, 0usize..5), 1..48),
        ) {
            use proptest::prelude::*;
            let mut s = setup(jittery_link());
            let endpoints: Vec<EndpointId> = (0..5)
                .map(|i| s.net.add_endpoint(format!("device-{i}")))
                .collect();
            let mut push_out = PushOutOracle::new(s.relay);
            let mut rows = Rows::default();
            let (mut delivered, mut dropped) = (0u64, 0u64);
            for (step, (op, topic, ep)) in ops.into_iter().enumerate() {
                let (method, name) = [("store", "Stored"), ("note", "Noted")][topic];
                let ep = endpoints[ep];
                match op {
                    0..=3 => {
                        push_out.subscribe(name, ep);
                        rows.subscribe(name, ep);
                    }
                    4 | 5 => call_and_seal(&mut s, method, step as u64),
                    _ => {
                        let (mut net, mut rng) = (s.net.clone(), s.rng.clone());
                        let (expected, lost) =
                            rows.drain(&s, push_out.cursor(), &mut net, &mut rng);
                        let got = push_out.drain(&s.chain, &mut s.net, &s.clock, &mut s.rng);
                        prop_assert_eq!(&got, &expected);
                        prop_assert_eq!(&s.rng, &rng);
                        delivered += expected.len() as u64;
                        dropped += lost;
                    }
                }
                prop_assert_eq!(push_out.subscriptions(), rows.0.len());
            }
            prop_assert_eq!(push_out.stats(), (delivered, dropped));
        }
    }

    #[test]
    fn pull_out_reads_state_with_latency() {
        let mut s = setup(fixed_link(25));
        store_and_seal(&mut s, 7);
        // A read is one counted request hop, the view call at the relay,
        // and one response hop sized by the result.
        let mut pull_out = PullOutOracle::new(s.relay);
        pull_out.count_read();
        let request = PullOutOracle::request_size("load", &[]);
        let there = s.net.transmit(s.device, s.relay, request, &mut s.rng);
        let out = s
            .chain
            .call_view(&ContractId::new("echo"), "load", &[])
            .expect("view ok");
        let (v,): (u64,) = decode_from_slice(&out).unwrap();
        assert_eq!(v, 7);
        let response = PullOutOracle::response_size(out.len());
        let back = s.net.transmit(s.relay, s.device, response, &mut s.rng);
        assert_eq!(
            there.delay().unwrap() + back.delay().unwrap(),
            SimDuration::from_millis(50),
            "two 25 ms hops"
        );
        assert!(request > 64 && response > out.len() as u64);
        assert_eq!(pull_out.reads(), 1);
    }

    #[test]
    fn pull_in_lost_response_does_not_strand_events() {
        let mut s = setup(fixed_link(5));
        let mut pull_in = PullInOracle::new(s.relay, "Stored");
        store_and_seal(&mut s, 11);
        // The gateway collected the events, but its response hop was lost:
        // nothing was committed, so the retry serves the same events.
        let (events, _, _) = pull_in.try_collect_requests(&s.chain).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(pull_in.cursor(), 0);
        let (events, _, cursor_to) = pull_in.try_collect_requests(&s.chain).unwrap();
        assert_eq!(events.len(), 1, "events survive a lost response hop");
        // The response arrived: acknowledge.
        pull_in.commit_cursor(cursor_to);
        assert_eq!(pull_in.cursor(), s.chain.height());
    }

    #[test]
    fn pull_in_polls_request_events() {
        let mut s = setup(fixed_link(5));
        let mut pull_in = PullInOracle::new(s.relay, "Stored");
        // Nothing yet: an empty poll still ships a minimal response.
        let (events, response_size, cursor_to) = pull_in.try_collect_requests(&s.chain).unwrap();
        assert!(events.is_empty());
        assert_eq!((response_size, cursor_to), (32, 0));
        store_and_seal(&mut s, 3);
        let (events, response_size, cursor_to) = pull_in.try_collect_requests(&s.chain).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(response_size, events[0].1.data.len() as u64 + 64);
        assert_eq!(pull_in.topic(), "Stored");
        // Cursor committed: re-poll is empty.
        pull_in.commit_cursor(cursor_to);
        let (events, _, _) = pull_in.try_collect_requests(&s.chain).unwrap();
        assert!(events.is_empty());
        // Events on other topics advance the cursor without being served.
        let other = PullInOracle::new(s.relay, "OtherTopic");
        let (events, _, cursor_to) = other.try_collect_requests(&s.chain).unwrap();
        assert!(events.is_empty());
        assert_eq!(cursor_to, s.chain.height());
    }

    /// A chain aggressively pruning behind per-block checkpoints, with
    /// enough sealed blocks that a genesis cursor is below the horizon.
    fn pruning_setup() -> Setup {
        let mut s = setup(fixed_link(10));
        let mut chain = Blockchain::builder()
            .validators(2)
            .block_interval(SimDuration::from_secs(2))
            .storage(duc_blockchain::StorageConfig::enabled(1, 1))
            .build();
        chain.deploy(ContractId::new("echo"), Box::new(Echo));
        s.key = chain.create_funded_account(b"device-owner", 1_000_000_000);
        for i in 1..=6u64 {
            let tx = chain.build_call(
                &s.key,
                ContractId::new("echo"),
                "store",
                encode_to_vec(&(i,)),
                1_000_000,
            );
            chain.submit(tx).unwrap();
            chain.advance_to(SimTime::from_secs(2 * i));
        }
        assert!(chain.prune_horizon() > 0, "setup actually pruned");
        s.chain = chain;
        s
    }

    #[test]
    fn push_out_stale_cursor_is_typed_and_resyncs() {
        let mut s = pruning_setup();
        let mut oracle = PushOutOracle::new(s.relay);
        oracle.subscribe("Stored", s.device);
        let horizon = s.chain.prune_horizon();
        // try_drain surfaces the pruned range instead of silently serving
        // only the resident tail.
        let err = oracle
            .try_drain(&s.chain, &mut s.net, &s.clock, &mut s.rng)
            .unwrap_err();
        match err {
            OracleError::Pruned(e) => {
                assert_eq!(e.requested, 0);
                assert_eq!(e.horizon, horizon);
                assert!(!err.is_transient(), "resync, not blind retry");
            }
            other => panic!("expected Pruned, got {other:?}"),
        }
        // Explicit resync, then the drain serves the resident tail.
        oracle.resync(horizon);
        assert_eq!(oracle.resyncs(), 1);
        let deliveries = oracle
            .try_drain(&s.chain, &mut s.net, &s.clock, &mut s.rng)
            .expect("cursor at horizon");
        assert!(!deliveries.is_empty());
        assert!(deliveries.iter().all(|d| d.height > horizon));
        // `drain` recovers on its own (auto-resync).
        let mut auto = PushOutOracle::new(s.relay);
        auto.subscribe("Stored", s.device);
        let deliveries = auto.drain(&s.chain, &mut s.net, &s.clock, &mut s.rng);
        assert!(!deliveries.is_empty());
        assert_eq!(auto.resyncs(), 1);
    }

    #[test]
    fn pull_in_stale_cursor_is_typed_and_resyncs() {
        let s = pruning_setup();
        let mut pull_in = PullInOracle::new(s.relay, "Stored");
        let horizon = s.chain.prune_horizon();
        let err = pull_in.try_collect_requests(&s.chain).unwrap_err();
        assert!(matches!(err, OracleError::Pruned(e) if e.horizon == horizon));
        pull_in.resync(horizon);
        assert_eq!(pull_in.resyncs(), 1);
        let (events, _, cursor_to) = pull_in
            .try_collect_requests(&s.chain)
            .expect("cursor at horizon");
        assert!(events.iter().all(|(h, _)| *h > horizon));
        pull_in.commit_cursor(cursor_to);
        assert_eq!(pull_in.cursor(), s.chain.height());
        // A resync never rewinds an up-to-date cursor.
        pull_in.resync(horizon);
        assert_eq!(pull_in.cursor(), s.chain.height());
        assert_eq!(pull_in.resyncs(), 1);
    }
}
