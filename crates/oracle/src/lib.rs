//! # duc-oracle — blockchain oracles
//!
//! Blockchains are closed worlds; oracles connect them to the outside
//! (paper §III-D, and the authors' own oracle-pattern taxonomy [Basile et
//! al., BPM 2021]). Four patterns, by flow direction × data operation:
//!
//! | | **push** (initiator sends) | **pull** (initiator asks) |
//! |---|---|---|
//! | **in** (off-chain → chain) | [`PushInOracle`] — pod manager submits state-changing transactions | [`PullInOracle`] — the chain requests data from devices (monitoring evidence) |
//! | **out** (chain → off-chain) | [`PushOutOracle`] — contract events fanned out to subscribed devices | [`PullOutOracle`] — off-chain components read contract state (resource indexing) |
//!
//! Every hop is priced by the [`duc_sim::NetworkModel`], so oracle traffic
//! shows up in the latency experiments; submission retries and delivery
//! drops feed the robustness experiment (E8).
//!
//! The oracles are non-blocking: they hold what is per-pattern — relay
//! endpoint, event cursor, subscriptions, wire sizes, counters — and the
//! caller (the `duc-core` driver) owns the timeline and the retry policy.
//!
//! * push-in: [`PushInOracle::attempt`] is one uplink try; confirmation
//!   is the caller's wait on the ledger's receipt probe
//!   (`Ledger::receipt`), bounded by
//!   [`OracleError::InclusionTimeout`].
//! * push-out: [`PushOutOracle::try_drain`] computes the deliveries of the
//!   events past the cursor; [`PushOutOracle::drain`] also resyncs a
//!   cursor that fell below the prune horizon. A subscription is a set
//!   member, not a multiset entry: [`PushOutOracle::subscribe`] is
//!   idempotent, and each event goes once to each distinct subscriber of
//!   its topic, in first-subscribed order.
//! * pull-out: [`PullOutOracle::request_size`] /
//!   [`PullOutOracle::response_size`] size the two hops around a view call.
//! * pull-in: [`PullInOracle::try_collect_requests`] serves a poll,
//!   [`PullInOracle::commit_cursor`] acknowledges it once the response hop
//!   arrived.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod patterns;

pub use patterns::{
    HopKind, OracleError, OutboundDelivery, PullInOracle, PullOutOracle, PushInOracle,
    PushOutOracle,
};
