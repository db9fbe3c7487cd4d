//! # duc-contracts — the DistExchange application (DE App)
//!
//! The on-chain half of the architecture (paper §III-B): smart contracts
//! that (i) record where pods and resources live, (ii) publish the usage
//! policies that govern them, and (iii) monitor compliance. Deployed on the
//! [`duc_blockchain`] substrate.
//!
//! Two contracts:
//!
//! * [`DistExchange`] — pod registry, resource index, policy store, copy
//!   tracking and monitoring rounds. Its events (`PolicyUpdated`,
//!   `MonitoringRequested`, …) are what the push-out and pull-in oracles
//!   subscribe to.
//! * (inside the same contract) the **market**: subscription fees paid in
//!   native tokens, payment certificates that pod managers verify before
//!   serving data (paper §II: "a certificate proving she has paid the
//!   market fee").
//!
//! Every method is one row of the call table in [`calls`]: its name, its
//! argument struct and its return type, declared once. The contract
//! decodes a call into a [`DexCall`] and dispatches on it; [`routing`]
//! routes it by [`DexCall::route_key`]; [`access`] declares its state
//! footprint so the parallel block executor can schedule non-conflicting
//! calls concurrently; and [`client`] builds any call as a transaction
//! (`call_tx`) or runs it as a typed read (`view`), so callers never touch
//! raw bytes. The records the views return live in [`abi`], and everything
//! is encoded with [`duc_codec`].
//!
//! Every event is one row of the event table in [`events`], beside the
//! call table: its topic, its [`topics`] constant and its payload struct,
//! declared once. The contract emits the payload struct, and every reader
//! matches on the decoded [`DexEvent`].

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod abi;
pub mod access;
pub mod calls;
pub mod client;
pub mod dist_exchange;
pub mod events;
mod layout;
pub mod routing;
pub mod rows;

pub use abi::{
    CopyRecord, EvidenceReaffirmation, EvidenceSubmission, MonitoringRound, PodRecord,
    PolicyEnvelope, ResourceRecord, Subscription,
};
pub use access::{dex_access, dex_access_fn};
pub use calls::{DexCall, DexMethod};
pub use client::DistExchangeClient;
pub use dist_exchange::{DistExchange, DEX_CONTRACT_ID};
pub use events::{topics, DexEvent};
pub use rows::{Answer, AnswerRow, CopyRow, PodRow, ResourceRow, RoundRow, SubRow};
