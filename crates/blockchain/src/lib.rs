//! # duc-blockchain — the distributed-ledger substrate
//!
//! The paper stores resource locations and usage policies on a blockchain
//! and runs the DistExchange application as smart contracts (§III-B). This
//! crate is that substrate, built from scratch:
//!
//! * [`types`] — addresses, amounts, identifiers.
//! * [`tx`] — signed transactions and execution receipts.
//! * [`gas`] — deterministic gas metering (the affordability experiments
//!   E7/E9 read their numbers from here).
//! * [`state`] — the world state: accounts plus per-contract key/value
//!   storage, with a commitment digest.
//! * [`contract`] — the contract runtime: a [`contract::Contract`] trait
//!   dispatched by method name over [`duc_codec`]-encoded arguments, with a
//!   [`contract::CallCtx`] exposing storage, events, caller identity and
//!   block metadata.
//! * [`exec`] — the parallel block scheduler: access-set conflict
//!   levelling plus a seeded work-stealing pool, driving the same
//!   execute → commit → emit pipeline as the serial scheduler
//!   (byte-identical outputs).
//! * [`block`] — Merkle-committed blocks signed by their proposer.
//! * [`chain`] — a proof-of-authority chain: round-robin validator
//!   committee, mempool, block production clocked by the simulation, each
//!   sealed block's receipts stored once beside it (oracle subscriptions
//!   read events from them), and crash-fault injection for the robustness
//!   experiments (E8).
//! * [`ledger`] — the pluggable [`Ledger`] abstraction the rest of the
//!   stack consumes: [`Blockchain`] (the chain above) and
//!   [`ShardedLedger`] (N chains, deterministic routing, a merged event
//!   view over the shards' blocks; experiment E13).
//!
//! ## Consensus model
//!
//! Validators take turns proposing blocks at a fixed interval. A proposer
//! that is crashed (fault injection) misses its slot and the chain produces
//! no block until the next live proposer — mirroring the liveness behaviour
//! of real PoA networks under crash faults, which is what E8 measures.
//! Byzantine behaviour beyond crash faults is out of scope, as it is for
//! the paper.
//!
//! ## Example
//! ```
//! use duc_blockchain::prelude::*;
//! use duc_sim::SimTime;
//!
//! let mut chain = Blockchain::builder()
//!     .validators(4)
//!     .block_interval(duc_sim::SimDuration::from_secs(2))
//!     .build();
//! let alice = chain.create_funded_account(b"alice", 1_000_000);
//! let tx = Transaction {
//!     from: Address::from_public_key(&alice.public()),
//!     nonce: 0,
//!     kind: duc_blockchain::tx::TxKind::Transfer {
//!         to: Address::from_seed(b"bob"),
//!         amount: 500,
//!     },
//!     gas_limit: 30_000,
//! }
//! .sign(&alice);
//! chain.submit(tx).expect("valid tx");
//! chain.advance_to(SimTime::from_secs(2));
//! assert_eq!(chain.height(), 1);
//! assert_eq!(chain.balance(&Address::from_seed(b"bob")), 500);
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod block;
pub mod chain;
pub mod contract;
pub mod exec;
pub mod gas;
pub mod ledger;
mod mempool;
pub mod state;
pub mod tx;
pub mod types;

pub use block::{Block, BlockHeader};
pub use chain::{Blockchain, BlockchainBuilder, SubmitError};
pub use contract::{CallCtx, Contract, ContractError, Event};
pub use exec::{AccessFn, AccessKey, AccessParams, AccessSet, AccessSummary, ExecMode};
pub use gas::{GasMeter, GasSchedule, OutOfGas};
pub use ledger::{Events, Ledger, RouteKey, RouterFn, ShardedLedger};
pub use state::{PagingStats, WorldState};
pub use tx::{Receipt, SignedTransaction, Transaction, TxStatus};
pub use types::{Address, Amount, ContractId, TxId};

// Storage-layer types the chain API surfaces (checkpointing, pruning and
// world-state paging).
pub use duc_storage::{Checkpoint, PagingConfig, PrunedRange, StorageConfig};

/// Common imports.
pub mod prelude {
    pub use crate::block::{Block, BlockHeader};
    pub use crate::chain::{Blockchain, BlockchainBuilder, SubmitError};
    pub use crate::contract::{CallCtx, Contract, ContractError, Event};
    pub use crate::exec::{AccessFn, AccessKey, AccessParams, AccessSet, AccessSummary, ExecMode};
    pub use crate::gas::{GasMeter, GasSchedule};
    pub use crate::ledger::{Events, Ledger, RouteKey, RouterFn, ShardedLedger};
    pub use crate::state::WorldState;
    pub use crate::tx::{Receipt, SignedTransaction, Transaction, TxStatus};
    pub use crate::types::{Address, Amount, ContractId, TxId};
    pub use duc_storage::{Checkpoint, PrunedRange, StorageConfig};
}
