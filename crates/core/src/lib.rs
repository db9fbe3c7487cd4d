//! # duc-core — the decentralized usage-control architecture
//!
//! This crate assembles every substrate into the architecture of the paper
//! (Fig. 1) and implements its six processes (Fig. 2):
//!
//! 1. **Pod initiation** — [`World::pod_initiation`]
//! 2. **Resource initiation** — [`World::resource_initiation`]
//! 3. **Resource indexing** — [`World::resource_indexing`]
//! 4. **Resource access** — [`World::resource_access`]
//! 5. **Policy modification** — [`World::policy_modification`]
//! 6. **Policy monitoring** — [`World::policy_monitoring`]
//!
//! A [`World`] is one simulated deployment: a ledger with the
//! DistExchange app, oracles in all four pattern quadrants, pod managers
//! for each data owner and TEE devices for each consumer, all wired over a
//! deterministic network model. Every process records end-to-end and
//! per-hop latencies plus gas into a [`duc_sim::MetricsRegistry`], which is
//! what the benchmark harness reports.
//!
//! The world is generic over its [`duc_blockchain::Ledger`] backend:
//! [`World::new`] runs the legacy single PoA chain, while
//! [`World::new_sharded`] runs the same deployment over a
//! [`duc_blockchain::ShardedLedger`] — N chains with deterministic
//! owner/contract routing, so concurrent requests from disjoint owners no
//! longer serialize through one mempool (experiment E13).
//!
//! The one-shot methods above are wrappers over the **non-blocking driver
//! API** ([`driver`]): [`World::submit`] enqueues a typed [`Request`] and
//! returns a [`Ticket`]; [`World::run_until_idle`] interleaves every
//! in-flight process hop-by-hop on the simulation scheduler; outcomes
//! surface via [`Ticket::poll`] / [`World::drain_events`]. Each process is
//! one state machine stepped in place (`fn step(&mut self, &mut World)`,
//! one stored value per request); [`driver`]'s module docs say how to
//! write one, and own the result types ([`ProcessError`],
//! [`AccessOutcome`], [`PropagationOutcome`], [`MonitoringOutcome`])
//! re-exported here.
//!
//! ## Example
//! ```
//! use duc_core::prelude::*;
//!
//! let mut world = World::new(WorldConfig::default());
//! world.add_owner("https://bob.id/me", "https://bob.pod/");
//! world.pod_initiation("https://bob.id/me")?;
//! # Ok::<(), duc_core::ProcessError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod baseline;
pub mod chaos;
pub mod driver;
pub mod process;
pub mod runtime;
pub mod scenario;
pub mod world;

pub use driver::{
    AccessOutcome, MonitoringOutcome, Outcome, ProcessError, PropagationOutcome, Request, Ticket,
};
pub use runtime::{market_world, outcome_key, outcome_set, run_scripted, run_wall, RuntimeRun};
pub use world::{EnforcementMode, World, WorldConfig};

/// Common imports.
pub mod prelude {
    pub use crate::baseline::{self, CentralizedAuditBaseline, PlainSolidBaseline};
    pub use crate::chaos;
    pub use crate::driver::{
        AccessOutcome, MonitoringOutcome, Outcome, ProcessError, PropagationOutcome, Request,
        Ticket,
    };
    pub use crate::runtime::{outcome_set, run_scripted, run_wall, RuntimeRun};
    pub use crate::scenario;
    pub use crate::world::{EnforcementMode, World, WorldConfig};
    pub use duc_policy::prelude::*;
    pub use duc_runtime::{DriveConfig, MetricsPage, MetricsServer, ShutdownSignal};
    pub use duc_sim::{SimDuration, SimTime};
}
