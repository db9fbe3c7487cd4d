//! # duc-sim — deterministic simulation kernel
//!
//! Every experiment in this workspace runs on a *deterministic* substrate:
//! a logical clock, a seeded pseudo-random number generator, a discrete-event
//! scheduler, a configurable network latency/fault model and the
//! workspace's one metrics registry ([`MetricsRegistry`]: counters, gauges
//! and exact-sample histograms, optionally labelled, iterated in
//! deterministic order). Nothing in the simulation reads wall-clock time or
//! OS entropy, so a run is a pure function of its seed and parameters.
//!
//! The paper (Basile et al., ICDCS 2023) defers performance, scalability and
//! robustness evaluation to future work; this crate is the measurement bed on
//! which the sibling crates carry that evaluation out.
//!
//! ## Example
//!
//! ```
//! use duc_sim::{Clock, SimDuration, Rng};
//!
//! let clock = Clock::new();
//! clock.advance(SimDuration::from_millis(5));
//! let mut rng = Rng::seed_from_u64(42);
//! let sample = rng.next_u64();
//! assert_eq!(clock.now().as_millis(), 5);
//! // Deterministic: the same seed always yields the same stream.
//! assert_eq!(Rng::seed_from_u64(42).next_u64(), sample);
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod clock;
pub mod fault;
pub mod metrics;
pub mod net;
pub mod rng;
pub mod sched;

pub use clock::{Clock, SimDuration, SimTime};
pub use fault::{FaultPlan, FaultSpec};
pub use metrics::{Counter, Family, Histogram, Labels, MetricsRegistry, TraceEvent, TraceRecorder};
pub use net::{EndpointId, LatencyModel, LinkConfig, NetworkModel};
pub use rng::{zipf_weights, Rng};
pub use sched::{EventId, Scheduler};
