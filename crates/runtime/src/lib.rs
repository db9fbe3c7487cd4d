//! # duc-runtime — execution runtime for the usage-control architecture
//!
//! The reproduction's state machines (driver flows, obligation sweeps,
//! block production) were born on a deterministic discrete-event
//! scheduler. This crate lets the *same* machines run on real time:
//!
//! - [`Clock`] — the timer abstraction both modes implement: `now()`,
//!   one-shot and genesis-anchored periodic timers, cancellation and
//!   re-arm, delivered as payload-carrying [`Wakeup`]s from `wait()`.
//! - [`SimClock`] — deterministic implementation over
//!   [`duc_sim::Scheduler`]; `wait()` hops logical time from due instant
//!   to due instant exactly like the classic `next_event_at` loop.
//! - [`WallClock`] — std-only real-time implementation: a dedicated timer
//!   thread over a `BinaryHeap` + `Condvar::wait_timeout`, skip-missed
//!   periodic ticks, optional time compression, [`WallHandle`] injection
//!   from producer threads, and a drop that joins the thread.
//! - [`drive()`] — the clock-generic pacing loop with graceful-shutdown
//!   draining ([`ShutdownSignal`], bounded drain deadline).
//! - [`render`] — Prometheus text exposition of a
//!   [`duc_sim::MetricsRegistry`], the one metric store of both modes;
//!   the drive loop's exports overwrite a [`MetricsPage`] with it and
//!   [`MetricsServer`] serves that page (`GET /metrics` over
//!   `std::net::TcpListener`). This crate keeps no metric values.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod drive;
pub mod http;
pub mod metrics;
pub mod wall;

pub use clock::{Clock, SimClock, TimerId, Wakeup};
pub use drive::{drive, DriveConfig, DriveReport, ShutdownSignal, Tick, Workload};
pub use http::{MetricsPage, MetricsServer};
pub use metrics::{prom_name, render, BUCKET_BOUNDS_SECONDS};
pub use wall::{WallClock, WallHandle};
