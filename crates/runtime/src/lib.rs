//! # duc-runtime — the wall-clock runtime for the usage-control architecture
//!
//! The reproduction's state machines (driver flows, obligation sweeps,
//! block production) run on the world's deterministic discrete-event
//! scheduler; a scripted deterministic run is that scheduler's own loop
//! (`duc_core::run_scripted`). This crate lets the *same* machines run on
//! real time:
//!
//! - [`WallClock`] — logical `now()` on real time (optionally
//!   compressed) and a `Mutex` + `Condvar` inbox that [`WallHandle`]s
//!   inject commands into from producer threads. It keeps no timers and
//!   no thread: the workload's own scheduler is the one timer queue.
//! - [`drive()`] — the pacing loop that runs a [`Workload`] on a
//!   [`WallClock`]: it admits scripted and injected commands, paces the
//!   workload, exports on a grid skipping missed points, and sleeps until
//!   the next instant it needs or the next injection; graceful-shutdown
//!   draining ([`ShutdownSignal`], bounded drain deadline).
//! - [`render`] — Prometheus text exposition of a
//!   [`duc_sim::MetricsRegistry`], the one metric store of both modes;
//!   the drive loop's exports overwrite a [`MetricsPage`] with it and
//!   [`MetricsServer`] serves that page (`GET /metrics` over
//!   `std::net::TcpListener`). This crate keeps no metric values.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod drive;
pub mod http;
pub mod metrics;
pub mod wall;

pub use drive::{drive, DriveConfig, DriveReport, ShutdownSignal, Workload};
pub use http::{MetricsPage, MetricsServer};
pub use metrics::render;
pub use wall::{WallClock, WallHandle};
