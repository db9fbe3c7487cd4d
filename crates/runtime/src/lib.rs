//! # duc-runtime — the wall-clock runtime for the usage-control architecture
//!
//! The reproduction's state machines (driver flows, obligation sweeps,
//! block production) run on the world's deterministic discrete-event
//! scheduler; a scripted deterministic run is that scheduler's own loop
//! (`duc_core::run_scripted`). This crate lets the *same* machines run on
//! real time:
//!
//! - [`WallClock`] — std-only real-time timers: `now()`, one-shot and
//!   genesis-anchored periodic timers, cancellation and re-arm, delivered
//!   as payload-carrying [`Wakeup`]s from `wait()`. A dedicated timer
//!   thread sleeps over a `BinaryHeap` + `Condvar::wait_timeout`, periodic
//!   ticks skip missed grid points, time may be compressed, [`WallHandle`]s
//!   inject from producer threads, and a drop joins the thread.
//! - [`drive()`] — the pacing loop that runs a [`Workload`] on a
//!   [`WallClock`], with graceful-shutdown draining ([`ShutdownSignal`],
//!   bounded drain deadline).
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

pub use drive::{drive, DriveConfig, DriveReport, ShutdownSignal, Tick, Workload};
pub use http::{MetricsPage, MetricsServer};
pub use metrics::render;
pub use wall::{TimerId, Wakeup, WallClock, WallHandle};
