//! # duc-bench — the experiment harness
//!
//! One function per experiment of EXPERIMENTS.md (E1–E19). Each builds a
//! fresh deterministic [`duc_core::World`], drives a workload, and returns
//! printable rows; the `report` binary renders them as the tables in
//! EXPERIMENTS.md:
//!
//! ```sh
//! cargo run -p duc-bench --bin report --release -- all
//! cargo run -p duc-bench --bin report --release -- e5 e6
//! ```
//!
//! Timed micro-benchmarks and the end-to-end workloads are the standalone
//! `benchmark/` package (`benchmark/run.sh`), not this crate.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod experiments;
pub mod rss;
pub mod table;

pub use experiments::*;
pub use table::Table;
