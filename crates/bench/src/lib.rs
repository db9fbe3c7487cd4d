//! # duc-bench — the experiment harness
//!
//! One function per experiment, in two registries
//! ([`experiments`]). E1–E12 and E14 ([`paper`]) are pinned: seeded, with no
//! population cap and no host clock, so [`json::pinned_document`] renders
//! them to the committed `BENCH_seed.json`, and the crate's `bench_seed`
//! test fails when it no longer reproduces that file. E15–E19 ([`probes`])
//! read the host or a population cap; the `report` binary prints them:
//!
//! ```sh
//! cargo run -p duc-bench --bin report --release -- e5 e6
//! cargo run -p duc-bench --bin report --release -- --max-owners 1000 e15 e16
//! ```
//!
//! Timed micro-benchmarks and the end-to-end workloads are the standalone
//! `benchmark/` package (`benchmark/run.sh`), not this crate.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod experiments;
pub mod json;
pub mod paper;
pub mod probes;
pub mod rss;
pub mod table;
