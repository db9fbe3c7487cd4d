//! # duc-benchmark — the repository benchmark
//!
//! Five closed-loop workloads over the usage-control stack, measured from
//! outside through public API only: nine end-to-end figures per workload
//! (host throughput and batch time, simulated throughput and latency, gas,
//! failures, set-up time, peak memory) plus per-layer figures — unit costs
//! of each crate's hot functions, per-phase wall time, exact counts — and
//! a traced run that attributes the window to harness→library calls.
//!
//! See `README.md` for the metric glossary and how to compare commits.

pub mod alloc;
pub mod calib;
pub mod harness;
pub mod metrics;
pub mod schedule;
pub mod stats;
pub mod trace;
pub mod unit;
pub mod workloads;

use trace::Tracer;
use workloads::ingest::IngestSizes;
use workloads::lifecycle::LifecycleSizes;
use workloads::waves::WaveSizes;
use workloads::{CheckFailed, Measured};

/// The five workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 10³ owners and devices, index + access waves, nothing paged.
    MarketAccess,
    /// The same traffic with a 16-page state cache and pruning on.
    PagedAccess,
    /// The same traffic at 10⁴ owners and devices.
    Market10k,
    /// A bare ledger: 256 DE App transactions per block, reads beside.
    ChainIngest,
    /// All six lifecycle stages per round on a small market.
    LifecycleMix,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 5] = [
        Workload::MarketAccess,
        Workload::PagedAccess,
        Workload::Market10k,
        Workload::ChainIngest,
        Workload::LifecycleMix,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MarketAccess => "market_access",
            Workload::PagedAccess => "paged_access",
            Workload::Market10k => "market_10k",
            Workload::ChainIngest => "chain_ingest",
            Workload::LifecycleMix => "lifecycle_mix",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line; echoed into `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::MarketAccess => {
                "the paper's dominant traffic (index, then access) through the whole pipeline at \
                 1000 owners; storage and paging idle"
            }
            Workload::PagedAccess => {
                "the same traffic with the working set far above a 16-page state cache and \
                 pruning on, so state paging and duc-storage do most of the work"
            }
            Workload::Market10k => {
                "the same traffic at 10000 owners, where set-up time, peak memory and \
                 O(population) paths show"
            }
            Workload::ChainIngest => {
                "a bare ledger at 256 DE App transactions per block with views, receipts and \
                 event polls beside; isolates crypto, blockchain, contracts and codec"
            }
            Workload::LifecycleMix => {
                "publish, index, access, policy change and monitoring per round with deadline \
                 enforcement; policy, tee, oracles and the obligation scheduler do the work"
            }
        }
    }

    /// The workload's sizes for a window of about `seconds` per repeat on
    /// the 2-core reference machine. Only wave, block and round counts
    /// scale; populations never do.
    pub fn sizes(self, seconds: f64) -> Job {
        // Counts at `REFERENCE_SECONDS`, the issue's default run: 400
        // waves, 150 paged waves, 400 blocks, 40 rounds — and 300 waves at
        // 10⁴ owners, three times the issue's 100: a quarter of that
        // window is kernel time, which `/proc` reports in 10 ms ticks, and
        // a 1 s window is too short to subtract it from (see
        // `Window::close`).
        let scaled = |at_reference: usize| {
            ((at_reference as f64 * seconds / REFERENCE_SECONDS).round() as usize).max(1)
        };
        match self {
            Workload::MarketAccess => Job::Waves(WaveSizes {
                owners: 1_000,
                devices: 1_000,
                waves: scaled(400),
                width: 128,
                paged: false,
            }),
            Workload::PagedAccess => Job::Waves(WaveSizes {
                owners: 1_000,
                devices: 1_000,
                waves: scaled(150),
                width: 128,
                paged: true,
            }),
            Workload::Market10k => Job::Waves(WaveSizes {
                owners: 10_000,
                devices: 10_000,
                waves: scaled(300),
                width: 128,
                paged: false,
            }),
            Workload::ChainIngest => Job::Ingest(IngestSizes {
                senders: 256,
                blocks: scaled(400),
            }),
            Workload::LifecycleMix => Job::Lifecycle(LifecycleSizes {
                owners: 16,
                devices_per_owner: 8,
                rounds: scaled(40),
                body_bytes: 4_096,
            }),
        }
    }

    /// Sizes for the smoke tests: the same code paths in well under a
    /// second each.
    pub fn tiny_sizes(self) -> Job {
        match self {
            Workload::MarketAccess | Workload::Market10k => Job::Waves(WaveSizes {
                owners: 12,
                devices: 12,
                waves: 3,
                width: 8,
                paged: false,
            }),
            Workload::PagedAccess => Job::Waves(WaveSizes {
                owners: 12,
                devices: 12,
                waves: 3,
                width: 8,
                paged: true,
            }),
            Workload::ChainIngest => Job::Ingest(IngestSizes {
                senders: 8,
                blocks: 8,
            }),
            Workload::LifecycleMix => Job::Lifecycle(LifecycleSizes {
                owners: 2,
                devices_per_owner: 2,
                rounds: 2,
                body_bytes: 64,
            }),
        }
    }
}

/// `--seconds` at which the sizes equal the issue's default run.
pub const REFERENCE_SECONDS: f64 = 4.0;

/// One workload at concrete sizes.
#[derive(Debug, Clone)]
pub enum Job {
    /// A wave workload.
    Waves(WaveSizes),
    /// `chain_ingest`.
    Ingest(IngestSizes),
    /// `lifecycle_mix`.
    Lifecycle(LifecycleSizes),
}

impl Job {
    /// Runs one repeat in this process.
    ///
    /// # Errors
    /// [`CheckFailed`] when a correctness check does not hold.
    pub fn run(&self, seed: u64, tracer: &mut Tracer) -> Result<Measured, CheckFailed> {
        match self {
            Job::Waves(sizes) => workloads::waves::run(seed, sizes, tracer),
            Job::Ingest(sizes) => workloads::ingest::run(seed, sizes, tracer),
            Job::Lifecycle(sizes) => workloads::lifecycle::run(seed, sizes, tracer),
        }
    }
}
