//! The eighteen experiments, in two registries.
//!
//! [`PINNED`] lists E1–E12 and E14 ([`crate::paper`]): no population cap, no host
//! clock, so `BENCH_seed.json` pins every cell they print
//! ([`crate::json::pinned_document`]). [`PROBES`] lists E15–E19
//! ([`crate::probes`]): they read the host or the `--max-owners` cap, and
//! `report` prints them. Workload sizes keep `report all` well under a
//! minute in release mode.

use duc_core::chaos::fixed_link;
use duc_core::WorldConfig;
use duc_sim::SimDuration;

use crate::table::Table;
use crate::{paper, probes};

/// A pinned experiment: its name and its runner.
pub type Pinned = (&'static str, fn() -> Vec<Table>);

/// A probe: its name and its runner, which takes the `--max-owners` cap
/// (only the population sweeps read it).
pub type Probe = (&'static str, fn(usize) -> Vec<Table>);

/// E1–E12 and E14, in report order.
pub const PINNED: &[Pinned] = &[
    ("e1", paper::e1_pod_initiation),
    ("e2", paper::e2_resource_initiation),
    ("e3", paper::e3_indexing),
    ("e4", paper::e4_access),
    ("e5", paper::e5_propagation),
    ("e6", paper::e6_monitoring),
    ("e7", paper::e7_gas_table),
    ("e8", paper::e8_robustness),
    ("e9", paper::e9_privacy),
    ("e10", paper::e10_baseline),
    ("e11", paper::e11_enforcement),
    ("e12", paper::e12_chain_scale),
    ("e14", paper::e14_deadline_enforcement),
];

/// E15–E19, in report order.
pub const PROBES: &[Probe] = &[
    ("e15", probes::e15_population),
    ("e16", probes::e16_storage),
    ("e17", |_| probes::e17_parallel_exec()),
    ("e18", |_| probes::e18_runtime()),
    ("e19", probes::e19_paged_state),
];

/// The experiments' world: `seed`, fixed 10 ms links, defaults elsewhere.
pub(crate) fn world_config(seed: u64) -> WorldConfig {
    WorldConfig {
        seed,
        link: fixed_link(10),
        ..WorldConfig::default()
    }
}

/// A simulated duration in milliseconds, one decimal: every latency cell.
pub(crate) fn ms(d: SimDuration) -> String {
    format!("{:.1}", d.as_millis_f64())
}

#[cfg(test)]
mod tests {
    use crate::probes::*;
    use duc_core::chaos::fixed_link;
    use duc_core::prelude::*;
    use duc_core::scenario;

    // The probes at small n: their gates assert inside each run, so a
    // passing call is the test. E1–E12 and E14 run whole, at their own sizes, in
    // the `bench_seed` test against the committed file.

    #[test]
    fn e15_population_smoke_run_completes() {
        // Small-n replica of the E15 harness (the full sweep and its
        // population gate run through the report binary): a tiny
        // population builds, every wave access succeeds, and churn keeps
        // the fleet size constant.
        let spec = scenario::PopulationSpec {
            owners: 4,
            devices_per_owner: 2,
            waves: 2,
            accesses_per_wave: 6,
            churn_per_wave: 1,
            ..scenario::PopulationSpec::default()
        };
        let mut world = World::new(WorldConfig {
            seed: 151,
            link: fixed_link(10),
            ..WorldConfig::default()
        });
        let mut pop = scenario::populate_population(&mut world, &spec);
        let run = scenario::run_population(&mut world, &mut pop, &spec);
        assert_eq!(run.requests, run.ok);
        assert_eq!(run.churned, 1);
        assert!(!world.metrics.histogram_mut("process.access.e2e").is_empty());
    }

    #[test]
    fn e16_storage_smoke_run_completes() {
        // Small-n replica of the E16 harness (the full sweep and the RSS
        // gate run through the report binary): the pruned-vs-unpruned
        // equality assertions and the bounded-residency gate all run
        // inside `e16_storage_at`, so a passing call is the assertion.
        let tables = e16_storage_at(4, &[1, 2], 2, 2);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].rows().len(), 2);
    }

    #[test]
    fn e18_runtime_mode_gates_hold() {
        // The outcome-set identity and /metrics scrape gates are asserted
        // inside the experiment; a panic-free run is the smoke test.
        let tables = e18_runtime();
        assert_eq!(tables[0].len(), 2, "one row per runtime mode");
    }

    #[test]
    fn e19_paged_state_smoke_gates_hold() {
        // Small-n replica of the E19 harness (the full sweep runs through
        // the report binary): the cache-size identity assertions, the
        // eviction-pressure check and the 0.4× residency gate all run
        // inside `e19_paged_state_at`, so a passing call is the assertion.
        let tables = e19_paged_state_at(6, 32, Some(8), 2);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].rows().len(), 5, "one row per cache config");
        assert_eq!(tables[1].rows().len(), 2, "paged and unpaged rows");
    }

    #[test]
    fn e17_parallel_block_smoke_run_matches_serial() {
        // Small-n replica of the E17 harness (the full batch and its
        // ≥1.5× speedup gate run through the report binary): a modest
        // conflict-free batch must seal identically under both executors.
        let (_, serial_fp) = e17_block_time(duc_blockchain::ExecMode::Serial, 1, 16, 1);
        let (_, parallel_fp) = e17_block_time(duc_blockchain::ExecMode::Parallel, 4, 16, 1);
        assert_eq!(
            serial_fp, parallel_fp,
            "parallel block diverged from serial"
        );
    }
}
