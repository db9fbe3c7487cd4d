//! Deterministic chaos suite: seeded random fault plans thrown at batches
//! of concurrent in-flight processes, with the architecture invariants of
//! [`duc_core::chaos`] checked after every run.
//!
//! Every scenario runs under both execution modes, `{Serial, Parallel}`,
//! inside this binary. Reproducing a failure: every assertion message
//! carries the `(mode, world_seed, chaos_seed)` tuple of the run that broke
//! (see README § chaos harness).

use duc_blockchain::{ExecMode, PagingConfig, PagingStats, StorageConfig};
use duc_core::chaos::{self, fixed_link};
use duc_core::prelude::*;
use duc_sim::{FaultPlan, SimDuration};
use proptest::prelude::*;

const OWNER: &str = "https://owner.id/me";
const PATH: &str = "data/set.bin";

/// The world seeds of the chaos gate.
const SEEDS: [u64; 6] = [11, 23, 42, 77, 1234, 31337];

const MODES: [ExecMode; 2] = [ExecMode::Serial, ExecMode::Parallel];

fn world_config(seed: u64, exec_mode: ExecMode) -> WorldConfig {
    WorldConfig {
        seed,
        link: fixed_link(10),
        trace: true,
        exec_mode,
        ..WorldConfig::default()
    }
}

/// Runs `run` twice per execution mode and asserts every result equals
/// the first serial one: identically-seeded runs replay byte-identically
/// and the scheduler is invisible, faults included.
fn replayed_across_modes<T: PartialEq + std::fmt::Debug>(
    context: &str,
    run: impl Fn(ExecMode) -> T,
) -> T {
    let reference = run(ExecMode::Serial);
    for mode in [ExecMode::Serial, ExecMode::Parallel, ExecMode::Parallel] {
        assert_eq!(
            run(mode),
            reference,
            "{context} mode={mode:?}: diverged from the first serial run"
        );
    }
    reference
}

/// One chaos run on `world`: a seeded random fault plan against a mixed
/// batch of `n` concurrent accesses plus two monitoring rounds. Returns
/// the run fingerprint and the ok/failed split. Panics (with `context`:
/// the mode and seeds) on any violated invariant or unresolved
/// ticket.
fn chaos_run_in(world: World, context: &str, chaos_seed: u64, n: usize) -> (String, usize, usize) {
    let (mut world, resource) = chaos::launch_pad_in(world, OWNER, PATH, n);
    // Windows open within 15 s of submission, squarely over the batch's
    // active phase, so most plans genuinely hit in-flight hops.
    let plan = chaos::random_plan(&world, chaos_seed, SimDuration::from_secs(15), 5);
    let batch = chaos::mixed_batch(OWNER, PATH, &resource, n);
    let requests = batch.len();
    let run =
        chaos::run_chaos(&mut world, batch, plan).unwrap_or_else(|e| panic!("{context}: {e}"));
    assert_eq!(
        run.outcomes.len(),
        requests,
        "{context}: not every ticket resolved"
    );
    (chaos::fingerprint(&mut world), run.ok, run.failed)
}

/// One seeded chaos plan, run twice per execution mode; all four runs
/// must agree (see [`replayed_across_modes`]).
fn chaos_run(world_seed: u64, chaos_seed: u64, n: usize) -> (usize, usize) {
    let seeds = format!("world_seed={world_seed} chaos_seed={chaos_seed}");
    let (_, ok, failed) = replayed_across_modes(&seeds, |mode| {
        let context = format!("{seeds} mode={mode:?}");
        chaos_run_in(
            World::new(world_config(world_seed, mode)),
            &context,
            chaos_seed,
            n,
        )
    });
    (ok, failed)
}

/// The chaos gate: a small fixed seed matrix of random fault plans, each
/// plan run twice per execution mode to prove byte-identical replay and
/// serial/parallel fingerprint equality under faults.
#[test]
fn chaos_seed_matrix_resolves_and_replays() {
    for world_seed in SEEDS {
        let chaos_seed = world_seed.wrapping_mul(31).wrapping_add(7);
        let (ok, failed) = chaos_run(world_seed, chaos_seed, 6);
        assert_eq!(ok + failed, 8);
        println!("chaos world_seed={world_seed} chaos_seed={chaos_seed}: ok={ok} failed={failed}");
    }
}

/// A plan whose windows all heal must let every request succeed eventually
/// — recovery, not just typed failure.
#[test]
fn healing_faults_still_complete_some_work() {
    for mode in MODES {
        let (mut world, resource) =
            chaos::launch_pad_in(World::new(world_config(9, mode)), OWNER, PATH, 4);
        let dev = world.device("device-0").endpoint;
        let relay = world.push_in.relay;
        // The canonical healing plan: a crash window over the device and a
        // partition on its uplink, both healing; accesses suspend and resume.
        let plan = chaos::healing_plan(world.clock.now(), dev, relay);
        let batch = chaos::mixed_batch(OWNER, PATH, &resource, 4);
        let run = chaos::run_chaos(&mut world, batch, plan).expect("invariants hold");
        assert_eq!(
            run.ok,
            run.outcomes.len(),
            "mode={mode:?}: every request recovered: {:?}",
            run.outcomes
        );
        assert!(
            world.metrics.counter("driver.hop.suspended") > 0,
            "mode={mode:?}: the crash window suspended at least one hop"
        );
    }
}

/// The policy-churn scenario class: a mid-flight policy modification
/// (retention tightened to zero) racing re-accesses and monitoring rounds
/// under a healing fault plan. Every ticket resolves, the shared
/// invariants hold, and identically-seeded runs replay byte-identically
/// under both execution modes.
#[test]
fn policy_churn_mid_flight_resolves_and_replays() {
    replayed_across_modes("policy churn seed=77", |mode| {
        let (mut world, resource) =
            chaos::launch_pad_in(World::new(world_config(77, mode)), OWNER, PATH, 4);
        let dev = world.device("device-0").endpoint;
        let relay = world.push_in.relay;
        let plan = chaos::healing_plan(world.clock.now(), dev, relay);
        let batch = chaos::policy_churn_batch(OWNER, PATH, &resource, 4);
        let requests = batch.len();
        let run = chaos::run_chaos(&mut world, batch, plan).expect("invariants hold");
        assert_eq!(run.outcomes.len(), requests, "every ticket resolves");
        // The tightened policy reached at least one holder: either the
        // fan-out deleted copies outright or the re-access re-registered
        // them afterwards — in both cases the policy version advanced.
        let record = world
            .dex
            .lookup_resource(&world.chain, &resource)
            .expect("view")
            .expect("registered");
        assert_eq!(record.policy_version, 2, "the mid-flight update landed");
        (chaos::fingerprint(&mut world), run.ok, run.failed)
    });
}

/// Pruning mid-flight: a world checkpointing every 2 blocks with a 2-block
/// retained window runs the mixed batch under lossy drop windows over the
/// relay's uplinks, so hops retry across block boundaries while the chain
/// evicts history behind its checkpoints. Every ticket still resolves, the
/// prune-aware invariants hold (cursors within `[prune_horizon, height]`,
/// checkpoint commitments intact), and identically-seeded runs replay
/// byte-identically under both execution modes.
#[test]
fn pruning_mid_flight_under_drop_windows_resolves_and_replays() {
    let seeds = "mid-flight pruning seed=31";
    replayed_across_modes(seeds, |mode| {
        let context = format!("{seeds} mode={mode:?}");
        let config = WorldConfig {
            storage: StorageConfig::enabled(2, 2),
            ..world_config(31, mode)
        };
        let (mut world, resource) = chaos::launch_pad_in(World::new(config), OWNER, PATH, 4);
        run_pruned_batch(&mut world, &resource, &context)
    });
}

/// Shared body of the mid-flight pruning run: lossy drop windows over the
/// batch's active phase, the mixed batch, and the post-run pruning
/// assertions.
fn run_pruned_batch(world: &mut World, resource: &str, context: &str) -> (String, usize, usize) {
    let dev = world.device("device-0").endpoint;
    let relay = world.push_in.relay;
    let now = world.clock.now();
    let plan = FaultPlan::none()
        .drop_window(dev, relay, now, now + SimDuration::from_secs(10), 400)
        .drop_window(
            relay,
            world.gateway,
            now + SimDuration::from_secs(5),
            now + SimDuration::from_secs(15),
            300,
        );
    let batch = chaos::mixed_batch(OWNER, PATH, resource, 4);
    let requests = batch.len();
    let run = chaos::run_chaos(world, batch, plan).unwrap_or_else(|e| panic!("{context}: {e}"));
    assert_eq!(
        run.outcomes.len(),
        requests,
        "{context}: every ticket resolves"
    );
    assert!(
        world.chain.prune_horizon() > 0,
        "{context}: the run pruned history behind its checkpoints"
    );
    assert!(
        (world.chain.retained_blocks() as u64) < world.chain.height(),
        "{context}: the resident window is a strict subset of history"
    );
    (chaos::fingerprint(world), run.ok, run.failed)
}

/// The tentpole integrity case for the paged world state: the mixed batch
/// under lossy drop windows, run once on the default unbounded store and
/// once with a pathologically small resident budget (2 pages of 4 slots
/// each), must produce byte-identical fingerprints — eviction and fault-in
/// are pure residency moves, invisible to outcomes, gas, metrics and
/// replay. The paged run must actually page (its eviction and fault-in
/// counters both advance), and `check_invariants` inside `run_chaos`
/// re-verifies every page digest and the commitment accumulator after the
/// run. Runs under both execution modes.
#[test]
fn paging_under_drop_windows_is_invisible_to_replay() {
    fn run(mode: ExecMode, paging: Option<PagingConfig>) -> (String, usize, usize, PagingStats) {
        let config = WorldConfig {
            storage: match paging {
                Some(p) => StorageConfig::disabled().with_paging(p),
                None => StorageConfig::disabled(),
            },
            ..world_config(13, mode)
        };
        let context = format!("mode={mode:?} seed=13");
        run_dropped_batch(World::new(config), &context)
    }
    fn run_dropped_batch(world: World, context: &str) -> (String, usize, usize, PagingStats) {
        let (mut world, resource) = chaos::launch_pad_in(world, OWNER, PATH, 4);
        let dev = world.device("device-0").endpoint;
        let relay = world.push_in.relay;
        let now = world.clock.now();
        let plan = FaultPlan::none()
            .drop_window(dev, relay, now, now + SimDuration::from_secs(10), 400)
            .drop_window(
                relay,
                world.gateway,
                now + SimDuration::from_secs(5),
                now + SimDuration::from_secs(15),
                300,
            );
        let batch = chaos::mixed_batch(OWNER, PATH, &resource, 4);
        let requests = batch.len();
        let run =
            chaos::run_chaos(&mut world, batch, plan).unwrap_or_else(|e| panic!("{context}: {e}"));
        assert_eq!(
            run.outcomes.len(),
            requests,
            "{context}: every ticket resolves"
        );
        let stats = world.chain.paging_stats();
        (chaos::fingerprint(&mut world), run.ok, run.failed, stats)
    }

    let tight = PagingConfig::in_memory(Some(2)).with_page_capacity(4);
    for mode in MODES {
        let (fp_unpaged, ok, failed, base) = run(mode, None);
        let (fp_paged, ok2, failed2, stats) = run(mode, Some(tight.clone()));
        let cell = format!("mode={mode:?}");
        assert_eq!((ok, failed), (ok2, failed2), "{cell}");
        assert_eq!(
            fp_unpaged, fp_paged,
            "{cell}: a 2-page resident budget must be invisible to replay"
        );
        assert_eq!(
            base.evictions, 0,
            "{cell}: the unbounded store never evicts"
        );
        assert!(
            stats.evictions > 0,
            "{cell}: the tight budget actually paged: {stats:?}"
        );
        assert!(
            stats.fault_ins > 0,
            "{cell}: evicted pages faulted back in: {stats:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For any seeded random fault plan and request batch: every submitted
    /// ticket resolves (success or typed error —
    /// never pending after `run_until_idle`), all architecture invariants
    /// hold, and identically-seeded reruns under either execution mode
    /// produce a byte-identical fingerprint (including the retry/backoff
    /// and suspension schedules, which are metric counters inside the
    /// fingerprint).
    #[test]
    fn any_seeded_fault_plan_resolves_every_ticket(
        world_seed in 0u64..500,
        chaos_seed in 0u64..10_000,
        n in 1usize..6,
    ) {
        let (ok, failed) = chaos_run(world_seed, chaos_seed, n);
        prop_assert_eq!(ok + failed, n + 2);
    }
}
