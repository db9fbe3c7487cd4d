//! Conformance suite: the §II scenario matrix, its pinned outcomes and
//! gas, and fixed and seeded chaos plans, each under both block executors
//! (`{Serial, Parallel}`). The shared architecture invariants
//! (`duc_core::chaos::check_invariants`: certificates verify, TEE↔registry
//! copy consistency, gas conservation, cursors ≤ height) must hold in every
//! run, and the serial and parallel executors are compared by fingerprint.

use duc_blockchain::{Checkpoint, ExecMode, PagingConfig, StorageConfig};
use duc_codec::Encode;
use duc_contracts::calls::Subscribe;
use duc_core::chaos::{self, fixed_link};
use duc_core::prelude::*;
use duc_core::scenario;
use duc_sim::{FaultPlan, SimDuration};
use proptest::prelude::*;

const OWNER: &str = "https://owner.id/me";
const PATH: &str = "data/set.bin";
const MODES: [ExecMode; 2] = [ExecMode::Serial, ExecMode::Parallel];

fn config(seed: u64) -> WorldConfig {
    config_in(ExecMode::Serial, seed)
}

fn config_in(exec_mode: ExecMode, seed: u64) -> WorldConfig {
    WorldConfig {
        seed,
        link: fixed_link(10),
        trace: true,
        exec_mode,
        ..WorldConfig::default()
    }
}

/// The §II scenario — the seed process matrix (all six processes plus the
/// market subscription).
fn scenario_on(mut world: World) -> (scenario::ScenarioReport, World) {
    scenario::populate(&mut world);
    let report = scenario::run(&mut world).expect("fault-free scenario runs");
    (report, world)
}

/// The two probes the driver's confirmation path relies on: `next_nonce`
/// agrees with the nonce a `build_call` of the same call signs (pending
/// transactions included), and `receipt` appears when the transaction is
/// included.
#[test]
fn nonce_and_receipt_probes_agree() {
    let mut world = World::new(config(3));
    scenario::populate(&mut world);
    // One key subscribes under two WebIDs.
    let device = world.device(scenario::ALICE_DEVICE).key;
    for (round, webid) in [scenario::ALICE, scenario::BOB, scenario::ALICE]
        .into_iter()
        .enumerate()
    {
        let subscribe = Subscribe {
            webid: webid.to_string(),
        };
        let tx = world.dex.call_tx(&world.chain, &device, subscribe.clone());
        assert_eq!(world.chain.next_nonce(&tx.tx.from), tx.tx.nonce, "{round}");
        let id = world.chain.submit(tx.clone()).expect("valid");
        assert_eq!(world.chain.next_nonce(&tx.tx.from), tx.tx.nonce + 1);
        let next = world.dex.call_tx(&world.chain, &device, subscribe);
        assert_eq!(next.tx.nonce, tx.tx.nonce + 1);
        assert!(world.chain.receipt(&id).is_none());
        world.advance(world.config.block_interval);
        assert!(world.chain.receipt(&id).is_some());
        // Included: the state nonce moved on, the pool no longer counts.
        assert_eq!(world.chain.next_nonce(&tx.tx.from), tx.tx.nonce + 1);
    }
}

/// Absolute golden pin for the §II scenario: exact process outcomes and
/// exact per-method gas under both execution modes (the parallel executor
/// must be invisible), plain and pruned — any refactor that drifts a single
/// gas unit or flips one outcome fails here.
#[test]
fn golden_scenario_outcomes_and_gas_are_pinned() {
    // (method, calls, total gas, mean gas).
    // Pinned against the compact row encodings (pol-table layout): every
    // method except `register_pod` got cheaper — rows shed repeated
    // identity strings and embedded envelopes — while `register_pod` pays
    // for seeding the shared `pol/` row alongside its own. Monitoring
    // re-pinned when a round became a header, an answer counter and one
    // row per answer: `record_evidence` no longer rewrites the round.
    const GOLD: &[(&str, u64, u64, u64)] = &[
        ("init", 1, 78_478, 78_478),
        ("record_evidence", 1, 160_012, 160_012),
        ("register_copy", 2, 172_452, 86_226),
        ("register_pod", 2, 380_750, 190_375),
        ("register_resource", 2, 516_995, 258_497),
        ("start_monitoring", 2, 264_455, 132_227),
        ("subscribe", 2, 226_942, 113_471),
        ("unregister_copy", 1, 62_228, 62_228),
        ("update_policy", 2, 518_731, 259_365),
    ];
    const TOTAL_GAS_SINGLE: u64 = 2_381_043;

    fn outcomes(label: &str, report: &scenario::ScenarioReport) {
        assert_eq!(report.alice_got_bytes, 152, "{label}: alice bytes");
        assert_eq!(report.bob_got_bytes, 480, "{label}: bob bytes");
        assert!(report.bob_copy_deleted, "{label}: bob deleted");
        assert!(report.alice_still_permitted, "{label}: alice permitted");
        assert_eq!(report.browsing_monitoring.expected, 0, "{label}");
        assert_eq!(report.browsing_monitoring.evidence, 0, "{label}");
        assert!(report.browsing_monitoring.violators.is_empty(), "{label}");
        assert_eq!(report.medical_monitoring.expected, 1, "{label}");
        assert_eq!(report.medical_monitoring.evidence, 1, "{label}");
    }
    fn gas_pinned(
        label: &str,
        gas: &std::collections::BTreeMap<(String, String), (u64, u64, u64)>,
        gold: &[(&str, u64, u64, u64)],
    ) {
        assert_eq!(gas.len(), gold.len(), "{label}: unexpected methods {gas:?}");
        for (method, calls, total, mean) in gold {
            let key = ("dist-exchange".to_string(), method.to_string());
            assert_eq!(
                gas.get(&key),
                Some(&(*calls, *total, *mean)),
                "{label}: gas drifted for {method}"
            );
        }
    }

    for mode in MODES {
        let config = || config_in(mode, 7);

        let label = format!("single/{mode:?}");
        let (single, single_world) = scenario_on(World::new(config()));
        outcomes(&label, &single);
        assert_eq!(single.total_gas, TOTAL_GAS_SINGLE, "{label}: total gas");
        gas_pinned(&label, &single_world.chain.gas_by_method(), GOLD);
        chaos::check_invariants(&single_world).unwrap_or_else(|e| panic!("{label}: {e}"));

        // The same scenario with pruning enabled (checkpoint every 4
        // blocks, 8-block resident window) must reproduce the pins to the
        // gas unit: pruning may only change what stays resident, never
        // what happened.
        let pruned = WorldConfig {
            storage: StorageConfig::enabled(4, 8),
            ..config()
        };

        let label = format!("single+prune/{mode:?}");
        let (report, world) = scenario_on(World::new(pruned));
        outcomes(&label, &report);
        assert_eq!(report.total_gas, TOTAL_GAS_SINGLE, "{label}: total gas");
        gas_pinned(&label, &world.chain.gas_by_method(), GOLD);
        assert!(
            world.chain.prune_horizon() > 0,
            "{label}: the golden scenario is long enough to prune"
        );
        world
            .chain
            .verify_checkpoints()
            .unwrap_or_else(|e| panic!("{label}: golden checkpoints: {e:?}"));
    }
}

/// One fixed, hand-written chaos plan (a crash window plus a partition that
/// both heal) and one seeded random plan, thrown at one world.
fn chaos_against(world: World, chaos_seed: u64) -> (usize, usize, World) {
    let (mut world, resource) = chaos::launch_pad_in(world, OWNER, PATH, 4);
    let dev = world.device("device-0").endpoint;
    let relay = world.push_in.relay;
    let fixed = chaos::healing_plan(world.clock.now(), dev, relay);
    let batch = chaos::mixed_batch(OWNER, PATH, &resource, 4);
    let run = chaos::run_chaos(&mut world, batch, fixed).expect("fixed-plan invariants");
    assert_eq!(run.ok + run.failed, run.outcomes.len());

    let random = chaos::random_plan(&world, chaos_seed, SimDuration::from_secs(15), 5);
    let batch = chaos::mixed_batch(OWNER, PATH, &resource, 4);
    let run2 = chaos::run_chaos(&mut world, batch, random).expect("random-plan invariants");
    (run.ok + run2.ok, run.failed + run2.failed, world)
}

#[test]
fn chaos_plans_hold_invariants() {
    for mode in MODES {
        let (ok, failed, world) = chaos_against(World::new(config_in(mode, 21)), 99);
        // Every ticket resolves (12 = 2 × (4 accesses + 2 rounds)).
        assert_eq!(ok + failed, 12, "{mode:?}");
        world
            .chain
            .validate_chain()
            .expect("the chain validates after chaos");
    }
}

/// The policy-churn scenario class (mid-flight modification racing
/// accesses and monitoring) must resolve every ticket and hold the shared
/// invariants under both execution modes.
#[test]
fn policy_churn_holds_invariants() {
    fn churn(world: World) -> (usize, usize, u64) {
        let (mut world, resource) = chaos::launch_pad_in(world, OWNER, PATH, 4);
        let batch = chaos::policy_churn_batch(OWNER, PATH, &resource, 4);
        let requests = batch.len();
        let plan = chaos::healing_plan(
            world.clock.now(),
            world.device("device-0").endpoint,
            world.push_in.relay,
        );
        let run = chaos::run_chaos(&mut world, batch, plan).expect("churn invariants");
        assert_eq!(run.outcomes.len(), requests);
        let version = world
            .dex
            .lookup_resource(&world.chain, &resource)
            .expect("view")
            .expect("registered")
            .policy_version;
        (run.ok, run.failed, version)
    }
    for mode in MODES {
        let (_, _, version) = churn(World::new(config_in(mode, 33)));
        assert_eq!(version, 2, "{mode:?}");
    }
}

/// One fault-free launch-pad + mixed-batch run, returning the fingerprint.
/// Every ticket must succeed (no faults are installed), and the shared
/// invariants — including the prune-aware cursor and checkpoint sweeps —
/// are checked by `run_chaos`.
fn fault_free_fingerprint(world: World, seed: u64) -> String {
    let (mut world, resource) = chaos::launch_pad_in(world, OWNER, PATH, 3);
    let batch = chaos::mixed_batch(OWNER, PATH, &resource, 3);
    let run = chaos::run_chaos(&mut world, batch, FaultPlan::none())
        .unwrap_or_else(|e| panic!("seed={seed}: {e}"));
    assert_eq!(
        run.ok,
        run.outcomes.len(),
        "seed={seed}: fault-free runs succeed everywhere"
    );
    chaos::fingerprint(&mut world)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Checkpoint → prune → replay round-trip: for any seed, the pruned
    /// run (checkpoint every 2 blocks, 2-block resident window) produces a
    /// fingerprint byte-identical to the unpruned run of the same seed,
    /// and re-running the pruned world replays byte-identically. Pruning
    /// must be invisible to everything but memory.
    #[test]
    fn pruned_runs_replay_byte_identically(seed in 0u64..200) {
        let plain = fault_free_fingerprint(World::new(config(seed)), seed);
        let cfg = || WorldConfig { storage: StorageConfig::enabled(2, 2), ..config(seed) };
        let p1 = fault_free_fingerprint(World::new(cfg()), seed);
        let p2 = fault_free_fingerprint(World::new(cfg()), seed);
        prop_assert_eq!(&plain, &p1, "pruning perturbed the run");
        prop_assert_eq!(&p1, &p2, "pruned replay diverged");
    }

    /// Paging → eviction → fault-in → checkpoint round-trip: for any seed,
    /// a run whose world state is paged down to two resident pages of four
    /// slots — interleaved with checkpoint seals and pruning — produces a
    /// replay fingerprint (which embeds the state commitment) byte-identical
    /// to the never-evicting run of the same seed, through both page-store
    /// backings (in-memory log and spill files
    /// on disk). Eviction must move bytes, never rows.
    #[test]
    fn paged_runs_fingerprint_identically_to_unpaged(seed in 0u64..200) {
        let spill_dir = std::env::temp_dir().join(format!(
            "duc-paged-prop-{}-{seed}",
            std::process::id()
        ));
        let tiny = PagingConfig::in_memory(Some(2)).with_page_capacity(4);
        let disk = tiny.clone().with_spill_dir(&spill_dir);
        let paged = |p: &PagingConfig| WorldConfig {
            storage: StorageConfig::enabled(2, 2).with_paging(p.clone()),
            ..config(seed)
        };

        let plain = fault_free_fingerprint(World::new(config(seed)), seed);
        let mem = fault_free_fingerprint(World::new(paged(&tiny)), seed);
        let file = fault_free_fingerprint(World::new(paged(&disk)), seed);
        prop_assert_eq!(&plain, &mem, "paging perturbed the run");
        prop_assert_eq!(&mem, &file, "spill-to-disk diverged from in-memory spill");

        let _ = std::fs::remove_dir_all(&spill_dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// For any seed, the serial and parallel executors produce
    /// byte-identical replay fingerprints: same blocks, same receipts, same
    /// event stream, same balances.
    #[test]
    fn parallel_runs_fingerprint_identically_to_serial(seed in 0u64..200) {
        let s = fault_free_fingerprint(World::new(config_in(ExecMode::Serial, seed)), seed);
        let p = fault_free_fingerprint(World::new(config_in(ExecMode::Parallel, seed)), seed);
        prop_assert_eq!(&s, &p, "serial/parallel diverged");
    }
}

/// A sealed checkpoint survives a codec round-trip bit-for-bit, and the
/// sealed state commitment stays verifiable against the chain's recorded
/// headers after pruning (the restore anchor of the storage layer).
#[test]
fn checkpoints_roundtrip_and_stay_verifiable() {
    let cfg = WorldConfig {
        storage: StorageConfig::enabled(2, 2),
        ..config(5)
    };
    let (mut world, resource) = chaos::launch_pad_in(World::new(cfg), OWNER, PATH, 3);
    let batch = chaos::mixed_batch(OWNER, PATH, &resource, 3);
    chaos::run_chaos(&mut world, batch, FaultPlan::none()).expect("invariants");
    assert!(world.chain.prune_horizon() > 0, "the run pruned");
    let cp = world.chain.checkpoints().last().expect("sealed").clone();
    let mut buf = Vec::new();
    cp.encode(&mut buf);
    let restored: Checkpoint = duc_codec::decode_from_slice(&buf).expect("decode");
    assert_eq!(restored, cp, "checkpoint codec round-trip");
    assert_eq!(restored.state_commitment, cp.state_commitment);
    world
        .chain
        .verify_checkpoints()
        .expect("sealed commitments match the recorded headers");
}
