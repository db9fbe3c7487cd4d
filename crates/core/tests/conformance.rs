//! Backend-conformance suite: the same scenario matrix and the same chaos
//! plans run against every [`Ledger`] backend — the legacy [`SingleChain`]
//! and the [`ShardedLedger`] — and the shared architecture invariants
//! (`duc_core::chaos::check_invariants`: certificates verify, TEE↔registry
//! copy consistency, gas conservation, cursors ≤ height) must hold on each.
//!
//! Timing differs across backends (that is the point of sharding), so the
//! suite compares *outcomes* — what happened — not fingerprints, which are
//! only required to replay byte-identically within one backend. Within a
//! backend the serial and parallel block executors *are* compared by
//! fingerprint, and the pins and chaos plans run under both.

use duc_blockchain::{Checkpoint, ExecMode, Ledger, PagingConfig, StorageConfig};
use duc_codec::Encode;
use duc_core::chaos::{self, fixed_link};
use duc_core::prelude::*;
use duc_core::scenario;
use duc_sim::{FaultPlan, SimDuration};
use proptest::prelude::*;

const OWNER: &str = "https://owner.id/me";
const PATH: &str = "data/set.bin";
const MODES: [ExecMode; 2] = [ExecMode::Serial, ExecMode::Parallel];

fn config(seed: u64, shards: usize) -> WorldConfig {
    config_in(ExecMode::Serial, seed, shards)
}

fn config_in(exec_mode: ExecMode, seed: u64, shards: usize) -> WorldConfig {
    WorldConfig {
        seed,
        link: fixed_link(10),
        trace: true,
        shards,
        exec_mode,
        ..WorldConfig::default()
    }
}

/// The §II scenario — the seed process matrix (all six processes plus the
/// market subscription) — must play out identically on any backend.
fn scenario_on<L: Ledger>(mut world: World<L>) -> (scenario::ScenarioReport, World<L>) {
    scenario::populate(&mut world);
    let report = scenario::run(&mut world).expect("fault-free scenario runs on every backend");
    (report, world)
}

#[test]
fn scenario_matrix_is_backend_agnostic() {
    let (single, single_world) = scenario_on(World::new(config(7, 1)));
    let (sharded, world) = scenario_on(World::new_sharded(config(7, 4)));

    // The observable outcome of every process is identical.
    assert_eq!(single.medical_iri, sharded.medical_iri);
    assert_eq!(single.browsing_iri, sharded.browsing_iri);
    assert_eq!(single.alice_got_bytes, sharded.alice_got_bytes);
    assert_eq!(single.bob_got_bytes, sharded.bob_got_bytes);
    assert_eq!(single.bob_copy_deleted, sharded.bob_copy_deleted);
    assert_eq!(single.alice_still_permitted, sharded.alice_still_permitted);
    assert_eq!(
        single.browsing_monitoring.violators,
        sharded.browsing_monitoring.violators
    );
    assert_eq!(
        single.medical_monitoring.evidence,
        sharded.medical_monitoring.evidence
    );
    // Per-method gas matches: the same scenario transactions executed,
    // just spread over more chains. (`init` is excluded — multi-chain
    // genesis runs it once per shard by design.)
    let gas_single = single_world.chain.gas_by_method();
    let gas_sharded = world.chain.gas_by_method();
    for (key, row) in &gas_single {
        if key.1 == "init" {
            continue;
        }
        assert_eq!(gas_sharded.get(key), Some(row), "gas drifted for {key:?}");
    }

    // The invariant sweep holds on the sharded world too.
    chaos::check_invariants(&world).expect("invariants on sharded backend");
    world
        .chain
        .validate_chains()
        .expect("every shard validates");
}

/// The two probes the driver's confirmation path relies on agree, on every
/// backend, with the full forms they abbreviate: `routed_next_nonce` with
/// the nonce a `build_call` of the same call signs (pending transactions
/// on the routed shard included), `has_receipt` with `receipt`.
fn nonce_and_receipt_probes_on<L: Ledger>(mut world: World<L>) {
    scenario::populate(&mut world);
    // One key subscribes under two WebIDs: a sharded backend routes by
    // WebID, and every chain keeps its own nonce sequence for the key.
    let device = world.device(scenario::ALICE_DEVICE).key;
    for (round, webid) in [scenario::ALICE, scenario::BOB, scenario::ALICE]
        .into_iter()
        .enumerate()
    {
        let tx = world.dex.subscribe_tx(&world.chain, &device, webid);
        assert_eq!(world.chain.routed_next_nonce(&tx), tx.tx.nonce, "{round}");
        let id = world.chain.submit(tx.clone()).expect("valid");
        assert_eq!(world.chain.routed_next_nonce(&tx), tx.tx.nonce + 1);
        let next = world.dex.subscribe_tx(&world.chain, &device, webid);
        assert_eq!(next.tx.nonce, tx.tx.nonce + 1);
        assert!(!world.chain.has_receipt(&id));
        assert!(world.chain.receipt(&id).is_none());
        world.advance(world.config.block_interval);
        assert!(world.chain.has_receipt(&id));
        assert!(world.chain.receipt(&id).is_some());
        // Included: the state nonce moved on, the pool no longer counts.
        assert_eq!(world.chain.routed_next_nonce(&tx), tx.tx.nonce + 1);
    }
}

#[test]
fn nonce_and_receipt_probes_agree_on_both_backends() {
    nonce_and_receipt_probes_on(World::new(config(3, 1)));
    nonce_and_receipt_probes_on(World::new_sharded(config(3, 4)));
}

/// Absolute golden pin for the §II scenario: exact process outcomes and
/// exact per-method gas on both backends under both execution modes (the
/// parallel intra-shard executor must be invisible). The relative matrix
/// above proves the backends agree with *each other*; this test proves
/// they agree with *history* — any refactor that drifts a single gas unit
/// or flips one outcome fails here, even if it drifts both backends
/// identically.
#[test]
fn golden_scenario_outcomes_and_gas_are_pinned() {
    // (method, calls, total gas, mean gas) on the single-chain backend.
    // Pinned against the compact row encodings (pol-table layout): every
    // method except `register_pod` got cheaper — rows shed repeated
    // identity strings and embedded envelopes — while `register_pod` pays
    // for seeding the shared `pol/` row alongside its own.
    const GOLD: &[(&str, u64, u64, u64)] = &[
        ("init", 1, 78_478, 78_478),
        ("record_evidence", 1, 211_252, 211_252),
        ("register_copy", 2, 172_452, 86_226),
        ("register_pod", 2, 380_750, 190_375),
        ("register_resource", 2, 516_995, 258_497),
        ("start_monitoring", 2, 332_580, 166_290),
        ("subscribe", 2, 226_942, 113_471),
        ("unregister_copy", 1, 62_228, 62_228),
        ("update_policy", 2, 518_731, 259_365),
    ];
    const TOTAL_GAS_SINGLE: u64 = 2_500_408;
    // The sharded total differs only by genesis: four shards each run
    // `init` once (4 × 78 478 instead of 1 × 78 478).
    const TOTAL_GAS_SHARDED: u64 = 2_735_842;

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

    let gold_sharded: Vec<(&str, u64, u64, u64)> = GOLD
        .iter()
        .map(|&(m, calls, total, mean)| {
            if m == "init" {
                (m, 4, 4 * total, mean)
            } else {
                (m, calls, total, mean)
            }
        })
        .collect();

    for mode in MODES {
        let config = |shards| config_in(mode, 7, shards);

        let label = format!("single/{mode:?}");
        let (single, single_world) = scenario_on(World::new(config(1)));
        outcomes(&label, &single);
        assert_eq!(single.total_gas, TOTAL_GAS_SINGLE, "{label}: total gas");
        gas_pinned(&label, &single_world.chain.gas_by_method(), GOLD);
        chaos::check_invariants(&single_world).unwrap_or_else(|e| panic!("{label}: {e}"));

        let label = format!("sharded/{mode:?}");
        let (sharded, sharded_world) = scenario_on(World::new_sharded(config(4)));
        outcomes(&label, &sharded);
        assert_eq!(sharded.total_gas, TOTAL_GAS_SHARDED, "{label}: total gas");
        gas_pinned(&label, &sharded_world.chain.gas_by_method(), &gold_sharded);
        chaos::check_invariants(&sharded_world).unwrap_or_else(|e| panic!("{label}: {e}"));
        sharded_world
            .chain
            .validate_chains()
            .unwrap_or_else(|e| panic!("{label}: every shard validates: {e:?}"));

        // The same scenario with pruning enabled (checkpoint every 4
        // blocks, 8-block resident window) must reproduce the pins to the
        // gas unit: pruning may only change what stays resident, never
        // what happened.
        let pruned = |shards| WorldConfig {
            storage: StorageConfig::enabled(4, 8),
            ..config(shards)
        };

        let label = format!("single+prune/{mode:?}");
        let (report, world) = scenario_on(World::new(pruned(1)));
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

        let label = format!("sharded+prune/{mode:?}");
        let (report, world) = scenario_on(World::new_sharded(pruned(4)));
        outcomes(&label, &report);
        assert_eq!(report.total_gas, TOTAL_GAS_SHARDED, "{label}: total gas");
        gas_pinned(&label, &world.chain.gas_by_method(), &gold_sharded);
        world
            .chain
            .verify_checkpoints()
            .unwrap_or_else(|e| panic!("{label}: golden checkpoints: {e:?}"));
    }
}

#[test]
fn sharded_world_routes_disjoint_owners_to_disjoint_shards() {
    let mut world = World::new_sharded(config(11, 4));
    for i in 0..6 {
        world.add_owner(format!("https://o{i}.id/me"), format!("https://o{i}.pod/"));
    }
    let mut resources = Vec::new();
    for i in 0..6 {
        let owner = format!("https://o{i}.id/me");
        world.pod_initiation(&owner).expect("pod init");
        let resource = world
            .resource_initiation(
                &owner,
                "data/r.bin",
                duc_solid::Body::Binary(vec![0x5A; 1 << 10]),
                UsagePolicy::default_for(format!("https://o{i}.pod/data/r.bin"), &owner),
                vec![],
            )
            .expect("resource init");
        resources.push(resource);
    }
    let heights = world.chain.shard_heights();
    let busy = heights.iter().filter(|h| **h > 0).count();
    assert!(
        busy >= 2,
        "6 disjoint owners spread over shards: {heights:?}"
    );
    // Every resource resolves through its routed view.
    for (i, resource) in resources.iter().enumerate() {
        let record = world
            .dex
            .lookup_resource(&world.chain, resource)
            .expect("routed view")
            .expect("registered");
        assert_eq!(record.owner_webid, format!("https://o{i}.id/me"));
    }
    // The merged resource list spans every shard.
    let all = world
        .dex
        .list_resources(&world.chain)
        .expect("fan-out view");
    assert_eq!(all.len(), 6);
    chaos::check_invariants(&world).expect("invariants");
}

/// One fixed, hand-written chaos plan (a crash window plus a partition that
/// both heal) and one seeded random plan, thrown at both backends.
fn chaos_against<L: Ledger>(world: World<L>, chaos_seed: u64) -> (usize, usize, World<L>) {
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
fn chaos_plans_hold_invariants_on_both_backends() {
    for mode in MODES {
        let (ok_single, failed_single, _) = chaos_against(World::new(config_in(mode, 21, 1)), 99);
        let (ok_sharded, failed_sharded, world) =
            chaos_against(World::new_sharded(config_in(mode, 21, 4)), 99);
        // Both backends resolve every ticket (12 = 2 × (4 accesses + 2
        // rounds)); the split may differ because timing differs.
        assert_eq!(ok_single + failed_single, 12, "{mode:?}");
        assert_eq!(ok_sharded + failed_sharded, 12, "{mode:?}");
        world
            .chain
            .validate_chains()
            .expect("shards validate after chaos");
    }
}

/// The policy-churn scenario class (mid-flight modification racing
/// accesses and monitoring) must resolve every ticket and hold the shared
/// invariants on both ledger backends.
#[test]
fn policy_churn_holds_invariants_on_both_backends() {
    fn churn<L: Ledger>(world: World<L>) -> (usize, usize, u64) {
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
        let (_, _, v_single) = churn(World::new(config_in(mode, 33, 1)));
        let (_, _, v_sharded) = churn(World::new_sharded(config_in(mode, 33, 4)));
        assert_eq!(v_single, 2, "{mode:?}");
        assert_eq!(v_sharded, 2, "{mode:?}");
    }
}

/// One fault-free launch-pad + mixed-batch run, returning the fingerprint.
/// Every ticket must succeed (no faults are installed), and the shared
/// invariants — including the prune-aware cursor and checkpoint sweeps —
/// are checked by `run_chaos`.
fn fault_free_fingerprint<L: Ledger>(world: World<L>, seed: u64) -> String {
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
    /// and re-running the pruned world replays byte-identically — on both
    /// ledger backends. Pruning must be invisible to everything but
    /// memory.
    #[test]
    fn pruned_runs_replay_byte_identically_on_both_backends(seed in 0u64..200) {
        let pruned = StorageConfig::enabled(2, 2);
        let plain = fault_free_fingerprint(World::new(config(seed, 1)), seed);
        let cfg = || WorldConfig { storage: pruned.clone(), ..config(seed, 1) };
        let p1 = fault_free_fingerprint(World::new(cfg()), seed);
        let p2 = fault_free_fingerprint(World::new(cfg()), seed);
        prop_assert_eq!(&plain, &p1, "pruning perturbed the single-chain run");
        prop_assert_eq!(&p1, &p2, "pruned single-chain replay diverged");

        let plain = fault_free_fingerprint(World::new_sharded(config(seed, 4)), seed);
        let cfg = || WorldConfig { storage: pruned.clone(), ..config(seed, 4) };
        let s1 = fault_free_fingerprint(World::new_sharded(cfg()), seed);
        let s2 = fault_free_fingerprint(World::new_sharded(cfg()), seed);
        prop_assert_eq!(&plain, &s1, "pruning perturbed the sharded run");
        prop_assert_eq!(&s1, &s2, "pruned sharded replay diverged");
    }

    /// Paging → eviction → fault-in → checkpoint round-trip: for any seed,
    /// a run whose world state is paged down to two resident pages of four
    /// slots — interleaved with checkpoint seals and pruning — produces a
    /// replay fingerprint (which embeds the state commitment) byte-identical
    /// to the never-evicting run of the same seed, on both ledger backends
    /// and through both page-store backings (in-memory log and spill files
    /// on disk). Eviction must move bytes, never rows.
    #[test]
    fn paged_runs_fingerprint_identically_to_unpaged(seed in 0u64..200) {
        let spill_dir = std::env::temp_dir().join(format!(
            "duc-paged-prop-{}-{seed}",
            std::process::id()
        ));
        let tiny = PagingConfig::in_memory(Some(2)).with_page_capacity(4);
        let disk = tiny.clone().with_spill_dir(&spill_dir);
        let paged = |p: &PagingConfig, shards| WorldConfig {
            storage: StorageConfig::enabled(2, 2).with_paging(p.clone()),
            ..config(seed, shards)
        };

        let plain = fault_free_fingerprint(World::new(config(seed, 1)), seed);
        let mem = fault_free_fingerprint(World::new(paged(&tiny, 1)), seed);
        let file = fault_free_fingerprint(World::new(paged(&disk, 1)), seed);
        prop_assert_eq!(&plain, &mem, "paging perturbed the single-chain run");
        prop_assert_eq!(&mem, &file, "spill-to-disk diverged from in-memory spill");

        let plain = fault_free_fingerprint(World::new_sharded(config(seed, 4)), seed);
        let s1 = fault_free_fingerprint(World::new_sharded(paged(&tiny, 4)), seed);
        let s2 = fault_free_fingerprint(World::new_sharded(paged(&tiny, 4)), seed);
        prop_assert_eq!(&plain, &s1, "paging perturbed the sharded run");
        prop_assert_eq!(&s1, &s2, "paged sharded replay diverged");

        let _ = std::fs::remove_dir_all(&spill_dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// For any seed, the serial and parallel executors produce
    /// byte-identical replay fingerprints on both ledger backends: same
    /// blocks, same receipts, same event stream, same balances.
    #[test]
    fn parallel_runs_fingerprint_identically_to_serial(seed in 0u64..200) {
        let serial = |shards| config_in(ExecMode::Serial, seed, shards);
        let parallel = |shards| config_in(ExecMode::Parallel, seed, shards);
        let s = fault_free_fingerprint(World::new(serial(1)), seed);
        let p = fault_free_fingerprint(World::new(parallel(1)), seed);
        prop_assert_eq!(&s, &p, "single-chain serial/parallel diverged");
        let s = fault_free_fingerprint(World::new_sharded(serial(4)), seed);
        let p = fault_free_fingerprint(World::new_sharded(parallel(4)), seed);
        prop_assert_eq!(&s, &p, "sharded serial/parallel diverged");
    }
}

/// A sealed checkpoint survives a codec round-trip bit-for-bit, and the
/// sealed state commitment stays verifiable against the chain's recorded
/// headers after pruning (the restore anchor of the storage layer).
#[test]
fn checkpoints_roundtrip_and_stay_verifiable() {
    let cfg = WorldConfig {
        storage: StorageConfig::enabled(2, 2),
        ..config(5, 1)
    };
    let (mut world, resource) = chaos::launch_pad_in(World::new(cfg), OWNER, PATH, 3);
    let batch = chaos::mixed_batch(OWNER, PATH, &resource, 3);
    chaos::run_chaos(&mut world, batch, FaultPlan::none()).expect("invariants");
    assert!(world.chain.prune_horizon() > 0, "the run pruned");
    let cp = world.chain.last_checkpoint().expect("sealed").clone();
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

#[test]
fn sharded_runs_replay_byte_identically() {
    let run = |seed: u64| {
        let (mut world, resource) =
            chaos::launch_pad_in(World::new_sharded(config(seed, 4)), OWNER, PATH, 4);
        let plan = chaos::random_plan(&world, seed.wrapping_mul(31), SimDuration::from_secs(15), 5);
        let batch = chaos::mixed_batch(OWNER, PATH, &resource, 4);
        chaos::run_chaos(&mut world, batch, plan).expect("invariants");
        chaos::fingerprint(&mut world)
    };
    assert_eq!(run(42), run(42), "identically-seeded sharded runs replay");
    assert_ne!(run(42), run(43), "different seeds diverge");
}
