//! E1–E12 and E14: the paper's tables — its six processes (Fig. 2), the privacy,
//! robustness and affordability claims of §V, and the baselines and
//! ablations beside them.
//!
//! Pinned: every function here is seeded, takes no population cap and
//! reads no host clock, so every cell it prints is a function of the code
//! alone. `BENCH_seed.json` is their one committed copy; the crate's
//! `bench_seed` test replays them against it.

use duc_contracts::calls::{ListCopies, StartMonitoring, VerifyCertificate};
use duc_core::baseline::{CentralizedAuditBaseline, PlainSolidBaseline};
use duc_core::chaos::fixed_link;
use duc_core::prelude::*;
use duc_core::scenario;
use duc_policy::{Action, Constraint, Duty, Purpose, Rule, UsagePolicy};
use duc_sim::{FaultPlan, LinkConfig, SimDuration};
use duc_solid::Body;

use crate::experiments::{ms, world_config};
use crate::table::Table;

const OWNER: &str = "https://owner.id/me";

/// Builds a world with one owner, one shared resource of `body_bytes`
/// under a `retention_days` policy, and `n_devices` devices that have
/// subscribed, indexed and fetched a copy.
fn world_with_copies_in(
    config: WorldConfig,
    n_devices: usize,
    body_bytes: usize,
    retention_days: u64,
) -> (World, String) {
    let mut world = World::new(config);
    world.add_owner(OWNER, "https://owner.pod/");
    for i in 0..n_devices {
        world.add_device(format!("device-{i}"), format!("https://c{i}.id/me"));
    }
    world.pod_initiation(OWNER).expect("pod init");
    let iri = world.owner(OWNER).pod_manager.pod().iri_of("data/set.bin");
    let policy = scenario::population_policy(&iri, OWNER, retention_days);
    let resource = world
        .resource_initiation(
            OWNER,
            "data/set.bin",
            Body::Binary(vec![0xA5; body_bytes]),
            policy,
            vec![],
        )
        .expect("resource init");
    for i in 0..n_devices {
        let d = format!("device-{i}");
        world.market_subscribe(&d).expect("subscribe");
        world.resource_indexing(&d, &resource).expect("index");
        world.resource_access(&d, &resource).expect("access");
    }
    (world, resource)
}

/// [`world_with_copies_in`] with the default config and 7-day retention.
fn world_with_copies(n_devices: usize, body_bytes: usize, seed: u64) -> (World, String) {
    world_with_copies_in(world_config(seed), n_devices, body_bytes, 7)
}

/// The E8 launch pad: the canonical chaos world (`duc_core::chaos`) with
/// `n_devices` subscribed, indexed copy holders; the measured batch's
/// `process.access.e2e` histogram is reset so the fault-free setup
/// accesses do not dilute the chaos tail.
fn world_with_market(n_devices: usize, seed: u64) -> (World, String) {
    let (mut world, resource) =
        duc_core::chaos::launch_pad(OWNER, "data/set.bin", n_devices, world_config(seed));
    *world.metrics.histogram_mut("process.access.e2e") = duc_sim::Histogram::new();
    (world, resource)
}

// ---------------------------------------------------------------------- E1

/// E1 — pod initiation latency and gas (Fig. 2.1).
pub fn e1_pod_initiation() -> Vec<Table> {
    let mut table = Table::new(
        "E1 · pod initiation (Fig 2.1) — 20 owners per link profile",
        &["link", "mean ms", "p95 ms", "max ms", "gas/op"],
    );
    for (label, link) in [
        ("LAN 2ms", LinkConfig::default()),
        ("fixed 10ms", fixed_link(10)),
        ("WAN 40ms+exp", LinkConfig::wan()),
    ] {
        let mut world = World::new(WorldConfig {
            link,
            seed: 1,
            ..WorldConfig::default()
        });
        for i in 0..20 {
            world.add_owner(format!("https://o{i}.id/me"), format!("https://o{i}.pod/"));
        }
        for i in 0..20 {
            // Random sub-slot phase: operations do not all start exactly at
            // a block boundary.
            let offset = world.rng.gen_range(2_000);
            world.advance(SimDuration::from_millis(offset));
            world
                .pod_initiation(&format!("https://o{i}.id/me"))
                .expect("init");
        }
        let gas = world.metrics.counter("process.pod_init.gas") / 20;
        let h = world.metrics.histogram_mut("process.pod_init.e2e");
        table.row(vec![
            label.to_string(),
            ms(h.mean()),
            ms(h.p95()),
            ms(h.max()),
            gas.to_string(),
        ]);
    }
    vec![table]
}

// ---------------------------------------------------------------------- E2

/// E2 — resource initiation vs policy complexity (Fig. 2.2).
pub fn e2_resource_initiation() -> Vec<Table> {
    let mut table = Table::new(
        "E2 · resource initiation (Fig 2.2) — policy complexity sweep",
        &["rules", "policy bytes", "mean ms", "gas/op"],
    );
    for n_rules in [1usize, 4, 16, 64] {
        let mut world = World::new(world_config(2));
        world.add_owner(OWNER, "https://owner.pod/");
        world.pod_initiation(OWNER).expect("pod");
        let reps = 10;
        let mut policy_bytes = 0usize;
        for r in 0..reps {
            let iri = world
                .owner(OWNER)
                .pod_manager
                .pod()
                .iri_of(&format!("data/r{n_rules}-{r}.bin"));
            let mut builder = UsagePolicy::builder(format!("{iri}#policy"), iri, OWNER);
            for k in 0..n_rules {
                builder = builder.permit(
                    Rule::permit([Action::Read])
                        .with_constraint(Constraint::Purpose(vec![Purpose::new(format!("p{k}"))]))
                        .with_constraint(Constraint::MaxAccessCount(k as u64 + 1)),
                );
            }
            let policy = builder.duty(Duty::LogAccesses).build();
            policy_bytes = duc_codec::encode_to_vec(&policy).len();
            world
                .resource_initiation(
                    OWNER,
                    &format!("data/r{n_rules}-{r}.bin"),
                    Body::Binary(vec![1; 256]),
                    policy,
                    vec![],
                )
                .expect("resource init");
        }
        let gas = world.metrics.counter("process.resource_init.gas") / reps as u64;
        let h = world.metrics.histogram_mut("process.resource_init.e2e");
        table.row(vec![
            n_rules.to_string(),
            policy_bytes.to_string(),
            ms(h.mean()),
            gas.to_string(),
        ]);
    }
    vec![table]
}

// ---------------------------------------------------------------------- E3

/// E3 — resource indexing latency vs index size (Fig. 2.3).
pub fn e3_indexing() -> Vec<Table> {
    let mut table = Table::new(
        "E3 · resource indexing (Fig 2.3) — pull-out read vs index size",
        &[
            "index size",
            "lookup mean ms",
            "lookup p95 ms",
            "state slots",
        ],
    );
    for index_size in [10usize, 100, 500] {
        let mut world = World::new(world_config(3));
        world.add_owner(OWNER, "https://owner.pod/");
        world.add_device("reader", "https://reader.id/me");
        world.pod_initiation(OWNER).expect("pod");
        // Bulk-register resources: submit in batches, confirm per block.
        let owner_key = world.owner(OWNER).key;
        for i in 0..index_size {
            let iri = format!("https://owner.pod/data/res-{i:05}.bin");
            let policy = scenario::population_policy(&iri, OWNER, 30);
            let env = world.envelope(&policy);
            let tx = world.dex.register_resource_tx(
                &world.chain,
                &owner_key,
                &iri,
                &iri,
                OWNER,
                vec![],
                env,
            );
            world.chain.submit(tx).expect("submit");
        }
        while world.chain.pending_count() > 0 {
            world.advance(SimDuration::from_secs(2));
        }
        // Measure indexed lookups.
        for i in 0..20 {
            let target = format!("https://owner.pod/data/res-{:05}.bin", i % index_size);
            world.resource_indexing("reader", &target).expect("lookup");
        }
        let (slots, _) = world.chain.state_size();
        let h = world.metrics.histogram_mut("process.indexing.e2e");
        table.row(vec![
            index_size.to_string(),
            ms(h.mean()),
            ms(h.p95()),
            slots.to_string(),
        ]);
    }
    vec![table]
}

// ---------------------------------------------------------------------- E4

/// E4 — resource access vs resource size (Fig. 2.4).
pub fn e4_access() -> Vec<Table> {
    let mut table = Table::new(
        "E4 · resource access (Fig 2.4) — size sweep (10 MB/s links)",
        &["size", "fetch ms", "e2e ms", "gas/op"],
    );
    for (label, bytes) in [
        ("1 KiB", 1 << 10),
        ("100 KiB", 100 << 10),
        ("1 MiB", 1 << 20),
        ("10 MiB", 10 << 20),
    ] {
        let (mut world, _) = world_with_copies(1, bytes, 4);
        world.sync_chain();
        let gas = world.metrics.counter("process.access.gas");
        let mut m = world.metrics.clone();
        let fetch = m.histogram_mut("process.access.fetch").mean();
        let e2e = m.histogram_mut("process.access.e2e").mean();
        table.row(vec![label.to_string(), ms(fetch), ms(e2e), gas.to_string()]);
    }
    vec![table]
}

// ---------------------------------------------------------------------- E5

/// E5 — policy-update propagation fan-out (Fig. 2.5).
pub fn e5_propagation() -> Vec<Table> {
    let mut table = Table::new(
        "E5 · policy modification (Fig 2.5) — push-out fan-out",
        &[
            "devices",
            "notified",
            "mean prop ms",
            "max prop ms",
            "e2e ms",
            "deletions",
        ],
    );
    for n in [1usize, 4, 16, 64] {
        let (mut world, _resource) = world_with_copies(n, 4 << 10, 5);
        // Tighten retention to zero: every copy must be erased on arrival.
        let outcome = world
            .policy_modification(
                OWNER,
                "data/set.bin",
                vec![Rule::permit([Action::Use])
                    .with_constraint(Constraint::MaxRetention(SimDuration::ZERO))],
                vec![Duty::DeleteWithin(SimDuration::ZERO)],
            )
            .expect("modification");
        assert_eq!(
            outcome.enforcement.len(),
            n,
            "E5 gate: one action per holder"
        );
        let deletions = outcome
            .enforcement
            .iter()
            .filter(|(_, a)| matches!(a, duc_tee::EnforcementAction::Deleted { .. }))
            .count();
        let h = world
            .metrics
            .histogram_mut("process.policy_mod.propagation");
        table.row(vec![
            n.to_string(),
            outcome.devices_notified.to_string(),
            ms(h.mean()),
            ms(h.max()),
            ms(outcome.e2e),
            deletions.to_string(),
        ]);
    }
    vec![table, e5b_access_history()]
}

/// E5b — the same fan-out when every device has accessed `prior` resources
/// of the owner before one of them changes policy. E5 gives each device
/// one access, so it cannot show a cost that grows with access history;
/// this table gates that there is none: who is notified and what the relay
/// transmits depend on the holders and subscribers of the moment only.
fn e5b_access_history() -> Table {
    const DEVICES: usize = 16;
    let mut table = Table::new(
        "E5b · fan-out vs access history — 16 devices, one policy change",
        &[
            "prior accesses/device",
            "notified",
            "relay messages/update",
            "mean prop ms",
        ],
    );
    let mut first: Option<(usize, u64)> = None;
    for prior in [1usize, 8, 32] {
        // One shared resource held by every device, as in E5, plus
        // `prior - 1` more of the same owner that every device accessed.
        let (mut world, _resource) = world_with_copies(DEVICES, 1 << 10, 5);
        for j in 1..prior {
            let path = format!("data/extra-{j}.bin");
            let iri = world.owner(OWNER).pod_manager.pod().iri_of(&path);
            let body = Body::Binary(vec![0xA5; 1 << 10]);
            let resource = world
                .resource_initiation(
                    OWNER,
                    &path,
                    body,
                    scenario::population_policy(&iri, OWNER, 7),
                    vec![],
                )
                .expect("resource init");
            for i in 0..DEVICES {
                let d = format!("device-{i}");
                world.resource_indexing(&d, &resource).expect("index");
                world.resource_access(&d, &resource).expect("access");
            }
        }

        let outcome = world
            .policy_modification(
                OWNER,
                "data/set.bin",
                vec![Rule::permit([Action::Use])
                    .with_constraint(Constraint::MaxRetention(SimDuration::from_days(3)))],
                vec![Duty::DeleteWithin(SimDuration::from_days(3))],
            )
            .expect("modification");
        // The relay drains for the first time here: this update's event is
        // all it has ever transmitted.
        let (delivered, dropped) = world.push_out.stats();
        let messages = delivered + dropped;
        let seen = (outcome.devices_notified, messages);
        assert_eq!(
            *first.get_or_insert(seen),
            seen,
            "E5b gate: (notified, relay messages) moved with {prior} prior accesses per device"
        );
        let h = world
            .metrics
            .histogram_mut("process.policy_mod.propagation");
        table.row(vec![
            prior.to_string(),
            outcome.devices_notified.to_string(),
            messages.to_string(),
            ms(h.mean()),
        ]);
    }
    table
}

// ---------------------------------------------------------------------- E6

/// E6 — monitoring round scaling and violation detection (Fig. 2.6).
pub fn e6_monitoring() -> Vec<Table> {
    let mut table = Table::new(
        "E6 · policy monitoring (Fig 2.6) — round scaling with injected violators",
        &[
            "devices",
            "violators injected",
            "detected",
            "round ms",
            "evidence bytes",
            "gas",
        ],
    );
    for n in [1usize, 4, 16, 64, 256] {
        let (mut world, _resource) = world_with_copies(n, 4 << 10, 6);
        // A quarter of the devices (>=1 when n>=4) go rogue: their hosts
        // suppress the enclave timers, so copies outlive the deadline.
        let rogue = if n >= 4 { n / 4 } else { 0 };
        let injected: Vec<String> = (0..rogue).map(|i| format!("device-{i}")).collect();
        for device in &injected {
            world.set_rogue_host(device, true);
        }
        world.advance(SimDuration::from_days(8)); // past the 7-day bound
        let gas_before = world.metrics.counter("process.monitoring.gas");
        let outcome = world
            .policy_monitoring(OWNER, "data/set.bin")
            .expect("round");
        let gas = world.metrics.counter("process.monitoring.gas") - gas_before;
        table.row(vec![
            n.to_string(),
            rogue.to_string(),
            outcome.violators.len().to_string(),
            ms(outcome.duration),
            outcome.evidence_bytes.to_string(),
            gas.to_string(),
        ]);
        assert!(
            outcome.violators.len() == rogue
                && injected.iter().all(|d| outcome.violators.contains(d)),
            "E6 gate: the round must catch exactly the rogue devices, caught {:?}",
            outcome.violators
        );
    }
    vec![table]
}

// ---------------------------------------------------------------------- E7

/// E7 — affordability: the gas ledger of the full §II scenario (§V-4).
pub fn e7_gas_table() -> Vec<Table> {
    let mut world = scenario::build_world(WorldConfig::default());
    let report = scenario::run(&mut world).expect("scenario");
    let mut per_method = Table::new(
        "E7 · affordability (§V-4) — gas by DE App method over the §II scenario",
        &["contract", "method", "calls", "total gas", "mean gas"],
    );
    for ((contract, method), (calls, total, mean)) in world.chain.gas_by_method() {
        per_method.row(vec![
            contract,
            method,
            calls.to_string(),
            total.to_string(),
            mean.to_string(),
        ]);
    }
    let mut per_process = Table::new(
        "E7 · gas per architecture process",
        &["process", "total gas"],
    );
    for key in [
        "process.pod_init.gas",
        "process.resource_init.gas",
        "process.subscribe.gas",
        "process.access.gas",
        "process.policy_mod.gas",
        "process.monitoring.gas",
    ] {
        per_process.row(vec![
            key.to_string(),
            world.metrics.counter(key).to_string(),
        ]);
    }
    per_process.row(vec![
        "scenario total".to_string(),
        report.total_gas.to_string(),
    ]);
    vec![per_method, per_process]
}

// ---------------------------------------------------------------------- E8

/// Number of plans in [`e8_fault_plans`] (each E8a row rebuilds the world,
/// so the matrix size is fixed up front).
const E8_PLAN_COUNT: usize = 7;

/// The fault-plan matrix of E8a: one deterministic plan per label, built
/// against a concrete world (endpoints and validator indices are
/// world-specific).
fn e8_fault_plans(world: &World, n_devices: usize) -> Vec<(&'static str, FaultPlan)> {
    let t0 = world.clock.now();
    let s = SimDuration::from_secs;
    let relay = world.push_in.relay;
    let pod = world.owner(OWNER).endpoint;
    let dev = |i: usize| world.device(&format!("device-{i}")).endpoint;
    let lossy_uplinks = |mut plan: FaultPlan, per_mille: u16| {
        for i in 0..n_devices {
            plan = plan.drop_window(dev(i), relay, t0, t0 + s(60), per_mille);
        }
        plan
    };
    vec![
        ("none", FaultPlan::none()),
        (
            "relay crash 0–6 s",
            FaultPlan::none().crash(relay, t0, t0 + s(6)),
        ),
        (
            "pod crash 0–8 s",
            FaultPlan::none().crash(pod, t0, t0 + s(8)),
        ),
        (
            "device partitions 0–20 s",
            (0..n_devices.min(4)).fold(FaultPlan::none(), |plan, i| {
                plan.partition(dev(i), relay, t0, t0 + s(20))
            }),
        ),
        (
            "30% uplink loss 0–60 s",
            lossy_uplinks(FaultPlan::none(), 300),
        ),
        (
            "validator stall 3/5 0–30 s",
            (0..3).fold(FaultPlan::none(), |plan, i| {
                plan.validator_stall(i, t0, t0 + s(30))
            }),
        ),
        (
            "combined",
            lossy_uplinks(
                FaultPlan::none()
                    .crash(relay, t0 + s(1), t0 + s(4))
                    .validator_stall(0, t0, t0 + s(30)),
                200,
            ),
        ),
    ]
}

/// E8 — robustness (§V-2): a deterministic chaos matrix on the concurrent
/// driver, a seeded random chaos sweep, and the tamper matrix.
pub fn e8_robustness() -> Vec<Table> {
    let n_devices = 12usize;

    // (a) Chaos matrix: N concurrent accesses racing two monitoring rounds
    // under each fault plan; every ticket must resolve and every invariant
    // must hold (duc_core::chaos checks them).
    let mut matrix = Table::new(
        format!(
            "E8a · chaos matrix — {} concurrent requests per fault plan (driver-based)",
            n_devices + 2
        ),
        &[
            "plan",
            "ok",
            "gave up",
            "hop drops",
            "suspends",
            "net dropped",
            "access p95 ms",
            "access p99 ms",
        ],
    );
    for index in 0..E8_PLAN_COUNT {
        let (mut world, resource) = world_with_market(n_devices, 80);
        let mut plans = e8_fault_plans(&world, n_devices);
        assert_eq!(plans.len(), E8_PLAN_COUNT, "keep E8_PLAN_COUNT in sync");
        let (label, plan) = plans.swap_remove(index);
        let batch = duc_core::chaos::mixed_batch(OWNER, "data/set.bin", &resource, n_devices);
        let requests = batch.len();
        let run = duc_core::chaos::run_chaos(&mut world, batch, plan)
            .unwrap_or_else(|e| panic!("E8a plan {label:?}: {e}"));
        assert_eq!(
            run.outcomes.len(),
            requests,
            "every ticket resolves under {label:?}"
        );
        // The row's network column is read from the metrics snapshot and
        // cross-checked against the model's own counters.
        let snapshot = world.metrics_snapshot();
        let (_, dropped, _) = world.net.stats();
        assert_eq!(
            snapshot.counter("net.messages_dropped"),
            dropped,
            "metrics mirror the network model under {label:?}"
        );
        let (part, down, loss_drops) = world.net.drop_breakdown();
        assert_eq!(
            snapshot.counter("net.dropped.partition")
                + snapshot.counter("net.dropped.down")
                + snapshot.counter("net.dropped.loss"),
            part + down + loss_drops,
            "drop breakdown sums under {label:?}"
        );
        let h = world.metrics.histogram_mut("process.access.e2e");
        let (p95, p99) = (h.p95(), h.p99());
        matrix.row(vec![
            label.to_string(),
            run.ok.to_string(),
            run.failed.to_string(),
            world.metrics.counter("driver.hop.drops").to_string(),
            world.metrics.counter("driver.hop.suspended").to_string(),
            snapshot.counter("net.messages_dropped").to_string(),
            ms(p95),
            ms(p99),
        ]);
    }

    // (b) Seeded random chaos sweep: the same batch under random fault
    // plans — completion statistics over the seed matrix.
    let mut sweep = Table::new(
        "E8b · seeded random chaos — completion under random fault plans (6 devices)",
        &[
            "chaos seed",
            "ok",
            "gave up",
            "hop drops",
            "suspends",
            "makespan ms",
        ],
    );
    for chaos_seed in [2u64, 5, 9, 14, 17] {
        let (mut world, resource) = world_with_market(6, 81);
        let plan = duc_core::chaos::random_plan(&world, chaos_seed, SimDuration::from_secs(12), 5);
        let batch = duc_core::chaos::mixed_batch(OWNER, "data/set.bin", &resource, 6);
        let run = duc_core::chaos::run_chaos(&mut world, batch, plan)
            .unwrap_or_else(|e| panic!("E8b seed {chaos_seed}: {e}"));
        sweep.row(vec![
            chaos_seed.to_string(),
            run.ok.to_string(),
            run.failed.to_string(),
            world.metrics.counter("driver.hop.drops").to_string(),
            world.metrics.counter("driver.hop.suspended").to_string(),
            ms(run.makespan),
        ]);
    }

    // (c) Tamper matrix: every forgery class is rejected.
    let mut tamper = Table::new(
        "E8c · tamper matrix — attacks rejected by layer (§V-2)",
        &["attack", "rejected by", "outcome"],
    );
    {
        let (mut world, resource) = world_with_copies(1, 1 << 10, 888);
        // 1. Policy update by a non-owner.
        let mallory = world.chain.create_funded_account(b"mallory", 1_000_000_000);
        let policy = scenario::population_policy(&resource, OWNER, 1);
        let env = world.envelope(&policy);
        let tx = world
            .dex
            .update_policy_tx(&world.chain, &mallory, &resource, env, 2);
        let id = world.chain.submit(tx).expect("accepted into mempool");
        world.advance(SimDuration::from_secs(2));
        let status = world.chain.receipt(&id).map(|r| r.status.clone());
        tamper.row(vec![
            "policy update by non-owner".into(),
            "DE App owner check".into(),
            format!("{status:?}"),
        ]);
        // 2. Stale version replay.
        let owner_key = world.owner(OWNER).key;
        let env = world.envelope(&scenario::population_policy(&resource, OWNER, 1));
        let tx = world
            .dex
            .update_policy_tx(&world.chain, &owner_key, &resource, env, 1);
        let id = world.chain.submit(tx).expect("mempool");
        world.advance(SimDuration::from_secs(2));
        let status = world.chain.receipt(&id).map(|r| r.status.clone());
        tamper.row(vec![
            "stale policy version replay".into(),
            "DE App version check".into(),
            format!("{status:?}"),
        ]);
        // 3. Forged evidence (wrong key).
        let start = StartMonitoring {
            resource: resource.clone(),
        };
        let tx = world.dex.call_tx(&world.chain, &owner_key, start.clone());
        let id = world.chain.submit(tx).expect("mempool");
        world.advance(SimDuration::from_secs(2));
        let round = duc_contracts::DistExchangeClient::decode_return::<StartMonitoring>(
            &world.chain.receipt(&id).expect("receipt").return_data,
        )
        .expect("round");
        let mut forged = duc_contracts::EvidenceSubmission {
            resource: resource.clone(),
            round,
            device: "device-0".into(),
            compliant: true,
            violations: vec![],
            evidence_digest: duc_crypto::sha256(b"fake"),
            signature: duc_crypto::Signature { e: 0, s: 0 },
        };
        forged.signature = duc_crypto::KeyPair::from_seed(b"mallory").sign(&forged.signing_bytes());
        let dev_key = world.device("device-0").key;
        let tx = world.dex.call_tx(&world.chain, &dev_key, forged);
        let id = world.chain.submit(tx).expect("mempool");
        world.advance(SimDuration::from_secs(2));
        let status = world.chain.receipt(&id).map(|r| r.status.clone());
        tamper.row(vec![
            "evidence signed by wrong key".into(),
            "DE App attestation-key check".into(),
            format!("{status:?}"),
        ]);
        // 4. Tampered signed transaction.
        let mut tx = world.dex.call_tx(&world.chain, &owner_key, start);
        tx.tx.gas_limit += 1;
        let submit = world.chain.submit(tx);
        tamper.row(vec![
            "tampered transaction bytes".into(),
            "chain signature check".into(),
            format!("{submit:?}"),
        ]);
        // 5. Forged certificate at the pod manager.
        let fake_cert = duc_crypto::sha256(b"forged-cert");
        let verify = VerifyCertificate {
            certificate: fake_cert,
            webid: "https://c0.id/me".into(),
        };
        let ok = world.dex.view(&world.chain, verify).expect("view");
        tamper.row(vec![
            "forged market certificate".into(),
            "DE App certificate registry".into(),
            format!("valid={ok}"),
        ]);
        // 6. Block tampering detected by chain validation.
        let verdict = world.chain.validate_chain();
        tamper.row(vec![
            "ledger self-check (control)".into(),
            "block validation".into(),
            format!("{verdict:?}"),
        ]);
    }
    vec![matrix, sweep, tamper]
}

// ---------------------------------------------------------------------- E9

/// E9 — privacy: encrypted on-chain policies, and TEE locality (§V-1).
pub fn e9_privacy() -> Vec<Table> {
    let mut enc = Table::new(
        "E9a · encrypted vs plaintext on-chain policies",
        &[
            "mode",
            "register gas",
            "update gas",
            "policy readable from ledger",
        ],
    );
    for encrypt in [false, true] {
        let mut world = World::new(WorldConfig {
            encrypt_policies: encrypt,
            ..world_config(9)
        });
        world.add_owner(OWNER, "https://owner.pod/");
        world.pod_initiation(OWNER).expect("pod");
        let iri = world.owner(OWNER).pod_manager.pod().iri_of("data/x");
        world
            .resource_initiation(
                OWNER,
                "data/x",
                Body::Text("x".into()),
                scenario::population_policy(&iri, OWNER, 30),
                vec![],
            )
            .expect("res");
        world
            .policy_modification(
                OWNER,
                "data/x",
                vec![Rule::permit([Action::Use])
                    .with_constraint(Constraint::MaxRetention(SimDuration::from_days(7)))],
                vec![Duty::DeleteWithin(SimDuration::from_days(7))],
            )
            .expect("mod");
        // Can a ledger observer read the policy without the key?
        let record = world
            .dex
            .lookup_resource(&world.chain, &iri)
            .expect("view")
            .expect("record");
        let readable = record.policy.open_plain().is_ok();
        enc.row(vec![
            if encrypt {
                "encrypted".into()
            } else {
                "plaintext".to_string()
            },
            world
                .metrics
                .counter("process.resource_init.gas")
                .to_string(),
            world.metrics.counter("process.policy_mod.gas").to_string(),
            readable.to_string(),
        ]);
    }

    let mut locality = Table::new(
        "E9b · TEE locality — local re-access vs re-fetch from pod (100 KiB)",
        &["path", "latency ms"],
    );
    {
        let (mut world, resource) = world_with_copies(1, 100 << 10, 99);
        // Local, policy-mediated re-access inside the TEE: zero network.
        let t0 = world.clock.now();
        {
            let now = world.clock.now();
            let device = world.devices.get_mut("device-0").expect("device");
            device
                .tee
                .access(&resource, Action::Read, Purpose::any(), now)
                .expect("local access");
        }
        locality.row(vec![
            "TEE local re-access".into(),
            ms(world.clock.now() - t0),
        ]);
        // Re-fetch from the pod over the network.
        let t0 = world.clock.now();
        PlainSolidBaseline::access(&mut world, "device-0", OWNER, "data/set.bin").expect("fetch");
        locality.row(vec!["re-fetch from pod".into(), ms(world.clock.now() - t0)]);
    }
    vec![enc, locality]
}

// --------------------------------------------------------------------- E10

/// E10 — baselines: plain-Solid access and centralized auditing.
pub fn e10_baseline() -> Vec<Table> {
    let mut access = Table::new(
        "E10a · access: plain Solid vs full usage-control pipeline (100 KiB)",
        &["variant", "latency ms", "owner control after download"],
    );
    {
        let (mut world, _resource) = world_with_copies(1, 100 << 10, 10);
        let mut m = world.metrics.clone();
        let full = m.histogram_mut("process.access.e2e").mean();
        let fetch_only = m.histogram_mut("process.access.fetch").mean();
        let plain = PlainSolidBaseline::access(&mut world, "device-0", OWNER, "data/set.bin")
            .expect("plain");
        access.row(vec!["plain Solid GET".into(), ms(plain), "none".into()]);
        access.row(vec![
            "usage-control fetch (pod hop only)".into(),
            ms(fetch_only),
            "policy-sealed copy".into(),
        ]);
        access.row(vec![
            "usage-control end-to-end (incl. copy registration)".into(),
            ms(full),
            "policy-sealed + on-chain copy record".into(),
        ]);
    }

    let mut monitor = Table::new(
        "E10b · monitoring: on-chain round vs centralized polling (16 devices)",
        &[
            "variant",
            "duration ms",
            "bytes",
            "violators found",
            "tamper-proof evidence",
        ],
    );
    {
        let (mut world, _resource) = world_with_copies(16, 4 << 10, 101);
        for i in 0..4 {
            world.set_rogue_host(format!("device-{i}"), true);
        }
        world.advance(SimDuration::from_days(8));
        let onchain = world
            .policy_monitoring(OWNER, "data/set.bin")
            .expect("round");
        monitor.row(vec![
            "on-chain monitoring (process 6)".into(),
            ms(onchain.duration),
            onchain.evidence_bytes.to_string(),
            onchain.violators.len().to_string(),
            "yes (signed, ledger-recorded)".into(),
        ]);
        let devices: Vec<String> = (0..16).map(|i| format!("device-{i}")).collect();
        let central =
            CentralizedAuditBaseline::monitor(&mut world, OWNER, "data/set.bin", &devices)
                .expect("central");
        monitor.row(vec![
            "centralized polling baseline".into(),
            ms(central.duration),
            central.bytes.to_string(),
            central.violators.len().to_string(),
            "no (owner-trusted only)".into(),
        ]);
    }
    vec![access, monitor]
}

// --------------------------------------------------------------------- E11

/// E11 — enforcement ablation: push-based propagation vs device polling.
pub fn e11_enforcement() -> Vec<Table> {
    let mut table = Table::new(
        "E11 · enforcement ablation — revocation-to-deletion lag (8 devices)",
        &["mechanism", "mean lag ms", "max lag ms"],
    );

    // Push-based (the paper's architecture): process 5 does it all.
    {
        let (mut world, _resource) = world_with_copies(8, 4 << 10, 11);
        let t0 = world.clock.now();
        let outcome = world
            .policy_modification(
                OWNER,
                "data/set.bin",
                vec![Rule::permit([Action::Use])
                    .with_constraint(Constraint::MaxRetention(SimDuration::ZERO))],
                vec![Duty::DeleteWithin(SimDuration::ZERO)],
            )
            .expect("modification");
        let lags: Vec<SimDuration> = outcome
            .enforcement
            .iter()
            .filter_map(|(_, a)| match a {
                duc_tee::EnforcementAction::Deleted { at, .. } => Some(*at - t0),
                _ => None,
            })
            .collect();
        let mean = lags.iter().map(|d| d.as_nanos()).sum::<u64>() / lags.len().max(1) as u64;
        let max = lags.iter().map(|d| d.as_nanos()).max().unwrap_or(0);
        table.row(vec![
            "push-out oracle (paper)".into(),
            ms(SimDuration::from_nanos(mean)),
            ms(SimDuration::from_nanos(max)),
        ]);
    }

    // Polling: devices look up the policy every T and apply what they find.
    for (label, interval) in [
        ("device polling, 1 min", SimDuration::from_mins(1)),
        ("device polling, 10 min", SimDuration::from_mins(10)),
        ("device polling, 1 h", SimDuration::from_hours(1)),
    ] {
        let (mut world, resource) = world_with_copies(8, 4 << 10, 12);
        // The owner updates on-chain only (no push-out fan-out): build and
        // confirm the update transaction directly.
        let owner_key = world.owner(OWNER).key;
        let policy = world
            .owner(OWNER)
            .pod_manager
            .policy_for("data/set.bin")
            .expect("policy");
        let amended = policy.amended(
            vec![Rule::permit([Action::Use])
                .with_constraint(Constraint::MaxRetention(SimDuration::ZERO))],
            vec![Duty::DeleteWithin(SimDuration::ZERO)],
        );
        let env = world.envelope(&amended);
        let tx =
            world
                .dex
                .update_policy_tx(&world.chain, &owner_key, &resource, env, amended.version);
        world.chain.submit(tx).expect("mempool");
        world.advance(SimDuration::from_secs(2));
        let update_time = world.clock.now();
        // Devices poll at their own phase-shifted schedule.
        let mut lags = Vec::new();
        for i in 0..8usize {
            let phase = SimDuration::from_nanos(interval.as_nanos() / 8 * i as u64);
            let poll_at = update_time + phase + interval.div(8);
            world.clock.advance_to(poll_at);
            let record = world
                .dex
                .lookup_resource(&world.chain, &resource)
                .expect("view")
                .expect("record");
            let fresh = world.shared_policy(&record.policy).expect("policy");
            let device = world
                .devices
                .get_mut(&format!("device-{i}"))
                .expect("device");
            let actions = device.tee.apply_policy_update(&resource, fresh, poll_at);
            for a in actions {
                if let duc_tee::EnforcementAction::Deleted { at, .. } = a {
                    lags.push(at - update_time);
                }
            }
        }
        let mean = lags.iter().map(|d| d.as_nanos()).sum::<u64>() / lags.len().max(1) as u64;
        let max = lags.iter().map(|d| d.as_nanos()).max().unwrap_or(0);
        table.row(vec![
            label.to_string(),
            ms(SimDuration::from_nanos(mean)),
            ms(SimDuration::from_nanos(max)),
        ]);
    }
    vec![table]
}

// --------------------------------------------------------------------- E12

/// E12 — DE App and chain scalability (the paper's future-work axis).
pub fn e12_chain_scale() -> Vec<Table> {
    let mut growth = Table::new(
        "E12a · state growth vs registered resources",
        &["resources", "state slots", "state KiB", "mean register gas"],
    );
    for n in [100usize, 500, 1000] {
        let mut world = World::new(WorldConfig {
            link: fixed_link(5),
            seed: 120,
            ..WorldConfig::default()
        });
        world.add_owner(OWNER, "https://owner.pod/");
        world.pod_initiation(OWNER).expect("pod");
        let owner_key = world.owner(OWNER).key;
        for i in 0..n {
            let iri = format!("https://owner.pod/data/res-{i:06}");
            let policy = scenario::population_policy(&iri, OWNER, 30);
            let env = world.envelope(&policy);
            let tx = world.dex.register_resource_tx(
                &world.chain,
                &owner_key,
                &iri,
                &iri,
                OWNER,
                vec![],
                env,
            );
            world.chain.submit(tx).expect("mempool");
        }
        while world.chain.pending_count() > 0 {
            world.advance(SimDuration::from_secs(2));
        }
        let (slots, bytes) = world.chain.state_size();
        let agg = world.chain.gas_by_method();
        let mean_gas = agg
            .get(&("dist-exchange".to_string(), "register_resource".to_string()))
            .map(|(_, _, mean)| *mean)
            .unwrap_or(0);
        growth.row(vec![
            n.to_string(),
            slots.to_string(),
            (bytes / 1024).to_string(),
            mean_gas.to_string(),
        ]);
    }

    let mut interval = Table::new(
        "E12b · block interval vs process latency (resource initiation)",
        &["block interval", "mean e2e ms", "p95 e2e ms"],
    );
    for secs in [1u64, 2, 5, 10] {
        let mut world = World::new(WorldConfig {
            block_interval: SimDuration::from_secs(secs),
            ..world_config(121)
        });
        world.add_owner(OWNER, "https://owner.pod/");
        world.pod_initiation(OWNER).expect("pod");
        for i in 0..10 {
            let path = format!("data/r{i}");
            let iri = world.owner(OWNER).pod_manager.pod().iri_of(&path);
            world
                .resource_initiation(
                    OWNER,
                    &path,
                    Body::Text("x".into()),
                    scenario::population_policy(&iri, OWNER, 30),
                    vec![],
                )
                .expect("res");
        }
        let h = world.metrics.histogram_mut("process.resource_init.e2e");
        interval.row(vec![format!("{secs} s"), ms(h.mean()), ms(h.p95())]);
    }
    let mut tables = vec![growth, interval];
    tables.extend(e12_concurrency());
    tables
}

/// E12c — driver concurrency: N in-flight resource accesses racing two
/// monitoring rounds over the non-blocking request API, measuring
/// makespan, tail latency and throughput as contention grows.
pub fn e12_concurrency() -> Vec<Table> {
    let mut table = Table::new(
        "E12c · driver concurrency — N in-flight accesses + 2 monitoring rounds",
        &[
            "in-flight",
            "ok",
            "makespan ms",
            "access mean ms",
            "access p95 ms",
            "access max ms",
            "req/s",
            "gas/req",
        ],
    );
    for n in [8usize, 16, 64, 128] {
        let mut world = World::new(world_config(122));
        world.add_owner(OWNER, "https://owner.pod/");
        for i in 0..n {
            world.add_device(format!("device-{i}"), format!("https://c{i}.id/me"));
        }
        world.pod_initiation(OWNER).expect("pod");
        let iri = world.owner(OWNER).pod_manager.pod().iri_of("data/set.bin");
        let resource = world
            .resource_initiation(
                OWNER,
                "data/set.bin",
                Body::Binary(vec![0xA5; 4 << 10]),
                scenario::population_policy(&iri, OWNER, 7),
                vec![],
            )
            .expect("resource init");
        // Subscriptions and indexing already run concurrently through the
        // driver.
        let mut setup = Vec::new();
        for i in 0..n {
            setup.push(world.submit(Request::MarketSubscribe {
                device: format!("device-{i}"),
            }));
            setup.push(world.submit(Request::ResourceIndexing {
                device: format!("device-{i}"),
                resource: resource.clone(),
            }));
        }
        world.run_until_idle();
        for t in setup {
            t.poll(&mut world).expect("completed").expect("setup ok");
        }

        // The measured batch: every device fetches a copy while two
        // monitoring rounds race the accesses.
        let t0 = world.clock.now();
        let mut tickets: Vec<Ticket> = (0..n)
            .map(|i| {
                world.submit(Request::ResourceAccess {
                    device: format!("device-{i}"),
                    resource: resource.clone(),
                })
            })
            .collect();
        for _ in 0..2 {
            tickets.push(world.submit(Request::PolicyMonitoring {
                webid: OWNER.into(),
                path: "data/set.bin".into(),
            }));
        }
        let requests = tickets.len();
        assert_eq!(
            world.in_flight(),
            requests,
            "E12c gate: the whole batch is in flight at once"
        );
        world.run_until_idle();
        let makespan = world.clock.now() - t0;
        let ok = tickets
            .into_iter()
            .filter(|t| matches!(t.poll(&mut world), Some(Ok(_))))
            .count();
        let gas = world.metrics.counter("process.access.gas")
            + world.metrics.counter("process.monitoring.gas");
        let h = world.metrics.histogram_mut("process.access.e2e");
        let throughput = requests as f64 / makespan.as_secs_f64();
        table.row(vec![
            requests.to_string(),
            ok.to_string(),
            ms(makespan),
            ms(h.mean()),
            ms(h.p95()),
            ms(h.max()),
            format!("{throughput:.2}"),
            (gas / requests as u64).to_string(),
        ]);
    }
    vec![table]
}

// --------------------------------------------------------------------- E14

/// One E14 enforcement arm: `n` devices fetch a copy under a 1-day
/// retention policy in the given [`EnforcementMode`]; advancing two days
/// lets every obligation fire. Returns the world for metric extraction.
fn e14_world(n: usize, enforcement: EnforcementMode, seed: u64) -> (World, String) {
    world_with_copies_in(
        WorldConfig {
            enforcement,
            ..world_config(seed)
        },
        n,
        4 << 10,
        1,
    )
}

/// E14 — deadline-driven enforcement: violation→enforcement latency and
/// monitoring gas, round-based vs deadline-driven (the compiled-policy +
/// obligation-scheduler pipeline).
pub fn e14_deadline_enforcement() -> Vec<Table> {
    const DEVICES: usize = 8;

    // (a) Enforcement latency per mode. The copies all fall due one day
    // after acquisition; the lag histogram records (enforcement instant −
    // declared deadline) per copy.
    let mut latency = Table::new(
        "E14a · violation→enforcement latency — deadline-driven vs round-based (8 devices, 1-day retention)",
        &["mode", "mean lag ms", "max lag ms", "deletions", "anchored on-chain"],
    );
    let mut mean_by_mode: Vec<(String, SimDuration)> = Vec::new();
    for (label, enforcement) in [
        ("deadline-driven".to_string(), EnforcementMode::Deadline),
        (
            "round-based 37 min".to_string(),
            EnforcementMode::Periodic(SimDuration::from_mins(37)),
        ),
        (
            "round-based 2 h".to_string(),
            EnforcementMode::Periodic(SimDuration::from_hours(2)),
        ),
    ] {
        let (mut world, resource) = e14_world(DEVICES, enforcement, 140);
        world.advance(SimDuration::from_days(2));
        assert!(
            world
                .dex
                .view(&world.chain, ListCopies { resource })
                .expect("view")
                .is_empty(),
            "every overdue copy was unregistered under {label}"
        );
        let deletions = world.metrics.counter("enforcement.deletions");
        let anchored = world.metrics.counter("enforcement.evidence_anchored");
        let lag = world.metrics.histogram_mut("enforcement.lag");
        assert_eq!(lag.len() as u64, deletions, "one lag sample per deletion");
        mean_by_mode.push((label.clone(), lag.mean()));
        latency.row(vec![
            label,
            ms(lag.mean()),
            ms(lag.max()),
            deletions.to_string(),
            anchored.to_string(),
        ]);
    }
    let deadline_mean = mean_by_mode[0].1;
    for (label, mean) in &mean_by_mode[1..] {
        assert!(
            deadline_mean < *mean,
            "deadline-driven enforcement must strictly reduce mean lag: \
             {deadline_mean} vs {mean} ({label})"
        );
    }

    // (b) Monitoring gas: consecutive rounds over unchanged copies go
    // through the reaffirmation path and must cost strictly less gas.
    let mut monitoring = Table::new(
        "E14b · incremental monitoring — per-round gas with unchanged vs advanced usage logs (8 devices)",
        &["round", "gas", "evidence bytes", "reaffirmed"],
    );
    {
        let (mut world, resource) = world_with_copies(DEVICES, 4 << 10, 141);
        let round_metrics = |world: &mut World, label: &str| {
            let gas_before = world.metrics.counter("process.monitoring.gas");
            let reaff_before = world.metrics.counter("process.monitoring.reaffirmed");
            let outcome = world.policy_monitoring(OWNER, "data/set.bin").expect(label);
            assert_eq!(outcome.evidence, DEVICES);
            (
                world.metrics.counter("process.monitoring.gas") - gas_before,
                outcome.evidence_bytes,
                world.metrics.counter("process.monitoring.reaffirmed") - reaff_before,
            )
        };
        let (full_gas, full_bytes, r0) = round_metrics(&mut world, "round 1");
        assert_eq!(r0, 0, "the first round ships full evidence");
        monitoring.row(vec![
            "1 (full evidence)".into(),
            full_gas.to_string(),
            full_bytes.to_string(),
            r0.to_string(),
        ]);
        let (reaff_gas, reaff_bytes, r1) = round_metrics(&mut world, "round 2");
        assert_eq!(r1 as usize, DEVICES, "every unchanged copy reaffirms");
        assert!(
            reaff_gas < full_gas,
            "reaffirmation rounds must be cheaper: {reaff_gas} vs {full_gas}"
        );
        monitoring.row(vec![
            "2 (logs unchanged)".into(),
            reaff_gas.to_string(),
            reaff_bytes.to_string(),
            r1.to_string(),
        ]);
        // Touch one copy: that device resubmits, the rest reaffirm.
        {
            let now = world.clock.now();
            let device = world.devices.get_mut("device-0").expect("device");
            device
                .tee
                .access(&resource, Action::Read, Purpose::any(), now)
                .expect("local access");
        }
        let (mixed_gas, mixed_bytes, r2) = round_metrics(&mut world, "round 3");
        assert_eq!(r2 as usize, DEVICES - 1);
        monitoring.row(vec![
            "3 (one log advanced)".into(),
            mixed_gas.to_string(),
            mixed_bytes.to_string(),
            r2.to_string(),
        ]);
    }

    // (c) The compiled-program decision cache on the TEE access hot path.
    let mut cache = Table::new(
        "E14c · compiled-policy decision cache — 256 repeated local accesses",
        &["copies", "accesses", "cache hits", "programs evaluated"],
    );
    {
        let (mut world, resource) = world_with_copies(1, 1 << 10, 142);
        let now = world.clock.now();
        let device = world.devices.get_mut("device-0").expect("device");
        for _ in 0..256 {
            device
                .tee
                .access(&resource, Action::Read, Purpose::any(), now)
                .expect("local access");
        }
        let (hits, misses) = device.tee.decision_cache_stats();
        assert!(hits >= 255, "repeats are cache-served: {hits}");
        cache.row(vec![
            "1".into(),
            "256".into(),
            hits.to_string(),
            misses.to_string(),
        ]);
    }
    vec![latency, monitoring, cache]
}
