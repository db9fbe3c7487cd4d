//! The twelve experiments of EXPERIMENTS.md.
//!
//! Every function is deterministic (seeded) and returns [`Table`]s; the
//! `report` binary prints them. Workload sizes are chosen so `report all`
//! completes in well under a minute in release mode.

use duc_blockchain::StorageConfig;
use duc_core::baseline::{CentralizedAuditBaseline, PlainSolidBaseline};
use duc_core::chaos::{self, fixed_link};
use duc_core::prelude::*;
use duc_core::scenario;
use duc_policy::{Action, Constraint, Duty, Purpose, Rule, UsagePolicy};
use duc_sim::{FaultPlan, LinkConfig, SimDuration};
use duc_solid::Body;

use crate::table::Table;

const OWNER: &str = "https://owner.id/me";

fn retention_policy(iri: &str, days: u64) -> UsagePolicy {
    UsagePolicy::builder(format!("{iri}#policy"), iri, OWNER)
        .permit(
            Rule::permit([Action::Use])
                .with_constraint(Constraint::MaxRetention(SimDuration::from_days(days))),
        )
        .duty(Duty::DeleteWithin(SimDuration::from_days(days)))
        .duty(Duty::LogAccesses)
        .build()
}

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
    let policy = retention_policy(&iri, retention_days);
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
    world_with_copies_in(
        WorldConfig {
            seed,
            link: fixed_link(10),
            ..WorldConfig::default()
        },
        n_devices,
        body_bytes,
        7,
    )
}

/// The E8 launch pad: the canonical chaos world (`duc_core::chaos`) with
/// `n_devices` subscribed, indexed copy holders; the measured batch's
/// `process.access.e2e` histogram is reset so the fault-free setup
/// accesses do not dilute the chaos tail.
fn world_with_market(n_devices: usize, seed: u64) -> (World, String) {
    let (mut world, resource) = duc_core::chaos::launch_pad(
        OWNER,
        "data/set.bin",
        n_devices,
        WorldConfig {
            seed,
            link: fixed_link(10),
            ..WorldConfig::default()
        },
    );
    *world.metrics.histogram_mut("process.access.e2e") = duc_sim::Histogram::new();
    (world, resource)
}

fn ms(d: SimDuration) -> String {
    format!("{:.1}", d.as_millis_f64())
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
        let mut world = World::new(WorldConfig {
            link: fixed_link(10),
            seed: 2,
            ..WorldConfig::default()
        });
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
        let mut world = World::new(WorldConfig {
            link: fixed_link(10),
            seed: 3,
            ..WorldConfig::default()
        });
        world.add_owner(OWNER, "https://owner.pod/");
        world.add_device("reader", "https://reader.id/me");
        world.pod_initiation(OWNER).expect("pod");
        // Bulk-register resources: submit in batches, confirm per block.
        let owner_key = world.owner(OWNER).key;
        for i in 0..index_size {
            let iri = format!("https://owner.pod/data/res-{i:05}.bin");
            let policy = retention_policy(&iri, 30);
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
        let (world, _) = {
            let mut pair = world_with_copies(1, bytes, 4);
            pair.0.sync_chain();
            pair
        };
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
            "host µs/req (wall)",
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
                .resource_initiation(OWNER, &path, body, retention_policy(&iri, 7), vec![])
                .expect("resource init");
            for i in 0..DEVICES {
                let d = format!("device-{i}");
                world.resource_indexing(&d, &resource).expect("index");
                world.resource_access(&d, &resource).expect("access");
            }
        }

        let host = std::time::Instant::now();
        let outcome = world
            .policy_modification(
                OWNER,
                "data/set.bin",
                vec![Rule::permit([Action::Use])
                    .with_constraint(Constraint::MaxRetention(SimDuration::from_days(3)))],
                vec![Duty::DeleteWithin(SimDuration::from_days(3))],
            )
            .expect("modification");
        let host = host.elapsed();
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
            format!("{:.0}", host.as_secs_f64() * 1e6),
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
    for n in [1usize, 4, 16, 64] {
        let (mut world, _resource) = world_with_copies(n, 4 << 10, 6);
        // A quarter of the devices (>=1 when n>=4) go rogue: their hosts
        // suppress the enclave timers, so copies outlive the deadline.
        let rogue = if n >= 4 { n / 4 } else { 0 };
        for i in 0..rogue {
            world.set_rogue_host(format!("device-{i}"), true);
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
        assert_eq!(outcome.violators.len(), rogue, "every violator detected");
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
        let policy = retention_policy(&resource, 1);
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
        let env = world.envelope(&retention_policy(&resource, 1));
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
        let tx = world
            .dex
            .start_monitoring_tx(&world.chain, &owner_key, &resource);
        let id = world.chain.submit(tx).expect("mempool");
        world.advance(SimDuration::from_secs(2));
        let round = duc_contracts::DistExchangeClient::decode_round_number(
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
        let tx = world
            .dex
            .record_evidence_tx(&world.chain, &dev_key, &forged);
        let id = world.chain.submit(tx).expect("mempool");
        world.advance(SimDuration::from_secs(2));
        let status = world.chain.receipt(&id).map(|r| r.status.clone());
        tamper.row(vec![
            "evidence signed by wrong key".into(),
            "DE App attestation-key check".into(),
            format!("{status:?}"),
        ]);
        // 4. Tampered signed transaction.
        let mut tx = world
            .dex
            .start_monitoring_tx(&world.chain, &owner_key, &resource);
        tx.tx.gas_limit += 1;
        let submit = world.chain.submit(tx);
        tamper.row(vec![
            "tampered transaction bytes".into(),
            "chain signature check".into(),
            format!("{submit:?}"),
        ]);
        // 5. Forged certificate at the pod manager.
        let fake_cert = duc_crypto::sha256(b"forged-cert");
        let ok = world
            .dex
            .verify_certificate(&world.chain, &fake_cert, "https://c0.id/me")
            .expect("view");
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
            link: fixed_link(10),
            seed: 9,
            ..WorldConfig::default()
        });
        world.add_owner(OWNER, "https://owner.pod/");
        world.pod_initiation(OWNER).expect("pod");
        let iri = world.owner(OWNER).pod_manager.pod().iri_of("data/x");
        world
            .resource_initiation(
                OWNER,
                "data/x",
                Body::Text("x".into()),
                retention_policy(&iri, 30),
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
        let (mut world, resource) = world_with_copies(1, 100 << 10, 10);
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
        let _ = resource;
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
            let fresh = world.open_envelope(&record.policy).expect("policy");
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
            let policy = retention_policy(&iri, 30);
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
            link: fixed_link(10),
            seed: 121,
            ..WorldConfig::default()
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
                    retention_policy(&iri, 30),
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
        let mut world = World::new(WorldConfig {
            seed: 122,
            link: fixed_link(10),
            ..WorldConfig::default()
        });
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
                retention_policy(&iri, 7),
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

// --------------------------------------------------------------------- E13

/// One disjoint-owner concurrent-market run (the E12c workload generalized
/// to `owners` independent owners): every device accesses its owner's
/// resource while one monitoring round per owner races the accesses.
/// Returns `(requests, ok, makespan)`.
fn disjoint_market<L: duc_blockchain::Ledger>(
    world: &mut World<L>,
    owners: usize,
    devices_per: usize,
) -> (usize, usize, SimDuration) {
    let owner_webid = |o: usize| format!("https://o{o}.id/me");
    let device_name = |o: usize, d: usize| format!("device-{o}-{d}");
    for o in 0..owners {
        world.add_owner(owner_webid(o), format!("https://o{o}.pod/"));
        for d in 0..devices_per {
            world.add_device(device_name(o, d), format!("https://c{o}-{d}.id/me"));
        }
    }
    let mut resources = Vec::with_capacity(owners);
    for o in 0..owners {
        let webid = owner_webid(o);
        world.pod_initiation(&webid).expect("pod init");
        let iri = format!("https://o{o}.pod/data/set.bin");
        let policy = UsagePolicy::builder(format!("{iri}#policy"), iri.clone(), webid.clone())
            .permit(
                Rule::permit([Action::Use])
                    .with_constraint(Constraint::MaxRetention(SimDuration::from_days(7))),
            )
            .duty(Duty::DeleteWithin(SimDuration::from_days(7)))
            .duty(Duty::LogAccesses)
            .build();
        let resource = world
            .resource_initiation(
                &webid,
                "data/set.bin",
                Body::Binary(vec![0xA5; 4 << 10]),
                policy,
                vec![],
            )
            .expect("resource init");
        resources.push(resource);
    }
    // Subscriptions and indexing run concurrently through the driver
    // (setup, unmeasured).
    let mut setup = Vec::new();
    for (o, resource) in resources.iter().enumerate() {
        for d in 0..devices_per {
            setup.push(world.submit(Request::MarketSubscribe {
                device: device_name(o, d),
            }));
            setup.push(world.submit(Request::ResourceIndexing {
                device: device_name(o, d),
                resource: resource.clone(),
            }));
        }
    }
    world.run_until_idle();
    for t in setup {
        t.poll(world).expect("completed").expect("setup ok");
    }

    // The measured batch: every device fetches its owner's resource while
    // one monitoring round per owner races the accesses.
    let t0 = world.clock.now();
    let mut tickets = Vec::new();
    for (o, resource) in resources.iter().enumerate() {
        for d in 0..devices_per {
            tickets.push(world.submit(Request::ResourceAccess {
                device: device_name(o, d),
                resource: resource.clone(),
            }));
        }
    }
    for o in 0..owners {
        tickets.push(world.submit(Request::PolicyMonitoring {
            webid: owner_webid(o),
            path: "data/set.bin".into(),
        }));
    }
    let requests = tickets.len();
    world.run_until_idle();
    let makespan = world.clock.now() - t0;
    let ok = tickets
        .into_iter()
        .filter(|t| matches!(t.poll(world), Some(Ok(_))))
        .count();
    (requests, ok, makespan)
}

/// E13 — ledger backends: single chain vs sharded multi-chain under the
/// disjoint-owner concurrent market. With owners spread over `N` shards,
/// copy registrations and monitoring rounds from different owners confirm
/// in parallel blocks instead of serializing through one mempool.
pub fn e13_backends() -> Vec<Table> {
    let mut table = Table::new(
        "E13 · ledger backends — single vs sharded, disjoint-owner concurrent market (16 owners × 6 devices)",
        &["backend", "shards", "requests", "ok", "makespan ms", "req/s", "speedup"],
    );
    const OWNERS: usize = 16;
    const DEVICES_PER: usize = 6;
    let config = |shards: usize| WorldConfig {
        seed: 131,
        link: fixed_link(10),
        shards,
        ..WorldConfig::default()
    };

    let mut world = World::new(config(1));
    let (requests, ok, single_makespan) = disjoint_market(&mut world, OWNERS, DEVICES_PER);
    table.row(vec![
        "single".into(),
        "1".into(),
        requests.to_string(),
        ok.to_string(),
        ms(single_makespan),
        format!("{:.2}", requests as f64 / single_makespan.as_secs_f64()),
        "1.00".into(),
    ]);

    for shards in [2usize, 4, 8] {
        let mut world = World::new_sharded(config(shards));
        let (requests, ok, makespan) = disjoint_market(&mut world, OWNERS, DEVICES_PER);
        let speedup = single_makespan.as_secs_f64() / makespan.as_secs_f64();
        if shards == 4 {
            assert!(
                speedup >= 2.0,
                "4-shard ledger must at least double disjoint-owner throughput \
                 (single {single_makespan}, sharded {makespan})"
            );
        }
        table.row(vec![
            "sharded".into(),
            shards.to_string(),
            requests.to_string(),
            ok.to_string(),
            ms(makespan),
            format!("{:.2}", requests as f64 / makespan.as_secs_f64()),
            format!("{speedup:.2}"),
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
            seed,
            link: fixed_link(10),
            enforcement,
            ..WorldConfig::default()
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
                .list_copies(&world.chain, &resource)
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

// --------------------------------------------------------------------- E15

/// The E15 population sweep up to `max_owners` (`report --max-owners`;
/// the 100-owner point always runs).
fn e15_points(max_owners: usize) -> Vec<usize> {
    [100usize, 1_000, 10_000, 100_000]
        .into_iter()
        .filter(|n| *n <= max_owners.max(100))
        .collect()
}

/// The largest E15 point within `max_owners` — the population E16 and
/// E19 run at.
fn largest_e15_point(max_owners: usize) -> usize {
    *e15_points(max_owners)
        .last()
        .expect("at least one E15 point")
}

/// E15 — population scale: synthetic market populations from 10² to 10⁵
/// owners (one resource each, Zipf-skewed popularity, bursty access
/// waves, device churn between waves). The wave workload is fixed across
/// rows, so req/s isolates how the *population size* taxes the
/// architecture; the run asserts that a k× population costs at most √k× of
/// the 10²-owner row's wall-clock throughput.
pub fn e15_population(max_owners: usize) -> Vec<Table> {
    let mut table = Table::new(
        "E15 · population scale — Zipf market, bursty waves, device churn (3 × 128-access waves)",
        &[
            "owners",
            "devices",
            "requests",
            "ok",
            "churned",
            "sim makespan ms",
            "access p99 ms",
            "wall ms",
            "req/s (wall)",
            "peak RSS MiB",
        ],
    );
    // Start the sweep from a fresh high-water mark so the column tracks
    // E15's own growth, not whichever experiment ran earlier in this
    // process. Within the sweep the mark stays monotone by design: each
    // row reports the peak *so far*.
    crate::rss::reset_peak();
    let mut baseline: Option<(usize, f64)> = None;
    for owners in e15_points(max_owners) {
        let spec = scenario::PopulationSpec {
            owners,
            ..scenario::PopulationSpec::default()
        };
        let mut world = World::new(WorldConfig {
            seed: 150,
            link: fixed_link(10),
            ..WorldConfig::default()
        });
        let mut pop = scenario::populate_population(&mut world, &spec);
        let devices = spec.owners * spec.devices_per_owner;
        let wall0 = std::time::Instant::now();
        let run = scenario::run_population(&mut world, &mut pop, &spec);
        let wall = wall0.elapsed();
        assert_eq!(run.requests, run.ok, "every population access succeeds");
        let req_s = run.requests as f64 / wall.as_secs_f64().max(1e-9);
        let p99 = world.metrics.histogram_mut("process.access.e2e").p99();
        let rss = crate::rss::peak_rss_mib().map_or("n/a".into(), |mib| format!("{mib:.1}"));
        table.row(vec![
            owners.to_string(),
            devices.to_string(),
            run.requests.to_string(),
            run.ok.to_string(),
            run.churned.to_string(),
            ms(run.makespan),
            ms(p99),
            format!("{:.1}", wall.as_secs_f64() * 1e3),
            format!("{req_s:.0}"),
            rss,
        ]);
        // The population gate: growing the population k× may cost at most
        // √k× of the fixed workload's wall-clock throughput (10× at 10⁴
        // owners, 31.6× at 10⁵). A per-actor cost that grows with the
        // population breaks it; an allowance of k× would not notice one.
        match baseline {
            None => baseline = Some((owners, req_s)),
            Some((first_owners, first_req_s)) => {
                let scale = owners as f64 / first_owners as f64;
                let limit = scale.sqrt();
                let slowdown = first_req_s / req_s.max(1e-9);
                assert!(
                    slowdown <= limit,
                    "E15 gate: {first_owners}→{owners} owners is a {scale:.0}× population, \
                     which may cost {limit:.1}× of wall-clock req/s, but it degraded {slowdown:.1}×"
                );
            }
        }
    }
    vec![table]
}

// --------------------------------------------------------------------- E16

/// E16 — checkpoint/prune storage: the E15 population workload with the
/// wave count doubling across rows (so the request count and the sealed
/// block count grow), each row run twice from the same seed — pruning off
/// and pruning on (checkpoint every 8 blocks, 16-block resident window).
///
/// Correctness gate: outcomes, per-method gas and the replay fingerprint
/// must be byte-identical between the two configurations of every row —
/// pruning is invisible to everything but memory. Memory gates: the
/// pruned run's resident block window stays bounded while the chain
/// grows, and (where the kernel's high-water-mark reset is available)
/// pruned peak RSS grows sublinearly in the request count.
pub fn e16_storage(max_owners: usize) -> Vec<Table> {
    let owners = largest_e15_point(max_owners);
    e16_storage_at(owners, &[2, 4, 8], 8, 16)
}

/// [`e16_storage`] at an explicit population, wave sweep and storage
/// geometry (the smoke test runs a tiny instance with a tight window; the
/// experiment runs the E15 cap).
fn e16_storage_at(owners: usize, wave_sweep: &[usize], interval: u64, window: u64) -> Vec<Table> {
    let mut table = Table::new(
        "E16 · checkpoint/prune storage — E15 waves, pruning off vs on (interval 8, window 16)",
        &[
            "owners",
            "waves",
            "requests",
            "blocks",
            "retained (prune)",
            "retained (full)",
            "peak RSS MiB (prune)",
            "peak RSS MiB (full)",
        ],
    );
    let resettable = crate::rss::reset_peak();
    // (requests, pruned peak RSS MiB) of the first and latest row, for the
    // sublinearity gate.
    let mut first: Option<(usize, f64)> = None;
    let mut last: Option<(usize, f64)> = None;
    for &waves in wave_sweep {
        let spec = scenario::PopulationSpec {
            owners,
            waves,
            ..scenario::PopulationSpec::default()
        };
        let run_config = |storage: StorageConfig| {
            crate::rss::reset_peak();
            let mut world = World::new(WorldConfig {
                seed: 160,
                link: fixed_link(10),
                storage,
                ..WorldConfig::default()
            });
            let mut pop = scenario::populate_population(&mut world, &spec);
            let report = scenario::run_population(&mut world, &mut pop, &spec);
            let fingerprint = chaos::fingerprint(&mut world);
            (
                report,
                fingerprint,
                world.chain.gas_by_method(),
                world.chain.height(),
                world.chain.retained_blocks(),
                crate::rss::peak_rss_mib(),
            )
        };
        // Pruned first: its high-water mark starts from the cleaner floor.
        let (rep_p, fp_p, gas_p, height_p, retained_p, rss_p) =
            run_config(StorageConfig::enabled(interval, window));
        let (rep_f, fp_f, gas_f, height_f, retained_f, rss_f) =
            run_config(StorageConfig::disabled());

        assert_eq!(rep_p, rep_f, "E16: pruning changed population outcomes");
        assert_eq!(gas_p, gas_f, "E16: pruning drifted per-method gas");
        assert_eq!(fp_p, fp_f, "E16: pruning perturbed the replay fingerprint");
        assert_eq!(height_p, height_f, "E16: pruning changed block production");
        if height_p > window + interval {
            // Chains long enough to cross the window must have pruned.
            assert!(
                retained_p < retained_f,
                "E16: the pruned run retains a strict subset ({retained_p} vs {retained_f})"
            );
        }
        // Bounded residency: the window, plus up to one checkpoint
        // interval of unsealed progress, plus one interval of deferred
        // pruning lag — independent of how many waves ran.
        let bound = (window + 2 * interval + 2) as usize;
        assert!(
            retained_p <= bound,
            "E16: resident window grew past its bound ({retained_p} > {bound} at {waves} waves)"
        );

        let rss_cell = |rss: Option<f64>| rss.map_or("n/a".into(), |mib| format!("{mib:.1}"));
        table.row(vec![
            owners.to_string(),
            waves.to_string(),
            rep_p.requests.to_string(),
            height_p.to_string(),
            retained_p.to_string(),
            retained_f.to_string(),
            rss_cell(rss_p),
            rss_cell(rss_f),
        ]);
        if let Some(rss) = rss_p {
            if first.is_none() {
                first = Some((rep_p.requests, rss));
            }
            last = Some((rep_p.requests, rss));
        }
    }
    // The sublinearity gate: requests grew k× across the sweep; pruned
    // peak RSS must grow strictly slower than k×. Skipped where the
    // high-water mark cannot be reset per configuration.
    if resettable {
        if let (Some((req0, rss0)), Some((req1, rss1))) = (first, last) {
            if req1 > req0 {
                let req_ratio = req1 as f64 / req0 as f64;
                let rss_ratio = rss1 / rss0.max(1e-9);
                assert!(
                    rss_ratio < req_ratio,
                    "E16 gate: requests grew {req_ratio:.1}× but pruned peak RSS grew \
                     {rss_ratio:.1}× (not sublinear)"
                );
            }
        }
    }
    vec![table]
}

// --------------------------------------------------------------------- E17

/// Builds the E17 chain: DistExchange deployed with its access-set
/// derivation installed and one pending `register_pod` per sender.
/// Disjoint owners anchor disjoint storage slots, so the whole batch is
/// conflict-free and the parallel executor can run it in one level.
fn e17_chain(
    mode: duc_blockchain::ExecMode,
    threads: usize,
    senders: usize,
) -> duc_blockchain::Blockchain {
    use duc_blockchain::{Blockchain, ContractId};
    let mut chain = Blockchain::builder()
        .validators(3)
        .block_interval(SimDuration::from_secs(2))
        // High enough that the whole batch seals in one block (a ceiling
        // skip would drop the parallel planner back to serial).
        .max_block_gas(10_000_000_000)
        .exec_mode(mode)
        .exec_threads(threads)
        .build();
    chain.deploy(
        ContractId::new(duc_contracts::DEX_CONTRACT_ID),
        Box::new(duc_contracts::DistExchange),
    );
    chain.set_access_fn(duc_contracts::dex_access_fn());
    let dex = duc_contracts::DistExchangeClient::new();
    for s in 0..senders {
        let key = chain.create_funded_account(format!("e17-sender-{s}").as_bytes(), 1_000_000_000);
        let webid = format!("https://owner{s}.id/me");
        let pod_root = format!("https://owner{s}.pod/");
        let policy = UsagePolicy::builder(format!("{webid}#default"), pod_root.clone(), &webid)
            .permit(Rule::permit([Action::Use]))
            .build();
        let tx = dex.register_pod_tx(
            &chain,
            &key,
            &webid,
            &pod_root,
            duc_contracts::PolicyEnvelope::plain(&policy),
        );
        chain.submit(tx).expect("pod registration is valid");
    }
    chain
}

/// Seals the E17 batch `rounds` times under one execution mode, returning
/// the best wall-clock block time and the (replay-asserted) block
/// fingerprint.
fn e17_block_time(
    mode: duc_blockchain::ExecMode,
    threads: usize,
    senders: usize,
    rounds: usize,
) -> (std::time::Duration, String) {
    let mut best = std::time::Duration::MAX;
    let mut fingerprint: Option<String> = None;
    for _ in 0..rounds {
        let mut chain = e17_chain(mode, threads, senders);
        let wall0 = std::time::Instant::now();
        chain.advance_to(duc_sim::SimTime::from_secs(2));
        best = best.min(wall0.elapsed());
        assert_eq!(chain.height(), 1, "the batch seals in one block");
        let block = chain.block(1).expect("sealed");
        assert_eq!(block.transactions.len(), senders, "every tx included");
        for tx in &block.transactions {
            assert!(
                chain.receipt(&tx.id()).expect("receipt").status.is_ok(),
                "every registration succeeds"
            );
        }
        let fp = format!("{:?}", block.hash());
        if let Some(prev) = &fingerprint {
            assert_eq!(prev, &fp, "identically-seeded blocks replay");
        }
        fingerprint = Some(fp);
    }
    (best, fingerprint.expect("at least one round"))
}

/// E17 — parallel intra-shard block execution: the same conflict-free
/// 256-sender `register_pod` batch sealed serially and through the
/// access-set-scheduled parallel executor. The block fingerprints must be
/// byte-identical; on hosts with ≥4 cores the parallel seal must be at
/// least 1.5× faster.
pub fn e17_parallel_exec() -> Vec<Table> {
    use duc_blockchain::ExecMode;
    let senders = 256;
    let rounds = 3;
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8);
    let mut table = Table::new(
        format!(
            "E17 · parallel intra-shard execution — conflict-free register_pod batch \
             ({senders} senders, best of {rounds})"
        ),
        &[
            "exec mode",
            "threads",
            "txs",
            "block ms",
            "txs/s",
            "speedup",
        ],
    );
    let (serial, serial_fp) = e17_block_time(ExecMode::Serial, 1, senders, rounds);
    let (parallel, parallel_fp) = e17_block_time(ExecMode::Parallel, threads, senders, rounds);
    assert_eq!(
        serial_fp, parallel_fp,
        "E17 gate: the parallel block must be byte-identical to the serial one"
    );
    let speedup = serial.as_secs_f64() / parallel.as_secs_f64().max(1e-9);
    // The speedup gate only binds where the host has real parallelism;
    // byte-identity above is asserted unconditionally.
    if threads >= 4 {
        assert!(
            speedup >= 1.5,
            "E17 gate: {threads} threads must seal the conflict-free batch ≥1.5× faster \
             (serial {serial:?}, parallel {parallel:?})"
        );
    }
    let row = |mode: &str, threads: usize, wall: std::time::Duration, speedup: f64| {
        vec![
            mode.into(),
            threads.to_string(),
            senders.to_string(),
            format!("{:.2}", wall.as_secs_f64() * 1e3),
            format!("{:.0}", senders as f64 / wall.as_secs_f64().max(1e-9)),
            format!("{speedup:.2}"),
        ]
    };
    table.row(row("serial", 1, serial, 1.0));
    table.row(row("parallel", threads, parallel, speedup));
    vec![table]
}

// ---------------------------------------------------------------------- E18

/// Scrapes `GET /metrics` from a live endpoint with a raw `TcpStream`
/// (the build is offline; no curl) and returns the response body.
fn scrape_metrics(addr: std::net::SocketAddr) -> String {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect metrics endpoint");
    write!(stream, "GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n").expect("send scrape");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read scrape response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("scrape header terminator");
    assert!(head.starts_with("HTTP/1.1 200"), "scrape failed: {head}");
    body.to_string()
}

/// E18 — runtime modes: the same concurrent-market script on the world's
/// own deterministic loop and on a compressed wall clock.
///
/// Gates (asserted, not just tabulated):
/// - the two modes produce identical outcome *sets* (timing-free keys via
///   [`duc_core::runtime::outcome_key`]) — wall-clock jitter may move
///   *when* a process runs, never *what* it decides;
/// - the `/metrics` endpoint, serving the wall run's own page, holds a
///   valid Prometheus exposition containing the network, gas, TEE-cache,
///   enforcement and process-latency families, and its
///   `duc_net_messages_sent_total` equals the wall world's network model.
///
/// The wall run replays ~185 logical seconds at 200× compression, so its
/// req/s is pacing-dominated (the point: same machines, real time); the
/// sim run's req/s is pure compute.
pub fn e18_runtime() -> Vec<Table> {
    use duc_core::runtime::{market_world, outcome_set, run_scripted, run_wall};
    use duc_runtime::{DriveConfig, MetricsPage, MetricsServer, ShutdownSignal};

    let devices = 8;
    let seed = 23;
    let scale = 200;

    let (mut sim_world, script) = market_world(devices, seed);
    let requests = script.len();
    let sim_start = std::time::Instant::now();
    let sim_outcomes = run_scripted(&mut sim_world, script);
    let sim_real = sim_start.elapsed();

    let (mut wall_world, script) = market_world(devices, seed);
    let page = MetricsPage::new();
    let wall_start = std::time::Instant::now();
    let wall_run = run_wall(
        &mut wall_world,
        script,
        scale,
        Some(page.clone()),
        &ShutdownSignal::new(),
        &DriveConfig::default(),
        |_| Vec::new(),
    );
    let wall_real = wall_start.elapsed();

    let sim_keys = outcome_set(&sim_outcomes);
    let wall_keys = outcome_set(&wall_run.outcomes);
    assert!(
        !sim_keys.is_empty() && sim_world.in_flight() == 0 && wall_run.report.drained,
        "E18: both runs must drain clean"
    );
    assert_eq!(
        sim_keys, wall_keys,
        "E18 gate: sim and wall modes must produce the same outcome set"
    );

    let server = MetricsServer::serve(page, "127.0.0.1:0").expect("bind metrics endpoint");
    let exposition = scrape_metrics(server.addr());
    for family in [
        "# TYPE duc_net_messages_sent_total counter",
        "# TYPE duc_gas_used_total counter",
        "# TYPE duc_tee_decision_cache_total counter",
        "# TYPE duc_enforcement_deletions_total counter",
        "# TYPE duc_enforcement_lag_seconds histogram",
        "# TYPE duc_process_access_e2e_seconds histogram",
    ] {
        assert!(
            exposition.contains(family),
            "E18 gate: /metrics scrape is missing {family:?}"
        );
    }
    assert_eq!(
        exposition
            .lines()
            .find_map(|line| line.strip_prefix("duc_net_messages_sent_total ")),
        Some(wall_world.net.stats().0.to_string().as_str()),
        "E18 gate: the scraped page is the wall run's own"
    );
    drop(server);

    let mut table = Table::new(
        format!(
            "E18 · runtime modes — concurrent market ({devices} devices, wall at {scale}× \
             compression; outcome sets identical, /metrics scrape valid)"
        ),
        &[
            "runtime mode",
            "requests",
            "outcomes",
            "logical s",
            "real ms",
            "req/s",
        ],
    );
    let row =
        |mode: &str, admitted: u64, outcomes: usize, world: &World, real: std::time::Duration| {
            vec![
                mode.into(),
                admitted.to_string(),
                outcomes.to_string(),
                format!("{:.1}", world.clock.now().as_secs_f64()),
                format!("{:.1}", real.as_secs_f64() * 1e3),
                format!("{:.1}", admitted as f64 / real.as_secs_f64().max(1e-9)),
            ]
        };
    table.row(row(
        "sim",
        requests as u64,
        sim_outcomes.len(),
        &sim_world,
        sim_real,
    ));
    table.row(row(
        "wall",
        wall_run.report.admitted,
        wall_run.outcomes.len(),
        &wall_world,
        wall_real,
    ));
    vec![table]
}

// --------------------------------------------------------------------- E19

/// One E15-style population run under `storage`, returning everything the
/// E19 identity and residency gates compare: the outcome report, the
/// replay fingerprint (which embeds the state commitment), the per-method
/// gas ledger, the paging counters and the wall-clock spent.
type E19Run = (
    scenario::PopulationRunReport,
    String,
    std::collections::BTreeMap<(String, String), (u64, u64, u64)>,
    duc_blockchain::PagingStats,
    std::time::Duration,
);

fn e19_run(spec: &scenario::PopulationSpec, storage: StorageConfig) -> E19Run {
    let mut world = World::new(WorldConfig {
        seed: 190,
        link: fixed_link(10),
        storage,
        ..WorldConfig::default()
    });
    let mut pop = scenario::populate_population(&mut world, spec);
    let wall0 = std::time::Instant::now();
    let report = scenario::run_population(&mut world, &mut pop, spec);
    let wall = wall0.elapsed();
    let fingerprint = chaos::fingerprint(&mut world);
    (
        report,
        fingerprint,
        world.chain.gas_by_method(),
        world.chain.paging_stats(),
        wall,
    )
}

/// E19 — paged world state: the E15 population workload with the slot
/// store paged down to a bounded cache and cold pages spilled through the
/// duc-storage page store.
///
/// (a) Identity sweep at ≤ 1 000 owners: unpaged, unbounded cache, a
/// 16-page cache, a pathological 0-page cache and a 16-page cache spilling
/// to disk all produce byte-identical replay fingerprints (commitment
/// included), per-method gas and outcomes. Paging must be invisible to
/// everything but memory.
///
/// (b) Residency run at the largest E15 point within `max_owners` (the
/// E19 CI step passes 10⁵; 10⁶ is the local headline row): with a
/// population-scaled page cache the accounted resident state bytes must
/// come in at ≤ 0.4× the unpaged run's. The paged run goes first so each
/// configuration's peak-RSS column starts from its own high-water mark.
/// The gate runs on accounted state bytes, not raw RSS: at population
/// scale the process high-water mark is dominated by the device fleet
/// and the sealed blocks (E16's pruning bounds the latter), which paging
/// cannot and should not touch.
pub fn e19_paged_state(max_owners: usize) -> Vec<Table> {
    let cap = largest_e15_point(max_owners);
    // The residency cache scales with the population (1 page per 64
    // owners, within [2, 64]) so the 0.4× gate stays meaningful at the
    // small caps CI uses for the all-experiments run as well as at the
    // 10⁵–10⁶ headline populations.
    e19_paged_state_at(cap.min(1_000), cap, 64, (cap / 64).clamp(2, 64))
}

/// [`e19_paged_state`] at an explicit population and page geometry (the
/// smoke test runs a tiny instance with small pages; the experiment runs
/// the E15 cap with the default 64-slot pages).
fn e19_paged_state_at(
    identity_owners: usize,
    residency_owners: usize,
    page_capacity: usize,
    residency_limit: usize,
) -> Vec<Table> {
    use duc_blockchain::PagingConfig;

    // (a) The cache-size identity sweep.
    let mut identity = Table::new(
        format!(
            "E19a · paging identity — {identity_owners} owners, \
             cache sweep (fingerprints byte-identical by assertion)"
        ),
        &[
            "cache",
            "requests",
            "ok",
            "evictions",
            "fault-ins",
            "resident pages",
            "resident KiB",
            "wall ms",
        ],
    );
    let spec = scenario::PopulationSpec {
        owners: identity_owners,
        ..scenario::PopulationSpec::default()
    };
    let spill_dir = std::env::temp_dir().join(format!("duc-e19-spill-{}", std::process::id()));
    let paged = |p: PagingConfig| StorageConfig::disabled().with_paging(p);
    let configs: Vec<(&str, StorageConfig)> = vec![
        ("unpaged", StorageConfig::disabled()),
        (
            "unbounded",
            paged(PagingConfig::in_memory(None).with_page_capacity(page_capacity)),
        ),
        (
            "16 pages",
            paged(PagingConfig::in_memory(Some(16)).with_page_capacity(page_capacity)),
        ),
        (
            "0 pages",
            paged(PagingConfig::in_memory(Some(0)).with_page_capacity(page_capacity)),
        ),
        (
            "16 pages, disk",
            paged(
                PagingConfig::in_memory(Some(16))
                    .with_page_capacity(page_capacity)
                    .with_spill_dir(&spill_dir),
            ),
        ),
    ];
    let mut baseline: Option<(scenario::PopulationRunReport, String, _)> = None;
    for (label, storage) in configs {
        let (report, fingerprint, gas, stats, wall) = e19_run(&spec, storage);
        assert_eq!(report.requests, report.ok, "E19a: every access succeeds");
        match &baseline {
            None => baseline = Some((report, fingerprint, gas)),
            Some((rep0, fp0, gas0)) => {
                assert_eq!(rep0, &report, "E19a: paging changed outcomes ({label})");
                assert_eq!(gas0, &gas, "E19a: paging drifted per-method gas ({label})");
                assert_eq!(
                    fp0, &fingerprint,
                    "E19a: paging perturbed the replay fingerprint ({label})"
                );
            }
        }
        identity.row(vec![
            label.into(),
            report.requests.to_string(),
            report.ok.to_string(),
            stats.evictions.to_string(),
            stats.fault_ins.to_string(),
            stats.resident_pages.to_string(),
            format!("{:.1}", stats.resident_bytes as f64 / 1024.0),
            format!("{:.1}", wall.as_secs_f64() * 1e3),
        ]);
    }
    let _ = std::fs::remove_dir_all(&spill_dir);

    // (b) The residency gate at the population cap.
    let mut residency = Table::new(
        format!(
            "E19b · state residency — {residency_owners} owners, \
             {residency_limit}-page cache vs unpaged (accounted bytes ≤ 0.4×)"
        ),
        &[
            "config",
            "owners",
            "resident pages",
            "resident KiB",
            "bytes/owner",
            "spilled live KiB",
            "evictions",
            "peak RSS MiB",
        ],
    );
    let spec = scenario::PopulationSpec {
        owners: residency_owners,
        ..scenario::PopulationSpec::default()
    };
    let residency_row = |table: &mut Table, label: &str, stats: &duc_blockchain::PagingStats| {
        let rss = crate::rss::peak_rss_mib().map_or("n/a".into(), |mib| format!("{mib:.1}"));
        table.row(vec![
            label.into(),
            residency_owners.to_string(),
            stats.resident_pages.to_string(),
            format!("{:.1}", stats.resident_bytes as f64 / 1024.0),
            format!(
                "{:.1}",
                stats.resident_bytes as f64 / residency_owners as f64
            ),
            format!("{:.1}", stats.spilled_live_bytes as f64 / 1024.0),
            stats.evictions.to_string(),
            rss,
        ]);
    };
    // Paged first: its high-water mark starts from the cleaner floor.
    crate::rss::reset_peak();
    let (rep_p, fp_p, gas_p, stats_p, _) = e19_run(
        &spec,
        paged(PagingConfig::in_memory(Some(residency_limit)).with_page_capacity(page_capacity)),
    );
    residency_row(
        &mut residency,
        &format!("{residency_limit}-page cache"),
        &stats_p,
    );
    crate::rss::reset_peak();
    let (rep_f, fp_f, gas_f, stats_f, _) = e19_run(&spec, StorageConfig::disabled());
    residency_row(&mut residency, "unpaged", &stats_f);

    assert_eq!(rep_p, rep_f, "E19b: paging changed population outcomes");
    assert_eq!(gas_p, gas_f, "E19b: paging drifted per-method gas");
    assert_eq!(fp_p, fp_f, "E19b: paging perturbed the replay fingerprint");
    assert!(
        stats_p.evictions > 0,
        "E19b: the bounded cache must actually evict at {residency_owners} owners"
    );
    let ratio = stats_p.resident_bytes as f64 / (stats_f.resident_bytes as f64).max(1.0);
    assert!(
        ratio <= 0.4,
        "E19b gate: paged resident state is {:.1}% of unpaged (> 40%): \
         {} vs {} bytes",
        ratio * 100.0,
        stats_p.resident_bytes,
        stats_f.resident_bytes
    );
    vec![identity, residency]
}

#[cfg(test)]
mod tests {
    use super::*;

    // Smoke tests on the cheapest experiments keep the harness honest
    // without blowing up the test suite's runtime; the expensive ones run
    // through the `report` binary.

    #[test]
    fn e5_small_fanout_counts_are_consistent() {
        let (mut world, _resource) = world_with_copies(4, 1 << 10, 55);
        let outcome = world
            .policy_modification(
                OWNER,
                "data/set.bin",
                vec![Rule::permit([Action::Use])
                    .with_constraint(Constraint::MaxRetention(SimDuration::ZERO))],
                vec![Duty::DeleteWithin(SimDuration::ZERO)],
            )
            .expect("modification");
        assert_eq!(outcome.devices_notified, 4);
        assert_eq!(outcome.enforcement.len(), 4);
    }

    #[test]
    fn e6_violator_detection_is_exact() {
        let (mut world, _resource) = world_with_copies(4, 1 << 10, 66);
        world.set_rogue_host("device-0", true);
        world.advance(SimDuration::from_days(8));
        let outcome = world
            .policy_monitoring(OWNER, "data/set.bin")
            .expect("round");
        assert_eq!(outcome.violators, vec!["device-0".to_string()]);
        assert_eq!(
            outcome.evidence, 1,
            "compliant devices already unregistered"
        );
    }

    #[test]
    fn e10_plain_solid_is_cheaper_but_uncontrolled() {
        let (mut world, _resource) = world_with_copies(1, 100 << 10, 77);
        let mut m = world.metrics.clone();
        let full = m.histogram_mut("process.access.e2e").mean();
        let plain =
            PlainSolidBaseline::access(&mut world, "device-0", OWNER, "data/set.bin").expect("ok");
        assert!(plain < full, "plain {plain} vs full {full}");
    }

    #[test]
    fn e12c_concurrent_batch_completes_and_beats_serial() {
        // Small-n replica of the E12c harness: 8 accesses + 2 rounds all in
        // flight; everything completes and the batch shares block slots.
        let (mut world, resource) = world_with_copies(0, 1 << 10, 123);
        for i in 0..8 {
            world.add_device(format!("racer-{i}"), format!("https://r{i}.id/me"));
        }
        let mut setup = Vec::new();
        for i in 0..8 {
            setup.push(world.submit(Request::MarketSubscribe {
                device: format!("racer-{i}"),
            }));
            setup.push(world.submit(Request::ResourceIndexing {
                device: format!("racer-{i}"),
                resource: resource.clone(),
            }));
        }
        world.run_until_idle();
        for t in setup {
            t.poll(&mut world).expect("done").expect("setup ok");
        }
        let t0 = world.clock.now();
        let tickets: Vec<Ticket> = (0..8)
            .map(|i| {
                world.submit(Request::ResourceAccess {
                    device: format!("racer-{i}"),
                    resource: resource.clone(),
                })
            })
            .collect();
        assert_eq!(world.in_flight(), 8);
        world.run_until_idle();
        for t in tickets {
            assert!(matches!(t.poll(&mut world), Some(Ok(Outcome::Accessed(_)))));
        }
        let makespan = world.clock.now() - t0;
        assert!(
            makespan < SimDuration::from_secs(8 * 2),
            "8 concurrent accesses share slots: {makespan}"
        );
    }

    #[test]
    fn world_with_copies_builds_consistently() {
        let (world, resource) = world_with_copies(2, 1 << 10, 1234);
        assert!(world.device("device-0").tee.has_copy(&resource));
        assert!(world.device("device-1").tee.has_copy(&resource));
        let copies = world
            .dex
            .list_copies(&world.chain, &resource)
            .expect("view");
        assert_eq!(copies.len(), 2);
    }

    #[test]
    fn e14_deadline_beats_round_based_enforcement() {
        // Small-n replica of the E14 harness (the full sweep and its gates
        // run through the report binary): deadline-driven enforcement must
        // strictly reduce mean violation→enforcement latency, and an
        // unchanged second monitoring round must reaffirm for less gas.
        let lag_mean = |enforcement: EnforcementMode| {
            let (mut world, _resource) = e14_world(2, enforcement, 1400);
            world.advance(SimDuration::from_days(2));
            assert_eq!(world.metrics.counter("enforcement.deletions"), 2);
            world.metrics.histogram_mut("enforcement.lag").mean()
        };
        let deadline = lag_mean(EnforcementMode::Deadline);
        let periodic = lag_mean(EnforcementMode::Periodic(SimDuration::from_mins(37)));
        assert!(
            deadline < periodic,
            "deadline {deadline} must beat round-based {periodic}"
        );

        let (mut world, _resource) = world_with_copies(3, 1 << 10, 1401);
        let gas = |world: &mut World| {
            let before = world.metrics.counter("process.monitoring.gas");
            world
                .policy_monitoring(OWNER, "data/set.bin")
                .expect("round");
            world.metrics.counter("process.monitoring.gas") - before
        };
        let full = gas(&mut world);
        let reaffirmed = gas(&mut world);
        assert_eq!(world.metrics.counter("process.monitoring.reaffirmed"), 3);
        assert!(reaffirmed < full, "reaffirm {reaffirmed} vs full {full}");
    }

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
        let tables = e19_paged_state_at(6, 32, 8, 2);
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

    #[test]
    fn e13_sharded_backend_outpaces_single_on_disjoint_owners() {
        // Small-n replica of the E13 harness (the full sweep and its ≥2×
        // gate run through the report binary): the same disjoint-owner
        // batch must complete on both backends, every request succeeding,
        // strictly faster on four shards.
        let config = |shards: usize| WorldConfig {
            seed: 313,
            link: fixed_link(10),
            shards,
            ..WorldConfig::default()
        };
        let mut single = World::new(config(1));
        let (requests, ok, single_makespan) = disjoint_market(&mut single, 6, 4);
        assert_eq!(requests, ok, "every request succeeds on the single chain");
        let mut sharded = World::new_sharded(config(4));
        let (requests, ok, sharded_makespan) = disjoint_market(&mut sharded, 6, 4);
        assert_eq!(requests, ok, "every request succeeds on the sharded ledger");
        assert!(
            sharded_makespan < single_makespan,
            "disjoint owners stop serializing through one mempool: \
             sharded {sharded_makespan} vs single {single_makespan}"
        );
    }
}
