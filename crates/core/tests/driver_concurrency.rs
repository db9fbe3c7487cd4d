//! Driver-level concurrency tests: many in-flight requests interleaving on
//! the scheduler, typed submission errors, determinism, and a property test
//! racing devices over one resource.

use duc_blockchain::Ledger;
use duc_contracts::calls::ListCopies;
use duc_core::prelude::*;
use duc_core::world::MARKET_FEE;
use duc_policy::{Action, Constraint, Duty, Rule};
use duc_sim::{LatencyModel, LinkConfig, SimDuration};
use duc_solid::Body;
use proptest::prelude::*;

const OWNER: &str = "https://owner.id/me";

fn fixed_link(ms: u64) -> LinkConfig {
    LinkConfig {
        latency: LatencyModel::Constant(SimDuration::from_millis(ms)),
        drop_probability: 0.0,
        bandwidth_bps: Some(10_000_000),
    }
}

/// One owner, one resource, `n` devices that subscribed and indexed (but
/// have not fetched yet).
fn market_world(n: usize, seed: u64, trace: bool) -> (World, String) {
    market_world_on(n, seed, trace, fixed_link(10))
}

fn market_world_on(n: usize, seed: u64, trace: bool, link: LinkConfig) -> (World, String) {
    let mut world = World::new(WorldConfig {
        seed,
        link,
        trace,
        ..WorldConfig::default()
    });
    world.add_owner(OWNER, "https://owner.pod/");
    for i in 0..n {
        world.add_device(format!("device-{i}"), format!("https://c{i}.id/me"));
    }
    world.pod_initiation(OWNER).expect("pod init");
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
    // Subscriptions and indexing race each other through the driver too.
    let mut tickets = Vec::new();
    for i in 0..n {
        tickets.push(world.submit(Request::MarketSubscribe {
            device: format!("device-{i}"),
        }));
        tickets.push(world.submit(Request::ResourceIndexing {
            device: format!("device-{i}"),
            resource: resource.clone(),
        }));
    }
    world.run_until_idle();
    for t in tickets {
        t.poll(&mut world)
            .expect("completed")
            .expect("setup succeeds");
    }
    (world, resource)
}

#[test]
fn sixty_four_concurrent_accesses_complete() {
    let (mut world, resource) = market_world(64, 42, false);
    let tickets: Vec<Ticket> = (0..64)
        .map(|i| {
            world.submit(Request::ResourceAccess {
                device: format!("device-{i}"),
                resource: resource.clone(),
            })
        })
        .collect();
    assert_eq!(
        world.in_flight(),
        64,
        "all 64 requests are in flight at once"
    );

    world.run_until_idle();
    assert_eq!(world.in_flight(), 0);
    for t in &tickets {
        match t.poll(&mut world).expect("completed") {
            Ok(Outcome::Accessed(outcome)) => assert!(outcome.bytes > 0),
            other => panic!("expected access outcome, got {other:?}"),
        }
    }
    // Every copy is registered on-chain exactly once.
    let copies = world
        .dex
        .view(
            &world.chain,
            ListCopies {
                resource: resource.to_string(),
            },
        )
        .expect("view");
    assert_eq!(copies.len(), 64);
    // Concurrent requests share block slots: the whole batch fits into far
    // fewer block rounds than sequential execution would need.
    let e2e = world.metrics.histogram_mut("process.access.e2e");
    assert_eq!(e2e.len(), 64);
    assert!(
        e2e.max() < SimDuration::from_secs(64),
        "batch did not serialize: max e2e {}",
        e2e.max()
    );
}

#[test]
fn unknown_participants_fail_with_typed_errors_not_panics() {
    let mut world = World::new(WorldConfig::default());
    world.add_owner(OWNER, "https://owner.pod/");

    let t1 = world.submit(Request::PodInitiation {
        webid: "https://ghost.id/me".into(),
    });
    let t2 = world.submit(Request::ResourceAccess {
        device: "no-such-device".into(),
        resource: "urn:r".into(),
    });
    let t3 = world.submit(Request::MarketSubscribe {
        device: "no-such-device".into(),
    });
    let t4 = world.submit(Request::PolicyMonitoring {
        webid: "https://ghost.id/me".into(),
        path: "data/x".into(),
    });
    // Rejections are immediate: nothing was ever in flight.
    assert_eq!(world.in_flight(), 0);
    world.run_until_idle();
    assert!(matches!(
        t1.poll(&mut world),
        Some(Err(ProcessError::UnknownOwner(w))) if w == "https://ghost.id/me"
    ));
    assert!(matches!(
        t2.poll(&mut world),
        Some(Err(ProcessError::UnknownDevice(d))) if d == "no-such-device"
    ));
    assert!(matches!(
        t3.poll(&mut world),
        Some(Err(ProcessError::UnknownDevice(_)))
    ));
    assert!(matches!(
        t4.poll(&mut world),
        Some(Err(ProcessError::UnknownOwner(_)))
    ));
}

#[test]
fn wrappers_and_driver_share_one_implementation() {
    // The legacy one-shot method and an equivalent submit/run/poll sequence
    // on an identically-seeded world produce identical outcomes and clocks.
    let (mut a, resource_a) = market_world(2, 7, false);
    let (mut b, resource_b) = market_world(2, 7, false);

    let wrapped = a.resource_access("device-0", &resource_a).expect("access");
    let ticket = b.submit(Request::ResourceAccess {
        device: "device-0".into(),
        resource: resource_b.clone(),
    });
    b.run_until_idle();
    let Some(Ok(Outcome::Accessed(driven))) = ticket.poll(&mut b) else {
        panic!("driver access failed");
    };
    assert_eq!(wrapped, driven);
    assert_eq!(a.clock.now(), b.clock.now());
}

use duc_core::chaos::fingerprint;

/// A multi-client workload where accesses, a policy modification and two
/// monitoring rounds are all in flight together.
fn interleaved_run(seed: u64) -> String {
    // Randomized WAN latencies: the seed genuinely shapes the trajectory,
    // so byte-identical fingerprints prove replay, not constancy.
    let (mut world, resource) = market_world_on(6, seed, true, LinkConfig::wan());
    let mut tickets = Vec::new();
    for i in 0..6 {
        tickets.push(world.submit(Request::ResourceAccess {
            device: format!("device-{i}"),
            resource: resource.clone(),
        }));
    }
    tickets.push(world.submit(Request::PolicyModification {
        webid: OWNER.into(),
        path: "data/set.bin".into(),
        rules: vec![Rule::permit([Action::Use])
            .with_constraint(Constraint::MaxRetention(SimDuration::from_days(3)))],
        duties: vec![
            Duty::DeleteWithin(SimDuration::from_days(3)),
            Duty::LogAccesses,
        ],
    }));
    tickets.push(world.submit(Request::PolicyMonitoring {
        webid: OWNER.into(),
        path: "data/set.bin".into(),
    }));
    tickets.push(world.submit(Request::PolicyMonitoring {
        webid: OWNER.into(),
        path: "data/set.bin".into(),
    }));
    world.run_until_idle();
    for t in tickets {
        // Every request completes (some may legitimately fail, e.g. an
        // access racing the tightened policy) — none may hang or panic.
        let _ = t.poll(&mut world).expect("completed");
    }
    fingerprint(&mut world)
}

#[test]
fn interleaved_workload_is_byte_identical_across_runs() {
    let first = interleaved_run(1234);
    let second = interleaved_run(1234);
    assert_eq!(first, second, "same seed must replay the same trajectory");
    let other_seed = interleaved_run(99);
    assert_ne!(first, other_seed, "different seeds explore different paths");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// N devices race `ResourceAccess` on one resource: every access lands,
    /// certificates stay valid, the copy registry is exact, and the gas
    /// ledger balances against validator income and the market treasury.
    #[test]
    fn racing_accesses_keep_certificates_and_gas_consistent(
        n in 1usize..10,
        seed in 0u64..1_000,
    ) {
        let (mut world, resource) = market_world(n, seed, false);
        let tickets: Vec<Ticket> = (0..n)
            .map(|i| world.submit(Request::ResourceAccess {
                device: format!("device-{i}"),
                resource: resource.clone(),
            }))
            .collect();
        prop_assert_eq!(world.in_flight(), n);
        world.run_until_idle();
        for t in tickets {
            let outcome = t.poll(&mut world).expect("completed");
            prop_assert!(outcome.is_ok(), "access failed: {:?}", outcome);
        }
        // Copies: exactly one per device.
        let copies = world.dex.view(&world.chain, ListCopies { resource: resource.to_string() }).expect("view");
        prop_assert_eq!(copies.len(), n);
        for i in 0..n {
            let device = world.device(&format!("device-{i}"));
            prop_assert!(device.tee.has_copy(&resource));
            prop_assert!(device.certificate.is_some());
        }
        // Gas conservation: every unit of consumed gas was paid to a
        // proposer, and the treasury holds exactly n subscription fees.
        let ledger_total: u64 = world.chain.gas_used_total();
        let validator_income: u128 = world
            .chain
            .validator_addresses()
            .iter()
            .map(|addr| world.chain.balance(addr))
            .sum();
        prop_assert_eq!(validator_income, ledger_total as u128 * world.chain.gas_price());
        let treasury = duc_blockchain::Address::from_seed(b"duc/market-treasury");
        prop_assert_eq!(world.chain.balance(&treasury), n as u128 * MARKET_FEE);
    }
}

/// Drives `accesses` concurrent process-4 requests on a 128-device market
/// and returns `run_until_idle`'s machine steps.
fn steps_for_concurrent_accesses(accesses: usize) -> u64 {
    let (mut world, resource) = market_world(128, 5, false);
    let tickets: Vec<Ticket> = (0..accesses)
        .map(|i| {
            world.submit(Request::ResourceAccess {
                device: format!("device-{i}"),
                resource: resource.clone(),
            })
        })
        .collect();
    let steps = world.run_until_idle();
    for t in tickets {
        let outcome = t.poll(&mut world).expect("completed");
        assert!(outcome.is_ok(), "access failed: {outcome:?}");
    }
    assert_eq!(
        world.metrics.counter("driver.tx.resigned"),
        0,
        "distinct senders: every priced transaction is the one delivered"
    );
    steps
}

/// A machine waiting for its block is not stepped while it waits, so the
/// steps a request takes do not depend on how many others are pending —
/// with ≈ 6 copy registrations per block, 128 accesses wait ≈ 11 slots on
/// average, and a per-slot re-poll would multiply that into the count.
#[test]
fn driver_steps_are_linear_in_the_backlog() {
    let few = steps_for_concurrent_accesses(16);
    let many = steps_for_concurrent_accesses(128);
    // Start, pod request, pod, pod response, store + uplink, delivery,
    // confirmation.
    assert_eq!(few, 16 * 7);
    assert_eq!(many, 128 * 7);
}

/// Two flows of one sender price their transactions at the same nonce; the
/// one delivered second finds the nonce taken and is signed again.
#[test]
fn one_sender_racing_itself_takes_consecutive_nonces() {
    let (mut world, resource) = market_world(1, 11, false);
    let other_iri = world
        .owner(OWNER)
        .pod_manager
        .pod()
        .iri_of("data/other.bin");
    let other = world
        .resource_initiation(
            OWNER,
            "data/other.bin",
            Body::Binary(vec![0x5A; 4 << 10]),
            scenario::population_policy(&other_iri, OWNER, 7),
            vec![],
        )
        .expect("second resource");
    world
        .resource_indexing("device-0", &other)
        .expect("indexing");
    assert_eq!(world.metrics.counter("driver.tx.resigned"), 0);

    let device = duc_blockchain::Address::from_public_key(&world.device("device-0").key.public());
    let height = world.chain.height();
    let next = world.chain.next_nonce(&device);
    let tickets = [&resource, &other].map(|resource| {
        world.submit(Request::ResourceAccess {
            device: "device-0".into(),
            resource: resource.clone(),
        })
    });
    world.run_until_idle();
    for t in tickets {
        let outcome = t.poll(&mut world).expect("completed");
        assert!(outcome.is_ok(), "access failed: {outcome:?}");
    }
    assert_eq!(world.metrics.counter("driver.tx.resigned"), 1);
    let nonces: Vec<u64> = (height + 1..=world.chain.height())
        .flat_map(|h| &world.chain.block(h).expect("resident").transactions)
        .filter(|tx| tx.tx.from == device)
        .map(|tx| tx.tx.nonce)
        .collect();
    assert_eq!(nonces, [next, next + 1]);
    for resource in [&resource, &other] {
        let copies = world
            .dex
            .view(
                &world.chain,
                ListCopies {
                    resource: resource.to_string(),
                },
            )
            .expect("view");
        assert_eq!(copies.len(), 1);
    }
}

/// With the chain dead, several parked machines share one slot tick — and
/// each still times out at its own deadline, not at the tick after it.
#[test]
fn stalled_waiters_each_time_out_at_their_own_deadline() {
    use duc_oracle::OracleError;

    // WAN latencies: the six deliveries, hence deadlines, are distinct.
    let (mut world, resource) = market_world_on(6, 21, false, LinkConfig::wan());
    for idx in 0..world.chain.validator_count() {
        world.chain.set_validator_down(idx, true);
    }
    for i in 0..6 {
        world.submit(Request::ResourceAccess {
            device: format!("device-{i}"),
            resource: resource.clone(),
        });
    }
    let mut deadlines = Vec::new();
    world.advance(SimDuration::ZERO); // first steps: every request is on the wire
    while world.in_flight() > 0 {
        let at = world
            .sched
            .next_event_at()
            .expect("waiters keep a wake armed");
        world.advance(at.saturating_since(world.clock.now()));
        for (_, outcome) in world.drain_events() {
            let Err(ProcessError::Oracle(OracleError::InclusionTimeout { deadline })) = outcome
            else {
                panic!("expected an inclusion timeout, got {outcome:?}");
            };
            assert_eq!(world.clock.now(), deadline, "timed out late");
            deadlines.push(deadline);
        }
    }
    deadlines.dedup();
    assert_eq!(deadlines.len(), 6, "six distinct deadlines, in order");
    assert!(deadlines.is_sorted());
}

/// `run_until_idle`'s machine steps for one request of every kind, each
/// driven alone on a loss-free fixed link: `[pod initiation, resource
/// initiation, subscription, indexing, access, policy modification,
/// monitoring, revocation]`, the last three over `holders` copy holders
/// (the revocation is a policy modification to zero retention: every
/// holder deletes and the machine awaits each unregistration).
fn steps_per_request_kind<L: Ledger>(mut world: World<L>, holders: usize) -> [u64; 8] {
    fn drive<L: Ledger>(world: &mut World<L>, request: Request) -> u64 {
        let ticket = world.submit(request);
        let steps = world.run_until_idle();
        let outcome = ticket.poll(world).expect("completed");
        assert!(outcome.is_ok(), "request failed: {outcome:?}");
        steps
    }

    world.add_owner(OWNER, "https://owner.pod/");
    for i in 0..holders {
        world.add_device(format!("device-{i}"), format!("https://c{i}.id/me"));
    }
    let pod_init = drive(
        &mut world,
        Request::PodInitiation {
            webid: OWNER.into(),
        },
    );
    let resource = world.owner(OWNER).pod_manager.pod().iri_of("data/set.bin");
    let policy = scenario::population_policy(&resource, OWNER, 7);
    let res_init = drive(
        &mut world,
        Request::ResourceInitiation {
            webid: OWNER.into(),
            path: "data/set.bin".into(),
            body: Body::Binary(vec![0xA5; 4 << 10]),
            policy,
            metadata: vec![],
        },
    );
    // Every holder takes the same steps; the first one's are reported.
    let mut per_device = Vec::new();
    for i in 0..holders {
        let device = format!("device-{i}");
        per_device.push([
            drive(
                &mut world,
                Request::MarketSubscribe {
                    device: device.clone(),
                },
            ),
            drive(
                &mut world,
                Request::ResourceIndexing {
                    device: device.clone(),
                    resource: resource.clone(),
                },
            ),
            drive(
                &mut world,
                Request::ResourceAccess {
                    device,
                    resource: resource.clone(),
                },
            ),
        ]);
    }
    let [subscribe, indexing, access] = per_device[0];
    assert!(per_device.iter().all(|steps| *steps == per_device[0]));
    let tightened = scenario::population_policy(&resource, OWNER, 3);
    let policy_mod = drive(
        &mut world,
        Request::PolicyModification {
            webid: OWNER.into(),
            path: "data/set.bin".into(),
            rules: tightened.rules,
            duties: tightened.duties,
        },
    );
    let monitoring = drive(
        &mut world,
        Request::PolicyMonitoring {
            webid: OWNER.into(),
            path: "data/set.bin".into(),
        },
    );
    let revocation = drive(
        &mut world,
        Request::PolicyModification {
            webid: OWNER.into(),
            path: "data/set.bin".into(),
            rules: vec![Rule::permit([Action::Use])
                .with_constraint(Constraint::MaxRetention(SimDuration::ZERO))],
            duties: vec![Duty::DeleteWithin(SimDuration::ZERO), Duty::LogAccesses],
        },
    );
    for i in 0..holders {
        let device = world.device(&format!("device-{i}"));
        assert!(!device.tee.has_copy(&resource), "revoked copy survived");
    }
    [
        pod_init, res_init, subscribe, indexing, access, policy_mod, monitoring, revocation,
    ]
}

/// The driver's schedule, pinned per request kind and the same on both
/// backends: every hop arrival, every zero-delay re-step and every
/// confirmation is exactly one step.
#[test]
fn every_request_kind_takes_its_pinned_steps() {
    let config = |shards| WorldConfig {
        seed: 5,
        link: fixed_link(10),
        shards,
        ..WorldConfig::default()
    };
    // Start + uplink, delivery, confirmation for the three one-transaction
    // kinds; indexing is two hops and access two hops plus a transaction;
    // a fan-out whose deliveries share one arrival is one more step, a
    // revocation parks once more on the unregistrations' block; a round is
    // seven steps plus four per holder (probe, report + uplink, delivery,
    // confirmation).
    for (holders, pinned) in [
        (1, [3, 3, 3, 5, 7, 4, 11, 5]),
        (4, [3, 3, 3, 5, 7, 4, 23, 5]),
    ] {
        let single = steps_per_request_kind(World::new(config(1)), holders);
        assert_eq!(single, pinned, "single chain, {holders} holders");
        let sharded = steps_per_request_kind(World::new_sharded(config(4)), holders);
        assert_eq!(sharded, pinned, "four shards, {holders} holders");
    }
}

/// A policy-churn batch over the chaos launch pad (six copy holders, WAN
/// latencies, trace on), driven to completion by `drive`: the drained
/// `(ticket, outcome)` list and the fingerprint without its `clock` and
/// `height` lines — where a run stops is the one thing the two loops'
/// stop conditions may differ in.
fn churn_run<L: Ledger>(world: World<L>, drive: fn(&mut World<L>)) -> [Vec<String>; 2] {
    use duc_core::chaos;

    let (mut world, resource) = chaos::launch_pad_in(world, OWNER, "data/set.bin", 6);
    for request in chaos::policy_churn_batch(OWNER, "data/set.bin", &resource, 6) {
        world.submit(request);
    }
    drive(&mut world);
    assert_eq!(world.in_flight(), 0);
    let outcomes = world
        .drain_events()
        .iter()
        .map(|(ticket, outcome)| format!("{} {outcome:?}", ticket.id()))
        .collect();
    let fingerprint = fingerprint(&mut world)
        .lines()
        .filter(|line| !line.starts_with("clock ") && !line.starts_with("height "))
        .map(String::from)
        .collect();
    [outcomes, fingerprint]
}

/// `advance` in fixed strides and `run_until_idle` are one event loop with
/// two stop conditions: the same batch takes the same trajectory under
/// either, on both backends.
#[test]
fn advance_and_run_until_idle_drive_the_same_schedule() {
    fn to_idle<L: Ledger>(world: &mut World<L>) {
        world.run_until_idle();
    }
    fn in_strides<L: Ledger>(world: &mut World<L>) {
        while world.in_flight() > 0 {
            world.advance(SimDuration::from_millis(700));
        }
    }
    let config = |shards| WorldConfig {
        seed: 1234,
        link: LinkConfig::wan(),
        trace: true,
        shards,
        ..WorldConfig::default()
    };
    let single = churn_run(World::new(config(1)), to_idle);
    assert_eq!(single[0].len(), 9, "six accesses, two rounds, one change");
    assert_eq!(churn_run(World::new(config(1)), in_strides), single);
    let sharded = churn_run(World::new_sharded(config(4)), to_idle);
    assert_eq!(
        churn_run(World::new_sharded(config(4)), in_strides),
        sharded
    );
}
