//! Robustness under injected faults (paper §V-2), exercised against
//! concurrent in-flight processes on the non-blocking driver API: faults
//! are declared as [`FaultPlan`]s and hit requests *mid-flight* — crashed
//! validators, network partitions, lossy windows, crashed endpoints and
//! rogue hosts.

use solid_usage_control::contracts::calls::GetRound;
use solid_usage_control::core::driver::CONFIRM_TIMEOUT;
use solid_usage_control::core::scenario::{self, BOB, MEDICAL_PATH};
use solid_usage_control::core::{chaos, outcome_key};
use solid_usage_control::oracle::{HopKind, OracleError};
use solid_usage_control::prelude::*;
use solid_usage_control::sim::{EndpointId, FaultPlan, LatencyModel, LinkConfig};
use solid_usage_control::solid::Body;

fn steady_link() -> LinkConfig {
    LinkConfig {
        latency: LatencyModel::Constant(SimDuration::from_millis(10)),
        drop_probability: 0.0,
        bandwidth_bps: None,
    }
}

/// One owner, one resource, one device that has subscribed and indexed but
/// not yet fetched a copy.
fn market_world(seed: u64) -> (World, String) {
    let mut world = World::new(WorldConfig {
        seed,
        link: steady_link(),
        validators: 5,
        ..WorldConfig::default()
    });
    world.add_owner(BOB, "https://bob.pod/");
    world.add_device("dev-0", "https://c0.id/me");
    world.pod_initiation(BOB).unwrap();
    let iri = world.owner(BOB).pod_manager.pod().iri_of(MEDICAL_PATH);
    world
        .resource_initiation(
            BOB,
            MEDICAL_PATH,
            Body::Text("data".into()),
            scenario::medical_policy(&iri),
            vec![],
        )
        .unwrap();
    world.market_subscribe("dev-0").unwrap();
    world.resource_indexing("dev-0", &iri).unwrap();
    (world, iri)
}

/// `market_world` plus the first access, so a governed copy exists.
fn one_copy_world(seed: u64) -> (World, String) {
    let (mut world, iri) = market_world(seed);
    world.resource_access("dev-0", &iri).unwrap();
    (world, iri)
}

fn monitoring_request() -> Request {
    Request::PolicyMonitoring {
        webid: BOB.into(),
        path: MEDICAL_PATH.into(),
    }
}

#[test]
fn chain_survives_minority_validator_stalls_mid_round() {
    let (mut world, _) = one_copy_world(1);
    let now = world.clock.now();
    // Validators 0 and 1 stall for 30 s — covering the whole first round.
    world.set_fault_plan(
        FaultPlan::none()
            .validator_stall(0, now, now + SimDuration::from_secs(30))
            .validator_stall(1, now, now + SimDuration::from_secs(30)),
    );
    let ticket = world.submit(monitoring_request());
    world.run_until_idle();
    let Some(Ok(Outcome::Monitored(outcome))) = ticket.poll(&mut world) else {
        panic!("round must survive 2/5 validators down");
    };
    assert_eq!(outcome.evidence, 1);
    // Recovery: a round after the stall window is no slower than the
    // degraded one.
    world.advance(SimDuration::from_secs(30));
    let ticket = world.submit(monitoring_request());
    world.run_until_idle();
    let Some(Ok(Outcome::Monitored(outcome2))) = ticket.poll(&mut world) else {
        panic!("recovered round");
    };
    assert_eq!(outcome2.evidence, 1);
    assert!(
        outcome2.duration <= outcome.duration,
        "recovered round ({}) is no slower than the degraded one ({})",
        outcome2.duration,
        outcome.duration
    );
    chaos::check_invariants(&world).expect("invariants");
}

#[test]
fn all_validators_stalled_means_typed_timeout_not_hang() {
    let (mut world, iri) = one_copy_world(2);
    let now = world.clock.now();
    let mut plan = FaultPlan::none();
    for i in 0..5 {
        plan = plan.validator_stall(i, now, SimTime::MAX);
    }
    world.set_fault_plan(plan);
    // The round-opening transaction can never confirm; run_until_idle must
    // still terminate, resolving the ticket with a typed timeout.
    let ticket = world.submit(monitoring_request());
    world.run_until_idle();
    assert_eq!(world.in_flight(), 0, "no hang with a dead chain");
    let Some(Err(err)) = ticket.poll(&mut world) else {
        panic!("the ticket must resolve with an error");
    };
    let ProcessError::Oracle(OracleError::InclusionTimeout { deadline }) = err else {
        panic!("{err}");
    };
    assert!(err.is_transient(), "liveness failures are retry-worthy");
    // The wait is notified, not polled per slot, and still ends at the
    // exact instant: the transaction was delivered one 10 ms uplink hop
    // after submission, and the timeout fires `CONFIRM_TIMEOUT` after
    // that — between two slot boundaries, not at the next one.
    let delivered = now + SimDuration::from_millis(10);
    assert_eq!(deadline, delivered + CONFIRM_TIMEOUT);
    assert_eq!(world.clock.now(), deadline);
    assert_eq!(inclusion_waiters(&world), 0.0);
    // Liveness returns when the stall plan is lifted.
    world.set_fault_plan(FaultPlan::none());
    let ticket = world.submit(monitoring_request());
    world.run_until_idle();
    let Some(Ok(Outcome::Monitored(outcome))) = ticket.poll(&mut world) else {
        panic!("back alive");
    };
    assert!(outcome.round >= 1);
    let _ = iri;
}

/// The `driver.inclusion.waiting` gauge: machines parked on a receipt.
fn inclusion_waiters(world: &World) -> f64 {
    let snapshot = world.metrics_snapshot();
    snapshot.gauge_families()["driver.inclusion.waiting"][&[][..]]
}

#[test]
fn stalled_access_times_out_at_its_own_deadline_and_leaves_no_tick() {
    let (mut world, iri) = market_world(7);
    let submitted = world.clock.now();
    let mut plan = FaultPlan::none();
    for i in 0..5 {
        plan = plan.validator_stall(i, submitted, SimTime::MAX);
    }
    world.set_fault_plan(plan);
    let ticket = world.submit(Request::ResourceAccess {
        device: "dev-0".into(),
        resource: iri,
    });
    // Half a minute in, the copy registration sits in the mempool and the
    // machine is parked on its receipt.
    world.advance(SimDuration::from_secs(30));
    assert_eq!(world.in_flight(), 1);
    assert_eq!(inclusion_waiters(&world), 1.0);
    assert_eq!(world.chain.pending_count(), 1);

    world.run_until_idle();
    let Some(Err(ProcessError::Oracle(OracleError::InclusionTimeout { deadline }))) =
        ticket.poll(&mut world)
    else {
        panic!("the access must resolve with an inclusion timeout");
    };
    // Delivery came three 10 ms hops after submission (to the pod, back,
    // uplink); the timeout fires exactly `CONFIRM_TIMEOUT` later.
    let delivered = submitted + SimDuration::from_millis(30);
    assert_eq!(deadline, delivered + CONFIRM_TIMEOUT);
    assert_eq!(world.clock.now(), deadline);

    // Nothing waits any more, and the slot tick went with the last
    // waiter: five more slots pass without a single scheduler event.
    assert_eq!(inclusion_waiters(&world), 0.0);
    let executed = world.sched.executed();
    world.advance(SimDuration::from_secs(10));
    assert_eq!(
        world.sched.executed(),
        executed,
        "a slot tick re-armed itself"
    );
}

#[test]
fn deadline_before_the_first_slot_boundary_still_fires_on_time() {
    // Blocks slower than the confirmation timeout: the waiter's deadline
    // precedes the very first slot tick it could be notified by.
    let mut world = World::new(WorldConfig {
        link: steady_link(),
        block_interval: CONFIRM_TIMEOUT + SimDuration::from_secs(30),
        ..WorldConfig::default()
    });
    world.add_owner(BOB, "https://bob.pod/");
    let submitted = world.clock.now();
    let ticket = world.submit(Request::PodInitiation { webid: BOB.into() });
    world.run_until_idle();
    let Some(Err(ProcessError::Oracle(OracleError::InclusionTimeout { deadline }))) =
        ticket.poll(&mut world)
    else {
        panic!("the registration cannot confirm in time");
    };
    assert_eq!(
        deadline,
        submitted + SimDuration::from_millis(10) + CONFIRM_TIMEOUT
    );
    assert_eq!(world.clock.now(), deadline);
    assert_eq!(inclusion_waiters(&world), 0.0);
}

#[test]
fn confirmed_waiters_leave_the_wait_set_empty_and_the_tick_disarmed() {
    let (mut world, iri) = market_world(8);
    let ticket = world.submit(Request::ResourceAccess {
        device: "dev-0".into(),
        resource: iri,
    });
    world.run_until_idle();
    assert!(matches!(
        ticket.poll(&mut world),
        Some(Ok(Outcome::Accessed(_)))
    ));
    assert_eq!(inclusion_waiters(&world), 0.0);
    // The copy's retention deadline is days away; nothing may fire before.
    let executed = world.sched.executed();
    world.advance(SimDuration::from_secs(10));
    assert_eq!(
        world.sched.executed(),
        executed,
        "a slot tick re-armed itself"
    );
}

#[test]
fn partitioned_device_is_reported_unreachable() {
    let (mut world, iri) = one_copy_world(3);
    let dev = world.device("dev-0").endpoint;
    let relay = world.push_in.relay;
    let now = world.clock.now();
    // The partition outlasts the probe's retry budget, so the round skips
    // the device instead of stalling on it.
    world.set_fault_plan(FaultPlan::none().partition(
        dev,
        relay,
        now,
        now + SimDuration::from_secs(300),
    ));
    let ticket = world.submit(monitoring_request());
    world.run_until_idle();
    let Some(Ok(Outcome::Monitored(outcome))) = ticket.poll(&mut world) else {
        panic!("round proceeds despite the partition");
    };
    assert_eq!(outcome.expected, 1);
    assert_eq!(outcome.evidence, 0, "unreachable device submitted nothing");
    assert_eq!(world.metrics.counter("process.monitoring.unreachable"), 1);
    // The on-chain round stays open: absence of evidence is visible.
    let round = world
        .dex
        .view(
            &world.chain,
            GetRound {
                resource: iri.clone(),
                round: outcome.round,
            },
        )
        .unwrap()
        .unwrap();
    assert!(!round.closed);
    // After the window heals, the next round completes.
    world.advance(SimDuration::from_secs(300));
    let ticket = world.submit(monitoring_request());
    world.run_until_idle();
    let Some(Ok(Outcome::Monitored(outcome))) = ticket.poll(&mut world) else {
        panic!("healed round");
    };
    assert_eq!(outcome.evidence, 1);
}

#[test]
fn lossy_window_is_ridden_out_by_retries() {
    let (mut world, iri) = market_world(4);
    // A 40%-lossy window on the device↔relay uplink needs more than the
    // default three push-in attempts to make failure negligible.
    world.push_in.max_attempts = 12;
    let dev = world.device("dev-0").endpoint;
    let relay = world.push_in.relay;
    let now = world.clock.now();
    world.set_fault_plan(FaultPlan::none().drop_window(
        dev,
        relay,
        now,
        now + SimDuration::from_secs(3600),
        400,
    ));
    // The access (copy registration) and ten monitoring rounds (evidence
    // submissions) all push transactions through the lossy uplink.
    world.resource_access("dev-0", &iri).unwrap();
    for _ in 0..10 {
        let ticket = world.submit(monitoring_request());
        world.run_until_idle();
        let Some(Ok(Outcome::Monitored(outcome))) = ticket.poll(&mut world) else {
            panic!("round rides out the loss");
        };
        assert_eq!(outcome.evidence, 1);
    }
    let (submissions, retries) = world.push_in.stats();
    assert!(submissions >= 11);
    assert!(retries > 0, "a 40%-lossy uplink forces retries");
    // Every push-in retry shows up in the driver's fault metrics (other
    // hops crossing the lossy pair — e.g. monitoring probes — add more).
    assert!(world.metrics.counter("driver.hop.drops") >= retries);
    chaos::check_invariants(&world).expect("invariants");
}

#[test]
fn rogue_host_cannot_hide_from_monitoring() {
    let (mut world, iri) = one_copy_world(5);
    // Tighten the policy to a 7-day retention so there is an obligation
    // the rogue host can violate.
    let mod_ticket = world.submit(Request::PolicyModification {
        webid: BOB.into(),
        path: MEDICAL_PATH.into(),
        rules: vec![Rule::permit([Action::Use])
            .with_constraint(Constraint::MaxRetention(SimDuration::from_days(7)))],
        duties: vec![
            Duty::DeleteWithin(SimDuration::from_days(7)),
            Duty::LogAccesses,
        ],
    });
    world.run_until_idle();
    assert!(
        matches!(mod_ticket.poll(&mut world), Some(Ok(_))),
        "tighten"
    );
    world.set_rogue_host("dev-0", true);
    world.advance(SimDuration::from_days(40)); // way past every obligation
    let ticket = world.submit(monitoring_request());
    world.run_until_idle();
    let Some(Ok(Outcome::Monitored(outcome))) = ticket.poll(&mut world) else {
        panic!("round");
    };
    assert_eq!(outcome.violators, vec!["dev-0".to_string()]);
    // The evidence on-chain names the violation.
    let round = world
        .dex
        .view(
            &world.chain,
            GetRound {
                resource: iri.clone(),
                round: outcome.round,
            },
        )
        .unwrap()
        .unwrap();
    let evidence = &round.violators()[0];
    assert!(!evidence.compliant);
    assert!(evidence.violations.iter().any(|v| v.contains("retention")));
}

#[test]
fn access_suspends_across_pod_crash_window_and_completes() {
    let (mut world, iri) = market_world(6);
    let pod_ep = world.owner(BOB).endpoint;
    let now = world.clock.now();
    // The pod manager is down for 10 s, covering the in-flight request hop
    // of the access: the driver suspends and resumes at recovery.
    world.set_fault_plan(FaultPlan::none().crash(pod_ep, now, now + SimDuration::from_secs(10)));
    let ticket = world.submit(Request::ResourceAccess {
        device: "dev-0".into(),
        resource: iri.clone(),
    });
    world.run_until_idle();
    let Some(Ok(Outcome::Accessed(outcome))) = ticket.poll(&mut world) else {
        panic!("the access must complete after the pod recovers");
    };
    assert!(
        outcome.e2e >= SimDuration::from_secs(10),
        "the crash window shows up in the end-to-end latency: {}",
        outcome.e2e
    );
    assert!(world.metrics.counter("driver.hop.suspended") > 0);
    assert!(world.device("dev-0").tee.has_copy(&iri));
    chaos::check_invariants(&world).expect("invariants");
}

#[test]
fn permanently_crashed_pod_yields_typed_give_up_and_no_copy() {
    let (mut world, iri) = market_world(7);
    let pod_ep = world.owner(BOB).endpoint;
    let now = world.clock.now();
    world.set_fault_plan(FaultPlan::none().crash_forever(pod_ep, now));
    let ticket = world.submit(Request::ResourceAccess {
        device: "dev-0".into(),
        resource: iri.clone(),
    });
    world.run_until_idle();
    assert_eq!(
        world.in_flight(),
        0,
        "a permanent crash may not hang the driver"
    );
    let Some(Err(err)) = ticket.poll(&mut world) else {
        panic!("typed failure expected");
    };
    assert!(
        matches!(
            err,
            ProcessError::Oracle(OracleError::GaveUp {
                hop: HopKind::PodRequest,
                ..
            })
        ),
        "{err}"
    );
    assert!(
        !world.device("dev-0").tee.has_copy(&iri),
        "no copy was minted"
    );
    chaos::check_invariants(&world).expect("invariants");
}

#[test]
fn crashed_device_endpoint_blocks_only_that_device() {
    let mut world = World::new(WorldConfig {
        seed: 8,
        link: steady_link(),
        ..WorldConfig::default()
    });
    world.add_owner(BOB, "https://bob.pod/");
    world.add_device("dev-a", "https://a.id/me");
    world.add_device("dev-b", "https://b.id/me");
    world.pod_initiation(BOB).unwrap();
    let iri = world.owner(BOB).pod_manager.pod().iri_of("data/x");
    world
        .resource_initiation(
            BOB,
            "data/x",
            Body::Text("x".into()),
            scenario::medical_policy(&iri),
            vec![],
        )
        .unwrap();
    for d in ["dev-a", "dev-b"] {
        world.market_subscribe(d).unwrap();
        world.resource_indexing(d, &iri).unwrap();
        world.resource_access(d, &iri).unwrap();
    }
    // dev-a's host crashes for longer than the probe budget.
    let ep = world.device("dev-a").endpoint;
    let now = world.clock.now();
    world.set_fault_plan(FaultPlan::none().crash(ep, now, now + SimDuration::from_secs(300)));
    let ticket = world.submit(Request::PolicyMonitoring {
        webid: BOB.into(),
        path: "data/x".into(),
    });
    world.run_until_idle();
    let Some(Ok(Outcome::Monitored(outcome))) = ticket.poll(&mut world) else {
        panic!("round");
    };
    assert_eq!(outcome.expected, 2);
    assert_eq!(outcome.evidence, 1, "dev-b still answers");
}

/// Which link a lossy window goes on.
type Link = fn(&World) -> (EndpointId, EndpointId);
/// The world (and its resource) a request is submitted to, by seed.
type WorldAt = fn(u64) -> (World, String);
/// The request under test, over the world's resource.
type RequestFor = fn(&str) -> Request;

/// The retry arm of every hop kind a request crosses keeps the machine's
/// state: a 40 %-lossy window on the hop's link forces drops on exactly
/// that kind of hop, and the request still resolves to what the clean run
/// resolves to.
#[test]
fn every_hop_kind_rides_out_a_lossy_window_with_its_state_intact() {
    let device_pod: Link = |w| (w.device("dev-0").endpoint, w.owner(BOB).endpoint);
    let device_relay: Link = |w| (w.device("dev-0").endpoint, w.push_in.relay);
    let relay_gateway: Link = |w| (w.pull_in.relay, w.gateway);
    let access = |iri: &str| Request::ResourceAccess {
        device: "dev-0".into(),
        resource: iri.into(),
    };
    let indexing = |iri: &str| Request::ResourceIndexing {
        device: "dev-0".into(),
        resource: iri.into(),
    };
    let monitoring = |_: &str| monitoring_request();
    // (hops on the link, world before the request, link, request, whether
    // the drops to look for are the push-in uplink's)
    let rows: [(&str, WorldAt, Link, RequestFor, bool); 5] = [
        (
            "PodRequest/PodResponse",
            market_world,
            device_pod,
            access,
            false,
        ),
        (
            "PullOutRequest/PullOutResponse",
            market_world,
            device_relay,
            indexing,
            false,
        ),
        (
            "PullInPoll/PullInReturn",
            one_copy_world,
            relay_gateway,
            monitoring,
            false,
        ),
        (
            "DeviceProbe",
            one_copy_world,
            device_relay,
            monitoring,
            false,
        ),
        ("PushInUplink", market_world, device_relay, access, true),
    ];
    for (hops, world_at, link, request, uplink) in rows {
        // Seeds whose first draws lose several messages in a row.
        for seed in [0, 30, 39] {
            let run = |lossy: bool| {
                let (mut world, iri) = world_at(seed);
                if lossy {
                    // The device's uplink shares the device↔relay pair with
                    // the raw hops: give it the attempts a 40 % loss needs.
                    world.push_in.max_attempts = 12;
                    let (a, b) = link(&world);
                    let now = world.clock.now();
                    let until = now + SimDuration::from_secs(3600);
                    world.set_fault_plan(FaultPlan::none().drop_window(a, b, now, until, 400));
                }
                let ticket = world.submit(request(&iri));
                world.run_until_idle();
                let outcome = ticket.poll(&mut world).expect("completed");
                let drops = world.metrics.counter("driver.hop.drops");
                let (_, uplink_retries) = world.push_in.stats();
                (outcome_key(&outcome), drops, uplink_retries)
            };
            let (clean, drops, _) = run(false);
            assert_eq!(drops, 0, "{hops}, seed {seed}: the clean run drops nothing");
            let (lossy, drops, uplink_retries) = run(true);
            let on_kind = if uplink {
                uplink_retries
            } else {
                drops - uplink_retries
            };
            assert!(on_kind > 0, "{hops}, seed {seed}: nothing was dropped");
            assert_eq!(lossy, clean, "{hops}, seed {seed}");
        }
    }
}
