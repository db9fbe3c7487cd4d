//! Push-out fan-out is a function of who subscribes and who holds a copy
//! *now*: a policy change costs the same whether each device has accessed
//! one resource or sixteen, and concurrent policy changes each take their
//! own event out of the shared inbox.

use duc_contracts::topics;
use duc_core::prelude::*;
use duc_policy::{Duty, Rule};
use duc_sim::{LatencyModel, LinkConfig};
use duc_solid::Body;

const OWNERS: [&str; 2] = ["https://a.id/me", "https://b.id/me"];
const DEVICES: usize = 8;
/// Resources per owner: one more than the longest access list reaches, so
/// the rotated list of devices 6 and 7 never wraps round to `a0`.
const PER_OWNER: usize = 9;

fn config() -> WorldConfig {
    WorldConfig {
        link: LinkConfig {
            latency: LatencyModel::Constant(SimDuration::from_millis(10)),
            drop_probability: 0.0,
            bandwidth_bps: None,
        },
        ..WorldConfig::default()
    }
}

/// The rules and duties of a `days`-day retention policy.
fn retention(days: u64) -> (Vec<Rule>, Vec<Duty>) {
    let policy = scenario::population_policy("", "", days);
    (policy.rules, policy.duties)
}

fn path(j: usize) -> String {
    format!("data/set-{j}.bin")
}

fn device(i: usize) -> String {
    format!("device-{i}")
}

/// Submits `requests` together, runs to idle and unwraps every outcome.
fn run_all(world: &mut World, requests: Vec<Request>) -> Vec<Outcome> {
    let tickets: Vec<Ticket> = requests.into_iter().map(|r| world.submit(r)).collect();
    world.run_until_idle();
    tickets
        .into_iter()
        .map(|t| t.poll(world).expect("completed").expect("succeeds"))
        .collect()
}

/// Two owners with [`PER_OWNER`] resources each and eight subscribed
/// devices, each of which accessed `k` resources: devices 0–5 the first `k`
/// of `a0, b0, a1, b1, …`, devices 6 and 7 the first `k` of that list
/// rotated by one — so whatever `k` is, six devices hold `a0` and all eight
/// subscribe to policy updates. Returns the resource IRIs in list order.
fn market(world: &mut World, k: usize) -> Vec<String> {
    let mut resources = Vec::new();
    for (o, owner) in OWNERS.iter().enumerate() {
        world.add_owner(*owner, format!("https://pod-{o}.example/"));
        world.pod_initiation(owner).expect("pod init");
    }
    for j in 0..PER_OWNER {
        for owner in OWNERS {
            let iri = world.owner(owner).pod_manager.pod().iri_of(&path(j));
            let policy = scenario::population_policy(&iri, owner, 7);
            let body = Body::Binary(vec![0xA5; 256]);
            world
                .resource_initiation(owner, &path(j), body, policy, vec![])
                .expect("resource init");
            resources.push(iri);
        }
    }
    for i in 0..DEVICES {
        world.add_device(device(i), format!("https://c{i}.id/me"));
    }
    let subscribe = (0..DEVICES).map(|i| Request::MarketSubscribe { device: device(i) });
    run_all(world, subscribe.collect());
    for round in 0..k {
        let wanted = |i: usize| resources[(round + usize::from(i >= 6)) % resources.len()].clone();
        let index = (0..DEVICES).map(|i| Request::ResourceIndexing {
            device: device(i),
            resource: wanted(i),
        });
        run_all(world, index.collect());
        let access = (0..DEVICES).map(|i| Request::ResourceAccess {
            device: device(i),
            resource: wanted(i),
        });
        run_all(world, access.collect());
    }
    resources
}

fn gauge(snapshot: &duc_sim::MetricsRegistry, name: &str) -> f64 {
    let series = snapshot.gauge_families().get(name);
    *series
        .and_then(|family| family.get(&[][..]))
        .unwrap_or_else(|| panic!("no gauge {name}"))
}

/// What one policy change on `a0` cost: `(devices notified, propagation
/// samples, relay → subscriber transmissions)`.
fn one_policy_change(mut world: World, k: usize) -> (usize, usize, u64) {
    market(&mut world, k);
    // Every device subscribed once per access; the relay holds one
    // subscription per device and one per pod manager all the same, and a
    // thousand more repeats change nothing.
    let subscribers = (DEVICES + OWNERS.len()) as f64;
    let held = |w: &World| gauge(&w.metrics_snapshot(), "oracle.push_out.subscriptions");
    assert_eq!(held(&world), subscribers);
    let endpoint = world.device(&device(0)).endpoint;
    for _ in 0..1_000 {
        world.push_out.subscribe(topics::POLICY_UPDATED, endpoint);
    }
    assert_eq!(held(&world), subscribers);
    assert_eq!(world.push_out.stats(), (0, 0), "nothing pushed out yet");

    let (rules, duties) = retention(3);
    let outcome = world
        .policy_modification(OWNERS[0], &path(0), rules, duties)
        .expect("policy change");
    let samples = world
        .metrics
        .histogram_mut("process.policy_mod.propagation")
        .len();
    let (delivered, dropped) = world.push_out.stats();
    (outcome.devices_notified, samples, delivered + dropped)
}

#[test]
fn policy_change_cost_is_independent_of_access_history() {
    for k in [1, 4, 16] {
        // Six holders of a0, eight distinct subscribers, one event.
        let expected = (6, 6, DEVICES as u64);
        assert_eq!(
            one_policy_change(World::new(config()), k),
            expected,
            "k={k}"
        );
    }
}

/// Sixteen resources change policy at once; each request is notified of
/// exactly the holders of its own resource.
fn sixteen_concurrent_changes(mut world: World) {
    let resources = &market(&mut world, 4)[..16];
    let tickets: Vec<Ticket> = (0..resources.len())
        .map(|r| {
            let (rules, duties) = retention(3);
            world.submit(Request::PolicyModification {
                webid: OWNERS[r % 2].into(),
                path: path(r / 2),
                rules,
                duties,
            })
        })
        .collect();
    // `advance`, unlike `run_until_idle`, never empties the inbox itself:
    // whatever is gone from it was claimed.
    world.advance(SimDuration::from_secs(120));
    assert_eq!(world.in_flight(), 0);
    // Devices 0–5 hold resources 0..4 of the list, devices 6 and 7 hold 1..5.
    let holders = [6, 8, 8, 8, 2];
    for (r, ticket) in tickets.into_iter().enumerate() {
        match ticket.poll(&mut world).expect("completed") {
            Ok(Outcome::PolicyPropagated(outcome)) => {
                let expected = holders.get(r).copied().unwrap_or(0);
                assert_eq!(outcome.devices_notified, expected, "{}", resources[r]);
                assert_eq!(outcome.version, 2);
            }
            other => panic!("expected propagation, got {other:?}"),
        }
    }
    let propagation = world
        .metrics
        .histogram_mut("process.policy_mod.propagation");
    assert_eq!(propagation.len(), holders.iter().sum::<usize>());
    let transmissions = (resources.len() * DEVICES) as u64;
    assert_eq!(world.push_out.stats(), (transmissions, 0));
    let snapshot = world.metrics_snapshot();
    assert_eq!(gauge(&snapshot, "driver.inbox.events"), 0.0);
    assert_eq!(
        world.metrics.counter("driver.policy_update.hash_mismatch"),
        0
    );
}

#[test]
fn concurrent_policy_changes_each_claim_their_own_event() {
    sixteen_concurrent_changes(World::new(config()));
}
