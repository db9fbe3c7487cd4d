//! Robustness: the architecture under crash faults (paper §V-2).
//!
//! Shows (i) chain liveness while a minority of validators crash — and the
//! stall with a crashed majority-of-slots; (ii) oracle retry riding over a
//! lossy network; (iii) immediate revocation: a policy update that sets the
//! retention to zero erases every outstanding copy on delivery.
//!
//! ```sh
//! cargo run --example revocation_and_faults
//! ```

use solid_usage_control::prelude::*;
use solid_usage_control::sim::{LatencyModel, LinkConfig};
use solid_usage_control::solid::Body;

const OWNER: &str = "https://owner.id/me";

fn main() -> Result<(), ProcessError> {
    // A WAN-ish, 2%-lossy network: oracle retries become visible.
    let mut world = World::new(WorldConfig {
        link: LinkConfig {
            latency: LatencyModel::Exponential {
                base: SimDuration::from_millis(20),
                mean_extra: SimDuration::from_millis(10),
            },
            drop_probability: 0.02,
            bandwidth_bps: Some(10_000_000),
        },
        validators: 5,
        ..WorldConfig::default()
    });
    world.add_owner(OWNER, "https://owner.pod/");
    for i in 0..4 {
        world.add_device(format!("device-{i}"), format!("https://c{i}.id/me"));
    }

    world.pod_initiation(OWNER)?;
    let policy = scenario::population_policy("https://owner.pod/data/feed.json", OWNER, 30);
    let resource = world.resource_initiation(
        OWNER,
        "data/feed.json",
        Body::Text("{\"entries\": []}".into()),
        policy,
        vec![],
    )?;
    for i in 0..4 {
        let d = format!("device-{i}");
        world.market_subscribe(&d)?;
        world.resource_indexing(&d, &resource)?;
        world.resource_access(&d, &resource)?;
    }
    println!("4 devices hold copies; network is lossy (2%)");
    let (submissions, retries) = world.push_in.stats();
    println!("push-in oracle so far: {submissions} submissions, {retries} retries\n");

    // --- Crash a minority of validators: the chain stays live, block
    // --- production just skips the dead proposers' slots.
    world.chain.set_validator_down(1, true);
    world.chain.set_validator_down(2, true);
    let t0 = world.clock.now();
    let round = world.policy_monitoring(OWNER, "data/feed.json")?;
    println!(
        "monitoring with 2/5 validators down: round {} finished in {} (slots missed: {})",
        round.round,
        world.clock.now() - t0,
        world.chain.slots_missed()
    );
    world.chain.set_validator_down(1, false);
    world.chain.set_validator_down(2, false);

    // --- Immediate revocation: retention zero. Every copy is erased the
    // --- moment the push-out delivery arrives.
    let propagation = world.policy_modification(
        OWNER,
        "data/feed.json",
        vec![Rule::permit([Action::Use])
            .with_constraint(Constraint::MaxRetention(SimDuration::ZERO))],
        vec![Duty::DeleteWithin(SimDuration::ZERO)],
    )?;
    let deletions = propagation
        .enforcement
        .iter()
        .filter(|(_, a)| {
            matches!(
                a,
                solid_usage_control::tee::EnforcementAction::Deleted { .. }
            )
        })
        .count();
    println!(
        "\nrevocation: policy v{} reached {} devices, {} copies erased, e2e {}",
        propagation.version, propagation.devices_notified, deletions, propagation.e2e
    );
    assert_eq!(deletions, 4, "all copies revoked");
    for i in 0..4 {
        assert!(!world.device(&format!("device-{i}")).tee.has_copy(&resource));
    }

    // --- Partition one device away from the oracle relay: monitoring
    // --- keeps working, the unreachable device is simply reported missing.
    let dev0 = world.device("device-0").endpoint;
    world.net.partition(dev0, world.push_in.relay);
    let round = world.policy_monitoring(OWNER, "data/feed.json")?;
    println!(
        "\nmonitoring after revocation + partition: expected {} devices, {} answered",
        round.expected, round.evidence
    );

    let (submissions, retries) = world.push_in.stats();
    let (delivered, dropped) = world.push_out.stats();
    println!("\noracle totals: push-in {submissions} submissions / {retries} retries; push-out {delivered} delivered / {dropped} dropped");
    Ok(())
}
