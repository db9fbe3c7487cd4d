//! Quickstart: spin up the architecture and run one owner/consumer pair
//! through all six processes.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use solid_usage_control::prelude::*;
use solid_usage_control::solid::Body;

fn main() -> Result<(), ProcessError> {
    // One simulated deployment: 4-validator PoA chain hosting the
    // DistExchange app, oracles, and a deterministic network.
    let mut world = World::new(WorldConfig::default());

    // Participants: Bob owns a pod; Alice consumes from her laptop.
    world.add_owner("https://bob.id/me", "https://bob.pod/");
    world.add_device("alice-laptop", "https://alice.id/me");

    // Process 1 — pod initiation.
    world.pod_initiation("https://bob.id/me")?;
    println!(
        "1. pod registered on-chain (height {})",
        world.chain.height()
    );

    // Process 2 — resource initiation with a usage policy:
    // medical purposes only, delete after 30 days.
    let policy = UsagePolicy::builder(
        "https://bob.pod/data/medical.ttl#policy",
        "https://bob.pod/data/medical.ttl",
        "https://bob.id/me",
    )
    .permit(
        Rule::permit([Action::Use])
            .with_constraint(Constraint::Purpose(vec![Purpose::new("medical")]))
            .with_constraint(Constraint::MaxRetention(SimDuration::from_days(30))),
    )
    .rule(Rule::prohibit([Action::Distribute]))
    .duty(Duty::DeleteWithin(SimDuration::from_days(30)))
    .duty(Duty::LogAccesses)
    .build();
    let resource = world.resource_initiation(
        "https://bob.id/me",
        "data/medical.ttl",
        Body::Text("patient_id,measurement\n42,healthy\n".into()),
        policy,
        vec![("domain".into(), "health".into())],
    )?;
    println!("2. resource indexed: {resource}");

    // Alice pays the market fee and discovers the resource (process 3).
    world.market_subscribe("alice-laptop")?;
    let entry = world.resource_indexing("alice-laptop", &resource)?;
    println!(
        "3. indexed at {} (policy v{})",
        entry.location, entry.policy.version
    );

    // Process 4 — fetch into the TEE's sealed storage.
    let outcome = world.resource_access("alice-laptop", &resource)?;
    println!(
        "4. {} bytes sealed in the TEE ({} end-to-end)",
        outcome.bytes, outcome.e2e
    );

    // Local use is policy-mediated: medical research is fine, marketing
    // is not.
    {
        let device = world.devices.get_mut("alice-laptop").expect("registered");
        let now = world.clock.now();
        assert!(device
            .tee
            .access(
                &resource,
                Action::Read,
                Purpose::new("medical-research"),
                now
            )
            .is_ok());
        let denied = device
            .tee
            .access(&resource, Action::Read, Purpose::new("marketing"), now)
            .unwrap_err();
        println!("   marketing use denied: {denied}");
    }

    // Process 5 — Bob narrows the allowed purpose to academic work.
    let propagation = world.policy_modification(
        "https://bob.id/me",
        "data/medical.ttl",
        vec![Rule::permit([Action::Use])
            .with_constraint(Constraint::Purpose(vec![Purpose::new("academic")]))],
        vec![Duty::LogAccesses],
    )?;
    println!(
        "5. policy v{} propagated to {} device(s) in {}",
        propagation.version, propagation.devices_notified, propagation.e2e
    );

    // Process 6 — Bob audits who is using his data, and how.
    let monitoring = world.policy_monitoring("https://bob.id/me", "data/medical.ttl")?;
    println!(
        "6. monitoring round {}: {}/{} evidence submissions, {} violator(s), {}",
        monitoring.round,
        monitoring.evidence,
        monitoring.expected,
        monitoring.violators.len(),
        monitoring.duration
    );

    println!("\ntotal gas spent: {}", world.chain.gas_used_total());
    Ok(())
}
