//! Deterministic chaos harness (FoundationDB-style simulation testing).
//!
//! A chaos run is: a seeded random [`FaultPlan`] over the world's endpoints
//! and validators, a batch of concurrent [`Request`]s submitted through the
//! non-blocking driver, one [`World::run_until_idle`] drive, and an
//! invariant sweep over the final state. Everything is a pure function of
//! the world seed and the chaos seed, so any failing case is reproduced by
//! its two seeds alone (see the README's *chaos harness* section).
//!
//! The invariants encode the paper's §V-2 robustness claims at the
//! architecture level:
//!
//! - **Total resolution** — every submitted ticket resolves with a success
//!   or a typed error; nothing is left pending and nothing hangs.
//! - **No lost certificates** — every certificate a device holds verifies
//!   against the DE App's on-chain registry.
//! - **Copy consistency** — every live TEE copy is registered on-chain (a
//!   fault can never mint an unregistered governed copy).
//! - **Consistent gas accounting** — every unit of consumed gas was paid
//!   out to a proposer, regardless of which fault windows hit.
//! - **Cursors never stranded** — the pull-in/push-out oracle cursors stay
//!   within `[prune_horizon, height]`: never ahead of the chain, never left
//!   below the prune horizon.
//! - **Checkpoint integrity** — every resident checkpoint block carries the
//!   state commitment its checkpoint sealed, and the latest checkpoint's
//!   block is never pruned.

use duc_contracts::calls::{ListCopies, VerifyCertificate};
use duc_sim::{EndpointId, FaultPlan, LatencyModel, LinkConfig, Rng, SimDuration, SimTime};

use crate::driver::{Outcome, ProcessError, Request, Ticket};
use crate::world::World;

/// The result of one chaos run: per-ticket outcomes plus aggregates.
#[derive(Debug)]
pub struct ChaosRun {
    /// The fault plan the run executed under.
    pub plan: FaultPlan,
    /// Every ticket's outcome, in submission order.
    pub outcomes: Vec<(Ticket, Result<Outcome, ProcessError>)>,
    /// Requests that completed successfully.
    pub ok: usize,
    /// Requests that resolved with a typed error.
    pub failed: usize,
    /// Process-machine steps executed.
    pub steps: u64,
    /// Wall-clock (simulated) duration of the batch.
    pub makespan: SimDuration,
}

/// The canonical chaos-suite link profile — fixed `ms` latency, no random
/// loss, 10 MB/s — shared by the chaos tests and the conformance
/// suite so both exercise the same network.
pub fn fixed_link(ms: u64) -> LinkConfig {
    LinkConfig {
        latency: LatencyModel::Constant(SimDuration::from_millis(ms)),
        drop_probability: 0.0,
        bandwidth_bps: Some(10_000_000),
    }
}

/// The canonical *healing* plan: a crash window over `endpoint`, then a
/// partition on `endpoint` ↔ `relay`, both healing within 12 s of `now` —
/// in-flight requests must suspend and recover, never fail or hang.
pub fn healing_plan(now: SimTime, endpoint: EndpointId, relay: EndpointId) -> FaultPlan {
    FaultPlan::none()
        .crash(endpoint, now, now + SimDuration::from_secs(8))
        .partition(
            endpoint,
            relay,
            now + SimDuration::from_secs(8),
            now + SimDuration::from_secs(12),
        )
}

/// Generates a seeded random [`FaultPlan`] over every endpoint and
/// validator of `world`, with windows starting within `horizon` of the
/// current instant. Identical `(world, seed)` pairs yield identical plans.
pub fn random_plan(world: &World, seed: u64, horizon: SimDuration, max_faults: usize) -> FaultPlan {
    let mut endpoints: Vec<EndpointId> = (0..world.net.endpoint_count() as u32)
        .map(EndpointId)
        .collect();
    // Weight the shared infrastructure — oracle relay, chain gateway and
    // every pod manager sit on almost every hop, so random faults should
    // hit busy links far more often than an idle device's. Owner endpoints
    // are sorted: HashMap order must never leak into a seeded plan.
    let mut owner_eps: Vec<EndpointId> = world.owners.values().map(|o| o.endpoint).collect();
    owner_eps.sort_unstable();
    for _ in 0..2 {
        endpoints.push(world.push_in.relay);
        endpoints.push(world.gateway);
        endpoints.extend(&owner_eps);
    }
    let mut rng = Rng::seed_from_u64(seed);
    FaultPlan::random(
        &mut rng,
        &endpoints,
        world.chain.validator_count(),
        world.clock.now(),
        horizon,
        max_faults,
    )
}

/// Submits `requests` concurrently under `plan`, drives the world to idle,
/// and checks every invariant.
///
/// # Errors
/// A human-readable description of the first violated invariant (embed the
/// seeds in the caller's panic message to make the case reproducible).
pub fn run_chaos(
    world: &mut World,
    requests: Vec<Request>,
    plan: FaultPlan,
) -> Result<ChaosRun, String> {
    world.set_fault_plan(plan.clone());
    let t0 = world.clock.now();
    let tickets: Vec<Ticket> = requests.into_iter().map(|r| world.submit(r)).collect();
    let steps = world.run_until_idle();
    let makespan = world.clock.now() - t0;

    let mut outcomes = Vec::with_capacity(tickets.len());
    for ticket in tickets {
        match world.poll_ticket(ticket) {
            Some(res) => outcomes.push((ticket, res)),
            None => {
                return Err(format!(
                    "ticket {} still unresolved after run_until_idle",
                    ticket.id()
                ))
            }
        }
    }
    check_invariants(world)?;

    let ok = outcomes.iter().filter(|(_, r)| r.is_ok()).count();
    let failed = outcomes.len() - ok;
    Ok(ChaosRun {
        plan,
        outcomes,
        ok,
        failed,
        steps,
        makespan,
    })
}

/// Sweeps the architecture-level invariants over a quiesced world (no
/// request in flight).
///
/// # Errors
/// A description of the first violated invariant.
pub fn check_invariants(world: &World) -> Result<(), String> {
    if world.in_flight() != 0 {
        return Err(format!("{} requests still in flight", world.in_flight()));
    }

    // No lost certificates: everything a device holds verifies on-chain.
    let mut devices: Vec<(&str, &crate::world::Device)> = world.devices.iter().collect();
    devices.sort_by_key(|(name, _)| *name);
    for (name, device) in &devices {
        if let Some(cert) = device.certificate {
            let verify = VerifyCertificate {
                certificate: cert,
                webid: device.webid.clone(),
            };
            match world.dex.view(&world.chain, verify) {
                Ok(true) => {}
                Ok(false) => {
                    return Err(format!(
                        "device {name} holds a certificate the chain rejects"
                    ))
                }
                Err(e) => return Err(format!("certificate check for {name} failed: {e}")),
            }
        }
    }

    // Copy consistency: every live TEE copy is registered on-chain.
    for (name, device) in &devices {
        for resource in device.tee.resources() {
            if !device.tee.has_copy(resource) {
                continue;
            }
            let call = ListCopies {
                resource: resource.to_string(),
            };
            let copies = (world.dex.view(&world.chain, call))
                .map_err(|e| format!("list_copies({resource}) failed: {e}"))?;
            if !copies.iter().any(|c| c.device == *name) {
                return Err(format!(
                    "device {name} holds an unregistered copy of {resource}"
                ));
            }
        }
    }

    // Consistent gas accounting: consumed gas == proposer income.
    let ledger_total: u64 = world.chain.gas_used_total();
    let validator_income: u128 = world
        .chain
        .validator_addresses()
        .iter()
        .map(|addr| world.chain.balance(addr))
        .sum();
    let expected = ledger_total as u128 * world.chain.gas_price();
    if validator_income != expected {
        return Err(format!(
            "gas accounting drifted: validators hold {validator_income}, ledger says {expected}"
        ));
    }

    // Oracle cursors never stranded: each cursor stays within
    // `[prune_horizon, height]` — never ahead of the chain, and never left
    // pointing into a pruned range after a quiesced run (the driver's
    // checkpoint-resync path must have lifted it).
    let height = world.chain.height();
    let horizon = world.chain.prune_horizon();
    if world.push_out.cursor() > height {
        return Err(format!(
            "push-out cursor {} ran ahead of height {height}",
            world.push_out.cursor()
        ));
    }
    if world.pull_in.cursor() > height {
        return Err(format!(
            "pull-in cursor {} ran ahead of height {height}",
            world.pull_in.cursor()
        ));
    }
    if world.push_out.cursor() < horizon {
        return Err(format!(
            "push-out cursor {} stranded below prune horizon {horizon}",
            world.push_out.cursor()
        ));
    }
    if world.pull_in.cursor() < horizon {
        return Err(format!(
            "pull-in cursor {} stranded below prune horizon {horizon}",
            world.pull_in.cursor()
        ));
    }

    // Checkpoint integrity: every resident checkpoint block's sealed state
    // commitment matches the chain's recorded header, and the latest
    // checkpoint's block is still resident — a fault can never prune (or
    // forge) the block a finalized checkpoint anchors to.
    world
        .chain
        .verify_checkpoints()
        .map_err(|e| format!("checkpoint integrity violated: {e}"))?;

    // Page-store integrity: every world-state page — resident or spilled —
    // decodes, verifies its digest, covers its directory range, and the
    // full slot multiset still reproduces the state commitment
    // accumulator. No read can have observed a stale evicted page if this
    // holds at quiescence, because fault-ins re-verify the same digests.
    world
        .chain
        .verify_pages()
        .map_err(|e| format!("page-store integrity violated: {e}"))?;
    Ok(())
}

/// Serializes everything observable about a run — metric counters (which
/// include the driver's retry/backoff and suspension schedules), latency
/// histograms, the structured trace, the clock, the chain height and the
/// gas ledger — into one string. Identically-seeded runs must produce
/// byte-identical fingerprints.
pub fn fingerprint(world: &mut World) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    for (name, value) in world.metrics.counters() {
        let _ = writeln!(out, "counter {name} = {value}");
    }
    let names: Vec<String> = world.metrics.histogram_names().map(String::from).collect();
    for name in names {
        let summary = world.metrics.histogram_mut(&name).summary();
        let _ = writeln!(out, "histogram {name}: {summary}");
    }
    for event in world.trace.events() {
        let _ = writeln!(out, "{event}");
    }
    let _ = writeln!(out, "clock {}", world.clock.now());
    let _ = writeln!(out, "height {}", world.chain.height());
    let gas: u64 = world.chain.gas_used_total();
    let _ = writeln!(out, "gas {gas}");
    // The state commitment covers every live slot regardless of where its
    // page resides, so two fingerprint-equal runs hold identical world
    // state — not merely identical observable traces.
    let _ = writeln!(out, "commitment {}", world.chain.state_commitment());
    out
}

/// A mixed concurrent request batch over one resource: (re-)accesses from
/// every device racing two monitoring rounds — the workload the chaos
/// suite and the E8 experiment both throw at fault plans. Launched against
/// a world whose devices already hold copies, the monitoring rounds probe
/// every holder while the accesses are in flight.
pub fn mixed_batch(owner: &str, path: &str, resource: &str, devices: usize) -> Vec<Request> {
    let mut requests: Vec<Request> = (0..devices)
        .map(|i| Request::ResourceAccess {
            device: format!("device-{i}"),
            resource: resource.to_string(),
        })
        .collect();
    requests.push(Request::PolicyMonitoring {
        webid: owner.to_string(),
        path: path.to_string(),
    });
    requests.push(Request::PolicyMonitoring {
        webid: owner.to_string(),
        path: path.to_string(),
    });
    requests
}

/// A policy-churn batch: the [`mixed_batch`] workload plus a *mid-flight
/// policy modification* that tightens retention to zero — every copy
/// holder must delete on update receipt while re-accesses and monitoring
/// rounds race the fan-out (the ongoing-authorization-on-policy-change
/// scenario class of the deadline-enforcement refactor).
pub fn policy_churn_batch(owner: &str, path: &str, resource: &str, devices: usize) -> Vec<Request> {
    use duc_policy::{Action, Constraint, Duty, Rule};
    use duc_sim::SimDuration as D;

    let mut requests = mixed_batch(owner, path, resource, devices);
    requests.push(Request::PolicyModification {
        webid: owner.to_string(),
        path: path.to_string(),
        rules: vec![Rule::permit([Action::Use]).with_constraint(Constraint::MaxRetention(D::ZERO))],
        duties: vec![Duty::DeleteWithin(D::ZERO), Duty::LogAccesses],
    });
    requests
}

/// Builds the canonical chaos launch pad: one owner at `owner` with the
/// shared resource at `path` (4 KiB, 7-day retention), and `n_devices`
/// devices that have subscribed, indexed and fetched a governed copy — so
/// a [`mixed_batch`] launched against it re-accesses the resource while
/// its monitoring rounds probe every copy holder. Shared by the chaos test
/// suite and the E8 experiment so both exercise the same workload.
pub fn launch_pad(
    owner: &str,
    path: &str,
    n_devices: usize,
    config: crate::world::WorldConfig,
) -> (World, String) {
    launch_pad_in(World::new(config), owner, path, n_devices)
}

/// [`launch_pad`] over a caller-supplied world (the suites build one per
/// execution mode and seed).
pub fn launch_pad_in(
    mut world: World,
    owner: &str,
    path: &str,
    n_devices: usize,
) -> (World, String) {
    world.add_owner(owner, "https://owner.pod/");
    for i in 0..n_devices {
        world.add_device(format!("device-{i}"), format!("https://c{i}.id/me"));
    }
    world.pod_initiation(owner).expect("pod init");
    let iri = world.owner(owner).pod_manager.pod().iri_of(path);
    let policy = crate::scenario::population_policy(&iri, owner, 7);
    let resource = world
        .resource_initiation(
            owner,
            path,
            duc_solid::Body::Binary(vec![0xA5; 4 << 10]),
            policy,
            vec![],
        )
        .expect("resource init");
    let mut tickets = Vec::new();
    for i in 0..n_devices {
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
        t.poll(&mut world).expect("completed").expect("setup ok");
    }
    let mut accesses = Vec::new();
    for i in 0..n_devices {
        accesses.push(world.submit(Request::ResourceAccess {
            device: format!("device-{i}"),
            resource: resource.clone(),
        }));
    }
    world.run_until_idle();
    for t in accesses {
        t.poll(&mut world)
            .expect("completed")
            .expect("initial access ok");
    }
    (world, resource)
}
