//! `lifecycle_mix`: all six lifecycle stages beside each other.
//!
//! Per round every owner publishes a fresh resource (process 2), every
//! device indexes and fetches one of them (processes 3 and 4) and uses it
//! locally a few times, every owner then tightens the retention to 30
//! minutes (process 5: on-chain update plus push-out fan-out to the eight
//! holders) and runs a monitoring round over them (process 6). About 15
//! rounds later the tightened deadlines fire, the TEEs delete their copies
//! and anchor `unregister_copy` — so writes, fan-out, evidence and
//! enforcement all run beside the read-mostly access path.

use duc_core::{Outcome, Request, World, WorldConfig};
use duc_policy::{Action, Constraint, Duty, Purpose, Rule, UsagePolicy};
use duc_sim::SimDuration;
use duc_solid::Body;

use super::{
    decision_cache, drive_phase, peak_rss_mib, timed_setup, verify_chain, ChainSnapshot,
    CheckFailed, EstCounts, Measured, Window,
};
use crate::schedule::LifecycleSchedule;
use crate::trace::Tracer;

/// Sizes of `lifecycle_mix`.
#[derive(Debug, Clone)]
pub struct LifecycleSizes {
    /// Pod owners.
    pub owners: usize,
    /// Consumer devices per owner (and so holders per resource).
    pub devices_per_owner: usize,
    /// Rounds in the window.
    pub rounds: usize,
    /// Resource body size in bytes.
    pub body_bytes: usize,
}

/// Local uses of each fresh copy inside the TEE (the first evaluates the
/// compiled policy, the rest hit the decision cache).
const LOCAL_USES: usize = 4;

/// Retention a resource is published with.
const INITIAL_RETENTION: SimDuration = SimDuration::from_days(7);
/// Retention process 5 tightens it to.
const TIGHT_RETENTION: SimDuration = SimDuration::from_secs(30 * 60);

fn retention_policy(iri: &str, owner: &str, retention: SimDuration) -> UsagePolicy {
    UsagePolicy::builder(format!("{iri}#policy"), iri, owner)
        .permit(Rule::permit([Action::Use]).with_constraint(Constraint::MaxRetention(retention)))
        .duty(Duty::DeleteWithin(retention))
        .duty(Duty::LogAccesses)
        .build()
}

/// Runs one repeat.
///
/// # Errors
/// [`CheckFailed`] when set-up fails or a post-window integrity check
/// does not hold.
pub fn run(
    seed: u64,
    sizes: &LifecycleSizes,
    tracer: &mut Tracer,
) -> Result<Measured, CheckFailed> {
    let mut out = Measured::default();
    let fleet = sizes.owners * sizes.devices_per_owner;

    // ---- set-up: owners with registered pods, subscribed devices.
    let owners: Vec<(String, String)> = (0..sizes.owners)
        .map(|o| {
            (
                format!("https://lo{o}.id/me"),
                format!("https://lo{o}.pod/"),
            )
        })
        .collect();
    let devices: Vec<String> = (0..fleet).map(|d| format!("life-dev-{d}")).collect();
    let (mut world, schedule) = timed_setup(&mut out, || {
        let schedule = LifecycleSchedule::generate(seed, sizes.owners, fleet, sizes.rounds);
        let mut world = World::new(WorldConfig {
            seed,
            ..WorldConfig::default()
        });
        for (webid, root) in &owners {
            world.add_owner(webid.clone(), root.clone());
        }
        for (d, name) in devices.iter().enumerate() {
            world.add_device(name.clone(), format!("https://ld{d}.id/me"));
        }
        let enrol: Vec<Request> = owners
            .iter()
            .map(|(webid, _)| Request::PodInitiation {
                webid: webid.clone(),
            })
            .chain(devices.iter().map(|device| Request::MarketSubscribe {
                device: device.clone(),
            }))
            .collect();
        // At most 128 concurrent transactions per phase (see `WaveSizes`).
        for chunk in enrol.chunks(128) {
            for request in chunk {
                world.submit(request.clone());
            }
            world.run_until_idle();
            if let Some((_, Err(e))) = world.drain_events().into_iter().find(|(_, r)| r.is_err()) {
                return Err(CheckFailed(format!("set-up request failed: {e}")));
            }
        }
        Ok((world, schedule))
    })?;
    out.det_u64("_schedule_digest", schedule.digest());

    // ---- window.
    let before = ChainSnapshot::take(&world.chain);
    let cache_before = decision_cache(&world);
    let sim_start = world.clock.now();
    let (mut steps, mut monitoring_rounds, mut evidence, mut notified) = (0u64, 0u64, 0u64, 0u64);
    let research = Purpose::new("research");

    tracer.enter("workload");
    let mut win = Window::open();
    for (r, round) in schedule.rounds.iter().enumerate() {
        win.batch_begin(tracer);
        tracer.enter("batch");
        let path = format!("data/r{r}.bin");

        // Process 2 — every owner publishes a fresh resource.
        let publish: Vec<Request> = owners
            .iter()
            .zip(&round.body_fill)
            .map(|((webid, root), fill)| {
                let iri = format!("{root}{path}");
                Request::ResourceInitiation {
                    webid: webid.clone(),
                    path: path.clone(),
                    body: Body::Binary(vec![*fill; sizes.body_bytes]),
                    policy: retention_policy(&iri, webid, INITIAL_RETENTION),
                    metadata: vec![("round".into(), r.to_string())],
                }
            })
            .collect();
        let (s, drained) = drive_phase(
            &mut world,
            tracer,
            &mut win,
            ["phase.p2", "phase.p2"],
            publish,
        );
        steps += s;
        // Tickets are issued in submission order, so sorting by ticket
        // recovers owner order whatever order the outcomes completed in.
        let mut published: Vec<(u64, String)> = drained
            .into_iter()
            .filter_map(|(ticket, result)| match result {
                Ok(Outcome::ResourceInitiated { resource }) => Some((ticket.id(), resource)),
                _ => None,
            })
            .collect();
        published.sort_unstable();
        if published.len() != owners.len() {
            // Already counted as failures; later phases need every IRI.
            tracer.exit();
            win.batch_end();
            continue;
        }
        let resources: Vec<&str> = published.iter().map(|(_, iri)| iri.as_str()).collect();

        // Processes 3 and 4 — every device indexes, then fetches, the
        // resource the schedule assigned it this round.
        let assigned: Vec<(&str, &str)> = round
            .holders
            .iter()
            .zip(&resources)
            .flat_map(|(group, iri)| group.iter().map(|d| (devices[*d as usize].as_str(), *iri)))
            .collect();
        let index = assigned
            .iter()
            .map(|(device, iri)| Request::ResourceIndexing {
                device: (*device).into(),
                resource: (*iri).into(),
            })
            .collect();
        steps += drive_phase(
            &mut world,
            tracer,
            &mut win,
            ["phase.p3", "phase.p3"],
            index,
        )
        .0;
        let access = assigned
            .iter()
            .map(|(device, iri)| Request::ResourceAccess {
                device: (*device).into(),
                resource: (*iri).into(),
            })
            .collect();
        steps += drive_phase(
            &mut world,
            tracer,
            &mut win,
            ["phase.p4", "phase.p4"],
            access,
        )
        .0;

        // Local use inside the TEE: policy-mediated reads of the copy.
        tracer.enter("phase.p4");
        let now = world.clock.now();
        for (device, iri) in &assigned {
            let tee = &mut world.devices.get_mut(device).expect("fleet device").tee;
            for _ in 0..LOCAL_USES {
                match tracer.call("tee.access", || {
                    tee.access(iri, Action::Read, research.clone(), now)
                }) {
                    Ok(bytes) => win.fold_u64(bytes.len() as u64),
                    Err(e) => win.fail(format!("local use of {iri} on {device}: {e}")),
                }
            }
        }
        tracer.exit();

        // Process 5 — every owner tightens this round's retention.
        let tighten = owners
            .iter()
            .map(|(webid, _)| Request::PolicyModification {
                webid: webid.clone(),
                path: path.clone(),
                rules: vec![Rule::permit([Action::Use])
                    .with_constraint(Constraint::MaxRetention(TIGHT_RETENTION))],
                duties: vec![Duty::DeleteWithin(TIGHT_RETENTION), Duty::LogAccesses],
            })
            .collect();
        let (s, drained) = drive_phase(
            &mut world,
            tracer,
            &mut win,
            ["phase.p5", "phase.p5"],
            tighten,
        );
        steps += s;
        for (_, result) in &drained {
            if let Ok(Outcome::PolicyPropagated(p)) = result {
                notified += p.devices_notified as u64;
            }
        }

        // Process 6 — a monitoring round per resource.
        let monitor = owners
            .iter()
            .map(|(webid, _)| Request::PolicyMonitoring {
                webid: webid.clone(),
                path: path.clone(),
            })
            .collect();
        let (s, drained) = drive_phase(
            &mut world,
            tracer,
            &mut win,
            ["phase.p6", "phase.p6"],
            monitor,
        );
        steps += s;
        for (_, result) in &drained {
            if let Ok(Outcome::Monitored(m)) = result {
                monitoring_rounds += 1;
                evidence += m.evidence as u64;
                if !m.violators.is_empty() || m.evidence != m.expected {
                    win.fail(format!(
                        "monitoring round {}: {}/{} evidence, {} violators",
                        m.round,
                        m.evidence,
                        m.expected,
                        m.violators.len()
                    ));
                }
            }
        }

        tracer.exit();
        win.batch_end();
    }
    let requests = win.attempted;
    let makespan = (world.clock.now() - sim_start).as_nanos();
    let gas = before.gas_since(&world.chain);
    win.close(&mut out, tracer, makespan, gas);
    tracer.exit();

    let txs = before.counts_since(&world.chain, &mut out);
    out.det_f64(
        "count.driver_steps_per_req",
        steps as f64 / requests.max(1) as f64,
    );
    let (hits, misses) = decision_cache(&world);
    let (hits, misses) = (hits - cache_before.0, misses - cache_before.1);
    out.det_f64(
        "count.tee.decision_cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.det_f64(
        "count.monitoring.evidence_per_round",
        evidence as f64 / monitoring_rounds.max(1) as f64,
    );
    out.det_u64("count.policy_mod.devices_notified", notified);
    let fetched = (fleet * sizes.rounds) as u64;
    EstCounts {
        views: 2 * fetched,
        envelope_opens: fetched + notified,
        tee_stores: fetched,
        tee_updates: notified,
        tee_hits: hits,
        tee_misses: misses,
        tee_reports: evidence,
        ..EstCounts::default()
    }
    .write(&mut out, &world.chain, txs);
    out.wall("peak_rss_mib", peak_rss_mib());

    verify_chain(&world.chain)?;
    Ok(out)
}
