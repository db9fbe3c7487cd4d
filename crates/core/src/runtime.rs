//! Execution modes: one [`World`], two loops.
//!
//! The driver's state machines only ever observe logical [`SimTime`]. A
//! scripted deterministic run is the world's own event loop
//! ([`run_scripted`]: admit each [`Request`] at its instant, then run to
//! idle). [`run_wall`] runs the same script on real time instead, through
//! `duc-runtime`'s [`drive()`] loop on a [`WallClock`] (with optional time
//! compression), and also accepts live injection from producer threads
//! through a [`WallHandle`].
//!
//! Outcomes are compared across modes with [`outcome_key`], which
//! deliberately ignores every timing-derived field: wall-clock jitter
//! shifts *when* a process runs, never *what* it decides.

use duc_blockchain::Ledger;
use duc_runtime::{
    drive, DriveConfig, DriveReport, MetricsPage, ShutdownSignal, WallClock, WallHandle, Workload,
};
use duc_sim::SimTime;

use crate::driver::{Outcome, ProcessError, Request, Ticket};
use crate::world::World;

/// What a wall-clock run produced.
#[derive(Debug)]
pub struct RuntimeRun {
    /// The drive loop's accounting (admissions, exports, drain status).
    pub report: DriveReport,
    /// Every completed outcome, in completion order.
    pub outcomes: Vec<(Ticket, Result<Outcome, ProcessError>)>,
}

/// [`Workload`] adapter pacing a [`World`] on a [`WallClock`].
///
/// `pace(now)` advances the world by the logical delta since its own
/// clock and collects completions; `next_due` is the world scheduler's
/// next event — every wake the world has, obligation wakeups included —
/// so the world's scheduler is the only timer queue: the drive loop
/// sleeps until its next event (or an injection, a script instant or an
/// export point) and paces the world there.
pub(crate) struct PacedWorld<'w, L: Ledger = duc_blockchain::Blockchain> {
    world: &'w mut World<L>,
    page: Option<MetricsPage>,
    outcomes: Vec<(Ticket, Result<Outcome, ProcessError>)>,
}

impl<'w, L: Ledger> PacedWorld<'w, L> {
    /// Wraps a world; every export overwrites `page`, when given, with
    /// the rendered [`World::metrics_snapshot`].
    pub(crate) fn new(world: &'w mut World<L>, page: Option<MetricsPage>) -> Self {
        PacedWorld {
            world,
            page,
            outcomes: Vec::new(),
        }
    }

    /// Consumes the adapter, returning the collected outcomes.
    pub(crate) fn into_outcomes(self) -> Vec<(Ticket, Result<Outcome, ProcessError>)> {
        self.outcomes
    }
}

impl<L: Ledger> Workload for PacedWorld<'_, L> {
    type Cmd = Request;

    fn admit(&mut self, cmd: Request) {
        self.world.submit(cmd);
    }

    fn pace(&mut self, now: SimTime) {
        let behind = now.saturating_since(self.world.clock.now());
        self.world.advance(behind);
        self.outcomes.extend(self.world.drain_events());
    }

    fn next_due(&mut self) -> Option<SimTime> {
        self.world.sched.next_event_at()
    }

    fn in_flight(&self) -> usize {
        self.world.in_flight()
    }

    fn export(&mut self) {
        if let Some(page) = &self.page {
            page.publish(&self.world.metrics_snapshot());
        }
    }
}

/// Runs a scripted workload — [`Request`]s submitted at absolute logical
/// instants — on the world's own event loop, then to idle, returning
/// every outcome in completion order. Requests due at the same instant
/// are submitted in script order; one due in the past is submitted now.
pub fn run_scripted<L: Ledger>(
    world: &mut World<L>,
    mut script: Vec<(SimTime, Request)>,
) -> Vec<(Ticket, Result<Outcome, ProcessError>)> {
    script.sort_by_key(|&(at, _)| at);
    for (at, request) in script {
        world.advance(at.saturating_since(world.clock.now()));
        world.submit(request);
    }
    world.run_until_idle();
    world.drain_events()
}

/// Wall-clock run of `script`, compressed by `scale` (logical seconds per
/// real second; 1 is true pace), with live producers:
/// `spawn_producers` receives a [`WallHandle`] for injecting requests
/// from other threads and returns their join handles, which are joined
/// after the drive loop exits (`|_| Vec::new()` for none). The loop keeps
/// waiting while any producer still holds a handle clone, so late
/// injections are never lost — they are admitted (or, after a shutdown
/// request, counted as rejected).
pub fn run_wall<L, F>(
    world: &mut World<L>,
    script: Vec<(SimTime, Request)>,
    scale: u64,
    page: Option<MetricsPage>,
    shutdown: &ShutdownSignal,
    config: &DriveConfig,
    spawn_producers: F,
) -> RuntimeRun
where
    L: Ledger,
    F: FnOnce(WallHandle<Request>) -> Vec<std::thread::JoinHandle<()>>,
{
    let mut clock: WallClock<Request> = WallClock::with_scale(world.clock.now(), scale);
    let producers = spawn_producers(clock.handle());
    let mut paced = PacedWorld::new(world, page);
    let report = drive(&mut clock, &mut paced, script, shutdown, config);
    for producer in producers {
        let _ = producer.join();
    }
    RuntimeRun {
        report,
        outcomes: paced.into_outcomes(),
    }
}

/// The concurrent-market workload shared by the E18 gate, the
/// runtime-mode tests and the `concurrent_market --wall-clock` example:
/// one owner with two datasets, `devices` consumer devices that all
/// subscribe, index and fetch both resources, then two monitoring rounds.
///
/// The survey dataset carries a 90-second retention, so its copies are
/// deleted by the TEEs *during* the run — the obligation wakeups land
/// between the access wave and the monitoring rounds, exercising the
/// enforcement path (and its metrics) in both execution modes. Script
/// instants are spaced so that each phase completes with a wide logical
/// margin before the next begins; wall-clock jitter would need to exceed
/// that margin (tens of logical seconds) to reorder phases.
pub fn market_world(devices: usize, seed: u64) -> (World, Vec<(SimTime, Request)>) {
    use duc_policy::{Action, Constraint, Duty, Rule, UsagePolicy};
    use duc_sim::SimDuration;
    use duc_solid::Body;

    const OWNER: &str = "https://owner.id/me";
    let mut world = World::new(crate::world::WorldConfig {
        seed,
        ..Default::default()
    });
    world.add_owner(OWNER, "https://owner.pod/");
    for i in 0..devices {
        world.add_device(format!("device-{i}"), format!("https://consumer-{i}.id/me"));
    }
    world.pod_initiation(OWNER).expect("pod initiation");
    let mut resources = Vec::new();
    for (path, retention) in [
        ("data/telemetry.csv", SimDuration::from_days(30)),
        ("data/survey.csv", SimDuration::from_secs(90)),
    ] {
        let iri = world.owner(OWNER).pod_manager.pod().iri_of(path);
        let policy = UsagePolicy::builder(format!("{iri}#policy"), &iri, OWNER)
            .permit(
                Rule::permit([Action::Use]).with_constraint(Constraint::MaxRetention(retention)),
            )
            .duty(Duty::DeleteWithin(retention))
            .duty(Duty::LogAccesses)
            .build();
        let resource = world
            .resource_initiation(
                OWNER,
                path,
                Body::Text("ts,value\n".repeat(256)),
                policy,
                vec![("domain".into(), "iot".into())],
            )
            .expect("resource initiation");
        resources.push(resource);
    }

    let t0 = world.clock.now();
    let mut script = Vec::new();
    for i in 0..devices {
        script.push((
            t0 + SimDuration::from_millis(200 * i as u64),
            Request::MarketSubscribe {
                device: format!("device-{i}"),
            },
        ));
        for (j, resource) in resources.iter().enumerate() {
            script.push((
                t0 + SimDuration::from_secs(8) + SimDuration::from_millis(200 * (2 * i + j) as u64),
                Request::ResourceIndexing {
                    device: format!("device-{i}"),
                    resource: resource.clone(),
                },
            ));
            script.push((
                t0 + SimDuration::from_secs(40)
                    + SimDuration::from_millis(250 * (2 * i + j) as u64),
                Request::ResourceAccess {
                    device: format!("device-{i}"),
                    resource: resource.clone(),
                },
            ));
        }
    }
    // Monitoring runs after the survey copies' 90 s retention has lapsed
    // (their deletions land around t0+130 s), so each round observes the
    // same post-enforcement market in both modes.
    for (j, path) in ["data/telemetry.csv", "data/survey.csv"].iter().enumerate() {
        script.push((
            t0 + SimDuration::from_secs(180 + 2 * j as u64),
            Request::PolicyMonitoring {
                webid: OWNER.into(),
                path: (*path).into(),
            },
        ));
    }
    (world, script)
}

/// Canonical timing-free identity of an outcome, for cross-mode
/// comparison: what a process decided and delivered, never when. Latency
/// fields, certificates (bound to validity windows), block numbers and
/// gas are all excluded; counts and identities are kept.
pub fn outcome_key(result: &Result<Outcome, ProcessError>) -> String {
    match result {
        Ok(Outcome::PodInitiated { webid }) => format!("pod_initiated:{webid}"),
        Ok(Outcome::ResourceInitiated { resource }) => format!("resource_initiated:{resource}"),
        Ok(Outcome::Indexed { entry }) => {
            format!("indexed:{}:{}", entry.owner_webid, entry.location)
        }
        Ok(Outcome::Subscribed { .. }) => "subscribed".to_string(),
        Ok(Outcome::Accessed(access)) => format!("accessed:{}b", access.bytes),
        Ok(Outcome::PolicyPropagated(p)) => format!(
            "policy_propagated:v{}:{}notified:{}enforced",
            p.version,
            p.devices_notified,
            p.enforcement.len()
        ),
        Ok(Outcome::Monitored(m)) => {
            let mut violators = m.violators.clone();
            violators.sort_unstable();
            format!(
                "monitored:r{}:{}/{}:{:?}",
                m.round, m.evidence, m.expected, violators
            )
        }
        Ok(Outcome::ObligationsEnforced {
            device,
            resource,
            deleted,
        }) => format!("obligations_enforced:{device}:{resource}:{deleted}"),
        Err(e) => format!("error:{e}"),
    }
}

/// Sorted multiset of [`outcome_key`]s — the cross-mode equivalence
/// fingerprint (completion *order* is timing, so it is not part of it).
pub fn outcome_set(outcomes: &[(Ticket, Result<Outcome, ProcessError>)]) -> Vec<String> {
    let mut keys: Vec<String> = outcomes.iter().map(|(_, r)| outcome_key(r)).collect();
    keys.sort_unstable();
    keys
}

// Wall mode moves injected requests across threads (producers to the
// consumer loop); this pins the requirement at compile time.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Request>();
};
