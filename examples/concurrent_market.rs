//! Concurrent market: dozens of consumers race through the non-blocking
//! driver API while monitoring rounds run in parallel.
//!
//! Where `quickstart` walks one owner/consumer pair through the six
//! processes sequentially, this example submits a whole market's worth of
//! work at once — `World::submit` returns a `Ticket` immediately, every
//! in-flight process advances hop-by-hop on the simulation scheduler, and
//! `World::run_until_idle` drives them all to completion, interleaved
//! across block boundaries.
//!
//! ```sh
//! cargo run --example concurrent_market
//! cargo run --example concurrent_market -- --wall-clock
//! ```
//!
//! With `--wall-clock` the scripted market runs on the real-time runtime
//! instead: a `WallClock` timer thread paces admissions at their scripted
//! instants (200× compressed), and a Prometheus-style `/metrics` endpoint
//! serves the run's counters on a loopback socket while it executes.

use solid_usage_control::prelude::*;
use solid_usage_control::solid::Body;

const OWNER: &str = "https://owner.id/me";
const DEVICES: usize = 24;

/// Drive the scripted market on the wall-clock runtime with a live
/// `/metrics` endpoint, then print the scrape address and a summary.
fn wall_clock_market() -> Result<(), ProcessError> {
    const SCALE: u64 = 200; // 200 logical seconds ≈ 1 real second
    let (mut world, script) = solid_usage_control::core::market_world(8, 42);
    let page = MetricsPage::new();
    let server =
        MetricsServer::serve(page.clone(), "127.0.0.1:0").expect("bind loopback metrics socket");
    println!(
        "wall-clock mode ({SCALE}× compression); scrape {} while it runs",
        server.url()
    );

    let requests = script.len();
    let started = std::time::Instant::now();
    let run = run_wall(
        &mut world,
        script,
        SCALE,
        Some(page.clone()),
        &ShutdownSignal::new(),
        // Refresh the served page every 10 logical seconds (50 real ms),
        // so a scrape during the run sees it progress.
        &DriveConfig {
            export_every: Some(SimDuration::from_secs(10)),
            ..DriveConfig::default()
        },
        |_| Vec::new(),
    );
    let elapsed = started.elapsed();
    for (_, outcome) in &run.outcomes {
        outcome.as_ref().map_err(|e| e.clone())?;
    }
    println!(
        "{requests} requests → {} outcomes in {:.2} real s ({:.1} req/s), drained: {}",
        run.outcomes.len(),
        elapsed.as_secs_f64(),
        run.report.admitted as f64 / elapsed.as_secs_f64(),
        run.report.drained,
    );
    let scrape = page.text();
    let families = scrape.lines().filter(|l| l.starts_with("# TYPE ")).count();
    println!(
        "final scrape: {families} metric families, {} bytes",
        scrape.len()
    );
    Ok(())
}

fn main() -> Result<(), ProcessError> {
    if std::env::args().any(|arg| arg == "--wall-clock") {
        return wall_clock_market();
    }
    let mut world = World::new(WorldConfig::default());

    // One data owner, two datasets, two dozen consumer devices.
    world.add_owner(OWNER, "https://owner.pod/");
    for i in 0..DEVICES {
        world.add_device(format!("device-{i}"), format!("https://consumer-{i}.id/me"));
    }
    world.pod_initiation(OWNER)?;
    let mut resources = Vec::new();
    for (path, days) in [("data/telemetry.csv", 30), ("data/survey.csv", 7)] {
        let iri = world.owner(OWNER).pod_manager.pod().iri_of(path);
        let policy = UsagePolicy::builder(format!("{iri}#policy"), &iri, OWNER)
            .permit(
                Rule::permit([Action::Use])
                    .with_constraint(Constraint::MaxRetention(SimDuration::from_days(days))),
            )
            .duty(Duty::DeleteWithin(SimDuration::from_days(days)))
            .duty(Duty::LogAccesses)
            .build();
        let resource = world.resource_initiation(
            OWNER,
            path,
            Body::Text("ts,value\n".repeat(512)),
            policy,
            vec![("domain".into(), "iot".into())],
        )?;
        resources.push(resource);
    }

    // Phase 1 — every device subscribes and indexes both resources, all in
    // flight at once.
    let mut setup = Vec::new();
    for i in 0..DEVICES {
        setup.push(world.submit(Request::MarketSubscribe {
            device: format!("device-{i}"),
        }));
        for resource in &resources {
            setup.push(world.submit(Request::ResourceIndexing {
                device: format!("device-{i}"),
                resource: resource.clone(),
            }));
        }
    }
    println!("phase 1: {} requests in flight", world.in_flight());
    world.run_until_idle();
    for ticket in setup {
        ticket.poll(&mut world).expect("completed")?;
    }
    println!(
        "phase 1 done at {} (chain height {})",
        world.clock.now(),
        world.chain.height()
    );

    // Phase 2 — every device fetches both resources while the owner runs a
    // monitoring round per resource, all concurrently.
    let t0 = world.clock.now();
    let mut accesses = Vec::new();
    for i in 0..DEVICES {
        for resource in &resources {
            accesses.push(world.submit(Request::ResourceAccess {
                device: format!("device-{i}"),
                resource: resource.clone(),
            }));
        }
    }
    let rounds: Vec<Ticket> = ["data/telemetry.csv", "data/survey.csv"]
        .into_iter()
        .map(|path| {
            world.submit(Request::PolicyMonitoring {
                webid: OWNER.into(),
                path: path.into(),
            })
        })
        .collect();
    println!("phase 2: {} requests in flight", world.in_flight());
    world.run_until_idle();

    let mut fetched = 0usize;
    for ticket in accesses {
        if let Some(Ok(Outcome::Accessed(outcome))) = ticket.poll(&mut world) {
            fetched += outcome.bytes;
        }
    }
    for ticket in rounds {
        if let Some(Ok(Outcome::Monitored(outcome))) = ticket.poll(&mut world) {
            println!(
                "monitoring round {}: {}/{} evidence submissions, {} violator(s)",
                outcome.round,
                outcome.evidence,
                outcome.expected,
                outcome.violators.len()
            );
        }
    }
    let makespan = world.clock.now() - t0;
    let batch = DEVICES * resources.len();
    println!(
        "phase 2 done: {batch} accesses ({fetched} bytes) + 2 rounds in {makespan} \
         ({:.1} req/s)",
        (batch + 2) as f64 / makespan.as_secs_f64()
    );

    // Tail latency under contention, straight from the metrics registry.
    let h = world.metrics.histogram_mut("process.access.e2e");
    println!("access e2e under contention: {}", h.summary());
    Ok(())
}
