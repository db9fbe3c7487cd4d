//! Runtime modes: the same world, scripted on its own loop and on a wall
//! clock.
//!
//! - A scripted sim run is the world's own submit/advance loop, pinned to
//!   a known answer.
//! - The concurrent-market script produces the same outcome *set*
//!   (timing-free keys) in sim and wall-clock mode.
//! - A wall-mode run drains gracefully on shutdown: late injections are
//!   rejected, in-flight work completes, nothing is left dangling.
//! - A rendered `World::metrics_snapshot` is the `/metrics` page and the
//!   endpoint serves every family (checked in-process, no
//!   curl); the page is a pure, replay-stable render that leaves the
//!   world's own registry — and so its fingerprint — untouched.

use std::io::{Read as _, Write as _};

use duc_core::runtime::{market_world, outcome_set, run_wall};
use duc_core::{chaos, run_scripted, Outcome, ProcessError, Request, Ticket, World};
use duc_runtime::{render, DriveConfig, MetricsPage, MetricsServer, ShutdownSignal, Tick};
use duc_sim::{SimDuration, SimTime};

/// Logical seconds per real second in the wall-mode tests: the ~185 s
/// market script replays in under two real seconds, while jitter would
/// need to exceed the script's inter-phase margins (≥ 30 logical s,
/// i.e. ≥ 300 real ms of stall) to change any outcome.
const SCALE: u64 = 100;

#[test]
fn market_outcomes_match_across_modes() {
    let devices = 6;
    let (mut sim_world, sim_script) = market_world(devices, 7);
    let sim_outcomes = run_scripted(&mut sim_world, sim_script);

    let (mut wall_world, wall_script) = market_world(devices, 7);
    let wall_run = run_wall(
        &mut wall_world,
        wall_script,
        SCALE,
        None,
        &ShutdownSignal::new(),
        &DriveConfig::default(),
        |_| Vec::new(),
    );

    let expected = devices * (1 + 2 + 2) + 2; // subscribe + 2 index + 2 access, 2 rounds
    assert_eq!(sim_outcomes.len(), expected);
    assert!(sim_world.in_flight() == 0 && wall_run.report.drained);
    assert_eq!(
        outcome_set(&sim_outcomes),
        outcome_set(&wall_run.outcomes),
        "sim and wall modes must decide identically (timing ignored)"
    );
    // The survey copies' 90 s retention lapsed mid-run in both modes.
    assert!(sim_world.metrics.counter("enforcement.deletions") >= devices as u64);
    assert!(wall_world.metrics.counter("enforcement.deletions") >= devices as u64);
}

#[test]
fn wall_shutdown_drains_in_flight_and_rejects_late_injections() {
    let (mut world, _script) = market_world(3, 11);
    let t0 = world.clock.now();
    // Subscriptions happen synchronously in the script normally; here the
    // producer thread injects everything live instead.
    let early: Vec<Request> = (0..3)
        .map(|i| Request::MarketSubscribe {
            device: format!("device-{i}"),
        })
        .collect();
    let late: Vec<Request> = (0..3)
        .map(|i| Request::ResourceIndexing {
            device: format!("device-{i}"),
            resource: "ignored-after-shutdown".into(),
        })
        .collect();
    let n_early = early.len() as u64;
    let n_late = late.len() as u64;

    let shutdown = ShutdownSignal::new();
    let producer_shutdown = shutdown.clone();
    let run = run_wall(
        &mut world,
        Vec::new(),
        SCALE,
        None,
        &shutdown,
        &DriveConfig {
            drain_grace: SimDuration::from_secs(120),
            ..DriveConfig::default()
        },
        move |handle| {
            vec![std::thread::spawn(move || {
                for req in early {
                    handle.inject(Tick::Admit(req));
                }
                // Let the consumer pick the first batch up, then flip the
                // signal and keep injecting: those must be rejected.
                std::thread::sleep(std::time::Duration::from_millis(100));
                producer_shutdown.request();
                for req in late {
                    handle.inject(Tick::Admit(req));
                }
            })]
        },
    );

    assert_eq!(run.report.admitted + run.report.rejected, n_early + n_late);
    assert!(
        run.report.rejected >= n_late,
        "injections after the shutdown request must be rejected \
         (admitted {}, rejected {})",
        run.report.admitted,
        run.report.rejected
    );
    assert!(run.report.drained, "drain must finish within the grace");
    assert_eq!(world.in_flight(), 0, "nothing left dangling after drain");
    assert!(run.report.finished_at >= t0);
}

/// Scrapes `url` with a raw `TcpStream` and returns the response body.
fn scrape(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").expect("request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response");
    let (head, body) = response.split_once("\r\n\r\n").expect("header terminator");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    body.to_string()
}

/// The value of the sample line `series` (family name plus label set,
/// exactly as rendered) on a scraped page.
fn sample(body: &str, series: &str) -> f64 {
    body.lines()
        .find_map(|line| line.strip_prefix(series)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no sample {series:?} in scrape:\n{body}"))
        .parse()
        .expect("numeric sample")
}

#[test]
fn metrics_endpoint_serves_migrated_families() {
    // A short sim-mode market run populates every migrated surface:
    // network counters, per-method gas, TEE decision caches, process
    // latency histograms and — thanks to the 90 s survey retention —
    // the enforcement counters and lag histogram.
    let (mut world, script) = market_world(4, 13);
    run_scripted(&mut world, script);
    let page = MetricsPage::new();
    page.publish(&world.metrics_snapshot());

    let server = MetricsServer::serve(page, "127.0.0.1:0").expect("bind");
    let body = scrape(server.addr(), "/metrics");
    for family in [
        "# TYPE duc_net_messages_sent_total counter",
        "# TYPE duc_net_bytes_sent_total counter",
        "# HELP duc_gas_used_total Gas consumed",
        "# TYPE duc_gas_used_total counter",
        "# TYPE duc_gas_calls_total counter",
        "# TYPE duc_tee_decision_cache_total counter",
        "# TYPE duc_enforcement_deletions_total counter",
        "# TYPE duc_enforcement_lag_seconds histogram",
        "# TYPE duc_process_access_e2e_seconds histogram",
        "# TYPE duc_state_resident_pages gauge",
        "# TYPE duc_state_resident_bytes gauge",
        "# TYPE duc_state_evictions_total counter",
        "# TYPE duc_state_fault_ins_total counter",
        "# TYPE duc_oracle_push_out_total counter",
        "# TYPE duc_oracle_push_out_resyncs_total counter",
        "# TYPE duc_oracle_push_out_subscriptions gauge",
        "# TYPE duc_driver_inbox_events gauge",
        "# TYPE duc_driver_inclusion_waiting gauge",
        "# TYPE duc_chain_mempool_depth gauge",
    ] {
        assert!(
            body.contains(family),
            "missing {family:?} in scrape:\n{body}"
        );
    }
    // Labelled series: gas is broken down by contract and method, the TEE
    // decision cache by result.
    assert!(body.contains("duc_gas_used_total{contract="), "{body}");
    assert!(
        body.contains("duc_tee_decision_cache_total{result=\"hit\"}"),
        "{body}"
    );
    // The state-residency gauges carry live values: a populated market
    // holds at least one resident page (the default paging config is
    // unbounded, so nothing has been evicted).
    assert!(sample(&body, "duc_state_resident_pages") >= 1.0, "{body}");
    assert_eq!(sample(&body, "duc_state_evictions_total"), 0.0);
    // Served totals agree with the components that own them.
    assert_eq!(
        sample(&body, "duc_net_messages_sent_total"),
        world.net.stats().0 as f64,
    );
    assert_eq!(
        sample(&body, "duc_enforcement_deletions_total"),
        world.metrics.counter("enforcement.deletions") as f64,
    );
    // The push-out relay: what it transmitted by result, to how many
    // distinct subscribers — each device once however many resources it
    // accessed, plus the owner's pod manager — with nothing left unclaimed.
    let (delivered, dropped) = world.push_out.stats();
    assert!(delivered > 0, "the monitoring verdicts were pushed out");
    for (result, total) in [("delivered", delivered), ("dropped", dropped)] {
        let series = format!("duc_oracle_push_out_total{{result=\"{result}\"}}");
        assert_eq!(sample(&body, &series), total as f64);
    }
    assert_eq!(sample(&body, "duc_oracle_push_out_subscriptions"), 5.0);
    assert_eq!(sample(&body, "duc_driver_inbox_events"), 0.0);
    drop(server);
}

#[test]
fn snapshot_leaves_the_replay_fingerprint_untouched() {
    let (mut world, script) = market_world(3, 17);
    run_scripted(&mut world, script);
    let before = chaos::fingerprint(&mut world);
    let snapshot = world.metrics_snapshot();
    assert!(snapshot.counter("net.messages_sent") > 0);
    assert_eq!(world.metrics.counter("net.messages_sent"), 0);
    assert_eq!(chaos::fingerprint(&mut world), before);
}

#[test]
fn same_seed_sim_runs_render_identical_pages() {
    let page_of = |seed| {
        let (mut world, script) = market_world(3, seed);
        run_scripted(&mut world, script);
        render(&world.metrics_snapshot())
    };
    let first = page_of(19);
    assert!(first.contains("# TYPE duc_process_access_e2e_seconds histogram"));
    assert_eq!(first, page_of(19));
}

/// The plain world loop a scripted run must equal: admit each request at
/// its instant (stable by instant, so ties keep script order), then run
/// to idle.
fn submit_advance_loop(
    world: &mut World,
    mut script: Vec<(SimTime, Request)>,
) -> Vec<(Ticket, Result<Outcome, ProcessError>)> {
    script.sort_by_key(|&(at, _)| at);
    for (at, req) in script {
        let behind = at.saturating_since(world.clock.now());
        world.advance(behind);
        world.submit(req);
    }
    world.run_until_idle();
    world.drain_events()
}

/// A scripted sim run is the world's own event loop: the same outcomes in
/// the same completion order (full `Debug`, ticket ids included), the same
/// final clock, the same rendered `/metrics` page and the same replay
/// fingerprint as the plain submit/advance loop. One pair is also pinned
/// to a SHA-256 of fingerprint ‖ page, recorded while a scripted sim run
/// still went through the drive loop on a scheduler-backed clock.
#[test]
fn scripted_sim_run_is_the_world_loop() {
    const PINNED: (usize, u64) = (8, 23);
    const PINNED_SHA256: &str = "1ec76aeef7cb38c47b11fe225dea015123a7e6cb28507bedb508fca87cbd9703";
    for (devices, seed) in [(3, 17), (3, 19), (4, 13), (5, 1), (6, 7), (7, 99), PINNED] {
        let (mut scripted, script) = market_world(devices, seed);
        let scripted_outcomes = run_scripted(&mut scripted, script);
        let scripted_page = render(&scripted.metrics_snapshot());

        let (mut plain, script) = market_world(devices, seed);
        let outcomes = submit_advance_loop(&mut plain, script);
        let plain_page = render(&plain.metrics_snapshot());

        let pair = format!("(devices {devices}, seed {seed})");
        assert_eq!(
            format!("{scripted_outcomes:?}"),
            format!("{outcomes:?}"),
            "outcomes {pair}"
        );
        assert_eq!(scripted.clock.now(), plain.clock.now(), "clock {pair}");
        assert_eq!(scripted_page, plain_page, "page {pair}");
        let fingerprint = chaos::fingerprint(&mut scripted);
        assert_eq!(
            fingerprint,
            chaos::fingerprint(&mut plain),
            "fingerprint {pair}"
        );
        if (devices, seed) == PINNED {
            let digest = duc_crypto::sha256(format!("{fingerprint}{scripted_page}").as_bytes());
            assert_eq!(digest.to_hex(), PINNED_SHA256, "known answer {pair}");
        }
    }
}

/// `run_scripted` submits in instant order, whatever order the script
/// lists its requests in (the market script's instants are distinct).
#[test]
fn run_scripted_submits_in_instant_order() {
    let (mut in_order, script) = market_world(4, 5);
    let expected = run_scripted(&mut in_order, script);
    let (mut reversed, mut script) = market_world(4, 5);
    script.reverse();
    let outcomes = run_scripted(&mut reversed, script);
    assert_eq!(format!("{outcomes:?}"), format!("{expected:?}"));
    assert_eq!(reversed.clock.now(), in_order.clock.now());
}

#[test]
fn wall_run_with_an_export_period_publishes_mid_run() {
    let (mut world, script) = market_world(3, 29);
    let page = MetricsPage::new();
    let run = run_wall(
        &mut world,
        script,
        SCALE,
        Some(page.clone()),
        &ShutdownSignal::new(),
        &DriveConfig {
            export_every: Some(SimDuration::from_secs(30)),
            ..DriveConfig::default()
        },
        |_| Vec::new(),
    );
    assert!(run.report.drained);
    assert!(
        run.report.exports > 1,
        "periodic exports beside the final flush: {}",
        run.report.exports
    );
    assert!(sample(&page.text(), "duc_net_messages_sent_total") > 0.0);
}
