//! E15–E19: host probes. Each reads the host (wall-clock time, peak RSS,
//! thread count) or takes `report --max-owners` as its population cap, so
//! its tables move from run to run and machine to machine: `report`
//! prints them and no file pins them. Their gates (identity under
//! pruning, paging and the wall clock; the population and residency
//! bounds) assert inside each run.

use duc_blockchain::StorageConfig;
use duc_core::chaos;
use duc_core::prelude::*;
use duc_core::scenario;
use duc_policy::{Action, Rule, UsagePolicy};
use duc_sim::SimDuration;

use crate::experiments::{ms, world_config};
use crate::table::Table;

// --------------------------------------------------------------------- E15

/// The E15 population sweep up to `max_owners` (`report --max-owners`;
/// the 100-owner point always runs).
fn e15_points(max_owners: usize) -> Vec<usize> {
    [100usize, 1_000, 10_000, 100_000]
        .into_iter()
        .filter(|n| *n <= max_owners.max(100))
        .collect()
}

/// The largest E15 point within `max_owners` — the population E16 and
/// E19 run at.
fn largest_e15_point(max_owners: usize) -> usize {
    *e15_points(max_owners)
        .last()
        .expect("at least one E15 point")
}

/// E15 — population scale: synthetic market populations from 10² to 10⁵
/// owners (one resource each, Zipf-skewed popularity, bursty access
/// waves, device churn between waves). The wave workload is fixed across
/// rows, so req/s isolates how the *population size* taxes the
/// architecture; the run asserts that a k× population costs at most √k× of
/// the 10²-owner row's wall-clock throughput.
pub fn e15_population(max_owners: usize) -> Vec<Table> {
    let mut table = Table::new(
        "E15 · population scale — Zipf market, bursty waves, device churn (3 × 128-access waves)",
        &[
            "owners",
            "devices",
            "requests",
            "ok",
            "churned",
            "sim makespan ms",
            "access p99 ms",
            "wall ms",
            "req/s (wall)",
            "peak RSS MiB",
        ],
    );
    // Start the sweep from a fresh high-water mark so the column tracks
    // E15's own growth, not whichever experiment ran earlier in this
    // process. Within the sweep the mark stays monotone by design: each
    // row reports the peak *so far*.
    crate::rss::reset_peak();
    let mut baseline: Option<(usize, f64)> = None;
    for owners in e15_points(max_owners) {
        let spec = scenario::PopulationSpec {
            owners,
            ..scenario::PopulationSpec::default()
        };
        let mut world = World::new(world_config(150));
        let mut pop = scenario::populate_population(&mut world, &spec);
        let devices = spec.owners * spec.devices_per_owner;
        let wall0 = std::time::Instant::now();
        let run = scenario::run_population(&mut world, &mut pop, &spec);
        let wall = wall0.elapsed();
        assert_eq!(run.requests, run.ok, "every population access succeeds");
        let req_s = run.requests as f64 / wall.as_secs_f64().max(1e-9);
        let p99 = world.metrics.histogram_mut("process.access.e2e").p99();
        let rss = crate::rss::peak_rss_mib().map_or("n/a".into(), |mib| format!("{mib:.1}"));
        table.row(vec![
            owners.to_string(),
            devices.to_string(),
            run.requests.to_string(),
            run.ok.to_string(),
            run.churned.to_string(),
            ms(run.makespan),
            ms(p99),
            format!("{:.1}", wall.as_secs_f64() * 1e3),
            format!("{req_s:.0}"),
            rss,
        ]);
        // The population gate: growing the population k× may cost at most
        // √k× of the fixed workload's wall-clock throughput (10× at 10⁴
        // owners, 31.6× at 10⁵). A per-actor cost that grows with the
        // population breaks it; an allowance of k× would not notice one.
        match baseline {
            None => baseline = Some((owners, req_s)),
            Some((first_owners, first_req_s)) => {
                let scale = owners as f64 / first_owners as f64;
                let limit = scale.sqrt();
                let slowdown = first_req_s / req_s.max(1e-9);
                assert!(
                    slowdown <= limit,
                    "E15 gate: {first_owners}→{owners} owners is a {scale:.0}× population, \
                     which may cost {limit:.1}× of wall-clock req/s, but it degraded {slowdown:.1}×"
                );
            }
        }
    }
    vec![table]
}

// --------------------------------------------------------------------- E16

/// E16 — checkpoint/prune storage: the E15 population workload with the
/// wave count doubling across rows (so the request count and the sealed
/// block count grow), each row run twice from the same seed — pruning off
/// and pruning on (checkpoint every 8 blocks, 16-block resident window).
///
/// Correctness gate: outcomes, per-method gas and the replay fingerprint
/// must be byte-identical between the two configurations of every row —
/// pruning is invisible to everything but memory. Memory gates: the
/// pruned run's resident block window stays bounded while the chain
/// grows, and (where the kernel's high-water-mark reset is available)
/// pruned peak RSS grows sublinearly in the request count.
pub fn e16_storage(max_owners: usize) -> Vec<Table> {
    let owners = largest_e15_point(max_owners);
    e16_storage_at(owners, &[2, 4, 8], 8, 16)
}

/// [`e16_storage`] at an explicit population, wave sweep and storage
/// geometry (the smoke test runs a tiny instance with a tight window; the
/// experiment runs the E15 cap).
pub(crate) fn e16_storage_at(
    owners: usize,
    wave_sweep: &[usize],
    interval: u64,
    window: u64,
) -> Vec<Table> {
    let mut table = Table::new(
        "E16 · checkpoint/prune storage — E15 waves, pruning off vs on (interval 8, window 16)",
        &[
            "owners",
            "waves",
            "requests",
            "blocks",
            "retained (prune)",
            "retained (full)",
            "peak RSS MiB (prune)",
            "peak RSS MiB (full)",
        ],
    );
    let resettable = crate::rss::reset_peak();
    // (requests, pruned peak RSS MiB) of the first and latest row, for the
    // sublinearity gate.
    let mut first: Option<(usize, f64)> = None;
    let mut last: Option<(usize, f64)> = None;
    for &waves in wave_sweep {
        let spec = scenario::PopulationSpec {
            owners,
            waves,
            ..scenario::PopulationSpec::default()
        };
        let run_config = |storage: StorageConfig| {
            crate::rss::reset_peak();
            let mut world = World::new(WorldConfig {
                storage,
                ..world_config(160)
            });
            let mut pop = scenario::populate_population(&mut world, &spec);
            let report = scenario::run_population(&mut world, &mut pop, &spec);
            let fingerprint = chaos::fingerprint(&mut world);
            (
                report,
                fingerprint,
                world.chain.gas_by_method(),
                world.chain.height(),
                world.chain.retained_blocks(),
                crate::rss::peak_rss_mib(),
            )
        };
        // Pruned first: its high-water mark starts from the cleaner floor.
        let (rep_p, fp_p, gas_p, height_p, retained_p, rss_p) =
            run_config(StorageConfig::enabled(interval, window));
        let (rep_f, fp_f, gas_f, height_f, retained_f, rss_f) =
            run_config(StorageConfig::disabled());

        assert_eq!(rep_p, rep_f, "E16: pruning changed population outcomes");
        assert_eq!(gas_p, gas_f, "E16: pruning drifted per-method gas");
        assert_eq!(fp_p, fp_f, "E16: pruning perturbed the replay fingerprint");
        assert_eq!(height_p, height_f, "E16: pruning changed block production");
        if height_p > window + interval {
            // Chains long enough to cross the window must have pruned.
            assert!(
                retained_p < retained_f,
                "E16: the pruned run retains a strict subset ({retained_p} vs {retained_f})"
            );
        }
        // Bounded residency: the window, plus up to one checkpoint
        // interval of unsealed progress, plus one interval of deferred
        // pruning lag — independent of how many waves ran.
        let bound = (window + 2 * interval + 2) as usize;
        assert!(
            retained_p <= bound,
            "E16: resident window grew past its bound ({retained_p} > {bound} at {waves} waves)"
        );

        let rss_cell = |rss: Option<f64>| rss.map_or("n/a".into(), |mib| format!("{mib:.1}"));
        table.row(vec![
            owners.to_string(),
            waves.to_string(),
            rep_p.requests.to_string(),
            height_p.to_string(),
            retained_p.to_string(),
            retained_f.to_string(),
            rss_cell(rss_p),
            rss_cell(rss_f),
        ]);
        if let Some(rss) = rss_p {
            if first.is_none() {
                first = Some((rep_p.requests, rss));
            }
            last = Some((rep_p.requests, rss));
        }
    }
    // The sublinearity gate: requests grew k× across the sweep; pruned
    // peak RSS must grow strictly slower than k×. Skipped where the
    // high-water mark cannot be reset per configuration.
    if resettable {
        if let (Some((req0, rss0)), Some((req1, rss1))) = (first, last) {
            if req1 > req0 {
                let req_ratio = req1 as f64 / req0 as f64;
                let rss_ratio = rss1 / rss0.max(1e-9);
                assert!(
                    rss_ratio < req_ratio,
                    "E16 gate: requests grew {req_ratio:.1}× but pruned peak RSS grew \
                     {rss_ratio:.1}× (not sublinear)"
                );
            }
        }
    }
    vec![table]
}

// --------------------------------------------------------------------- E17

/// Builds the E17 chain: DistExchange deployed with its access-set
/// derivation installed and one pending `register_pod` per sender.
/// Disjoint owners anchor disjoint storage slots, so the whole batch is
/// conflict-free and the parallel executor can run it in one level.
fn e17_chain(
    mode: duc_blockchain::ExecMode,
    threads: usize,
    senders: usize,
) -> duc_blockchain::Blockchain {
    use duc_blockchain::{Blockchain, ContractId};
    let mut chain = Blockchain::builder()
        .validators(3)
        .block_interval(SimDuration::from_secs(2))
        // High enough that the whole batch seals in one block (a ceiling
        // skip would drop the parallel planner back to serial).
        .max_block_gas(10_000_000_000)
        .exec_mode(mode)
        .exec_threads(threads)
        .build();
    chain.deploy(
        ContractId::new(duc_contracts::DEX_CONTRACT_ID),
        Box::new(duc_contracts::DistExchange),
    );
    chain.set_access_fn(duc_contracts::dex_access_fn());
    let dex = duc_contracts::DistExchangeClient::new();
    for s in 0..senders {
        let key = chain.create_funded_account(format!("e17-sender-{s}").as_bytes(), 1_000_000_000);
        let webid = format!("https://owner{s}.id/me");
        let pod_root = format!("https://owner{s}.pod/");
        let policy = UsagePolicy::builder(format!("{webid}#default"), pod_root.clone(), &webid)
            .permit(Rule::permit([Action::Use]))
            .build();
        let tx = dex.register_pod_tx(
            &chain,
            &key,
            &webid,
            &pod_root,
            duc_contracts::PolicyEnvelope::plain(&policy),
        );
        chain.submit(tx).expect("pod registration is valid");
    }
    chain
}

/// Seals the E17 batch `rounds` times under one execution mode, returning
/// the best wall-clock block time and the (replay-asserted) block
/// fingerprint.
pub(crate) fn e17_block_time(
    mode: duc_blockchain::ExecMode,
    threads: usize,
    senders: usize,
    rounds: usize,
) -> (std::time::Duration, String) {
    let mut best = std::time::Duration::MAX;
    let mut fingerprint: Option<String> = None;
    for _ in 0..rounds {
        let mut chain = e17_chain(mode, threads, senders);
        let wall0 = std::time::Instant::now();
        chain.advance_to(duc_sim::SimTime::from_secs(2));
        best = best.min(wall0.elapsed());
        assert_eq!(chain.height(), 1, "the batch seals in one block");
        let block = chain.block(1).expect("sealed");
        assert_eq!(block.transactions.len(), senders, "every tx included");
        for tx in &block.transactions {
            assert!(
                chain.receipt(&tx.id()).expect("receipt").status.is_ok(),
                "every registration succeeds"
            );
        }
        let fp = format!("{:?}", block.hash());
        if let Some(prev) = &fingerprint {
            assert_eq!(prev, &fp, "identically-seeded blocks replay");
        }
        fingerprint = Some(fp);
    }
    (best, fingerprint.expect("at least one round"))
}

/// E17 — parallel intra-block execution: the same conflict-free
/// 256-sender `register_pod` batch sealed serially and through the
/// access-set-scheduled parallel executor. The block fingerprints must be
/// byte-identical; on hosts with ≥4 cores the parallel seal must be at
/// least 1.5× faster.
pub fn e17_parallel_exec() -> Vec<Table> {
    use duc_blockchain::ExecMode;
    let senders = 256;
    let rounds = 3;
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8);
    let mut table = Table::new(
        format!(
            "E17 · parallel intra-block execution — conflict-free register_pod batch \
             ({senders} senders, best of {rounds})"
        ),
        &[
            "exec mode",
            "threads",
            "txs",
            "block ms",
            "txs/s",
            "speedup",
        ],
    );
    let (serial, serial_fp) = e17_block_time(ExecMode::Serial, 1, senders, rounds);
    let (parallel, parallel_fp) = e17_block_time(ExecMode::Parallel, threads, senders, rounds);
    assert_eq!(
        serial_fp, parallel_fp,
        "E17 gate: the parallel block must be byte-identical to the serial one"
    );
    let speedup = serial.as_secs_f64() / parallel.as_secs_f64().max(1e-9);
    // The speedup gate only binds where the host has real parallelism;
    // byte-identity above is asserted unconditionally.
    if threads >= 4 {
        assert!(
            speedup >= 1.5,
            "E17 gate: {threads} threads must seal the conflict-free batch ≥1.5× faster \
             (serial {serial:?}, parallel {parallel:?})"
        );
    }
    let row = |mode: &str, threads: usize, wall: std::time::Duration, speedup: f64| {
        vec![
            mode.into(),
            threads.to_string(),
            senders.to_string(),
            format!("{:.2}", wall.as_secs_f64() * 1e3),
            format!("{:.0}", senders as f64 / wall.as_secs_f64().max(1e-9)),
            format!("{speedup:.2}"),
        ]
    };
    table.row(row("serial", 1, serial, 1.0));
    table.row(row("parallel", threads, parallel, speedup));
    vec![table]
}

// ---------------------------------------------------------------------- E18

/// Scrapes `GET /metrics` from a live endpoint with a raw `TcpStream`
/// (the build is offline; no curl) and returns the response body.
fn scrape_metrics(addr: std::net::SocketAddr) -> String {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect metrics endpoint");
    write!(stream, "GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n").expect("send scrape");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read scrape response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("scrape header terminator");
    assert!(head.starts_with("HTTP/1.1 200"), "scrape failed: {head}");
    body.to_string()
}

/// E18 — runtime modes: the same concurrent-market script on the world's
/// own deterministic loop and on a compressed wall clock.
///
/// Gates (asserted, not just tabulated):
/// - the two modes produce identical outcome *sets* (timing-free keys via
///   [`duc_core::runtime::outcome_key`]) — wall-clock jitter may move
///   *when* a process runs, never *what* it decides;
/// - the `/metrics` endpoint, serving the wall run's own page, holds a
///   valid Prometheus exposition containing the network, gas, TEE-cache,
///   enforcement and process-latency families, and its
///   `duc_net_messages_sent_total` equals the wall world's network model.
///
/// The wall run replays ~185 logical seconds at 200× compression, so its
/// req/s is pacing-dominated (the point: same machines, real time); the
/// sim run's req/s is pure compute.
pub fn e18_runtime() -> Vec<Table> {
    use duc_core::runtime::{market_world, outcome_set, run_scripted, run_wall};
    use duc_runtime::{DriveConfig, MetricsPage, MetricsServer, ShutdownSignal};

    let devices = 8;
    let seed = 23;
    let scale = 200;

    let (mut sim_world, script) = market_world(devices, seed);
    let requests = script.len();
    let sim_start = std::time::Instant::now();
    let sim_outcomes = run_scripted(&mut sim_world, script);
    let sim_real = sim_start.elapsed();

    let (mut wall_world, script) = market_world(devices, seed);
    let page = MetricsPage::new();
    let wall_start = std::time::Instant::now();
    let wall_run = run_wall(
        &mut wall_world,
        script,
        scale,
        Some(page.clone()),
        &ShutdownSignal::new(),
        &DriveConfig::default(),
        |_| Vec::new(),
    );
    let wall_real = wall_start.elapsed();

    let sim_keys = outcome_set(&sim_outcomes);
    let wall_keys = outcome_set(&wall_run.outcomes);
    assert!(
        !sim_keys.is_empty() && sim_world.in_flight() == 0 && wall_run.report.drained,
        "E18: both runs must drain clean"
    );
    assert_eq!(
        sim_keys, wall_keys,
        "E18 gate: sim and wall modes must produce the same outcome set"
    );

    let server = MetricsServer::serve(page, "127.0.0.1:0").expect("bind metrics endpoint");
    let exposition = scrape_metrics(server.addr());
    for family in [
        "# TYPE duc_net_messages_sent_total counter",
        "# TYPE duc_gas_used_total counter",
        "# TYPE duc_tee_decision_cache_total counter",
        "# TYPE duc_enforcement_deletions_total counter",
        "# TYPE duc_enforcement_lag_seconds histogram",
        "# TYPE duc_process_access_e2e_seconds histogram",
    ] {
        assert!(
            exposition.contains(family),
            "E18 gate: /metrics scrape is missing {family:?}"
        );
    }
    assert_eq!(
        exposition
            .lines()
            .find_map(|line| line.strip_prefix("duc_net_messages_sent_total ")),
        Some(wall_world.net.stats().0.to_string().as_str()),
        "E18 gate: the scraped page is the wall run's own"
    );
    drop(server);

    let mut table = Table::new(
        format!(
            "E18 · runtime modes — concurrent market ({devices} devices, wall at {scale}× \
             compression; outcome sets identical, /metrics scrape valid)"
        ),
        &[
            "runtime mode",
            "requests",
            "outcomes",
            "logical s",
            "real ms",
            "req/s",
        ],
    );
    let row =
        |mode: &str, admitted: u64, outcomes: usize, world: &World, real: std::time::Duration| {
            vec![
                mode.into(),
                admitted.to_string(),
                outcomes.to_string(),
                format!("{:.1}", world.clock.now().as_secs_f64()),
                format!("{:.1}", real.as_secs_f64() * 1e3),
                format!("{:.1}", admitted as f64 / real.as_secs_f64().max(1e-9)),
            ]
        };
    table.row(row(
        "sim",
        requests as u64,
        sim_outcomes.len(),
        &sim_world,
        sim_real,
    ));
    table.row(row(
        "wall",
        wall_run.report.admitted,
        wall_run.outcomes.len(),
        &wall_world,
        wall_real,
    ));
    vec![table]
}

// --------------------------------------------------------------------- E19

/// One E15-style population run under `storage`, returning everything the
/// E19 identity and residency gates compare: the outcome report, the
/// replay fingerprint (which embeds the state commitment), the per-method
/// gas ledger, the paging counters and the wall-clock spent.
type E19Run = (
    scenario::PopulationRunReport,
    String,
    std::collections::BTreeMap<(String, String), (u64, u64, u64)>,
    duc_blockchain::PagingStats,
    std::time::Duration,
);

fn e19_run(spec: &scenario::PopulationSpec, storage: StorageConfig) -> E19Run {
    let mut world = World::new(WorldConfig {
        storage,
        ..world_config(190)
    });
    let mut pop = scenario::populate_population(&mut world, spec);
    let wall0 = std::time::Instant::now();
    let report = scenario::run_population(&mut world, &mut pop, spec);
    let wall = wall0.elapsed();
    let fingerprint = chaos::fingerprint(&mut world);
    (
        report,
        fingerprint,
        world.chain.gas_by_method(),
        world.chain.paging_stats(),
        wall,
    )
}

/// E19 — paged world state: the E15 population workload with the slot
/// store paged down to a bounded cache and cold pages spilled through the
/// duc-storage page store.
///
/// (a) Identity sweep at ≤ 1 000 owners: unpaged, unbounded cache, a
/// 16-page cache, a pathological 0-page cache and a 16-page cache spilling
/// to disk all produce byte-identical replay fingerprints (commitment
/// included), per-method gas and outcomes. Paging must be invisible to
/// everything but memory.
///
/// (b) Residency run at the largest E15 point within `max_owners` (the
/// E19 CI step passes 10⁵; 10⁶ is the local headline row): with a
/// population-scaled page cache the accounted resident state bytes must
/// come in at ≤ 0.4× the unpaged run's. The paged run goes first so each
/// configuration's peak-RSS column starts from its own high-water mark.
/// The gate runs on accounted state bytes, not raw RSS: at population
/// scale the process high-water mark is dominated by the device fleet
/// and the sealed blocks (E16's pruning bounds the latter), which paging
/// cannot and should not touch.
pub fn e19_paged_state(max_owners: usize) -> Vec<Table> {
    let cap = largest_e15_point(max_owners);
    // The residency cache scales with the population (1 page per 64
    // owners, within [2, 64]) so the 0.4× gate stays meaningful at the
    // small caps CI uses for the all-experiments run as well as at the
    // 10⁵–10⁶ headline populations.
    e19_paged_state_at(cap.min(1_000), cap, None, (cap / 64).clamp(2, 64))
}

/// [`e19_paged_state`] at an explicit population and page geometry. The
/// smoke test runs a tiny instance with small pages; the experiment passes
/// `None` and runs the E15 cap at the geometry `PagingConfig::in_memory`
/// ships (16-slot pages under a residency limit, 64 without one).
pub(crate) fn e19_paged_state_at(
    identity_owners: usize,
    residency_owners: usize,
    page_capacity: Option<usize>,
    residency_limit: usize,
) -> Vec<Table> {
    use duc_blockchain::PagingConfig;
    let pages = |limit| {
        let cfg = PagingConfig::in_memory(limit);
        match page_capacity {
            Some(capacity) => cfg.with_page_capacity(capacity),
            None => cfg,
        }
    };

    // (a) The cache-size identity sweep.
    let mut identity = Table::new(
        format!(
            "E19a · paging identity — {identity_owners} owners, \
             cache sweep (fingerprints byte-identical by assertion)"
        ),
        &[
            "cache",
            "requests",
            "ok",
            "evictions",
            "fault-ins",
            "resident pages",
            "resident KiB",
            "wall ms",
        ],
    );
    let spec = scenario::PopulationSpec {
        owners: identity_owners,
        ..scenario::PopulationSpec::default()
    };
    let spill_dir = std::env::temp_dir().join(format!("duc-e19-spill-{}", std::process::id()));
    let paged = |p: PagingConfig| StorageConfig::disabled().with_paging(p);
    let configs: Vec<(&str, StorageConfig)> = vec![
        ("unpaged", StorageConfig::disabled()),
        ("unbounded", paged(pages(None))),
        ("16 pages", paged(pages(Some(16)))),
        ("0 pages", paged(pages(Some(0)))),
        (
            "16 pages, disk",
            paged(pages(Some(16)).with_spill_dir(&spill_dir)),
        ),
    ];
    let mut baseline: Option<(scenario::PopulationRunReport, String, _)> = None;
    for (label, storage) in configs {
        let (report, fingerprint, gas, stats, wall) = e19_run(&spec, storage);
        assert_eq!(report.requests, report.ok, "E19a: every access succeeds");
        match &baseline {
            None => baseline = Some((report, fingerprint, gas)),
            Some((rep0, fp0, gas0)) => {
                assert_eq!(rep0, &report, "E19a: paging changed outcomes ({label})");
                assert_eq!(gas0, &gas, "E19a: paging drifted per-method gas ({label})");
                assert_eq!(
                    fp0, &fingerprint,
                    "E19a: paging perturbed the replay fingerprint ({label})"
                );
            }
        }
        identity.row(vec![
            label.into(),
            report.requests.to_string(),
            report.ok.to_string(),
            stats.evictions.to_string(),
            stats.fault_ins.to_string(),
            stats.resident_pages.to_string(),
            format!("{:.1}", stats.resident_bytes as f64 / 1024.0),
            format!("{:.1}", wall.as_secs_f64() * 1e3),
        ]);
    }
    let _ = std::fs::remove_dir_all(&spill_dir);

    // (b) The residency gate at the population cap.
    let mut residency = Table::new(
        format!(
            "E19b · state residency — {residency_owners} owners, \
             {residency_limit}-page cache vs unpaged (accounted bytes ≤ 0.4×)"
        ),
        &[
            "config",
            "owners",
            "resident pages",
            "resident KiB",
            "bytes/owner",
            "spilled live KiB",
            "evictions",
            "peak RSS MiB",
        ],
    );
    let spec = scenario::PopulationSpec {
        owners: residency_owners,
        ..scenario::PopulationSpec::default()
    };
    let residency_row = |table: &mut Table, label: &str, stats: &duc_blockchain::PagingStats| {
        let rss = crate::rss::peak_rss_mib().map_or("n/a".into(), |mib| format!("{mib:.1}"));
        table.row(vec![
            label.into(),
            residency_owners.to_string(),
            stats.resident_pages.to_string(),
            format!("{:.1}", stats.resident_bytes as f64 / 1024.0),
            format!(
                "{:.1}",
                stats.resident_bytes as f64 / residency_owners as f64
            ),
            format!("{:.1}", stats.spilled_live_bytes as f64 / 1024.0),
            stats.evictions.to_string(),
            rss,
        ]);
    };
    // Paged first: its high-water mark starts from the cleaner floor.
    crate::rss::reset_peak();
    let (rep_p, fp_p, gas_p, stats_p, _) = e19_run(&spec, paged(pages(Some(residency_limit))));
    residency_row(
        &mut residency,
        &format!("{residency_limit}-page cache"),
        &stats_p,
    );
    crate::rss::reset_peak();
    let (rep_f, fp_f, gas_f, stats_f, _) = e19_run(&spec, StorageConfig::disabled());
    residency_row(&mut residency, "unpaged", &stats_f);

    assert_eq!(rep_p, rep_f, "E19b: paging changed population outcomes");
    assert_eq!(gas_p, gas_f, "E19b: paging drifted per-method gas");
    assert_eq!(fp_p, fp_f, "E19b: paging perturbed the replay fingerprint");
    assert!(
        stats_p.evictions > 0,
        "E19b: the bounded cache must actually evict at {residency_owners} owners"
    );
    let ratio = stats_p.resident_bytes as f64 / (stats_f.resident_bytes as f64).max(1.0);
    assert!(
        ratio <= 0.4,
        "E19b gate: paged resident state is {:.1}% of unpaged (> 40%): \
         {} vs {} bytes",
        ratio * 100.0,
        stats_p.resident_bytes,
        stats_f.resident_bytes
    );
    vec![identity, residency]
}
