//! Smoke tests: every workload at tiny sizes through the same code paths
//! the benchmark runs, plus the harness's own guarantees.

use std::collections::BTreeSet;
use std::process::Command;

use duc_benchmark::alloc::{allocated_bytes, CountingAlloc};
use duc_benchmark::trace::Tracer;
use duc_benchmark::workloads::Measured;
use duc_benchmark::{metrics, unit, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn run_tiny(workload: Workload, seed: u64, trace: bool) -> (Measured, Tracer) {
    let mut tracer = Tracer::new(trace);
    let measured = workload
        .tiny_sizes()
        .run(seed, &mut tracer)
        .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    (measured, tracer)
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn every_workload_reports_every_metric_and_no_operation_fails() {
    let units: BTreeSet<String> = unit::run_all(0.01)
        .iter()
        .flat_map(|r| {
            [
                format!("unit.{}_ns", r.name),
                format!("unit.{}_alloc_b", r.name),
            ]
        })
        .collect();
    for workload in Workload::ALL {
        let (m, tracer) = run_tiny(workload, 1, true);
        assert_eq!(m.det["_failed"], "0", "{}: {:?}", workload.name(), m.det);
        assert_eq!(m.det["fail_ratio"], "0.0");
        let mut reported: BTreeSet<String> = m.det.keys().chain(m.wall.keys()).cloned().collect();
        assert!(reported.iter().all(|n| well_formed(n)), "{reported:?}");
        // What the parent adds to a child's values: phases from the span
        // summary, unit ops from their own child, the derived ratios.
        for (span, _) in tracer.summary() {
            if let Some(phase) = span.strip_prefix("phase.") {
                reported.insert(format!("phase.{phase}_s"));
            }
        }
        reported.extend(units.iter().cloned());
        for def in metrics::end_to_end() {
            assert!(
                reported.contains(&def.name),
                "{}: no {}",
                workload.name(),
                def.name
            );
            let value = m.det_value(&def.name).or(m.wall.get(&def.name).copied());
            assert!(value.is_some_and(|v| v > 0.0), "{} is never 0", def.name);
        }
        for def in metrics::per_layer() {
            let derived = def.name.starts_with("est.") || def.name == "trace_overhead_ratio";
            let idle_phase = def.name.starts_with("phase.");
            assert!(
                derived || idle_phase || reported.contains(&def.name),
                "{}: no {}",
                workload.name(),
                def.name
            );
        }
        let phases: Vec<_> = reported
            .iter()
            .filter(|n| n.starts_with("phase."))
            .collect();
        assert!(phases.len() >= 5, "{}: phases {phases:?}", workload.name());
        for phase in phases {
            assert!(
                metrics::per_layer().iter().any(|d| &d.name == phase),
                "{phase} is not in the catalogue"
            );
        }
    }
}

#[test]
fn deterministic_values_repeat_exactly_and_tracing_does_not_change_them() {
    for workload in Workload::ALL {
        let (first, _) = run_tiny(workload, 3, false);
        let (second, _) = run_tiny(workload, 3, false);
        let (traced, tracer) = run_tiny(workload, 3, true);
        assert_eq!(first.det, second.det, "{}", workload.name());
        assert_eq!(first.det, traced.det, "{} traced", workload.name());
        assert!(!tracer.is_empty());
        let (other, _) = run_tiny(workload, 4, false);
        assert_ne!(
            first.det["_schedule_digest"],
            other.det["_schedule_digest"],
            "{}: the seed moves the schedule",
            workload.name()
        );
        assert_eq!(
            first.det.keys().collect::<Vec<_>>(),
            other.det.keys().collect::<Vec<_>>(),
            "{}: the seed changes no metric's presence",
            workload.name()
        );
    }
}

#[test]
fn paging_is_invisible_in_outcomes_gas_and_simulated_time() {
    let (paged, _) = run_tiny(Workload::PagedAccess, 5, false);
    let (plain, _) = run_tiny(Workload::MarketAccess, 5, false);
    for column in [
        "_outcome_digest",
        "_schedule_digest",
        "gas_per_op",
        "sim_req_per_s",
        "sim_latency_ms_p50",
        "sim_latency_ms_p99",
        "count.txs",
    ] {
        assert_eq!(paged.det[column], plain.det[column], "{column}");
    }
    assert_ne!(paged.det["count.checkpoints"], "0", "pruning is on");
    assert_eq!(
        plain.det["count.paging.evictions"], "0",
        "paging is idle unpaged"
    );
    assert_eq!(plain.det["count.paging.resident_bytes"], "0");
}

#[test]
fn every_request_has_a_span_from_submit_to_drain() {
    let (m, tracer) = run_tiny(Workload::MarketAccess, 1, true);
    let json = tracer.to_json();
    let requests = json.matches("\"n\":\"request\"").count();
    assert_eq!(requests.to_string(), m.det["_attempted"]);
    assert!(json.contains("\"n\":\"core.submit\"") && json.contains("\"n\":\"phase.access_run\""));
}

#[test]
fn unit_ops_match_the_catalogue_and_black_box_holds() {
    let names: Vec<&str> = unit::run_all(0.01).iter().map(|r| r.name).collect();
    let catalogue: Vec<&str> = metrics::UNIT_OPS.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, catalogue);

    // Twice the iterations must take about twice as long, or the compiler
    // has hoisted or deleted the measured work. Minimum of several tries:
    // noise only ever adds time.
    let data = vec![0xABu8; 1024];
    let best = |iters: u64| {
        (0..7)
            .map(|_| unit::loop_total_ns(iters, || duc_crypto::sha256(std::hint::black_box(&data))))
            .min()
            .expect("seven tries")
    };
    let ratio = best(4_000) as f64 / best(2_000) as f64;
    assert!(
        (1.8..=2.2).contains(&ratio),
        "2x iterations took {ratio:.3}x"
    );
}

#[test]
fn counting_allocator_sees_a_known_vec() {
    let before = allocated_bytes();
    let v: Vec<u8> = Vec::with_capacity(100_000);
    let grown = allocated_bytes() - before;
    drop(std::hint::black_box(v));
    // Other test threads allocate concurrently, so: at least the Vec, and
    // not wildly more.
    assert!((100_000..200_000).contains(&grown), "counted {grown} bytes");
}

#[test]
fn committed_benchmark_json_matches_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        metrics::benchmark_json(),
        "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- describe > BENCHMARK.json`"
    );
}

#[test]
fn run_prints_the_result_object_last_and_rejects_bad_arguments() {
    let exe = env!("CARGO_BIN_EXE_duc-benchmark");
    // chain_ingest has no population to build, so the real command is
    // quick at a fraction of a second of work.
    let out = Command::new(exe)
        .args([
            "run",
            "--workload",
            "chain_ingest",
            "--seed",
            "9",
            "--seconds",
            "0.05",
            "--trace",
            "0",
        ])
        .output()
        .expect("spawn the benchmark");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": 1280, \"failed\": 0, \"metrics\": {")
    );
    for def in metrics::end_to_end() {
        assert!(
            last.contains(&format!("\"{}\": {{\"value\": ", def.name)),
            "{}",
            def.name
        );
    }
    assert!(stdout.contains("available_parallelism: ") && stdout.contains("rustc: rustc "));

    let bad = Command::new(exe)
        .args(["run", "--workload", "no_such_workload"])
        .output()
        .expect("spawn the benchmark");
    assert_eq!(bad.status.code(), Some(2));
    assert!(bad.stdout.is_empty(), "no result on a usage error");
}
