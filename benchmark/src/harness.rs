//! The parent/child protocol, the cross-run checks and the reports.
//!
//! `run` never measures in its own process: it re-executes the binary once
//! per workload × repeat (`child`), so peak RSS, allocator state and the
//! interner tables are per repeat. A child prints one line per value —
//! `D name value` for values that are functions of seed and sizes alone,
//! `W name value` for host-dependent ones — and the parent compares the
//! former exactly and takes medians of the latter.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

use crate::metrics::{self, MetricDef, EST_CRATES, PHASES};
use crate::stats::{median, spread};
use crate::trace::Tracer;
use crate::workloads::waves::WaveSizes;
use crate::workloads::{CheckFailed, Measured};
use crate::{unit, Job, Workload};

/// Repeats per workload in an untraced run; the median is reported.
pub const REPEATS: usize = 3;

/// `(max − min) / median` over repeats above which a workload is flagged
/// `noisy`.
pub const NOISE_LIMIT: f64 = 0.10;

/// Deterministic columns `paged_access` must share with an unpaged run of
/// the same waves: paging must stay invisible.
const PAGING_INVARIANT: [&str; 9] = [
    "_attempted",
    "_failed",
    "_outcome_digest",
    "_schedule_digest",
    "gas_per_op",
    "sim_req_per_s",
    "sim_latency_ms_p50",
    "sim_latency_ms_p99",
    "count.txs",
];

/// The release profile the package is built with (see `Cargo.toml`).
pub const RELEASE_PROFILE: &str = "opt-level=3 lto=false codegen-units=16 panic=unwind debug=false";

/// Where traces are written: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// What `run` was asked to do.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// One workload (the driver's mode) or all of them.
    pub workload: Option<Workload>,
    /// Schedule and world seed.
    pub seed: u64,
    /// Window length per repeat, in reference seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
}

/// One child's job.
#[derive(Debug, Clone)]
pub enum ChildJob {
    /// One repeat of a workload.
    Workload {
        /// Which workload.
        workload: Workload,
        /// With spans or without.
        trace: bool,
        /// Run the workload's waves *unpaged* (the `paged_access`
        /// reference).
        unpaged: bool,
        /// Where a traced child writes its spans.
        trace_out: Option<PathBuf>,
    },
    /// The unit ops.
    Unit,
}

// ------------------------------------------------------------------ child

/// Runs one child job in this process and prints its values.
///
/// # Errors
/// [`CheckFailed`] when a correctness check does not hold or the trace
/// cannot be written.
pub fn child(job: &ChildJob, seed: u64, seconds: f64) -> Result<(), CheckFailed> {
    match job {
        ChildJob::Unit => {
            for r in unit::run_all(1.0) {
                println!("W unit.{}_ns {:?}", r.name, r.ns);
                println!("W unit.{}_alloc_b {:?}", r.name, r.alloc_b);
            }
        }
        ChildJob::Workload {
            workload,
            trace,
            unpaged,
            trace_out,
        } => {
            let mut sizes = workload.sizes(seconds);
            if let (true, Job::Waves(waves)) = (*unpaged, &mut sizes) {
                *waves = WaveSizes {
                    paged: false,
                    ..waves.clone()
                };
            }
            let mut tracer = Tracer::new(*trace);
            let measured = sizes.run(seed, &mut tracer)?;
            print_measured(&measured);
            if *trace {
                let factor = measured
                    .wall
                    .get("host.speed_factor")
                    .copied()
                    .unwrap_or(1.0);
                let summary = tracer.summary();
                for (name, (calls, total_s, self_s)) in &summary {
                    println!("D _calls.{name} {calls}");
                    println!("W _self_s.{name} {:?}", self_s * factor);
                    if let Some(phase) = name.strip_prefix("phase.") {
                        println!("W phase.{phase}_s {:?}", total_s * factor);
                    }
                }
                if let Some(path) = trace_out {
                    write_trace(path, *workload, seed, &tracer, &summary)
                        .map_err(|e| CheckFailed(format!("write {}: {e}", path.display())))?;
                }
            }
        }
    }
    Ok(())
}

fn print_measured(m: &Measured) {
    for (name, value) in &m.det {
        println!("D {name} {value}");
    }
    for (name, value) in &m.wall {
        println!("W {name} {value:?}");
    }
}

fn write_trace(
    path: &Path,
    workload: Workload,
    seed: u64,
    tracer: &Tracer,
    summary: &BTreeMap<&'static str, (u64, f64, f64)>,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\":\"{}\",\"seed\":{seed},\"unit\":\"ns since the tracer started (raw host time)\",\"self_time_s\":{{",
        workload.name()
    );
    for (i, (name, (calls, total_s, self_s))) in summary.iter().enumerate() {
        let comma = if i > 0 { "," } else { "" };
        let _ = write!(
            out,
            "{comma}\"{name}\":{{\"calls\":{calls},\"total_s\":{total_s:?},\"self_s\":{self_s:?}}}"
        );
    }
    out.push_str("},\"spans\":");
    out.push_str(&tracer.to_json());
    out.push_str("}\n");
    std::fs::write(path, out)
}

// ----------------------------------------------------------------- parent

fn spawn_child(exe: &Path, job: &ChildJob, seed: u64, seconds: f64) -> Result<Measured, String> {
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &format!("{seconds:?}")]);
    match job {
        ChildJob::Unit => {
            cmd.arg("--unit");
        }
        ChildJob::Workload {
            workload,
            trace,
            unpaged,
            trace_out,
        } => {
            cmd.args(["--workload", workload.name()])
                .args(["--trace", if *trace { "1" } else { "0" }]);
            if *unpaged {
                cmd.arg("--unpaged");
            }
            if let Some(path) = trace_out {
                cmd.arg("--trace-out").arg(path);
            }
        }
    }
    // The library reads a handful of `DUC_*` knobs (executor mode, thread
    // count, …); the benchmark measures the library defaults, whatever
    // the caller's shell has set.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("DUC_") {
            cmd.env_remove(key);
        }
    }
    // `output()` waits for the child: no process outlives the run.
    let output = cmd
        .output()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    if !output.status.success() {
        return Err(format!(
            "child {job:?} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    parse_child(&String::from_utf8_lossy(&output.stdout))
}

fn parse_child(stdout: &str) -> Result<Measured, String> {
    let mut m = Measured::default();
    for line in stdout.lines() {
        let mut parts = line.splitn(3, ' ');
        match (parts.next(), parts.next(), parts.next()) {
            (Some("D"), Some(name), Some(value)) => {
                m.det.insert(name.to_string(), value.to_string());
            }
            (Some("W"), Some(name), Some(value)) => {
                let v = value
                    .parse()
                    .map_err(|e| format!("child line {line:?}: {e}"))?;
                m.wall.insert(name.to_string(), v);
            }
            _ => return Err(format!("unexpected child line {line:?}")),
        }
    }
    Ok(m)
}

/// Fails unless the two runs agree on every deterministic value.
fn same_det(what: &str, a: &Measured, b: &Measured, only: Option<&[&str]>) -> Result<(), String> {
    let keep = |name: &str| {
        // Span call counts exist only in traced children.
        !name.starts_with("_calls.") && only.is_none_or(|names| names.contains(&name))
    };
    let left: Vec<_> = a.det.iter().filter(|(k, _)| keep(k)).collect();
    let right: Vec<_> = b.det.iter().filter(|(k, _)| keep(k)).collect();
    if left == right {
        return Ok(());
    }
    let differing: Vec<String> = left
        .iter()
        .filter(|(k, v)| b.det.get(*k) != Some(v))
        .map(|(k, v)| format!("{k}: {v} vs {:?}", b.det.get(*k)))
        .collect();
    Err(format!(
        "{what}: deterministic values differ: {}",
        differing.join("; ")
    ))
}

/// Everything one workload reported.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Which workload.
    pub workload: Workload,
    /// Operations attempted in one repeat's window.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// The first failure's description, if any.
    pub first_failure: Option<String>,
    /// Metric name → value: the end-to-end metrics (plus `fail_ratio`)
    /// for an untraced run, the per-layer metrics for a traced one.
    pub metrics: BTreeMap<String, f64>,
    /// Host-time metric → `(max − min) / median` over repeats.
    pub spreads: BTreeMap<String, f64>,
    /// Whether any spread exceeds [`NOISE_LIMIT`].
    pub noisy: bool,
    /// Digest of the generated schedule.
    pub schedule_digest: u64,
    /// Digest of every outcome in completion order.
    pub outcome_digest: u64,
    /// Samples behind `batch_ms_p50` and `sim_latency_ms_*`.
    pub samples: (u64, u64),
    /// Traced runs: span name → `(calls, self seconds)`.
    pub self_time: BTreeMap<String, (u64, f64)>,
}

fn det_u64(m: &Measured, name: &str) -> Result<u64, String> {
    m.det
        .get(name)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("child did not report {name}"))
}

/// Measures one workload through child processes.
///
/// # Errors
/// A description of the first failed correctness check or child failure.
pub fn measure(
    exe: &Path,
    workload: Workload,
    opts: &RunOptions,
) -> Result<WorkloadReport, String> {
    let plain = ChildJob::Workload {
        workload,
        trace: false,
        unpaged: false,
        trace_out: None,
    };
    let repeats = if opts.trace { 1 } else { REPEATS };
    let mut runs = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        runs.push(spawn_child(exe, &plain, opts.seed, opts.seconds)?);
    }
    for (i, run) in runs.iter().enumerate().skip(1) {
        same_det(
            &format!("{} repeat {i} vs 0", workload.name()),
            &runs[0],
            run,
            None,
        )?;
    }
    let first = &runs[0];

    let mut report = WorkloadReport {
        workload,
        attempted: det_u64(first, "_attempted")?,
        failed: det_u64(first, "_failed")?,
        first_failure: first.det.get("_first_failure").cloned(),
        metrics: BTreeMap::new(),
        spreads: BTreeMap::new(),
        noisy: false,
        schedule_digest: det_u64(first, "_schedule_digest")?,
        outcome_digest: det_u64(first, "_outcome_digest")?,
        samples: (
            det_u64(first, "_batches")?,
            det_u64(first, "_sim_latency_samples")?,
        ),
        self_time: BTreeMap::new(),
    };
    let value = |name: &str| -> Result<f64, String> {
        if let Some(v) = first.det_value(name) {
            return Ok(v);
        }
        let samples: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.wall.get(name).copied())
            .collect();
        if samples.len() == runs.len() {
            Ok(median(&samples))
        } else {
            Err(format!("child did not report {name}"))
        }
    };

    if !opts.trace {
        for def in metrics::end_to_end() {
            report.metrics.insert(def.name.clone(), value(&def.name)?);
        }
        report
            .metrics
            .insert("fail_ratio".into(), value("fail_ratio")?);
        for name in ["req_per_s", "batch_ms_p50", "setup_s", "peak_rss_mib"] {
            let samples: Vec<f64> = runs.iter().map(|r| r.wall[name]).collect();
            report.spreads.insert(name.to_string(), spread(&samples));
        }
        report.noisy = report.spreads.values().any(|s| *s > NOISE_LIMIT);
        if workload == Workload::PagedAccess {
            // Paging must be invisible: the same waves, unpaged, agree on
            // every deterministic column that is not about paging itself.
            let reference = ChildJob::Workload {
                workload,
                trace: false,
                unpaged: true,
                trace_out: None,
            };
            let unpaged = spawn_child(exe, &reference, opts.seed, opts.seconds)?;
            same_det(
                "paged_access vs the same waves unpaged",
                first,
                &unpaged,
                Some(&PAGING_INVARIANT),
            )?;
        }
        return Ok(report);
    }

    // Traced: one more child with spans on, one for the unit ops.
    let traced = spawn_child(
        exe,
        &ChildJob::Workload {
            workload,
            trace: true,
            unpaged: false,
            trace_out: Some(trace_part(workload)),
        },
        opts.seed,
        opts.seconds,
    )?;
    same_det(
        &format!("{} traced vs untraced", workload.name()),
        first,
        &traced,
        None,
    )?;
    let units = spawn_child(exe, &ChildJob::Unit, opts.seed, opts.seconds)?;

    // Spans are wall time, so they reconcile with the wall window; the
    // shares and the overhead use the window `req_per_s` is taken over.
    let wall_s = traced.wall["_window_wall_s"];
    let window_s = traced.wall["_window_s"];
    let phase_sum: f64 = PHASES
        .iter()
        .filter_map(|p| traced.wall.get(&format!("phase.{p}_s")))
        .sum();
    if (phase_sum / wall_s - 1.0).abs() > 0.05 {
        return Err(format!(
            "{}: phases sum to {phase_sum:.3} s against a window of {wall_s:.3} s",
            workload.name()
        ));
    }
    let shares = estimate_shares(&traced, &units);
    for def in metrics::per_layer() {
        let name = def.name.as_str();
        let v = if name.starts_with("unit.") {
            *units
                .wall
                .get(name)
                .ok_or_else(|| format!("unit child did not report {name}"))?
        } else if name.starts_with("phase.") {
            traced.wall.get(name).copied().unwrap_or(0.0)
        } else if let Some(share) = shares.get(name) {
            *share
        } else if name == "trace_overhead_ratio" {
            window_s / first.wall["_window_s"] - 1.0
        } else {
            value(name)?
        };
        report.metrics.insert(def.name, v);
    }
    for (key, calls) in &traced.det {
        if let Some(span) = key.strip_prefix("_calls.") {
            let self_s = traced
                .wall
                .get(&format!("_self_s.{span}"))
                .copied()
                .unwrap_or(0.0);
            report
                .self_time
                .insert(span.to_string(), (calls.parse().unwrap_or(0), self_s));
        }
    }
    Ok(report)
}

fn trace_part(workload: Workload) -> PathBuf {
    out_dir().join(format!("trace.{}.part.json", workload.name()))
}

/// Joins the per-workload trace parts into `out/trace.json`, an object
/// keyed by workload name, and removes the parts.
///
/// # Errors
/// Propagates file errors.
pub fn assemble_trace(workloads: &[Workload]) -> std::io::Result<PathBuf> {
    let path = out_dir().join("trace.json");
    let mut out = String::from("{");
    for (i, w) in workloads.iter().enumerate() {
        let part = trace_part(*w);
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":", w.name());
        out.push_str(std::fs::read_to_string(&part)?.trim_end());
        std::fs::remove_file(&part)?;
    }
    out.push_str("}\n");
    std::fs::write(&path, out)?;
    Ok(path)
}

/// `est.<crate>_share`: call count × unit cost ÷ window, per crate, plus
/// what is left over.
///
/// The model counts each unit cost where it is *incurred* and subtracts it
/// from the op that contains it (`submit` contains `schnorr_verify`,
/// `tx_build_sign` contains `schnorr_sign`, `store_resource` and
/// `apply_policy_update` contain `compile`), so shares do not overlap.
/// Contract execution cannot be timed from outside and stays inside
/// `blockchain`'s `seal_block_256` term. Call counts are the exact
/// `count.*` / `_n.*` values of the traced run.
fn estimate_shares(traced: &Measured, units: &Measured) -> BTreeMap<String, f64> {
    let ns = |op: &str| {
        units
            .wall
            .get(&format!("unit.{op}_ns"))
            .copied()
            .unwrap_or(0.0)
    };
    let n = |name: &str| traced.det_value(name).unwrap_or(0.0);
    let window_ns = traced.wall["_window_s"] * 1e9;
    let (txs, blocks) = (n("count.txs"), n("count.blocks"));

    let mut est = BTreeMap::new();
    est.insert(
        "crypto",
        txs * (ns("crypto.schnorr_sign") + ns("crypto.schnorr_verify"))
            + blocks * ns("crypto.schnorr_sign")
            + txs / 256.0 * ns("crypto.merkle_root_256"),
    );
    est.insert(
        "blockchain",
        txs * ((ns("blockchain.tx_build_sign") - ns("crypto.schnorr_sign")).max(0.0)
            + (ns("blockchain.submit") - ns("crypto.schnorr_verify")).max(0.0)
            + ns("blockchain.seal_block_256") / 256.0
            + ns("blockchain.receipt_lookup"))
            + blocks * ns("blockchain.seal_block_1")
            + n("_n.views") * ns("blockchain.call_view_lookup")
            + n("_n.event_polls") * ns("blockchain.events_since_tail"),
    );
    est.insert(
        "contracts",
        n("_n.envelope_opens") * ns("contracts.envelope_open_plain")
            + n("_n.access_derives") * ns("contracts.access_set_derive"),
    );
    est.insert(
        "storage",
        n("_n.page_appends") * ns("storage.page_append")
            + n("count.paging.fault_ins") * ns("storage.page_read_verify")
            + n("count.checkpoints") * ns("storage.checkpoint_seal"),
    );
    let compiles = n("_n.tee_stores") + n("_n.tee_updates");
    est.insert(
        "policy",
        compiles * ns("policy.compile")
            + n("_n.tee_misses") * (ns("policy.decide") + ns("policy.next_transition")),
    );
    est.insert(
        "tee",
        n("_n.tee_stores") * (ns("tee.store_resource") - ns("policy.compile")).max(0.0)
            + n("_n.tee_updates") * (ns("tee.apply_policy_update") - ns("policy.compile")).max(0.0)
            + n("_n.tee_hits") * ns("tee.access_cache_hit")
            + n("_n.tee_misses")
                * (ns("tee.access_cache_miss")
                    - ns("policy.decide")
                    - ns("policy.next_transition"))
                .max(0.0)
            + n("_n.tee_reports") * ns("tee.report"),
    );
    let mut out = BTreeMap::new();
    let mut attributed = 0.0;
    for krate in EST_CRATES {
        let share = est[krate] / window_ns;
        attributed += share;
        out.insert(format!("est.{krate}_share"), share);
    }
    out.insert("est.unattributed_share".into(), 1.0 - attributed);
    out
}

// ---------------------------------------------------------------- reports

fn format_value(v: f64) -> String {
    // Full precision, never exponent form (JSON numbers as measured).
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        let s = format!("{v:?}");
        if s.contains('e') {
            format!("{v:.12}")
        } else {
            s
        }
    }
}

/// The driver's result line for one workload.
pub fn result_json(report: &WorkloadReport, trace: bool) -> String {
    let defs: Vec<MetricDef> = if trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    let mut out = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.attempted, report.failed
    );
    for (i, def) in defs.iter().enumerate() {
        let comma = if i > 0 { ", " } else { "" };
        let _ = write!(
            out,
            "{comma}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            def.name,
            format_value(report.metrics[&def.name]),
            def.unit
        );
    }
    out.push_str("}}");
    out
}

/// Host, toolchain and build provenance, one `key: value` per line.
pub fn provenance() -> String {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "available_parallelism: {cores}\nrustc: {}\ngit_commit: {}\nrelease_profile: {RELEASE_PROFILE}\n",
        env!("BENCH_RUSTC"),
        env!("BENCH_GIT_COMMIT"),
    )
}

/// The human-readable table for one workload.
pub fn render(report: &WorkloadReport, trace: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {}{}  attempted {}  failed {}  schedule {:016x}  outcomes {:016x}",
        report.workload.name(),
        if report.noisy { "  [noisy]" } else { "" },
        report.attempted,
        report.failed,
        report.schedule_digest,
        report.outcome_digest,
    );
    if let Some(what) = &report.first_failure {
        let _ = writeln!(out, "   first failure: {what}");
    }
    let defs = if trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    for def in &defs {
        let v = report.metrics[&def.name];
        let mut note = String::new();
        match def.name.as_str() {
            "batch_ms_p50" => {
                let _ = write!(note, "  n={}", report.samples.0);
            }
            "sim_latency_ms_p50" | "sim_latency_ms_p99" => {
                let _ = write!(note, "  n={}", report.samples.1);
            }
            _ => {}
        }
        if let Some(s) = report.spreads.get(&def.name) {
            let _ = write!(note, "  spread={s:.3}");
        }
        let _ = writeln!(
            out,
            "   {:<44} {:>18} {}{note}",
            def.name,
            format_value(v),
            def.unit
        );
    }
    if let Some(ratio) = report.metrics.get("fail_ratio") {
        let _ = writeln!(
            out,
            "   {:<44} {:>18} ratio",
            "fail_ratio",
            format_value(*ratio)
        );
    }
    if !report.self_time.is_empty() {
        let _ = writeln!(out, "   self time per span (reference seconds):");
        for (span, (calls, self_s)) in &report.self_time {
            let _ = writeln!(out, "     {span:<40} {calls:>9} calls {self_s:>12.6} s");
        }
    }
    out
}
