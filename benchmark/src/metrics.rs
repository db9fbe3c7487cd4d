//! The metric catalogue: every name the benchmark reports, with its unit,
//! its direction, the bound by which an end-to-end metric may worsen, and
//! — for per-layer metrics — which end-to-end metric it should move, on
//! which workload. `BENCHMARK.json` is generated from this file
//! (`describe`), and a smoke test keeps the committed copy in step.

use std::fmt::Write as _;

use crate::workloads::GAS_METHODS;
use crate::Workload;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric.
#[derive(Debug, Clone)]
pub struct MetricDef {
    /// Name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end only: share of the parent's median by which the metric
    /// may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// Per-layer only: the end-to-end metric and workload it should move.
    pub moves: &'static str,
}

/// Seconds one run measures per repeat (the driver's `--seconds`). Three
/// quarters of the issue's default sizes: 114 driver runs of 3 repeats
/// each, plus two builds, have to fit in 57 minutes.
pub const RUN_SECONDS: u64 = 3;

/// The end-to-end metrics, reported per workload with tracing off.
///
/// Bounds sit at three times the widest quartile-to-quartile spread seen
/// over ten seeds on the 2-core sandbox, or more:
///
/// - host time (`req_per_s`, `batch_ms_p50`): 0.20, not the issue's 0.10 —
///   even in reference seconds `lifecycle_mix`, `paged_access` and
///   `market_10k` have spread up to 6 % of their median (the others
///   1–2 %); `setup_s` gets the largest bound the contract allows;
/// - simulated time is exact for a given seed and on the wave workloads
///   moves only in its low digits between seeds; on `lifecycle_mix`, where
///   deadline enforcement interleaves with the phases, the seed moves the
///   latency percentiles by up to 1.8 % and the throughput by 1.1 %, hence
///   0.05 rather than the issue's 0.01;
/// - gas per operation moves by 0.01–0.03 % between seeds on the wave
///   workloads (the lengths of the names in the calls) and by up to 0.26 %
///   on `lifecycle_mix`, hence 0.01 rather than the issue's 0.001.
pub fn end_to_end() -> Vec<MetricDef> {
    let e2e = |name: &str, unit, better, bound| MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound: Some(bound),
        moves: "",
    };
    vec![
        e2e("req_per_s", "1/s", Better::Higher, 0.20),
        e2e("batch_ms_p50", "ms", Better::Lower, 0.20),
        e2e("sim_req_per_s", "1/s", Better::Higher, 0.05),
        e2e("sim_latency_ms_p50", "ms", Better::Lower, 0.05),
        e2e("sim_latency_ms_p99", "ms", Better::Lower, 0.05),
        e2e("gas_per_op", "gas", Better::Lower, 0.01),
        e2e("setup_s", "s", Better::Lower, 0.25),
        e2e("peak_rss_mib", "MiB", Better::Lower, 0.10),
    ]
}

/// The unit ops, `<crate>.<op>`, with what each should move. The order is
/// the order [`crate::unit::run_all`] measures them in.
pub const UNIT_OPS: [(&str, &str); 35] = [
    (
        "crypto.sha256_1k",
        "req_per_s on chain_ingest; a small share of market_access",
    ),
    (
        "crypto.schnorr_sign",
        "req_per_s on chain_ingest; a small share of market_access",
    ),
    (
        "crypto.schnorr_verify",
        "req_per_s on chain_ingest; a small share of market_access",
    ),
    ("crypto.merkle_root_256", "req_per_s on chain_ingest"),
    (
        "codec.encode_policy",
        "req_per_s on chain_ingest and lifecycle_mix",
    ),
    (
        "codec.decode_policy",
        "req_per_s on chain_ingest and lifecycle_mix",
    ),
    ("intern.intern_hit", "req_per_s on market_10k"),
    ("rdf.turtle_parse_policy", "req_per_s on lifecycle_mix"),
    ("policy.compile", "req_per_s on lifecycle_mix"),
    ("policy.decide", "req_per_s on lifecycle_mix"),
    ("policy.next_transition", "req_per_s on lifecycle_mix"),
    ("solid.pod_get_certified", "req_per_s on market_access"),
    (
        "tee.store_resource",
        "req_per_s on market_access and lifecycle_mix",
    ),
    ("tee.access_cache_hit", "req_per_s on lifecycle_mix"),
    ("tee.access_cache_miss", "req_per_s on lifecycle_mix"),
    ("tee.apply_policy_update", "req_per_s on lifecycle_mix"),
    ("tee.report", "req_per_s on lifecycle_mix"),
    ("sim.sched_event", "batch_ms_p50 on every driver workload"),
    ("storage.page_append", "req_per_s on paged_access only"),
    ("storage.page_read_verify", "req_per_s on paged_access only"),
    ("storage.checkpoint_seal", "req_per_s on paged_access only"),
    (
        "blockchain.tx_build_sign",
        "req_per_s on chain_ingest and market_access",
    ),
    (
        "blockchain.submit",
        "req_per_s on chain_ingest and market_access",
    ),
    ("blockchain.seal_block_256", "req_per_s on chain_ingest"),
    (
        "blockchain.seal_block_1",
        "req_per_s on market_access (6-tx blocks)",
    ),
    (
        "blockchain.receipt_lookup",
        "req_per_s on chain_ingest and market_access",
    ),
    (
        "blockchain.call_view_lookup",
        "req_per_s on chain_ingest and market_access",
    ),
    (
        "blockchain.events_since_tail",
        "req_per_s on chain_ingest and market_access",
    ),
    ("blockchain.slot_get_resident", "req_per_s on paged_access"),
    ("blockchain.slot_get_faulted", "req_per_s on paged_access"),
    ("blockchain.slot_set", "req_per_s on paged_access"),
    (
        "contracts.access_set_derive",
        "req_per_s on chain_ingest (parallel executor only)",
    ),
    (
        "contracts.envelope_open_plain",
        "req_per_s on chain_ingest and market_access",
    ),
    ("oracle.push_out_drain_event", "req_per_s on lifecycle_mix"),
    ("core.submit_request", "req_per_s on every driver workload"),
];

/// The harness phases: five on the wave workloads (`drain_events` on
/// every driver workload), five on `lifecycle_mix`, six on `chain_ingest`.
pub const PHASES: [&str; 16] = [
    "index_submit",
    "index_run",
    "access_submit",
    "access_run",
    "drain_events",
    "p2",
    "p3",
    "p4",
    "p5",
    "p6",
    "tx_build_sign",
    "chain_submit",
    "chain_seal",
    "receipt",
    "view",
    "events_poll",
];

/// Crates with an `est.<crate>_share`.
pub const EST_CRATES: [&str; 6] = [
    "crypto",
    "blockchain",
    "contracts",
    "storage",
    "policy",
    "tee",
];

/// The per-layer metrics, reported per workload by the traced run.
pub fn per_layer() -> Vec<MetricDef> {
    let mut out = Vec::new();
    let mut push = |name: String, unit, better, moves| {
        out.push(MetricDef {
            name,
            unit,
            better,
            bound: None,
            moves,
        });
    };
    for (op, moves) in UNIT_OPS {
        push(format!("unit.{op}_ns"), "ns", Better::Lower, moves);
        push(format!("unit.{op}_alloc_b"), "B", Better::Lower, moves);
    }
    for phase in PHASES {
        push(
            format!("phase.{phase}_s"),
            "s",
            Better::Lower,
            "req_per_s of its own workload, in proportion to its share of the window",
        );
    }
    let counts: [(&str, &str, Better, &str); 21] = [
        (
            "blocks",
            "count",
            Better::Lower,
            "sim_req_per_s and sim_latency_* on every workload",
        ),
        (
            "txs",
            "count",
            Better::Lower,
            "gas_per_op on every workload",
        ),
        (
            "txs_per_block_mean",
            "count",
            Better::Higher,
            "sim_req_per_s and sim_latency_* on the driver workloads",
        ),
        (
            "driver_steps_per_req",
            "count",
            Better::Lower,
            "batch_ms_p50 on the driver workloads",
        ),
        (
            "events_logged",
            "count",
            Better::Lower,
            "peak_rss_mib on market_access and chain_ingest",
        ),
        (
            "state_slots",
            "count",
            Better::Lower,
            "peak_rss_mib on market_10k and chain_ingest",
        ),
        (
            "state_bytes",
            "B",
            Better::Lower,
            "peak_rss_mib on market_10k and chain_ingest",
        ),
        (
            "obligations_deleted",
            "count",
            Better::Higher,
            "gas_per_op and req_per_s on lifecycle_mix",
        ),
        (
            "paging.evictions",
            "count",
            Better::Lower,
            "req_per_s on paged_access; 0 elsewhere",
        ),
        (
            "paging.fault_ins",
            "count",
            Better::Lower,
            "req_per_s on paged_access; 0 elsewhere",
        ),
        (
            "paging.compactions",
            "count",
            Better::Lower,
            "req_per_s on paged_access; 0 elsewhere",
        ),
        (
            "paging.resident_bytes",
            "B",
            Better::Lower,
            "peak_rss_mib on paged_access; 0 elsewhere",
        ),
        (
            "paging.spilled_live_bytes",
            "B",
            Better::Lower,
            "peak_rss_mib on paged_access; 0 elsewhere",
        ),
        (
            "retained_blocks",
            "count",
            Better::Lower,
            "peak_rss_mib on every workload",
        ),
        (
            "checkpoints",
            "count",
            Better::Lower,
            "req_per_s on paged_access; 0 elsewhere",
        ),
        (
            "tee.decision_cache_hit_ratio",
            "ratio",
            Better::Higher,
            "req_per_s on lifecycle_mix",
        ),
        (
            "monitoring.evidence_per_round",
            "count",
            Better::Lower,
            "gas_per_op on lifecycle_mix",
        ),
        (
            "policy_mod.devices_notified",
            "count",
            Better::Lower,
            "req_per_s and sim_latency_ms_p99 on lifecycle_mix",
        ),
        (
            "batch_ms_p95",
            "ms",
            Better::Lower,
            "batch_ms_p50 on its own workload (wall tail; diagnostic)",
        ),
        (
            "batch_ms_max",
            "ms",
            Better::Lower,
            "batch_ms_p50 on its own workload (wall tail; diagnostic)",
        ),
        (
            "batch_growth_ratio",
            "ratio",
            Better::Lower,
            "req_per_s on lifecycle_mix (history-dependent cost)",
        ),
    ];
    for (name, unit, better, moves) in counts {
        push(format!("count.{name}"), unit, better, moves);
    }
    for method in GAS_METHODS {
        push(
            format!("count.gas.{method}"),
            "gas",
            Better::Lower,
            "gas_per_op on the workloads that call the method",
        );
    }
    for krate in EST_CRATES {
        push(
            format!("est.{krate}_share"),
            "ratio",
            Better::Lower,
            "req_per_s on its own workload, by at most this share",
        );
    }
    push(
        "est.unattributed_share".into(),
        "ratio",
        Better::Lower,
        "nothing: the part of the window the unit costs do not explain",
    );
    push(
        "trace_overhead_ratio".into(),
        "ratio",
        Better::Lower,
        "nothing: traced over untraced window, minus one",
    );
    push(
        "host.speed_factor".into(),
        "ratio",
        Better::Higher,
        "nothing: the host's speed against the reference kernel during the window",
    );
    out
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The contents of the root `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"benchmark/Cargo.toml\", \"--\", \"run\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in Workload::ALL.iter().enumerate() {
        let comma = if i + 1 < Workload::ALL.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name(),
            json_escape(w.why())
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    let e2e = end_to_end();
    for (i, m) in e2e.iter().enumerate() {
        let comma = if i + 1 < e2e.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.expect("end-to-end metrics carry a bound")
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, m) in layers.iter().enumerate() {
        let comma = if i + 1 < layers.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// The layer→end-to-end interaction table (Markdown), for the README.
pub fn layers_markdown() -> String {
    let mut out = String::from("| per-layer metric | unit | should move |\n|---|---|---|\n");
    for m in per_layer() {
        let _ = writeln!(out, "| `{}` | {} | {} |", m.name, m.unit, m.moves);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn catalogue_fits_the_contract() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert!((1..=16).contains(&e2e.len()));
        assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
        let mut names: Vec<&str> = e2e.iter().chain(&layers).map(|m| m.name.as_str()).collect();
        assert!(names.iter().all(|n| well_formed(n)), "names: {names:?}");
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "names are used once");
        assert!(e2e.iter().all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(e2e.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(layers.iter().all(|m| !m.moves.is_empty()));
        for w in Workload::ALL {
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
    }
}
