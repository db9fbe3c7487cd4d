//! Prometheus text exposition (format 0.0.4) of a
//! [`duc_sim::MetricsRegistry`].
//!
//! This module holds no metric state: [`render`] is a pure function of the
//! registry it is given. Dotted registry names become family names through
//! `prom_name` (counters gain `_total`, histograms `_seconds`, gauges
//! nothing), and the registry's exact-sample histograms are bucketed over
//! `BUCKET_BOUNDS_SECONDS` at render time.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use duc_sim::{Family, Histogram, Labels, MetricsRegistry};

/// Histogram bucket upper bounds, in seconds. Chosen for enforcement-lag
/// style latencies: sub-millisecond through minutes.
pub(crate) const BUCKET_BOUNDS_SECONDS: [f64; 11] = [
    0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0,
];

/// HELP text by family name.
const HELP: &[(&str, &str)] = &[
    (
        "duc_gas_used_total",
        "Gas consumed by confirmed contract calls, by contract and method.",
    ),
    (
        "duc_state_evictions_total",
        "World-state pages evicted to the spill store.",
    ),
    (
        "duc_state_fault_ins_total",
        "World-state pages faulted back in from the spill store.",
    ),
    (
        "duc_state_resident_bytes",
        "Bytes of world-state slot data held by resident pages.",
    ),
    (
        "duc_state_resident_pages",
        "World-state pages currently resident in memory.",
    ),
    (
        "duc_tee_decision_cache_total",
        "TEE usage-decision cache lookups by result.",
    ),
];

/// Normalises an internal dotted metric name (`net.dropped.partition`)
/// into a Prometheus family name (`duc_net_dropped_partition`), appending
/// `suffix` (e.g. `"_total"`) when given.
pub(crate) fn prom_name(raw: &str, suffix: &str) -> String {
    let mut out = String::from("duc");
    let words = raw.split(|c: char| !c.is_ascii_alphanumeric());
    for word in words.filter(|word| !word.is_empty()) {
        out.push('_');
        out.push_str(&word.to_ascii_lowercase());
    }
    out + suffix
}

/// Renders `registry` in Prometheus text format 0.0.4: families sorted by
/// name, series by canonical label set, histogram buckets cumulative.
pub fn render(registry: &MetricsRegistry) -> String {
    render_with_help(registry, HELP)
}

fn render_with_help(registry: &MetricsRegistry, help: &[(&str, &str)]) -> String {
    // One block of text per family, sorted by family name at the end: the
    // registry orders by dotted name within each kind, not by exposition
    // name.
    let mut blocks = Vec::new();
    let counters = (registry.counter_families(), "counter", "_total");
    push_families(&mut blocks, counters, help, |out, name, labels, counter| {
        let _ = writeln!(
            out,
            "{name}{} {}",
            render_labels(labels, None),
            counter.value()
        );
    });
    let gauges = (registry.gauge_families(), "gauge", "");
    push_families(&mut blocks, gauges, help, |out, name, labels, value| {
        let _ = writeln!(out, "{name}{} {value}", render_labels(labels, None));
    });
    let histograms = (registry.histogram_families(), "histogram", "_seconds");
    push_families(&mut blocks, histograms, help, render_histogram);
    blocks.sort();
    blocks.into_iter().map(|(_, text)| text).collect()
}

/// Appends one `(exposition name, text)` block per family: the `# HELP` and
/// `# TYPE` lines, then whatever `series` writes for each of its series.
fn push_families<T>(
    blocks: &mut Vec<(String, String)>,
    (families, kind, suffix): (&BTreeMap<String, Family<T>>, &str, &str),
    help: &[(&str, &str)],
    series: impl Fn(&mut String, &str, &Labels, &T),
) {
    for (raw, family) in families {
        let name = prom_name(raw, suffix);
        let mut out = String::new();
        if let Some((_, text)) = help.iter().find(|(family, _)| *family == name) {
            let _ = writeln!(out, "# HELP {name} {}", escape_help(text));
        }
        let _ = writeln!(out, "# TYPE {name} {kind}");
        for (labels, value) in family {
            series(&mut out, &name, labels, value);
        }
        blocks.push((name, out));
    }
}

fn render_histogram(out: &mut String, name: &str, labels: &Labels, histogram: &Histogram) {
    let samples = histogram.samples();
    for bound in BUCKET_BOUNDS_SECONDS {
        let within = |&&nanos: &&u64| nanos as f64 / 1e9 <= bound;
        let cumulative = samples.iter().filter(within).count();
        // `Display` for f64 trims trailing zeros (1.0 → "1").
        let le = render_labels(labels, Some(&bound.to_string()));
        let _ = writeln!(out, "{name}_bucket{le} {cumulative}");
    }
    let count = samples.len();
    let inf = render_labels(labels, Some("+Inf"));
    let _ = writeln!(out, "{name}_bucket{inf} {count}");
    // Summed as integers so the page does not depend on sample order (the
    // registry sorts in place on quantile queries).
    let sum: u128 = samples.iter().map(|&nanos| nanos as u128).sum();
    let plain = render_labels(labels, None);
    let _ = writeln!(out, "{name}_sum{plain} {}", sum as f64 / 1e9);
    let _ = writeln!(out, "{name}_count{plain} {count}");
}

/// `{k="v",...}` for a series, with the histogram `le` label last when
/// given; empty when there is nothing to print.
fn render_labels(labels: &Labels, le: Option<&str>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some(le) = le {
        pairs.push(format!("le=\"{le}\""));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use duc_sim::SimDuration;

    #[test]
    fn prom_name_normalises() {
        assert_eq!(
            prom_name("net.dropped.partition", "_total"),
            "duc_net_dropped_partition_total"
        );
        assert_eq!(prom_name("gas-by-method", ""), "duc_gas_by_method");
        assert_eq!(prom_name("weird..Name!", ""), "duc_weird_name");
    }

    #[test]
    fn label_order_is_canonical() {
        let mut m = MetricsRegistry::new();
        m.set("x", &[("b", "2"), ("a", "1")], 1);
        m.set("x", &[("a", "1"), ("b", "2")], 2);
        assert_eq!(
            render(&m),
            "# TYPE duc_x_total counter\nduc_x_total{a=\"1\",b=\"2\"} 2\n"
        );
    }

    #[test]
    fn render_is_valid_exposition() {
        let mut m = MetricsRegistry::new();
        // Inserted out of exposition order on purpose.
        m.record("process.lag", SimDuration::from_secs(250));
        m.record("process.lag", SimDuration::from_millis(2));
        m.record("process.lag", SimDuration::from_millis(5));
        m.set_gauge("state.inflight", 3.0);
        m.set("net.messages", &[], 7);
        m.set(
            "gas.used",
            &[("method", "say \"hi\"\n"), ("contract", "a\\b")],
            41,
        );
        m.set("gas.used", &[("contract", "a"), ("method", "m")], 1);
        let help = [("duc_net_messages_total", "Messages\nsent \\ offered.")];
        let expected = r#"# TYPE duc_gas_used_total counter
duc_gas_used_total{contract="a",method="m"} 1
duc_gas_used_total{contract="a\\b",method="say \"hi\"\n"} 41
# HELP duc_net_messages_total Messages\nsent \\ offered.
# TYPE duc_net_messages_total counter
duc_net_messages_total 7
# TYPE duc_process_lag_seconds histogram
duc_process_lag_seconds_bucket{le="0.0005"} 0
duc_process_lag_seconds_bucket{le="0.001"} 0
duc_process_lag_seconds_bucket{le="0.005"} 2
duc_process_lag_seconds_bucket{le="0.01"} 2
duc_process_lag_seconds_bucket{le="0.05"} 2
duc_process_lag_seconds_bucket{le="0.1"} 2
duc_process_lag_seconds_bucket{le="0.5"} 2
duc_process_lag_seconds_bucket{le="1"} 2
duc_process_lag_seconds_bucket{le="5"} 2
duc_process_lag_seconds_bucket{le="30"} 2
duc_process_lag_seconds_bucket{le="120"} 2
duc_process_lag_seconds_bucket{le="+Inf"} 3
duc_process_lag_seconds_sum 250.007
duc_process_lag_seconds_count 3
# TYPE duc_state_inflight gauge
duc_state_inflight 3
"#;
        assert_eq!(render_with_help(&m, &help), expected);
    }
}
