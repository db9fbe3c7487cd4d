//! Measurement primitives: counters, gauges, latency histograms and an
//! event trace.
//!
//! [`MetricsRegistry`] is the workspace's only metric store. Every
//! experiment harness collects its numbers through one; the bench `report`
//! binary turns registries into the tables of EXPERIMENTS.md, and
//! `duc-runtime` renders one as the Prometheus `/metrics` page.

use std::collections::BTreeMap;
use std::fmt;

use crate::clock::{SimDuration, SimTime};

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn incr(&mut self) {
        self.value += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.value
    }
}

/// An exact-percentile histogram of durations.
///
/// Samples are stored raw (the experiments record at most a few hundred
/// thousand points), so quantiles are exact rather than approximated.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Vec<u64>,
    sorted: bool,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one duration.
    pub fn record(&mut self, d: SimDuration) {
        self.samples.push(d.as_nanos());
        self.sorted = false;
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// The raw recorded samples in nanoseconds, in insertion order until
    /// the first quantile query (which sorts in place). The Prometheus
    /// renderer buckets these at render time.
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }

    /// The arithmetic mean, or zero when empty.
    pub fn mean(&self) -> SimDuration {
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        let sum: u128 = self.samples.iter().map(|&v| v as u128).sum();
        SimDuration::from_nanos((sum / self.samples.len() as u128) as u64)
    }

    /// The exact `q`-quantile (`0.0 ..= 1.0`), or zero when empty.
    pub fn quantile(&mut self, q: f64) -> SimDuration {
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        self.ensure_sorted();
        let idx = ((self.samples.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
        SimDuration::from_nanos(self.samples[idx])
    }

    /// Median (p50).
    pub fn median(&mut self) -> SimDuration {
        self.quantile(0.5)
    }

    /// 95th percentile.
    pub fn p95(&mut self) -> SimDuration {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&mut self) -> SimDuration {
        self.quantile(0.99)
    }

    /// Smallest sample, or zero when empty.
    pub fn min(&mut self) -> SimDuration {
        self.quantile(0.0)
    }

    /// Largest sample, or zero when empty.
    pub fn max(&mut self) -> SimDuration {
        self.quantile(1.0)
    }

    /// One-line summary for reports.
    pub fn summary(&mut self) -> String {
        if self.is_empty() {
            return "n=0".to_string();
        }
        format!(
            "n={} mean={} p50={} p95={} p99={} max={}",
            self.len(),
            self.mean(),
            self.median(),
            self.p95(),
            self.p99(),
            self.max()
        )
    }
}

/// A canonical label set: `(key, value)` pairs sorted by key.
pub type Labels = Vec<(String, String)>;

/// The series of one family (one metric name): label set → value. The
/// unlabelled series sits under the empty label set.
pub type Family<T> = BTreeMap<Labels, T>;

/// Applies `apply` to the series `name{labels}` of `families`, created on
/// first use. Looks the family up by `&str` first: the name is only copied
/// when the family is new, and an empty label set never allocates.
fn update<T: Default>(
    families: &mut BTreeMap<String, Family<T>>,
    name: &str,
    labels: &[(&str, &str)],
    apply: impl FnOnce(&mut T),
) {
    let mut key: Labels = labels.iter().map(|&(k, v)| (k.into(), v.into())).collect();
    key.sort_unstable();
    let family = match families.get_mut(name) {
        Some(family) => family,
        None => families.entry(name.to_string()).or_default(),
    };
    apply(family.entry(key).or_default());
}

/// A named bundle of counters, gauges and histograms — every family and
/// every series in `BTreeMap` order, so iteration is deterministic.
///
/// A series is a name plus an optional label set. The name-only methods
/// address the unlabelled series of that name.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, Family<Counter>>,
    gauges: BTreeMap<String, Family<f64>>,
    histograms: BTreeMap<String, Family<Histogram>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Increments the named counter, creating it on first use.
    pub fn incr(&mut self, name: &str) {
        update(&mut self.counters, name, &[], Counter::incr);
    }

    /// Adds `n` to the named counter.
    pub fn add(&mut self, name: &str, n: u64) {
        update(&mut self.counters, name, &[], |c| c.add(n));
    }

    /// Sets the counter series `name{labels}` to a running total kept
    /// elsewhere (network model, gas ledger, TEE caches).
    pub fn set(&mut self, name: &str, labels: &[(&str, &str)], total: u64) {
        update(&mut self.counters, name, labels, |c| c.value = total);
    }

    /// Sets the named gauge.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        update(&mut self.gauges, name, &[], |g| *g = value);
    }

    /// Reads a counter (zero if absent).
    pub fn counter(&self, name: &str) -> u64 {
        let series = self.counters.get(name).and_then(|f| f.get(&[][..]));
        series.map_or(0, Counter::value)
    }

    /// Records a duration sample under `name`.
    pub fn record(&mut self, name: &str, d: SimDuration) {
        update(&mut self.histograms, name, &[], |h| h.record(d));
    }

    /// Mutable access to a histogram (created on first use).
    pub fn histogram_mut(&mut self, name: &str) -> &mut Histogram {
        update(&mut self.histograms, name, &[], |_| {});
        let series = self
            .histograms
            .get_mut(name)
            .and_then(|f| f.get_mut(&[][..]));
        series.expect("series just ensured")
    }

    /// Iterates the unlabelled counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters
            .iter()
            .filter_map(|(name, family)| Some((name.as_str(), family.get(&[][..])?.value())))
    }

    /// Iterates the unlabelled histograms' names in order.
    pub fn histogram_names(&self) -> impl Iterator<Item = &str> {
        self.histograms
            .iter()
            .filter(|(_, family)| family.contains_key(&[][..]))
            .map(|(name, _)| name.as_str())
    }

    /// The counter families in name order.
    pub fn counter_families(&self) -> &BTreeMap<String, Family<Counter>> {
        &self.counters
    }

    /// The gauge families in name order.
    pub fn gauge_families(&self) -> &BTreeMap<String, Family<f64>> {
        &self.gauges
    }

    /// The histogram families in name order.
    pub fn histogram_families(&self) -> &BTreeMap<String, Family<Histogram>> {
        &self.histograms
    }
}

/// One structured trace record: *who* did *what*, *when*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// When the event happened.
    pub at: SimTime,
    /// The acting component (e.g. `"pod-manager:alice"`).
    pub actor: String,
    /// Short machine-readable kind (e.g. `"oracle.push_in"`).
    pub kind: String,
    /// Free-form detail.
    pub detail: String,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} {} {}",
            self.at, self.actor, self.kind, self.detail
        )
    }
}

/// An append-only trace of simulation events, used by tests to assert on
/// process structure (which hops happened, in which order) and by examples
/// to narrate runs.
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    events: Vec<TraceEvent>,
    enabled: bool,
}

impl TraceRecorder {
    /// Creates an enabled recorder.
    pub fn new() -> Self {
        TraceRecorder {
            events: Vec::new(),
            enabled: true,
        }
    }

    /// Creates a disabled recorder (records nothing; for benches).
    pub fn disabled() -> Self {
        TraceRecorder {
            events: Vec::new(),
            enabled: false,
        }
    }

    /// Appends an event if enabled. A disabled recorder formats nothing:
    /// pass `format_args!` rather than a built `String`.
    pub fn record(
        &mut self,
        at: SimTime,
        actor: impl fmt::Display,
        kind: impl fmt::Display,
        detail: impl fmt::Display,
    ) {
        if self.enabled {
            self.events.push(TraceEvent {
                at,
                actor: actor.to_string(),
                kind: kind.to_string(),
                detail: detail.to_string(),
            });
        }
    }

    /// All recorded events in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Whether an event of `kind` was recorded.
    pub fn contains_kind(&self, kind: &str) -> bool {
        self.events.iter().any(|e| e.kind == kind)
    }

    /// Clears the trace.
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.value(), 5);
    }

    #[test]
    fn histogram_quantiles_are_exact() {
        let mut h = Histogram::new();
        for ms in 1..=100u64 {
            h.record(SimDuration::from_millis(ms));
        }
        assert_eq!(h.len(), 100);
        // Index rounds half away from zero: (99 * 0.5).round() = 50 → 51 ms.
        assert_eq!(h.median().as_millis(), 51);
        assert_eq!(h.p95().as_millis(), 95);
        assert_eq!(h.min().as_millis(), 1);
        assert_eq!(h.max().as_millis(), 100);
        assert_eq!(h.mean().as_millis(), 50); // (1+...+100)/100 = 50.5, trunc
    }

    #[test]
    fn histogram_empty_is_safe() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.p99(), SimDuration::ZERO);
        assert_eq!(h.summary(), "n=0");
    }

    #[test]
    fn registry_counters_and_histograms() {
        let mut m = MetricsRegistry::new();
        m.incr("tx.submitted");
        m.add("tx.submitted", 2);
        m.record("e2e", SimDuration::from_millis(10));
        m.record("e2e", SimDuration::from_millis(20));
        assert_eq!(m.counter("tx.submitted"), 3);
        assert_eq!(m.counter("missing"), 0);
        assert_eq!(m.histogram_mut("e2e").median().as_millis(), 20);
        assert_eq!(m.counters().count(), 1);
        assert_eq!(m.histogram_names().count(), 1);
    }

    #[test]
    fn labelled_series_are_canonical_and_apart_from_the_unlabelled_one() {
        let mut m = MetricsRegistry::new();
        m.add("gas.used", 1);
        m.set("gas.used", &[("method", "m"), ("contract", "c")], 7);
        m.set("gas.used", &[("contract", "c"), ("method", "m")], 9);
        m.set_gauge("state.resident_pages", 3.0);
        m.record("e2e", SimDuration::from_millis(10));
        // Name-only reads see the unlabelled series alone.
        assert_eq!(m.counter("gas.used"), 1);
        assert_eq!(m.counters().collect::<Vec<_>>(), [("gas.used", 1)]);
        let rows: Vec<String> = m
            .counter_families()
            .iter()
            .flat_map(|(name, family)| {
                family
                    .iter()
                    .map(move |(labels, c)| format!("{name}{labels:?} = {}", c.value()))
            })
            .collect();
        assert_eq!(
            rows,
            [
                "gas.used[] = 1",
                r#"gas.used[("contract", "c"), ("method", "m")] = 9"#,
            ]
        );
        assert_eq!(m.gauge_families()["state.resident_pages"][&[][..]], 3.0);
        assert_eq!(m.histogram_names().collect::<Vec<_>>(), ["e2e"]);
    }

    #[test]
    fn trace_records_in_order_and_filters() {
        let mut t = TraceRecorder::new();
        t.record(SimTime::from_millis(1), "pm:alice", "pod.create", "pod-0");
        t.record(
            SimTime::from_millis(2),
            "oracle",
            "oracle.push_in",
            "register_pod",
        );
        assert_eq!(t.events().len(), 2);
        assert!(t.contains_kind("oracle.push_in"));
        let line = format!("{}", t.events()[0]);
        assert!(line.contains("pm:alice") && line.contains("pod.create"));
        t.clear();
        assert!(t.events().is_empty());
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = TraceRecorder::disabled();
        t.record(SimTime::ZERO, "x", "y", "z");
        assert!(t.events().is_empty());
    }

    #[test]
    fn record_formats_its_arguments_only_when_enabled() {
        /// Counts how often it is formatted.
        struct Counted<'a>(&'a std::cell::Cell<u32>, &'a str);
        impl fmt::Display for Counted<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                self.0.set(self.0.get() + 1);
                f.write_str(self.1)
            }
        }
        let formatted = std::cell::Cell::new(0);
        let record = |t: &mut TraceRecorder| {
            t.record(
                SimTime::from_millis(3),
                format_args!("tee:{}", Counted(&formatted, "dev-0")),
                Counted(&formatted, "resource.stored"),
                Counted(&formatted, "https://pod/r"),
            );
        };

        let mut off = TraceRecorder::disabled();
        record(&mut off);
        assert_eq!(formatted.get(), 0, "a disabled recorder formatted");
        assert!(off.events().is_empty());

        let mut on = TraceRecorder::new();
        record(&mut on);
        assert_eq!(formatted.get(), 3);
        assert_eq!(
            on.events(),
            [TraceEvent {
                at: SimTime::from_millis(3),
                actor: "tee:dev-0".into(),
                kind: "resource.stored".into(),
                detail: "https://pod/r".into(),
            }]
        );
    }
}
