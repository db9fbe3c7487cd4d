//! Network latency, bandwidth and partition model.
//!
//! The architecture's components (pod managers, TEE devices, blockchain
//! nodes, oracle relays) are *endpoints*; every message hop between two
//! endpoints is priced by a [`NetworkModel`]: a sampled propagation latency
//! plus a size-dependent transfer time, with optional loss and partitions
//! for the robustness experiments (E8).

use std::collections::{HashMap, HashSet};

use crate::clock::SimDuration;
use crate::metrics::MetricsRegistry;
use crate::rng::Rng;

/// Identifies a network endpoint (one simulated host).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EndpointId(pub u32);

impl std::fmt::Display for EndpointId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ep{}", self.0)
    }
}

/// A latency distribution for one link direction.
#[derive(Debug, Clone, PartialEq)]
pub enum LatencyModel {
    /// A fixed delay.
    Constant(SimDuration),
    /// Uniform in `[lo, hi]`.
    Uniform(SimDuration, SimDuration),
    /// `base` plus an exponential tail with the given mean.
    Exponential {
        /// Minimum propagation delay.
        base: SimDuration,
        /// Mean of the additional exponential component.
        mean_extra: SimDuration,
    },
    /// Normal with the given mean/stddev, truncated at zero.
    Normal {
        /// Mean delay.
        mean: SimDuration,
        /// Standard deviation.
        std_dev: SimDuration,
    },
}

impl LatencyModel {
    /// Draws one latency sample.
    pub fn sample(&self, rng: &mut Rng) -> SimDuration {
        match self {
            LatencyModel::Constant(d) => *d,
            LatencyModel::Uniform(lo, hi) => {
                let (lo, hi) = (lo.as_nanos(), hi.as_nanos().max(lo.as_nanos()));
                SimDuration::from_nanos(rng.gen_range_inclusive(lo, hi))
            }
            LatencyModel::Exponential { base, mean_extra } => {
                let extra = rng.gen_exponential(mean_extra.as_nanos() as f64);
                *base + SimDuration::from_nanos(extra as u64)
            }
            LatencyModel::Normal { mean, std_dev } => {
                let v = rng.gen_normal(mean.as_nanos() as f64, std_dev.as_nanos() as f64);
                SimDuration::from_nanos(v.max(0.0) as u64)
            }
        }
    }
}

/// Per-link configuration: latency, loss and bandwidth.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkConfig {
    /// Propagation latency distribution.
    pub latency: LatencyModel,
    /// Probability that a message on this link is silently dropped.
    pub drop_probability: f64,
    /// Link bandwidth in bytes per second; `None` means size-independent.
    pub bandwidth_bps: Option<u64>,
}

impl Default for LinkConfig {
    /// A LAN-ish default: 2 ms ± 0.5 ms, lossless, 100 MB/s.
    fn default() -> Self {
        LinkConfig {
            latency: LatencyModel::Normal {
                mean: SimDuration::from_millis(2),
                std_dev: SimDuration::from_micros(500),
            },
            drop_probability: 0.0,
            bandwidth_bps: Some(100_000_000),
        }
    }
}

impl LinkConfig {
    /// A WAN-ish profile: 40 ms base + exponential tail, 10 MB/s.
    pub fn wan() -> Self {
        LinkConfig {
            latency: LatencyModel::Exponential {
                base: SimDuration::from_millis(40),
                mean_extra: SimDuration::from_millis(10),
            },
            drop_probability: 0.0,
            bandwidth_bps: Some(10_000_000),
        }
    }

    /// A zero-latency, infinite-bandwidth profile (intra-process calls).
    pub fn local() -> Self {
        LinkConfig {
            latency: LatencyModel::Constant(SimDuration::ZERO),
            drop_probability: 0.0,
            bandwidth_bps: None,
        }
    }
}

/// The outcome of attempting one message hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Message arrives after the given delay.
    Delivered(SimDuration),
    /// Message lost (link loss or partition).
    Dropped,
}

impl Delivery {
    /// The delay if delivered.
    pub fn delay(self) -> Option<SimDuration> {
        match self {
            Delivery::Delivered(d) => Some(d),
            Delivery::Dropped => None,
        }
    }
}

/// A network of endpoints with one link model, loss and partitions.
///
/// # Example
/// ```
/// use duc_sim::{NetworkModel, LinkConfig, Rng};
///
/// let mut net = NetworkModel::new(LinkConfig::default());
/// let a = net.add_endpoint("alice-device");
/// let b = net.add_endpoint("bob-pod");
/// let mut rng = Rng::seed_from_u64(1);
/// let d = net.transmit(a, b, 1024, &mut rng).delay().expect("lossless default");
/// assert!(d > duc_sim::SimDuration::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct NetworkModel {
    default_link: LinkConfig,
    partitions: HashSet<(EndpointId, EndpointId)>,
    down: HashSet<EndpointId>,
    /// Additional drop probability per directed pair (fault-plan drop
    /// windows layered over the links' own loss).
    extra_drop: HashMap<(EndpointId, EndpointId), f64>,
    names: Vec<String>,
    /// Total messages offered to the network.
    messages_sent: u64,
    /// Total messages dropped by loss or partition.
    messages_dropped: u64,
    /// Messages dropped because the pair was partitioned.
    dropped_partition: u64,
    /// Messages dropped because an endpoint was down.
    dropped_down: u64,
    /// Messages dropped by probabilistic link loss.
    dropped_loss: u64,
    /// Total payload bytes offered.
    bytes_sent: u64,
}

impl NetworkModel {
    /// Creates a network where every link uses `default_link` unless
    /// overridden.
    pub fn new(default_link: LinkConfig) -> Self {
        NetworkModel {
            default_link,
            partitions: HashSet::new(),
            down: HashSet::new(),
            extra_drop: HashMap::new(),
            names: Vec::new(),
            messages_sent: 0,
            messages_dropped: 0,
            dropped_partition: 0,
            dropped_down: 0,
            dropped_loss: 0,
            bytes_sent: 0,
        }
    }

    /// Registers a new endpoint and returns its id.
    pub fn add_endpoint(&mut self, name: impl Into<String>) -> EndpointId {
        let id = EndpointId(self.names.len() as u32);
        self.names.push(name.into());
        id
    }

    /// The human-readable name of an endpoint.
    pub fn endpoint_name(&self, id: EndpointId) -> &str {
        self.names
            .get(id.0 as usize)
            .map(String::as_str)
            .unwrap_or("<unknown>")
    }

    /// Number of registered endpoints.
    pub fn endpoint_count(&self) -> usize {
        self.names.len()
    }

    /// Severs connectivity in *both* directions between `a` and `b`.
    pub fn partition(&mut self, a: EndpointId, b: EndpointId) {
        self.partitions.insert((a, b));
        self.partitions.insert((b, a));
    }

    /// Restores connectivity between `a` and `b`.
    pub fn heal(&mut self, a: EndpointId, b: EndpointId) {
        self.partitions.remove(&(a, b));
        self.partitions.remove(&(b, a));
    }

    /// Marks an endpoint as crashed: every message to or from it is dropped.
    pub fn set_down(&mut self, ep: EndpointId, down: bool) {
        if down {
            self.down.insert(ep);
        } else {
            self.down.remove(&ep);
        }
    }

    /// Layers an additional drop probability over the pair `a`↔`b` (both
    /// directions), on top of the links' own loss. Fault-plan drop windows
    /// apply through this.
    pub fn set_extra_drop(&mut self, a: EndpointId, b: EndpointId, p: f64) {
        self.extra_drop.insert((a, b), p);
        self.extra_drop.insert((b, a), p);
    }

    /// Removes the extra drop probability on the pair `a`↔`b`.
    pub fn clear_extra_drop(&mut self, a: EndpointId, b: EndpointId) {
        self.extra_drop.remove(&(a, b));
        self.extra_drop.remove(&(b, a));
    }

    /// Prices one message of `size_bytes` from `from` to `to`.
    ///
    /// Accounts the attempt in the network statistics either way.
    pub fn transmit(
        &mut self,
        from: EndpointId,
        to: EndpointId,
        size_bytes: u64,
        rng: &mut Rng,
    ) -> Delivery {
        self.messages_sent += 1;
        self.bytes_sent += size_bytes;
        if self.partitions.contains(&(from, to)) {
            self.messages_dropped += 1;
            self.dropped_partition += 1;
            return Delivery::Dropped;
        }
        if self.down.contains(&from) || self.down.contains(&to) {
            self.messages_dropped += 1;
            self.dropped_down += 1;
            return Delivery::Dropped;
        }
        let cfg = &self.default_link;
        // Combine link loss with any fault-window loss into one draw so a
        // fault-free run consumes the RNG — and decides each delivery —
        // exactly as before (the combine formula is skipped entirely when
        // no window is active, keeping the threshold bit-identical).
        let p = match self.extra_drop.get(&(from, to)) {
            Some(extra) => 1.0 - (1.0 - cfg.drop_probability) * (1.0 - extra),
            None => cfg.drop_probability,
        };
        if rng.gen_bool(p) {
            self.messages_dropped += 1;
            self.dropped_loss += 1;
            return Delivery::Dropped;
        }
        let mut delay = cfg.latency.sample(rng);
        if let Some(bps) = cfg.bandwidth_bps {
            if bps > 0 {
                let transfer_nanos = (size_bytes as u128 * 1_000_000_000u128 / bps as u128)
                    .min(u64::MAX as u128) as u64;
                delay += SimDuration::from_nanos(transfer_nanos);
            }
        }
        Delivery::Delivered(delay)
    }

    /// `(messages_sent, messages_dropped, bytes_sent)` counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.messages_sent, self.messages_dropped, self.bytes_sent)
    }

    /// Dropped-message breakdown: `(partition, endpoint down, link loss)`.
    /// The three always sum to the drop total of [`NetworkModel::stats`].
    pub fn drop_breakdown(&self) -> (u64, u64, u64) {
        (self.dropped_partition, self.dropped_down, self.dropped_loss)
    }

    /// Sets the `net.*` counters of `metrics` to this model's running
    /// totals.
    pub fn publish_metrics(&self, metrics: &mut MetricsRegistry) {
        metrics.set("net.messages_sent", &[], self.messages_sent);
        metrics.set("net.messages_dropped", &[], self.messages_dropped);
        metrics.set("net.dropped.partition", &[], self.dropped_partition);
        metrics.set("net.dropped.down", &[], self.dropped_down);
        metrics.set("net.dropped.loss", &[], self.dropped_loss);
        metrics.set("net.bytes_sent", &[], self.bytes_sent);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::seed_from_u64(42)
    }

    #[test]
    fn constant_latency_is_exact() {
        let m = LatencyModel::Constant(SimDuration::from_millis(7));
        assert_eq!(m.sample(&mut rng()), SimDuration::from_millis(7));
    }

    #[test]
    fn uniform_latency_stays_in_bounds() {
        let m = LatencyModel::Uniform(SimDuration::from_millis(1), SimDuration::from_millis(3));
        let mut r = rng();
        for _ in 0..500 {
            let s = m.sample(&mut r);
            assert!(s >= SimDuration::from_millis(1) && s <= SimDuration::from_millis(3));
        }
    }

    #[test]
    fn exponential_latency_exceeds_base() {
        let m = LatencyModel::Exponential {
            base: SimDuration::from_millis(10),
            mean_extra: SimDuration::from_millis(5),
        };
        let mut r = rng();
        for _ in 0..200 {
            assert!(m.sample(&mut r) >= SimDuration::from_millis(10));
        }
    }

    #[test]
    fn bandwidth_adds_transfer_time() {
        let mut net = NetworkModel::new(LinkConfig {
            latency: LatencyModel::Constant(SimDuration::ZERO),
            drop_probability: 0.0,
            bandwidth_bps: Some(1_000_000), // 1 MB/s
        });
        let a = net.add_endpoint("a");
        let b = net.add_endpoint("b");
        let d = net.transmit(a, b, 500_000, &mut rng()).delay().unwrap();
        assert_eq!(d.as_millis(), 500, "0.5 MB at 1 MB/s takes 500 ms");
    }

    #[test]
    fn partition_drops_both_directions() {
        let mut net = NetworkModel::new(LinkConfig::local());
        let a = net.add_endpoint("a");
        let b = net.add_endpoint("b");
        net.partition(a, b);
        let mut r = rng();
        assert_eq!(net.transmit(a, b, 1, &mut r), Delivery::Dropped);
        assert_eq!(net.transmit(b, a, 1, &mut r), Delivery::Dropped);
        net.heal(a, b);
        assert!(net.transmit(a, b, 1, &mut r).delay().is_some());
    }

    #[test]
    fn down_endpoint_is_unreachable() {
        let mut net = NetworkModel::new(LinkConfig::local());
        let a = net.add_endpoint("a");
        let b = net.add_endpoint("b");
        net.set_down(b, true);
        assert_eq!(net.transmit(a, b, 1, &mut rng()), Delivery::Dropped);
        net.set_down(b, false);
        assert!(net.transmit(a, b, 1, &mut rng()).delay().is_some());
    }

    #[test]
    fn lossy_link_drops_roughly_at_rate() {
        let mut net = NetworkModel::new(LinkConfig {
            latency: LatencyModel::Constant(SimDuration::ZERO),
            drop_probability: 0.3,
            bandwidth_bps: None,
        });
        let a = net.add_endpoint("a");
        let b = net.add_endpoint("b");
        let mut r = rng();
        let dropped = (0..5000)
            .filter(|_| net.transmit(a, b, 1, &mut r) == Delivery::Dropped)
            .count();
        assert!((1300..1700).contains(&dropped), "dropped {dropped} of 5000");
        let (sent, drop_count, _) = net.stats();
        assert_eq!(sent, 5000);
        assert_eq!(drop_count as usize, dropped);
    }

    #[test]
    fn drop_breakdown_attributes_causes() {
        let mut net = NetworkModel::new(LinkConfig::local());
        let a = net.add_endpoint("a");
        let b = net.add_endpoint("b");
        let c = net.add_endpoint("c");
        let mut r = rng();
        net.partition(a, b);
        assert_eq!(net.transmit(a, b, 1, &mut r), Delivery::Dropped);
        net.heal(a, b);
        net.set_down(c, true);
        assert_eq!(net.transmit(a, c, 1, &mut r), Delivery::Dropped);
        net.set_down(c, false);
        net.set_extra_drop(a, b, 1.0);
        assert_eq!(
            net.transmit(b, a, 1, &mut r),
            Delivery::Dropped,
            "extra drop is symmetric"
        );
        net.clear_extra_drop(a, b);
        assert!(net.transmit(a, b, 1, &mut r).delay().is_some());
        assert_eq!(net.drop_breakdown(), (1, 1, 1));
        let (_, dropped, _) = net.stats();
        assert_eq!(dropped, 3, "breakdown sums to the total");
    }

    #[test]
    fn publish_metrics_sets_running_totals() {
        let mut net = NetworkModel::new(LinkConfig::local());
        let a = net.add_endpoint("a");
        let b = net.add_endpoint("b");
        let mut r = rng();
        let mut m = MetricsRegistry::new();
        net.transmit(a, b, 10, &mut r);
        net.publish_metrics(&mut m);
        assert_eq!(m.counter("net.messages_sent"), 1);
        assert_eq!(m.counter("net.bytes_sent"), 10);
        // Publishing again without traffic changes nothing.
        net.publish_metrics(&mut m);
        assert_eq!(m.counter("net.messages_sent"), 1);
        net.partition(a, b);
        net.transmit(a, b, 5, &mut r);
        net.publish_metrics(&mut m);
        assert_eq!(m.counter("net.messages_sent"), 2);
        assert_eq!(m.counter("net.messages_dropped"), 1);
        assert_eq!(m.counter("net.dropped.partition"), 1);
        assert_eq!(m.counter("net.dropped.loss"), 0);
    }

    #[test]
    fn endpoint_names_are_tracked() {
        let mut net = NetworkModel::new(LinkConfig::default());
        let a = net.add_endpoint("alice");
        assert_eq!(net.endpoint_name(a), "alice");
        assert_eq!(net.endpoint_name(EndpointId(99)), "<unknown>");
        assert_eq!(net.endpoint_count(), 1);
    }
}
