//! Host-speed calibration: a fixed reference kernel interleaved with the
//! measured work.
//!
//! The sandboxes this benchmark runs in change speed under it: the same
//! binary on the same inputs measures 3.7 s in one run and 5.4 s a minute
//! later, in phases lasting tens of seconds (shared cores, no reported
//! steal time). No amount of repetition inside one 30-second run averages
//! that out. What does is a paired control: a small, fixed, self-contained
//! computation — no library code, so no change to `crates/` can move it —
//! timed next to every batch. Its slowdown tracks the workload's (the
//! drift is a property of the host, not of the code: on 12 alternating
//! runs the raw window spread, quartile to quartile, was 17 % of the
//! median and the window-to-kernel ratio 2.8 %).
//!
//! Every host-time metric is therefore reported in *reference seconds*:
//! raw seconds × [`HostSpeed::factor`], where the factor is the kernel's
//! nominal duration on the 2-core reference machine in its fast state over
//! its mean duration during the measurement. On a host running at the
//! nominal speed the factor is 1 and reference seconds are seconds; the
//! factor itself is reported as the per-layer metric `host.speed_factor`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::schedule::{Fnv64, SplitMix64};

/// The kernel's duration on the reference machine (2 cores of a 2.1 GHz
/// Xeon under Firecracker) in its fast state, in nanoseconds. This only
/// fixes the unit; comparisons between commits never depend on its value.
pub const REFERENCE_KERNEL_NS: f64 = 360_000.0;

/// Runs the reference kernel once and returns its wall nanoseconds.
///
/// A deterministic mix of what the stack spends its time on: integer
/// mixing, byte-wise hashing, ordered-map inserts and lookups with
/// formatted (allocated) values, and a sort — sized to stay inside the
/// per-core caches so that it samples the core's speed, not memory's.
pub fn kernel() -> u64 {
    let start = Instant::now();
    let mut rng = SplitMix64::new(0x5EED);
    let mut draws: Vec<u64> = (0..2_048).map(|_| rng.next_u64()).collect();
    let mut map: BTreeMap<u64, String> = BTreeMap::new();
    for (i, x) in draws.iter().enumerate() {
        map.insert(x % 512, format!("slot-{i}"));
    }
    let mut fnv = Fnv64::new();
    for x in &draws {
        fnv.write_u64(*x);
        if let Some(v) = map.get(&(x % 512)) {
            fnv.write(v.as_bytes());
        }
    }
    draws.sort_unstable();
    black_box((fnv.finish(), draws[0], map.len()));
    start.elapsed().as_nanos() as u64
}

/// Accumulated kernel samples around one measurement.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostSpeed {
    total_ns: u64,
    runs: u64,
}

impl HostSpeed {
    /// No samples yet.
    pub fn new() -> HostSpeed {
        HostSpeed::default()
    }

    /// Runs the kernel once, records it, and returns its nanoseconds (so
    /// the caller can subtract them from an enclosing timer).
    pub fn sample(&mut self) -> u64 {
        let ns = kernel();
        self.total_ns += ns;
        self.runs += 1;
        ns
    }

    /// Runs the kernel `n` times, after one discarded run that takes the
    /// cold-cache and first-touch page faults.
    pub fn sample_n(&mut self, n: usize) {
        kernel();
        for _ in 0..n {
            self.sample();
        }
    }

    /// Nominal over measured kernel time: below 1 on a slow host. `1.0`
    /// before any sample.
    pub fn factor(&self) -> f64 {
        if self.runs == 0 {
            return 1.0;
        }
        REFERENCE_KERNEL_NS / (self.total_ns as f64 / self.runs as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_nominal_over_mean() {
        let speed = HostSpeed {
            total_ns: 2 * REFERENCE_KERNEL_NS as u64 * 4,
            runs: 4,
        };
        assert!((speed.factor() - 0.5).abs() < 1e-12);
        assert_eq!(HostSpeed::new().factor(), 1.0);
        let mut live = HostSpeed::new();
        assert!(live.sample() > 0);
        assert!(live.factor() > 0.0);
    }
}
