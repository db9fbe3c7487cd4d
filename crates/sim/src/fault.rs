//! Fault injection plans for the robustness experiments (E8).
//!
//! A [`FaultPlan`] declares, ahead of a run, *which* component fails, *when*,
//! and for *how long*. The scenario driver consults the plan while executing;
//! components themselves stay oblivious, exactly like production software.
//!
//! Four fault classes cover the paper's §V-2 threat surface:
//!
//! - [`FaultSpec::Crash`] — an endpoint (pod manager, device, relay,
//!   gateway) is down for a window; every message to or from it is lost.
//! - [`FaultSpec::Partition`] — a bidirectional link cut between two
//!   endpoints.
//! - [`FaultSpec::DropWindow`] — a lossy window on a link pair: messages
//!   drop with a declared probability while the window is active.
//! - [`FaultSpec::ValidatorStall`] — a PoA validator misses its proposal
//!   slots for a window, stretching inclusion latency.
//!
//! Plans are plain data (`Eq`-comparable, no floats), so identically-seeded
//! chaos runs replay byte-identically. [`FaultPlan::random`] generates a
//! seeded random plan for the chaos harness; [`FaultPlan::boundaries`] and
//! [`FaultPlan::next_clear`] let an event-loop driver schedule fault
//! transitions and crash-window recovery wake-ups deterministically.

use std::collections::{BTreeMap, BTreeSet};

use crate::clock::{SimDuration, SimTime};
use crate::net::EndpointId;
use crate::rng::Rng;

/// One injected fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultSpec {
    /// The endpoint crashes at `from` and recovers at `until`
    /// (use [`SimTime::MAX`] for a permanent crash).
    Crash {
        /// Affected endpoint.
        endpoint: EndpointId,
        /// Crash instant (inclusive).
        from: SimTime,
        /// Recovery instant (exclusive).
        until: SimTime,
    },
    /// Bidirectional partition between two endpoints over a window.
    Partition {
        /// One side.
        a: EndpointId,
        /// Other side.
        b: EndpointId,
        /// Partition start (inclusive).
        from: SimTime,
        /// Partition end (exclusive).
        until: SimTime,
    },
    /// A lossy window on the bidirectional pair `a`↔`b`: messages drop
    /// with probability `per_mille`/1000 while the window is active.
    DropWindow {
        /// One side.
        a: EndpointId,
        /// Other side.
        b: EndpointId,
        /// Window start (inclusive).
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
        /// Drop probability in parts per thousand (kept integral so plans
        /// stay `Eq`-comparable and replayable).
        per_mille: u16,
    },
    /// A PoA validator misses its proposal slots over a window.
    ValidatorStall {
        /// Validator index.
        validator: usize,
        /// Stall start (inclusive).
        from: SimTime,
        /// Stall end (exclusive).
        until: SimTime,
    },
}

impl FaultSpec {
    /// Whether this fault is active at instant `t`.
    pub(crate) fn active_at(&self, t: SimTime) -> bool {
        let (from, until) = self.window();
        t >= from && t < until
    }

    /// The `[from, until)` window of this fault.
    pub fn window(&self) -> (SimTime, SimTime) {
        match self {
            FaultSpec::Crash { from, until, .. }
            | FaultSpec::Partition { from, until, .. }
            | FaultSpec::DropWindow { from, until, .. }
            | FaultSpec::ValidatorStall { from, until, .. } => (*from, *until),
        }
    }
}

/// Draws two endpoints with *distinct ids* from a possibly-weighted list
/// (a list may name an endpoint more than once to bias selection; a pair
/// fault between an endpoint and itself would block nothing).
fn distinct_pair(rng: &mut Rng, endpoints: &[EndpointId]) -> Option<(EndpointId, EndpointId)> {
    let a = *rng.choose(endpoints);
    let b = *rng.choose(endpoints);
    if b != a {
        return Some((a, b));
    }
    // Deterministic fallback: the first id different from `a`, if any.
    endpoints.iter().copied().find(|e| *e != a).map(|b| (a, b))
}

/// Normalizes an endpoint pair so unordered lookups agree.
fn pair(a: EndpointId, b: EndpointId) -> (EndpointId, EndpointId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// A declarative collection of faults for one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty (fault-free) plan.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Adds a crash window for an endpoint.
    pub fn crash(mut self, endpoint: EndpointId, from: SimTime, until: SimTime) -> Self {
        self.faults.push(FaultSpec::Crash {
            endpoint,
            from,
            until,
        });
        self
    }

    /// Adds a permanent crash starting at `from`.
    pub fn crash_forever(self, endpoint: EndpointId, from: SimTime) -> Self {
        self.crash(endpoint, from, SimTime::MAX)
    }

    /// Adds a partition window between two endpoints.
    pub fn partition(
        mut self,
        a: EndpointId,
        b: EndpointId,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        self.faults.push(FaultSpec::Partition { a, b, from, until });
        self
    }

    /// Adds a lossy window (`per_mille`/1000 drop probability) on the pair
    /// `a`↔`b`.
    pub fn drop_window(
        mut self,
        a: EndpointId,
        b: EndpointId,
        from: SimTime,
        until: SimTime,
        per_mille: u16,
    ) -> Self {
        self.faults.push(FaultSpec::DropWindow {
            a,
            b,
            from,
            until,
            per_mille,
        });
        self
    }

    /// Adds a proposal-stall window for validator `validator`.
    pub fn validator_stall(mut self, validator: usize, from: SimTime, until: SimTime) -> Self {
        self.faults.push(FaultSpec::ValidatorStall {
            validator,
            from,
            until,
        });
        self
    }

    /// Whether `endpoint` is crashed at `t`.
    pub(crate) fn is_crashed(&self, endpoint: EndpointId, t: SimTime) -> bool {
        self.faults.iter().any(|f| match f {
            FaultSpec::Crash { endpoint: e, .. } => *e == endpoint && f.active_at(t),
            _ => false,
        })
    }

    /// Whether the pair `(a, b)` is partitioned at `t` (order-insensitive).
    pub(crate) fn is_partitioned(&self, a: EndpointId, b: EndpointId, t: SimTime) -> bool {
        self.faults.iter().any(|f| match f {
            FaultSpec::Partition { a: x, b: y, .. } => {
                ((*x == a && *y == b) || (*x == b && *y == a)) && f.active_at(t)
            }
            _ => false,
        })
    }

    /// Whether communication `from → to` is possible at `t` under this plan
    /// (drop windows are probabilistic, so they never *block* a link).
    pub fn allows(&self, from: EndpointId, to: EndpointId, t: SimTime) -> bool {
        !self.is_crashed(from, t) && !self.is_crashed(to, t) && !self.is_partitioned(from, to, t)
    }

    /// The earliest instant `>= t` at which `from → to` communication is
    /// possible again, or `None` when a permanent fault blocks the pair
    /// forever.
    ///
    /// Drivers use this to *suspend* a blocked hop across a declared crash
    /// or partition window and resume exactly at recovery, instead of
    /// burning retry budget against a link that cannot deliver.
    pub fn next_clear(&self, from: EndpointId, to: EndpointId, t: SimTime) -> Option<SimTime> {
        let mut at = t;
        // Each iteration jumps past every window blocking `at`; the number
        // of jumps is bounded by the number of declared faults.
        for _ in 0..=self.faults.len() {
            if self.allows(from, to, at) {
                return Some(at);
            }
            let until = self
                .faults
                .iter()
                .filter(|f| f.active_at(at))
                .filter(|f| match f {
                    FaultSpec::Crash { endpoint, .. } => *endpoint == from || *endpoint == to,
                    FaultSpec::Partition { a, b, .. } => pair(*a, *b) == pair(from, to),
                    _ => false,
                })
                .map(|f| f.window().1)
                .max()?;
            if until == SimTime::MAX {
                return None;
            }
            at = until;
        }
        None
    }

    /// The crashed endpoints at `t`.
    pub fn crashed_at(&self, t: SimTime) -> BTreeSet<EndpointId> {
        self.faults
            .iter()
            .filter(|f| f.active_at(t))
            .filter_map(|f| match f {
                FaultSpec::Crash { endpoint, .. } => Some(*endpoint),
                _ => None,
            })
            .collect()
    }

    /// The partitioned pairs at `t` (normalized order).
    pub fn partitions_at(&self, t: SimTime) -> BTreeSet<(EndpointId, EndpointId)> {
        self.faults
            .iter()
            .filter(|f| f.active_at(t))
            .filter_map(|f| match f {
                FaultSpec::Partition { a, b, .. } => Some(pair(*a, *b)),
                _ => None,
            })
            .collect()
    }

    /// The lossy pairs at `t` with their effective drop probability in
    /// parts per thousand (the max across overlapping windows).
    pub fn lossy_at(&self, t: SimTime) -> BTreeMap<(EndpointId, EndpointId), u16> {
        let mut out = BTreeMap::new();
        for f in self.faults.iter().filter(|f| f.active_at(t)) {
            if let FaultSpec::DropWindow {
                a, b, per_mille, ..
            } = f
            {
                let entry = out.entry(pair(*a, *b)).or_insert(0u16);
                *entry = (*entry).max(*per_mille);
            }
        }
        out
    }

    /// The stalled validators at `t`.
    pub fn stalled_at(&self, t: SimTime) -> BTreeSet<usize> {
        self.faults
            .iter()
            .filter(|f| f.active_at(t))
            .filter_map(|f| match f {
                FaultSpec::ValidatorStall { validator, .. } => Some(*validator),
                _ => None,
            })
            .collect()
    }

    /// Every instant at which the plan's fault state changes (window starts
    /// and finite window ends), sorted and deduplicated. An event-loop
    /// driver schedules a transition at each boundary so component fault
    /// state flips at exactly the declared instants.
    pub fn boundaries(&self) -> Vec<SimTime> {
        let mut out: Vec<SimTime> = self
            .faults
            .iter()
            .flat_map(|f| {
                let (from, until) = f.window();
                [Some(from), (until != SimTime::MAX).then_some(until)]
            })
            .flatten()
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// All declared faults.
    pub fn faults(&self) -> &[FaultSpec] {
        &self.faults
    }

    /// Whether the plan declares no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Generates a random-but-seeded plan over the given endpoints and
    /// validator count: up to `max_faults` windows of every class, each
    /// starting within `[start, start + horizon)` and bounded (no permanent
    /// faults, so every blocked hop eventually clears and chaos runs
    /// terminate by recovery).
    ///
    /// The plan is a pure function of the RNG state, so the chaos harness
    /// reproduces any failing case from its seed alone.
    pub fn random(
        rng: &mut Rng,
        endpoints: &[EndpointId],
        validators: usize,
        start: SimTime,
        horizon: SimDuration,
        max_faults: usize,
    ) -> FaultPlan {
        let mut plan = FaultPlan::none();
        if max_faults == 0 || horizon == SimDuration::ZERO {
            return plan;
        }
        let n = rng.gen_range(max_faults as u64 + 1) as usize;
        for _ in 0..n {
            let from = start + SimDuration::from_nanos(rng.gen_range(horizon.as_nanos().max(1)));
            // Windows span 10%–43% of the horizon: long enough to hit
            // in-flight hops, short enough that recovery happens well
            // before the per-hop retry deadline.
            let len = horizon.as_nanos() / 10 + rng.gen_range(horizon.as_nanos() / 3 + 1);
            let until = from + SimDuration::from_nanos(len);
            let kind = rng.gen_range(4);
            plan = match kind {
                0 if !endpoints.is_empty() => plan.crash(*rng.choose(endpoints), from, until),
                1 if endpoints.len() >= 2 => match distinct_pair(rng, endpoints) {
                    Some((a, b)) => plan.partition(a, b, from, until),
                    None => plan,
                },
                2 if endpoints.len() >= 2 => {
                    let per_mille = 100 + rng.gen_range(600) as u16;
                    match distinct_pair(rng, endpoints) {
                        Some((a, b)) => plan.drop_window(a, b, from, until, per_mille),
                        None => plan,
                    }
                }
                3 if validators > 0 => {
                    plan.validator_stall(rng.gen_range(validators as u64) as usize, from, until)
                }
                _ => plan,
            };
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: EndpointId = EndpointId(0);
    const B: EndpointId = EndpointId(1);
    const C: EndpointId = EndpointId(2);

    #[test]
    fn crash_window_bounds_are_half_open() {
        let plan = FaultPlan::none().crash(A, SimTime::from_secs(10), SimTime::from_secs(20));
        assert!(!plan.is_crashed(A, SimTime::from_secs(9)));
        assert!(plan.is_crashed(A, SimTime::from_secs(10)));
        assert!(plan.is_crashed(A, SimTime::from_secs(19)));
        assert!(!plan.is_crashed(A, SimTime::from_secs(20)));
        assert!(!plan.is_crashed(B, SimTime::from_secs(15)));
    }

    #[test]
    fn permanent_crash_never_recovers() {
        let plan = FaultPlan::none().crash_forever(A, SimTime::from_secs(5));
        assert!(plan.is_crashed(A, SimTime::from_secs(1_000_000)));
    }

    #[test]
    fn partition_is_symmetric_and_windowed() {
        let plan = FaultPlan::none().partition(A, B, SimTime::from_secs(1), SimTime::from_secs(2));
        let t = SimTime::from_millis(1500);
        assert!(plan.is_partitioned(A, B, t));
        assert!(plan.is_partitioned(B, A, t));
        assert!(!plan.is_partitioned(A, C, t));
        assert!(!plan.is_partitioned(A, B, SimTime::from_secs(3)));
    }

    #[test]
    fn allows_combines_crash_and_partition() {
        let plan = FaultPlan::none()
            .crash(A, SimTime::from_secs(10), SimTime::from_secs(20))
            .partition(B, C, SimTime::from_secs(0), SimTime::from_secs(5));
        assert!(!plan.allows(A, B, SimTime::from_secs(15)), "A crashed");
        assert!(!plan.allows(B, A, SimTime::from_secs(15)), "target crashed");
        assert!(!plan.allows(B, C, SimTime::from_secs(3)), "partitioned");
        assert!(plan.allows(B, C, SimTime::from_secs(6)), "healed");
        assert!(plan.allows(A, B, SimTime::from_secs(25)), "recovered");
    }

    #[test]
    fn empty_plan_allows_everything() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert!(plan.allows(A, B, SimTime::ZERO));
    }

    #[test]
    fn multiple_overlapping_faults() {
        let plan = FaultPlan::none()
            .crash(A, SimTime::from_secs(0), SimTime::from_secs(10))
            .crash(A, SimTime::from_secs(5), SimTime::from_secs(15));
        assert!(plan.is_crashed(A, SimTime::from_secs(12)));
        assert_eq!(plan.faults().len(), 2);
    }

    #[test]
    fn next_clear_jumps_past_chained_windows() {
        let plan = FaultPlan::none()
            .crash(A, SimTime::from_secs(10), SimTime::from_secs(20))
            .partition(A, B, SimTime::from_secs(18), SimTime::from_secs(30))
            .crash(B, SimTime::from_secs(29), SimTime::from_secs(35));
        // Clear before any window.
        assert_eq!(
            plan.next_clear(A, B, SimTime::from_secs(5)),
            Some(SimTime::from_secs(5))
        );
        // Inside the chain: crash → partition → peer crash, clear at 35 s.
        assert_eq!(
            plan.next_clear(A, B, SimTime::from_secs(12)),
            Some(SimTime::from_secs(35))
        );
        // An uninvolved pair is never blocked.
        assert_eq!(
            plan.next_clear(A, C, SimTime::from_secs(12)),
            Some(SimTime::from_secs(20))
        );
    }

    #[test]
    fn next_clear_reports_permanent_blocks() {
        let plan = FaultPlan::none().crash_forever(A, SimTime::from_secs(5));
        assert_eq!(plan.next_clear(A, B, SimTime::from_secs(10)), None);
        assert_eq!(
            plan.next_clear(B, C, SimTime::from_secs(10)),
            Some(SimTime::from_secs(10))
        );
    }

    #[test]
    fn drop_windows_and_stalls_are_reported() {
        let plan = FaultPlan::none()
            .drop_window(A, B, SimTime::from_secs(1), SimTime::from_secs(9), 300)
            .drop_window(B, A, SimTime::from_secs(5), SimTime::from_secs(9), 500)
            .validator_stall(2, SimTime::from_secs(3), SimTime::from_secs(7));
        let t = SimTime::from_secs(6);
        assert_eq!(
            plan.lossy_at(t).get(&(A, B)),
            Some(&500),
            "max over overlapping windows"
        );
        assert_eq!(plan.stalled_at(t), BTreeSet::from([2]));
        // Drop windows never *block* the link.
        assert!(plan.allows(A, B, t));
        assert_eq!(plan.next_clear(A, B, t), Some(t));
    }

    #[test]
    fn boundaries_are_sorted_and_deduplicated() {
        let plan = FaultPlan::none()
            .crash(A, SimTime::from_secs(10), SimTime::from_secs(20))
            .partition(A, B, SimTime::from_secs(20), SimTime::from_secs(25))
            .crash_forever(B, SimTime::from_secs(10));
        assert_eq!(
            plan.boundaries(),
            vec![
                SimTime::from_secs(10),
                SimTime::from_secs(20),
                SimTime::from_secs(25)
            ],
            "MAX end of the permanent crash is omitted"
        );
    }

    #[test]
    fn random_plans_are_seeded_and_bounded() {
        let eps = [A, B, C];
        let start = SimTime::from_secs(10);
        let horizon = SimDuration::from_secs(60);
        let mut r1 = Rng::seed_from_u64(7);
        let mut r2 = Rng::seed_from_u64(7);
        let p1 = FaultPlan::random(&mut r1, &eps, 5, start, horizon, 6);
        let p2 = FaultPlan::random(&mut r2, &eps, 5, start, horizon, 6);
        assert_eq!(p1, p2, "same seed, same plan");
        for f in p1.faults() {
            let (from, until) = f.window();
            assert!(from >= start && from < start + horizon);
            assert!(until != SimTime::MAX, "no permanent faults in chaos plans");
            assert!(until > from);
        }
        // Different seeds explore different plans (overwhelmingly likely).
        let mut r3 = Rng::seed_from_u64(8);
        let p3 = FaultPlan::random(&mut r3, &eps, 5, start, horizon, 6);
        let mut r4 = Rng::seed_from_u64(9);
        let p4 = FaultPlan::random(&mut r4, &eps, 5, start, horizon, 6);
        assert!(p1 != p3 || p1 != p4, "seeds vary the plan");
    }
}
