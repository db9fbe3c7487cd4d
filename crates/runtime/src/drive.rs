//! The wall-clock drive loop.
//!
//! A [`Workload`] is a state machine with its own internal event queue
//! (the world's scheduler + obligation deadlines): it exposes the next
//! instant it needs to run (`next_due`), accepts admitted commands, and is
//! paced forward to the current instant. [`drive`] runs a workload on a
//! [`WallClock`]: each turn admits the scripted commands now due and the
//! ones producer threads injected through [`crate::WallHandle`]s, paces
//! the workload to now and exports on its grid, then sleeps until the
//! earliest instant it needs next — a script entry, `next_due`, an export
//! point or the drain deadline — or until an injection wakes it.
//!
//! Graceful shutdown: a [`ShutdownSignal`] flips the loop into draining
//! mode — scripted admissions not yet admitted are withdrawn and new ones
//! rejected (both counted in [`DriveReport::rejected`]), in-flight work is
//! paced to completion under a bounded deadline, and the loop reports
//! whether the drain finished clean.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use duc_sim::{SimDuration, SimTime};

use crate::wall::WallClock;

/// Cooperative shutdown flag, shareable across threads.
#[derive(Debug, Clone, Default)]
pub struct ShutdownSignal(Arc<AtomicBool>);

impl ShutdownSignal {
    /// Creates an un-triggered signal.
    pub fn new() -> Self {
        ShutdownSignal::default()
    }

    /// Requests shutdown (idempotent).
    pub fn request(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been requested.
    pub(crate) fn is_requested(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// A drivable state machine with an internal logical-time event queue.
pub trait Workload {
    /// Command type admitted into the workload.
    type Cmd;

    /// Admits one command at the current instant.
    fn admit(&mut self, cmd: Self::Cmd);

    /// Paces internal machinery up to `now` (fires due internal events).
    fn pace(&mut self, now: SimTime);

    /// The next instant internal machinery needs to run, if any.
    fn next_due(&mut self) -> Option<SimTime>;

    /// Number of admitted commands not yet finished.
    fn in_flight(&self) -> usize;

    /// Flushes metrics (periodic exports and the final flush).
    fn export(&mut self) {}
}

/// Tuning for [`drive`].
#[derive(Debug, Clone)]
pub struct DriveConfig {
    /// Export period, on the grid `start + k·period`; `None` exports only
    /// on exit.
    pub export_every: Option<SimDuration>,
    /// Logical grace period for draining in-flight work after shutdown.
    pub drain_grace: SimDuration,
}

impl Default for DriveConfig {
    fn default() -> Self {
        DriveConfig {
            export_every: None,
            drain_grace: SimDuration::from_secs(30),
        }
    }
}

/// What happened during a [`drive`] run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DriveReport {
    /// Commands admitted into the workload.
    pub admitted: u64,
    /// Commands rejected because the loop was draining: scripted
    /// admissions withdrawn when the drain began, plus every admission
    /// that arrived after it.
    pub rejected: u64,
    /// Metric exports flushed (including the final one).
    pub exports: u64,
    /// Logical instant the loop exited.
    pub finished_at: SimTime,
    /// True when the loop exited with nothing in flight (clean drain).
    pub drained: bool,
}

/// Runs `workload` on `clock` until idle (or until a requested shutdown
/// finishes draining). `script` is a set of pre-planned admissions at
/// absolute logical instants, admitted in instant order (script order
/// within an instant) and never before their instant; further commands
/// may arrive through [`crate::WallHandle`] injection. Every scripted and
/// injected admission the loop sees ends up admitted or rejected.
pub fn drive<W: Workload>(
    clock: &mut WallClock<W::Cmd>,
    workload: &mut W,
    mut script: Vec<(SimTime, W::Cmd)>,
    shutdown: &ShutdownSignal,
    config: &DriveConfig,
) -> DriveReport {
    script.sort_by_key(|&(at, _)| at);
    let mut script = VecDeque::from(script);
    let mut report = DriveReport::default();
    let start = clock.now();
    let mut next_export = config.export_every.map(|_| start);
    let mut drain_deadline: Option<SimTime> = None;
    let mut woken_by: Option<W::Cmd> = None;

    loop {
        let now = clock.now();
        if drain_deadline.is_none() && shutdown.is_requested() {
            // Scripted admissions not yet admitted are withdrawn and
            // rejected; injected ones are rejected as they arrive.
            report.rejected += script.len() as u64;
            script.clear();
            drain_deadline = Some(now + config.drain_grace);
        }

        let mut due = Vec::new();
        while script.front().is_some_and(|&(at, _)| at <= now) {
            due.extend(script.pop_front().map(|(_, cmd)| cmd));
        }
        due.extend(woken_by.take());
        due.extend(std::iter::from_fn(|| clock.try_recv()));
        for cmd in due {
            // Re-check the signal per admission: admitting one command
            // may itself request the shutdown.
            if drain_deadline.is_some() || shutdown.is_requested() {
                report.rejected += 1;
            } else {
                workload.admit(cmd);
                report.admitted += 1;
            }
        }
        workload.pace(now);
        if let (Some(at), Some(period)) = (next_export, config.export_every) {
            if at <= now {
                workload.export();
                report.exports += 1;
                // Skip missed grid points: the next export is the first
                // one still in the future, never a burst of stale ones.
                let k = now.saturating_since(start).as_nanos() / period.as_nanos().max(1) + 1;
                next_export = Some(start + period.saturating_mul(k));
            }
        }

        // Idle with no planned or injectable work left (a drain has no
        // script), or the drain ran out of grace. Mirrors the sim driver's
        // run_until_idle: the clock is not dragged toward far-future dues.
        let idle = workload.in_flight() == 0 && script.is_empty() && !clock.open();
        if idle || drain_deadline.is_some_and(|at| now >= at) {
            report.drained = workload.in_flight() == 0;
            break;
        }
        let wake_at = [
            script.front().map(|&(at, _)| at),
            workload.next_due(),
            next_export,
            drain_deadline,
        ]
        .into_iter()
        .flatten()
        .min();
        woken_by = clock.recv_until(wake_at);
    }

    // Injections that arrived after the exit decision (a drain deadline
    // can expire with injections still queued) are rejected, never lost.
    while clock.try_recv().is_some() {
        report.rejected += 1;
    }
    workload.pace(clock.now());
    workload.export();
    report.exports += 1;
    report.finished_at = clock.now();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// High-compression clock: 1 real µs = 1 logical ms.
    fn fast_clock() -> WallClock<u32> {
        WallClock::with_scale(SimTime::ZERO, 1000)
    }

    /// Toy workload: each admitted job completes a fixed latency later.
    struct Jobs {
        latency: SimDuration,
        done: Vec<u32>,
        pending: Vec<(SimTime, u32)>,
        /// Every admission with the instant of the pace that stamped it,
        /// in admission order.
        stamped: Vec<(SimTime, u32)>,
        /// Requests this shutdown when admitting the given command.
        shutdown_on: Option<(u32, ShutdownSignal)>,
    }

    impl Jobs {
        fn new(latency_ms: u64) -> Self {
            Jobs {
                latency: SimDuration::from_millis(latency_ms),
                done: Vec::new(),
                pending: Vec::new(),
                stamped: Vec::new(),
                shutdown_on: None,
            }
        }
    }

    impl Workload for Jobs {
        type Cmd = u32;

        fn admit(&mut self, cmd: u32) {
            if let Some((at, shutdown)) = &self.shutdown_on {
                if cmd == *at {
                    shutdown.request();
                }
            }
            // Completion is latency after admission; the admission instant
            // is stamped by the pace call that follows every admit.
            self.pending.push((SimTime::MAX, cmd));
        }

        fn pace(&mut self, now: SimTime) {
            for entry in &mut self.pending {
                if entry.0 == SimTime::MAX {
                    entry.0 = now + self.latency;
                    self.stamped.push((now, entry.1));
                }
            }
            let (done, still): (Vec<_>, Vec<_>) =
                self.pending.drain(..).partition(|&(at, _)| at <= now);
            self.done.extend(done.into_iter().map(|(_, c)| c));
            self.pending = still;
        }

        fn next_due(&mut self) -> Option<SimTime> {
            self.pending.iter().map(|&(at, _)| at).min()
        }

        fn in_flight(&self) -> usize {
            self.pending.len()
        }
    }

    fn script() -> Vec<(SimTime, u32)> {
        (0..5u32)
            .map(|i| (SimTime::from_millis(10 * (i as u64 + 1)), i))
            .collect()
    }

    /// The outcomes and end instant the schedule implies: five jobs
    /// admitted at 10–50 ms, done 5 ms later.
    #[test]
    fn wall_drive_matches_sim_outcomes() {
        let mut clock = fast_clock();
        let mut jobs = Jobs::new(5);
        let shutdown = ShutdownSignal::new();
        let report = drive(
            &mut clock,
            &mut jobs,
            script(),
            &shutdown,
            &DriveConfig::default(),
        );
        assert_eq!(report.admitted, 5);
        assert_eq!(jobs.done, vec![0, 1, 2, 3, 4]);
        assert!(report.drained);
        assert!(report.finished_at >= SimTime::from_millis(55));
    }

    /// A shutdown requested mid-script withdraws the scripted admissions
    /// not yet admitted: each is counted as rejected.
    #[test]
    fn shutdown_rejects_withdrawn_scripted_admissions() {
        let mut clock: WallClock<u32> = WallClock::with_scale(SimTime::ZERO, 10);
        let mut jobs = Jobs::new(5);
        let shutdown = ShutdownSignal::new();
        jobs.shutdown_on = Some((1, shutdown.clone()));
        let report = drive(
            &mut clock,
            &mut jobs,
            script(),
            &shutdown,
            &DriveConfig::default(),
        );
        assert_eq!((report.admitted, report.rejected), (2, 3));
        assert_eq!(jobs.done, vec![0, 1]);
        assert!(report.drained);
    }

    #[test]
    fn pre_requested_shutdown_rejects_all_admissions() {
        let mut clock = fast_clock();
        let mut jobs = Jobs::new(5);
        let shutdown = ShutdownSignal::new();
        shutdown.request();
        let report = drive(
            &mut clock,
            &mut jobs,
            script(),
            &shutdown,
            &DriveConfig::default(),
        );
        assert_eq!((report.admitted, report.rejected), (0, 5));
        assert!(jobs.done.is_empty());
        assert!(report.drained, "nothing in flight: clean drain");
    }

    #[test]
    fn export_timer_flushes_periodically_and_on_exit() {
        let mut clock = fast_clock();
        let mut jobs = Jobs::new(5);
        let shutdown = ShutdownSignal::new();
        let config = DriveConfig {
            export_every: Some(SimDuration::from_millis(20)),
            ..DriveConfig::default()
        };
        let report = drive(&mut clock, &mut jobs, script(), &shutdown, &config);
        assert!(report.exports >= 2, "periodic + final: {}", report.exports);
        assert_eq!(jobs.done.len(), 5);
    }

    /// Injected commands are admitted beside the script, never in place of
    /// it: two injections from a producer that hangs up at once leave both
    /// scripted commands (10 and 20 logical seconds out) to be admitted at
    /// their instants.
    #[test]
    fn injected_admissions_do_not_consume_scripted_ones() {
        let mut clock = fast_clock();
        let handle = clock.handle();
        handle.inject(100);
        handle.inject(101);
        drop(handle);
        let mut jobs = Jobs::new(5);
        let script = vec![(SimTime::from_secs(10), 0), (SimTime::from_secs(20), 1)];
        let report = drive(
            &mut clock,
            &mut jobs,
            script,
            &ShutdownSignal::new(),
            &DriveConfig::default(),
        );
        assert_eq!(report.admitted + report.rejected, 4, "{report:?}");
        assert!(report.finished_at >= SimTime::from_secs(20), "{report:?}");
        assert!(report.drained);
    }

    /// Script entries sharing an instant are admitted in script order,
    /// after every entry due earlier, and none before its instant (2 and 4
    /// logical seconds: milliseconds of real time after the loop starts,
    /// so no entry is already due when it begins): each
    /// admission is stamped by the pace that follows it, never earlier
    /// than the entry's scripted instant.
    #[test]
    fn same_instant_script_entries_admit_in_order_and_never_early() {
        let mut clock = fast_clock();
        let mut jobs = Jobs::new(5);
        let shutdown = ShutdownSignal::new();
        let at = |ms: u64| SimTime::from_millis(ms);
        let script = vec![
            (at(4_000), 0),
            (at(2_000), 1),
            (at(4_000), 2),
            (at(2_000), 3),
            (at(4_000), 4),
            (at(2_000), 5),
        ];
        let report = drive(
            &mut clock,
            &mut jobs,
            script.clone(),
            &shutdown,
            &DriveConfig::default(),
        );
        assert_eq!(report.admitted, 6);
        let order: Vec<u32> = jobs.stamped.iter().map(|&(_, c)| c).collect();
        assert_eq!(order, vec![1, 3, 5, 0, 2, 4]);
        for (stamp, cmd) in &jobs.stamped {
            let due = script.iter().find(|(_, c)| c == cmd).expect("scripted").0;
            assert!(
                *stamp >= due,
                "command {cmd} admitted at {stamp}, due {due}"
            );
        }
    }

    /// A workload that stays busy for a fixed number of paces, each
    /// stalling the loop for 20 real ms, and counts the exports that land
    /// between consecutive paces.
    struct Stalling {
        paces_left: u32,
        last_pace: SimTime,
        exports_since_pace: u32,
        /// Exports seen between each pace and the previous one.
        exports_per_pace: Vec<u32>,
    }

    impl Workload for Stalling {
        type Cmd = u32;

        fn admit(&mut self, _: u32) {}

        fn pace(&mut self, now: SimTime) {
            self.exports_per_pace.push(self.exports_since_pace);
            self.exports_since_pace = 0;
            if self.paces_left > 0 {
                self.paces_left -= 1;
                self.last_pace = now;
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        }

        fn next_due(&mut self) -> Option<SimTime> {
            (self.paces_left > 0).then(|| self.last_pace + SimDuration::from_millis(1))
        }

        fn in_flight(&self) -> usize {
            self.paces_left as usize
        }

        fn export(&mut self) {
            self.exports_since_pace += 1;
        }
    }

    /// Real time (scale 1) with a 1 ms export period while every pace
    /// stalls 20 ms: each stall misses about 20 grid points, and none of
    /// them is replayed. The loop exports at most once per turn, so no
    /// more than two exports separate consecutive paces, and the final
    /// flush is the only export after the last one.
    #[test]
    fn stalled_loop_skips_missed_export_points() {
        let mut clock = WallClock::with_scale(SimTime::ZERO, 1);
        let mut work = Stalling {
            paces_left: 8,
            last_pace: SimTime::ZERO,
            exports_since_pace: 0,
            exports_per_pace: Vec::new(),
        };
        let config = DriveConfig {
            export_every: Some(SimDuration::from_millis(1)),
            ..DriveConfig::default()
        };
        let report = drive(
            &mut clock,
            &mut work,
            Vec::new(),
            &ShutdownSignal::new(),
            &config,
        );
        assert!(report.drained);
        assert!(
            work.exports_per_pace.iter().all(|&n| n <= 2),
            "a burst of missed export points: {:?}",
            work.exports_per_pace
        );
        assert_eq!(
            work.exports_since_pace, 1,
            "only the final flush after the last pace"
        );
        let total: u64 = work
            .exports_per_pace
            .iter()
            .map(|&n| u64::from(n))
            .sum::<u64>()
            + 1;
        assert_eq!(report.exports, total);
        assert!(
            report.exports <= 2 * 8 + 4,
            "{} exports over 8 stalled paces",
            report.exports
        );
    }
}
