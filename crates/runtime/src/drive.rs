//! The wall-clock drive loop.
//!
//! A [`Workload`] is a state machine with its own internal event queue
//! (the world's scheduler + obligation deadlines): it exposes the next
//! instant it needs to run (`next_due`), accepts admitted commands, and is
//! paced forward to the current instant. [`drive`] runs a workload on a
//! [`WallClock`] by mirroring `next_due` into a re-armable pace timer: the
//! calling thread blocks until each instant arrives, with scripted
//! admissions armed as timers and producer threads injecting more through
//! [`crate::WallHandle`]s.
//!
//! Graceful shutdown: a [`ShutdownSignal`] flips the loop into draining
//! mode — scripted admissions not yet delivered are withdrawn and new ones
//! rejected (both counted in [`DriveReport::rejected`]), in-flight work is
//! paced to completion under a bounded deadline, and the loop reports
//! whether the drain finished clean.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use duc_sim::{SimDuration, SimTime};

use crate::wall::{TimerId, Wakeup, WallClock};

/// Timer payload used by [`drive`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tick<C> {
    /// Admit one command into the workload.
    Admit(C),
    /// Pace the workload to the current instant (its `next_due` arrived,
    /// or the drain deadline expired).
    Pace,
    /// Flush a metrics snapshot.
    Export,
}

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
    /// Period of the export timer; `None` exports only on exit.
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
    /// delivered after it.
    pub rejected: u64,
    /// Total wakeups delivered.
    pub wakeups: u64,
    /// Metric exports flushed (including the final one).
    pub exports: u64,
    /// Logical instant the loop exited.
    pub finished_at: SimTime,
    /// True when the loop exited with nothing in flight (clean drain).
    pub drained: bool,
}

/// Runs `workload` on `clock` until idle (or until a requested shutdown
/// finishes draining). `script` is a set of pre-planned admissions at
/// absolute logical instants; further commands may arrive through
/// [`crate::WallHandle`] injection. Every scripted admission ends up
/// admitted or rejected.
pub fn drive<W>(
    clock: &mut WallClock<Tick<W::Cmd>>,
    workload: &mut W,
    script: Vec<(SimTime, W::Cmd)>,
    shutdown: &ShutdownSignal,
    config: &DriveConfig,
) -> DriveReport
where
    W: Workload,
    W::Cmd: Clone + Send + 'static,
{
    let mut report = DriveReport::default();
    let mut admissions_pending = script.len();
    let mut scripted: Vec<TimerId> = script
        .into_iter()
        .map(|(at, cmd)| clock.arm(at, Tick::Admit(cmd)))
        .collect();
    let export_timer = config
        .export_every
        .map(|period| clock.arm_periodic(clock.now(), period, Tick::Export));
    // The pace timer mirrors the workload's next internal due instant.
    let mut pace_timer: Option<(TimerId, SimTime)> = None;
    let mut draining = false;
    let mut drain_deadline: Option<(TimerId, SimTime)> = None;

    loop {
        if shutdown.is_requested() && !draining {
            draining = true;
            // Scripted admissions not yet delivered are withdrawn and
            // rejected; anything already injected still sits in the queue
            // and is rejected on arrival.
            for id in scripted.drain(..) {
                if clock.cancel(id) {
                    report.rejected += 1;
                }
            }
            let deadline = clock.now() + config.drain_grace;
            drain_deadline = Some((clock.arm(deadline, Tick::Pace), deadline));
        }

        // Anything already delivered is consumed before an exit is even
        // considered — queued admissions are admitted (or rejected while
        // draining), never silently dropped.
        let delivered = clock.try_wait();
        let Wakeup { id, payload, .. } = match delivered {
            Some(w) => w,
            None => {
                if draining {
                    let expired = drain_deadline.is_some_and(|(_, at)| clock.now() >= at);
                    // A drain waits for live producers too (bounded by the
                    // grace deadline): a handle still held means more
                    // injections may arrive and deserve a rejection.
                    if expired || (workload.in_flight() == 0 && !clock.has_external()) {
                        report.drained = workload.in_flight() == 0;
                        break;
                    }
                } else if workload.in_flight() == 0
                    && admissions_pending == 0
                    && !clock.has_external()
                {
                    // Idle with no planned or external work left. Mirrors
                    // the sim driver's run_until_idle: don't drag the clock
                    // toward far-future periodic timers.
                    report.drained = true;
                    break;
                }

                // Mirror next_due into the pace timer (re-arm on change).
                let due = workload.next_due();
                match (due, pace_timer) {
                    (Some(at), Some((id, current))) if at != current => {
                        pace_timer = if clock.rearm(id, at) {
                            Some((id, at))
                        } else {
                            Some((clock.arm(at, Tick::Pace), at))
                        };
                    }
                    (Some(at), None) => pace_timer = Some((clock.arm(at, Tick::Pace), at)),
                    (None, Some((id, _))) => {
                        clock.cancel(id);
                        pace_timer = None;
                    }
                    _ => {}
                }

                let Some(w) = clock.wait() else {
                    report.drained = workload.in_flight() == 0;
                    break;
                };
                w
            }
        };
        report.wakeups += 1;
        if pace_timer.is_some_and(|(pid, _)| pid == id) {
            pace_timer = None; // consumed by delivery
        }
        match payload {
            Tick::Admit(cmd) => {
                admissions_pending = admissions_pending.saturating_sub(1);
                // Re-check the signal at admission time: the request may
                // have landed while this wakeup was being waited on, before
                // the loop head could flip into draining.
                if draining || shutdown.is_requested() {
                    report.rejected += 1;
                } else {
                    workload.admit(cmd);
                    report.admitted += 1;
                    workload.pace(clock.now());
                }
            }
            Tick::Pace => workload.pace(clock.now()),
            Tick::Export => {
                workload.export();
                report.exports += 1;
            }
        }
    }

    // Account for wakeups delivered after the exit decision (a drain
    // deadline can expire with injections still queued): admissions are
    // rejected, stray pace/export ticks dropped.
    while let Some(w) = clock.try_wait() {
        if matches!(w.payload, Tick::Admit(_)) {
            report.wakeups += 1;
            report.rejected += 1;
        }
    }
    if let Some((id, _)) = pace_timer {
        clock.cancel(id);
    }
    if let Some(id) = export_timer {
        clock.cancel(id);
    }
    if let Some((id, _)) = drain_deadline {
        clock.cancel(id);
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
    fn fast_clock() -> WallClock<Tick<u32>> {
        WallClock::with_scale(SimTime::ZERO, 1000)
    }

    /// Toy workload: each admitted job completes a fixed latency later.
    struct Jobs {
        latency: SimDuration,
        done: Vec<u32>,
        pending: Vec<(SimTime, u32)>,
        /// Requests this shutdown when admitting the given command.
        shutdown_on: Option<(u32, ShutdownSignal)>,
    }

    impl Jobs {
        fn new(latency_ms: u64) -> Self {
            Jobs {
                latency: SimDuration::from_millis(latency_ms),
                done: Vec::new(),
                pending: Vec::new(),
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
    /// admitted at 10–50 ms, done 5 ms later, every helper timer gone.
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
        assert_eq!(clock.armed(), 0, "all helper timers cleaned up");
    }

    /// A shutdown requested mid-script withdraws the scripted admissions
    /// not yet delivered: each is counted as rejected, and none is left
    /// armed on the clock.
    #[test]
    fn shutdown_rejects_withdrawn_scripted_admissions() {
        let mut clock: WallClock<Tick<u32>> = WallClock::with_scale(SimTime::ZERO, 10);
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
        assert_eq!(clock.armed(), 0, "withdrawn admissions left armed");
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
}
