//! The clock abstraction shared by both execution modes.
//!
//! A [`Clock`] owns a set of armed timers — one-shot and genesis-anchored
//! periodic — and delivers them as [`Wakeup`]s from [`Clock::wait`]. The
//! deterministic [`SimClock`] wraps the discrete-event
//! [`duc_sim::Scheduler`] and advances logical time to each due instant;
//! the wall-clock implementation ([`crate::WallClock`]) blocks a real
//! thread instead. State machines built on this trait (the paced drive
//! loop, the obligation sweeps) run identically in both modes because they
//! only ever observe logical [`SimTime`] instants.
//!
//! Timers carry an owned payload rather than a callback so the wall-clock
//! implementation can move them across its timer thread.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use duc_sim::{EventId, Scheduler, SimDuration, SimTime};

/// Identifies an armed timer so it can be cancelled or re-armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerId(pub(crate) u64);

/// A delivered timer firing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Wakeup<T> {
    /// The timer that fired.
    pub id: TimerId,
    /// The logical instant the timer was due. Equal across execution
    /// modes for the same schedule; equivalence tests compare on this.
    pub due: SimTime,
    /// The logical instant at which the firing was observed. In sim mode
    /// this equals `due`; under a wall clock it may lag behind.
    pub at: SimTime,
    /// The payload supplied when the timer was armed.
    pub payload: T,
}

/// How a timer re-arms after firing.
#[derive(Debug, Clone)]
pub(crate) enum Arming<T> {
    Once(T),
    Periodic {
        anchor: SimTime,
        period: SimDuration,
        payload: T,
    },
}

/// The smallest tick `anchor + k·period` with `tick >= not_before`.
pub(crate) fn tick_at_or_after(
    anchor: SimTime,
    period: SimDuration,
    not_before: SimTime,
) -> SimTime {
    if not_before <= anchor {
        return anchor;
    }
    let elapsed = not_before.saturating_since(anchor).as_nanos();
    let p = period.as_nanos().max(1);
    let k = elapsed / p + u64::from(!elapsed.is_multiple_of(p));
    anchor + period.saturating_mul(k)
}

/// The smallest tick `anchor + k·period` strictly after `after`.
///
/// This is the skip-missed-tick rule: when firings fall behind (a wall
/// clock under load), the next firing is the first grid point still in the
/// future — intermediate ticks are dropped, never replayed in a burst.
pub(crate) fn tick_after(anchor: SimTime, period: SimDuration, after: SimTime) -> SimTime {
    if after < anchor {
        return anchor;
    }
    let elapsed = after.saturating_since(anchor).as_nanos();
    let p = period.as_nanos().max(1);
    anchor + period.saturating_mul(elapsed / p + 1)
}

/// Timer surface shared by the sim and wall execution modes.
///
/// Semantics both implementations uphold (the equivalence suite in
/// `tests/equivalence.rs` checks them against each other):
///
/// - timers never fire logically early: `wakeup.at >= wakeup.due`;
/// - one-shot timers fire exactly once unless cancelled first;
/// - [`Clock::cancel`] suppresses any not-yet-delivered firing, even one
///   already past its due instant;
/// - [`Clock::rearm`] moves a timer without losing or duplicating it;
/// - periodic timers fire on the genesis-anchored grid
///   `anchor + k·period`, skipping missed grid points.
pub trait Clock<T> {
    /// The current logical instant.
    fn now(&self) -> SimTime;

    /// Arms a one-shot timer at absolute logical time `at` (clamped to
    /// `now()`; timers never fire in the past).
    fn arm(&mut self, at: SimTime, payload: T) -> TimerId;

    /// Arms a periodic timer on the grid `anchor + k·period`, first firing
    /// at the earliest grid point `>= max(anchor, now())`.
    fn arm_periodic(&mut self, anchor: SimTime, period: SimDuration, payload: T) -> TimerId
    where
        T: Clone;

    /// Cancels a timer. Returns `true` if an armed timer (or an undelivered
    /// firing) was suppressed; cancelling an unknown or already-delivered
    /// one-shot timer returns `false`.
    fn cancel(&mut self, id: TimerId) -> bool;

    /// Moves an armed timer to fire at `at` instead (re-anchoring a
    /// periodic timer's grid there), keeping its id and payload. Any
    /// undelivered firing of the old schedule is suppressed. Returns
    /// `false` if the timer is no longer armed.
    fn rearm(&mut self, id: TimerId, at: SimTime) -> bool;

    /// Number of currently armed timers.
    fn armed(&self) -> usize;

    /// Whether wakeups may still arrive from outside the armed set (live
    /// injector handles in wall mode). Drive loops keep waiting while this
    /// holds even with no armed timers.
    fn has_external(&self) -> bool {
        false
    }

    /// Delivers the next wakeup, advancing logical time (sim) or blocking
    /// the calling thread (wall) until it is due. Returns `None` when no
    /// timer is armed, nothing is queued, and no external source remains.
    fn wait(&mut self) -> Option<Wakeup<T>>;

    /// Delivers a wakeup that has already fired, without blocking or
    /// advancing logical time — `None` when nothing is queued, even if
    /// timers are still armed. Drive loops drain this on exit so queued
    /// work is accounted (rejected) rather than silently dropped.
    fn try_wait(&mut self) -> Option<Wakeup<T>>;
}

struct SimTimer<T> {
    event: EventId,
    due: SimTime,
    arming: Arming<T>,
}

/// Deterministic [`Clock`] over the discrete-event [`Scheduler`].
///
/// `wait()` hops the shared simulation clock from due instant to due
/// instant via `next_event_at` / `run_until` — byte-identical scheduler
/// behaviour, just surfaced as payloads instead of callbacks. Other
/// simulation components may share the same underlying [`duc_sim::Clock`].
pub struct SimClock<T> {
    sched: Scheduler,
    /// (timer id, due instant) pairs pushed by fired scheduler events,
    /// drained in firing order by `wait()`.
    fired: Rc<RefCell<VecDeque<(u64, SimTime)>>>,
    timers: HashMap<u64, SimTimer<T>>,
    next_id: u64,
}

impl<T> SimClock<T> {
    /// Creates a sim clock over a fresh scheduler on `clock`.
    pub fn new(clock: duc_sim::Clock) -> Self {
        SimClock {
            sched: Scheduler::new(clock),
            fired: Rc::new(RefCell::new(VecDeque::new())),
            timers: HashMap::new(),
            next_id: 0,
        }
    }

    fn schedule(&mut self, id: u64, at: SimTime) -> EventId {
        let fired = Rc::clone(&self.fired);
        self.sched
            .schedule_at(at, move |_| fired.borrow_mut().push_back((id, at)))
    }
}

impl<T: Clone> Clock<T> for SimClock<T> {
    fn now(&self) -> SimTime {
        self.sched.clock().now()
    }

    fn arm(&mut self, at: SimTime, payload: T) -> TimerId {
        let at = at.max(self.now());
        let id = self.next_id;
        self.next_id += 1;
        let event = self.schedule(id, at);
        self.timers.insert(
            id,
            SimTimer {
                event,
                due: at,
                arming: Arming::Once(payload),
            },
        );
        TimerId(id)
    }

    fn arm_periodic(&mut self, anchor: SimTime, period: SimDuration, payload: T) -> TimerId
    where
        T: Clone,
    {
        let due = tick_at_or_after(anchor, period, self.now());
        let id = self.next_id;
        self.next_id += 1;
        let event = self.schedule(id, due);
        self.timers.insert(
            id,
            SimTimer {
                event,
                due,
                arming: Arming::Periodic {
                    anchor,
                    period,
                    payload,
                },
            },
        );
        TimerId(id)
    }

    fn cancel(&mut self, id: TimerId) -> bool {
        match self.timers.remove(&id.0) {
            Some(t) => {
                self.sched.cancel(t.event);
                self.fired.borrow_mut().retain(|&(qid, _)| qid != id.0);
                true
            }
            None => false,
        }
    }

    fn rearm(&mut self, id: TimerId, at: SimTime) -> bool {
        let at = at.max(self.now());
        let Some(mut timer) = self.timers.remove(&id.0) else {
            return false;
        };
        self.sched.cancel(timer.event);
        self.fired.borrow_mut().retain(|&(qid, _)| qid != id.0);
        timer.due = at;
        if let Arming::Periodic { anchor, .. } = &mut timer.arming {
            *anchor = at;
        }
        timer.event = self.schedule(id.0, at);
        self.timers.insert(id.0, timer);
        true
    }

    fn armed(&self) -> usize {
        self.timers.len()
    }

    fn wait(&mut self) -> Option<Wakeup<T>> {
        loop {
            if let Some(w) = self.try_wait() {
                return Some(w);
            }
            let at = self.sched.next_event_at()?;
            self.sched.run_until(at);
        }
    }

    fn try_wait(&mut self) -> Option<Wakeup<T>> {
        let (id, due) = self.fired.borrow_mut().pop_front()?;
        let now = self.now();
        let timer = self
            .timers
            .get_mut(&id)
            .expect("fired timers stay armed until delivery");
        match &timer.arming {
            Arming::Once(_) => {
                let timer = self.timers.remove(&id).expect("present above");
                let Arming::Once(payload) = timer.arming else {
                    unreachable!("matched Once above")
                };
                Some(Wakeup {
                    id: TimerId(id),
                    due,
                    at: now,
                    payload,
                })
            }
            Arming::Periodic {
                anchor,
                period,
                payload,
            } => {
                let payload = payload.clone();
                let next = tick_after(*anchor, *period, due.max(now));
                timer.due = next;
                timer.event = {
                    // Inline `schedule` to sidestep the &mut borrow
                    // of the timer entry.
                    let fired = Rc::clone(&self.fired);
                    self.sched
                        .schedule_at(next, move |_| fired.borrow_mut().push_back((id, next)))
                };
                Some(Wakeup {
                    id: TimerId(id),
                    due,
                    at: now,
                    payload,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn tick_grid_math() {
        let p = SimDuration::from_millis(10);
        assert_eq!(tick_at_or_after(ms(100), p, ms(50)), ms(100));
        assert_eq!(tick_at_or_after(ms(100), p, ms(100)), ms(100));
        assert_eq!(tick_at_or_after(ms(100), p, ms(101)), ms(110));
        assert_eq!(tick_at_or_after(ms(100), p, ms(110)), ms(110));
        assert_eq!(tick_after(ms(100), p, ms(50)), ms(100));
        assert_eq!(tick_after(ms(100), p, ms(100)), ms(110));
        assert_eq!(tick_after(ms(100), p, ms(119)), ms(120));
        assert_eq!(tick_after(ms(100), p, ms(120)), ms(130));
    }

    #[test]
    fn one_shot_fires_once_at_due_instant() {
        let mut c: SimClock<&str> = SimClock::new(duc_sim::Clock::new());
        c.arm(ms(5), "a");
        c.arm(ms(3), "b");
        let w = c.wait().unwrap();
        assert_eq!((w.due, w.at, w.payload), (ms(3), ms(3), "b"));
        let w = c.wait().unwrap();
        assert_eq!((w.due, w.at, w.payload), (ms(5), ms(5), "a"));
        assert!(c.wait().is_none());
        assert_eq!(c.armed(), 0);
    }

    #[test]
    fn cancel_suppresses_and_reports() {
        let mut c: SimClock<u32> = SimClock::new(duc_sim::Clock::new());
        let id = c.arm(ms(5), 1);
        assert!(c.cancel(id));
        assert!(!c.cancel(id));
        assert!(c.wait().is_none());
    }

    #[test]
    fn periodic_fires_on_grid_and_rearm_reanchors() {
        let mut c: SimClock<&str> = SimClock::new(duc_sim::Clock::new());
        let id = c.arm_periodic(ms(10), SimDuration::from_millis(10), "tick");
        let dues: Vec<u64> = (0..3).map(|_| c.wait().unwrap().due.as_millis()).collect();
        assert_eq!(dues, vec![10, 20, 30]);
        assert!(c.rearm(id, ms(45)));
        let dues: Vec<u64> = (0..2).map(|_| c.wait().unwrap().due.as_millis()).collect();
        assert_eq!(dues, vec![45, 55]);
        assert!(c.cancel(id));
        assert!(c.wait().is_none());
    }

    #[test]
    fn rearm_moves_one_shot_without_duplicate() {
        let mut c: SimClock<&str> = SimClock::new(duc_sim::Clock::new());
        let id = c.arm(ms(5), "x");
        assert!(c.rearm(id, ms(9)));
        let w = c.wait().unwrap();
        assert_eq!((w.id, w.due), (id, ms(9)));
        assert!(c.wait().is_none());
    }

    #[test]
    fn past_arm_clamps_to_now() {
        let mut c: SimClock<&str> = SimClock::new(duc_sim::Clock::new());
        c.arm(ms(10), "first");
        c.wait().unwrap();
        let id = c.arm(ms(2), "late");
        let w = c.wait().unwrap();
        assert_eq!((w.id, w.due), (id, ms(10)));
    }
}
