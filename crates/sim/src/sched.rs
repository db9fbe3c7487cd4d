//! Discrete-event scheduler.
//!
//! The world's timed wakeups — a machine waiting out a hop's latency or
//! backoff, the inclusion wait-set's slot tick, an obligation's deadline, a
//! fault window's edge — are events on a [`Scheduler`]; the chain seals its
//! blocks itself as the world advances it. Events fire in timestamp order;
//! ties break by insertion order so runs are fully deterministic.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::clock::{Clock, SimTime};

/// Identifies a scheduled event so it can be cancelled.
///
/// A slot in the scheduler's table of queued events plus the slot's
/// generation at scheduling time: the slot is recycled once the event
/// fires or its cancelled entry is discarded, so a stale id — fired,
/// cancelled-and-discarded — no longer matches and cancelling it does
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId {
    slot: u32,
    generation: u32,
}

/// The cancellation state of one queued event.
#[derive(Default)]
struct Slot {
    generation: u32,
    cancelled: bool,
}

struct Entry {
    at: SimTime,
    seq: u64,
    id: EventId,
    /// Called with the instant it fires at.
    callback: Box<dyn FnOnce(SimTime)>,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A deterministic discrete-event scheduler bound to a [`Clock`].
///
/// # Example
/// ```
/// use duc_sim::{Clock, Scheduler, SimDuration, SimTime};
/// use std::{cell::RefCell, rc::Rc};
///
/// let clock = Clock::new();
/// let mut sched = Scheduler::new(clock.clone());
/// let fired = Rc::new(RefCell::new(Vec::new()));
/// let f = fired.clone();
/// sched.schedule_at(SimTime::from_millis(10), move |_| f.borrow_mut().push(10));
/// let f = fired.clone();
/// sched.schedule_at(SimTime::from_millis(5), move |_| f.borrow_mut().push(5));
/// sched.run_until(SimTime::from_millis(20));
/// assert_eq!(*fired.borrow(), vec![5, 10]);
/// assert_eq!(clock.now().as_millis(), 20);
/// ```
pub struct Scheduler {
    clock: Clock,
    heap: BinaryHeap<Reverse<Entry>>,
    /// One slot per queued entry (live or cancelled), recycled through
    /// `free_slots`: the table is bounded by the peak queue length.
    slots: Vec<Slot>,
    free_slots: Vec<u32>,
    /// Queued entries marked cancelled and not yet discarded.
    cancelled: usize,
    next_seq: u64,
    executed: u64,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("pending", &self.heap.len())
            .field("executed", &self.executed)
            .field("now", &self.clock.now())
            .finish()
    }
}

impl Scheduler {
    /// Creates a scheduler that drives the given clock.
    pub fn new(clock: Clock) -> Self {
        Scheduler {
            clock,
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free_slots: Vec::new(),
            cancelled: 0,
            next_seq: 0,
            executed: 0,
        }
    }

    /// The clock this scheduler advances.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.heap.len() - self.cancelled
    }

    /// Recycles the slot of an entry that just left the queue; returns
    /// whether the entry had been cancelled.
    fn release(&mut self, id: EventId) -> bool {
        let slot = &mut self.slots[id.slot as usize];
        let cancelled = std::mem::take(&mut slot.cancelled);
        slot.generation = slot.generation.wrapping_add(1);
        self.free_slots.push(id.slot);
        if cancelled {
            self.cancelled -= 1;
        }
        cancelled
    }

    /// The timestamp of the next live (non-cancelled) event, if any.
    ///
    /// Lazily discards cancelled entries at the head of the queue, so the
    /// returned instant is exactly where [`Scheduler::run_until`] would
    /// fire next. Event-loop drivers use this to hop from event to event
    /// without guessing a horizon.
    pub fn next_event_at(&mut self) -> Option<SimTime> {
        loop {
            let Reverse(entry) = self.heap.peek()?;
            if !self.slots[entry.id.slot as usize].cancelled {
                return Some(entry.at);
            }
            let Reverse(entry) = self.heap.pop().expect("peeked entry exists");
            self.release(entry.id);
        }
    }

    /// Schedules `f` to fire at absolute time `at`; it is called with the
    /// instant it fires at.
    ///
    /// Events scheduled in the past fire at the current instant (the clock
    /// never moves backwards).
    pub fn schedule_at(&mut self, at: SimTime, f: impl FnOnce(SimTime) + 'static) -> EventId {
        let slot = self.free_slots.pop().unwrap_or_else(|| {
            self.slots.push(Slot::default());
            u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 queued events")
        });
        let id = EventId {
            slot,
            generation: self.slots[slot as usize].generation,
        };
        self.heap.push(Reverse(Entry {
            at,
            seq: self.next_seq,
            id,
            callback: Box::new(f),
        }));
        self.next_seq += 1;
        id
    }

    /// Cancels a pending event. Cancelling an already-fired, already
    /// cancelled or unknown event is a no-op: nothing is recorded for it.
    pub fn cancel(&mut self, id: EventId) {
        let Some(slot) = self.slots.get_mut(id.slot as usize) else {
            return;
        };
        // A free slot's generation is already past every id it issued.
        if slot.generation == id.generation && !slot.cancelled {
            slot.cancelled = true;
            self.cancelled += 1;
        }
    }

    /// Runs all events with timestamps `<= horizon`, advancing the clock to
    /// each event's time and finally to `horizon`. Returns the number of
    /// events executed.
    pub fn run_until(&mut self, horizon: SimTime) -> u64 {
        let mut count = 0;
        loop {
            let due = matches!(self.heap.peek(), Some(Reverse(e)) if e.at <= horizon);
            if !due {
                break;
            }
            let Reverse(entry) = self.heap.pop().expect("peeked entry exists");
            if self.release(entry.id) {
                continue;
            }
            self.clock.advance_to(entry.at);
            (entry.callback)(self.clock.now());
            self.executed += 1;
            count += 1;
        }
        self.clock.advance_to(horizon);
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimDuration;
    use std::cell::RefCell;
    use std::rc::Rc;

    type Log = Rc<RefCell<Vec<u64>>>;

    fn recorder() -> (Log, Log) {
        let r = Rc::new(RefCell::new(Vec::new()));
        (r.clone(), r)
    }

    #[test]
    fn events_fire_in_time_order() {
        let clock = Clock::new();
        let mut s = Scheduler::new(clock);
        let (log, handle) = recorder();
        for &ms in &[30u64, 10, 20] {
            let log = log.clone();
            s.schedule_at(SimTime::from_millis(ms), move |now| {
                log.borrow_mut().push(now.as_millis());
            });
        }
        s.run_until(SimTime::from_millis(100));
        assert_eq!(*handle.borrow(), vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut s = Scheduler::new(Clock::new());
        let (log, handle) = recorder();
        for i in 0..5u64 {
            let log = log.clone();
            s.schedule_at(SimTime::from_millis(10), move |_| log.borrow_mut().push(i));
        }
        s.run_until(SimTime::from_millis(10));
        assert_eq!(*handle.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn horizon_stops_execution() {
        let mut s = Scheduler::new(Clock::new());
        let (log, handle) = recorder();
        let l1 = log.clone();
        s.schedule_at(SimTime::from_millis(10), move |_| l1.borrow_mut().push(1));
        let l2 = log.clone();
        s.schedule_at(SimTime::from_millis(50), move |_| l2.borrow_mut().push(2));
        let ran = s.run_until(SimTime::from_millis(20));
        assert_eq!(ran, 1);
        assert_eq!(*handle.borrow(), vec![1]);
        assert_eq!(s.pending(), 1);
    }

    #[test]
    fn cancellation_suppresses_events() {
        let mut s = Scheduler::new(Clock::new());
        let (log, handle) = recorder();
        let l = log.clone();
        let id = s.schedule_at(SimTime::from_millis(10), move |_| l.borrow_mut().push(1));
        s.cancel(id);
        s.run_until(SimTime::from_millis(20));
        assert!(handle.borrow().is_empty());
        assert_eq!(s.executed(), 0);
    }

    #[test]
    fn cancel_after_fire_is_a_noop() {
        let mut s = Scheduler::new(Clock::new());
        let fired = s.schedule_at(SimTime::from_millis(5), |_| {});
        s.schedule_at(SimTime::from_millis(50), |_| {});
        s.run_until(SimTime::from_millis(10));
        assert_eq!(s.pending(), 1);
        // Fired, then cancelled (twice): the live event is still counted
        // and still fires, and nothing is kept for the stale id.
        s.cancel(fired);
        s.cancel(fired);
        assert_eq!(s.pending(), 1, "a stale cancel must not undercount");
        assert_eq!(s.cancelled, 0);
        // The recycled slot's next tenant is not cancellable through it.
        let tenant = s.schedule_at(SimTime::from_millis(20), |_| {});
        assert_eq!(tenant.slot, fired.slot);
        s.cancel(fired);
        assert_eq!(s.pending(), 2);
        assert_eq!(s.run_until(SimTime::from_millis(100)), 2);
        assert_eq!((s.pending(), s.cancelled), (0, 0));
    }

    #[test]
    fn cancelled_events_leave_nothing_behind_once_time_passes_them() {
        let mut s = Scheduler::new(Clock::new());
        for i in 0..10_000u64 {
            let id = s.schedule_at(SimTime::from_millis(1 + i % 97), |_| {
                panic!("a cancelled event fired")
            });
            s.cancel(id);
            s.cancel(id);
            assert_eq!(s.pending(), 0);
        }
        assert_eq!(s.next_event_at(), None);
        assert_eq!(s.run_until(SimTime::from_millis(100)), 0);
        assert_eq!((s.pending(), s.cancelled, s.heap.len()), (0, 0, 0));
        // Every slot is back on the free list; live scheduling reuses them.
        assert_eq!(s.free_slots.len(), s.slots.len());
        let slots = s.slots.len();
        for _ in 0..100 {
            let at = s.clock().now() + SimDuration::from_millis(1);
            s.schedule_at(at, |_| {});
            s.run_until(at);
        }
        assert_eq!(s.slots.len(), slots);
    }

    #[test]
    fn next_event_at_skips_cancelled_heads() {
        let mut s = Scheduler::new(Clock::new());
        let early = s.schedule_at(SimTime::from_millis(5), |_| {});
        s.schedule_at(SimTime::from_millis(9), |_| {});
        assert_eq!(s.next_event_at(), Some(SimTime::from_millis(5)));
        s.cancel(early);
        assert_eq!(s.next_event_at(), Some(SimTime::from_millis(9)));
        s.run_until(SimTime::from_millis(10));
        assert_eq!(s.next_event_at(), None);
    }

    #[test]
    fn clock_advances_to_horizon_even_without_events() {
        let clock = Clock::new();
        let mut s = Scheduler::new(clock.clone());
        s.run_until(SimTime::from_secs(3));
        assert_eq!(clock.now(), SimTime::from_secs(3));
    }
}
