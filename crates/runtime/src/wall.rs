//! The wall clock: timers on real time, delivered to one consumer thread.
//!
//! A [`WallClock`] owns a set of armed timers — one-shot and
//! genesis-anchored periodic — and delivers them as [`Wakeup`]s from
//! [`WallClock::wait`]. Timers carry an owned payload rather than a
//! callback so they can cross to the timer thread.
//!
//! Std-only (the build is offline, so no tokio): a dedicated timer thread
//! sleeps on a `BinaryHeap` of due instants via `Condvar::wait_timeout`,
//! fires due timers into a queue, and wakes the consumer. Logical time is
//! anchored at a genesis `Instant`, optionally compressed by an integer
//! `scale` so experiments replay long simulated schedules in a short real
//! run (logical elapsed = real elapsed × scale). Periodic timers fire on
//! the grid `anchor + k·period`, with skip-missed-tick semantics when
//! firings fall behind.
//!
//! [`WallHandle`]s let producer threads inject wakeups from outside the
//! armed set — this is how worker threads feed requests into the single
//! consumer that owns the (deliberately `!Send`) world state machines.
//!
//! Dropping the [`WallClock`] joins the timer thread; nothing is leaked.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use duc_sim::{SimDuration, SimTime};

/// Identifies an armed timer so it can be cancelled or re-armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerId(u64);

/// A delivered timer firing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Wakeup<T> {
    /// The timer that fired.
    pub id: TimerId,
    /// The logical instant the timer was due — a function of the schedule
    /// alone, so tests compare on this (an injected wakeup's is the
    /// instant of injection).
    pub due: SimTime,
    /// The logical instant at which the firing was observed; it may lag
    /// behind `due`, never precede it.
    pub at: SimTime,
    /// The payload supplied when the timer was armed.
    pub payload: T,
}

/// How a timer re-arms after firing.
#[derive(Debug, Clone)]
enum Arming<T> {
    Once(T),
    Periodic {
        anchor: SimTime,
        period: SimDuration,
        payload: T,
    },
}

/// The smallest tick `anchor + k·period` with `tick >= not_before`.
fn tick_at_or_after(anchor: SimTime, period: SimDuration, not_before: SimTime) -> SimTime {
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
fn tick_after(anchor: SimTime, period: SimDuration, after: SimTime) -> SimTime {
    if after < anchor {
        return anchor;
    }
    let elapsed = after.saturating_since(anchor).as_nanos();
    let p = period.as_nanos().max(1);
    anchor + period.saturating_mul(elapsed / p + 1)
}

/// Heap entry: `(due nanos, insertion seq, timer id, generation)`.
/// Ordered by `(due, seq)` so ties fire in arming order, like the world's
/// scheduler. The generation stamps entries so a re-arm invalidates any
/// stale entry still sitting in the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct HeapEntry {
    due: u64,
    seq: u64,
    id: u64,
    generation: u64,
}

#[derive(Debug)]
struct WallTimer<T> {
    due: SimTime,
    generation: u64,
    arming: Arming<T>,
}

struct State<T> {
    heap: BinaryHeap<Reverse<HeapEntry>>,
    timers: HashMap<u64, WallTimer<T>>,
    fired: VecDeque<Wakeup<T>>,
    next_seq: u64,
    shutdown: bool,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    wake: Condvar,
    next_id: AtomicU64,
    injectors: AtomicUsize,
    genesis: Instant,
    origin: SimTime,
    scale: u64,
}

impl<T> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Logical now: `origin + real elapsed × scale`, saturating.
    fn now_logical(&self) -> SimTime {
        let real = self.genesis.elapsed().as_nanos();
        let logical = real.saturating_mul(self.scale as u128);
        self.origin + SimDuration::from_nanos(u64::try_from(logical).unwrap_or(u64::MAX))
    }

    /// Real sleep needed for `span` of logical time (ceil, never zero).
    fn real_for(&self, span: SimDuration) -> Duration {
        Duration::from_nanos(span.as_nanos().div_ceil(self.scale).max(1))
    }
}

/// Takes the next delivered wakeup off the queue, retiring a fired
/// one-shot timer (periodic and injected wakeups have no armed entry, or
/// re-arm from the timer thread).
fn pop_delivered<T>(state: &mut State<T>) -> Option<Wakeup<T>> {
    let w = state.fired.pop_front()?;
    if matches!(
        state.timers.get(&w.id.0).map(|t| &t.arming),
        Some(Arming::Once(_))
    ) {
        state.timers.remove(&w.id.0);
    }
    Some(w)
}

fn timer_loop<T: Clone + Send>(shared: &Shared<T>) {
    let mut state = shared.lock();
    loop {
        if state.shutdown {
            return;
        }
        let now = shared.now_logical();
        let mut fired_any = false;
        while let Some(&Reverse(head)) = state.heap.peek() {
            if SimTime::from_nanos(head.due) > now {
                break;
            }
            state.heap.pop();
            let Some(timer) = state.timers.get(&head.id) else {
                continue; // cancelled; stale entry
            };
            if timer.generation != head.generation {
                continue; // re-armed; stale entry
            }
            match &timer.arming {
                Arming::Once(payload) => {
                    // The timer stays in the armed map until the consumer
                    // takes delivery, so a cancel or re-arm racing this
                    // firing still wins.
                    let payload = payload.clone();
                    let due = timer.due;
                    state.fired.push_back(Wakeup {
                        id: TimerId(head.id),
                        due,
                        at: now,
                        payload,
                    });
                }
                Arming::Periodic {
                    anchor,
                    period,
                    payload,
                } => {
                    let payload = payload.clone();
                    let due = timer.due;
                    // Skip missed grid points: next firing is the first
                    // tick still in the future.
                    let next = tick_after(*anchor, *period, due.max(now));
                    let seq = state.next_seq;
                    state.next_seq += 1;
                    state.heap.push(Reverse(HeapEntry {
                        due: next.as_nanos(),
                        seq,
                        id: head.id,
                        generation: head.generation,
                    }));
                    let timer = state.timers.get_mut(&head.id).expect("present above");
                    timer.due = next;
                    // A slow consumer sees at most one queued firing per
                    // periodic timer — stale ticks coalesce into the
                    // latest, the delivery-side half of skip-missed.
                    state.fired.retain(|w| w.id.0 != head.id);
                    state.fired.push_back(Wakeup {
                        id: TimerId(head.id),
                        due,
                        at: now,
                        payload,
                    });
                }
            }
            fired_any = true;
        }
        if fired_any {
            shared.wake.notify_all();
        }
        let sleep = state.heap.peek().map(|&Reverse(head)| {
            shared.real_for(SimTime::from_nanos(head.due).saturating_since(shared.now_logical()))
        });
        // Even with no armed timer the idle wait is bounded: notify and
        // wait can race on the host, and a lost wakeup must degrade to a
        // bounded re-check, not a stuck timer thread.
        let d = sleep.unwrap_or(Duration::from_millis(100));
        state = match shared.wake.wait_timeout(state, d) {
            Ok((guard, _)) => guard,
            Err(poisoned) => poisoned.into_inner().0,
        };
    }
}

/// A handle for injecting wakeups into a [`WallClock`] from other threads.
///
/// While any handle is alive the consumer's `wait()` keeps blocking even
/// with no armed timers (`has_external()` is true); dropping the last
/// handle lets an idle consumer observe completion.
pub struct WallHandle<T> {
    shared: Arc<Shared<T>>,
}

impl<T> WallHandle<T> {
    /// Delivers `payload` to the consumer as an immediately-due wakeup.
    pub fn inject(&self, payload: T) -> TimerId {
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let now = self.shared.now_logical();
        let mut state = self.shared.lock();
        state.fired.push_back(Wakeup {
            id: TimerId(id),
            due: now,
            at: now,
            payload,
        });
        drop(state);
        self.shared.wake.notify_all();
        TimerId(id)
    }

    /// The clock's current logical instant.
    pub fn now(&self) -> SimTime {
        self.shared.now_logical()
    }
}

impl<T> Clone for WallHandle<T> {
    fn clone(&self) -> Self {
        self.shared.injectors.fetch_add(1, Ordering::SeqCst);
        WallHandle {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for WallHandle<T> {
    fn drop(&mut self) {
        self.shared.injectors.fetch_sub(1, Ordering::SeqCst);
        self.shared.wake.notify_all();
    }
}

/// Real-time timers backed by a dedicated timer thread.
///
/// What it guarantees (`tests/equivalence.rs` holds it to a reference
/// model of these rules):
///
/// - timers never fire logically early: `wakeup.at >= wakeup.due`;
/// - one-shot timers fire exactly once unless cancelled first;
/// - [`WallClock::cancel`] suppresses any not-yet-delivered firing, even
///   one already past its due instant;
/// - [`WallClock::rearm`] moves a timer without losing or duplicating it;
/// - ties fire in arming order (a re-arm counts as a fresh arming);
/// - periodic timers fire on the genesis-anchored grid
///   `anchor + k·period`, skipping missed grid points.
pub struct WallClock<T: Clone + Send + 'static> {
    shared: Arc<Shared<T>>,
    timer_thread: Option<thread::JoinHandle<()>>,
}

impl<T: Clone + Send + 'static> WallClock<T> {
    /// Creates a wall clock whose logical time starts at `origin` and
    /// advances in real time (scale 1).
    pub fn new(origin: SimTime) -> Self {
        WallClock::with_scale(origin, 1)
    }

    /// Creates a wall clock with time compression: one real nanosecond
    /// advances logical time by `scale` nanoseconds. CI smoke runs use
    /// large scales to replay seconds-long simulated schedules in
    /// milliseconds of real time.
    ///
    /// # Panics
    /// Panics if `scale` is zero.
    pub fn with_scale(origin: SimTime, scale: u64) -> Self {
        assert!(scale >= 1, "time compression scale must be >= 1");
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                heap: BinaryHeap::new(),
                timers: HashMap::new(),
                fired: VecDeque::new(),
                next_seq: 0,
                shutdown: false,
            }),
            wake: Condvar::new(),
            next_id: AtomicU64::new(0),
            injectors: AtomicUsize::new(0),
            genesis: Instant::now(),
            origin,
            scale,
        });
        let thread_shared = Arc::clone(&shared);
        let timer_thread = thread::Builder::new()
            .name("duc-wall-timer".into())
            .spawn(move || timer_loop(&thread_shared))
            .expect("spawn wall-clock timer thread");
        WallClock {
            shared,
            timer_thread: Some(timer_thread),
        }
    }

    /// Creates an injector handle for producer threads.
    pub fn handle(&self) -> WallHandle<T> {
        self.shared.injectors.fetch_add(1, Ordering::SeqCst);
        WallHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The current logical instant.
    pub fn now(&self) -> SimTime {
        self.shared.now_logical()
    }

    /// Arms a one-shot timer at absolute logical time `at` (clamped to
    /// `now()`; timers never fire in the past).
    pub fn arm(&mut self, at: SimTime, payload: T) -> TimerId {
        let at = at.max(self.shared.now_logical());
        self.arm_at(at, Arming::Once(payload))
    }

    /// Arms a periodic timer on the grid `anchor + k·period`, first firing
    /// at the earliest grid point `>= max(anchor, now())`.
    pub fn arm_periodic(&mut self, anchor: SimTime, period: SimDuration, payload: T) -> TimerId {
        let due = tick_at_or_after(anchor, period, self.shared.now_logical());
        self.arm_at(
            due,
            Arming::Periodic {
                anchor,
                period,
                payload,
            },
        )
    }

    /// Cancels a timer. Returns `true` if an armed timer (or an undelivered
    /// firing) was suppressed; cancelling an unknown or already-delivered
    /// one-shot timer returns `false`.
    pub fn cancel(&mut self, id: TimerId) -> bool {
        let mut state = self.shared.lock();
        let was_armed = state.timers.remove(&id.0).is_some();
        let fired_before = state.fired.len();
        state.fired.retain(|w| w.id != id);
        let suppressed = was_armed || state.fired.len() != fired_before;
        drop(state);
        if suppressed {
            self.shared.wake.notify_all();
        }
        suppressed
    }

    /// Moves an armed timer to fire at `at` instead (clamped to `now()`,
    /// re-anchoring a periodic timer's grid there), keeping its id and
    /// payload. Any undelivered firing of the old schedule is suppressed.
    /// Returns `false` if the timer is no longer armed.
    pub fn rearm(&mut self, id: TimerId, at: SimTime) -> bool {
        let at = at.max(self.shared.now_logical());
        let mut state = self.shared.lock();
        let Some(timer) = state.timers.get_mut(&id.0) else {
            return false;
        };
        timer.due = at;
        timer.generation += 1;
        let generation = timer.generation;
        if let Arming::Periodic { anchor, .. } = &mut timer.arming {
            *anchor = at;
        }
        state.fired.retain(|w| w.id != id);
        let seq = state.next_seq;
        state.next_seq += 1;
        state.heap.push(Reverse(HeapEntry {
            due: at.as_nanos(),
            seq,
            id: id.0,
            generation,
        }));
        drop(state);
        self.shared.wake.notify_all();
        true
    }

    /// Number of currently armed timers.
    pub fn armed(&self) -> usize {
        self.shared.lock().timers.len()
    }

    /// Whether wakeups may still arrive from outside the armed set: a
    /// [`WallHandle`] is alive. Drive loops keep waiting while this holds
    /// even with no armed timers.
    pub(crate) fn has_external(&self) -> bool {
        self.shared.injectors.load(Ordering::SeqCst) > 0
    }

    /// Delivers the next wakeup, blocking the calling thread until one is
    /// due. Returns `None` when no timer is armed, nothing is queued, and no
    /// [`WallHandle`] remains.
    pub fn wait(&mut self) -> Option<Wakeup<T>> {
        let mut state = self.shared.lock();
        loop {
            if let Some(w) = pop_delivered(&mut state) {
                return Some(w);
            }
            if state.timers.is_empty() && self.shared.injectors.load(Ordering::SeqCst) == 0 {
                return None;
            }
            // Bounded for the same reason as the timer thread's idle wait:
            // a lost wakeup costs one re-check interval, never a hang.
            state = match self
                .shared
                .wake
                .wait_timeout(state, Duration::from_millis(10))
            {
                Ok((guard, _)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }

    /// Delivers a wakeup that has already fired, without blocking — `None`
    /// when nothing is queued, even if timers are still armed. Drive loops
    /// drain this on exit so queued work is accounted (rejected) rather
    /// than silently dropped.
    pub(crate) fn try_wait(&mut self) -> Option<Wakeup<T>> {
        pop_delivered(&mut self.shared.lock())
    }

    fn arm_at(&self, due: SimTime, arming: Arming<T>) -> TimerId {
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let mut state = self.shared.lock();
        let seq = state.next_seq;
        state.next_seq += 1;
        state.heap.push(Reverse(HeapEntry {
            due: due.as_nanos(),
            seq,
            id,
            generation: 0,
        }));
        state.timers.insert(
            id,
            WallTimer {
                due,
                generation: 0,
                arming,
            },
        );
        drop(state);
        self.shared.wake.notify_all();
        TimerId(id)
    }
}

impl<T: Clone + Send + 'static> Drop for WallClock<T> {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.wake.notify_all();
        if let Some(handle) = self.timer_thread.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    /// High-compression clock: 1 real µs = 1 logical ms.
    fn fast_clock<T: Clone + Send + 'static>() -> WallClock<T> {
        WallClock::with_scale(SimTime::ZERO, 1000)
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
    fn rearm_moves_one_shot_without_duplicate() {
        let mut c: WallClock<&str> = fast_clock();
        let id = c.arm(ms(5_000), "x");
        assert!(c.rearm(id, ms(9_000)));
        let w = c.wait().unwrap();
        assert_eq!((w.id, w.due), (id, ms(9_000)));
        assert!(c.wait().is_none());
    }

    #[test]
    fn periodic_fires_on_grid_and_rearm_reanchors() {
        // 50 logical s = 50 real ms between ticks: the margin a stalled
        // consumer would need to lose before a tick is skipped.
        let mut c: WallClock<&str> = fast_clock();
        let id = c.arm_periodic(ms(50_000), SimDuration::from_secs(50), "tick");
        let dues: Vec<u64> = (0..3).map(|_| c.wait().unwrap().due.as_millis()).collect();
        assert_eq!(dues, vec![50_000, 100_000, 150_000]);
        assert!(c.rearm(id, ms(225_000)));
        let dues: Vec<u64> = (0..2).map(|_| c.wait().unwrap().due.as_millis()).collect();
        assert_eq!(dues, vec![225_000, 275_000]);
        assert!(c.cancel(id));
        assert!(c.wait().is_none());
    }

    #[test]
    fn past_arm_clamps_to_now() {
        let mut c: WallClock<&str> = fast_clock();
        c.arm(ms(10_000), "first");
        let first = c.wait().unwrap();
        let id = c.arm(ms(2_000), "late");
        let w = c.wait().unwrap();
        assert_eq!(w.id, id);
        assert!(w.due >= first.at, "armed in the past: due {:?}", w.due);
        assert!(w.at >= w.due);
    }

    #[test]
    fn one_shot_timers_fire_in_due_order() {
        // 1000× compression: 10/30 logical seconds = 10/30 real ms, a wide
        // guard band between arming and the first firing.
        let mut c: WallClock<&str> = fast_clock();
        c.arm(ms(30_000), "b");
        c.arm(ms(10_000), "a");
        let w1 = c.wait().unwrap();
        let w2 = c.wait().unwrap();
        assert_eq!((w1.payload, w2.payload), ("a", "b"));
        assert!(w1.at >= w1.due && w2.at >= w2.due, "never logically early");
        assert!(c.wait().is_none());
    }

    #[test]
    fn periodic_grid_is_genesis_anchored() {
        let mut c: WallClock<()> = fast_clock();
        c.arm_periodic(ms(5), SimDuration::from_millis(5), ());
        let dues: Vec<u64> = (0..3).map(|_| c.wait().unwrap().due.as_millis()).collect();
        // Grid points are exact multiples regardless of real jitter.
        assert!(dues.iter().all(|d| d % 5 == 0), "off-grid dues: {dues:?}");
        assert!(
            dues.windows(2).all(|w| w[0] < w[1]),
            "not increasing: {dues:?}"
        );
    }

    #[test]
    fn cancel_before_delivery_suppresses() {
        let mut c: WallClock<u32> = WallClock::new(SimTime::ZERO);
        let id = c.arm(SimTime::MAX, 7); // far future: cannot have fired
        assert!(c.cancel(id));
        assert!(!c.cancel(id));
        assert!(c.wait().is_none());
    }

    #[test]
    fn injection_wakes_consumer_and_handle_drop_releases_it() {
        let mut c: WallClock<u32> = fast_clock();
        let handle = c.handle();
        assert!(c.has_external());
        let producer = thread::spawn(move || {
            for v in 0..3 {
                handle.inject(v);
            }
            // handle drops here
        });
        let mut seen = Vec::new();
        while let Some(w) = c.wait() {
            seen.push(w.payload);
        }
        producer.join().unwrap();
        assert_eq!(seen, vec![0, 1, 2]);
        assert!(!c.has_external());
    }

    #[test]
    fn drop_joins_timer_thread() {
        let c: WallClock<()> = WallClock::new(SimTime::ZERO);
        let weak = Arc::downgrade(&c.shared);
        drop(c);
        // Drop joined the timer thread, so its strong reference on the
        // shared state is gone too — nothing detached survives.
        assert!(weak.upgrade().is_none(), "timer thread leaked");
    }

    #[test]
    fn skip_missed_ticks_never_bursts() {
        // Scale 1 with a 1ms period, then stall the consumer 50ms: the
        // timer thread must coalesce missed grid points rather than
        // delivering a burst of stale ticks.
        let mut c: WallClock<()> = WallClock::new(SimTime::ZERO);
        c.arm_periodic(SimTime::ZERO, SimDuration::from_millis(1), ());
        let first = c.wait().unwrap();
        thread::sleep(Duration::from_millis(50));
        let second = c.wait().unwrap();
        let third = c.wait().unwrap();
        assert!(second.due > first.due);
        // At most one tick was queued while we slept; the next is strictly
        // later, not a replay of the ~50 missed grid points.
        assert!(third.due > second.due);
        let queued = {
            let state = c.shared.lock();
            state.fired.len()
        };
        assert!(queued <= 1, "burst of stale ticks queued: {queued}");
    }
}
