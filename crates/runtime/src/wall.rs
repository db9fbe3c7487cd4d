//! The wall clock: logical time on real time, and an inbox for commands
//! injected from other threads.
//!
//! Logical time is anchored at a genesis `Instant`, optionally compressed
//! by an integer `scale` so experiments replay long simulated schedules in
//! a short real run (logical elapsed = real elapsed × scale). The clock
//! keeps no timers: the instants a run needs are the workload's own
//! (`next_due`), its script's and its export grid's, and [`crate::drive()`]
//! sleeps until the earliest of them with `recv_until`.
//!
//! [`WallHandle`]s let producer threads inject commands into the clock's
//! inbox — this is how worker threads feed requests into the single
//! consumer that owns the (deliberately `!Send`) world state machines. An
//! injection wakes a consumer sleeping in `recv_until` at once.
//!
//! Std-only (the build is offline, so no tokio): one `Mutex` + `Condvar`
//! pair, and no thread of its own.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use duc_sim::{SimDuration, SimTime};

struct InboxState<C> {
    queue: VecDeque<C>,
    /// Live [`WallHandle`]s.
    producers: usize,
}

struct Inbox<C> {
    state: Mutex<InboxState<C>>,
    arrived: Condvar,
}

impl<C> Inbox<C> {
    fn lock(&self) -> MutexGuard<'_, InboxState<C>> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// A handle for injecting commands into a [`WallClock`] from other threads.
///
/// While any handle is alive the clock is open: the drive loop keeps
/// waiting for injections even with nothing else to do, and dropping the
/// last handle lets an idle loop finish.
pub struct WallHandle<C> {
    inbox: Arc<Inbox<C>>,
}

impl<C> WallHandle<C> {
    /// Delivers `cmd` to the consumer, waking it if it sleeps.
    pub fn inject(&self, cmd: C) {
        self.inbox.lock().queue.push_back(cmd);
        self.inbox.arrived.notify_all();
    }
}

impl<C> Clone for WallHandle<C> {
    fn clone(&self) -> Self {
        self.inbox.lock().producers += 1;
        WallHandle {
            inbox: Arc::clone(&self.inbox),
        }
    }
}

impl<C> Drop for WallHandle<C> {
    fn drop(&mut self) {
        self.inbox.lock().producers -= 1;
        self.inbox.arrived.notify_all();
    }
}

/// Logical time paced by real time, with an inbox of injected commands.
pub struct WallClock<C> {
    inbox: Arc<Inbox<C>>,
    genesis: Instant,
    origin: SimTime,
    scale: u64,
}

impl<C> WallClock<C> {
    /// Creates a wall clock whose logical time starts at `origin`, with
    /// time compression: one real nanosecond advances logical time by
    /// `scale` nanoseconds (1 is true pace). CI smoke runs use large
    /// scales to replay seconds-long simulated schedules in milliseconds
    /// of real time.
    ///
    /// # Panics
    /// Panics if `scale` is zero.
    pub fn with_scale(origin: SimTime, scale: u64) -> Self {
        assert!(scale >= 1, "time compression scale must be >= 1");
        WallClock {
            inbox: Arc::new(Inbox {
                state: Mutex::new(InboxState {
                    queue: VecDeque::new(),
                    producers: 0,
                }),
                arrived: Condvar::new(),
            }),
            genesis: Instant::now(),
            origin,
            scale,
        }
    }

    /// Creates an injector handle for producer threads.
    pub fn handle(&self) -> WallHandle<C> {
        self.inbox.lock().producers += 1;
        WallHandle {
            inbox: Arc::clone(&self.inbox),
        }
    }

    /// The current logical instant: `origin + real elapsed × scale`,
    /// saturating.
    pub fn now(&self) -> SimTime {
        let real = self.genesis.elapsed().as_nanos();
        let logical = real.saturating_mul(u128::from(self.scale));
        self.origin + SimDuration::from_nanos(u64::try_from(logical).unwrap_or(u64::MAX))
    }

    /// Whether more commands may arrive: one is queued, or a
    /// [`WallHandle`] is alive.
    pub(crate) fn open(&self) -> bool {
        let inbox = self.inbox.lock();
        inbox.producers > 0 || !inbox.queue.is_empty()
    }

    /// The oldest injected command, without blocking.
    pub(crate) fn try_recv(&mut self) -> Option<C> {
        self.inbox.lock().queue.pop_front()
    }

    /// Blocks until a command is injected (returned) or `until` arrives
    /// (`None`, never logically early: `now() >= until` on return). With
    /// nothing queued, it also returns `None` once no producer remains to
    /// inject — at once with no `until`, else when the last handle it was
    /// waiting on drops.
    pub(crate) fn recv_until(&mut self, until: Option<SimTime>) -> Option<C> {
        let mut inbox = self.inbox.lock();
        let waits_on_producers = until.is_none() || inbox.producers > 0;
        loop {
            if let Some(cmd) = inbox.queue.pop_front() {
                return Some(cmd);
            }
            if waits_on_producers && inbox.producers == 0 {
                return None;
            }
            inbox = match until {
                None => self
                    .inbox
                    .arrived
                    .wait(inbox)
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
                Some(until) => {
                    let now = self.now();
                    if now >= until {
                        return None;
                    }
                    // Real sleep for the logical span: ceil, never zero.
                    let span = until.saturating_since(now).as_nanos();
                    let real = Duration::from_nanos(span.div_ceil(self.scale).max(1));
                    match self.inbox.arrived.wait_timeout(inbox, real) {
                        Ok((guard, _)) => guard,
                        Err(poisoned) => poisoned.into_inner().0,
                    }
                }
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use std::thread;

    use super::*;

    /// High-compression clock: 1 real µs = 1 logical ms.
    fn fast_clock<C>() -> WallClock<C> {
        WallClock::with_scale(SimTime::ZERO, 1000)
    }

    #[test]
    fn injection_wakes_consumer_and_handle_drop_releases_it() {
        let mut c: WallClock<u32> = fast_clock();
        let handle = c.handle();
        assert!(c.open());
        let producer = thread::spawn(move || {
            for v in 0..3 {
                handle.inject(v);
            }
            // handle drops here
        });
        let mut seen = Vec::new();
        while let Some(v) = c.recv_until(None) {
            seen.push(v);
        }
        producer.join().unwrap();
        assert_eq!(seen, vec![0, 1, 2]);
        assert!(!c.open());
    }

    /// A deadline return is never logically early, whether the deadline
    /// is in the past, a few real microseconds away or a few milliseconds
    /// away, and whether or not a producer is alive while it waits.
    #[test]
    fn recv_until_never_returns_before_its_instant() {
        let mut c: WallClock<u32> = fast_clock();
        let handle = c.handle();
        for step_ms in [0u64, 1, 7, 50, 2_000, 5_000] {
            let until = c.now() + SimDuration::from_millis(step_ms);
            assert_eq!(c.recv_until(Some(until)), None);
            assert!(c.now() >= until, "returned before {until}");
        }
        drop(handle);
        let until = c.now() + SimDuration::from_millis(3_000);
        assert_eq!(c.recv_until(Some(until)), None);
        assert!(c.now() >= until, "closed inbox returned before {until}");
        // Past instants return at once, and a queued command comes first.
        let handle = c.handle();
        handle.inject(9);
        assert_eq!(c.recv_until(Some(SimTime::ZERO)), Some(9));
        assert_eq!(c.recv_until(Some(SimTime::ZERO)), None);
    }
}
