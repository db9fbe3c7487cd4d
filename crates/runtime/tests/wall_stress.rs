//! `drive` under thread stress: eight producer threads inject through
//! their [`WallHandle`]s while the workload's `next_due` churns on seeded
//! short instants — each admission, and some paces, add a due a few
//! logical seconds (real milliseconds) out, so the instant the loop sleeps
//! until moves earlier and later all run long. Every injected command is
//! admitted exactly once and in its producer's order, every due instant is
//! paced, never before it arrives, and a watchdog turns a hang (a lost
//! wakeup, a lock-order deadlock) into a failure.

use std::collections::BTreeSet;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use duc_runtime::{drive, DriveConfig, ShutdownSignal, WallClock, WallHandle, Workload};
use duc_sim::{Rng, SimDuration, SimTime};

const PRODUCERS: usize = 8;
const PER_PRODUCER: u32 = 2_000;
/// Due instants the workload schedules per run.
const DUES: u64 = 6_000;
/// Latest due, in logical milliseconds past the last pace (at 1 000×
/// compression: up to 2 ms of real time).
const MAX_DELAY_MS: u64 = 2_000;

/// One injected command: its producer and its place in that producer's
/// sequence.
type Cmd = (usize, u32);

fn produce(handle: WallHandle<Cmd>, producer: usize) {
    for seq in 0..PER_PRODUCER {
        handle.inject((producer, seq));
        if seq % 64 == 0 {
            thread::yield_now();
        }
    }
}

/// Checks admissions against producer order and keeps a churning set of
/// due instants; in flight while any due is pending.
struct Churn {
    seed: u64,
    rng: Rng,
    next_seq: [u32; PRODUCERS],
    /// Pending `(due, serial)` instants.
    dues: BTreeSet<(SimTime, u64)>,
    scheduled: u64,
    paced: u64,
    last_pace: SimTime,
}

impl Churn {
    /// Schedules one more seeded due past the last pace, while the budget
    /// lasts.
    fn schedule(&mut self) {
        if self.scheduled < DUES {
            let delay = SimDuration::from_millis(self.rng.gen_range(MAX_DELAY_MS));
            self.dues.insert((self.last_pace + delay, self.scheduled));
            self.scheduled += 1;
        }
    }
}

impl Workload for Churn {
    type Cmd = Cmd;

    fn admit(&mut self, (producer, seq): Cmd) {
        let seed = self.seed;
        assert_eq!(
            seq, self.next_seq[producer],
            "seed {seed}: producer {producer} lost, repeated or reordered a command"
        );
        self.next_seq[producer] += 1;
        if self.rng.gen_range(8) < 3 {
            self.schedule();
        }
    }

    fn pace(&mut self, now: SimTime) {
        let seed = self.seed;
        assert!(
            now >= self.last_pace,
            "seed {seed}: paced backwards to {now}"
        );
        self.last_pace = now;
        while let Some(&(at, serial)) = self.dues.first() {
            if at > now {
                break;
            }
            self.dues.remove(&(at, serial));
            self.paced += 1;
            if self.rng.gen_range(2) == 0 {
                self.schedule();
            }
        }
    }

    fn next_due(&mut self) -> Option<SimTime> {
        self.dues.first().map(|&(at, _)| at)
    }

    fn in_flight(&self) -> usize {
        self.dues.len()
    }
}

fn stress(seed: u64) {
    let mut clock: WallClock<Cmd> = WallClock::with_scale(SimTime::ZERO, 1_000);
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let handle = clock.handle();
            thread::spawn(move || produce(handle, p))
        })
        .collect();
    let mut churn = Churn {
        seed,
        rng: Rng::seed_from_u64(seed),
        next_seq: [0; PRODUCERS],
        dues: BTreeSet::new(),
        scheduled: 0,
        paced: 0,
        last_pace: SimTime::ZERO,
    };
    let report = drive(
        &mut clock,
        &mut churn,
        Vec::new(),
        &ShutdownSignal::new(),
        &DriveConfig::default(),
    );
    for producer in producers {
        producer.join().expect("producer thread");
    }
    assert_eq!(
        churn.next_seq, [PER_PRODUCER; PRODUCERS],
        "seed {seed}: injected commands missing"
    );
    assert_eq!(
        (report.admitted, report.rejected),
        (u64::from(PER_PRODUCER) * PRODUCERS as u64, 0),
        "seed {seed}"
    );
    assert!(report.drained, "seed {seed}: exited with dues pending");
    assert!(
        churn.dues.is_empty(),
        "seed {seed}: dues never paced: {:?}",
        churn.dues
    );
    assert_eq!(churn.paced, churn.scheduled, "seed {seed}");
    assert!(
        churn.scheduled > DUES / 2,
        "seed {seed}: the schedule churned only {} dues",
        churn.scheduled
    );
}

#[test]
fn producers_and_timer_churn_deliver_everything_exactly_once() {
    let (done, finished) = mpsc::channel();
    let run = thread::spawn(move || {
        for seed in [1, 2, 3] {
            stress(seed);
        }
        done.send(()).expect("watchdog listening");
    });
    match finished.recv_timeout(Duration::from_secs(120)) {
        Ok(()) => run.join().expect("stress thread"),
        // The run panicked: re-raise its message.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            if let Err(panic) = run.join() {
                std::panic::resume_unwind(panic);
            }
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("drive stress hung for 120 s: a lost wakeup or a deadlock")
        }
    }
}
