//! `WallClock` under thread stress: eight producer threads inject through
//! their [`WallHandle`]s while the consumer arms, cancels and re-arms
//! seeded one-shot timers. Every injected payload arrives exactly once and
//! in its producer's order; every armed timer that was not cancelled
//! arrives exactly once and never before it is due; a cancelled or
//! delivered timer can be neither cancelled nor re-armed again. A watchdog
//! turns a hang (a lost wakeup, a lock-order deadlock) into a failure.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use duc_runtime::{TimerId, WallClock, WallHandle};
use duc_sim::{Rng, SimDuration, SimTime};

const PRODUCERS: usize = 8;
const PER_PRODUCER: u32 = 2_000;
/// Arms, cancels and re-arms the consumer performs per run.
const TIMER_OPS: usize = 6_000;
/// Latest due of a seeded one-shot, in logical milliseconds past now
/// (at 1 000× compression: up to 2 ms of real time).
const MAX_DELAY_MS: u64 = 2_000;

#[derive(Debug, Clone, Copy)]
enum Payload {
    Injected { producer: usize, seq: u32 },
    Timer(usize),
}

#[derive(Debug, Clone, Copy)]
enum Timer {
    /// Armed or re-armed, no earlier than `due`; not yet delivered.
    Armed {
        id: TimerId,
        due: SimTime,
    },
    Cancelled(TimerId),
    Delivered(TimerId),
}

fn produce(handle: WallHandle<Payload>, producer: usize) {
    for seq in 0..PER_PRODUCER {
        handle.inject(Payload::Injected { producer, seq });
        if seq % 64 == 0 {
            thread::yield_now();
        }
    }
}

/// One arm, cancel or re-arm, drawn from `rng`.
fn timer_op(clock: &mut WallClock<Payload>, rng: &mut Rng, timers: &mut Vec<Timer>) {
    let due = clock.now() + SimDuration::from_millis(rng.gen_range(MAX_DELAY_MS));
    let op = rng.gen_range(4);
    if op < 2 || timers.is_empty() {
        let id = clock.arm(due, Payload::Timer(timers.len()));
        timers.push(Timer::Armed { id, due });
        return;
    }
    let k = rng.gen_range(timers.len() as u64) as usize;
    timers[k] = match (op, timers[k]) {
        (2, Timer::Armed { id, .. }) => {
            assert!(clock.cancel(id), "timer {k}: an undelivered timer cancels");
            Timer::Cancelled(id)
        }
        (_, Timer::Armed { id, .. }) => {
            assert!(
                clock.rearm(id, due),
                "timer {k}: an undelivered timer re-arms"
            );
            Timer::Armed { id, due }
        }
        (_, gone @ (Timer::Cancelled(id) | Timer::Delivered(id))) => {
            assert!(
                !clock.cancel(id),
                "timer {k} cancelled again after {gone:?}"
            );
            assert!(!clock.rearm(id, due), "timer {k} re-armed after {gone:?}");
            gone
        }
    };
}

fn stress(seed: u64) {
    let mut clock: WallClock<Payload> = WallClock::with_scale(SimTime::ZERO, 1_000);
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let handle = clock.handle();
            thread::spawn(move || produce(handle, p))
        })
        .collect();
    let mut rng = Rng::seed_from_u64(seed);
    let mut next_seq = [0u32; PRODUCERS];
    let mut timers: Vec<Timer> = Vec::new();
    let mut ops = 0;
    while let Some(w) = clock.wait() {
        assert!(
            w.at >= w.due,
            "seed {seed}: observed at {} before due {}",
            w.at,
            w.due
        );
        assert!(
            clock.now() >= w.due,
            "seed {seed}: delivered before due {}",
            w.due
        );
        match w.payload {
            Payload::Injected { producer, seq } => {
                assert_eq!(
                    seq, next_seq[producer],
                    "seed {seed}: producer {producer} lost, repeated or reordered a payload"
                );
                next_seq[producer] += 1;
            }
            Payload::Timer(k) => match timers[k] {
                Timer::Armed { id, due } => {
                    assert_eq!(w.id, id, "seed {seed}: timer {k} under another id");
                    assert!(w.due >= due, "seed {seed}: timer {k} fired before {due}");
                    timers[k] = Timer::Delivered(id);
                }
                other => panic!("seed {seed}: timer {k} delivered while {other:?}"),
            },
        }
        // A burst of zero to two timer operations per wakeup, racing the
        // producers while they run and the timer thread throughout.
        for _ in 0..rng.gen_range(3) {
            if ops < TIMER_OPS {
                ops += 1;
                timer_op(&mut clock, &mut rng, &mut timers);
            }
        }
    }
    for producer in producers {
        producer.join().expect("producer thread");
    }
    assert_eq!(
        next_seq, [PER_PRODUCER; PRODUCERS],
        "seed {seed}: injected payloads missing"
    );
    let undelivered: Vec<usize> = (0..timers.len())
        .filter(|&k| matches!(timers[k], Timer::Armed { .. }))
        .collect();
    assert!(
        undelivered.is_empty(),
        "seed {seed}: armed timers never delivered: {undelivered:?}"
    );
    assert!(
        timers.iter().any(|t| matches!(t, Timer::Cancelled(_))),
        "seed {seed}: the schedule cancelled nothing"
    );
    assert_eq!(clock.armed(), 0);
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
            panic!("WallClock stress hung for 120 s: a lost wakeup or a deadlock")
        }
    }
}
