//! `WallClock` against a reference model.
//!
//! For a schedule the clock must fire what [`expected`] says: identical
//! `(due, payload)` pairs in identical order, whatever the observation
//! instants (`at`) were. The suite replays fixed and randomised
//! schedules — arms, periodic grids, cancellations, re-arms — through a
//! compressed wall clock and compares the delivered sequence with the
//! model's, plus a property test that cancellation/re-arm sequences never
//! lose or duplicate a wakeup, and two races against the timer thread.

use duc_runtime::{TimerId, WallClock};
use duc_sim::{SimDuration, SimTime};
use proptest::prelude::*;

/// One step of a schedule, with times in logical milliseconds. Arm
/// targets refer to the n-th previously armed timer.
#[derive(Debug, Clone)]
enum Op {
    ArmOnce {
        at_ms: u64,
        tag: u32,
    },
    ArmPeriodic {
        anchor_ms: u64,
        period_ms: u64,
        tag: u32,
    },
    Cancel {
        target: usize,
    },
    Rearm {
        target: usize,
        at_ms: u64,
    },
}

/// What a clock must fire for `ops` applied at logical zero, drained to at
/// most `limit` wakeups: the reference the wall clock is held to.
///
/// Live timers fire in (due, arm sequence) order. Cancel removes a timer.
/// Rearm moves it to `at` under a fresh sequence number, which re-anchors
/// a periodic timer's grid there. A periodic firing re-arms at the next
/// grid point — `tick_after` of its on-grid due, i.e. one period later —
/// under a fresh sequence number.
fn expected(ops: &[Op], limit: usize) -> Vec<(SimTime, u32)> {
    struct Timer {
        due_ms: u64,
        seq: u64,
        tag: u32,
        period_ms: Option<u64>,
    }
    let mut timers: Vec<Option<Timer>> = Vec::new();
    let mut next_seq = 0..;
    for op in ops {
        match *op {
            Op::ArmOnce { at_ms, tag } => timers.push(Some(Timer {
                due_ms: at_ms,
                seq: next_seq.next().unwrap(),
                tag,
                period_ms: None,
            })),
            Op::ArmPeriodic {
                anchor_ms,
                period_ms,
                tag,
            } => timers.push(Some(Timer {
                due_ms: anchor_ms,
                seq: next_seq.next().unwrap(),
                tag,
                period_ms: Some(period_ms.max(1)),
            })),
            Op::Cancel { target } => {
                if !timers.is_empty() {
                    let n = timers.len();
                    timers[target % n] = None;
                }
            }
            Op::Rearm { target, at_ms } => {
                let n = timers.len();
                if let Some(timer) = timers.get_mut(target % n.max(1)).and_then(Option::as_mut) {
                    timer.due_ms = at_ms;
                    timer.seq = next_seq.next().unwrap();
                }
            }
        }
    }
    let mut fired = Vec::new();
    while fired.len() < limit {
        let Some(slot) = timers
            .iter_mut()
            .filter(|t| t.is_some())
            .min_by_key(|t| t.as_ref().map(|t| (t.due_ms, t.seq)))
        else {
            break;
        };
        let timer = slot.as_mut().expect("filtered to live timers");
        fired.push((SimTime::from_millis(timer.due_ms), timer.tag));
        match timer.period_ms {
            Some(period_ms) => {
                timer.due_ms += period_ms;
                timer.seq = next_seq.next().unwrap();
            }
            None => *slot = None,
        }
    }
    fired
}

/// Applies every op up front, then drains at most `limit` wakeups,
/// returning their `(due, payload)` pairs — `at` is deliberately dropped.
fn run_schedule(clock: &mut WallClock<u32>, ops: &[Op], limit: usize) -> Vec<(SimTime, u32)> {
    let mut ids: Vec<TimerId> = Vec::new();
    for op in ops {
        match *op {
            Op::ArmOnce { at_ms, tag } => {
                ids.push(clock.arm(SimTime::from_millis(at_ms), tag));
            }
            Op::ArmPeriodic {
                anchor_ms,
                period_ms,
                tag,
            } => {
                ids.push(clock.arm_periodic(
                    SimTime::from_millis(anchor_ms),
                    SimDuration::from_millis(period_ms.max(1)),
                    tag,
                ));
            }
            Op::Cancel { target } => {
                if !ids.is_empty() {
                    clock.cancel(ids[target % ids.len()]);
                }
            }
            Op::Rearm { target, at_ms } => {
                if !ids.is_empty() {
                    clock.rearm(ids[target % ids.len()], SimTime::from_millis(at_ms));
                }
            }
        }
    }
    let mut fired = Vec::new();
    while fired.len() < limit {
        match clock.wait() {
            Some(w) => {
                assert!(
                    w.at >= w.due,
                    "fired logically early: {:?} < {:?}",
                    w.at,
                    w.due
                );
                fired.push((w.due, w.payload));
            }
            None => break,
        }
    }
    fired
}

/// Runs the schedule through a wall clock and asserts it fires what the
/// model says.
///
/// The wall clock is compressed 100×, so the schedules below (tens of
/// logical seconds) replay in hundreds of real milliseconds. All due
/// instants sit at ≥ 1 logical second (10 real ms), giving the arming
/// phase a wide guard band before the first firing can race it, and all
/// periods are ≥ 3 logical seconds so a skip-missed tick would need a
/// 30 ms timer-thread stall.
fn assert_equivalent(ops: &[Op], limit: usize) {
    let mut wall: WallClock<u32> = WallClock::with_scale(SimTime::ZERO, 100);
    assert_eq!(
        run_schedule(&mut wall, ops, limit),
        expected(ops, limit),
        "the wall clock departs from the model for {ops:?}"
    );
}

#[test]
fn one_shots_interleave_identically() {
    assert_equivalent(
        &[
            Op::ArmOnce {
                at_ms: 5_000,
                tag: 1,
            },
            Op::ArmOnce {
                at_ms: 2_000,
                tag: 2,
            },
            Op::ArmOnce {
                at_ms: 8_000,
                tag: 3,
            },
            Op::ArmOnce {
                at_ms: 2_000,
                tag: 4,
            }, // tie with tag 2: arming order
        ],
        8,
    );
}

#[test]
fn periodic_grid_and_one_shots_interleave_identically() {
    assert_equivalent(
        &[
            Op::ArmPeriodic {
                anchor_ms: 2_000,
                period_ms: 3_000,
                tag: 10,
            },
            Op::ArmOnce {
                at_ms: 4_000,
                tag: 1,
            },
            Op::ArmOnce {
                at_ms: 9_500,
                tag: 2,
            },
        ],
        6,
    );
}

#[test]
fn cancellation_suppresses_identically() {
    assert_equivalent(
        &[
            Op::ArmOnce {
                at_ms: 3_000,
                tag: 1,
            },
            Op::ArmOnce {
                at_ms: 5_000,
                tag: 2,
            },
            Op::ArmPeriodic {
                anchor_ms: 1_000,
                period_ms: 3_000,
                tag: 3,
            },
            Op::Cancel { target: 0 },
            Op::Cancel { target: 2 },
        ],
        4,
    );
}

#[test]
fn rearm_moves_identically() {
    assert_equivalent(
        &[
            Op::ArmOnce {
                at_ms: 9_000,
                tag: 1,
            },
            Op::ArmOnce {
                at_ms: 4_000,
                tag: 2,
            },
            Op::Rearm {
                target: 0,
                at_ms: 2_000,
            },
            Op::ArmPeriodic {
                anchor_ms: 6_000,
                period_ms: 5_000,
                tag: 3,
            },
            Op::Rearm {
                target: 2,
                at_ms: 7_000,
            },
        ],
        5,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomised one-shot schedules (with cancels and re-arms mixed in)
    /// fire the logical sequence the model says. Times land on a
    /// coarse grid (multiples of 500 logical ms from 1s) so ties are
    /// exercised. Periodic timers are excluded here: under real-time
    /// jitter their skip-missed semantics may legitimately drop a grid
    /// point, which the fixed tests above cover with wide guard bands.
    #[test]
    fn random_schedules_are_equivalent(raw in proptest::collection::vec(any::<u32>(), 1..12)) {
        let ops: Vec<Op> = raw
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                let slot_ms = 1_000 + 500 * u64::from(r % 10);
                match r % 4 {
                    0..=2 => Op::ArmOnce { at_ms: slot_ms, tag: i as u32 },
                    _ => {
                        if r % 8 < 6 {
                            Op::Cancel { target: (r / 16) as usize }
                        } else {
                            Op::Rearm { target: (r / 16) as usize, at_ms: slot_ms }
                        }
                    }
                }
            })
            .collect();
        let mut wall: WallClock<u32> = WallClock::with_scale(SimTime::ZERO, 100);
        prop_assert_eq!(run_schedule(&mut wall, &ops, 24), expected(&ops, 24));
    }

    /// Cancellation / re-arm sequences against the reference model: every
    /// armed one-shot timer fires exactly once unless cancelled, no
    /// matter how it was re-armed in between — nothing lost, nothing
    /// duplicated. Delivery counts per timer are compared, so the check
    /// holds however close together the instants are — here they are
    /// closer than the time it takes to apply the ops, so timers fire
    /// while later ops cancel or move them. More races live in `wall_cancel_race_never_duplicates` and
    /// `wall_rearm_race_fires_exactly_once`.
    #[test]
    fn cancel_rearm_never_loses_or_duplicates(raw in proptest::collection::vec(any::<u32>(), 1..40)) {
        let ops: Vec<Op> = raw
            .iter()
            .enumerate()
            .map(|(i, &r)| match r % 3 {
                0 => Op::ArmOnce { at_ms: 1 + u64::from(r % 50), tag: i as u32 },
                1 => Op::Cancel { target: (r / 8) as usize },
                _ => Op::Rearm { target: (r / 8) as usize, at_ms: 1 + u64::from(r % 90) },
            })
            .collect();
        let counts = |fired: Vec<(SimTime, u32)>| {
            let mut counts = std::collections::BTreeMap::<u32, u64>::new();
            for (_, tag) in fired {
                *counts.entry(tag).or_insert(0) += 1;
            }
            counts
        };
        let mut clock: WallClock<u32> = WallClock::with_scale(SimTime::ZERO, 100);
        let observed = counts(run_schedule(&mut clock, &ops, usize::MAX));
        prop_assert_eq!(observed, counts(expected(&ops, usize::MAX)));
    }
}

/// Wall-clock race: a producer thread hammers inject while the consumer
/// cancels and re-arms a far-future timer — the timer must fire exactly
/// once per surviving arm, never twice, and cancelled arms never fire.
#[test]
fn wall_cancel_race_never_duplicates() {
    for round in 0..20u32 {
        let mut clock: WallClock<u32> = WallClock::with_scale(SimTime::ZERO, 1000);
        // A timer armed just ahead of "now" so cancellation genuinely
        // races the timer thread's firing.
        let due = clock.now() + SimDuration::from_millis(1 + u64::from(round % 3));
        let id = clock.arm(due, 7);
        if round % 2 == 0 {
            std::thread::yield_now();
        }
        let cancelled = clock.cancel(id);
        let mut fired = 0;
        while let Some(w) = clock.wait() {
            assert_eq!(w.payload, 7);
            fired += 1;
        }
        if cancelled {
            assert_eq!(fired, 0, "cancelled timer fired (round {round})");
        } else {
            assert_eq!(
                fired, 1,
                "uncancelled timer fired {fired} times (round {round})"
            );
        }
    }
}

/// Re-arming a wall timer concurrently with its firing never yields two
/// deliveries: the undelivered firing of the old schedule is suppressed
/// and the moved timer fires once at its new instant.
#[test]
fn wall_rearm_race_fires_exactly_once() {
    for round in 0..20u32 {
        let mut clock: WallClock<u32> = WallClock::with_scale(SimTime::ZERO, 1000);
        let due = clock.now() + SimDuration::from_millis(1);
        let id = clock.arm(due, 9);
        if round % 2 == 0 {
            std::thread::sleep(std::time::Duration::from_micros(u64::from(round) * 300));
        }
        let _moved = clock.rearm(id, clock.now() + SimDuration::from_millis(2));
        let mut fired = 0;
        while let Some(w) = clock.wait() {
            assert_eq!(w.payload, 9);
            fired += 1;
        }
        assert_eq!(fired, 1, "timer fired {fired} times (round {round})");
    }
}
