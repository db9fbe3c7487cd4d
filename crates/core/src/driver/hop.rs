//! A fault-aware network hop, the retry/suspend primitive every process
//! machine drives its raw messages (pod fetches, oracle reads, monitoring
//! probes) through.

use duc_oracle::{HopKind, OracleError};
use duc_sim::{EndpointId, SimTime};

use crate::world::World;

use super::{hop_backoff, HOP_TIMEOUT, MAX_HOP_ATTEMPTS};

/// A fault-aware network hop: one message that must cross one link, with
/// bounded deterministic retries against transient loss and suspend/resume
/// across declared crash/partition windows.
///
/// Every process machine drives its raw hops (pod fetches, oracle reads,
/// monitoring probes) through this, so a fault hitting an in-flight process
/// either heals within the hop's budget — the process resumes and completes
/// — or surfaces as a typed [`OracleError::GaveUp`]; a ticket can never
/// hang on a dead link.
pub(crate) struct Hop {
    from: EndpointId,
    to: EndpointId,
    size: u64,
    kind: HopKind,
    attempt: u32,
    deadline: SimTime,
}

/// One advance of a [`Hop`].
pub(crate) enum HopPoll {
    /// The message is on the wire; it arrives at the instant.
    Sent {
        /// Arrival instant at the destination.
        arrives: SimTime,
    },
    /// Not sent (loss backoff or fault-window suspension); re-step the hop
    /// at the instant.
    Retry {
        /// When to re-step.
        at: SimTime,
    },
    /// The retry budget is exhausted or a permanent fault blocks the pair.
    Failed(OracleError),
}

impl Hop {
    pub(crate) fn new(
        world: &World,
        from: EndpointId,
        to: EndpointId,
        size: u64,
        kind: HopKind,
    ) -> Hop {
        Hop {
            from,
            to,
            size,
            kind,
            attempt: 0,
            deadline: world.clock.now() + HOP_TIMEOUT,
        }
    }

    fn gave_up(&self, world: &mut World) -> HopPoll {
        world.metrics.incr("driver.hop.gave_up");
        HopPoll::Failed(OracleError::GaveUp {
            hop: self.kind,
            attempts: self.attempt,
            deadline: self.deadline,
        })
    }

    pub(crate) fn step(&mut self, world: &mut World) -> HopPoll {
        let now = world.clock.now();
        // A declared crash/partition window blocks the pair outright:
        // suspend without burning wire attempts and resume exactly at
        // recovery (or give up when recovery lies past the budget).
        if !world.fault_plan().allows(self.from, self.to, now) {
            world.metrics.incr("driver.hop.suspended");
            return match world.fault_plan().next_clear(self.from, self.to, now) {
                Some(at) if at <= self.deadline => HopPoll::Retry { at },
                _ => self.gave_up(world),
            };
        }
        self.attempt += 1;
        match world
            .net
            .transmit(self.from, self.to, self.size, &mut world.rng)
            .delay()
        {
            Some(d) => HopPoll::Sent { arrives: now + d },
            None => {
                world.metrics.incr("driver.hop.drops");
                if self.attempt >= MAX_HOP_ATTEMPTS {
                    return self.gave_up(world);
                }
                let at = now + hop_backoff(self.attempt);
                if at > self.deadline {
                    self.gave_up(world)
                } else {
                    HopPoll::Retry { at }
                }
            }
        }
    }
}
