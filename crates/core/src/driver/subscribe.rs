//! Market subscription — the certificate prerequisite of process 4 (§II).

use duc_blockchain::{Ledger, Receipt};
use duc_contracts::DistExchangeClient;
use duc_sim::SimTime;

use crate::world::World;

use super::flow::{FlowPoll, TxFlow};
use super::{Outcome, ProcessError, Step};

/// Market subscription (prerequisite of process 4, cf. §II).
pub(crate) struct Subscribe<L> {
    device: String,
    started: SimTime,
    phase: SubscribePhase<L>,
}

enum SubscribePhase<L> {
    Start,
    Confirm(TxFlow<L>),
}

impl<L: Ledger> Subscribe<L> {
    pub(super) fn new(device: String, started: SimTime) -> Self {
        Subscribe {
            device,
            started,
            phase: SubscribePhase::Start,
        }
    }

    pub(super) fn step(&mut self, world: &mut World<L>) -> Step {
        match &mut self.phase {
            SubscribePhase::Start => {
                let Some(dev) = world.try_device(&self.device) else {
                    return Step::Done(Err(ProcessError::UnknownDevice(self.device.clone())));
                };
                let endpoint = dev.endpoint;
                let key = dev.key;
                let webid = dev.webid.clone();
                let build = move |w: &World<L>| w.dex.subscribe_tx(&w.chain, &key, &webid);
                self.phase = SubscribePhase::Confirm(TxFlow::new(world, endpoint, build));
                self.step(world)
            }
            SubscribePhase::Confirm(flow) => match flow.step(world) {
                FlowPoll::Sleep(wake) => Step::Sleep(wake),
                FlowPoll::Done(res) => {
                    Step::Done(res.and_then(|receipt| self.certified(world, receipt)))
                }
            },
        }
    }

    /// The purchase executed: the device stores its certificate.
    fn certified(&self, world: &mut World<L>, receipt: Receipt) -> Result<Outcome, ProcessError> {
        let certificate = DistExchangeClient::decode_certificate(&receipt.return_data)
            .map_err(|e| ProcessError::Policy(e.to_string()))?;
        world
            .devices
            .get_mut(&self.device)
            .expect("validated at submit")
            .certificate = Some(certificate);
        let now = world.clock.now();
        world
            .metrics
            .record("process.subscribe.e2e", now - self.started);
        world.metrics.add("process.subscribe.gas", receipt.gas_used);
        Ok(Outcome::Subscribed { certificate })
    }
}
