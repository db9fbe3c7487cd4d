//! Market subscription — the certificate prerequisite of process 4 (§II).

use duc_blockchain::{Ledger, Receipt};
use duc_contracts::DistExchangeClient;
use duc_crypto::Digest;
use duc_sim::SimTime;

use crate::world::World;

use super::flow::{FlowPoll, PreparedCall, TxFlow};
use super::{Outcome, ProcessError, Step};

/// Market subscription (prerequisite of process 4, cf. §II).
pub(crate) struct Subscribe {
    device: String,
    started: SimTime,
    phase: SubscribePhase,
}

enum SubscribePhase {
    Start,
    Confirm(TxFlow),
}

/// The off-chain half: the device signs its subscription purchase.
pub(crate) fn prepare<L: Ledger>(
    world: &World<L>,
    device: &str,
) -> Result<PreparedCall, ProcessError> {
    let Some(dev) = world.try_device(device) else {
        return Err(ProcessError::UnknownDevice(device.to_string()));
    };
    let (from, key) = (dev.endpoint, dev.key);
    let tx = world.dex.subscribe_tx(&world.chain, &key, &dev.webid);
    Ok(PreparedCall { from, key, tx })
}

/// The confirmed tail: the device stores the certificate its purchase
/// returned.
pub(crate) fn certified<L: Ledger>(
    world: &mut World<L>,
    device: &str,
    receipt: &Receipt,
) -> Result<Digest, ProcessError> {
    let certificate = DistExchangeClient::decode_certificate(&receipt.return_data)
        .map_err(|e| ProcessError::Policy(e.to_string()))?;
    let dev = world.devices.get_mut(device).expect("prepared above");
    dev.certificate = Some(certificate);
    Ok(certificate)
}

impl Subscribe {
    pub(super) fn new(device: String, started: SimTime) -> Self {
        Subscribe {
            device,
            started,
            phase: SubscribePhase::Start,
        }
    }

    pub(super) fn step<L: Ledger>(&mut self, world: &mut World<L>) -> Step {
        match &mut self.phase {
            SubscribePhase::Start => {
                let call = match prepare(world, &self.device) {
                    Ok(call) => call,
                    Err(e) => return Step::Done(Err(e)),
                };
                self.phase = SubscribePhase::Confirm(TxFlow::new(world, call));
                self.step(world)
            }
            SubscribePhase::Confirm(flow) => match flow.step(world) {
                FlowPoll::Sleep(wake) => Step::Sleep(wake),
                FlowPoll::Done(res) => Step::Done(res.and_then(|receipt| {
                    let certificate = certified(world, &self.device, &receipt)?;
                    let e2e = world.clock.now() - self.started;
                    world.metrics.record("process.subscribe.e2e", e2e);
                    world.metrics.add("process.subscribe.gas", receipt.gas_used);
                    Ok(Outcome::Subscribed { certificate })
                })),
            },
        }
    }
}
