//! Comparison baselines (experiment E10).
//!
//! * [`PlainSolidBaseline`] — what Solid offers today: access control only.
//!   A consumer fetches the resource and the owner's control ends there: no
//!   copy registration, no policy propagation, no monitoring. Cheaper per
//!   access — and the measured difference *is* the price of usage control.
//! * [`CentralizedAuditBaseline`] — usage monitoring without blockchain or
//!   oracles: the owner polls every device directly. Fewer hops than the
//!   on-chain round, but evidence is neither signed into a tamper-proof
//!   ledger nor available to third parties, and the owner must know every
//!   copy-holder out of band (the trust gaps §V-2 attributes to
//!   centralized designs).

use duc_blockchain::Ledger;
use duc_crypto::sha256;
use duc_oracle::OracleError;
use duc_sim::SimDuration;
use duc_solid::{SolidRequest, Status};

use crate::driver::ProcessError;
use crate::world::World;

/// Access-control-only Solid (no usage control).
#[derive(Debug, Clone, Copy, Default)]
pub struct PlainSolidBaseline;

impl PlainSolidBaseline {
    /// Fetches `path` from `owner_webid`'s pod for `device`, with plain
    /// ACL checking only. Returns the end-to-end latency.
    ///
    /// # Errors
    /// Fails on unknown participants, network loss, or an ACL denial.
    pub fn access<L: Ledger>(
        world: &mut World<L>,
        device: &str,
        owner_webid: &str,
        path: &str,
    ) -> Result<SimDuration, ProcessError> {
        let start = world.clock.now();
        let dev = world
            .devices
            .get(device)
            .ok_or_else(|| ProcessError::UnknownDevice(device.to_string()))?;
        let dev_endpoint = dev.endpoint;
        let webid = dev.webid.clone();
        let owner = world
            .owners
            .get(owner_webid)
            .ok_or_else(|| ProcessError::UnknownOwner(owner_webid.to_string()))?;
        let owner_endpoint = owner.endpoint;

        // Request hop. The baseline still authenticates (WebID) but there
        // is no certificate economy; a placeholder digest satisfies the
        // transport framing.
        let request = SolidRequest::get(webid, path).with_certificate(sha256(b"n/a"));
        let hop = world
            .net
            .transmit(
                dev_endpoint,
                owner_endpoint,
                request.size() as u64,
                &mut world.rng,
            )
            .delay()
            .ok_or(ProcessError::Oracle(OracleError::NetworkDropped))?;
        world.clock.advance(hop);

        let owner = world.owners.get_mut(owner_webid).expect("checked above");
        let accept_all = |_: &duc_crypto::Digest, _: &str| true;
        let resp = owner
            .pod_manager
            .handle_with_verifier(&request, &accept_all);
        if resp.status != Status::Ok {
            return Err(ProcessError::Solid {
                status: resp.status,
                detail: resp.detail,
            });
        }
        let hop_back = world
            .net
            .transmit(
                owner_endpoint,
                dev_endpoint,
                resp.size() as u64,
                &mut world.rng,
            )
            .delay()
            .ok_or(ProcessError::Oracle(OracleError::NetworkDropped))?;
        world.clock.advance(hop_back);

        let e2e = world.clock.now() - start;
        world.metrics.record("baseline.plain_solid.access", e2e);
        Ok(e2e)
    }
}

/// The result of one centralized audit sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CentralizedAuditOutcome {
    /// Devices successfully polled.
    pub polled: usize,
    /// Devices that reported violations.
    pub violators: Vec<String>,
    /// Report bytes shipped.
    pub bytes: usize,
    /// Wall-clock duration.
    pub duration: SimDuration,
}

/// Usage monitoring by direct owner-to-device polling (no chain).
#[derive(Debug, Clone, Copy, Default)]
pub struct CentralizedAuditBaseline;

impl CentralizedAuditBaseline {
    /// Polls `devices` about `path` directly from the owner's pod manager.
    ///
    /// # Errors
    /// Fails on unknown participants. Unreachable devices are skipped (and
    /// simply missing from the outcome — the baseline has no ledger to
    /// record the gap in, which is exactly its weakness).
    pub fn monitor<L: Ledger>(
        world: &mut World<L>,
        owner_webid: &str,
        path: &str,
        devices: &[String],
    ) -> Result<CentralizedAuditOutcome, ProcessError> {
        let start = world.clock.now();
        let owner = world
            .owners
            .get(owner_webid)
            .ok_or_else(|| ProcessError::UnknownOwner(owner_webid.to_string()))?;
        let owner_endpoint = owner.endpoint;
        let resource_iri = owner.pod_manager.pod().iri_of(path);

        let mut polled = 0usize;
        let mut violators = Vec::new();
        let mut bytes = 0usize;
        for name in devices {
            let Some(device) = world.devices.get(name) else {
                continue;
            };
            let dev_endpoint = device.endpoint;
            let Some(hop) = world
                .net
                .transmit(owner_endpoint, dev_endpoint, 128, &mut world.rng)
                .delay()
            else {
                continue;
            };
            world.clock.advance(hop);
            let Some(report) = device.tee.report(&resource_iri, world.clock.now()) else {
                continue;
            };
            let report_size = 128 + report.violations.iter().map(String::len).sum::<usize>();
            let Some(hop_back) = world
                .net
                .transmit(
                    dev_endpoint,
                    owner_endpoint,
                    report_size as u64,
                    &mut world.rng,
                )
                .delay()
            else {
                continue;
            };
            world.clock.advance(hop_back);
            polled += 1;
            bytes += report_size;
            if !report.compliant {
                violators.push(name.clone());
            }
        }
        let duration = world.clock.now() - start;
        world
            .metrics
            .record("baseline.central_audit.round", duration);
        Ok(CentralizedAuditOutcome {
            polled,
            violators,
            bytes,
            duration,
        })
    }
}
