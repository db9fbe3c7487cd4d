//! `chain_ingest`: a bare ledger under write load with reads beside it.
//!
//! No world, driver, oracle or TEE: 256 senders each land one DE App
//! transaction per block — three blocks of `register_resource` (disjoint
//! inserts), then one of `update_policy` (overwrites plus events) — and
//! after every block the harness reads back 256 resource views, polls the
//! event log and fetches the 256 receipts. This isolates `crypto`,
//! `blockchain`, `contracts` and `codec`.

use duc_blockchain::{Address, Blockchain, ContractId, Ledger, TxId, TxStatus};
use duc_contracts::{DistExchange, DistExchangeClient, PolicyEnvelope, DEX_CONTRACT_ID};
use duc_crypto::KeyPair;
use duc_policy::{Action, Constraint, Duty, Rule, UsagePolicy};
use duc_sim::{SimDuration, SimTime};

use super::{
    peak_rss_mib, timed_setup, verify_chain, ChainSnapshot, CheckFailed, EstCounts, Measured,
    Window,
};
use crate::schedule::{IngestBlockKind, IngestSchedule};
use crate::trace::Tracer;

/// Sizes of `chain_ingest`.
#[derive(Debug, Clone)]
pub struct IngestSizes {
    /// Senders, and so transactions per block.
    pub senders: usize,
    /// In-window blocks.
    pub blocks: usize,
}

/// Block gas ceiling: high enough that a whole batch seals in one block.
const MAX_BLOCK_GAS: u64 = 10_000_000_000;

struct Sender {
    key: KeyPair,
    webid: String,
    pod_root: String,
}

fn policy_for(iri: &str, owner: &str, retention_days: u64, version: u64) -> PolicyEnvelope {
    let retention = SimDuration::from_days(retention_days);
    PolicyEnvelope::plain(
        &UsagePolicy::builder(format!("{iri}#policy"), iri, owner)
            .permit(
                Rule::permit([Action::Use]).with_constraint(Constraint::MaxRetention(retention)),
            )
            .duty(Duty::DeleteWithin(retention))
            .duty(Duty::LogAccesses)
            .version(version)
            .build(),
    )
}

/// Seals the next block and returns its slot time.
fn seal_next(chain: &mut Blockchain) -> SimTime {
    let slot = Ledger::next_slot_at(chain, Ledger::current_time(chain));
    Ledger::advance_to(chain, slot);
    slot
}

/// Runs one repeat.
///
/// # Errors
/// [`CheckFailed`] when a post-window integrity check does not hold.
pub fn run(seed: u64, sizes: &IngestSizes, tracer: &mut Tracer) -> Result<Measured, CheckFailed> {
    let mut out = Measured::default();
    let dex = DistExchangeClient::new();

    // ---- set-up: chain, DE App, funded senders, pods, first resources.
    let iri = |s: &Sender, suffix: u64| format!("{}r/{suffix:08x}", s.pod_root);
    let (mut chain, schedule, senders, mut registered) = timed_setup(&mut out, || {
        let schedule = IngestSchedule::generate(seed, sizes.senders, sizes.blocks);
        let mut chain = Blockchain::builder().max_block_gas(MAX_BLOCK_GAS).build();
        Ledger::deploy_with(&mut chain, ContractId::new(DEX_CONTRACT_ID), &|| {
            Box::new(DistExchange::default())
        });
        Ledger::install_access_fn(&mut chain, &duc_contracts::dex_access_fn);
        let admin = Ledger::create_funded_account(&mut chain, b"bench/admin", 1_000_000_000);
        let init = dex.init_tx(
            &chain,
            &admin,
            10_000,
            SimDuration::from_days(30).as_nanos(),
            Address::from_seed(b"bench/treasury"),
        );
        Ledger::submit(&mut chain, init).map_err(|e| CheckFailed(format!("init: {e}")))?;
        seal_next(&mut chain);

        let senders: Vec<Sender> = (0..sizes.senders)
            .map(|j| {
                let webid = format!("https://s{j}.id/me");
                Sender {
                    key: Ledger::create_funded_account(
                        &mut chain,
                        webid.as_bytes(),
                        u128::from(u64::MAX),
                    ),
                    pod_root: format!("https://s{j}.pod/"),
                    webid,
                }
            })
            .collect();
        for s in &senders {
            let env =
                PolicyEnvelope::plain(&UsagePolicy::default_for(s.pod_root.clone(), &s.webid));
            let tx = dex.register_pod_tx(&chain, &s.key, &s.webid, &s.pod_root, env);
            Ledger::submit(&mut chain, tx)
                .map_err(|e| CheckFailed(format!("register_pod: {e}")))?;
        }
        seal_next(&mut chain);

        // Every resource registered so far, in view-index order.
        let mut registered: Vec<String> = Vec::with_capacity(sizes.senders * (sizes.blocks + 1));
        for (s, suffix) in senders.iter().zip(&schedule.seed_suffixes) {
            let name = iri(s, *suffix);
            let tx = dex.register_resource_tx(
                &chain,
                &s.key,
                &name,
                &name,
                &s.webid,
                vec![],
                policy_for(&name, &s.webid, 30, 1),
            );
            Ledger::submit(&mut chain, tx)
                .map_err(|e| CheckFailed(format!("register_resource: {e}")))?;
            registered.push(name);
        }
        seal_next(&mut chain);
        if Ledger::pending_count(&chain) != 0 {
            return Err(CheckFailed(
                "set-up blocks did not drain the mempool".into(),
            ));
        }
        Ok((chain, schedule, senders, registered))
    })?;
    // `latest[j]` is sender j's resource from the most recent register
    // block; `update_targets` what the next update block overwrites.
    let mut latest: Vec<usize> = (0..sizes.senders).collect();
    let mut update_targets = latest.clone();
    out.det_u64("_schedule_digest", schedule.digest());

    // ---- window.
    let before = ChainSnapshot::take(&chain);
    let sim_start = Ledger::current_time(&chain);
    let mut cursor = Ledger::height(&chain);
    let mut events_polled = 0u64;

    tracer.enter("workload");
    let mut win = Window::open();
    let mut ids: Vec<TxId> = Vec::with_capacity(sizes.senders);
    for block in &schedule.blocks {
        win.batch_begin(tracer);
        tracer.enter("batch");
        // Clients submit at a seeded instant inside the block interval, so
        // inclusion latency is the rest of the interval, not a constant.
        let submitted_at =
            Ledger::current_time(&chain) + SimDuration::from_nanos(block.submit_offset_ns);
        Ledger::advance_to(&mut chain, submitted_at);

        // Build + sign, then submit, one transaction per sender.
        tracer.enter("phase.tx_build_sign");
        let mut txs = Vec::with_capacity(sizes.senders);
        match &block.kind {
            IngestBlockKind::Register(suffixes) => {
                for (j, (s, suffix)) in senders.iter().zip(suffixes).enumerate() {
                    let name = iri(s, *suffix);
                    let env = policy_for(&name, &s.webid, 30, 1);
                    txs.push(tracer.call("contracts.register_resource_tx", || {
                        dex.register_resource_tx(
                            &chain,
                            &s.key,
                            &name,
                            &name,
                            &s.webid,
                            vec![],
                            env,
                        )
                    }));
                    latest[j] = registered.len();
                    registered.push(name);
                }
            }
            IngestBlockKind::Update => {
                for (s, target) in senders.iter().zip(&update_targets) {
                    let name = &registered[*target];
                    let env = policy_for(name, &s.webid, 7, 2);
                    txs.push(tracer.call("contracts.update_policy_tx", || {
                        dex.update_policy_tx(&chain, &s.key, name, env, 2)
                    }));
                }
                // The next group updates what this group registered last.
                update_targets.clone_from(&latest);
            }
        }
        tracer.exit();

        tracer.enter("phase.chain_submit");
        ids.clear();
        win.attempt(txs.len() as u64);
        for tx in txs {
            match tracer.call("blockchain.submit", || Ledger::submit(&mut chain, tx)) {
                Ok(id) => ids.push(id),
                Err(e) => win.fail(format!("submit: {e}")),
            }
        }
        tracer.exit();

        tracer.enter("phase.chain_seal");
        let sealed_at = tracer.call("blockchain.advance_to", || seal_next(&mut chain));
        tracer.exit();

        tracer.enter("phase.receipt");
        for id in &ids {
            match tracer.call("blockchain.receipt", || Ledger::receipt(&chain, id)) {
                Some(receipt) if receipt.status == TxStatus::Ok => {
                    win.fold_u64(receipt.block_height);
                    win.fold_u64(receipt.gas_used);
                    win.latency((sealed_at - submitted_at).as_nanos());
                }
                Some(receipt) => win.fail(format!("tx {:?}: {:?}", id, receipt.status)),
                None => win.fail(format!("tx {id:?} not in the block sealed after it")),
            }
        }
        tracer.exit();

        tracer.enter("phase.view");
        for target in &block.views {
            let name = &registered[*target as usize];
            match tracer.call("contracts.lookup_resource", || {
                dex.lookup_resource(&chain, name)
            }) {
                Ok(Some(record)) => win.fold_u64(record.policy_version),
                Ok(None) => win.fail(format!("view: {name} not found")),
                Err(e) => win.fail(format!("view: {e:?}")),
            }
        }
        tracer.exit();

        tracer.enter("phase.events_poll");
        let fresh = tracer.call("blockchain.events_since", || {
            Ledger::events_since(&chain, cursor).len()
        });
        events_polled += fresh as u64;
        cursor = Ledger::height(&chain);
        tracer.exit();

        tracer.exit();
        win.batch_end();
    }
    let makespan = (Ledger::current_time(&chain) - sim_start).as_nanos();
    let gas = before.gas_since(&chain);
    win.fold_u64(events_polled);
    win.close(&mut out, tracer, makespan, gas);
    tracer.exit();

    let txs = before.counts_since(&chain, &mut out);
    EstCounts {
        views: txs,
        event_polls: schedule.blocks.len() as u64,
        ..EstCounts::default()
    }
    .write(&mut out, &chain, txs);
    out.det_f64("count.driver_steps_per_req", 0.0);
    out.det_f64("count.tee.decision_cache_hit_ratio", 0.0);
    out.det_f64("count.monitoring.evidence_per_round", 0.0);
    out.det_u64("count.policy_mod.devices_notified", 0);
    out.wall("peak_rss_mib", peak_rss_mib());

    verify_chain(&chain)?;
    Ok(out)
}
