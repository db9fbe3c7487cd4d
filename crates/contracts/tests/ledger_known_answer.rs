//! Known answers for a bare ledger with thousands of accounts: 2 048
//! funded senders each send a transfer, then a seeded mix of transfers,
//! pod registrations (repeats revert) and resource registrations (before
//! their pod, they revert) fills five more rounds. On one chain, every
//! block's state root and the gas table are pinned as recorded before the
//! account table was hashed; the table's layout must never show in either.
//! With pruning on and off, the SHA-256 of every receipt and of every event
//! read the mix makes is pinned as recorded while receipts sat in a map
//! beside a separate event log. Never re-record.

use std::borrow::Borrow;

use duc_blockchain::tx::TxKind;
use duc_blockchain::{
    Address, Blockchain, ContractId, Receipt, SignedTransaction, StorageConfig, Transaction, TxId,
    TxStatus,
};
use duc_contracts::calls::Init;
use duc_contracts::{DistExchange, DistExchangeClient, PolicyEnvelope, DEX_CONTRACT_ID};
use duc_crypto::{KeyPair, Sha256};
use duc_policy::UsagePolicy;
use duc_sim::{Rng, SimDuration, SimTime};

const SENDERS: usize = 2_048;

fn webid(i: usize) -> String {
    format!("https://owner-{i}.id/me")
}

fn pod(i: usize) -> String {
    format!("https://owner-{i}.pod/")
}

/// A transfer signed with the nonce the chain expects next.
fn transfer(chain: &Blockchain, key: &KeyPair, to: Address, amount: u128) -> SignedTransaction {
    let from = Address::from_public_key(&key.public());
    Transaction {
        from,
        nonce: chain.next_nonce(&from),
        kind: TxKind::Transfer { to, amount },
        gas_limit: 30_000,
    }
    .sign(key)
}

/// Runs the mix on `chain`: six rounds of submissions, one two-second
/// advance each, then advances until the mempool is empty. After every
/// advance, `sealed(chain, blocks produced, ids submitted this round)`
/// runs. Returns every submitted id, in submission order.
fn run_mix(
    chain: &mut Blockchain,
    mut sealed: impl FnMut(&Blockchain, usize, &[TxId]),
) -> Vec<TxId> {
    chain.deploy(
        ContractId::new(DEX_CONTRACT_ID),
        Box::new(DistExchange::default()),
    );
    let admin = chain.create_funded_account(b"admin", 1_000_000_000);
    let senders: Vec<KeyPair> = (0..SENDERS)
        .map(|i| chain.create_funded_account(format!("sender-{i}").as_bytes(), 1_000_000_000))
        .collect();
    let addresses: Vec<Address> = senders
        .iter()
        .map(|k| Address::from_public_key(&k.public()))
        .collect();
    let dex = DistExchangeClient::new();
    let init = Init {
        fee: 10_000,
        validity_nanos: 86_400_000_000_000,
        treasury: Address::from_seed(b"treasury"),
    };
    let init = dex.call_tx(chain, &admin, init);
    chain.submit(init).expect("init submits");

    let mut rng = Rng::seed_from_u64(0x0ACC_0075);
    let mut now = SimTime::ZERO;
    let mut ids = Vec::new();
    for block in 0..6 {
        let first = ids.len();
        let txs = if block == 0 { SENDERS } else { 600 };
        for n in 0..txs {
            let i = if block == 0 {
                n
            } else {
                rng.gen_range(SENDERS as u64) as usize
            };
            let key = &senders[i];
            let tx = match if block == 0 { 0 } else { rng.gen_range(4) } {
                0 | 1 => {
                    let to = addresses[rng.gen_range(SENDERS as u64) as usize];
                    transfer(chain, key, to, u128::from(rng.gen_range(1_000)) + 1)
                }
                2 => dex.register_pod_tx(
                    chain,
                    key,
                    &webid(i),
                    &pod(i),
                    PolicyEnvelope::plain(&UsagePolicy::default_for(pod(i), webid(i))),
                ),
                _ => {
                    let resource = format!("{}r{}", pod(i), rng.gen_range(8));
                    dex.register_resource_tx(
                        chain,
                        key,
                        &resource,
                        &resource,
                        &webid(i),
                        vec![],
                        PolicyEnvelope::plain(&UsagePolicy::default_for(&resource, webid(i))),
                    )
                }
            };
            ids.push(chain.submit(tx).expect("mix submits"));
        }
        now += SimDuration::from_secs(2);
        let produced = chain.advance_to(now);
        sealed(chain, produced, &ids[first..]);
    }
    while chain.pending_count() > 0 {
        now += SimDuration::from_secs(2);
        let produced = chain.advance_to(now);
        sealed(chain, produced, &[]);
    }
    ids
}

#[test]
fn state_roots_and_gas_over_thousands_of_senders_are_pinned() {
    let mut chain = Blockchain::builder()
        .validators(4)
        .block_interval(SimDuration::from_secs(2))
        .max_block_gas(1 << 40)
        .build();
    let mut roots = Vec::new();
    let ids = run_mix(&mut chain, |chain, produced, _| {
        assert_eq!(produced, 1, "block {}", roots.len());
        let header = &chain.block(chain.height()).expect("sealed").header;
        roots.push(header.state_root.to_hex());
    });
    chain.verify_pages().expect("state integrity");
    let (mut ok, mut reverted) = (0, 0);
    for id in &ids {
        let receipt = chain.receipt(id).expect("every transaction included");
        match &receipt.status {
            TxStatus::Ok => ok += 1,
            TxStatus::Reverted(_) => reverted += 1,
            other => panic!("{other:?}"),
        }
    }
    assert_eq!((ok, reverted), (4_287, 761));
    assert_eq!(
        roots,
        [
            "94a017af16c06ebef31c194ac8ad7b7b209093c219cdf59d9125c1267449a3ea",
            "09d211e154e745f6f2bf0307a6a3fb3a622560523decd648e7d3506c2e56dedb",
            "5570300f46c49221f0222efb21a65e7a2902b613f1509f82a98034c337e4e349",
            "7daced3ac00189527a4ff10ab47b283c127a22c733b4922155c7d9588c991d16",
            "406b7b31fa1c7399fa4d5efa449b2a8d1d39d0477c0f98a9a66f7076345871e6",
            "137154fe60766b6fe81530694eec711824e692571825fe54867bb80b4661507d",
        ]
    );
    let gas = chain.gas_by_method();
    let gas: Vec<_> = (gas.iter())
        .map(|((contract, method), &totals)| (contract.as_str(), method.as_str(), totals))
        .collect();
    assert_eq!(
        gas,
        [
            ("dist-exchange", "init", (1, 78_478, 78_478)),
            ("dist-exchange", "register_pod", (733, 130_488_623, 178_019)),
            (
                "dist-exchange",
                "register_resource",
                (768, 46_429_786, 60_455)
            ),
            ("native", "transfer", (3_547, 81_353_992, 22_936)),
        ]
    );
}

fn absorb_len(h: &mut Sha256, n: usize) {
    h.update(&(n as u64).to_le_bytes());
}

fn absorb_bytes(h: &mut Sha256, bytes: &[u8]) {
    absorb_len(h, bytes.len());
    h.update(bytes);
}

/// Absorbs one receipt lookup: absent, or every field of the receipt.
fn absorb_receipt(h: &mut Sha256, receipt: Option<impl Borrow<Receipt>>) {
    let Some(r) = receipt else {
        h.update(b"none");
        return;
    };
    let r = r.borrow();
    h.update(r.tx_id.0.as_bytes());
    h.update(&r.block_height.to_le_bytes());
    absorb_bytes(h, format!("{:?}", r.status).as_bytes());
    h.update(&r.gas_used.to_le_bytes());
    absorb_len(h, r.events.len());
    for event in &r.events {
        absorb_bytes(h, event.contract.as_str().as_bytes());
        absorb_bytes(h, event.topic.as_bytes());
        absorb_bytes(h, &event.data);
    }
    absorb_bytes(h, &r.return_data);
}

/// Absorbs one `events_since` (`try_events_since` when `checked`) read
/// from `cursor`: its error's horizon, or its length and every
/// `(height, event)` it yields.
fn absorb_events(h: &mut Sha256, chain: &Blockchain, cursor: u64, checked: bool) {
    h.update(&cursor.to_le_bytes());
    let events = if checked {
        match chain.try_events_since(cursor) {
            Ok(events) => events,
            Err(pruned) => {
                h.update(b"pruned");
                h.update(&pruned.horizon.to_le_bytes());
                return;
            }
        }
    } else {
        chain.events_since(cursor)
    };
    absorb_len(h, events.len());
    for (height, event) in events.iter() {
        h.update(&height.to_le_bytes());
        absorb_bytes(h, event.contract.as_str().as_bytes());
        absorb_bytes(h, event.topic.as_bytes());
        absorb_bytes(h, &event.data);
    }
}

/// The SHA-256 digests of one mix run, as hex.
#[derive(Debug, PartialEq, Eq)]
struct History {
    /// What a poller sees as blocks seal: each round's receipts read right
    /// after the advance that sealed them, and every advance's fresh events
    /// (`events_since` and `try_events_since` from the height before it).
    /// Pruning must not move it.
    fresh: String,
    /// What the whole history reads as: after every advance, both reads
    /// from cursor 0 and from the prune horizon; at the end, every receipt.
    whole: String,
}

fn history(mut chain: Blockchain) -> History {
    let (mut fresh, mut whole) = (Sha256::new(), Sha256::new());
    let mut cursor = 0;
    let ids = run_mix(&mut chain, |chain, produced, round| {
        absorb_len(&mut fresh, produced);
        for id in round {
            absorb_receipt(&mut fresh, chain.receipt(id));
        }
        absorb_events(&mut fresh, chain, cursor, false);
        absorb_events(&mut fresh, chain, cursor, true);
        cursor = chain.height();
        let horizon = chain.prune_horizon();
        whole.update(&[cursor, horizon].map(u64::to_le_bytes).concat());
        for from in [0, horizon] {
            absorb_events(&mut whole, chain, from, false);
            absorb_events(&mut whole, chain, from, true);
        }
    });
    for id in &ids {
        absorb_receipt(&mut whole, chain.receipt(id));
    }
    History {
        fresh: fresh.finalize().to_hex(),
        whole: whole.finalize().to_hex(),
    }
}

fn one_chain(storage: StorageConfig) -> History {
    history(
        Blockchain::builder()
            .validators(4)
            .block_interval(SimDuration::from_secs(2))
            .max_block_gas(1 << 40)
            .storage(storage)
            .build(),
    )
}

#[test]
fn receipts_and_event_reads_on_one_chain_are_pinned() {
    let kept = one_chain(StorageConfig::disabled());
    let pruned = one_chain(StorageConfig::enabled(2, 1));
    assert_eq!(kept.fresh, pruned.fresh, "pruning moved what a poller sees");
    assert_eq!(
        [kept.fresh, kept.whole, pruned.whole],
        [
            "37c1c911c7ef93be15f0153f13ea8f3df9f5fdcb5f36d28bf17af438df48c1fa",
            "5b47f0bbb45e64d83cb98de0acc974b98ca6e82970bf7cf501794dcf7d341f72",
            "ef277889caac16d73442dec4adccb9bfb97cdcb63fcdf602042e7db7b66d4177",
        ]
    );
}
