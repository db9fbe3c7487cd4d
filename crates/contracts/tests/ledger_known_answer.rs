//! A known answer for a bare ledger with thousands of accounts: 2 048
//! funded senders each send a transfer, then a seeded mix of transfers,
//! pod registrations (repeats revert) and resource registrations (before
//! their pod, they revert) fills five more blocks. Every block's state root
//! and the gas table are pinned as recorded before the account table was
//! hashed; the table's layout must never show in either. Never re-record.

use duc_blockchain::tx::TxKind;
use duc_blockchain::{Address, Blockchain, ContractId, Transaction, TxStatus};
use duc_contracts::{DistExchange, DistExchangeClient, PolicyEnvelope, DEX_CONTRACT_ID};
use duc_crypto::KeyPair;
use duc_policy::UsagePolicy;
use duc_sim::{Rng, SimDuration, SimTime};

const SENDERS: usize = 2_048;

fn webid(i: usize) -> String {
    format!("https://owner-{i}.id/me")
}

fn pod(i: usize) -> String {
    format!("https://owner-{i}.pod/")
}

fn transfer(chain: &Blockchain, key: &KeyPair, to: Address, amount: u128) -> Transaction {
    let from = Address::from_public_key(&key.public());
    Transaction {
        from,
        nonce: chain.next_nonce(&from),
        kind: TxKind::Transfer { to, amount },
        gas_limit: 30_000,
    }
}

#[test]
fn state_roots_and_gas_over_thousands_of_senders_are_pinned() {
    let mut chain = Blockchain::builder()
        .validators(4)
        .block_interval(SimDuration::from_secs(2))
        .max_block_gas(1 << 40)
        .build();
    chain.deploy(ContractId::new(DEX_CONTRACT_ID), Box::new(DistExchange));
    let admin = chain.create_funded_account(b"admin", 1_000_000_000);
    let senders: Vec<KeyPair> = (0..SENDERS)
        .map(|i| chain.create_funded_account(format!("sender-{i}").as_bytes(), 1_000_000_000))
        .collect();
    let addresses: Vec<Address> = senders
        .iter()
        .map(|k| Address::from_public_key(&k.public()))
        .collect();
    let dex = DistExchangeClient::new();
    let treasury = Address::from_seed(b"treasury");
    let init = dex.init_tx(&chain, &admin, 10_000, 86_400_000_000_000, treasury);
    chain.submit(init).expect("init submits");

    let mut rng = Rng::seed_from_u64(0x0ACC_0075);
    let mut now = SimTime::ZERO;
    let mut roots = Vec::new();
    let mut ids = Vec::new();
    for block in 0..6 {
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
                    transfer(&chain, key, to, u128::from(rng.gen_range(1_000)) + 1).sign(key)
                }
                2 => dex.register_pod_tx(
                    &chain,
                    key,
                    &webid(i),
                    &pod(i),
                    PolicyEnvelope::plain(&UsagePolicy::default_for(pod(i), webid(i))),
                ),
                _ => {
                    let resource = format!("{}r{}", pod(i), rng.gen_range(8));
                    dex.register_resource_tx(
                        &chain,
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
        assert_eq!(chain.advance_to(now), 1, "block {block}");
        let header = &chain.block(chain.height()).expect("sealed").header;
        roots.push(header.state_root.to_hex());
    }
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
