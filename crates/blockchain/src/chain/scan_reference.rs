//! The block production the cursor walk and the targeted eviction
//! replaced — a snapshot of every pool key probed per block, and a scan of
//! the whole pool for stale nonces — kept as the reference the fast paths
//! are tested against.

use proptest::prelude::*;

use super::tests::{counter_access_fn, Counter};
use super::*;
use crate::mempool::PoolKey;
use duc_codec::encode_to_vec;

impl Blockchain {
    fn produce_block_by_scan(&mut self, timestamp: SimTime, proposer_idx: usize) {
        let height = self.blocks.height() + 1;
        let proposer = Address::from_public_key(&self.validators[proposer_idx].public());
        let mut included = Vec::new();
        let mut block_gas: u64 = 0;
        let ready: Vec<(PoolKey, u64)> = (self.mempool.iter())
            .map(|(key, entry)| (*key, entry.tx.tx.gas_limit))
            .collect();
        for (key, gas_limit) in ready {
            if key.1 != self.state.nonce(&key.0) {
                continue;
            }
            if block_gas.saturating_add(gas_limit) > self.max_block_gas {
                continue;
            }
            let entry = self.mempool.remove(&key).expect("key from mempool");
            block_gas += gas_limit;
            self.apply(&entry, height, timestamp, proposer);
            included.push(entry);
        }
        let stale: Vec<PoolKey> = (self.mempool.iter())
            .map(|(key, _)| *key)
            .filter(|(sender, nonce)| *nonce < self.state.nonce(sender))
            .collect();
        for key in stale {
            let entry = self.mempool.remove(&key).expect("stale key from mempool");
            self.record_superseded(entry.id, height);
        }
        self.seal_block(height, timestamp, proposer_idx, included);
    }

    /// The first entry in canonical order that the next block is certain
    /// to select: ready, and within the ceiling of a still-empty block.
    fn first_selectable(&self) -> Option<PoolKey> {
        (self.mempool.iter())
            .find(|((sender, nonce), entry)| {
                *nonce == self.state.nonce(sender) && entry.tx.tx.gas_limit <= self.max_block_gas
            })
            .map(|(key, _)| *key)
    }

    fn pool_keys(&self) -> Vec<PoolKey> {
        self.mempool.iter().map(|(key, _)| *key).collect()
    }
}

const CEILINGS: [u64; 5] = [100_000, 150_000, 5_000_000, 12_000_000, 30_000_000];

/// One generated pending transaction: `(nonce gap, gas-limit choice,
/// operation choice)`.
type TxSpec = (u64, usize, u8);

/// One sender: whether it is too poor for a 5 M-gas fee, and its pending
/// transactions in nonce order.
type SenderSpec = (bool, Vec<TxSpec>);

fn build_chain(mode: ExecMode, with_access: bool, ceiling: u64) -> Blockchain {
    let mut chain = Blockchain::builder()
        .validators(3)
        .max_block_gas(ceiling)
        .exec_mode(mode)
        .exec_threads(2)
        .build();
    for i in 0..3 {
        chain.deploy(ContractId::new(format!("ctr-{i}")), Box::new(Counter));
    }
    if with_access {
        chain.set_access_fn(counter_access_fn());
    }
    chain
}

/// Pools the generated transactions straight into the mempool — past
/// `submit`, so gas limits above the ceiling and unaffordable fees reach
/// the filler too — and returns their ids.
fn pool(chain: &mut Blockchain, senders: &[SenderSpec]) -> Vec<TxId> {
    let gas_limits = [
        0,
        1,
        chain.gas_schedule.tx_base - 1,
        60_000,
        5_000_000,
        chain.max_block_gas,
    ];
    let mut ids = Vec::new();
    for (s, (poor, txs)) in senders.iter().enumerate() {
        let balance = if *poor { 100_000 } else { 50_000_000_000 };
        let key = chain.create_funded_account(format!("sender-{s}").as_bytes(), balance);
        let from = Address::from_public_key(&key.public());
        let mut nonce = 0;
        for (gap, gas, op) in txs {
            // Gap 0 three times in four: mostly ready chains, some future
            // nonces that block the rest of their sender's queue.
            nonce += gap / 3;
            let contract = ContractId::new(format!("ctr-{}", op % 3));
            let kind = match op % 4 {
                0 => TxKind::Transfer {
                    to: Address::from_seed(b"sink"),
                    amount: 1_000,
                },
                1 => TxKind::Call {
                    contract,
                    method: "boom".into(),
                    args: vec![],
                },
                _ => TxKind::Call {
                    contract,
                    method: "incr".into(),
                    args: encode_to_vec(&(u64::from(*op),)),
                },
            };
            let entry = PoolEntry::new(
                Transaction {
                    from,
                    nonce,
                    kind,
                    gas_limit: gas_limits[*gas],
                }
                .sign(&key),
            );
            ids.push(entry.id);
            chain.mempool.insert(entry);
            nonce += 1;
        }
    }
    ids
}

/// Plants a stale entry — a nonce its sender's account is already past —
/// for the sender whose transaction the next block selects first, in
/// both chains. `submit` refuses such a transaction; a gossiping network
/// can still deliver one. Returns its id, or `None` when no sender with a
/// used nonce is about to be included.
fn plant_stale(fast: &mut Blockchain, reference: &mut Blockchain) -> Option<TxId> {
    let (sender, nonce) = fast.first_selectable()?;
    let stale_nonce = nonce.checked_sub(1)?;
    // The signature is never checked past `submit`; any key signs.
    let key = KeyPair::from_seed(b"stale");
    let tx = SignedTransaction {
        tx: Transaction {
            from: sender,
            nonce: stale_nonce,
            kind: TxKind::Transfer {
                to: Address::from_seed(b"sink"),
                amount: 1,
            },
            gas_limit: 60_000,
        },
        public_key: key.public(),
        signature: key.sign(b"stale"),
    };
    let id = tx.id();
    fast.mempool.insert(PoolEntry::new(tx.clone()));
    reference.mempool.insert(PoolEntry::new(tx));
    Some(id)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fast_filler_and_evictor_equal_the_scan(
        ceiling in 0usize..CEILINGS.len(),
        parallel in any::<bool>(),
        with_access in any::<bool>(),
        senders in proptest::collection::vec(
            (
                any::<bool>(),
                proptest::collection::vec((0u64..4, 0usize..6, any::<u8>()), 0..7),
            ),
            1..=8,
        ),
    ) {
        let mode = if parallel { ExecMode::Parallel } else { ExecMode::Serial };
        let mut fast = build_chain(mode, with_access, CEILINGS[ceiling]);
        let mut reference = build_chain(ExecMode::Serial, with_access, CEILINGS[ceiling]);
        let mut ids = pool(&mut fast, &senders);
        prop_assert_eq!(&pool(&mut reference, &senders), &ids);

        for slot in 1..=6u64 {
            if slot > 1 {
                ids.extend(plant_stale(&mut fast, &mut reference));
            }
            let timestamp = SimTime::from_secs(2 * slot);
            fast.produce_block(timestamp, slot as usize % 3);
            reference.produce_block_by_scan(timestamp, slot as usize % 3);

            // Contents and order, `tx_root` and the state commitment.
            prop_assert_eq!(fast.block(slot), reference.block(slot));
            prop_assert_eq!(fast.block(slot).unwrap().validate(), Ok(()));
            prop_assert_eq!(fast.state_commitment(), reference.state_commitment());
            for id in &ids {
                prop_assert_eq!(fast.receipt(id), reference.receipt(id));
            }
            prop_assert_eq!(fast.pool_keys(), reference.pool_keys());
            prop_assert_eq!(
                fast.mempool.min_gas_limit(),
                fast.mempool.iter().map(|(_, e)| e.tx.tx.gas_limit).min()
            );
        }
        prop_assert!(fast.events_since(0).iter().eq(reference.events_since(0).iter()));
        prop_assert_eq!(fast.gas_by_method(), reference.gas_by_method());
    }
}

#[test]
fn sealed_leaves_are_the_canonical_encodings() {
    let mut chain = build_chain(ExecMode::Serial, false, 30_000_000);
    let ids = pool(
        &mut chain,
        &[
            (false, vec![(0, 3, 0), (0, 4, 2)]),
            (false, vec![(0, 3, 1)]),
        ],
    );
    for (_, entry) in chain.mempool.iter() {
        assert_eq!(entry.encoded, encode_to_vec(&entry.tx));
        assert_eq!(entry.id, entry.tx.id());
    }
    chain.produce_block(SimTime::from_secs(2), 1);
    let block = chain.block(1).unwrap();
    assert_eq!(block.transactions.len(), ids.len());
    // `compute_tx_root` and `validate` re-encode from the fields.
    assert_eq!(
        block.header.tx_root,
        Block::compute_tx_root(&block.transactions)
    );
    assert_eq!(block.validate(), Ok(()));
}
