//! Property tests for the block decoder — the reader of every archived
//! block.
//!
//! decode∘encode is the identity on sealed blocks. Arbitrary bytes, and a
//! valid encoding with one byte changed, either are refused or decode to a
//! block that re-encodes to exactly those bytes; `validate` never panics on
//! what decodes, and never accepts a block with a byte changed, since the
//! proposer's signature, the transaction root and each transaction's
//! signature cover every byte. The corpus includes the block whose
//! duplicated last transaction keeps its `tx_root`.
//!
//! `header_known_answers` pins the bytes a proposer signs and the header's
//! full encoding, recorded before the header's codec was derived from its
//! field list; never re-record them.

use duc_blockchain::block::BlockValidationError;
use duc_blockchain::tx::TxKind;
use duc_blockchain::{Address, Block, ContractId, SignedTransaction, Transaction};
use duc_codec::{decode_from_slice, encode_to_vec};
use duc_crypto::{sha256, Digest, KeyPair};
use duc_sim::SimTime;
use proptest::prelude::*;

fn key(i: u8) -> KeyPair {
    KeyPair::from_seed(&[b'k', i])
}

fn digest() -> impl Strategy<Value = Digest> {
    any::<u64>().prop_map(|n| sha256(&n.to_le_bytes()))
}

/// A signed transaction from one of three senders. Nonces are given by
/// position, so `(sender, nonce)` never repeats within a block.
fn signed(nonce: u64, sender: u8, kind: TxKind, gas_limit: u64) -> SignedTransaction {
    let key = key(sender);
    Transaction {
        from: Address::from_public_key(&key.public()),
        nonce,
        kind,
        gas_limit,
    }
    .sign(&key)
}

fn kind() -> impl Strategy<Value = TxKind> {
    prop_oneof![
        (any::<u64>(), any::<u128>()).prop_map(|(to, amount)| TxKind::Transfer {
            to: Address::from_seed(&to.to_le_bytes()),
            amount,
        }),
        (
            "[a-z-]{0,12}",
            "[a-z_]{0,12}",
            proptest::collection::vec(any::<u8>(), 0..48)
        )
            .prop_map(|(contract, method, args)| TxKind::Call {
                contract: ContractId::new(contract),
                method,
                args,
            }),
    ]
}

fn sealed() -> impl Strategy<Value = Block> {
    let txs = proptest::collection::vec((0u8..3, kind(), any::<u64>()), 0..5);
    (any::<u64>(), digest(), digest(), any::<u64>(), 0u8..3, txs).prop_map(
        |(height, parent, state_root, nanos, proposer, txs)| {
            let txs = (0..)
                .zip(txs)
                .map(|(nonce, (sender, kind, gas))| signed(nonce, sender, kind, gas))
                .collect();
            Block::seal(
                height,
                parent,
                state_root,
                SimTime::from_nanos(nanos),
                txs,
                &key(proposer),
            )
        },
    )
}

/// `[a, b, c]` sealed, then `c` appended again: the Merkle root pairs an
/// odd node with itself, so the signed header still matches.
fn duplicated_last_transaction() -> Block {
    let transfer = |nonce| {
        let to = Address::from_seed(b"bob");
        signed(nonce, 0, TxKind::Transfer { to, amount: 1 }, 50_000)
    };
    let mut block = Block::seal(
        1,
        Digest::ZERO,
        sha256(b"state"),
        SimTime::from_secs(2),
        vec![transfer(0), transfer(1), transfer(2)],
        &key(1),
    );
    block.transactions.push(transfer(2));
    block
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn header_known_answers() {
    let header = duplicated_last_transaction().header;
    let signing: &[&str] = &[
        "01000000000000000000000000000000000000000000000000000000000000000000000000000000",
        "4ba69735ca53765ed6a709edb56c6ea236b7193a3b29a6b390c346f0f4340e4ebbf8b7e6e22d1f70",
        "f48aebecfad00dc7954b5f8e3a2d0f8c4e924696bdbfe486009435770000000002fb2a9e937d843a",
    ];
    let full: &[&str] = &[
        "01000000000000000000000000000000000000000000000000000000000000000000000000000000",
        "4ba69735ca53765ed6a709edb56c6ea236b7193a3b29a6b390c346f0f4340e4ebbf8b7e6e22d1f70",
        "f48aebecfad00dc7954b5f8e3a2d0f8c4e924696bdbfe486009435770000000002fb2a9e937d843a",
        "d9950dad6b421b08bca59ebb553d8905",
    ];
    assert_eq!(hex(&header.signing_bytes()), signing.concat());
    assert_eq!(hex(&encode_to_vec(&header)), full.concat());
}

fn block() -> impl Strategy<Value = Block> {
    prop_oneof![
        6 => sealed(),
        1 => Just(duplicated_last_transaction()),
    ]
}

proptest! {
    #[test]
    fn block_decode_never_panics_and_round_trips(
        block in block(),
        at in any::<usize>(),
        byte in any::<u8>(),
        junk in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        let bytes = encode_to_vec(&block);
        let back = decode_from_slice::<Block>(&bytes);
        prop_assert_eq!(back.as_ref(), Ok(&block));
        let verdict = block.validate();
        if block.transactions.len() == 4 && block.transactions[2] == block.transactions[3] {
            prop_assert_eq!(verdict, Err(BlockValidationError::DuplicateTransaction(3)));
        } else {
            prop_assert_eq!(verdict, Ok(()));
        }

        let mut mutated = bytes.clone();
        let at = at % bytes.len();
        mutated[at] = byte;
        if let Ok(back) = decode_from_slice::<Block>(&mutated) {
            prop_assert_eq!(encode_to_vec(&back), mutated.clone());
            if mutated != bytes {
                prop_assert!(back.validate().is_err(), "byte {} changed and still valid", at);
            }
        }
        if let Ok(back) = decode_from_slice::<Block>(&junk) {
            prop_assert_eq!(encode_to_vec(&back), junk);
            let _ = back.validate();
        }
    }
}
