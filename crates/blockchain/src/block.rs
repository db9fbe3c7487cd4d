//! Blocks: Merkle-committed transaction batches signed by their proposer.

use std::collections::HashSet;

use duc_codec::{encode_to_vec, impl_codec_struct, Decode, DecodeError, Encode, Reader};
use duc_crypto::{hash_parts, Digest, KeyPair, MerkleTree, PublicKey, Signature};
use duc_sim::SimTime;

use crate::tx::SignedTransaction;

/// The header committing to a block's contents and chain position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockHeader {
    /// Height (genesis = 0).
    pub height: u64,
    /// Hash of the parent block ([`Digest::ZERO`] for genesis).
    pub parent: Digest,
    /// Commitment to the post-state ([`crate::state::WorldState::commitment`]).
    pub state_root: Digest,
    /// Merkle root over the encoded transactions.
    pub tx_root: Digest,
    /// Proposal timestamp.
    pub timestamp: SimTime,
    /// The proposing validator.
    pub proposer: PublicKey,
    /// Proposer's signature over the header (less this field).
    pub signature: Signature,
}

impl BlockHeader {
    /// The bytes the proposer signs.
    pub fn signing_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.height.encode(&mut buf);
        self.parent.encode(&mut buf);
        self.state_root.encode(&mut buf);
        self.tx_root.encode(&mut buf);
        self.timestamp.as_nanos().encode(&mut buf);
        self.proposer.encode(&mut buf);
        buf
    }

    /// The block hash (over the full header, including the signature).
    pub fn hash(&self) -> Digest {
        hash_parts(&[b"duc/block", &encode_to_vec(self)])
    }

    /// Verifies the proposer's signature.
    pub(crate) fn verify_signature(&self) -> bool {
        self.proposer
            .verify(&self.signing_bytes(), &self.signature)
            .is_ok()
    }
}

impl Encode for BlockHeader {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.height.encode(buf);
        self.parent.encode(buf);
        self.state_root.encode(buf);
        self.tx_root.encode(buf);
        self.timestamp.as_nanos().encode(buf);
        self.proposer.encode(buf);
        self.signature.encode(buf);
    }
}

impl Decode for BlockHeader {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(BlockHeader {
            height: u64::decode(r)?,
            parent: Digest::decode(r)?,
            state_root: Digest::decode(r)?,
            tx_root: Digest::decode(r)?,
            timestamp: SimTime::from_nanos(u64::decode(r)?),
            proposer: PublicKey::decode(r)?,
            signature: Signature::decode(r)?,
        })
    }
}

/// A full block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// The signed header.
    pub header: BlockHeader,
    /// Included transactions, in execution order.
    pub transactions: Vec<SignedTransaction>,
}

impl Block {
    /// Computes the Merkle root over encoded transactions.
    pub(crate) fn compute_tx_root(transactions: &[SignedTransaction]) -> Digest {
        let leaves: Vec<Vec<u8>> = transactions.iter().map(encode_to_vec).collect();
        MerkleTree::from_leaves(&leaves).root()
    }

    /// Builds and signs a block.
    pub fn seal(
        height: u64,
        parent: Digest,
        state_root: Digest,
        timestamp: SimTime,
        transactions: Vec<SignedTransaction>,
        proposer: &KeyPair,
    ) -> Block {
        let leaves: Vec<Vec<u8>> = transactions.iter().map(encode_to_vec).collect();
        Block::seal_encoded(
            height,
            parent,
            state_root,
            timestamp,
            transactions,
            &leaves,
            proposer,
        )
    }

    /// [`Block::seal`] for a caller that already holds each transaction's
    /// canonical encoding: `leaves[i]` must be `encode_to_vec` of
    /// `transactions[i]`. [`Block::validate`] never trusts that — it
    /// recomputes the leaves from the transactions' fields.
    pub(crate) fn seal_encoded(
        height: u64,
        parent: Digest,
        state_root: Digest,
        timestamp: SimTime,
        transactions: Vec<SignedTransaction>,
        leaves: &[Vec<u8>],
        proposer: &KeyPair,
    ) -> Block {
        debug_assert_eq!(transactions.len(), leaves.len());
        let tx_root = MerkleTree::from_leaves(leaves).root();
        let mut header = BlockHeader {
            height,
            parent,
            state_root,
            tx_root,
            timestamp,
            proposer: proposer.public(),
            signature: Signature { e: 0, s: 0 },
        };
        header.signature = proposer.sign(&header.signing_bytes());
        Block {
            header,
            transactions,
        }
    }

    /// Structural validity: signature, tx root, every tx signature, and no
    /// `(sender, nonce)` twice.
    ///
    /// The last check is not redundant with the root: [`MerkleTree`]
    /// promotes an odd node by pairing it with itself, so `[a, b, c]` and
    /// `[a, b, c, c]` share a `tx_root`, and the duplicate would otherwise
    /// pass under the unchanged signed header.
    pub fn validate(&self) -> Result<(), BlockValidationError> {
        if !self.header.verify_signature() {
            return Err(BlockValidationError::BadProposerSignature);
        }
        if Block::compute_tx_root(&self.transactions) != self.header.tx_root {
            return Err(BlockValidationError::TxRootMismatch);
        }
        let mut seen = HashSet::with_capacity(self.transactions.len());
        for (i, tx) in self.transactions.iter().enumerate() {
            if !tx.verify() {
                return Err(BlockValidationError::BadTransaction(i));
            }
            if !seen.insert((tx.tx.from, tx.tx.nonce)) {
                return Err(BlockValidationError::DuplicateTransaction(i));
            }
        }
        Ok(())
    }

    /// The block hash.
    pub fn hash(&self) -> Digest {
        self.header.hash()
    }
}

// The header's encoding, then the length-prefixed transaction list: the
// bytes signatures and Merkle roots commit to, and what the archive keeps
// of a pruned block, so an archived block decodes and re-validates.
impl_codec_struct!(Block {
    header,
    transactions
});

/// Why a block failed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockValidationError {
    /// The proposer signature does not verify.
    BadProposerSignature,
    /// The header's tx root does not match the transactions.
    TxRootMismatch,
    /// Transaction at the index fails verification.
    BadTransaction(usize),
    /// Transaction at the index repeats an earlier one's `(sender, nonce)`.
    DuplicateTransaction(usize),
    /// Parent hash does not match the predecessor.
    BrokenParentLink(u64),
}

impl std::fmt::Display for BlockValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockValidationError::BadProposerSignature => f.write_str("bad proposer signature"),
            BlockValidationError::TxRootMismatch => f.write_str("tx merkle root mismatch"),
            BlockValidationError::BadTransaction(i) => {
                write!(f, "invalid transaction at index {i}")
            }
            BlockValidationError::DuplicateTransaction(i) => {
                write!(f, "transaction at index {i} repeats a (sender, nonce)")
            }
            BlockValidationError::BrokenParentLink(h) => {
                write!(f, "broken parent link at height {h}")
            }
        }
    }
}

impl std::error::Error for BlockValidationError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::{Transaction, TxKind};
    use crate::types::{Address, ContractId};

    fn sample_tx(nonce: u64) -> SignedTransaction {
        let key = KeyPair::from_seed(b"alice");
        Transaction {
            from: Address::from_public_key(&key.public()),
            nonce,
            kind: TxKind::Call {
                contract: ContractId::new("dex"),
                method: "m".into(),
                args: vec![],
            },
            gas_limit: 50_000,
        }
        .sign(&key)
    }

    fn sealed() -> Block {
        let proposer = KeyPair::from_seed(b"validator-0");
        Block::seal(
            1,
            Digest::ZERO,
            duc_crypto::sha256(b"state"),
            SimTime::from_secs(2),
            vec![sample_tx(0), sample_tx(1)],
            &proposer,
        )
    }

    #[test]
    fn sealed_block_validates() {
        assert_eq!(sealed().validate(), Ok(()));
    }

    #[test]
    fn tampered_transactions_detected() {
        let mut b = sealed();
        b.transactions.pop();
        assert_eq!(b.validate(), Err(BlockValidationError::TxRootMismatch));
    }

    #[test]
    fn tampered_header_detected() {
        let mut b = sealed();
        b.header.height = 99;
        assert_eq!(
            b.validate(),
            Err(BlockValidationError::BadProposerSignature)
        );
    }

    #[test]
    fn foreign_signature_detected() {
        let mut b = sealed();
        let mallory = KeyPair::from_seed(b"mallory");
        b.header.signature = mallory.sign(&b.header.signing_bytes());
        assert_eq!(
            b.validate(),
            Err(BlockValidationError::BadProposerSignature)
        );
    }

    #[test]
    fn corrupted_inner_tx_detected() {
        let mut b = sealed();
        b.transactions[0].tx.nonce = 42;
        // Fix the root so the tx-root check passes and the per-tx check fires.
        b.header.tx_root = Block::compute_tx_root(&b.transactions);
        let proposer = KeyPair::from_seed(b"validator-0");
        b.header.signature = proposer.sign(&b.header.signing_bytes());
        assert_eq!(b.validate(), Err(BlockValidationError::BadTransaction(0)));
    }

    /// A repeated last transaction leaves the Merkle root unchanged (odd
    /// nodes pair with themselves), so the signed header still matches:
    /// only the `(sender, nonce)` check catches it.
    #[test]
    fn duplicated_last_transaction_is_rejected() {
        let proposer = KeyPair::from_seed(b"validator-0");
        let mut b = Block::seal(
            1,
            Digest::ZERO,
            duc_crypto::sha256(b"state"),
            SimTime::from_secs(2),
            vec![sample_tx(0), sample_tx(1), sample_tx(2)],
            &proposer,
        );
        assert_eq!(b.validate(), Ok(()));
        b.transactions.push(sample_tx(2));
        assert_eq!(Block::compute_tx_root(&b.transactions), b.header.tx_root);
        assert_eq!(
            b.validate(),
            Err(BlockValidationError::DuplicateTransaction(3))
        );
    }

    #[test]
    fn block_hash_is_content_sensitive() {
        let a = sealed();
        let mut b = sealed();
        assert_eq!(a.hash(), b.hash());
        b.header.height = 2;
        assert_ne!(a.hash(), b.hash());
    }

    #[test]
    fn header_codec_roundtrip() {
        let b = sealed();
        let bytes = encode_to_vec(&b.header);
        let back: BlockHeader = duc_codec::decode_from_slice(&bytes).unwrap();
        assert_eq!(back, b.header);
    }

    #[test]
    fn empty_block_has_stable_tx_root() {
        assert_eq!(Block::compute_tx_root(&[]), Block::compute_tx_root(&[]));
    }
}
