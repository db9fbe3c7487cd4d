//! The pending-transaction pool.
//!
//! Entries are keyed `(sender, nonce)`, so iteration is the canonical block
//! order. Each entry keeps what [`crate::Blockchain::submit`] computed from
//! the transaction's *one* encoding, and the pool keeps the multiset of
//! pending gas limits beside the entries so the block filler can tell, in
//! O(log n), that nothing left in the pool fits the block any more.

use std::collections::BTreeMap;
use std::ops::Bound;

use duc_codec::Encode;

use crate::tx::{id_of_encoding, SignedTransaction, TxKind, SIGNATURE_SUFFIX_LEN};
use crate::types::{Address, TxId};

/// A mempool key: `(sender, nonce)`.
pub(crate) type PoolKey = (Address, u64);

/// A pending transaction with everything derived from its encoding.
///
/// [`SignedTransaction`] itself caches nothing — its fields are public and
/// may be mutated — so the derived values live here, where the transaction
/// is owned by the pool and immutable until a block consumes it.
pub(crate) struct PoolEntry {
    pub(crate) tx: SignedTransaction,
    pub(crate) id: TxId,
    /// The canonical signed encoding: the bytes the id hashes, the Merkle
    /// leaf the block's `tx_root` commits to, and (by its length) what
    /// intrinsic gas is charged on.
    pub(crate) encoded: Vec<u8>,
}

impl PoolEntry {
    /// Encodes `tx` once and derives its id. Does not verify.
    ///
    /// The pool and then its block keep `tx` for the life of the chain, so
    /// a call's arguments are held at their length, not at the capacity
    /// their encoder grew them to.
    pub(crate) fn new(mut tx: SignedTransaction) -> PoolEntry {
        if let TxKind::Call { args, .. } = &mut tx.tx.kind {
            args.shrink_to_fit();
        }
        let mut encoded = Vec::with_capacity(tx.encoded_size());
        tx.encode(&mut encoded);
        PoolEntry {
            id: id_of_encoding(&encoded),
            tx,
            encoded,
        }
    }

    /// [`SignedTransaction::verify`] over the held encoding's prefix.
    pub(crate) fn verify(&self) -> bool {
        let body = self.encoded.len() - SIGNATURE_SUFFIX_LEN;
        self.tx.verify_over(&self.encoded[..body])
    }

    fn key(&self) -> PoolKey {
        (self.tx.tx.from, self.tx.tx.nonce)
    }
}

/// The pool: entries in canonical order plus the gas-limit multiset.
/// Fields are private so the two cannot drift apart.
#[derive(Default)]
pub(crate) struct Mempool {
    entries: BTreeMap<PoolKey, PoolEntry>,
    /// `gas_limit → pending entries carrying it`; never holds a zero count.
    gas_limits: BTreeMap<u64, usize>,
}

impl Mempool {
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub(crate) fn contains_key(&self, key: &PoolKey) -> bool {
        self.entries.contains_key(key)
    }

    /// Every entry, in canonical order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&PoolKey, &PoolEntry)> {
        self.entries.iter()
    }

    /// Adds `entry` under its `(sender, nonce)`, replacing any entry there.
    pub(crate) fn insert(&mut self, entry: PoolEntry) {
        *self.gas_limits.entry(entry.tx.tx.gas_limit).or_insert(0) += 1;
        if let Some(replaced) = self.entries.insert(entry.key(), entry) {
            self.forget_gas_limit(replaced.tx.tx.gas_limit);
        }
    }

    pub(crate) fn remove(&mut self, key: &PoolKey) -> Option<PoolEntry> {
        let entry = self.entries.remove(key)?;
        self.forget_gas_limit(entry.tx.tx.gas_limit);
        Some(entry)
    }

    fn forget_gas_limit(&mut self, gas_limit: u64) {
        let count = self
            .gas_limits
            .get_mut(&gas_limit)
            .expect("every pending gas limit is counted");
        *count -= 1;
        if *count == 0 {
            self.gas_limits.remove(&gas_limit);
        }
    }

    /// The smallest gas limit of any pending entry.
    pub(crate) fn min_gas_limit(&self) -> Option<u64> {
        self.gas_limits.keys().next().copied()
    }

    /// The key and gas limit of the first entry strictly after `cursor`
    /// (`None`: the first entry of the pool).
    pub(crate) fn next_after(&self, cursor: Option<PoolKey>) -> Option<(PoolKey, u64)> {
        let from = cursor.map_or(Bound::Unbounded, Bound::Excluded);
        let (key, entry) = self.entries.range((from, Bound::Unbounded)).next()?;
        Some((*key, entry.tx.tx.gas_limit))
    }

    /// The highest pending nonce of `sender`.
    pub(crate) fn last_nonce_of(&self, sender: &Address) -> Option<u64> {
        let (key, _) = self
            .entries
            .range((*sender, 0)..=(*sender, u64::MAX))
            .next_back()?;
        Some(key.1)
    }

    /// Removes and returns `sender`'s lowest-nonce entry if that nonce is
    /// below `nonce`.
    pub(crate) fn pop_below(&mut self, sender: &Address, nonce: u64) -> Option<PoolEntry> {
        let (key, _) = self.entries.range((*sender, 0)..(*sender, nonce)).next()?;
        let key = *key;
        self.remove(&key)
    }
}
