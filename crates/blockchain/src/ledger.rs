//! The [`Ledger`] trait: the chain surface the repository benchmark names.
//!
//! The stack runs on one ledger, [`Blockchain`], and every crate in it
//! calls the chain's inherent methods. The trait remains only because the
//! benchmark reaches the chain through it; it has one impl, each method a
//! one-line delegation.

use std::collections::BTreeMap;

use duc_crypto::KeyPair;
use duc_sim::SimTime;

use crate::block::BlockValidationError;
use crate::chain::{Blockchain, Events, SubmitError};
use crate::contract::Contract;
use crate::exec::AccessFn;
use crate::state::PagingStats;
use crate::tx::{Receipt, SignedTransaction};
use crate::types::{Amount, ContractId, TxId};

/// The chain surface the repository benchmark consumes. Each method
/// delegates to the [`Blockchain`] method its doc names.
pub trait Ledger {
    /// [`Blockchain::create_funded_account`].
    fn create_funded_account(&mut self, seed: &[u8], amount: Amount) -> KeyPair;

    /// [`Blockchain::deploy`], with the contract built by `factory`.
    fn deploy_with(&mut self, id: ContractId, factory: &dyn Fn() -> Box<dyn Contract>);

    /// [`Blockchain::set_access_fn`], with the derivation built by `factory`.
    fn install_access_fn(&mut self, factory: &dyn Fn() -> AccessFn);

    /// [`Blockchain::submit`].
    ///
    /// # Errors
    /// See [`SubmitError`].
    fn submit(&mut self, tx: SignedTransaction) -> Result<TxId, SubmitError>;

    /// [`Blockchain::receipt`].
    fn receipt(&self, id: &TxId) -> Option<&Receipt>;

    /// [`Blockchain::pending_count`].
    fn pending_count(&self) -> usize;

    /// [`Blockchain::advance_to`].
    fn advance_to(&mut self, now: SimTime) -> usize;

    /// [`Blockchain::current_time`].
    fn current_time(&self) -> SimTime;

    /// [`Blockchain::height`].
    fn height(&self) -> u64;

    /// [`Blockchain::next_slot_at`].
    fn next_slot_at(&self, now: SimTime) -> SimTime;

    /// [`Blockchain::events_since`].
    fn events_since(&self, height: u64) -> Events<'_>;

    /// [`Blockchain::retained_blocks`].
    fn retained_blocks(&self) -> usize;

    /// [`Blockchain::verify_checkpoints`].
    ///
    /// # Errors
    /// A description of the first inconsistent checkpoint.
    fn verify_checkpoints(&self) -> Result<(), String>;

    /// [`Blockchain::validate_chain`].
    ///
    /// # Errors
    /// The first [`BlockValidationError`] found.
    fn validate_chains(&self) -> Result<(), BlockValidationError>;

    /// [`Blockchain::gas_used_total`].
    fn gas_used_total(&self) -> u64;

    /// [`Blockchain::gas_by_method`].
    fn gas_by_method(&self) -> BTreeMap<(String, String), (u64, u64, u64)>;

    /// [`Blockchain::state_size`].
    fn state_size(&self) -> (usize, usize);

    /// [`Blockchain::paging_stats`].
    fn paging_stats(&self) -> PagingStats;

    /// [`Blockchain::verify_pages`].
    ///
    /// # Errors
    /// A description of the first violation found.
    fn verify_pages(&self) -> Result<(), String>;
}

impl Ledger for Blockchain {
    fn create_funded_account(&mut self, seed: &[u8], amount: Amount) -> KeyPair {
        Blockchain::create_funded_account(self, seed, amount)
    }

    fn deploy_with(&mut self, id: ContractId, factory: &dyn Fn() -> Box<dyn Contract>) {
        self.deploy(id, factory());
    }

    fn install_access_fn(&mut self, factory: &dyn Fn() -> AccessFn) {
        self.set_access_fn(factory());
    }

    fn submit(&mut self, tx: SignedTransaction) -> Result<TxId, SubmitError> {
        Blockchain::submit(self, tx)
    }

    fn receipt(&self, id: &TxId) -> Option<&Receipt> {
        Blockchain::receipt(self, id)
    }

    fn pending_count(&self) -> usize {
        Blockchain::pending_count(self)
    }

    fn advance_to(&mut self, now: SimTime) -> usize {
        Blockchain::advance_to(self, now)
    }

    fn current_time(&self) -> SimTime {
        Blockchain::current_time(self)
    }

    fn height(&self) -> u64 {
        Blockchain::height(self)
    }

    fn next_slot_at(&self, now: SimTime) -> SimTime {
        Blockchain::next_slot_at(self, now)
    }

    fn events_since(&self, height: u64) -> Events<'_> {
        Blockchain::events_since(self, height)
    }

    fn retained_blocks(&self) -> usize {
        Blockchain::retained_blocks(self)
    }

    fn verify_checkpoints(&self) -> Result<(), String> {
        Blockchain::verify_checkpoints(self)
    }

    fn validate_chains(&self) -> Result<(), BlockValidationError> {
        self.validate_chain()
    }

    fn gas_used_total(&self) -> u64 {
        Blockchain::gas_used_total(self)
    }

    fn gas_by_method(&self) -> BTreeMap<(String, String), (u64, u64, u64)> {
        Blockchain::gas_by_method(self)
    }

    fn state_size(&self) -> (usize, usize) {
        Blockchain::state_size(self)
    }

    fn paging_stats(&self) -> PagingStats {
        Blockchain::paging_stats(self)
    }

    fn verify_pages(&self) -> Result<(), String> {
        Blockchain::verify_pages(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::{CallCtx, ContractError};
    use duc_codec::{decode_from_slice, encode_to_vec};
    use duc_sim::SimDuration;

    struct Counter;

    impl Contract for Counter {
        fn call(
            &self,
            ctx: &mut CallCtx<'_>,
            method: &str,
            args: &[u8],
        ) -> Result<Vec<u8>, ContractError> {
            match method {
                "incr" => {
                    let (key, by): (String, u64) = decode_from_slice(args)?;
                    let storage_key = format!("count/{key}").into_bytes();
                    let current: u64 = ctx.get(&storage_key)?.unwrap_or(0);
                    ctx.set(storage_key, &(current + by))?;
                    ctx.emit("Incr", encode_to_vec(&(key, current + by)))?;
                    Ok(Vec::new())
                }
                other => Err(ContractError::UnknownMethod(other.into())),
            }
        }
    }

    #[test]
    fn single_chain_trait_impl_matches_inherent_behaviour() {
        let mut chain = Blockchain::builder()
            .validators(2)
            .block_interval(SimDuration::from_secs(2))
            .build();
        Ledger::deploy_with(&mut chain, ContractId::new("counter"), &|| {
            Box::new(Counter)
        });
        let alice = Ledger::create_funded_account(&mut chain, b"alice", 1_000_000);
        let tx = chain.build_call(
            &alice,
            ContractId::new("counter"),
            "incr",
            encode_to_vec(&("k".to_string(), 5u64)),
            200_000,
        );
        let id = Ledger::submit(&mut chain, tx).expect("submit");
        Ledger::advance_to(&mut chain, SimTime::from_secs(2));
        assert_eq!(Ledger::height(&chain), 1);
        assert!(Ledger::receipt(&chain, &id)
            .expect("included")
            .status
            .is_ok());
        assert_eq!(Ledger::events_since(&chain, 0).len(), 1);
        assert_eq!(
            Ledger::next_slot_at(&chain, SimTime::from_secs(3)),
            SimTime::from_secs(4)
        );
        assert_eq!(Ledger::gas_used_total(&chain), chain.gas_used_total());
        assert_eq!(Ledger::pending_count(&chain), 0);
        Ledger::validate_chains(&chain).expect("valid chain");
    }
}
