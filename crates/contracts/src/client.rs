//! Typed client for the DistExchange contract.
//!
//! Off-chain components (pod managers, TEEs, oracles) talk to the DE App
//! through this wrapper instead of hand-encoding ABI bytes: any call of the
//! table in [`crate::calls`] becomes a transaction with
//! [`DistExchangeClient::call_tx`], or a typed read with
//! [`DistExchangeClient::view`].

use duc_blockchain::{Address, Blockchain, ContractError, ContractId, SignedTransaction};
use duc_codec::decode_from_slice;
use duc_crypto::KeyPair;

use crate::abi::{PolicyEnvelope, ResourceRecord};
use crate::calls::{
    DexCall, DexMethod, Init, LookupResource, RegisterPod, RegisterResource, UpdatePolicy,
};
use crate::dist_exchange::DEX_CONTRACT_ID;

/// Default gas limit for DE App calls (generous; unused gas is refunded).
pub const DEFAULT_GAS: u64 = 5_000_000;

/// A typed handle on a deployed DistExchange contract.
#[derive(Debug, Clone)]
pub struct DistExchangeClient {
    contract: ContractId,
}

impl Default for DistExchangeClient {
    fn default() -> Self {
        DistExchangeClient::new()
    }
}

impl DistExchangeClient {
    /// A client for the conventional deployment id.
    pub fn new() -> Self {
        DistExchangeClient {
            contract: ContractId::new(DEX_CONTRACT_ID),
        }
    }

    /// The target contract id.
    pub fn contract_id(&self) -> &ContractId {
        &self.contract
    }

    /// Builds a signed call of any DE App method.
    pub fn call_tx(
        &self,
        chain: &Blockchain,
        key: &KeyPair,
        call: impl Into<DexCall>,
    ) -> SignedTransaction {
        let call = call.into();
        chain.build_call(
            key,
            self.contract.clone(),
            call.name(),
            call.encode_args(),
            DEFAULT_GAS,
        )
    }

    /// Runs a read-only call and decodes what the method returns.
    ///
    /// # Errors
    /// Propagates contract/view errors and undecodable return data.
    pub fn view<C: DexMethod>(
        &self,
        chain: &Blockchain,
        call: C,
    ) -> Result<C::Output, ContractError> {
        let call = call.into();
        let out = chain.call_view(&self.contract, call.name(), &call.encode_args())?;
        Self::decode_return::<C>(&out)
    }

    /// Decodes a method's return data (a receipt's `return_data`).
    ///
    /// # Errors
    /// Fails on malformed return data.
    pub fn decode_return<C: DexMethod>(return_data: &[u8]) -> Result<C::Output, ContractError> {
        Ok(decode_from_slice(return_data)?)
    }

    /// Builds the one-time market initialization call.
    pub fn init_tx(
        &self,
        chain: &Blockchain,
        key: &KeyPair,
        fee: u128,
        validity_nanos: u64,
        treasury: Address,
    ) -> SignedTransaction {
        let call = Init {
            fee,
            validity_nanos,
            treasury,
        };
        self.call_tx(chain, key, call)
    }

    /// Builds a pod registration (paper process 1).
    pub fn register_pod_tx(
        &self,
        chain: &Blockchain,
        key: &KeyPair,
        owner_webid: &str,
        web_ref: &str,
        default_policy: PolicyEnvelope,
    ) -> SignedTransaction {
        let call = RegisterPod {
            owner_webid: owner_webid.to_string(),
            web_ref: web_ref.to_string(),
            default_policy,
        };
        self.call_tx(chain, key, call)
    }

    /// Builds a resource registration (paper process 2).
    #[allow(clippy::too_many_arguments)] // mirrors the contract ABI
    pub fn register_resource_tx(
        &self,
        chain: &Blockchain,
        key: &KeyPair,
        resource: &str,
        location: &str,
        owner_webid: &str,
        metadata: Vec<(String, String)>,
        policy: PolicyEnvelope,
    ) -> SignedTransaction {
        let call = RegisterResource {
            resource: resource.to_string(),
            location: location.to_string(),
            owner_webid: owner_webid.to_string(),
            metadata,
            policy,
        };
        self.call_tx(chain, key, call)
    }

    /// Builds a policy update (paper process 5).
    pub fn update_policy_tx(
        &self,
        chain: &Blockchain,
        key: &KeyPair,
        resource: &str,
        policy: PolicyEnvelope,
        new_version: u64,
    ) -> SignedTransaction {
        let call = UpdatePolicy {
            resource: resource.to_string(),
            policy,
            new_version,
        };
        self.call_tx(chain, key, call)
    }

    /// Looks up a resource record (paper process 3's read).
    ///
    /// # Errors
    /// Propagates contract/view errors.
    pub fn lookup_resource(
        &self,
        chain: &Blockchain,
        resource: &str,
    ) -> Result<Option<ResourceRecord>, ContractError> {
        self.view(
            chain,
            LookupResource {
                resource: resource.to_string(),
            },
        )
    }
}
