//! Shard routing for the DistExchange contract.
//!
//! The [`duc_blockchain::ShardedLedger`] is ABI-agnostic; this module
//! supplies the routing function that decodes a DE App call and routes it
//! by [`DexCall::route_key`], whose doc holds the route table.
//!
//! Resource IRIs live under the owner's pod root; the ledger's alias table
//! (`register_route_alias(pod_root, owner_webid)`, fed by
//! `World::add_owner`) folds them onto the owner's shard, so everything an
//! owner anchors — pod record, resource index entries, copy records,
//! monitoring rounds — shares one shard and the contract's cross-record
//! checks (`register_resource` requires the pod, `record_evidence` and
//! `reaffirm_evidence` require the copy and the round) never cross a shard
//! boundary.

use duc_blockchain::{ContractId, RouteKey, RouterFn};

use crate::calls::DexCall;

/// Extracts the [`RouteKey`] of one DE App call. A call the contract would
/// reject (unknown method, arguments that do not decode whole) pins to
/// shard 0, where the chain produces the authoritative error.
pub(crate) fn dex_route(method: &str, args: &[u8]) -> RouteKey {
    DexCall::decode(method, args).map_or(RouteKey::Shard(0), DexCall::route_key)
}

/// The DE App router, ready to install on a
/// [`duc_blockchain::ShardedLedger`]. Calls against other contracts pin to
/// shard 0.
pub fn dex_router() -> RouterFn {
    let dex = ContractId::new(crate::dist_exchange::DEX_CONTRACT_ID);
    Box::new(move |contract, method, args| {
        if *contract == dex {
            dex_route(method, args)
        } else {
            RouteKey::Shard(0)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abi::{EvidenceReaffirmation, PolicyEnvelope};
    use crate::calls::RegisterResource;
    use duc_codec::encode_to_vec;

    #[test]
    fn resource_scoped_calls_route_by_resource() {
        let args = encode_to_vec(&("https://o.pod/data/x".to_string(),));
        assert_eq!(
            dex_route("lookup_resource", &args),
            RouteKey::Key("https://o.pod/data/x".into())
        );
        assert_eq!(
            dex_route("start_monitoring", &args),
            RouteKey::Key("https://o.pod/data/x".into())
        );
    }

    #[test]
    fn register_resource_routes_by_owner_webid() {
        let policy = duc_policy::UsagePolicy::default_for("https://o.pod/data/x", "o");
        let args = encode_to_vec(&RegisterResource {
            resource: "https://o.pod/data/x".to_string(),
            location: "https://o.pod/data/x".to_string(),
            owner_webid: "https://o.id/me".to_string(),
            metadata: Vec::new(),
            policy: PolicyEnvelope::plain(&policy),
        });
        assert_eq!(
            dex_route("register_resource", &args),
            RouteKey::Key("https://o.id/me".into())
        );
    }

    #[test]
    fn evidence_routes_by_its_resource() {
        let reaffirmation = EvidenceReaffirmation {
            resource: "https://o.pod/data/x".into(),
            round: 2,
            device: "dev-1".into(),
            prev_round: 1,
            evidence_digest: duc_crypto::Digest::ZERO,
            signature: duc_crypto::Signature { e: 0, s: 0 },
        };
        assert_eq!(
            dex_route("reaffirm_evidence", &encode_to_vec(&reaffirmation)),
            RouteKey::Key("https://o.pod/data/x".into())
        );
    }

    #[test]
    fn market_calls_route_by_consumer_webid() {
        let args = encode_to_vec(&("https://c.id/me".to_string(),));
        assert_eq!(
            dex_route("subscribe", &args),
            RouteKey::Key("https://c.id/me".into())
        );
        let args = encode_to_vec(&(duc_crypto::sha256(b"cert"), "https://c.id/me".to_string()));
        assert_eq!(
            dex_route("verify_certificate", &args),
            RouteKey::Key("https://c.id/me".into())
        );
    }

    #[test]
    fn deployment_and_unknown_calls_pin_to_shard_zero() {
        assert_eq!(dex_route("init", &[]), RouteKey::Shard(0));
        assert_eq!(dex_route("list_resources", &[]), RouteKey::Shard(0));
        assert_eq!(dex_route("no_such_method", b"junk"), RouteKey::Shard(0));
    }

    /// Routing decodes the whole call: arguments the contract would reject
    /// pin to shard 0 even when a prefix names a key.
    #[test]
    fn malformed_calls_pin_to_shard_zero() {
        let truncated = encode_to_vec(&(
            "https://o.pod/data/x".to_string(),
            "https://o.pod/data/x".to_string(),
            "https://o.id/me".to_string(),
        ));
        assert_eq!(
            dex_route("register_resource", &truncated),
            RouteKey::Shard(0)
        );
        let one_name = encode_to_vec(&("https://o.pod/data/x".to_string(),));
        assert_eq!(dex_route("list_resources", &one_name), RouteKey::Shard(0));
        let mut trailing = one_name.clone();
        trailing.push(0);
        assert_eq!(dex_route("lookup_resource", &trailing), RouteKey::Shard(0));
    }
}
