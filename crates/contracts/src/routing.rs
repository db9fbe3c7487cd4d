//! Shard routing for the DistExchange contract.
//!
//! The [`duc_blockchain::ShardedLedger`] is ABI-agnostic; this module
//! supplies the routing function that understands the DE App's argument
//! encodings and extracts the logical key each call is anchored to:
//!
//! | methods | route key |
//! |---|---|
//! | `register_pod`, `get_pod` | owner WebID |
//! | `register_resource` | owner WebID (pods and their resources co-locate) |
//! | `lookup_resource`, `update_policy`, `register_copy`, `unregister_copy`, `list_copies`, `start_monitoring`, `get_round` | resource IRI (alias-resolved to the owner's shard) |
//! | `record_evidence` | the submission's resource IRI |
//! | `subscribe`, `get_subscription`, `verify_certificate` | consumer WebID |
//! | `init` | pinned (deployment setup runs once per shard) |
//! | `list_resources` | pinned (the client fans the view out per shard) |
//!
//! Resource IRIs live under the owner's pod root; the ledger's alias table
//! (`register_route_alias(pod_root, owner_webid)`, fed by
//! `World::add_owner`) folds them onto the owner's shard, so everything an
//! owner anchors — pod record, resource index entries, copy records,
//! monitoring rounds — shares one shard and the contract's cross-record
//! checks (`register_resource` requires the pod, `record_evidence` requires
//! the copy) never cross a shard boundary.

use duc_blockchain::{ContractId, RouteKey, RouterFn};
use duc_codec::{Decode, Reader};

use crate::abi::EvidenceSubmission;

/// Decodes a prefix of `args` (routing only needs the leading fields; the
/// contract itself decodes — and rejects — the full tuple).
fn decode_prefix<T: Decode>(args: &[u8]) -> Option<T> {
    let mut r = Reader::new(args);
    T::decode(&mut r).ok()
}

/// Extracts the [`RouteKey`] of one DE App call. Unknown methods and
/// undecodable arguments pin to shard 0 (the chain itself will produce the
/// authoritative error).
pub(crate) fn dex_route(method: &str, args: &[u8]) -> RouteKey {
    match method {
        "register_pod" | "get_pod" | "lookup_resource" | "update_policy" | "register_copy"
        | "unregister_copy" | "list_copies" | "start_monitoring" | "get_round" | "subscribe"
        | "get_subscription" => decode_prefix::<String>(args).map(RouteKey::Key),
        "register_resource" => decode_prefix::<(String, String, String)>(args)
            .map(|(_, _, owner_webid)| RouteKey::Key(owner_webid)),
        "record_evidence" => {
            decode_prefix::<EvidenceSubmission>(args).map(|s| RouteKey::Key(s.resource))
        }
        "verify_certificate" => decode_prefix::<(duc_crypto::Digest, String)>(args)
            .map(|(_, webid)| RouteKey::Key(webid)),
        _ => None,
    }
    .unwrap_or(RouteKey::Shard(0))
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
        let args = encode_to_vec(&(
            "https://o.pod/data/x".to_string(),
            "https://o.pod/data/x".to_string(),
            "https://o.id/me".to_string(),
        ));
        assert_eq!(
            dex_route("register_resource", &args),
            RouteKey::Key("https://o.id/me".into())
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
}
