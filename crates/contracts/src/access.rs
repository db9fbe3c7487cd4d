//! Access-set derivation for the DistExchange contract.
//!
//! The parallel executor (`duc_blockchain::exec`) partitions a block's
//! transactions on the state keys each call may touch. This module is the
//! DE App's side of that contract: it maps a decoded call to the storage
//! slots of the layout documented in `layout.rs` (the crate-private
//! `layout` module) — one slot per key in the flat tables, and one
//! *space* per resource for the composite `copy/` and `round/` tables,
//! with one slot per device or round in it.
//!
//! `pol/` rows are content-addressed (key = digest of the value), so the
//! registration paths declare them as *deltas*: two writers of the same
//! envelope store identical bytes in either order, and distinct envelopes
//! land in distinct slots — registrations keep commuting. View methods
//! that materialize an envelope cannot know its digest before reading the
//! row that names it, so they claim the whole `pol/` table as a read,
//! which serializes them against same-block policy registrations only.
//!
//! Calls anchored to different owners, resources, devices or consumers
//! therefore run concurrently, while calls that could collide serialize.
//! Every set must *cover* the method's touched keys (reads included — a
//! revert path still observed them); it may over-approximate, never
//! under-approximate. Anything undeclarable (unknown method, undecodable
//! arguments, an uninitialized market) is [`AccessSet::Exclusive`], which
//! conflicts with everything and therefore executes exactly where the
//! serial scheduler would have run it.

use duc_blockchain::exec::{fnv1a, fnv1a_parts};
use duc_blockchain::{AccessFn, AccessKey, AccessParams, AccessSet, Address, ContractId};
use duc_codec::{decode_from_slice, Decode, Reader};
use duc_crypto::{hash_parts, Digest};

use crate::abi::{EvidenceReaffirmation, EvidenceSubmission, PolicyEnvelope};
use crate::dist_exchange::DEX_CONTRACT_ID;
use crate::layout;

/// Decodes a prefix of `args` (derivation only needs the leading fields;
/// the contract itself decodes — and rejects — the full tuple).
fn decode_prefix<T: Decode>(args: &[u8]) -> Option<T> {
    let mut r = Reader::new(args);
    T::decode(&mut r).ok()
}

/// A slot in one of the flat `{prefix}{identity}` tables.
fn slot(prefix: &[u8], identity: &str) -> AccessKey {
    AccessKey::Slot {
        space: fnv1a(prefix),
        key: fnv1a(identity.as_bytes()),
    }
}

/// The per-resource copy space (`copy/{resource}\0…`).
fn copy_space(resource: &str) -> u64 {
    fnv1a_parts(&[layout::COPY, resource.as_bytes()])
}

fn copy_slot(resource: &str, device: &str) -> AccessKey {
    AccessKey::Slot {
        space: copy_space(resource),
        key: fnv1a(device.as_bytes()),
    }
}

/// The per-resource monitoring-round space (`round/{resource}\0…`).
fn round_space(resource: &str) -> u64 {
    fnv1a_parts(&[layout::ROUND, resource.as_bytes()])
}

fn round_slot(resource: &str, round: u64) -> AccessKey {
    AccessKey::Slot {
        space: round_space(resource),
        key: fnv1a(&round.to_le_bytes()),
    }
}

fn cert_slot(certificate: &Digest) -> AccessKey {
    AccessKey::Slot {
        space: fnv1a(layout::CERT),
        key: fnv1a(certificate.as_bytes()),
    }
}

/// One content-addressed policy slot (`pol/{digest}`).
fn pol_slot(digest: &Digest) -> AccessKey {
    AccessKey::Slot {
        space: fnv1a(layout::POL),
        key: fnv1a(digest.as_bytes()),
    }
}

/// The whole policy table — view methods resolve a digest they only learn
/// mid-call.
fn pol_table() -> AccessKey {
    AccessKey::Table(fnv1a(layout::POL))
}

fn cfg_slot(name: &str) -> AccessKey {
    slot(layout::CFG, name)
}

/// Derives the access set of one DistExchange call. Covers the storage
/// keys of both the success and the revert paths of every method in
/// [`crate::dist_exchange`]; keep the two in sync when the layout grows.
pub fn dex_access(p: &AccessParams<'_>) -> AccessSet {
    match p.method {
        // Writes the whole cfg table, once per deployment: not worth
        // declaring.
        "init" => AccessSet::Exclusive,
        "register_pod" => match decode_prefix::<(String, String, PolicyEnvelope)>(p.args) {
            Some((owner, _, policy)) => AccessSet::declared()
                .read(slot(layout::POD, &owner))
                .write(slot(layout::POD, &owner))
                .delta(pol_slot(&policy.digest())),
            None => AccessSet::Exclusive,
        },
        "get_pod" => match decode_prefix::<String>(p.args) {
            Some(owner) => AccessSet::declared()
                .read(slot(layout::POD, &owner))
                .read(pol_table()),
            None => AccessSet::Exclusive,
        },
        "register_resource" => {
            type Args = (
                String,
                String,
                String,
                Vec<(String, String)>,
                PolicyEnvelope,
            );
            match decode_prefix::<Args>(p.args) {
                Some((resource, _, owner, _, policy)) => AccessSet::declared()
                    .read(slot(layout::POD, &owner))
                    .read(slot(layout::RES, &resource))
                    .write(slot(layout::RES, &resource))
                    .delta(pol_slot(&policy.digest())),
                None => AccessSet::Exclusive,
            }
        }
        "lookup_resource" => match decode_prefix::<String>(p.args) {
            Some(resource) => AccessSet::declared()
                .read(slot(layout::RES, &resource))
                .read(pol_table()),
            None => AccessSet::Exclusive,
        },
        "list_resources" => AccessSet::declared().read(AccessKey::Table(fnv1a(layout::RES))),
        "update_policy" => match decode_prefix::<(String, PolicyEnvelope)>(p.args) {
            Some((resource, policy)) => AccessSet::declared()
                .read(slot(layout::RES, &resource))
                .write(slot(layout::RES, &resource))
                .delta(pol_slot(&policy.digest())),
            None => AccessSet::Exclusive,
        },
        "register_copy" => match decode_prefix::<(String, String)>(p.args) {
            Some((resource, device)) => AccessSet::declared()
                .read(slot(layout::RES, &resource))
                .write(copy_slot(&resource, &device)),
            None => AccessSet::Exclusive,
        },
        "unregister_copy" => match decode_prefix::<(String, String)>(p.args) {
            Some((resource, device)) => AccessSet::declared()
                .read(copy_slot(&resource, &device))
                .write(copy_slot(&resource, &device)),
            None => AccessSet::Exclusive,
        },
        "list_copies" => match decode_prefix::<String>(p.args) {
            Some(resource) => AccessSet::declared().read(AccessKey::Table(copy_space(&resource))),
            None => AccessSet::Exclusive,
        },
        "start_monitoring" => match decode_prefix::<String>(p.args) {
            // The new round's slot index comes from the counter, which an
            // earlier same-block round could bump: claim the whole round
            // space rather than read the counter at derivation time.
            Some(resource) => AccessSet::declared()
                .read(slot(layout::RES, &resource))
                .read(slot(layout::ROUND_COUNTER, &resource))
                .write(slot(layout::ROUND_COUNTER, &resource))
                .read(AccessKey::Table(copy_space(&resource)))
                .write(AccessKey::Table(round_space(&resource))),
            None => AccessSet::Exclusive,
        },
        "record_evidence" => match decode_prefix::<EvidenceSubmission>(p.args) {
            Some(s) => AccessSet::declared()
                .read(round_slot(&s.resource, s.round))
                .write(round_slot(&s.resource, s.round))
                .read(copy_slot(&s.resource, &s.device)),
            None => AccessSet::Exclusive,
        },
        "reaffirm_evidence" => match decode_prefix::<EvidenceReaffirmation>(p.args) {
            Some(r) => AccessSet::declared()
                .read(round_slot(&r.resource, r.round))
                .write(round_slot(&r.resource, r.round))
                .read(copy_slot(&r.resource, &r.device))
                .read(round_slot(&r.resource, r.prev_round)),
            None => AccessSet::Exclusive,
        },
        "get_round" => match decode_prefix::<(String, u64)>(p.args) {
            Some((resource, round)) => AccessSet::declared().read(round_slot(&resource, round)),
            None => AccessSet::Exclusive,
        },
        "subscribe" => match decode_prefix::<String>(p.args) {
            Some(webid) => {
                // The fee lands on the treasury as a commutative credit —
                // but only if the treasury address resolves now, from the
                // same slot the call will re-read (init is Exclusive, so
                // it cannot change mid-block). Unresolvable → the call
                // will revert "market not initialized"; serialize it.
                let treasury: Option<Address> = p
                    .state
                    .storage_get(p.contract, &layout::cfg("treasury"))
                    .and_then(|bytes| decode_from_slice(&bytes).ok());
                let Some(treasury) = treasury else {
                    return AccessSet::Exclusive;
                };
                // The certificate digest is a pure function of fields the
                // derivation already knows (webid, block time, caller).
                let certificate = hash_parts(&[
                    b"duc/cert",
                    webid.as_bytes(),
                    &p.block_time.as_nanos().to_le_bytes(),
                    p.caller.0.as_bytes(),
                ]);
                AccessSet::declared()
                    .read(cfg_slot("fee"))
                    .read(cfg_slot("validity"))
                    .read(cfg_slot("treasury"))
                    .delta(AccessKey::Account(treasury))
                    .write(slot(layout::SUB, &webid))
                    .write(cert_slot(&certificate))
            }
            None => AccessSet::Exclusive,
        },
        "verify_certificate" => match decode_prefix::<(Digest, String)>(p.args) {
            Some((certificate, webid)) => AccessSet::declared()
                .read(cert_slot(&certificate))
                .read(slot(layout::SUB, &webid)),
            None => AccessSet::Exclusive,
        },
        "get_subscription" => match decode_prefix::<String>(p.args) {
            Some(webid) => AccessSet::declared().read(slot(layout::SUB, &webid)),
            None => AccessSet::Exclusive,
        },
        _ => AccessSet::Exclusive,
    }
}

/// The DE App access-derivation function, ready to install on a chain
/// (see `Ledger::install_access_fn`). Calls against other contracts are
/// [`AccessSet::Exclusive`].
pub fn dex_access_fn() -> AccessFn {
    let dex = ContractId::new(DEX_CONTRACT_ID);
    Box::new(move |p: &AccessParams<'_>| {
        if *p.contract == dex {
            dex_access(p)
        } else {
            AccessSet::Exclusive
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use duc_blockchain::WorldState;
    use duc_codec::encode_to_vec;
    use duc_sim::SimTime;

    fn params<'a>(
        contract: &'a ContractId,
        method: &'a str,
        args: &'a [u8],
        state: &'a WorldState,
    ) -> AccessParams<'a> {
        AccessParams {
            contract,
            method,
            args,
            caller: Address::from_seed(b"caller"),
            block_height: 1,
            block_time: SimTime::from_secs(2),
            state,
        }
    }

    fn assert_disjoint(a: &AccessSet, b: &AccessSet) {
        assert!(!a.conflicts(b), "{a:?} should not conflict with {b:?}");
    }

    fn pod_args(owner: &str) -> Vec<u8> {
        let policy = PolicyEnvelope::plain(&duc_policy::UsagePolicy::default_for("urn:r", owner));
        encode_to_vec(&(owner.to_string(), "https://pod/".to_string(), policy))
    }

    #[test]
    fn distinct_owners_and_resources_commute() {
        let dex = ContractId::new(DEX_CONTRACT_ID);
        let state = WorldState::new();
        let a = pod_args("https://a.id/me");
        let b = pod_args("https://b.id/me");
        let pa = dex_access(&params(&dex, "register_pod", &a, &state));
        let pb = dex_access(&params(&dex, "register_pod", &b, &state));
        assert_disjoint(&pa, &pb);
        assert!(pa.conflicts(&pa), "same owner serializes");
    }

    #[test]
    fn policy_table_claims() {
        let dex = ContractId::new(DEX_CONTRACT_ID);
        let state = WorldState::new();
        // Two owners registering the *same* envelope: the shared pol slot
        // is a delta on both sides, so they still commute.
        let shared = PolicyEnvelope::plain(&duc_policy::UsagePolicy::default_for("urn:r", "x"));
        let a = encode_to_vec(&(
            "https://a.id/me".to_string(),
            "https://pod/".to_string(),
            shared.clone(),
        ));
        let b = encode_to_vec(&(
            "https://b.id/me".to_string(),
            "https://pod/".to_string(),
            shared,
        ));
        let pa = dex_access(&params(&dex, "register_pod", &a, &state));
        let pb = dex_access(&params(&dex, "register_pod", &b, &state));
        assert_disjoint(&pa, &pb);
        // A view method materializing an envelope claims the pol table and
        // therefore serializes against any same-block registration...
        let view = encode_to_vec(&("https://c.id/me".to_string(),));
        let gp = dex_access(&params(&dex, "get_pod", &view, &state));
        assert!(gp.conflicts(&pa), "pol table read vs pol slot delta");
        // ... but two views of different pods commute (R–R).
        let view2 = encode_to_vec(&("https://d.id/me".to_string(),));
        let gp2 = dex_access(&params(&dex, "get_pod", &view2, &state));
        assert_disjoint(&gp, &gp2);
    }

    #[test]
    fn same_resource_copy_calls_conflict_across_devices_only_via_scans() {
        let dex = ContractId::new(DEX_CONTRACT_ID);
        let state = WorldState::new();
        let c1 = encode_to_vec(&("res-1".to_string(), "dev-1".to_string()));
        let c2 = encode_to_vec(&("res-1".to_string(), "dev-2".to_string()));
        let s1 = dex_access(&params(&dex, "unregister_copy", &c1, &state));
        let s2 = dex_access(&params(&dex, "unregister_copy", &c2, &state));
        assert_disjoint(&s1, &s2);
        // A whole-table scan over the same resource's copies conflicts
        // with any per-device write in it.
        let scan = encode_to_vec(&("res-1".to_string(),));
        let sc = dex_access(&params(&dex, "list_copies", &scan, &state));
        assert!(sc.conflicts(&s1));
        // ... but not with another resource's devices.
        let other = encode_to_vec(&("res-2".to_string(), "dev-1".to_string()));
        let so = dex_access(&params(&dex, "unregister_copy", &other, &state));
        assert_disjoint(&sc, &so);
    }

    #[test]
    fn monitoring_claims_the_round_space() {
        let dex = ContractId::new(DEX_CONTRACT_ID);
        let state = WorldState::new();
        let start = encode_to_vec(&("res-1".to_string(),));
        let sm = dex_access(&params(&dex, "start_monitoring", &start, &state));
        let get = encode_to_vec(&("res-1".to_string(), 1u64));
        let gr = dex_access(&params(&dex, "get_round", &get, &state));
        assert!(sm.conflicts(&gr), "table write covers every round slot");
        let other = encode_to_vec(&("res-2".to_string(), 1u64));
        let go = dex_access(&params(&dex, "get_round", &other, &state));
        assert_disjoint(&sm, &go);
    }

    #[test]
    fn subscribe_is_exclusive_until_the_market_exists() {
        let dex = ContractId::new(DEX_CONTRACT_ID);
        let state = WorldState::new();
        let args = encode_to_vec(&("https://c.id/me".to_string(),));
        assert!(matches!(
            dex_access(&params(&dex, "subscribe", &args, &state)),
            AccessSet::Exclusive
        ));
        // With a treasury configured, two consumers' subscriptions
        // commute: the shared fee sink is a delta, not a write.
        let mut state = WorldState::new();
        let treasury = Address::from_seed(b"treasury");
        state.storage_set(&dex, layout::cfg("treasury"), encode_to_vec(&treasury));
        let a = encode_to_vec(&("https://a.id/me".to_string(),));
        let b = encode_to_vec(&("https://b.id/me".to_string(),));
        let sa = dex_access(&params(&dex, "subscribe", &a, &state));
        let sb = dex_access(&params(&dex, "subscribe", &b, &state));
        assert_disjoint(&sa, &sb);
    }

    #[test]
    fn unknown_methods_and_foreign_contracts_are_exclusive() {
        let dex = ContractId::new(DEX_CONTRACT_ID);
        let other = ContractId::new("counter");
        let state = WorldState::new();
        assert!(matches!(
            dex_access(&params(&dex, "no_such_method", &[], &state)),
            AccessSet::Exclusive
        ));
        assert!(matches!(
            dex_access(&params(&dex, "register_pod", b"junk", &state)),
            AccessSet::Exclusive
        ));
        let f = dex_access_fn();
        assert!(matches!(
            f(&params(&other, "register_pod", &[], &state)),
            AccessSet::Exclusive
        ));
    }
}
