//! What a DE App event costs the host for as long as its block is retained:
//! the `Rc` its receipt holds it in and its payload bytes. Its topic is a
//! name from the contract's code and its contract id is shared with the
//! call that emitted it, so neither is allocated per event.
//!
//! One `#[test]` in its own binary with its own live-bytes global allocator
//! (the pattern of `duc-core`'s `actor_footprint`): a second test running
//! on a parallel thread would move the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};

use duc_blockchain::{Address, Blockchain, ContractId, Event};
use duc_contracts::calls::{RegisterCopy, Subscribe};
use duc_contracts::{DistExchange, DistExchangeClient, PolicyEnvelope, DEX_CONTRACT_ID};
use duc_crypto::KeyPair;
use duc_policy::UsagePolicy;
use duc_sim::{SimDuration, SimTime};

/// Bytes currently allocated and not yet freed.
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct LiveBytes;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a plain
// statistic that publishes no other data (hence `Relaxed`).
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live `System` block.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: LiveBytes = LiveBytes;

/// Owners; each seals five calls that emit one event apiece.
const OWNERS: usize = 32;

/// What an event may hold beside its payload bytes: the `Rc` header (two
/// counters) and the event's own fields, padded to a word. An event that
/// allocated its topic or its contract id again would pass it.
const CEILING: usize = 80;

/// Seals every pending transaction.
fn seal(chain: &mut Blockchain, now: &mut SimTime) {
    while chain.pending_count() > 0 {
        *now += SimDuration::from_secs(2);
        chain.advance_to(*now);
    }
}

/// A bare ledger after `OWNERS` × (`register_pod`, `register_resource`,
/// `update_policy`, `register_copy`, `subscribe`).
fn sealed_chain() -> Blockchain {
    let mut chain = Blockchain::builder()
        .validators(4)
        .block_interval(SimDuration::from_secs(2))
        .build();
    chain.deploy(ContractId::new(DEX_CONTRACT_ID), Box::new(DistExchange));
    let admin = chain.create_funded_account(b"admin", 1_000_000_000);
    let dex = DistExchangeClient::new();
    let mut now = SimTime::ZERO;
    let treasury = Address::from_seed(b"treasury");
    let init = dex.init_tx(&chain, &admin, 10, 86_400_000_000_000, treasury);
    chain.submit(init).expect("init submits");
    let keys: Vec<KeyPair> = (0..OWNERS)
        .map(|i| chain.create_funded_account(format!("owner-{i}").as_bytes(), 1_000_000_000))
        .collect();
    let webid = |i: usize| format!("https://owner-{i}.id/me");
    let resource = |i: usize| format!("https://owner-{i}.pod/data/set.bin");
    let policy = |i: usize, version: u64| {
        let mut policy = UsagePolicy::default_for(resource(i), webid(i));
        policy.version = version;
        PolicyEnvelope::plain(&policy)
    };
    for (i, key) in keys.iter().enumerate() {
        let pod = format!("https://owner-{i}.pod/");
        let tx = dex.register_pod_tx(&chain, key, &webid(i), &pod, policy(i, 1));
        chain.submit(tx).expect("pod submits");
    }
    seal(&mut chain, &mut now);
    for (i, key) in keys.iter().enumerate() {
        let (res, owner) = (resource(i), webid(i));
        let tx = dex.register_resource_tx(&chain, key, &res, &res, &owner, vec![], policy(i, 1));
        chain.submit(tx).expect("resource submits");
    }
    seal(&mut chain, &mut now);
    for (i, key) in keys.iter().enumerate() {
        let tx = dex.update_policy_tx(&chain, key, &resource(i), policy(i, 2), 2);
        chain.submit(tx).expect("update submits");
        let copy = RegisterCopy {
            resource: resource(i),
            device: format!("device-{i}"),
            holder_webid: webid(i),
            attestation_key: key.public(),
        };
        let tx = dex.call_tx(&chain, key, copy);
        chain.submit(tx).expect("copy submits");
        let tx = dex.call_tx(&chain, key, Subscribe { webid: webid(i) });
        chain.submit(tx).expect("subscription submits");
    }
    seal(&mut chain, &mut now);
    chain
}

#[test]
fn a_stored_event_holds_its_payload_and_its_fields() {
    let chain = sealed_chain();
    let stored: Vec<Rc<Event>> = (chain.events_since(0).iter())
        .map(|(_, e)| Rc::clone(e))
        .collect();
    assert_eq!(stored.len(), 5 * OWNERS, "one event per call");

    // The heap a copy of each event holds, made the way its receipt holds
    // it: an `Rc` around fields cloned at their length (the chain keeps a
    // payload at its length too).
    let mut copies: Vec<Rc<Event>> = Vec::with_capacity(stored.len());
    let (mut held, mut payload) = (0, 0);
    for event in &stored {
        assert_eq!(event.data.capacity(), event.data.len());
        let before = LIVE.load(Ordering::Relaxed);
        copies.push(Rc::new(Event::clone(event)));
        held += LIVE.load(Ordering::Relaxed) - before;
        payload += event.data.len();
    }
    let (per_event, beside) = (held / stored.len(), (held - payload) / stored.len());
    println!(
        "size_of::<Event>() {} B; per stored event {per_event} B, {beside} B beside its payload",
        std::mem::size_of::<Event>()
    );
    assert!(
        beside <= CEILING,
        "an event holds {beside} B beside its payload (ceiling {CEILING} B)"
    );
}
