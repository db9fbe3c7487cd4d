//! The pluggable ledger abstraction.
//!
//! The rest of the stack — oracles, the DE App client, the process driver —
//! talks to the chain exclusively through the [`Ledger`] trait, which
//! captures exactly the surface those layers use: transaction submission
//! and receipts, the event log, view calls, block production clocked by the
//! simulation, balances, and the validator fault hooks of the robustness
//! experiments. Two backends ship in-tree:
//!
//! * [`SingleChain`] — the existing [`Blockchain`], unchanged (the trait
//!   impl delegates to the inherent methods), so every legacy run is
//!   byte-identical to the pre-trait code.
//! * [`ShardedLedger`] — `N` independent PoA chains with deterministic
//!   owner/contract routing and a merged, height-interleaved event view.
//!   Requests from disjoint owners land on disjoint shards and no longer
//!   serialize through one mempool (experiment E13).
//!
//! ## Routing
//!
//! A [`RouterFn`] extracts a [`RouteKey`] from each contract call (the
//! contracts crate provides one that understands the DE App ABI, see
//! `duc_contracts::routing`). String keys are resolved against an *alias
//! table* — longest-prefix matches map resource IRIs to the owner WebID
//! that anchors them (`register_route_alias`, fed by `World::add_owner`) —
//! and then hashed onto a shard with a deterministic FNV-1a. Everything an
//! owner anchors (pod record, resources, copies, monitoring rounds) lands
//! on one shard; subscriptions and certificates live on the shard of the
//! consumer's WebID. Plain transfers route by sender address.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use duc_crypto::{Digest, KeyPair};
use duc_intern::{Interner, SymMap};
use duc_sim::{SimDuration, SimTime};
use duc_storage::{PrunedRange, StorageConfig};

use crate::block::BlockValidationError;
use crate::chain::{Blockchain, SubmitError};
use crate::contract::{Contract, ContractError, Event};
use crate::exec::{AccessFn, ExecMode};
use crate::state::PagingStats;
use crate::tx::{Receipt, SignedTransaction, TxKind};
use crate::types::{Address, Amount, ContractId, TxId};

/// Where a transaction or view call should land on a multi-chain backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteKey {
    /// Route by a logical key (owner WebID, resource IRI, consumer WebID),
    /// resolved through the alias table and hashed onto a shard.
    Key(String),
    /// Route to a fixed shard (deployment-scoped calls like `init`).
    Shard(usize),
}

/// Extracts the routing key of a contract call from its ABI-encoded
/// arguments. Backends that do not shard never invoke it.
pub type RouterFn = Box<dyn Fn(&ContractId, &str, &[u8]) -> RouteKey>;

/// The chain surface the rest of the architecture consumes.
///
/// Implementations must be deterministic: identical call sequences yield
/// identical states, receipts and event logs (the chaos harness replays
/// runs byte-for-byte on top of this guarantee).
pub trait Ledger {
    // ------------------------------------------------------------- shards

    /// Number of independent chains behind this ledger (1 for
    /// [`SingleChain`]).
    fn shard_count(&self) -> usize;

    /// Registers a routing alias: route keys starting with `prefix`
    /// (resource IRIs under a pod root) resolve to `key`'s shard (the
    /// owner's WebID). No-op on single-chain backends.
    fn register_route_alias(&mut self, prefix: &str, key: &str);

    // ----------------------------------------------------------- accounts

    /// Creates a key pair from `seed` and funds its account on every shard.
    fn create_funded_account(&mut self, seed: &[u8], amount: Amount) -> KeyPair;

    /// Total balance of an address across every shard.
    fn balance(&self, addr: &Address) -> Amount;

    // ---------------------------------------------------------- contracts

    /// Deploys one contract instance per shard (the factory runs once per
    /// shard).
    fn deploy_with(&mut self, id: ContractId, factory: &dyn Fn() -> Box<dyn Contract>);

    /// Whether the contract is deployed.
    fn has_contract(&self, id: &ContractId) -> bool;

    /// Installs an access-set derivation on every shard (the factory runs
    /// once per shard), enabling conflict-scheduled parallel execution for
    /// calls the derivation can declare. Default: no-op — without one,
    /// [`ExecMode::Parallel`] still runs but every call serializes.
    fn install_access_fn(&mut self, _factory: &dyn Fn() -> AccessFn) {}

    // -------------------------------------------------------- transactions

    /// Builds a signed contract call against the routed shard's current
    /// state (nonce from that shard).
    fn build_call(
        &self,
        key: &KeyPair,
        contract: ContractId,
        method: &str,
        args: Vec<u8>,
        gas_limit: u64,
    ) -> SignedTransaction;

    /// Builds a signed contract call pinned to `shard`.
    fn build_call_on(
        &self,
        shard: usize,
        key: &KeyPair,
        contract: ContractId,
        method: &str,
        args: Vec<u8>,
        gas_limit: u64,
    ) -> SignedTransaction;

    /// Submits a signed transaction to the routed shard's mempool.
    ///
    /// # Errors
    /// See [`SubmitError`].
    fn submit(&mut self, tx: SignedTransaction) -> Result<TxId, SubmitError>;

    /// Submits a signed transaction to `shard`'s mempool.
    ///
    /// # Errors
    /// See [`SubmitError`].
    fn submit_on(&mut self, shard: usize, tx: SignedTransaction) -> Result<TxId, SubmitError>;

    /// The next nonce the chain `tx` routes to expects from `tx`'s sender
    /// (pending transactions accounted for) — what a
    /// [`Ledger::build_call`] of the same call would sign with now. A
    /// caller holding a transaction built earlier compares it with the
    /// transaction's own nonce to learn whether the signature is still
    /// submittable as is.
    fn routed_next_nonce(&self, tx: &SignedTransaction) -> u64;

    /// The receipt for a transaction, once included (searched across
    /// shards).
    fn receipt(&self, id: &TxId) -> Option<Receipt>;

    /// Whether [`Ledger::receipt`] would return one — the probe an
    /// inclusion wait makes per sealed slot, without cloning the receipt.
    fn has_receipt(&self, id: &TxId) -> bool;

    /// Pending transactions across every mempool.
    fn pending_count(&self) -> usize;

    // ------------------------------------------------------------ blocks

    /// Produces every block due at or before `now` on every shard; returns
    /// the number of blocks produced.
    fn advance_to(&mut self, now: SimTime) -> usize;

    /// The latest instant the ledger has observed.
    fn current_time(&self) -> SimTime;

    /// Ledger height: total blocks across every shard (monotone; event
    /// cursors are measured against this).
    fn height(&self) -> u64;

    /// The next instant a block could be sealed after `now` (the
    /// `next_event_at`-style wake-up non-blocking inclusion waits sleep
    /// until).
    fn next_slot_at(&self, now: SimTime) -> SimTime {
        let step = self.block_interval().as_nanos().max(1);
        SimTime::from_nanos((now.as_nanos() / step + 1) * step)
    }

    /// Events from ledger blocks strictly above `height`, height-interleaved
    /// across shards, paired with their (global) block number. Borrowed and
    /// `Rc`-shared — oracle polls hit this every round, and a consumer that
    /// keeps an event clones the pointer, not the payload.
    fn events_since(&self, height: u64) -> &[(u64, Rc<Event>)];

    /// The ledger's prune horizon in the same units as
    /// [`Ledger::events_since`] cursors (global block numbers): every event
    /// at or below it has been evicted. `0` when nothing is pruned — the
    /// default for backends without storage management.
    fn prune_horizon(&self) -> u64 {
        0
    }

    /// Like [`Ledger::events_since`], but a cursor strictly below the
    /// prune horizon is a typed [`PrunedRange`] error instead of a
    /// silently-incomplete slice: events in `(height, horizon]` are gone,
    /// so the caller must resync (the error carries the horizon to resync
    /// to) rather than miss them.
    ///
    /// # Errors
    /// [`PrunedRange`] when `height < prune_horizon`.
    fn try_events_since(&self, height: u64) -> Result<&[(u64, Rc<Event>)], PrunedRange> {
        let horizon = self.prune_horizon();
        if height < horizon {
            return Err(PrunedRange {
                requested: height,
                horizon,
            });
        }
        Ok(self.events_since(height))
    }

    /// Blocks currently resident in memory across every shard.
    fn retained_blocks(&self) -> usize {
        self.height() as usize
    }

    /// Blocks streamed to append-only archives across every shard.
    fn archived_blocks(&self) -> u64 {
        0
    }

    /// Verifies sealed checkpoints against resident block state roots on
    /// every shard (see `Blockchain::verify_checkpoints`). Trivially `Ok`
    /// for backends without storage management.
    ///
    /// # Errors
    /// A description of the first inconsistent checkpoint.
    fn verify_checkpoints(&self) -> Result<(), String> {
        Ok(())
    }

    /// Executes a read-only contract call on the routed shard.
    ///
    /// # Errors
    /// Propagates the contract's error.
    fn call_view(
        &self,
        contract: &ContractId,
        method: &str,
        args: &[u8],
    ) -> Result<Vec<u8>, ContractError>;

    /// Executes a read-only contract call pinned to `shard`.
    ///
    /// # Errors
    /// Propagates the contract's error.
    fn call_view_on(
        &self,
        shard: usize,
        contract: &ContractId,
        method: &str,
        args: &[u8],
    ) -> Result<Vec<u8>, ContractError>;

    /// Validates every shard's chain structure.
    ///
    /// # Errors
    /// The first [`BlockValidationError`] found.
    fn validate_chains(&self) -> Result<(), BlockValidationError>;

    // ------------------------------------------------------ fault control

    /// Marks validator `idx` crashed (on every shard — committees are
    /// mirrored) or recovered.
    fn set_validator_down(&mut self, idx: usize, down: bool);

    /// Validators per shard.
    fn validator_count(&self) -> usize;

    /// Fee-collection addresses of every validator (identical across
    /// shards; balances sum across shards, so gas-conservation audits hold
    /// shard-count-independently).
    fn validator_addresses(&self) -> &[Address];

    /// Slots missed because their proposer was down, across every shard.
    fn slots_missed(&self) -> u64;

    // ----------------------------------------------------------- metrics

    /// The block interval (identical across shards).
    fn block_interval(&self) -> SimDuration;

    /// The gas price (identical across shards).
    fn gas_price(&self) -> Amount;

    /// Total gas consumed across every shard's gas ledger.
    fn gas_used_total(&self) -> u64;

    /// The gas ledger aggregated by `(contract, method)` across shards:
    /// `(calls, total gas, mean gas)`.
    fn gas_by_method(&self) -> BTreeMap<(String, String), (u64, u64, u64)>;

    /// Storage growth `(slots, bytes)` summed across shards.
    fn state_size(&self) -> (usize, usize);

    /// Paged world-state residency counters summed across shards
    /// (observability only; never part of replay fingerprints).
    fn paging_stats(&self) -> PagingStats {
        PagingStats::default()
    }

    /// Verifies paged-state integrity on every shard: each evicted page
    /// reads back under its digest-verified handle and the decoded whole
    /// reproduces the commitment accumulator (chaos invariant).
    ///
    /// # Errors
    /// A description of the first violation found.
    fn verify_pages(&self) -> Result<(), String> {
        Ok(())
    }

    /// The world-state commitment, folded across shards in shard order.
    /// Byte-identical across cache sizes by construction: eviction moves
    /// bytes, never rows, so the accumulator is untouched by paging.
    fn state_commitment(&self) -> Digest;
}

/// The legacy single-chain backend (the concrete [`Blockchain`] behind the
/// trait; every call delegates to the inherent method, so behaviour — and
/// fingerprints — are byte-identical to pre-trait code).
pub type SingleChain = Blockchain;

impl Ledger for Blockchain {
    fn shard_count(&self) -> usize {
        1
    }

    fn register_route_alias(&mut self, _prefix: &str, _key: &str) {}

    fn create_funded_account(&mut self, seed: &[u8], amount: Amount) -> KeyPair {
        Blockchain::create_funded_account(self, seed, amount)
    }

    fn balance(&self, addr: &Address) -> Amount {
        Blockchain::balance(self, addr)
    }

    fn deploy_with(&mut self, id: ContractId, factory: &dyn Fn() -> Box<dyn Contract>) {
        self.deploy(id, factory());
    }

    fn has_contract(&self, id: &ContractId) -> bool {
        Blockchain::has_contract(self, id)
    }

    fn install_access_fn(&mut self, factory: &dyn Fn() -> AccessFn) {
        self.set_access_fn(factory());
    }

    fn build_call(
        &self,
        key: &KeyPair,
        contract: ContractId,
        method: &str,
        args: Vec<u8>,
        gas_limit: u64,
    ) -> SignedTransaction {
        Blockchain::build_call(self, key, contract, method, args, gas_limit)
    }

    fn build_call_on(
        &self,
        shard: usize,
        key: &KeyPair,
        contract: ContractId,
        method: &str,
        args: Vec<u8>,
        gas_limit: u64,
    ) -> SignedTransaction {
        assert_eq!(shard, 0, "single chain has exactly one shard");
        Blockchain::build_call(self, key, contract, method, args, gas_limit)
    }

    fn submit(&mut self, tx: SignedTransaction) -> Result<TxId, SubmitError> {
        Blockchain::submit(self, tx)
    }

    fn submit_on(&mut self, shard: usize, tx: SignedTransaction) -> Result<TxId, SubmitError> {
        assert_eq!(shard, 0, "single chain has exactly one shard");
        Blockchain::submit(self, tx)
    }

    fn routed_next_nonce(&self, tx: &SignedTransaction) -> u64 {
        self.next_nonce(&tx.tx.from)
    }

    fn receipt(&self, id: &TxId) -> Option<Receipt> {
        Blockchain::receipt(self, id).cloned()
    }

    fn has_receipt(&self, id: &TxId) -> bool {
        Blockchain::receipt(self, id).is_some()
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

    fn events_since(&self, height: u64) -> &[(u64, Rc<Event>)] {
        self.events_slice_since(height)
    }

    fn prune_horizon(&self) -> u64 {
        Blockchain::prune_horizon(self)
    }

    fn retained_blocks(&self) -> usize {
        Blockchain::retained_blocks(self)
    }

    fn archived_blocks(&self) -> u64 {
        Blockchain::archived_blocks(self)
    }

    fn verify_checkpoints(&self) -> Result<(), String> {
        Blockchain::verify_checkpoints(self)
    }

    fn call_view(
        &self,
        contract: &ContractId,
        method: &str,
        args: &[u8],
    ) -> Result<Vec<u8>, ContractError> {
        Blockchain::call_view(self, contract, method, args)
    }

    fn call_view_on(
        &self,
        shard: usize,
        contract: &ContractId,
        method: &str,
        args: &[u8],
    ) -> Result<Vec<u8>, ContractError> {
        assert_eq!(shard, 0, "single chain has exactly one shard");
        Blockchain::call_view(self, contract, method, args)
    }

    fn validate_chains(&self) -> Result<(), BlockValidationError> {
        self.validate_chain()
    }

    fn set_validator_down(&mut self, idx: usize, down: bool) {
        Blockchain::set_validator_down(self, idx, down);
    }

    fn validator_count(&self) -> usize {
        Blockchain::validator_count(self)
    }

    fn validator_addresses(&self) -> &[Address] {
        Blockchain::validator_addresses(self)
    }

    fn slots_missed(&self) -> u64 {
        Blockchain::slots_missed(self)
    }

    fn block_interval(&self) -> SimDuration {
        Blockchain::block_interval(self)
    }

    fn gas_price(&self) -> Amount {
        Blockchain::gas_price(self)
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

    fn state_commitment(&self) -> Digest {
        Blockchain::state_commitment(self)
    }
}

/// Deterministic FNV-1a over `bytes` (the shard-placement hash; no seed, so
/// placement is a pure function of the route key).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `N` independent PoA chains behind one [`Ledger`] face: deterministic
/// owner/contract routing plus a merged, height-interleaved event view.
pub struct ShardedLedger {
    shards: Vec<Blockchain>,
    router: RouterFn,
    /// `(prefix, key)` aliases, longest prefix first.
    aliases: Vec<(String, String)>,
    /// The merged event log: `(global block number, event)`, global block
    /// numbers nondecreasing (see [`ShardedLedger::advance_to`]).
    merged_log: Vec<(u64, Rc<Event>)>,
    /// Blocks sealed across every shard (assigns global block numbers).
    global_blocks: u64,
    /// Provenance of merged blocks still tracked for pruning: entry `i`
    /// describes global block `merged_base + i + 1` as
    /// `(shard, shard height)`. Empty when storage management is off.
    block_shards: VecDeque<(u32, u64)>,
    /// Global block numbers `<= merged_base` are pruned from the merged
    /// log (the merged view's prune horizon).
    merged_base: u64,
    /// Route-key memo: interned key → shard. Every submit walks the alias
    /// table and hashes otherwise; with 10⁵ owners that scan dominates, so
    /// resolved placements are memoized per distinct key. Invalidated when
    /// the alias table changes (aliases alter resolution).
    route_cache: RefCell<(Interner, SymMap<u32>)>,
}

impl std::fmt::Debug for ShardedLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedLedger")
            .field("shards", &self.shards.len())
            .field("height", &self.global_blocks)
            .field("aliases", &self.aliases.len())
            .finish()
    }
}

impl ShardedLedger {
    /// Builds `shards` chains, each with `validators` PoA validators and
    /// the given block interval, and a default router that pins every call
    /// to shard 0 (install a real router with
    /// [`ShardedLedger::with_router`]).
    pub fn new(shards: usize, validators: usize, block_interval: SimDuration) -> ShardedLedger {
        assert!(shards > 0, "at least one shard required");
        let shards = (0..shards)
            .map(|_| {
                Blockchain::builder()
                    .validators(validators)
                    .block_interval(block_interval)
                    .build()
            })
            .collect();
        ShardedLedger {
            shards,
            router: Box::new(|_, _, _| RouteKey::Shard(0)),
            aliases: Vec::new(),
            merged_log: Vec::new(),
            global_blocks: 0,
            block_shards: VecDeque::new(),
            merged_base: 0,
            route_cache: RefCell::new((Interner::new(), SymMap::new())),
        }
    }

    /// Installs the routing function (see `duc_contracts::routing` for the
    /// DE App router).
    #[must_use]
    pub fn with_router(mut self, router: RouterFn) -> ShardedLedger {
        self.router = router;
        self
    }

    /// Rebuilds every shard with the given retention configuration. When
    /// an archive path is set, shard `i` archives to `<path>.shard<i>`
    /// (one append-only stream per shard).
    ///
    /// Call straight after [`ShardedLedger::new`], before deploys or
    /// funding: the shards are recreated from genesis.
    ///
    /// # Panics
    /// If any shard has already sealed a block.
    #[must_use]
    pub fn with_storage(mut self, storage: StorageConfig) -> ShardedLedger {
        assert!(
            self.global_blocks == 0 && self.shards.iter().all(|s| s.height() == 0),
            "with_storage must run before any block is sealed"
        );
        let validators = self.shards[0].validator_count();
        let interval = self.shards[0].block_interval();
        let exec_mode = self.shards[0].exec_mode();
        let exec_threads = self.shards[0].exec_threads();
        self.shards = (0..self.shards.len())
            .map(|i| {
                let mut cfg = storage.clone();
                if let Some(path) = &storage.archive_path {
                    cfg.archive_path = Some(std::path::PathBuf::from(format!(
                        "{}.shard{i}",
                        path.display()
                    )));
                }
                Blockchain::builder()
                    .validators(validators)
                    .block_interval(interval)
                    .storage(cfg)
                    .exec_mode(exec_mode)
                    .exec_threads(exec_threads)
                    .build()
            })
            .collect();
        self
    }

    /// Sets every shard's intra-block execution mode (builder form; call
    /// any time — the mode only matters at block production).
    #[must_use]
    pub fn with_exec_mode(mut self, mode: ExecMode) -> ShardedLedger {
        for shard in &mut self.shards {
            shard.set_exec_mode(mode);
        }
        self
    }

    /// Resolves a route key to a shard index: longest alias prefix first
    /// (resource IRI → owner WebID), then FNV-1a over the resolved key.
    /// Placements are memoized per distinct key (interned), so repeat
    /// submissions skip the alias scan and the hash.
    pub(crate) fn shard_of_key(&self, key: &str) -> usize {
        let mut cache = self.route_cache.borrow_mut();
        let (ids, memo) = &mut *cache;
        let sym = ids.intern(key);
        if let Some(&shard) = memo.get(sym) {
            return shard as usize;
        }
        let resolved = self
            .aliases
            .iter()
            .find(|(prefix, _)| key.starts_with(prefix.as_str()))
            .map_or(key, |(_, target)| target.as_str());
        let shard = (fnv1a(resolved.as_bytes()) % self.shards.len() as u64) as usize;
        memo.insert(sym, shard as u32);
        shard
    }

    /// The shard a contract call routes to.
    pub(crate) fn shard_of_call(&self, contract: &ContractId, method: &str, args: &[u8]) -> usize {
        match (self.router)(contract, method, args) {
            RouteKey::Key(key) => self.shard_of_key(&key),
            RouteKey::Shard(s) => s % self.shards.len(),
        }
    }

    fn shard_of_tx(&self, tx: &SignedTransaction) -> usize {
        match &tx.tx.kind {
            TxKind::Call {
                contract,
                method,
                args,
            } => self.shard_of_call(contract, method, args),
            TxKind::Transfer { .. } => {
                (fnv1a(tx.tx.from.0.as_bytes()) % self.shards.len() as u64) as usize
            }
        }
    }

    /// Evicts merged-log events whose source shard block has been pruned.
    /// Walks the provenance queue from the oldest merged block and stops
    /// at the first still-resident one, so the merged horizon only covers
    /// a contiguous pruned prefix — `merged_base` stays a valid cursor
    /// floor in global block numbers.
    fn prune_merged_log(&mut self) {
        let mut horizon = self.merged_base;
        while let Some(&(shard, h)) = self.block_shards.front() {
            if h > self.shards[shard as usize].prune_horizon() {
                break;
            }
            self.block_shards.pop_front();
            horizon += 1;
        }
        if horizon > self.merged_base {
            self.merged_base = horizon;
            let cut = self.merged_log.partition_point(|(g, _)| *g <= horizon);
            self.merged_log.drain(..cut);
        }
    }

    /// Per-shard heights, in shard order (E13 reports these).
    pub fn shard_heights(&self) -> Vec<u64> {
        self.shards.iter().map(Blockchain::height).collect()
    }

    /// Direct access to one shard (tests and diagnostics).
    pub fn shard(&self, idx: usize) -> &Blockchain {
        &self.shards[idx]
    }
}

impl Ledger for ShardedLedger {
    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn register_route_alias(&mut self, prefix: &str, key: &str) {
        self.aliases.push((prefix.to_string(), key.to_string()));
        // Longest prefix first, ties broken lexicographically: resolution
        // must not depend on registration order.
        self.aliases
            .sort_by(|a, b| b.0.len().cmp(&a.0.len()).then_with(|| a.0.cmp(&b.0)));
        // A new alias can change where an already-seen key resolves.
        self.route_cache.borrow_mut().1.clear();
    }

    fn create_funded_account(&mut self, seed: &[u8], amount: Amount) -> KeyPair {
        // The key is a pure function of the seed, so every shard derives
        // the same pair; return any of them.
        let mut key = None;
        for shard in &mut self.shards {
            key = Some(shard.create_funded_account(seed, amount));
        }
        key.expect("at least one shard")
    }

    fn balance(&self, addr: &Address) -> Amount {
        self.shards.iter().map(|s| s.balance(addr)).sum()
    }

    fn deploy_with(&mut self, id: ContractId, factory: &dyn Fn() -> Box<dyn Contract>) {
        for shard in &mut self.shards {
            shard.deploy(id.clone(), factory());
        }
    }

    fn has_contract(&self, id: &ContractId) -> bool {
        self.shards[0].has_contract(id)
    }

    fn install_access_fn(&mut self, factory: &dyn Fn() -> AccessFn) {
        for shard in &mut self.shards {
            shard.set_access_fn(factory());
        }
    }

    fn build_call(
        &self,
        key: &KeyPair,
        contract: ContractId,
        method: &str,
        args: Vec<u8>,
        gas_limit: u64,
    ) -> SignedTransaction {
        let shard = self.shard_of_call(&contract, method, &args);
        self.build_call_on(shard, key, contract, method, args, gas_limit)
    }

    fn build_call_on(
        &self,
        shard: usize,
        key: &KeyPair,
        contract: ContractId,
        method: &str,
        args: Vec<u8>,
        gas_limit: u64,
    ) -> SignedTransaction {
        self.shards[shard].build_call(key, contract, method, args, gas_limit)
    }

    fn submit(&mut self, tx: SignedTransaction) -> Result<TxId, SubmitError> {
        let shard = self.shard_of_tx(&tx);
        self.submit_on(shard, tx)
    }

    fn submit_on(&mut self, shard: usize, tx: SignedTransaction) -> Result<TxId, SubmitError> {
        self.shards[shard].submit(tx)
    }

    fn routed_next_nonce(&self, tx: &SignedTransaction) -> u64 {
        self.shards[self.shard_of_tx(tx)].next_nonce(&tx.tx.from)
    }

    fn receipt(&self, id: &TxId) -> Option<Receipt> {
        self.shards.iter().find_map(|s| s.receipt(id).cloned())
    }

    fn has_receipt(&self, id: &TxId) -> bool {
        self.shards.iter().any(|s| s.receipt(id).is_some())
    }

    fn pending_count(&self) -> usize {
        self.shards.iter().map(Blockchain::pending_count).sum()
    }

    fn advance_to(&mut self, now: SimTime) -> usize {
        // Advance every shard, then interleave the freshly sealed blocks by
        // (timestamp, shard index) into the merged log. Per-shard slot
        // accounting never revisits an instant, so blocks sealed by later
        // calls always carry later timestamps — global block numbers are
        // monotone and a cursor-based reader can never miss an event.
        let mut fresh: Vec<(SimTime, usize, u64)> = Vec::new();
        let mut produced = 0;
        for (idx, shard) in self.shards.iter_mut().enumerate() {
            let before = shard.height();
            produced += shard.advance_to(now);
            for h in before + 1..=shard.height() {
                let ts = shard.block(h).expect("sealed above").header.timestamp;
                fresh.push((ts, idx, h));
            }
        }
        fresh.sort_unstable_by_key(|(ts, idx, _)| (*ts, *idx));
        let storage_on = self.shards[0].storage_config().is_enabled();
        for (_, idx, h) in fresh {
            self.global_blocks += 1;
            let global = self.global_blocks;
            if storage_on {
                self.block_shards.push_back((idx as u32, h));
            }
            let shard = &self.shards[idx];
            // The tail is height-sorted, so block h's events are its
            // contiguous prefix. Shard-level pruning is deferred to the
            // start of the *next* `advance_to`, so every event sealed in
            // this call — even in a multi-block burst — is still resident
            // when this merge reads it.
            self.merged_log.extend(
                shard
                    .events_since(h - 1)
                    .take_while(|(hh, _)| *hh == h)
                    .map(|(_, ev)| (global, Rc::clone(ev))),
            );
        }
        if storage_on {
            self.prune_merged_log();
        }
        produced
    }

    fn current_time(&self) -> SimTime {
        self.shards
            .iter()
            .map(Blockchain::current_time)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    fn height(&self) -> u64 {
        self.global_blocks
    }

    fn events_since(&self, height: u64) -> &[(u64, Rc<Event>)] {
        let start = self.merged_log.partition_point(|(h, _)| *h <= height);
        &self.merged_log[start..]
    }

    fn prune_horizon(&self) -> u64 {
        self.merged_base
    }

    fn retained_blocks(&self) -> usize {
        self.shards.iter().map(Blockchain::retained_blocks).sum()
    }

    fn archived_blocks(&self) -> u64 {
        self.shards.iter().map(Blockchain::archived_blocks).sum()
    }

    fn verify_checkpoints(&self) -> Result<(), String> {
        for (idx, shard) in self.shards.iter().enumerate() {
            shard
                .verify_checkpoints()
                .map_err(|e| format!("shard {idx}: {e}"))?;
        }
        Ok(())
    }

    fn call_view(
        &self,
        contract: &ContractId,
        method: &str,
        args: &[u8],
    ) -> Result<Vec<u8>, ContractError> {
        let shard = self.shard_of_call(contract, method, args);
        self.call_view_on(shard, contract, method, args)
    }

    fn call_view_on(
        &self,
        shard: usize,
        contract: &ContractId,
        method: &str,
        args: &[u8],
    ) -> Result<Vec<u8>, ContractError> {
        self.shards[shard].call_view(contract, method, args)
    }

    fn validate_chains(&self) -> Result<(), BlockValidationError> {
        for shard in &self.shards {
            shard.validate_chain()?;
        }
        Ok(())
    }

    fn set_validator_down(&mut self, idx: usize, down: bool) {
        for shard in &mut self.shards {
            shard.set_validator_down(idx, down);
        }
    }

    fn validator_count(&self) -> usize {
        self.shards[0].validator_count()
    }

    fn validator_addresses(&self) -> &[Address] {
        self.shards[0].validator_addresses()
    }

    fn slots_missed(&self) -> u64 {
        self.shards.iter().map(Blockchain::slots_missed).sum()
    }

    fn block_interval(&self) -> SimDuration {
        self.shards[0].block_interval()
    }

    fn gas_price(&self) -> Amount {
        self.shards[0].gas_price()
    }

    fn gas_used_total(&self) -> u64 {
        self.shards.iter().map(Blockchain::gas_used_total).sum()
    }

    fn gas_by_method(&self) -> BTreeMap<(String, String), (u64, u64, u64)> {
        let mut out: BTreeMap<(String, String), (u64, u64, u64)> = BTreeMap::new();
        for shard in &self.shards {
            for (key, (calls, total, _)) in shard.gas_by_method() {
                let entry = out.entry(key).or_insert((0, 0, 0));
                entry.0 += calls;
                entry.1 += total;
            }
        }
        for v in out.values_mut() {
            v.2 = v.1.checked_div(v.0).unwrap_or(0);
        }
        out
    }

    fn state_size(&self) -> (usize, usize) {
        self.shards
            .iter()
            .map(Blockchain::state_size)
            .fold((0, 0), |(s, b), (ds, db)| (s + ds, b + db))
    }

    fn paging_stats(&self) -> PagingStats {
        let mut out = PagingStats::default();
        for shard in &self.shards {
            out.merge(&shard.paging_stats());
        }
        out
    }

    fn verify_pages(&self) -> Result<(), String> {
        for (idx, shard) in self.shards.iter().enumerate() {
            shard
                .verify_pages()
                .map_err(|e| format!("shard {idx}: {e}"))?;
        }
        Ok(())
    }

    fn state_commitment(&self) -> Digest {
        let commitments: Vec<[u8; 32]> = self
            .shards
            .iter()
            .map(|s| *s.state_commitment().as_bytes())
            .collect();
        let mut parts: Vec<&[u8]> = vec![b"duc/sharded-state"];
        parts.extend(commitments.iter().map(|c| c.as_slice()));
        duc_crypto::hash_parts(&parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::CallCtx;
    use duc_codec::{decode_from_slice, encode_to_vec};

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
                "get" => {
                    let (key,): (String,) = decode_from_slice(args)?;
                    let current: u64 = ctx.get(format!("count/{key}").as_bytes())?.unwrap_or(0);
                    Ok(encode_to_vec(&(current,)))
                }
                other => Err(ContractError::UnknownMethod(other.into())),
            }
        }
    }

    /// Routes `incr`/`get` by their first string argument.
    fn key_router() -> RouterFn {
        Box::new(|_, method, args| match method {
            "incr" => {
                let (key, _): (String, u64) = decode_from_slice(args).expect("incr args");
                RouteKey::Key(key)
            }
            "get" => {
                let (key,): (String,) = decode_from_slice(args).expect("get args");
                RouteKey::Key(key)
            }
            _ => RouteKey::Shard(0),
        })
    }

    fn sharded(n: usize) -> (ShardedLedger, KeyPair) {
        let mut ledger =
            ShardedLedger::new(n, 2, SimDuration::from_secs(2)).with_router(key_router());
        ledger.deploy_with(ContractId::new("counter"), &|| Box::new(Counter));
        let key = ledger.create_funded_account(b"alice", 1_000_000_000);
        (ledger, key)
    }

    #[test]
    fn routing_is_deterministic_and_alias_aware() {
        let (mut ledger, _) = sharded(4);
        let direct = ledger.shard_of_key("https://owner.id/me");
        ledger.register_route_alias("https://owner.pod/", "https://owner.id/me");
        assert_eq!(
            ledger.shard_of_key("https://owner.pod/data/set.bin"),
            direct,
            "resource IRIs resolve to their owner's shard"
        );
        assert_eq!(
            ledger.shard_of_key("https://owner.pod/other"),
            ledger.shard_of_key("https://owner.pod/else"),
            "everything under one pod root shares a shard"
        );
    }

    #[test]
    fn disjoint_keys_spread_and_state_stays_isolated() {
        let (mut ledger, alice) = sharded(4);
        let keys: Vec<String> = (0..16).map(|i| format!("key-{i}")).collect();
        for k in &keys {
            let tx = ledger.build_call(
                &alice,
                ContractId::new("counter"),
                "incr",
                encode_to_vec(&(k.clone(), 1u64)),
                200_000,
            );
            ledger.submit(tx).expect("routed submit");
        }
        ledger.advance_to(SimTime::from_secs(2));
        let busy = ledger.shard_heights().iter().filter(|h| **h > 0).count();
        assert!(
            busy >= 2,
            "16 disjoint keys hit at least two shards: {:?}",
            ledger.shard_heights()
        );
        for k in &keys {
            let out = ledger
                .call_view(
                    &ContractId::new("counter"),
                    "get",
                    &encode_to_vec(&(k.clone(),)),
                )
                .expect("routed view");
            let (v,): (u64,) = decode_from_slice(&out).unwrap();
            assert_eq!(v, 1, "{k} readable on its own shard");
        }
        assert_eq!(ledger.height(), ledger.shard_heights().iter().sum::<u64>());
        ledger.validate_chains().expect("all shards validate");
    }

    #[test]
    fn merged_event_view_is_height_interleaved_and_cursor_safe() {
        let (mut ledger, alice) = sharded(3);
        for round in 0..3u64 {
            for i in 0..6 {
                let tx = ledger.build_call(
                    &alice,
                    ContractId::new("counter"),
                    "incr",
                    encode_to_vec(&(format!("key-{i}"), 1u64)),
                    200_000,
                );
                ledger.submit(tx).expect("submit");
            }
            ledger.advance_to(SimTime::from_secs(2 * (round + 1)));
        }
        let all = ledger.events_since(0);
        assert_eq!(all.len(), 18, "every event visible through the merged view");
        // Global block numbers are nondecreasing and bounded by the height.
        let mut prev = 0;
        for (h, _) in all {
            assert!(*h >= prev, "merged view interleaves by height");
            assert!(*h <= ledger.height());
            prev = *h;
        }
        // Cursor reads partition cleanly: advancing past a block number
        // never re-serves or skips events.
        let cursor = all[7].0;
        let tail = ledger.events_since(cursor);
        assert_eq!(
            tail.len(),
            all.iter().filter(|(h, _)| *h > cursor).count(),
            "cursor semantics match the single-chain contract"
        );
    }

    #[test]
    fn funded_accounts_and_gas_audits_span_shards() {
        let (mut ledger, alice) = sharded(4);
        let addr = Address::from_public_key(&alice.public());
        assert_eq!(ledger.balance(&addr), 4 * 1_000_000_000);
        for i in 0..8 {
            let tx = ledger.build_call(
                &alice,
                ContractId::new("counter"),
                "incr",
                encode_to_vec(&(format!("key-{i}"), 1u64)),
                200_000,
            );
            ledger.submit(tx).expect("submit");
        }
        ledger.advance_to(SimTime::from_secs(2));
        let income: Amount = ledger
            .validator_addresses()
            .iter()
            .map(|a| ledger.balance(a))
            .sum();
        assert_eq!(
            income,
            Amount::from(ledger.gas_used_total()) * ledger.gas_price(),
            "consumed gas equals proposer income across shards"
        );
        let agg = ledger.gas_by_method();
        let (calls, total, mean) = agg[&("counter".to_string(), "incr".to_string())];
        assert_eq!(calls, 8);
        assert!(mean > 0 && mean <= total);
    }

    #[test]
    fn merged_log_prunes_behind_shard_checkpoints() {
        let mut ledger = ShardedLedger::new(3, 2, SimDuration::from_secs(2))
            .with_storage(StorageConfig::enabled(2, 1))
            .with_router(key_router());
        ledger.deploy_with(ContractId::new("counter"), &|| Box::new(Counter));
        let alice = ledger.create_funded_account(b"alice", 1_000_000_000);
        for round in 0..12u64 {
            for i in 0..6 {
                let tx = ledger.build_call(
                    &alice,
                    ContractId::new("counter"),
                    "incr",
                    encode_to_vec(&(format!("key-{i}"), 1u64)),
                    200_000,
                );
                ledger.submit(tx).expect("submit");
            }
            ledger.advance_to(SimTime::from_secs(2 * (round + 1)));
        }
        // Shards checkpointed and pruned, and the merged view exposes a
        // horizon in global block numbers.
        let horizon = Ledger::prune_horizon(&ledger);
        assert!(horizon > 0, "merged view pruned a prefix");
        assert!(Ledger::retained_blocks(&ledger) < ledger.height() as usize);
        Ledger::verify_checkpoints(&ledger).expect("per-shard checkpoints consistent");
        // Cursors below the horizon get a typed error carrying the resync
        // floor; at or above, reads succeed and stay height-interleaved.
        let err = ledger.try_events_since(horizon - 1).unwrap_err();
        assert_eq!(err.horizon, horizon);
        let tail = ledger.try_events_since(horizon).expect("valid cursor");
        assert!(tail.iter().all(|(g, _)| *g > horizon));
        let mut prev = 0;
        for (g, _) in tail {
            assert!(*g >= prev);
            prev = *g;
        }
        ledger
            .validate_chains()
            .expect("resident suffixes validate");
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
        let tx = Ledger::build_call(
            &chain,
            &alice,
            ContractId::new("counter"),
            "incr",
            encode_to_vec(&("k".to_string(), 5u64)),
            200_000,
        );
        let id = Ledger::submit(&mut chain, tx).expect("submit");
        Ledger::advance_to(&mut chain, SimTime::from_secs(2));
        assert_eq!(Ledger::shard_count(&chain), 1);
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
    }
}
