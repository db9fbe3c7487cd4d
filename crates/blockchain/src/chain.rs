//! The proof-of-authority blockchain.
//!
//! Block production is clocked by the simulation: slot `k` opens at
//! `genesis + k × interval` and belongs to validator `k mod n` (round
//! robin). [`Blockchain::advance_to`] produces every due block; a crashed
//! proposer simply misses its slot, which is exactly the liveness behaviour
//! the robustness experiment (E8) measures.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::rc::Rc;
use std::sync::OnceLock;

use duc_crypto::{Digest, KeyPair};
use duc_intern::{FxHashMap, FxHashSet, Interner, Sym};
use duc_sim::{SimDuration, SimTime};
use duc_storage::{BlockStore, Checkpoint, FramedLog, StateStore, StorageConfig};

use crate::block::{Block, BlockValidationError};
use crate::contract::{CallCtx, CallEffects, Contract, ContractError, Event};
use crate::exec::{self, AccessFn, AccessParams, AccessSet, ExecMode};
use crate::gas::{GasMeter, GasSchedule};
use crate::mempool::{Mempool, PoolEntry};
use crate::state::{InsufficientFunds, PagingStats, WorldState};
use crate::tx::{Receipt, SignedTransaction, Transaction, TxKind, TxStatus};
use crate::types::{Address, Amount, ContractId, TxId};

/// Pending transactions a chain holds before it rejects more as
/// [`SubmitError::MempoolFull`].
const MEMPOOL_CAPACITY: usize = 10_000;

/// Why a transaction was rejected at submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// Signature or sender-address check failed.
    InvalidSignature,
    /// The nonce is below the account's current nonce (stale/replay).
    NonceTooLow {
        /// Expected minimum.
        expected: u64,
        /// Provided nonce.
        got: u64,
    },
    /// The sender cannot cover the maximum gas fee.
    CannotPayGas,
    /// The maximum fee (`gas_limit × gas_price`, plus the amount for
    /// transfers) overflows the amount type. Unchecked, the fee arithmetic
    /// would wrap and under-charge — rejected typed instead.
    FeeOverflow,
    /// The gas limit alone exceeds the block gas ceiling: no block could
    /// ever include the transaction, so it would pend forever, block its
    /// sender's nonce chain and defeat the idle fast-forward.
    ExceedsBlockGas {
        /// The transaction's gas limit.
        gas_limit: u64,
        /// The chain's per-block ceiling.
        max_block_gas: u64,
    },
    /// The mempool is at capacity.
    MempoolFull,
    /// A transaction with the same sender and nonce is already pending.
    DuplicateNonce,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::InvalidSignature => f.write_str("invalid signature"),
            SubmitError::NonceTooLow { expected, got } => {
                write!(f, "nonce too low: expected >= {expected}, got {got}")
            }
            SubmitError::CannotPayGas => f.write_str("cannot pay gas"),
            SubmitError::FeeOverflow => f.write_str("maximum fee overflows the amount type"),
            SubmitError::ExceedsBlockGas {
                gas_limit,
                max_block_gas,
            } => write!(
                f,
                "gas limit {gas_limit} exceeds the block gas ceiling {max_block_gas}"
            ),
            SubmitError::MempoolFull => f.write_str("mempool full"),
            SubmitError::DuplicateNonce => f.write_str("duplicate (sender, nonce) pending"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Configures and creates a [`Blockchain`].
#[derive(Debug)]
pub struct BlockchainBuilder {
    validator_count: usize,
    block_interval: SimDuration,
    max_block_gas: u64,
    gas_price: Amount,
    storage: StorageConfig,
    exec_mode: ExecMode,
    exec_threads: usize,
}

impl Default for BlockchainBuilder {
    fn default() -> Self {
        BlockchainBuilder {
            validator_count: 4,
            block_interval: SimDuration::from_secs(2),
            max_block_gas: 30_000_000,
            gas_price: 1,
            storage: StorageConfig::disabled(),
            exec_mode: ExecMode::Serial,
            // Block batches are small; more than 8 workers only add
            // scheduling overhead.
            exec_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8),
        }
    }
}

impl BlockchainBuilder {
    /// Number of PoA validators (keys derived deterministically).
    pub fn validators(mut self, n: usize) -> Self {
        assert!(n > 0, "at least one validator required");
        self.validator_count = n;
        self
    }

    /// Target block interval.
    pub fn block_interval(mut self, interval: SimDuration) -> Self {
        self.block_interval = interval;
        self
    }

    /// Per-block gas ceiling.
    pub fn max_block_gas(mut self, gas: u64) -> Self {
        self.max_block_gas = gas;
        self
    }

    /// Native-token price per unit of gas.
    pub fn gas_price(mut self, price: Amount) -> Self {
        self.gas_price = price;
        self
    }

    /// Retention configuration (checkpoint interval, window, archive path).
    /// Defaults to [`StorageConfig::disabled`]: infinite retention.
    pub fn storage(mut self, storage: StorageConfig) -> Self {
        self.storage = storage;
        self
    }

    /// Intra-block execution mode (defaults to [`ExecMode::Serial`]).
    pub fn exec_mode(mut self, mode: ExecMode) -> Self {
        self.exec_mode = mode;
        self
    }

    /// Worker-thread count for [`ExecMode::Parallel`] (defaults to the
    /// host's available parallelism, capped at 8).
    pub fn exec_threads(mut self, threads: usize) -> Self {
        self.exec_threads = threads.max(1);
        self
    }

    /// Builds the chain (genesis at t = 0).
    ///
    /// # Panics
    /// If an archive path is configured and the archive file cannot be
    /// opened for appending, or holds a frame that fails its digest.
    pub fn build(self) -> Blockchain {
        let validators: Vec<KeyPair> = (0..self.validator_count)
            .map(|i| KeyPair::from_seed(format!("duc/validator-{i}").as_bytes()))
            .collect();
        let validator_addresses = validators
            .iter()
            .map(|k| Address::from_public_key(&k.public()))
            .collect();
        let archive = self.storage.archive_path.as_ref().map(|path| {
            FramedLog::open(path).unwrap_or_else(|e| panic!("open archive {path:?}: {e}"))
        });
        Blockchain {
            validators,
            validator_addresses,
            down_validators: FxHashSet::default(),
            block_interval: self.block_interval,
            next_slot: 1,
            current_time: SimTime::ZERO,
            state: match &self.storage.paging {
                Some(paging) => WorldState::with_paging(paging),
                None => WorldState::new(),
            },
            blocks: BlockStore::new(archive),
            storage: self.storage,
            checkpoints: StateStore::new(),
            mempool: Mempool::default(),
            receipts: VecDeque::new(),
            sealing: Vec::new(),
            receipt_index: FxHashMap::default(),
            receipt_hold: u64::MAX,
            contracts: HashMap::new(),
            gas_schedule: GasSchedule::default(),
            gas_price: self.gas_price,
            max_block_gas: self.max_block_gas,
            gas_totals: FxHashMap::default(),
            labels: Interner::new(),
            slots_missed: 0,
            exec_mode: self.exec_mode,
            exec_threads: self.exec_threads,
            access_fn: None,
        }
    }
}

/// The chain node (in this simulation, one logical replica of the PoA
/// network — consensus among honest replicas is deterministic replay).
pub struct Blockchain {
    validators: Vec<KeyPair>,
    /// `validators[i]`'s fee-collection address, derived once at build.
    validator_addresses: Vec<Address>,
    down_validators: FxHashSet<usize>,
    block_interval: SimDuration,
    /// The next production slot (slot k opens at genesis + k × interval).
    next_slot: u64,
    /// The latest instant the chain has observed (view calls evaluate
    /// time-dependent logic against this).
    current_time: SimTime,
    state: WorldState,
    /// Windowed block storage: retained heights are
    /// `prune_horizon + 1 ..= height` once pruning has run.
    blocks: BlockStore<Block>,
    storage: StorageConfig,
    checkpoints: StateStore,
    mempool: Mempool,
    /// Each sealed block's receipts, stored once: its transactions' in
    /// block order, then those of the stale entries it superseded. The last
    /// entry is the tip's; events are read from here
    /// ([`Ledger::events_since`](crate::Ledger::events_since)).
    receipts: VecDeque<Box<[Receipt]>>,
    /// The receipts of the block being filled, indexed and moved into
    /// `receipts` when it seals.
    sealing: Vec<Receipt>,
    /// Where each stored receipt is: `(height, index in its block's)`.
    receipt_index: FxHashMap<TxId, (u64, u32)>,
    /// Receipts of blocks above this height outlive their block's pruning
    /// (see [`Blockchain::hold_receipts_above`]); `u64::MAX` lets them go
    /// with their block.
    receipt_hold: u64,
    contracts: HashMap<ContractId, Box<dyn Contract>>,
    gas_schedule: GasSchedule,
    gas_price: Amount,
    max_block_gas: u64,
    /// `(calls, gas)` so far per `(contract, method)` label pair — who
    /// spent what on which method, the data behind the affordability table
    /// (E7). `None` is a plain transfer or an intrinsic-only charge.
    gas_totals: FxHashMap<(Option<Sym>, Sym), (u64, u64)>,
    /// Label table of `gas_totals`: contract ids and method names,
    /// interned once per distinct label.
    labels: Interner,
    slots_missed: u64,
    /// How blocks apply their transactions (serial or conflict-scheduled
    /// parallel batches — outputs are byte-identical either way).
    exec_mode: ExecMode,
    /// Worker threads for the parallel executor.
    exec_threads: usize,
    /// Access-set derivation for the parallel executor; absent → every
    /// call is [`AccessSet::Exclusive`] and blocks effectively serialize.
    access_fn: Option<AccessFn>,
}

impl std::fmt::Debug for Blockchain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Blockchain")
            .field("height", &self.height())
            .field("pending", &self.mempool.len())
            .field("validators", &self.validators.len())
            .field("contracts", &self.contracts.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl Blockchain {
    /// Starts a builder with defaults (4 validators, 2 s blocks).
    pub fn builder() -> BlockchainBuilder {
        BlockchainBuilder::default()
    }

    // ------------------------------------------------------------ accounts

    /// Creates a key pair from `seed` and funds its account.
    pub fn create_funded_account(&mut self, seed: &[u8], amount: Amount) -> KeyPair {
        let key = KeyPair::from_seed(seed);
        self.state
            .credit(Address::from_public_key(&key.public()), amount);
        key
    }

    /// Current balance of an address.
    pub fn balance(&self, addr: &Address) -> Amount {
        self.state.balance(addr)
    }

    /// The next nonce `addr` should use (accounts for pending txs).
    pub fn next_nonce(&self, addr: &Address) -> u64 {
        let pending_next = self.mempool.last_nonce_of(addr).map_or(0, |n| n + 1);
        pending_next.max(self.state.nonce(addr))
    }

    // ----------------------------------------------------------- contracts

    /// Deploys a contract at genesis (before or between blocks).
    pub fn deploy(&mut self, id: ContractId, contract: Box<dyn Contract>) {
        self.contracts.insert(id, contract);
    }

    /// Installs the access-set derivation the parallel executor partitions
    /// on. Without one, every call conflicts with everything.
    pub fn set_access_fn(&mut self, f: AccessFn) {
        self.access_fn = Some(f);
    }

    /// Switches the intra-block execution mode.
    pub(crate) fn set_exec_mode(&mut self, mode: ExecMode) {
        self.exec_mode = mode;
    }

    /// The intra-block execution mode in force.
    pub fn exec_mode(&self) -> ExecMode {
        self.exec_mode
    }

    /// The parallel executor's worker-thread count.
    pub fn exec_threads(&self) -> usize {
        self.exec_threads
    }

    /// Whether a contract is deployed.
    pub fn has_contract(&self, id: &ContractId) -> bool {
        self.contracts.contains_key(id)
    }

    // -------------------------------------------------------- tx building

    /// Builds a signed contract call using the account's next nonce.
    pub fn build_call(
        &self,
        key: &KeyPair,
        contract: ContractId,
        method: impl Into<String>,
        args: Vec<u8>,
        gas_limit: u64,
    ) -> SignedTransaction {
        let from = Address::from_public_key(&key.public());
        Transaction {
            from,
            nonce: self.next_nonce(&from),
            kind: TxKind::Call {
                contract,
                method: method.into(),
                args,
            },
            gas_limit,
        }
        .sign(key)
    }

    // ----------------------------------------------------------- mempool

    /// Submits a signed transaction to the mempool.
    ///
    /// The transaction is encoded once here: the signature is verified over
    /// that encoding's prefix, and the pool entry keeps the encoding, the id
    /// hashed from it and (as its length) the size intrinsic gas is charged
    /// on, so block production never re-encodes a pending transaction.
    ///
    /// # Errors
    /// See [`SubmitError`] for the rejection conditions.
    pub fn submit(&mut self, tx: SignedTransaction) -> Result<TxId, SubmitError> {
        let entry = PoolEntry::new(tx);
        if !entry.verify() {
            return Err(SubmitError::InvalidSignature);
        }
        let tx = &entry.tx;
        let expected = self.state.nonce(&tx.tx.from);
        if tx.tx.nonce < expected {
            return Err(SubmitError::NonceTooLow {
                expected,
                got: tx.tx.nonce,
            });
        }
        let max_fee = (tx.tx.gas_limit as Amount)
            .checked_mul(self.gas_price)
            .ok_or(SubmitError::FeeOverflow)?;
        if self.state.balance(&tx.tx.from) < max_fee {
            return Err(SubmitError::CannotPayGas);
        }
        if tx.tx.gas_limit > self.max_block_gas {
            return Err(SubmitError::ExceedsBlockGas {
                gas_limit: tx.tx.gas_limit,
                max_block_gas: self.max_block_gas,
            });
        }
        if self.mempool.len() >= MEMPOOL_CAPACITY {
            return Err(SubmitError::MempoolFull);
        }
        if self.mempool.contains_key(&(tx.tx.from, tx.tx.nonce)) {
            return Err(SubmitError::DuplicateNonce);
        }
        let id = entry.id;
        self.mempool.insert(entry);
        Ok(id)
    }

    /// Number of pending transactions.
    pub fn pending_count(&self) -> usize {
        self.mempool.len()
    }

    // ------------------------------------------------------ block making

    /// Produces every block whose slot opens at or before `now`.
    /// Returns the number of blocks produced.
    ///
    /// Blocks are produced *on demand*: a slot with an empty mempool is
    /// skipped without sealing an empty block (the behaviour of on-demand
    /// sequencers; it also keeps long idle simulated periods cheap). Slot
    /// accounting still advances, so proposer rotation and crash-fault
    /// liveness behave like a fixed-cadence PoA network whenever there is
    /// work to include.
    pub fn advance_to(&mut self, now: SimTime) -> usize {
        self.prune_due();
        let mut produced = 0;
        loop {
            let slot_time = SimTime::ZERO + self.block_interval.saturating_mul(self.next_slot);
            if slot_time > now {
                break;
            }
            if self.mempool.is_empty() {
                // Fast-forward the slot counter to the last empty slot
                // before `now` (or before more work could exist).
                let slots_until_now = now.as_nanos() / self.block_interval.as_nanos().max(1);
                self.next_slot = self.next_slot.max(slots_until_now).saturating_add(1);
                break;
            }
            let proposer_idx = (self.next_slot as usize) % self.validators.len();
            self.next_slot += 1;
            if self.down_validators.contains(&proposer_idx) {
                self.slots_missed += 1;
                continue;
            }
            self.produce_block(slot_time, proposer_idx);
            produced += 1;
        }
        if now > self.current_time {
            self.current_time = now;
        }
        produced
    }

    /// The latest instant the chain has observed.
    pub fn current_time(&self) -> SimTime {
        self.current_time
    }

    fn produce_block(&mut self, timestamp: SimTime, proposer_idx: usize) {
        let height = self.blocks.height() + 1;
        let proposer = self.validator_addresses[proposer_idx];
        let included = match self.exec_mode {
            ExecMode::Serial => self.fill_block_serial(height, timestamp, proposer),
            ExecMode::Parallel => self.fill_block_parallel(height, timestamp, proposer),
        };
        self.evict_superseded(height, &included);
        self.seal_block(height, timestamp, proposer_idx, included);
    }

    /// Seals `included` — already executed, in block order — as block
    /// `height`, with the pool's encodings as the Merkle leaves.
    fn seal_block(
        &mut self,
        height: u64,
        timestamp: SimTime,
        proposer_idx: usize,
        included: Vec<PoolEntry>,
    ) {
        let parent = self
            .blocks
            .last()
            .map(|b| b.hash())
            .unwrap_or_else(|| self.blocks.base_parent());
        let (transactions, leaves): (Vec<_>, Vec<_>) =
            included.into_iter().map(|e| (e.tx, e.encoded)).unzip();
        // Hash the block's account rows once each, not once per touch.
        self.state.settle();
        let block = Block::seal_encoded(
            height,
            parent,
            self.state.commitment(),
            timestamp,
            transactions,
            &leaves,
            &self.validators[proposer_idx],
        );
        self.blocks.push(block);
        for (index, receipt) in self.sealing.iter().enumerate() {
            self.receipt_index
                .insert(receipt.tx_id, (height, index as u32));
        }
        let receipts = std::mem::take(&mut self.sealing);
        self.receipts.push_back(receipts.into_boxed_slice());
        self.maybe_checkpoint(height);
    }

    /// The serial scheduler: executable transactions in canonical (sorted
    /// mempool key) order, respecting per-account nonce sequencing and the
    /// block gas ceiling, each one executed, committed and emitted before
    /// the next is selected. Selection depends on execution here — a fee
    /// failure leaves the sender's nonce unbumped, which changes which
    /// later transactions are ready and fit under the ceiling.
    ///
    /// The pool is walked lazily from a cursor. The walk only ever removes
    /// the entry under the cursor, so it visits exactly the keys a snapshot
    /// taken at entry would hold, in the same order; and it stops once the
    /// gas left in the block is below the smallest pending gas limit,
    /// because the block's reserved gas only grows and no entry, visited or
    /// not, could be selected from then on.
    fn fill_block_serial(
        &mut self,
        height: u64,
        timestamp: SimTime,
        proposer: Address,
    ) -> Vec<PoolEntry> {
        let mut included = Vec::new();
        let mut block_gas: u64 = 0;
        let mut cursor = None;
        while self
            .mempool
            .min_gas_limit()
            .is_some_and(|min| block_gas.saturating_add(min) <= self.max_block_gas)
        {
            let Some((key, gas_limit)) = self.mempool.next_after(cursor) else {
                break;
            };
            cursor = Some(key);
            if key.1 != self.state.nonce(&key.0) {
                continue; // future nonce stays pending; stale handled later
            }
            if block_gas.saturating_add(gas_limit) > self.max_block_gas {
                continue;
            }
            // Execution consumes the mempool entry — no working clone.
            let entry = self.mempool.remove(&key).expect("key from mempool");
            // Each transaction reserves its full gas limit. That is a
            // choice, not a necessity: it runs before the next one is
            // selected, and Ethereum's validity rule (Yellow Paper §6)
            // counts cumulative gas used, asking only that a limit fit in
            // what remains. Counting gas used would move every simulated
            // latency and the parallel planner, which selects before it
            // executes, so the full limit stays reserved until the ledger
            // is one type and the benchmark's retention is re-timed.
            block_gas += gas_limit;
            self.apply(&entry, height, timestamp, proposer);
            included.push(entry);
        }
        included
    }

    /// Executes one selected entry against the current state, commits the
    /// outcome and emits its receipt, events and gas record.
    fn apply(&mut self, entry: &PoolEntry, height: u64, timestamp: SimTime, proposer: Address) {
        let outcome = run_tx_pure(
            &self.state,
            &self.contracts,
            &self.gas_schedule,
            self.gas_price,
            entry,
            height,
            timestamp,
        );
        let done = self.commit_outcome(&entry.tx, outcome, proposer);
        self.emit(entry, done, height);
    }

    /// The parallel scheduler: plans the transaction set the serial
    /// scheduler would pick, partitions it into conflict-free levels on the
    /// derived access sets, runs each level's pure executions on the
    /// work-stealing pool, commits every level in plan order, then emits in
    /// canonical order — so blocks, receipts, events, gas records and
    /// replay fingerprints are byte-identical to
    /// [`Blockchain::fill_block_serial`].
    fn fill_block_parallel(
        &mut self,
        height: u64,
        timestamp: SimTime,
        proposer: Address,
    ) -> Vec<PoolEntry> {
        // ---- plan: replicate serial selection with projected nonces (the
        // serial loop observes each executed tx's nonce bump before
        // selecting the next; project those bumps without executing).
        let mut projected: FxHashMap<Address, u64> = FxHashMap::default();
        let mut plan_keys: Vec<(Address, u64)> = Vec::new();
        let mut block_gas: u64 = 0;
        let mut ceiling_hit = false;
        for (key, entry) in self.mempool.iter() {
            let expected = *projected
                .entry(key.0)
                .or_insert_with(|| self.state.nonce(&key.0));
            if key.1 != expected {
                continue;
            }
            let gas_limit = entry.tx.tx.gas_limit;
            if block_gas.saturating_add(gas_limit) > self.max_block_gas {
                // Serial reserves ceiling gas only for transactions it
                // actually executes; a fee failure upstream could shift
                // which ones fit. Rare and cheap: fall back to serial, so
                // the rest of the pool need not be planned.
                ceiling_hit = true;
                break;
            }
            block_gas += gas_limit;
            projected.insert(key.0, key.1 + 1);
            plan_keys.push(*key);
        }
        if ceiling_hit || plan_keys.len() < 2 {
            return self.fill_block_serial(height, timestamp, proposer);
        }

        let plan: Vec<PoolEntry> = plan_keys
            .iter()
            .map(|key| self.mempool.remove(key).expect("planned key from mempool"))
            .collect();

        // ---- derive access sets and level the conflict graph
        let sets: Vec<AccessSet> = plan
            .iter()
            .map(|entry| {
                let tx = &entry.tx;
                // A validator-sender could observe its own mid-block
                // proposer fee credits through its balance; serialize it.
                let base = if self.validator_addresses.contains(&tx.tx.from) {
                    AccessSet::Exclusive
                } else {
                    match (&tx.tx.kind, &self.access_fn) {
                        (
                            TxKind::Call {
                                contract,
                                method,
                                args,
                            },
                            Some(derive),
                        ) => derive(&AccessParams {
                            contract,
                            method,
                            args,
                            caller: tx.tx.from,
                            block_height: height,
                            block_time: timestamp,
                            state: &self.state,
                        }),
                        _ => AccessSet::Exclusive,
                    }
                };
                base.with_sender(tx.tx.from)
            })
            .collect();
        let levels = exec::schedule_levels(&sets);
        let max_level = levels.iter().copied().max().unwrap_or(0);

        // ---- execute level by level, committing state in canonical order
        let mut committed: Vec<Option<CommittedTx>> = (0..plan.len()).map(|_| None).collect();
        for level in 0..=max_level {
            // A tx whose fee-failed predecessor left the sender's nonce
            // unbumped can no longer execute in this block (serial would
            // never have selected it): it stays uncommitted.
            let runnable: Vec<usize> = (0..plan.len())
                .filter(|&i| {
                    let tx = &plan[i].tx.tx;
                    levels[i] == level && self.state.nonce(&tx.from) == tx.nonce
                })
                .collect();
            if runnable.is_empty() {
                continue;
            }
            let seed = height
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(u64::from(level));
            let outcomes = {
                let state = &self.state;
                let contracts = &self.contracts;
                let schedule = &self.gas_schedule;
                let gas_price = self.gas_price;
                let txs: Vec<&PoolEntry> = runnable.iter().map(|&i| &plan[i]).collect();
                exec::run_batch(self.exec_threads, seed, txs.len(), |j| {
                    run_tx_pure(
                        state, contracts, schedule, gas_price, txs[j], height, timestamp,
                    )
                })
            };
            for (&i, outcome) in runnable.iter().zip(outcomes) {
                committed[i] = Some(self.commit_outcome(&plan[i].tx, outcome, proposer));
            }
        }

        // ---- emit in canonical order
        let mut included = Vec::with_capacity(plan.len());
        for (entry, done) in plan.into_iter().zip(committed) {
            match done {
                Some(done) => {
                    self.emit(&entry, done, height);
                    included.push(entry);
                }
                // Never executed; back to the mempool without a receipt.
                // Its sender's nonce did not advance, so eviction leaves
                // it pending — exactly the serial outcome.
                None => self.mempool.insert(entry),
            }
        }
        included
    }

    /// Applies one pure execution outcome to the canonical state — fee
    /// debit, nonce bump, buffered effects, transfer, refund, proposer
    /// credit — and returns what [`Blockchain::emit`] needs. The only place
    /// a transaction mutates [`WorldState`].
    fn commit_outcome(
        &mut self,
        signed: &SignedTransaction,
        outcome: PureExec,
        proposer: Address,
    ) -> CommittedTx {
        let PureExec::Ran {
            status,
            effects,
            transfer,
            return_data,
            gas_used,
            label,
        } = outcome
        else {
            // Fee failure: no state change, no nonce bump, no gas record.
            return CommittedTx {
                status: TxStatus::Reverted("cannot pay gas".into()),
                gas_used: 0,
                label: None,
                events: Vec::new(),
                return_data: Vec::new(),
            };
        };
        let from = signed.tx.from;
        let gas_limit = signed.tx.gas_limit;
        // Reserve the maximum fee upfront; the unused part is refunded below.
        let max_fee = (gas_limit as Amount)
            .checked_mul(self.gas_price)
            .expect("an overflowing fee is a fee failure");
        self.state
            .debit(&from, max_fee)
            .expect("pure phase checked fee affordability against this state");
        self.state.bump_nonce(&from);
        let mut events = Vec::new();
        if let Some(effects) = effects {
            events = effects.apply(&mut self.state);
        }
        if let Some((to, amount)) = transfer {
            self.state
                .debit(&from, amount)
                .expect("pure phase checked transfer affordability");
            self.state.credit(to, amount);
        }
        let refund = (gas_limit - gas_used) as Amount * self.gas_price;
        self.state.credit(from, refund);
        self.state
            .credit(proposer, gas_used as Amount * self.gas_price);
        CommittedTx {
            status,
            gas_used,
            label: Some(label),
            events,
            return_data,
        }
    }

    /// Records one committed transaction: adds its gas to the running total
    /// of its `(contract, method)` label pair and stores its [`Receipt`]
    /// with the block being filled. Callers invoke it in canonical block
    /// order.
    fn emit(&mut self, entry: &PoolEntry, done: CommittedTx, height: u64) {
        if let Some(label) = done.label {
            let (contract, method) = match (label, &entry.tx.tx.kind) {
                (ExecLabel::Intrinsic, _) => (None, self.labels.intern("intrinsic")),
                (ExecLabel::Dispatched, TxKind::Transfer { .. }) => {
                    (None, self.labels.intern("transfer"))
                }
                (
                    ExecLabel::Dispatched,
                    TxKind::Call {
                        contract, method, ..
                    },
                ) => {
                    let m = self.labels.intern(method);
                    let c = self.labels.intern(contract.as_str());
                    (Some(c), m)
                }
            };
            let total = self.gas_totals.entry((contract, method)).or_insert((0, 0));
            total.0 += 1;
            total.1 += done.gas_used;
        }
        // One Rc per event: consumers that keep one past a poll (push-out
        // fan-out, pull-in requests) clone the pointer, not the payload.
        // Built at its length: collecting in place would keep the
        // `Vec<Event>` buffer.
        let mut events = Vec::with_capacity(done.events.len());
        events.extend(done.events.into_iter().map(Rc::new));
        self.sealing.push(Receipt {
            tx_id: entry.id,
            block_height: height,
            status: done.status,
            gas_used: done.gas_used,
            events,
            return_data: done.return_data,
        });
    }

    /// Evicts mempool transactions whose nonce the block being sealed made
    /// stale, recording a [`TxStatus::Superseded`] receipt for each so
    /// inclusion waits resolve immediately instead of running into their
    /// timeout on a transaction that can never execute.
    ///
    /// Only the senders of `included` are looked at: `submit` refuses a
    /// nonce below the state's, so a pending entry can only have gone stale
    /// by this block bumping its sender's nonce.
    fn evict_superseded(&mut self, height: u64, included: &[PoolEntry]) {
        if self.mempool.is_empty() {
            return;
        }
        for sender in included.iter().map(|entry| entry.tx.tx.from) {
            let floor = self.state.nonce(&sender);
            while let Some(stale) = self.mempool.pop_below(&sender, floor) {
                self.record_superseded(stale.id, height);
            }
        }
        debug_assert!(
            self.mempool
                .iter()
                .all(|((sender, nonce), _)| *nonce >= self.state.nonce(sender)),
            "a stale entry of a sender outside this block survived eviction"
        );
    }

    fn record_superseded(&mut self, tx_id: TxId, height: u64) {
        self.sealing.push(Receipt {
            tx_id,
            block_height: height,
            status: TxStatus::Superseded,
            gas_used: 0,
            events: Vec::new(),
            return_data: Vec::new(),
        });
    }

    /// Seals a checkpoint when the configured interval has elapsed since
    /// the last one. Pruning itself is deferred to the *next*
    /// [`Blockchain::advance_to`] call (see [`Blockchain::prune_due`]).
    fn maybe_checkpoint(&mut self, height: u64) {
        if !self.storage.is_enabled() {
            return;
        }
        let last = self.checkpoints.last().map_or(0, |cp| cp.height);
        if height - last < self.storage.checkpoint_interval {
            return;
        }
        self.checkpoints.seal(Checkpoint {
            height,
            state_commitment: self.state.commitment(),
            accumulator: self.state.accumulator(),
            event_cursor_floor: self.storage.horizon_after_checkpoint(height, height),
        });
    }

    /// Applies the pruning implied by the last sealed checkpoint: evicts
    /// blocks and their receipts at or below
    /// `min(checkpoint_height - 1, tip - window)`, so the checkpoint's own
    /// block and the most recent `window` blocks always stay resident.
    ///
    /// Runs at the *start* of `advance_to` — one call behind checkpoint
    /// sealing — so every event sealed in a burst of blocks is readable by
    /// consumers (oracle polls between driver steps, bulk enrolment)
    /// before it is evicted.
    fn prune_due(&mut self) {
        let Some(cp) = self.checkpoints.last() else {
            return; // none sealed yet, or storage management is off
        };
        let horizon = self
            .storage
            .horizon_after_checkpoint(cp.height, self.blocks.height());
        self.blocks
            .prune_below(horizon, Block::hash)
            .unwrap_or_else(|e| panic!("archive pruned blocks: {e}"));
        // Drops the evicted blocks' receipts, unless a sharded ledger holds
        // them for its merged view.
        self.hold_receipts_above(self.receipt_hold);
    }

    /// Keeps the receipts of blocks above `height` after their blocks are
    /// pruned, and drops the pruned ones at or below it — and exactly their
    /// transaction ids from the index. A sharded ledger holds its shards'
    /// receipts this way until its merged event view has passed them; a
    /// chain on its own drops them with their blocks.
    pub(crate) fn hold_receipts_above(&mut self, height: u64) {
        self.receipt_hold = height;
        let stored_from = self.height() - self.receipts.len() as u64;
        let evict = height.min(self.prune_horizon()).saturating_sub(stored_from);
        for block in self.receipts.drain(..evict as usize) {
            for receipt in &*block {
                self.receipt_index.remove(&receipt.tx_id);
            }
        }
    }

    /// The stored receipts of the block at `height`: its transactions' in
    /// block order, then those of the stale entries it superseded. Held
    /// ones are included (see [`Blockchain::hold_receipts_above`]).
    pub(crate) fn stored_receipts(&self, height: u64) -> Option<&[Receipt]> {
        let stored_from = self.height() - self.receipts.len() as u64;
        let i = height.checked_sub(stored_from + 1)?;
        self.receipts.get(i as usize).map(|r| &**r)
    }

    // -------------------------------------------------------------- reads

    /// Chain height (number of blocks ever produced; pruning does not
    /// rewind it).
    pub fn height(&self) -> u64 {
        self.blocks.height()
    }

    /// A block by height (1-based). `None` for height 0, heights above the
    /// tip, and pruned heights — use [`Blockchain::prune_horizon`] to
    /// distinguish the last case.
    pub fn block(&self, height: u64) -> Option<&Block> {
        self.blocks.get(height)
    }

    /// The prune horizon: highest pruned height (`0` = nothing pruned).
    /// Every block and event at or below it has been evicted.
    pub fn prune_horizon(&self) -> u64 {
        self.blocks.prune_horizon()
    }

    /// Number of blocks currently resident in memory.
    pub fn retained_blocks(&self) -> usize {
        self.blocks.retained()
    }

    /// Blocks streamed to the archive so far.
    pub(crate) fn archived_blocks(&self) -> u64 {
        self.blocks.archived()
    }

    /// Every sealed checkpoint, oldest first.
    pub fn checkpoints(&self) -> &[Checkpoint] {
        self.checkpoints.all()
    }

    /// The retention configuration this chain runs with.
    pub fn storage_config(&self) -> &StorageConfig {
        &self.storage
    }

    /// Verifies every checkpoint whose block is still resident against the
    /// block's sealed state root, and that the latest checkpoint's block is
    /// resident at all (the prune horizon never evicts it). This is the
    /// chaos invariant that a pruned-then-forged history cannot smuggle a
    /// different state past a checkpoint.
    ///
    /// # Errors
    /// A description of the first mismatching checkpoint.
    pub fn verify_checkpoints(&self) -> Result<(), String> {
        for cp in self.checkpoints.all() {
            match self.blocks.get(cp.height) {
                Some(block) => {
                    if block.header.state_root != cp.state_commitment {
                        return Err(format!(
                            "checkpoint at height {} commits {:?} but the sealed block \
                             carries state root {:?}",
                            cp.height, cp.state_commitment, block.header.state_root
                        ));
                    }
                }
                None => {
                    if Some(cp.height) == self.checkpoints.last().map(|c| c.height) {
                        return Err(format!(
                            "latest checkpoint block at height {} was pruned",
                            cp.height
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Mutable block access for tamper-detection tests.
    #[cfg(test)]
    fn block_mut(&mut self, height: u64) -> Option<&mut Block> {
        self.blocks.get_mut(height)
    }

    /// The receipt for a transaction, while its block is resident (a
    /// pruned block's held receipts are for a merged event view only).
    pub fn receipt(&self, id: &TxId) -> Option<&Receipt> {
        let &(height, index) = self.receipt_index.get(id)?;
        let resident = self
            .stored_receipts(height)
            .filter(|_| height > self.prune_horizon());
        resident?.get(index as usize)
    }

    /// Executes a read-only contract call against current state
    /// (free, not part of consensus).
    ///
    /// # Errors
    /// Propagates the contract's error.
    pub fn call_view(
        &self,
        contract: &ContractId,
        method: &str,
        args: &[u8],
    ) -> Result<Vec<u8>, ContractError> {
        let code = self
            .contracts
            .get(contract)
            .ok_or_else(|| ContractError::Reverted(format!("no contract {contract}")))?;
        let mut meter = GasMeter::unmetered();
        let now = self.current_time.max(
            self.blocks
                .last()
                .map(|b| b.header.timestamp)
                .unwrap_or(SimTime::ZERO),
        );
        // Read-only: the context's write overlay is simply dropped, so the
        // canonical state is never copied or touched.
        let mut ctx = CallCtx::new(
            view_caller(),
            self.height(),
            now,
            contract.clone(),
            &self.state,
            &mut meter,
        );
        code.call(&mut ctx, method, args)
    }

    /// Validates the resident chain structure (signatures, roots, links).
    /// After pruning, validation starts from the store's `base_parent` —
    /// the hash of the last pruned block — so the link across the pruned
    /// boundary is still checked.
    ///
    /// # Errors
    /// The first [`BlockValidationError`] found.
    pub fn validate_chain(&self) -> Result<(), BlockValidationError> {
        let mut parent = self.blocks.base_parent();
        for (_, block) in self.blocks.iter() {
            block.validate()?;
            if block.header.parent != parent {
                return Err(BlockValidationError::BrokenParentLink(block.header.height));
            }
            parent = block.hash();
        }
        Ok(())
    }

    // ------------------------------------------------------- fault control

    /// Marks validator `idx` crashed (misses its slots) or recovered.
    pub fn set_validator_down(&mut self, idx: usize, down: bool) {
        if down {
            self.down_validators.insert(idx);
        } else {
            self.down_validators.remove(&idx);
        }
    }

    /// Number of validators.
    pub fn validator_count(&self) -> usize {
        self.validators.len()
    }

    /// The fee-collection addresses of every validator, in index order —
    /// the single source of truth for gas-conservation audits (gas paid
    /// out always lands on one of these).
    pub fn validator_addresses(&self) -> &[Address] {
        &self.validator_addresses
    }

    /// Slots skipped because their proposer was down.
    pub fn slots_missed(&self) -> u64 {
        self.slots_missed
    }

    // ----------------------------------------------------------- metrics

    /// Gas consumed by every transaction so far.
    pub fn gas_used_total(&self) -> u64 {
        self.gas_totals.values().map(|&(_, gas)| gas).sum()
    }

    /// Gas so far by `(contract, method)`: `(calls, total gas, mean gas)`.
    /// Costs one entry per distinct label pair, however long the chain ran.
    pub fn gas_by_method(&self) -> BTreeMap<(String, String), (u64, u64, u64)> {
        self.gas_totals
            .iter()
            .map(|(&(contract, method), &(calls, total))| {
                let contract = contract.map_or("native", |c| self.labels.resolve(c));
                let key = (
                    contract.to_string(),
                    self.labels.resolve(method).to_string(),
                );
                (key, (calls, total, total.checked_div(calls).unwrap_or(0)))
            })
            .collect()
    }

    /// Storage growth metrics: `(slots, bytes)` (experiment E12).
    pub fn state_size(&self) -> (usize, usize) {
        (
            self.state.storage_slot_count(),
            self.state.storage_byte_size(),
        )
    }

    /// Residency counters of the paged world state (observability only;
    /// exported as `/metrics` gauges and E19 columns).
    pub fn paging_stats(&self) -> PagingStats {
        self.state.paging_stats()
    }

    /// Verifies paged-state integrity: every evicted page must read back
    /// under its digest-verified handle and the decoded whole must
    /// reproduce the commitment accumulator (chaos invariant).
    ///
    /// # Errors
    /// A description of the first violation found.
    pub fn verify_pages(&self) -> Result<(), String> {
        self.state.verify_pages()
    }

    /// The current world-state commitment (what the next sealed block's
    /// `state_root` would carry).
    pub fn state_commitment(&self) -> Digest {
        self.state.commitment()
    }

    /// The gas price.
    pub fn gas_price(&self) -> Amount {
        self.gas_price
    }

    /// The block interval.
    pub fn block_interval(&self) -> SimDuration {
        self.block_interval
    }
}

/// The caller address view calls execute as. A constant: deriving it costs
/// a key-pair generation, so it is computed once per process.
fn view_caller() -> Address {
    static VIEW_CALLER: OnceLock<Address> = OnceLock::new();
    *VIEW_CALLER.get_or_init(|| Address::from_seed(b"duc/view"))
}

/// What one transaction's gas-ledger row is labelled with. The strings
/// themselves are interned by [`Blockchain::emit`] from the transaction,
/// in canonical order.
enum ExecLabel {
    /// Intrinsic gas exhausted before dispatch.
    Intrinsic,
    /// Dispatched: `"transfer"`, or the called method and contract
    /// (including "no such contract").
    Dispatched,
}

/// One transaction's pure execution outcome: every decision about it,
/// with the state mutations still buffered. One short-lived value per
/// executed transaction, consumed immediately by the commit pass — boxing
/// the `Ran` payload would add an allocation per transaction for no
/// retained-memory win.
#[allow(clippy::large_enum_variant)]
enum PureExec {
    /// The sender cannot cover the maximum fee (or it overflows): no nonce
    /// bump, no gas record, a "cannot pay gas" receipt.
    FeeFail,
    /// Executed; commit applies fee, nonce, effects and refunds.
    Ran {
        status: TxStatus,
        effects: Option<CallEffects>,
        transfer: Option<(Address, Amount)>,
        return_data: Vec<u8>,
        gas_used: u64,
        label: ExecLabel,
    },
}

/// A committed transaction, ready for [`Blockchain::emit`].
struct CommittedTx {
    status: TxStatus,
    gas_used: u64,
    /// `None` for fee failures: they leave no gas record.
    label: Option<ExecLabel>,
    events: Vec<Event>,
    return_data: Vec<u8>,
}

/// The final gas charge: the meter never exceeds its limit, but the
/// `tx_base` floor can when `gas_limit < tx_base` — clamp so the refund
/// cannot underflow.
fn clamped_gas(meter: &GasMeter, schedule: &GasSchedule, gas_limit: u64) -> u64 {
    meter.used().max(schedule.tx_base).min(gas_limit)
}

/// Executes one transaction against an immutable state snapshot, buffering
/// every would-be mutation for [`Blockchain::commit_outcome`]. Safe to run
/// concurrently for transactions whose access sets do not conflict,
/// because nothing such a transaction could observe is mutated before its
/// level commits.
fn run_tx_pure(
    state: &WorldState,
    contracts: &HashMap<ContractId, Box<dyn Contract>>,
    schedule: &GasSchedule,
    gas_price: Amount,
    entry: &PoolEntry,
    height: u64,
    timestamp: SimTime,
) -> PureExec {
    let signed = &entry.tx;
    let from = signed.tx.from;
    let gas_limit = signed.tx.gas_limit;
    // An overflowing max fee is unpayable by definition; checked so a wrap
    // cannot under-charge (submission rejects these, but the execution
    // layer must not trust the mempool).
    let Some(max_fee) = (gas_limit as Amount).checked_mul(gas_price) else {
        return PureExec::FeeFail;
    };
    if state.balance(&from) < max_fee {
        return PureExec::FeeFail;
    }
    let mut meter = GasMeter::new(gas_limit, schedule.clone());
    let intrinsic = schedule.tx_base.saturating_add(
        schedule
            .payload_byte
            .saturating_mul(entry.encoded.len() as u64),
    );
    if meter.charge(intrinsic).is_err() {
        return PureExec::Ran {
            status: TxStatus::OutOfGas,
            effects: None,
            transfer: None,
            return_data: Vec::new(),
            gas_used: clamped_gas(&meter, schedule, gas_limit),
            label: ExecLabel::Intrinsic,
        };
    }
    let (status, effects, transfer, return_data) = match &signed.tx.kind {
        TxKind::Transfer { to, amount } => {
            // Commit debits the fee reservation before the transfer; the
            // available balance (and the revert message) reflect it.
            let available = state.balance(&from) - max_fee;
            if available < *amount {
                let err = InsufficientFunds {
                    needed: *amount,
                    available,
                };
                (TxStatus::Reverted(err.to_string()), None, None, Vec::new())
            } else {
                (TxStatus::Ok, None, Some((*to, *amount)), Vec::new())
            }
        }
        TxKind::Call {
            contract,
            method,
            args,
        } => match contracts.get(contract) {
            None => (
                TxStatus::Reverted(format!("no contract {contract}")),
                None,
                None,
                Vec::new(),
            ),
            Some(code) => {
                // Run through a write overlay; the buffered effects are
                // applied only on success, a revert drops them — no
                // full-state scratch copy per call. The shadow debit makes
                // the caller's visible balance reflect the fee reservation
                // commit applies first.
                let mut ctx =
                    CallCtx::new(from, height, timestamp, contract.clone(), state, &mut meter)
                        .with_shadow_debit(max_fee);
                match code.call(&mut ctx, method, args) {
                    Ok(ret) => (TxStatus::Ok, Some(ctx.into_effects()), None, ret),
                    Err(ContractError::OutOfGas) => (TxStatus::OutOfGas, None, None, Vec::new()),
                    Err(e) => (TxStatus::Reverted(e.to_string()), None, None, Vec::new()),
                }
            }
        },
    };
    PureExec::Ran {
        status,
        effects,
        transfer,
        return_data,
        gas_used: clamped_gas(&meter, schedule, gas_limit),
        label: ExecLabel::Dispatched,
    }
}

#[cfg(test)]
mod scan_reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::AccessKey;
    use crate::Ledger;
    use duc_codec::{decode_from_slice, encode_to_vec};

    impl Blockchain {
        /// Builds a signed transfer using the account's next nonce.
        ///
        /// # Errors
        /// Returns [`SubmitError::CannotPayGas`] when the balance cannot cover
        /// amount + maximum fee.
        fn build_transfer(
            &self,
            key: &KeyPair,
            to: Address,
            amount: Amount,
        ) -> Result<SignedTransaction, SubmitError> {
            let from = Address::from_public_key(&key.public());
            // Intrinsic cost covers the base fee plus per-byte payload charges
            // (a signed transfer encodes to ~120 bytes).
            let gas_limit = self.gas_schedule.tx_base + 8_000;
            let needed = (gas_limit as Amount)
                .checked_mul(self.gas_price)
                .and_then(|fee| amount.checked_add(fee))
                .ok_or(SubmitError::FeeOverflow)?;
            if self.state.balance(&from) < needed {
                return Err(SubmitError::CannotPayGas);
            }
            Ok(Transaction {
                from,
                nonce: self.next_nonce(&from),
                kind: TxKind::Transfer { to, amount },
                gas_limit,
            }
            .sign(key))
        }
    }

    pub(super) struct Counter;

    impl Contract for Counter {
        fn call(
            &self,
            ctx: &mut CallCtx<'_>,
            method: &str,
            args: &[u8],
        ) -> Result<Vec<u8>, ContractError> {
            match method {
                "incr" => {
                    let (by,): (u64,) = decode_from_slice(args)?;
                    let current: u64 = ctx.get(b"count")?.unwrap_or(0);
                    ctx.set(b"count".to_vec(), &(current + by))?;
                    ctx.emit("Incr", encode_to_vec(&(current + by,)))?;
                    Ok(encode_to_vec(&(current + by,)))
                }
                "get" => {
                    let current: u64 = ctx.get(b"count")?.unwrap_or(0);
                    Ok(encode_to_vec(&(current,)))
                }
                "boom" => Err(ContractError::Reverted("boom".into())),
                other => Err(ContractError::UnknownMethod(other.into())),
            }
        }
    }

    fn chain_with_counter() -> (Blockchain, KeyPair) {
        let mut chain = Blockchain::builder()
            .validators(3)
            .block_interval(SimDuration::from_secs(2))
            .build();
        chain.deploy(ContractId::new("counter"), Box::new(Counter));
        let alice = chain.create_funded_account(b"alice", 10_000_000);
        (chain, alice)
    }

    #[test]
    fn transfer_moves_funds_and_charges_fees() {
        let (mut chain, alice) = chain_with_counter();
        let bob = Address::from_seed(b"bob");
        let tx = chain.build_transfer(&alice, bob, 1_000).unwrap();
        chain.submit(tx).unwrap();
        chain.advance_to(SimTime::from_secs(2));
        assert_eq!(chain.height(), 1);
        assert_eq!(chain.balance(&bob), 1_000);
        let alice_addr = Address::from_public_key(&alice.public());
        assert!(
            chain.balance(&alice_addr) < 10_000_000 - 1_000,
            "fees charged"
        );
    }

    #[test]
    fn contract_call_executes_and_emits() {
        let (mut chain, alice) = chain_with_counter();
        let tx = chain.build_call(
            &alice,
            ContractId::new("counter"),
            "incr",
            encode_to_vec(&(7u64,)),
            200_000,
        );
        let id = chain.submit(tx).unwrap();
        chain.advance_to(SimTime::from_secs(2));
        let receipt = chain.receipt(&id).expect("included");
        assert!(receipt.status.is_ok());
        assert_eq!(receipt.events.len(), 1);
        assert!(receipt.gas_used > 21_000);
        let out = chain
            .call_view(&ContractId::new("counter"), "get", &[])
            .unwrap();
        let (v,): (u64,) = decode_from_slice(&out).unwrap();
        assert_eq!(v, 7);
    }

    #[test]
    fn revert_rolls_back_state_but_charges_gas() {
        let (mut chain, alice) = chain_with_counter();
        let tx1 = chain.build_call(
            &alice,
            ContractId::new("counter"),
            "incr",
            encode_to_vec(&(1u64,)),
            200_000,
        );
        chain.submit(tx1).unwrap();
        chain.advance_to(SimTime::from_secs(2));
        let tx2 = chain.build_call(&alice, ContractId::new("counter"), "boom", vec![], 200_000);
        let id2 = chain.submit(tx2).unwrap();
        chain.advance_to(SimTime::from_secs(4));
        let receipt = chain.receipt(&id2).unwrap();
        assert!(matches!(receipt.status, TxStatus::Reverted(_)));
        assert!(receipt.gas_used > 0);
        let out = chain
            .call_view(&ContractId::new("counter"), "get", &[])
            .unwrap();
        let (v,): (u64,) = decode_from_slice(&out).unwrap();
        assert_eq!(v, 1, "boom did not mutate state");
    }

    #[test]
    fn out_of_gas_reverts() {
        let (mut chain, alice) = chain_with_counter();
        let tx = chain.build_call(
            &alice,
            ContractId::new("counter"),
            "incr",
            encode_to_vec(&(1u64,)),
            22_000, // enough intrinsic, not enough for storage
        );
        let id = chain.submit(tx).unwrap();
        chain.advance_to(SimTime::from_secs(2));
        assert_eq!(chain.receipt(&id).unwrap().status, TxStatus::OutOfGas);
        let out = chain
            .call_view(&ContractId::new("counter"), "get", &[])
            .unwrap();
        let (v,): (u64,) = decode_from_slice(&out).unwrap();
        assert_eq!(v, 0);
    }

    #[test]
    fn submit_rejects_bad_transactions() {
        let (mut chain, alice) = chain_with_counter();
        // Tampered signature.
        let mut tx = chain.build_call(&alice, ContractId::new("counter"), "get", vec![], 50_000);
        tx.tx.gas_limit += 1;
        assert_eq!(chain.submit(tx), Err(SubmitError::InvalidSignature));
        // Stale nonce.
        let t1 = chain.build_call(&alice, ContractId::new("counter"), "get", vec![], 50_000);
        chain.submit(t1.clone()).unwrap();
        chain.advance_to(SimTime::from_secs(2));
        assert!(matches!(
            chain.submit(t1),
            Err(SubmitError::NonceTooLow { .. })
        ));
        // Unfunded sender.
        let poor = KeyPair::from_seed(b"poor");
        let tx = Transaction {
            from: Address::from_public_key(&poor.public()),
            nonce: 0,
            kind: TxKind::Transfer {
                to: Address::from_seed(b"x"),
                amount: 1,
            },
            gas_limit: 50_000,
        }
        .sign(&poor);
        assert_eq!(chain.submit(tx), Err(SubmitError::CannotPayGas));
    }

    #[test]
    fn duplicate_nonce_rejected_in_mempool() {
        let (mut chain, alice) = chain_with_counter();
        let t1 = chain.build_call(&alice, ContractId::new("counter"), "get", vec![], 50_000);
        // Build a second tx with the same nonce by constructing manually.
        let t2 = Transaction {
            nonce: t1.tx.nonce,
            ..t1.tx.clone()
        }
        .sign(&alice);
        chain.submit(t1).unwrap();
        assert_eq!(chain.submit(t2), Err(SubmitError::DuplicateNonce));
    }

    #[test]
    fn nonce_sequencing_across_blocks() {
        let (mut chain, alice) = chain_with_counter();
        for _ in 0..5 {
            let tx = chain.build_call(
                &alice,
                ContractId::new("counter"),
                "incr",
                encode_to_vec(&(1u64,)),
                200_000,
            );
            chain.submit(tx).unwrap();
        }
        chain.advance_to(SimTime::from_secs(2));
        let out = chain
            .call_view(&ContractId::new("counter"), "get", &[])
            .unwrap();
        let (v,): (u64,) = decode_from_slice(&out).unwrap();
        assert_eq!(v, 5, "all five sequential-nonce txs executed in one block");
    }

    #[test]
    fn blocks_produced_on_schedule() {
        let (mut chain, alice) = chain_with_counter();
        // No pending work → no blocks, but time advances.
        assert_eq!(chain.advance_to(SimTime::from_secs(10)), 0);
        assert_eq!(chain.current_time(), SimTime::from_secs(10));
        assert_eq!(chain.height(), 0);
        // Work arrives: it is included at the next slot boundary (t = 12 s).
        let tx = chain.build_call(
            &alice,
            ContractId::new("counter"),
            "incr",
            encode_to_vec(&(1u64,)),
            200_000,
        );
        chain.submit(tx).unwrap();
        assert_eq!(
            chain.advance_to(SimTime::from_secs(11)),
            0,
            "slot not due yet"
        );
        assert_eq!(chain.advance_to(SimTime::from_secs(12)), 1);
        assert_eq!(
            chain.block(1).unwrap().header.timestamp,
            SimTime::from_secs(12)
        );
    }

    #[test]
    fn long_idle_periods_are_cheap() {
        let (mut chain, _) = chain_with_counter();
        // A month of idle time must not seal a million empty blocks.
        chain.advance_to(SimTime::ZERO + SimDuration::from_days(31));
        assert_eq!(chain.height(), 0);
        assert_eq!(
            chain.current_time(),
            SimTime::ZERO + SimDuration::from_days(31)
        );
    }

    #[test]
    fn crashed_proposer_misses_slot() {
        let (mut chain, alice) = chain_with_counter();
        // Validators rotate 1,2,0,1,2,0... (slot k → k mod 3).
        chain.set_validator_down(1, true);
        let tx = chain.build_call(
            &alice,
            ContractId::new("counter"),
            "incr",
            encode_to_vec(&(1u64,)),
            200_000,
        );
        chain.submit(tx).unwrap();
        // Slot 1 (t=2s) belongs to the crashed v1 → missed; slot 2 (t=4s)
        // belongs to v2 → block.
        chain.advance_to(SimTime::from_secs(4));
        assert_eq!(chain.height(), 1);
        assert_eq!(chain.slots_missed(), 1);
        assert_eq!(
            chain.block(1).unwrap().header.timestamp,
            SimTime::from_secs(4)
        );
        chain.set_validator_down(1, false);
        let tx = chain.build_call(
            &alice,
            ContractId::new("counter"),
            "incr",
            encode_to_vec(&(1u64,)),
            200_000,
        );
        chain.submit(tx).unwrap();
        chain.advance_to(SimTime::from_secs(6));
        assert_eq!(chain.height(), 2, "chain is live again");
    }

    #[test]
    fn chain_validates_and_detects_tampering() {
        let (mut chain, alice) = chain_with_counter();
        for i in 0..3 {
            let tx = chain.build_call(
                &alice,
                ContractId::new("counter"),
                "incr",
                encode_to_vec(&(i,)),
                200_000,
            );
            chain.submit(tx).unwrap();
            chain.advance_to(SimTime::from_secs(2 * (i + 1)));
        }
        assert_eq!(chain.validate_chain(), Ok(()));
        // Tamper with an old block (height-addressed; no raw indexing).
        chain.block_mut(1).unwrap().header.timestamp = SimTime::from_secs(999);
        assert!(chain.validate_chain().is_err());
    }

    #[test]
    fn events_since_filters_by_height() {
        let (mut chain, alice) = chain_with_counter();
        for i in 1..=3u64 {
            let tx = chain.build_call(
                &alice,
                ContractId::new("counter"),
                "incr",
                encode_to_vec(&(i,)),
                200_000,
            );
            chain.submit(tx).unwrap();
            chain.advance_to(SimTime::from_secs(2 * i));
        }
        assert_eq!(chain.events_since(0).len(), 3);
        assert_eq!(chain.events_since(2).len(), 1);
        assert_eq!(chain.events_since(3).len(), 0);
    }

    #[test]
    fn gas_ledger_aggregates_by_method() {
        let (mut chain, alice) = chain_with_counter();
        for i in 0..4u64 {
            let tx = chain.build_call(
                &alice,
                ContractId::new("counter"),
                "incr",
                encode_to_vec(&(i,)),
                200_000,
            );
            chain.submit(tx).unwrap();
        }
        chain.advance_to(SimTime::from_secs(2));
        let agg = chain.gas_by_method();
        let (calls, total, mean) = agg[&("counter".to_string(), "incr".to_string())];
        assert_eq!(calls, 4);
        assert!(total > 0 && mean > 0 && mean <= total);
        let by_method: u64 = agg.values().map(|&(_, total, _)| total).sum();
        assert_eq!(chain.gas_used_total(), by_method);
    }

    #[test]
    fn block_gas_ceiling_defers_transactions() {
        let mut chain = Blockchain::builder()
            .validators(1)
            .max_block_gas(150_000)
            .build();
        chain.deploy(ContractId::new("counter"), Box::new(Counter));
        let alice = chain.create_funded_account(b"alice", 100_000_000);
        for i in 0..5u64 {
            let tx = chain.build_call(
                &alice,
                ContractId::new("counter"),
                "incr",
                encode_to_vec(&(i,)),
                60_000,
            );
            chain.submit(tx).unwrap();
        }
        chain.advance_to(SimTime::from_secs(2));
        // 150k ceiling / 60k limit → 2 per block.
        assert_eq!(chain.block(1).unwrap().transactions.len(), 2);
        assert_eq!(chain.pending_count(), 3);
        chain.advance_to(SimTime::from_secs(6));
        assert_eq!(chain.pending_count(), 0, "drained over later blocks");
    }

    #[test]
    fn gas_limit_above_the_block_ceiling_is_rejected_at_submit() {
        // Admitted, such a transaction could never be selected: it would
        // pend forever without a receipt, block its sender's nonce chain
        // and keep the mempool non-empty, sealing an empty block per slot.
        let mut chain = Blockchain::builder()
            .validators(1)
            .max_block_gas(150_000)
            .build();
        chain.deploy(ContractId::new("counter"), Box::new(Counter));
        let alice = chain.create_funded_account(b"alice", 100_000_000);
        let tx = chain.build_call(&alice, ContractId::new("counter"), "get", vec![], 200_000);
        assert_eq!(
            chain.submit(tx),
            Err(SubmitError::ExceedsBlockGas {
                gas_limit: 200_000,
                max_block_gas: 150_000
            })
        );
        assert_eq!(chain.advance_to(SimTime::from_secs(2000)), 0);
        assert_eq!((chain.pending_count(), chain.height()), (0, 0));
        // The idle fast-forward still applies: work arriving now is
        // included at the very next slot, not after a 1000-slot backlog.
        let tx = chain.build_call(&alice, ContractId::new("counter"), "get", vec![], 150_000);
        let id = chain.submit(tx).unwrap();
        assert_eq!(chain.advance_to(SimTime::from_secs(2002)), 1);
        assert!(chain.receipt(&id).unwrap().status.is_ok());
    }

    /// Produces `n` one-tx blocks at 2 s cadence on a chain with the given
    /// storage config, returning the chain.
    fn chain_with_blocks(storage: StorageConfig, n: u64) -> Blockchain {
        let mut chain = Blockchain::builder()
            .validators(3)
            .block_interval(SimDuration::from_secs(2))
            .storage(storage)
            .build();
        chain.deploy(ContractId::new("counter"), Box::new(Counter));
        let alice = chain.create_funded_account(b"alice", 1_000_000_000);
        for i in 1..=n {
            let tx = chain.build_call(
                &alice,
                ContractId::new("counter"),
                "incr",
                encode_to_vec(&(i,)),
                200_000,
            );
            chain.submit(tx).unwrap();
            chain.advance_to(SimTime::from_secs(2 * i));
        }
        chain
    }

    #[test]
    fn checkpoints_seal_on_interval_and_prune_behind() {
        let chain = chain_with_blocks(StorageConfig::enabled(4, 2), 10);
        assert_eq!(chain.height(), 10);
        // Checkpoints seal at heights 4 and 8; pruning lags one advance by
        // design, so the last applied horizon (at the advance that sealed
        // block 10, tip 9 then) is min(8 - 1, 9 - 2) = 7.
        let heights: Vec<u64> = chain.checkpoints().iter().map(|cp| cp.height).collect();
        assert_eq!(heights, vec![4, 8]);
        assert_eq!(chain.prune_horizon(), 7);
        assert_eq!(chain.retained_blocks(), 3);
        // Height addressing survives pruning.
        assert!(chain.block(7).is_none());
        assert_eq!(chain.block(8).unwrap().header.height, 8);
        assert_eq!(chain.block(10).unwrap().header.height, 10);
        // The resident suffix still validates across the pruned boundary.
        assert_eq!(chain.validate_chain(), Ok(()));
        chain.verify_checkpoints().expect("checkpoints consistent");
        // Event reads start above the horizon, and stale cursors get a
        // typed error instead of silently missing pruned events.
        assert!(chain.events_since(0).len() < 10);
        assert!(chain
            .events_since(chain.prune_horizon())
            .iter()
            .all(|(h, _)| h > 7));
        let err = crate::Ledger::try_events_since(&chain, 3).unwrap_err();
        assert_eq!(
            err,
            duc_storage::PrunedRange {
                requested: 3,
                horizon: 7
            }
        );
        assert!(crate::Ledger::try_events_since(&chain, 7).is_ok());
        // Receipts for resident blocks survive pruning.
        assert!(chain
            .block(8)
            .unwrap()
            .transactions
            .iter()
            .all(|tx| chain.receipt(&tx.id()).is_some()));
    }

    #[test]
    fn disabled_storage_retains_everything() {
        let chain = chain_with_blocks(StorageConfig::disabled(), 10);
        assert_eq!(chain.prune_horizon(), 0);
        assert_eq!(chain.retained_blocks(), 10);
        assert!(chain.checkpoints().is_empty());
        assert_eq!(chain.events_since(0).len(), 10);
    }

    #[test]
    fn pruned_blocks_stream_to_the_archive() {
        let path = std::env::temp_dir().join(format!(
            "duc-chain-archive-{}-{:p}.bin",
            std::process::id(),
            &SEAL_MARKER
        ));
        std::fs::remove_file(&path).ok();
        let chain = chain_with_blocks(StorageConfig::enabled(4, 2).with_archive(&path), 10);
        assert_eq!(chain.archived_blocks(), 7);
        let frames = duc_storage::FramedLog::read_all(&path).expect("read archive");
        std::fs::remove_file(&path).ok();
        assert_eq!(frames.len(), 7);
        // Every frame decodes to the block that was pruned, validates, and
        // links to its predecessor; the last links to the oldest resident.
        let unpruned = chain_with_blocks(StorageConfig::disabled(), 10);
        let mut parent = Digest::ZERO;
        for (i, frame) in frames.iter().enumerate() {
            let block: Block = decode_from_slice(frame).expect("archived block decodes");
            assert_eq!(Some(&block), unpruned.block(i as u64 + 1));
            assert_eq!(block.validate(), Ok(()));
            assert_eq!(block.header.parent, parent, "height {}", i + 1);
            parent = block.hash();
        }
        assert_eq!(chain.block(8).expect("resident").header.parent, parent);
    }

    /// The bytes a pruned block is archived as, pinned: the frame count and
    /// the SHA-256 of each archived payload of a fixed 10-block chain.
    /// Recorded before the archive and the page spill log shared one frame
    /// format; only the framing around a payload may change, never these.
    #[test]
    fn archived_payloads_match_their_known_answers() {
        let path = std::env::temp_dir().join(format!(
            "duc-chain-archive-pins-{}-{:p}.bin",
            std::process::id(),
            &SEAL_MARKER
        ));
        std::fs::remove_file(&path).ok();
        let chain = chain_with_blocks(StorageConfig::enabled(4, 2).with_archive(&path), 10);
        let frames = duc_storage::FramedLog::read_all(&path).expect("read archive");
        std::fs::remove_file(&path).ok();
        let digests: Vec<String> = frames
            .iter()
            .map(|f| {
                duc_crypto::sha256(f)
                    .0
                    .iter()
                    .map(|b| format!("{b:02x}"))
                    .collect()
            })
            .collect();
        assert_eq!(chain.archived_blocks(), 7);
        assert_eq!(
            digests,
            [
                "17075c166f256db48841606a693fb358359ac22f639cbf109e50e2f539bb8b6c",
                "10b5adb21657a138e5cebf7bab56f0c4fadf058dad28812e6a91811493c3b9e6",
                "dcff3b2e9c668f77dfa41c3a1ae2ae7da7baff3565cb37a14acaa36e53722c9a",
                "f96dc6cbe11cc17fcaee1a5a97e91e1c31b98048e807a1b06a0d2a582fc98b89",
                "2e9a8d33a26050dc3211b75ddb7ca5f9ac666a45ca1aff60b5e85942cf403982",
                "36407d11ceefb77c91483ecfba94518f342549b7edf4dc3d00d3a32cbcd3c95d",
                "b25719737df2361f6dc9b508bb777451aa38290aecfc0533517ee836c41ffbbe",
            ]
        );
    }

    /// Address anchor for unique temp paths (one per test binary load).
    static SEAL_MARKER: u8 = 0;

    #[test]
    fn view_calls_do_not_mutate() {
        let (mut chain, alice) = chain_with_counter();
        let tx = chain.build_call(
            &alice,
            ContractId::new("counter"),
            "incr",
            encode_to_vec(&(1u64,)),
            200_000,
        );
        chain.submit(tx).unwrap();
        chain.advance_to(SimTime::from_secs(2));
        let (s0, _) = chain.state_size();
        let _ = chain
            .call_view(&ContractId::new("counter"), "get", &[])
            .unwrap();
        assert_eq!(chain.state_size().0, s0);
        assert!(chain
            .call_view(&ContractId::new("missing"), "get", &[])
            .is_err());
    }

    #[test]
    fn overflowing_max_fee_is_rejected_not_wrapped() {
        // A gas price high enough that gas_limit × price exceeds u128: the
        // unchecked multiplication used to wrap and drastically under-charge.
        let mut chain = Blockchain::builder()
            .validators(1)
            .gas_price(Amount::MAX / 2)
            .build();
        let alice = chain.create_funded_account(b"alice", Amount::MAX);
        assert_eq!(
            chain
                .build_transfer(&alice, Address::from_seed(b"bob"), 1)
                .unwrap_err(),
            SubmitError::FeeOverflow
        );
        let tx = Transaction {
            from: Address::from_public_key(&alice.public()),
            nonce: 0,
            kind: TxKind::Transfer {
                to: Address::from_seed(b"bob"),
                amount: 1,
            },
            gas_limit: u64::MAX,
        }
        .sign(&alice);
        assert_eq!(chain.submit(tx), Err(SubmitError::FeeOverflow));
    }

    #[test]
    fn gas_limit_below_tx_base_cannot_underflow_the_refund() {
        // gas_used is floored at tx_base; without the limit clamp the
        // refund `gas_limit - gas_used` would underflow for a tiny limit.
        let (mut chain, alice) = chain_with_counter();
        let addr = Address::from_public_key(&alice.public());
        let before = chain.balance(&addr);
        let tx = chain.build_call(
            &alice,
            ContractId::new("counter"),
            "incr",
            encode_to_vec(&(1u64,)),
            1_000, // far below the 21k intrinsic base
        );
        let id = chain.submit(tx).unwrap();
        chain.advance_to(SimTime::from_secs(2));
        let receipt = chain.receipt(&id).unwrap();
        assert_eq!(receipt.status, TxStatus::OutOfGas);
        assert_eq!(receipt.gas_used, 1_000, "clamped to the limit");
        assert_eq!(
            chain.balance(&addr),
            before - 1_000 * chain.gas_price(),
            "charged exactly the limit, no refund underflow"
        );
    }

    #[test]
    fn superseded_transactions_get_receipts_on_eviction() {
        let (mut chain, alice) = chain_with_counter();
        let addr = Address::from_public_key(&alice.public());
        let t0 = chain.build_call(
            &alice,
            ContractId::new("counter"),
            "incr",
            encode_to_vec(&(1u64,)),
            200_000,
        );
        chain.submit(t0).unwrap();
        chain.advance_to(SimTime::from_secs(2));
        // Forge the race a gossiping network produces: a tx whose nonce a
        // just-sealed block consumed reaches this node's mempool (the
        // submit path would reject it, so plant it directly).
        let stale = Transaction {
            from: addr,
            nonce: 0,
            kind: TxKind::Transfer {
                to: Address::from_seed(b"x"),
                amount: 5,
            },
            gas_limit: 60_000,
        }
        .sign(&alice);
        let stale_id = stale.id();
        chain.mempool.insert(PoolEntry::new(stale));
        let live = chain.build_call(
            &alice,
            ContractId::new("counter"),
            "incr",
            encode_to_vec(&(1u64,)),
            200_000,
        );
        let live_id = chain.submit(live).unwrap();
        assert!(chain.receipt(&stale_id).is_none());
        chain.advance_to(SimTime::from_secs(4));
        // The stale entry is evicted with a typed receipt instead of
        // lingering (and starving pollers) forever — by the very block
        // that consumed its nonce, so an inclusion wait probing for a
        // receipt of any status ends at that block's instant.
        let receipt = chain.receipt(&stale_id).expect("eviction left a receipt");
        assert_eq!(receipt.status, TxStatus::Superseded);
        assert_eq!(receipt.block_height, 2);
        assert_eq!(
            chain.block(2).unwrap().header.timestamp,
            SimTime::from_secs(4)
        );
        assert_eq!(receipt.gas_used, 0);
        assert!(chain.receipt(&live_id).unwrap().status.is_ok());
        assert_eq!(chain.pending_count(), 0);
    }

    // ------------------------------------------------- parallel execution

    /// Access derivation for the [`Counter`] test contract: one slot per
    /// deployed instance, so calls against different instances commute.
    pub(super) fn counter_access_fn() -> AccessFn {
        Box::new(|p: &AccessParams<'_>| {
            let slot = || AccessKey::Slot {
                space: exec::fnv1a(b"ctr"),
                key: exec::fnv1a(p.contract.as_str().as_bytes()),
            };
            match p.method {
                "incr" | "boom" => AccessSet::declared().read(slot()).write(slot()),
                "get" => AccessSet::declared().read(slot()),
                _ => AccessSet::Exclusive,
            }
        })
    }

    /// Runs a mixed workload (disjoint calls, shared-counter conflicts,
    /// reverts, out-of-gas, transfers, a mid-block fee failure) under the
    /// given execution mode and returns the finished chain.
    fn parity_workload(mode: ExecMode, with_access: bool) -> Blockchain {
        let mut chain = Blockchain::builder()
            .validators(3)
            .block_interval(SimDuration::from_secs(2))
            .gas_price(1)
            .max_block_gas(100_000_000)
            .exec_mode(mode)
            .exec_threads(4)
            .build();
        for i in 0..4 {
            chain.deploy(ContractId::new(format!("ctr-{i}")), Box::new(Counter));
        }
        if with_access {
            chain.set_access_fn(counter_access_fn());
        }
        let keys: Vec<KeyPair> = (0..6)
            .map(|i| chain.create_funded_account(format!("sender-{i}").as_bytes(), 50_000_000))
            .collect();
        // A sender whose second tx passes admission against the pre-block
        // balance but cannot pay its fee after the first lands (the
        // fee-failure path must agree between the executors).
        let pauper = chain.create_funded_account(b"pauper", 100_000);
        let t = chain
            .build_transfer(&pauper, Address::from_seed(b"sink"), 70_000)
            .unwrap();
        chain.submit(t).unwrap();
        let t = chain.build_call(&pauper, ContractId::new("ctr-3"), "get", vec![], 50_000);
        chain.submit(t).unwrap();
        for round in 0..3u64 {
            for (i, key) in keys.iter().enumerate() {
                let ctr = ContractId::new(format!("ctr-{}", i % 4));
                let tx = chain.build_call(
                    key,
                    ctr,
                    "incr",
                    encode_to_vec(&(i as u64 + round + 1,)),
                    200_000,
                );
                chain.submit(tx).unwrap();
            }
            // Same-sender pair on a shared counter: must serialize.
            let tx = chain.build_call(
                &keys[0],
                ContractId::new("ctr-0"),
                "incr",
                encode_to_vec(&(1u64,)),
                200_000,
            );
            chain.submit(tx).unwrap();
            // A revert and an out-of-gas, mid-batch.
            let tx = chain.build_call(&keys[1], ContractId::new("ctr-1"), "boom", vec![], 200_000);
            chain.submit(tx).unwrap();
            let tx = chain.build_call(
                &keys[2],
                ContractId::new("ctr-2"),
                "incr",
                encode_to_vec(&(1u64,)),
                22_000,
            );
            chain.submit(tx).unwrap();
            // Transfers derive no access set: always exclusive.
            let tx = chain
                .build_transfer(&keys[3], Address::from_seed(b"sink"), 1_000)
                .unwrap();
            chain.submit(tx).unwrap();
            chain.advance_to(SimTime::from_secs(2 * (round + 1)));
        }
        chain
    }

    /// Full-fingerprint equality: block hashes chain over parent, state
    /// root and tx root, so matching tip hashes mean byte-identical
    /// histories; receipts, events and gas accounting are checked on top.
    fn assert_chains_identical(a: &Blockchain, b: &Blockchain) {
        assert_eq!(a.height(), b.height());
        for h in 1..=a.height() {
            let ba = a.block(h).unwrap();
            let bb = b.block(h).unwrap();
            assert_eq!(ba.hash(), bb.hash(), "block {h} diverged");
            for tx in &ba.transactions {
                assert_eq!(
                    format!("{:?}", a.receipt(&tx.id())),
                    format!("{:?}", b.receipt(&tx.id())),
                    "receipt diverged at height {h}"
                );
            }
        }
        assert_eq!(
            format!("{:?}", a.events_since(0).iter().collect::<Vec<_>>()),
            format!("{:?}", b.events_since(0).iter().collect::<Vec<_>>())
        );
        assert_eq!(a.gas_by_method(), b.gas_by_method());
        assert_eq!(a.pending_count(), b.pending_count());
    }

    /// Both schedulers share one executor, so serial == parallel no longer
    /// proves that either equals the hand-written serial executor that was
    /// deleted. These literals were recorded from it (commit db3a33b) on a
    /// workload with Ok, Reverted, OutOfGas and "cannot pay gas" receipts.
    #[test]
    fn parity_workload_matches_the_deleted_serial_reference() {
        for (mode, with_access) in [
            (ExecMode::Serial, true),
            (ExecMode::Parallel, true),
            (ExecMode::Parallel, false),
        ] {
            let chain = parity_workload(mode, with_access);
            assert_eq!(chain.height(), 3);
            assert_eq!(
                chain.block(3).unwrap().hash().to_string(),
                "3ce88398c01d61cf0edf71e740a2cf2d81ea946857e894f743f08fe147533a48"
            );
            let expected_gas = [
                ("ctr-0", "incr", 9, 285_289, 31_698),
                ("ctr-1", "boom", 3, 67_512, 22_504),
                ("ctr-1", "incr", 6, 190_126, 31_687),
                ("ctr-2", "incr", 3, 94_963, 31_654),
                ("ctr-3", "incr", 3, 94_963, 31_654),
                ("native", "intrinsic", 3, 66_000, 22_000),
                ("native", "transfer", 4, 91_744, 22_936),
            ]
            .map(|(c, m, calls, total, mean)| ((c.into(), m.into()), (calls, total, mean)));
            assert_eq!(chain.gas_by_method(), BTreeMap::from(expected_gas));
            let mut statuses: BTreeMap<String, usize> = BTreeMap::new();
            for h in 1..=chain.height() {
                for tx in &chain.block(h).unwrap().transactions {
                    let status = &chain.receipt(&tx.id()).expect("included").status;
                    *statuses.entry(format!("{status:?}")).or_default() += 1;
                }
            }
            let expected_statuses = [
                ("Ok", 25),
                ("OutOfGas", 3),
                ("Reverted(\"cannot pay gas\")", 1),
                ("Reverted(\"reverted: boom\")", 3),
            ]
            .map(|(s, n)| (s.to_string(), n));
            assert_eq!(statuses, BTreeMap::from(expected_statuses));
            assert_eq!(chain.events_since(0).len(), 21);
        }
    }

    /// Regression: `emit` collected a receipt's events into `Rc`s in place,
    /// reusing the executed `Vec<Event>`'s buffer, so a one-event receipt
    /// kept 288 B of capacity for one 8-byte pointer for as long as the
    /// receipt lived.
    #[test]
    fn stored_receipts_hold_their_events_at_length() {
        for mode in [ExecMode::Serial, ExecMode::Parallel] {
            let chain = parity_workload(mode, true);
            for h in 1..=chain.height() {
                for tx in &chain.block(h).unwrap().transactions {
                    let events = &chain.receipt(&tx.id()).expect("included").events;
                    assert_eq!(events.capacity(), events.len(), "{mode:?}, height {h}");
                }
            }
        }
    }

    #[test]
    fn parallel_execution_matches_serial_byte_for_byte() {
        let serial = parity_workload(ExecMode::Serial, true);
        let parallel = parity_workload(ExecMode::Parallel, true);
        assert_chains_identical(&serial, &parallel);
    }

    #[test]
    fn parallel_without_access_fn_still_matches_serial() {
        // No derivation installed: every tx is exclusive, levels collapse
        // to singletons, and output must still be identical.
        let serial = parity_workload(ExecMode::Serial, false);
        let parallel = parity_workload(ExecMode::Parallel, false);
        assert_chains_identical(&serial, &parallel);
    }
}
