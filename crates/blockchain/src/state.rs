//! The world state: accounts and a paged contract-slot store.
//!
//! Contract storage is organized as fixed-capacity *pages* — contiguous
//! key ranges per contract, in the style of B-tree leaves — so the
//! resident footprint is bounded by a page cache rather than growing
//! linearly with the population. Cold pages spill through a
//! [`duc_storage::PageStore`] (memory- or file-backed) and fault back in
//! transparently on read; the XOR-multiset commitment accumulator makes
//! this safe, because eviction never touches the commitment and every
//! fault-in re-verifies the page digest.
//!
//! A resident page is a [`duc_storage::SlottedPage`]: the page's spill
//! encoding itself plus an index of slot offsets and 8-byte key heads,
//! probed by binary search and mutated in place. There is no decoded form,
//! so a fault-in is one digest-verified read and one validating pass over
//! the bytes, evicting a clean page drops it, and evicting a dirty one
//! appends the bytes it already holds.
//!
//! A lookup finds its page in a per-contract directory keyed by the first
//! 16 bytes of each page's first key as one `u128`, so it compares those
//! heads inline and full first keys only where two pages share a head. The
//! page table is a `Vec` indexed by page id. A read borrows the value from
//! the page (`WorldState::storage_with`), so a contract decodes a row
//! straight out of the state's bytes. Directory heads and page heads are
//! derived from first keys and page bytes; nothing spilled, hashed or
//! committed holds them, and [`WorldState::verify_pages`] rebuilds and
//! compares them.
//!
//! Account rows are folded into the accumulator once per block, not once
//! per touch: a transaction's fee debit, nonce bump, refund and proposer
//! credit hit the same few accounts, so the first touch of an account takes
//! its old row out and later touches only mutate it. The chain settles the
//! touched rows back in before it seals. Reads of the commitment fold any
//! unsettled rows in on the fly, so they are exact at every instant and no
//! caller has to remember to settle first.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

use duc_crypto::{hash_parts, Digest};
use duc_storage::{PageRef, PageStore, PagingConfig, SlottedPage};

use crate::types::{Address, Amount, ContractId};

/// One account's ledger entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct AccountState {
    /// Spendable balance.
    pub balance: Amount,
    /// Next expected transaction nonce.
    pub nonce: u64,
}

/// An account as the state holds it: its entry, and whether the
/// accumulator holds the entry's row (`false` between the first touch in a
/// block and [`WorldState::settle`]).
#[derive(Debug, Clone, Copy)]
struct Account {
    state: AccountState,
    folded: bool,
}

// ------------------------------------------------------------ paging stats

/// Residency counters for the paged slot store.
///
/// These are *observability* numbers (exported as `/metrics` gauges and
/// E19 columns), never part of replay fingerprints: under parallel
/// execution the fault/eviction pattern depends on thread interleaving
/// while the state content — and therefore the commitment — does not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagingStats {
    /// Pages currently held in memory.
    pub resident_pages: usize,
    /// Pages in existence (resident + evicted).
    pub total_pages: usize,
    /// Key + value bytes held by resident pages.
    pub resident_bytes: usize,
    /// Pages pushed out of the cache since genesis.
    pub evictions: u64,
    /// Pages read back in since genesis.
    pub fault_ins: u64,
    /// Pages spilled to the store (net of compaction rewrites).
    pub spilled_pages: u64,
    /// Live bytes in the spill log.
    pub spilled_live_bytes: u64,
    /// Retired bytes in the spill log awaiting compaction.
    pub spilled_dead_bytes: u64,
    /// Spill-log compaction passes.
    pub compactions: u64,
}

impl PagingStats {
    /// Accumulates another shard's stats into this one.
    pub fn merge(&mut self, other: &PagingStats) {
        self.resident_pages += other.resident_pages;
        self.total_pages += other.total_pages;
        self.resident_bytes += other.resident_bytes;
        self.evictions += other.evictions;
        self.fault_ins += other.fault_ins;
        self.spilled_pages += other.spilled_pages;
        self.spilled_live_bytes += other.spilled_live_bytes;
        self.spilled_dead_bytes += other.spilled_dead_bytes;
        self.compactions += other.compactions;
    }
}

// ------------------------------------------------------------- paged slots

/// A page's index in the page table. Ids are handed out in sequence and
/// never reused, so the table is a dense `Vec` with a hole per dropped page.
type PageId = usize;

/// The first 16 bytes of `key`, big-endian and zero-padded. Heads order
/// like the keys they start, except that equal heads (`k` and `k\0` have
/// one) leave the order to the full keys.
fn dir_head(key: &[u8]) -> u128 {
    match key.first_chunk::<16>() {
        Some(head) => u128::from_be_bytes(*head),
        None => key
            .iter()
            .zip((0..16).rev())
            .fold(0, |head, (&b, byte)| head | u128::from(b) << (8 * byte)),
    }
}

/// One contract's page directory: under each [`dir_head`], the pages whose
/// first keys have that head, as `(first key, id)` in first-key order. A
/// lookup compares heads inline and full first keys only within one head,
/// which rarely holds more than one page.
type Directory = BTreeMap<u128, Vec<(Vec<u8>, PageId)>>;

#[derive(Debug)]
enum PageData {
    /// The page's slots, in the exact bytes a spill would write.
    Resident(SlottedPage),
    /// Dropped from memory; `Page::spill` holds the verified handle.
    Evicted,
}

#[derive(Debug)]
struct Page {
    contract: ContractId,
    /// Lowest key this page covers (its directory key). The page owns
    /// `[first, next page's first)` within its contract.
    first: Vec<u8>,
    data: PageData,
    /// LRU timestamp; `(last_used, id)` is the page's entry in the LRU
    /// index while resident under a residency limit.
    last_used: u64,
    /// A spill-log copy of the page, valid only while the resident data is
    /// clean. Dirtying a page retires the handle immediately, so
    /// `spill.is_some()` ⟺ the log holds the resident page's bytes
    /// verbatim; a page is *dirty* when its bytes have changed since they
    /// were last appended (or never were), and evicting it appends them.
    spill: Option<PageRef>,
}

/// The paged contract-slot store. All mutation goes through
/// [`WorldState`], which keeps the commitment accumulator in sync.
#[derive(Debug)]
struct PagedSlots {
    /// Per-contract page directory.
    dir: BTreeMap<ContractId, Directory>,
    /// The page table, indexed by [`PageId`]; `None` for a dropped page.
    pages: Vec<Option<Page>>,
    /// Resident pages ordered by last use — O(log n) victim selection.
    /// Exact LRU under a `limit`; left empty without one, where no victim
    /// is ever chosen and a per-read remove + insert would buy nothing.
    lru: BTreeSet<(u64, PageId)>,
    tick: u64,
    /// Maximum slots per page before a median split.
    capacity: usize,
    /// Maximum resident pages (`None` = unbounded).
    limit: Option<usize>,
    resident: usize,
    /// Total slots across all pages (commitment cardinality input).
    slot_count: usize,
    /// Total value bytes across all pages (state-growth metric).
    byte_size: usize,
    store: PageStore,
    evictions: u64,
    fault_ins: u64,
}

impl PagedSlots {
    fn new(capacity: usize, limit: Option<usize>, store: PageStore) -> PagedSlots {
        PagedSlots {
            dir: BTreeMap::new(),
            pages: Vec::new(),
            lru: BTreeSet::new(),
            tick: 0,
            capacity: capacity.max(1),
            limit,
            resident: 0,
            slot_count: 0,
            byte_size: 0,
            store,
            evictions: 0,
            fault_ins: 0,
        }
    }

    fn from_config(cfg: &PagingConfig) -> PagedSlots {
        let store = match &cfg.spill_dir {
            Some(dir) => PageStore::in_dir(dir).expect("open page spill file"),
            None => PageStore::in_memory(),
        };
        PagedSlots::new(cfg.page_capacity, cfg.resident_limit, store)
    }

    fn page(&self, id: PageId) -> &Page {
        self.pages[id].as_ref().expect("page exists")
    }

    fn page_mut(&mut self, id: PageId) -> &mut Page {
        self.pages[id].as_mut().expect("page exists")
    }

    /// The slots of a page the caller has just faulted in.
    fn resident(&self, id: PageId) -> &SlottedPage {
        match &self.page(id).data {
            PageData::Resident(slots) => slots,
            PageData::Evicted => unreachable!("faulted in above"),
        }
    }

    fn resident_mut(&mut self, id: PageId) -> &mut SlottedPage {
        match &mut self.page_mut(id).data {
            PageData::Resident(slots) => slots,
            PageData::Evicted => unreachable!("faulted in above"),
        }
    }

    /// The page whose range covers `key`, if any page's range starts at or
    /// below it: the last page of the highest head at or below `key`'s,
    /// unless that head is `key`'s own, where full first keys decide.
    fn owner_of(&self, contract: &ContractId, key: &[u8]) -> Option<PageId> {
        let head = dir_head(key);
        let mut below = self.dir.get(contract)?.range(..=head).rev();
        let (&at, tied) = below.next()?;
        let covering = if at == head {
            tied.partition_point(|(first, _)| first.as_slice() <= key)
        } else {
            tied.len()
        };
        match covering {
            0 => below.next().and_then(|(_, tied)| tied.last()),
            n => tied.get(n - 1),
        }
        .map(|&(_, id)| id)
    }

    fn dir_insert(&mut self, contract: &ContractId, first: Vec<u8>, id: PageId) {
        let dir = self.dir.entry(contract.clone()).or_default();
        let tied = dir.entry(dir_head(&first)).or_default();
        let at = tied.partition_point(|(f, _)| *f < first);
        tied.insert(at, (first, id));
    }

    fn dir_remove(&mut self, contract: &ContractId, first: &[u8]) {
        let dir = self.dir.get_mut(contract).expect("contract dir exists");
        let head = dir_head(first);
        let tied = dir.get_mut(&head).expect("directory holds the page's head");
        tied.retain(|(f, _)| f != first);
        if tied.is_empty() {
            dir.remove(&head);
            if dir.is_empty() {
                self.dir.remove(contract);
            }
        }
    }

    /// Makes a resident page the most recently used one.
    fn lru_touch(&mut self, id: PageId) {
        if self.limit.is_none() {
            return;
        }
        let page = self.pages[id].as_mut().expect("page exists");
        if matches!(page.data, PageData::Evicted) {
            return;
        }
        self.lru.remove(&(page.last_used, id));
        self.tick += 1;
        page.last_used = self.tick;
        self.lru.insert((self.tick, id));
    }

    /// Adds a page nothing else refers to yet under `id`, resident and most
    /// recently used.
    fn add_resident(
        &mut self,
        id: PageId,
        contract: ContractId,
        first: Vec<u8>,
        slots: SlottedPage,
    ) {
        if id >= self.pages.len() {
            self.pages.resize_with(id + 1, || None);
        }
        self.pages[id] = Some(Page {
            contract,
            first,
            data: PageData::Resident(slots),
            last_used: 0,
            spill: None,
        });
        self.resident += 1;
        self.lru_touch(id);
    }

    /// Reads an evicted page back into memory, verifying its digest.
    ///
    /// # Panics
    /// A failed read is a state-integrity violation (corrupt page bytes or
    /// a stale handle below the compaction horizon) and deliberately fatal:
    /// silently continuing would fork the replicated state machine.
    fn fault_in(&mut self, id: PageId) {
        let page = self.page(id);
        if matches!(page.data, PageData::Resident(_)) {
            return;
        }
        let spill = page.spill.expect("evicted page keeps a spill handle");
        let bytes = self
            .store
            .read(&spill)
            .unwrap_or_else(|e| panic!("paged world state fault-in failed: {e}"));
        let slots = SlottedPage::from_bytes(bytes).expect("spilled page decodes");
        self.page_mut(id).data = PageData::Resident(slots);
        self.resident += 1;
        self.fault_ins += 1;
        self.lru_touch(id);
    }

    /// Marks a resident page as mutated: its spill-log copy (if any) no
    /// longer matches and is retired on the spot.
    fn dirty(&mut self, id: PageId) {
        if let Some(spill) = self.page_mut(id).spill.take() {
            self.store.retire(&spill);
        }
    }

    /// Drops one resident page, first appending its bytes to the spill log
    /// if the log does not already hold them.
    fn evict(&mut self, id: PageId) {
        let page = self.pages[id].as_mut().expect("page exists");
        let PageData::Resident(slots) = &page.data else {
            return;
        };
        if page.spill.is_none() {
            let spill = self
                .store
                .append(slots.as_bytes())
                .expect("page spill append");
            page.spill = Some(spill);
        }
        page.data = PageData::Evicted;
        self.lru.remove(&(page.last_used, id));
        self.resident -= 1;
        self.evictions += 1;
    }

    /// Evicts least-recently-used pages until the residency limit holds.
    fn enforce_limit(&mut self) {
        let Some(limit) = self.limit else { return };
        while self.resident > limit {
            let &(_, id) = self.lru.iter().next().expect("resident pages are indexed");
            self.evict(id);
        }
        self.maybe_compact();
    }

    /// Every page id in directory order: by contract, then by first key.
    fn ids_in_order(&self) -> impl Iterator<Item = PageId> + '_ {
        self.dir
            .values()
            .flat_map(|dir| dir.values().flatten().map(|&(_, id)| id))
    }

    /// Rewrites the spill log once dead weight dominates, refreshing every
    /// live handle. Deterministic directory order keeps file layout
    /// reproducible (not that anything hashes it).
    fn maybe_compact(&mut self) {
        if !self.store.should_compact() {
            return;
        }
        let (ids, refs): (Vec<PageId>, Vec<PageRef>) = self
            .ids_in_order()
            .filter_map(|id| Some((id, self.page(id).spill?)))
            .unzip();
        let fresh = self.store.compact(&refs).expect("page log compaction");
        for (id, spill) in ids.into_iter().zip(fresh) {
            self.page_mut(id).spill = Some(spill);
        }
    }

    fn alloc_page(&mut self, contract: &ContractId, first: Vec<u8>) -> PageId {
        let id = self.pages.len();
        self.add_resident(id, contract.clone(), first.clone(), SlottedPage::new());
        self.dir_insert(contract, first, id);
        id
    }

    /// The page that will own `key` after this call: the covering page, or
    /// the contract's lowest page extended downward, or a fresh page.
    fn page_for_insert(&mut self, contract: &ContractId, key: &[u8]) -> PageId {
        if let Some(id) = self.owner_of(contract, key) {
            return id;
        }
        let lowest = self
            .dir
            .get(contract)
            .and_then(|dir| dir.values().next())
            .map(|tied| tied[0].clone());
        match lowest {
            Some((old_first, id)) => {
                self.dir_remove(contract, &old_first);
                self.dir_insert(contract, key.to_vec(), id);
                self.page_mut(id).first = key.to_vec();
                id
            }
            None => self.alloc_page(contract, key.to_vec()),
        }
    }

    /// Splits a page at its median key once it exceeds capacity.
    fn split_if_over(&mut self, id: PageId) {
        let capacity = self.capacity;
        let page = self.page_mut(id);
        let PageData::Resident(slots) = &mut page.data else {
            return;
        };
        if slots.len() <= capacity {
            return;
        }
        let upper = slots.split_off_upper();
        let mid = upper
            .first_key()
            .expect("over-capacity page is nonempty")
            .to_vec();
        let contract = page.contract.clone();
        let nid = self.pages.len();
        self.add_resident(nid, contract.clone(), mid.clone(), upper);
        self.dir_insert(&contract, mid, nid);
    }

    fn insert(&mut self, contract: &ContractId, key: &[u8], value: &[u8]) -> Option<Vec<u8>> {
        let id = self.page_for_insert(contract, key);
        self.fault_in(id);
        self.dirty(id);
        let prev = self.resident_mut(id).insert(key, value);
        match &prev {
            Some(old) => self.byte_size = self.byte_size - old.len() + value.len(),
            None => {
                self.slot_count += 1;
                self.byte_size += value.len();
            }
        }
        self.lru_touch(id);
        self.split_if_over(id);
        self.enforce_limit();
        prev
    }

    fn remove(&mut self, contract: &ContractId, key: &[u8]) -> Option<Vec<u8>> {
        let id = self.owner_of(contract, key)?;
        self.fault_in(id);
        let slots = self.resident_mut(id);
        let prev = slots.remove(key);
        let emptied = prev.is_some() && slots.is_empty();
        if let Some(prev) = &prev {
            self.dirty(id);
            self.slot_count -= 1;
            self.byte_size -= prev.len();
        }
        if emptied {
            let page = self.pages[id].take().expect("page exists");
            self.lru.remove(&(page.last_used, id));
            self.resident -= 1;
            self.dir_remove(&page.contract, &page.first);
        } else {
            self.lru_touch(id);
        }
        // One exit for hit, miss and emptied page alike: the fault-in above
        // may have brought in one page too many whichever it was.
        self.enforce_limit();
        prev
    }

    /// Hands the value under `key` (`None` when absent) to `read`, borrowed
    /// from its resident page, before residency is enforced again.
    fn with<R>(
        &mut self,
        contract: &ContractId,
        key: &[u8],
        read: impl FnOnce(Option<&[u8]>) -> R,
    ) -> R {
        let Some(id) = self.owner_of(contract, key) else {
            return read(None);
        };
        self.fault_in(id);
        let out = read(self.resident(id).get(key));
        self.lru_touch(id);
        self.enforce_limit();
        out
    }

    /// Visits `contract`'s slots whose keys start with `prefix`, in key
    /// order, faulting in only pages whose range can intersect the prefix.
    fn for_each_prefix(
        &mut self,
        contract: &ContractId,
        prefix: &[u8],
        f: &mut dyn FnMut(&[u8], &[u8]),
    ) {
        let Some(dir) = self.dir.get(contract) else {
            return;
        };
        let mut ids: Vec<PageId> = self.owner_of(contract, prefix).into_iter().collect();
        // A page starting past the prefix range cannot hold matching keys
        // (they would sort below its first key) — stop without faulting it
        // in.
        ids.extend(
            dir.range(dir_head(prefix)..)
                .flat_map(|(_, tied)| tied)
                .skip_while(|(first, _)| first.as_slice() <= prefix)
                .take_while(|(first, _)| first.starts_with(prefix))
                .map(|&(_, id)| id),
        );
        for id in ids {
            self.fault_in(id);
            for (k, v) in self.resident(id).iter_from(prefix) {
                if !k.starts_with(prefix) {
                    break;
                }
                f(k, v);
            }
            self.lru_touch(id);
            self.enforce_limit();
        }
    }

    fn stats(&self) -> PagingStats {
        let pages = || self.pages.iter().flatten();
        let resident_bytes = pages()
            .filter_map(|p| match &p.data {
                PageData::Resident(slots) => Some(slots.payload_bytes()),
                PageData::Evicted => None,
            })
            .sum();
        PagingStats {
            resident_pages: self.resident,
            total_pages: pages().count(),
            resident_bytes,
            evictions: self.evictions,
            fault_ins: self.fault_ins,
            spilled_pages: self.store.appended(),
            spilled_live_bytes: self.store.live_bytes(),
            spilled_dead_bytes: self.store.dead_bytes(),
            compactions: self.store.compactions(),
        }
    }

    /// Full integrity sweep: every evicted page must read back under its
    /// verified handle (no stale or compacted-away page is reachable), the
    /// directory's heads must be its first keys' and its pages exactly the
    /// page table's, the pages must partition each contract's key space,
    /// every resident page's slot index and key heads must be what its
    /// bytes rebuild, and the decoded whole must reproduce the maintained
    /// counters and the caller's accumulator exactly.
    fn verify(
        &mut self,
        accounts: &BTreeMap<Address, Account>,
        acc: &[u8; 32],
    ) -> Result<(), String> {
        let mut recomputed = [0u8; 32];
        for (addr, account) in accounts {
            xor_row(&mut recomputed, &account_row(addr, &account.state));
        }
        let mut slot_count = 0usize;
        let mut byte_size = 0usize;
        let mut listed = 0usize;
        for (contract, cdir) in &self.dir {
            let mut prev_first: Option<&[u8]> = None;
            let mut prev_last: Option<Vec<u8>> = None;
            for (&head, tied) in cdir {
                if tied.is_empty() {
                    return Err(format!("directory head {head:032x} lists no page"));
                }
                for (first, id) in tied {
                    listed += 1;
                    let page = self
                        .pages
                        .get(*id)
                        .and_then(Option::as_ref)
                        .ok_or_else(|| format!("directory references missing page {id}"))?;
                    if page.first != *first || page.contract != *contract {
                        return Err(format!("page {id} first-key desynced from directory"));
                    }
                    if dir_head(first) != head {
                        return Err(format!("page {id} filed under a stale directory head"));
                    }
                    if prev_first.is_some_and(|prev| prev >= first.as_slice()) {
                        return Err(format!("page {id} out of directory order"));
                    }
                    prev_first = Some(first);
                    let reread;
                    let slots = match &page.data {
                        PageData::Resident(slots) => {
                            if SlottedPage::from_bytes(slots.as_bytes().to_vec())
                                .as_ref()
                                .ok()
                                != Some(slots)
                            {
                                return Err(format!(
                                    "page {id} slot index or key heads differ from its bytes"
                                ));
                            }
                            slots
                        }
                        PageData::Evicted => {
                            let spill = page.spill.ok_or_else(|| {
                                format!("evicted page {id} lost its spill handle")
                            })?;
                            let bytes = self
                                .store
                                .read(&spill)
                                .map_err(|e| format!("page {id} unreadable: {e}"))?;
                            reread = SlottedPage::from_bytes(bytes)
                                .map_err(|e| format!("page {id} undecodable: {e}"))?;
                            &reread
                        }
                    };
                    if let Some(lowest) = slots.first_key() {
                        if lowest < first.as_slice() {
                            return Err(format!("page {id} holds a key below its first key"));
                        }
                        if let Some(prev) = &prev_last {
                            if prev.as_slice() >= first.as_slice() {
                                return Err(format!("page {id} range overlaps its predecessor"));
                            }
                        }
                    }
                    let mut last = None;
                    for (k, v) in slots.iter() {
                        xor_row(&mut recomputed, &storage_row(contract, k, v));
                        slot_count += 1;
                        byte_size += v.len();
                        last = Some(k);
                    }
                    if let Some(last) = last {
                        prev_last = Some(last.to_vec());
                    }
                }
            }
        }
        let tabled = self.pages.iter().flatten().count();
        if listed != tabled {
            return Err(format!(
                "page table holds {tabled} pages, the directory lists {listed}"
            ));
        }
        if slot_count != self.slot_count {
            return Err(format!(
                "slot count desynced: maintained {} vs actual {slot_count}",
                self.slot_count
            ));
        }
        if byte_size != self.byte_size {
            return Err(format!(
                "byte size desynced: maintained {} vs actual {byte_size}",
                self.byte_size
            ));
        }
        if recomputed != *acc {
            return Err("commitment accumulator diverges from page contents".to_string());
        }
        Ok(())
    }

    /// A fully-resident deep copy with its own fresh spill log. Evicted
    /// pages are read through, digest-verified (the source's residency is
    /// untouched); the copy then enforces its own limit.
    fn clone_materialized(&mut self) -> PagedSlots {
        let store = self
            .store
            .fresh_like()
            .unwrap_or_else(|_| PageStore::in_memory());
        let mut out = PagedSlots::new(self.capacity, self.limit, store);
        out.slot_count = self.slot_count;
        out.byte_size = self.byte_size;
        out.dir = self.dir.clone();
        out.pages.resize_with(self.pages.len(), || None);
        let ids: Vec<PageId> = self.ids_in_order().collect();
        for id in ids {
            let page = self.pages[id].as_ref().expect("page exists");
            let slots = match &page.data {
                PageData::Resident(slots) => slots.clone(),
                PageData::Evicted => {
                    let spill = page.spill.expect("evicted page keeps a spill handle");
                    let bytes = self
                        .store
                        .read(&spill)
                        .unwrap_or_else(|e| panic!("paged state clone failed: {e}"));
                    SlottedPage::from_bytes(bytes).expect("spilled page decodes")
                }
            };
            out.add_resident(id, page.contract.clone(), page.first.clone(), slots);
        }
        out.enforce_limit();
        out
    }
}

// -------------------------------------------------------------- world state

/// The replicated state machine's state: account balances/nonces plus a
/// paged key/value store per contract.
///
/// Ordered pages keep iteration deterministic, and every mutator keeps the
/// commitment accumulator in sync so [`WorldState::commitment`] — which
/// block state roots depend on — costs O(accounts touched since the last
/// seal), not O(state size). Slot rows are folded as they change; account
/// rows once per block (see the module docs), and every read of the
/// commitment is exact at any instant. Reads go through a `Mutex` because
/// a read may *fault in* an evicted page (and evict another); the lock
/// keeps `WorldState: Sync` for the parallel executor, which probes shared
/// state from scoped threads.
#[derive(Debug)]
pub struct WorldState {
    accounts: BTreeMap<Address, Account>,
    /// The accounts whose `folded` flag is down, in first-touch order.
    unfolded: Vec<Address>,
    slots: Mutex<PagedSlots>,
    /// XOR multiset of per-row digests (one row per account, one per
    /// storage slot), less the rows of `unfolded` accounts. XOR is
    /// commutative and self-inverse, so replacing a row is "XOR out the
    /// old, XOR in the new" and the accumulator with those rows folded in
    /// always equals the XOR over the *current* rows, independent of
    /// history — which is exactly what a state commitment must hash.
    /// Maintaining it incrementally keeps block sealing from walking the
    /// full state, and makes paging invisible to commitments: eviction
    /// moves bytes, not rows.
    acc: [u8; 32],
}

/// Folds one row digest into (or out of) the accumulator.
fn xor_row(acc: &mut [u8; 32], row: &Digest) {
    for (a, b) in acc.iter_mut().zip(row.as_bytes()) {
        *a ^= b;
    }
}

/// The commitment row for one account (domain-separated from slot rows).
fn account_row(addr: &Address, acct: &AccountState) -> Digest {
    hash_parts(&[
        b"duc/state/acct",
        addr.0.as_bytes(),
        &acct.balance.to_le_bytes(),
        &acct.nonce.to_le_bytes(),
    ])
}

/// The commitment row for one storage slot.
fn storage_row(contract: &ContractId, key: &[u8], value: &[u8]) -> Digest {
    hash_parts(&[b"duc/state/slot", contract.0.as_bytes(), key, value])
}

impl WorldState {
    /// Empty state: always paged, unbounded residency, in-memory spill —
    /// behaviour (commitments, iteration order, gas) is byte-identical to
    /// any other cache size.
    pub fn new() -> WorldState {
        WorldState::with_paging(&PagingConfig::default())
    }

    /// Empty state with explicit paging knobs.
    pub fn with_paging(cfg: &PagingConfig) -> WorldState {
        WorldState {
            accounts: BTreeMap::new(),
            unfolded: Vec::new(),
            slots: Mutex::new(PagedSlots::from_config(cfg)),
            acc: [0u8; 32],
        }
    }

    fn slots_mut(&mut self) -> &mut PagedSlots {
        self.slots.get_mut().expect("world-state lock poisoned")
    }

    fn slots_shared(&self) -> std::sync::MutexGuard<'_, PagedSlots> {
        self.slots.lock().expect("world-state lock poisoned")
    }

    /// The account entry (default zero for unknown addresses).
    fn account(&self, addr: &Address) -> AccountState {
        self.accounts.get(addr).map(|a| a.state).unwrap_or_default()
    }

    /// Current balance.
    pub fn balance(&self, addr: &Address) -> Amount {
        self.account(addr).balance
    }

    /// Current nonce.
    pub fn nonce(&self, addr: &Address) -> u64 {
        self.account(addr).nonce
    }

    /// Applies `mutate` to `addr`'s account entry (created on first touch).
    /// The first touch since the last [`WorldState::settle`] takes the
    /// account's row out of the accumulator; later ones hash nothing.
    fn with_account(&mut self, addr: &Address, mutate: impl FnOnce(&mut AccountState)) {
        let account = match self.accounts.entry(*addr) {
            Entry::Occupied(entry) => {
                let account = entry.into_mut();
                if account.folded {
                    xor_row(&mut self.acc, &account_row(addr, &account.state));
                    account.folded = false;
                    self.unfolded.push(*addr);
                }
                account
            }
            Entry::Vacant(entry) => {
                self.unfolded.push(*addr);
                entry.insert(Account {
                    state: AccountState::default(),
                    folded: false,
                })
            }
        };
        mutate(&mut account.state);
    }

    /// Folds the row of every account touched since the last call into the
    /// accumulator. Commitments read the same before and after; the chain
    /// calls it once per sealed block so the rows are hashed once per block.
    pub(crate) fn settle(&mut self) {
        for addr in self.unfolded.drain(..) {
            let account = self
                .accounts
                .get_mut(&addr)
                .expect("unfolded account exists");
            xor_row(&mut self.acc, &account_row(&addr, &account.state));
            account.folded = true;
        }
    }

    /// Credits an account (used by genesis funding and fee redistribution).
    pub fn credit(&mut self, addr: Address, amount: Amount) {
        self.with_account(&addr, |a| a.balance += amount);
    }

    /// Debits an account.
    ///
    /// # Errors
    /// Returns `Err(())` without mutating on insufficient balance.
    pub(crate) fn debit(
        &mut self,
        addr: &Address,
        amount: Amount,
    ) -> Result<(), InsufficientFunds> {
        let available = self.balance(addr);
        if available < amount {
            return Err(InsufficientFunds {
                needed: amount,
                available,
            });
        }
        self.with_account(addr, |a| a.balance -= amount);
        Ok(())
    }

    /// Increments an account's nonce.
    pub(crate) fn bump_nonce(&mut self, addr: &Address) {
        self.with_account(addr, |a| a.nonce += 1);
    }

    /// Hands a contract storage slot's value (`None` when absent) to
    /// `read`, borrowed from the page that holds it, and returns what
    /// `read` returns — a typed read decodes straight out of the page.
    ///
    /// The slot may live on an evicted page: it is faulted in first, and
    /// residency is enforced again only once `read` has returned, so the
    /// borrow is always of a resident page. `read` runs under the state's
    /// lock and must not call back into this `WorldState`; the lock is not
    /// re-entrant, so such a call deadlocks or panics.
    pub(crate) fn storage_with<R>(
        &self,
        contract: &ContractId,
        key: &[u8],
        read: impl FnOnce(Option<&[u8]>) -> R,
    ) -> R {
        self.slots_shared().with(contract, key, read)
    }

    /// Reads a contract storage slot into a buffer of its own
    /// (`storage_with`, crate-internal, reads it in place without the copy).
    pub fn storage_get(&self, contract: &ContractId, key: &[u8]) -> Option<Vec<u8>> {
        self.storage_with(contract, key, |value| value.map(<[u8]>::to_vec))
    }

    /// Whether a contract storage slot exists (no value clone).
    pub(crate) fn storage_contains(&self, contract: &ContractId, key: &[u8]) -> bool {
        self.storage_with(contract, key, |value| value.is_some())
    }

    /// Writes a contract storage slot.
    pub fn storage_set(&mut self, contract: &ContractId, key: Vec<u8>, value: Vec<u8>) {
        let new = storage_row(contract, &key, &value);
        let prev = self.slots_mut().insert(contract, &key, &value);
        if let Some(prev) = prev {
            let old = storage_row(contract, &key, &prev);
            xor_row(&mut self.acc, &old);
        }
        xor_row(&mut self.acc, &new);
    }

    /// Deletes a contract storage slot; returns whether it existed.
    pub(crate) fn storage_remove(&mut self, contract: &ContractId, key: &[u8]) -> bool {
        match self.slots_mut().remove(contract, key) {
            Some(prev) => {
                let old = storage_row(contract, key, &prev);
                xor_row(&mut self.acc, &old);
                true
            }
            None => false,
        }
    }

    /// Visits a contract's slots whose keys start with `prefix`, in key
    /// order (contracts build indexes on ordered key prefixes). Callback
    /// style because pages may fault in and out during the walk; only
    /// pages whose range can intersect the prefix are touched.
    pub(crate) fn storage_for_each_prefix(
        &self,
        contract: &ContractId,
        prefix: &[u8],
        mut f: impl FnMut(&[u8], &[u8]),
    ) {
        self.slots_shared()
            .for_each_prefix(contract, prefix, &mut f);
    }

    /// Number of storage slots across all contracts (state-growth metric,
    /// experiment E12). Maintained incrementally — O(1).
    pub(crate) fn storage_slot_count(&self) -> usize {
        self.slots_shared().slot_count
    }

    /// Total bytes held in storage values (state-growth metric). Maintained
    /// incrementally — O(1).
    pub(crate) fn storage_byte_size(&self) -> usize {
        self.slots_shared().byte_size
    }

    /// Residency counters for the paged slot store (observability only;
    /// never folded into replay fingerprints).
    pub fn paging_stats(&self) -> PagingStats {
        self.slots_shared().stats()
    }

    /// Verifies page-store integrity: every evicted page reads back under
    /// its digest-verified handle, page ranges partition the key space,
    /// and the decoded whole reproduces the commitment accumulator (with
    /// unsettled account rows folded in). Does not change residency.
    ///
    /// # Errors
    /// A human-readable description of the first violation found.
    pub fn verify_pages(&self) -> Result<(), String> {
        let flagged = self.accounts.values().filter(|a| !a.folded).count();
        let listed = self.unfolded.iter().all(|addr| !self.accounts[addr].folded);
        if flagged != self.unfolded.len() || !listed {
            return Err(format!(
                "unfolded account rows desynced: {flagged} flagged, {} listed",
                self.unfolded.len()
            ));
        }
        let acc = self.accumulator();
        self.slots_shared().verify(&self.accounts, &acc)
    }

    /// A digest committing to the entire state (accounts + storage).
    ///
    /// Reads the incrementally-maintained accumulator, so it costs
    /// O(accounts touched since the last block) regardless of how many
    /// accounts and slots exist. The entry counts are folded in so states
    /// whose accumulators collide by row-set size manipulation still
    /// separate on cardinality.
    pub fn commitment(&self) -> Digest {
        hash_parts(&[
            b"duc/state",
            &self.accumulator(),
            &(self.accounts.len() as u64).to_le_bytes(),
            &(self.storage_slot_count() as u64).to_le_bytes(),
        ])
    }

    /// The raw XOR-multiset accumulator behind [`WorldState::commitment`],
    /// unsettled account rows included.
    ///
    /// Checkpoints persist this so a restored store can resume incremental
    /// maintenance without replaying history.
    pub fn accumulator(&self) -> [u8; 32] {
        let mut acc = self.acc;
        for addr in &self.unfolded {
            xor_row(&mut acc, &account_row(addr, &self.accounts[addr].state));
        }
        acc
    }
}

impl Default for WorldState {
    fn default() -> Self {
        WorldState::new()
    }
}

impl Clone for WorldState {
    /// Deep copy: the clone materializes every page into its own fresh
    /// spill log (then re-applies its residency limit), so the two states
    /// evolve — and compact — fully independently.
    fn clone(&self) -> Self {
        WorldState {
            accounts: self.accounts.clone(),
            unfolded: self.unfolded.clone(),
            slots: Mutex::new(self.slots_shared().clone_materialized()),
            acc: self.acc,
        }
    }
}

/// Debit failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct InsufficientFunds {
    /// Amount requested.
    pub needed: Amount,
    /// Amount available.
    pub available: Amount,
}

impl std::fmt::Display for InsufficientFunds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "insufficient funds: need {}, have {}",
            self.needed, self.available
        )
    }
}

impl std::error::Error for InsufficientFunds {}

#[cfg(test)]
mod tests {
    use super::*;

    fn cid() -> ContractId {
        ContractId::new("dex")
    }

    fn collect_prefix(
        s: &WorldState,
        contract: &ContractId,
        prefix: &[u8],
    ) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        s.storage_for_each_prefix(contract, prefix, |k, v| out.push((k.to_vec(), v.to_vec())));
        out
    }

    #[test]
    fn unknown_accounts_are_zero() {
        let s = WorldState::new();
        let a = Address::from_seed(b"a");
        assert_eq!(s.balance(&a), 0);
        assert_eq!(s.nonce(&a), 0);
    }

    #[test]
    fn credit_debit_and_nonce() {
        let mut s = WorldState::new();
        let a = Address::from_seed(b"a");
        s.credit(a, 100);
        assert_eq!(s.balance(&a), 100);
        s.debit(&a, 40).unwrap();
        assert_eq!(s.balance(&a), 60);
        let err = s.debit(&a, 100).unwrap_err();
        assert_eq!(
            err,
            InsufficientFunds {
                needed: 100,
                available: 60
            }
        );
        assert_eq!(s.balance(&a), 60, "failed debit does not mutate");
        s.bump_nonce(&a);
        s.bump_nonce(&a);
        assert_eq!(s.nonce(&a), 2);
    }

    #[test]
    fn storage_crud() {
        let mut s = WorldState::new();
        assert!(s.storage_get(&cid(), b"k").is_none());
        assert!(!s.storage_contains(&cid(), b"k"));
        s.storage_set(&cid(), b"k".to_vec(), b"v1".to_vec());
        assert_eq!(s.storage_get(&cid(), b"k").unwrap(), b"v1");
        assert!(s.storage_contains(&cid(), b"k"));
        s.storage_set(&cid(), b"k".to_vec(), b"v2".to_vec());
        assert_eq!(s.storage_get(&cid(), b"k").unwrap(), b"v2");
        assert!(s.storage_remove(&cid(), b"k"));
        assert!(!s.storage_remove(&cid(), b"k"));
        assert!(s.storage_get(&cid(), b"k").is_none());
    }

    #[test]
    fn storage_is_namespaced_per_contract() {
        let mut s = WorldState::new();
        let other = ContractId::new("other");
        s.storage_set(&cid(), b"k".to_vec(), b"dex".to_vec());
        s.storage_set(&other, b"k".to_vec(), b"other".to_vec());
        assert_eq!(s.storage_get(&cid(), b"k").unwrap(), b"dex");
        assert_eq!(s.storage_get(&other, b"k").unwrap(), b"other");
    }

    #[test]
    fn prefix_iteration_is_ordered_and_bounded() {
        let mut s = WorldState::new();
        s.storage_set(&cid(), b"res/b".to_vec(), b"2".to_vec());
        s.storage_set(&cid(), b"res/a".to_vec(), b"1".to_vec());
        s.storage_set(&cid(), b"res/c".to_vec(), b"3".to_vec());
        s.storage_set(&cid(), b"pod/x".to_vec(), b"x".to_vec());
        s.storage_set(&ContractId::new("zz"), b"res/z".to_vec(), b"z".to_vec());
        assert_eq!(
            collect_prefix(&s, &cid(), b"res/"),
            vec![
                (b"res/a".to_vec(), b"1".to_vec()),
                (b"res/b".to_vec(), b"2".to_vec()),
                (b"res/c".to_vec(), b"3".to_vec()),
            ]
        );
    }

    #[test]
    fn size_metrics() {
        let mut s = WorldState::new();
        s.storage_set(&cid(), b"a".to_vec(), vec![0; 10]);
        s.storage_set(&cid(), b"b".to_vec(), vec![0; 20]);
        assert_eq!(s.storage_slot_count(), 2);
        assert_eq!(s.storage_byte_size(), 30);
        s.storage_set(&cid(), b"a".to_vec(), vec![0; 4]);
        assert_eq!(s.storage_byte_size(), 24);
        s.storage_remove(&cid(), b"b");
        assert_eq!(s.storage_slot_count(), 1);
        assert_eq!(s.storage_byte_size(), 4);
    }

    #[test]
    fn commitment_changes_with_state() {
        let mut s = WorldState::new();
        let c0 = s.commitment();
        s.credit(Address::from_seed(b"a"), 1);
        let c1 = s.commitment();
        assert_ne!(c0, c1);
        s.storage_set(&cid(), b"k".to_vec(), b"v".to_vec());
        let c2 = s.commitment();
        assert_ne!(c1, c2);
        // Identical state → identical commitment.
        let mut t = WorldState::new();
        t.credit(Address::from_seed(b"a"), 1);
        t.storage_set(&cid(), b"k".to_vec(), b"v".to_vec());
        assert_eq!(t.commitment(), c2);
    }

    #[test]
    fn commitment_is_content_addressed_not_history_addressed() {
        // The incremental accumulator must converge to the same digest as a
        // state built directly with the final content, whatever the
        // mutation order and however many overwrites/removals happened on
        // the way there.
        let a = Address::from_seed(b"a");
        let b = Address::from_seed(b"b");
        let mut s = WorldState::new();
        s.credit(a, 5);
        s.credit(b, 7);
        s.storage_set(&cid(), b"k".to_vec(), b"old".to_vec());
        s.storage_set(&cid(), b"k".to_vec(), b"new".to_vec());
        s.storage_set(&cid(), b"gone".to_vec(), b"x".to_vec());
        assert!(s.storage_remove(&cid(), b"gone"));

        let mut t = WorldState::new();
        t.storage_set(&cid(), b"k".to_vec(), b"new".to_vec());
        t.credit(b, 7);
        t.credit(a, 2);
        t.credit(a, 3);
        assert_eq!(s.commitment(), t.commitment());

        // A clone diverges once either side mutates.
        let u = s.clone();
        assert_eq!(u.commitment(), s.commitment());
        s.bump_nonce(&a);
        assert_ne!(u.commitment(), s.commitment());
    }

    /// Interleaved writes/overwrites/removes/scans on paged states at
    /// several cache sizes (including 0) must match the unbounded store
    /// slot-for-slot and commitment-for-commitment.
    #[test]
    fn paged_state_is_byte_identical_across_cache_sizes() {
        let tiny = PagingConfig::in_memory(None).with_page_capacity(4);
        // A quarter of the keys each at their natural length and at 55, 56
        // and 80 bytes, so pages split on (and the directory holds) long
        // first-keys as well as short ones.
        let key_of = |n: u32| {
            let mut key = format!("pod/https://p{n}.id/me").into_bytes();
            let len = [key.len(), 55, 56, 80][n as usize % 4];
            key.resize(len, b'x');
            key
        };
        let apply = |s: &mut WorldState| {
            for i in 0..200u32 {
                s.storage_set(&cid(), key_of(i % 60), i.to_le_bytes().to_vec());
                if i % 3 == 0 {
                    s.storage_remove(&cid(), &key_of((i / 3) % 60));
                }
                if i % 7 == 0 {
                    s.storage_set(&ContractId::new("other"), vec![i as u8], vec![i as u8; 9]);
                }
            }
        };
        let mut baseline = WorldState::with_paging(&tiny);
        apply(&mut baseline);
        for limit in [0usize, 1, 2, 7] {
            let cfg = PagingConfig {
                resident_limit: Some(limit),
                ..tiny.clone()
            };
            let mut paged = WorldState::with_paging(&cfg);
            apply(&mut paged);
            assert_eq!(paged.commitment(), baseline.commitment(), "limit {limit}");
            assert_eq!(paged.storage_slot_count(), baseline.storage_slot_count());
            assert_eq!(paged.storage_byte_size(), baseline.storage_byte_size());
            assert_eq!(
                collect_prefix(&paged, &cid(), b"pod/"),
                collect_prefix(&baseline, &cid(), b"pod/"),
                "limit {limit}"
            );
            paged.verify_pages().expect("page integrity");
            let stats = paged.paging_stats();
            assert!(stats.resident_pages <= limit.max(1));
            assert!(stats.evictions > 0, "bounded cache evicts");
            assert!(stats.fault_ins > 0, "reads fault pages back in");
        }
        let stats = baseline.paging_stats();
        assert_eq!(stats.evictions, 0, "unbounded cache never evicts");
        assert_eq!(stats.resident_pages, stats.total_pages);
        baseline.verify_pages().expect("page integrity");
        let slots = baseline.slots.lock().expect("world-state lock poisoned");
        let first_key_lens: BTreeSet<usize> = slots.dir[&cid()]
            .values()
            .flatten()
            .map(|(first, _)| first.len())
            .collect();
        assert!(
            [55, 56, 80].iter().all(|l| first_key_lens.contains(l)),
            "some page starts at each long key length: {first_key_lens:?}"
        );
    }

    /// The residency limit and page integrity hold after *every* operation
    /// of a seeded random mix — removals (hit, miss, page-emptying)
    /// included — not just at the end of a run that finished on a write.
    #[test]
    fn residency_limit_holds_after_every_operation() {
        use duc_sim::Rng;
        let other = ContractId::new("other");
        let key_of = |n: u64| format!("pod/https://p{:02}.id/me", n).into_bytes();
        for limit in [0usize, 1, 2, 7] {
            let cfg = PagingConfig::in_memory(Some(limit)).with_page_capacity(4);
            let mut s = WorldState::with_paging(&cfg);
            let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
            let mut rng = Rng::seed_from_u64(0xD0C5 + limit as u64);
            for step in 0..600u32 {
                let key = key_of(rng.gen_range(48));
                match rng.gen_range(8) {
                    0..=2 => {
                        let value = vec![step as u8; rng.gen_range(24) as usize];
                        s.storage_set(&cid(), key.clone(), value.clone());
                        model.insert(key, value);
                    }
                    3 => assert_eq!(s.storage_get(&cid(), &key), model.get(&key).cloned()),
                    4 => assert_eq!(s.storage_contains(&cid(), &key), model.contains_key(&key)),
                    5 | 6 => {
                        assert_eq!(s.storage_remove(&cid(), &key), model.remove(&key).is_some())
                    }
                    _ => {
                        let prefix = &key[..key.len() - rng.gen_range(5) as usize];
                        let expected: Vec<(Vec<u8>, Vec<u8>)> = model
                            .iter()
                            .filter(|(k, _)| k.starts_with(prefix))
                            .map(|(k, v)| (k.clone(), v.clone()))
                            .collect();
                        assert_eq!(collect_prefix(&s, &cid(), prefix), expected);
                    }
                }
                if step % 50 == 0 {
                    // A second contract's pages compete for the same cache.
                    s.storage_set(&other, vec![step as u8], vec![1; 9]);
                }
                let stats = s.paging_stats();
                assert!(
                    stats.resident_pages <= limit,
                    "limit {limit}, step {step}: {} resident",
                    stats.resident_pages
                );
                s.verify_pages()
                    .unwrap_or_else(|e| panic!("limit {limit}, step {step}: {e}"));
            }
            assert_eq!(s.storage_slot_count(), model.len() + 12);
        }
    }

    /// Keys at the edges of fixed-width key heads: keys that differ only by
    /// trailing `0x00` (`k`, `k\0`, `k\0\0`), the empty key, keys of 7, 8,
    /// 9, 15, 16, 17 and 24 bytes that share all but their last byte (which
    /// is `0x00`, `0x01`, `x`, `0xff` or the stem's own next byte, so the
    /// stems are prefixes of one another too), strict prefixes of those
    /// keys' common prefix, and keys below and above all of them.
    fn adversarial_keys() -> Vec<Vec<u8>> {
        const STEM: &[u8] = b"pod/https://p1.id/me#abcdef";
        let mut keys: Vec<Vec<u8>> = [
            &b""[..],
            b"\0",
            b"k",
            b"k\0",
            b"k\0\0",
            b"p",
            b"pod/",
            b"pod/h",
            b"\xff\xff\xff",
        ]
        .iter()
        .map(|k| k.to_vec())
        .collect();
        for len in [7, 8, 9, 15, 16, 17, 24] {
            for last in [0x00, 0x01, b'x', 0xff, STEM[len - 1]] {
                let mut k = STEM[..len - 1].to_vec();
                k.push(last);
                keys.push(k);
            }
        }
        keys
    }

    /// `get`, `contains`, `set`, `remove` and prefix scans over
    /// [`adversarial_keys`] agree with a `BTreeMap` after every operation, at
    /// page capacities 1, 4 and 64 under unbounded residency and under limits
    /// of 0 and 2 pages; every configuration ends on the same commitment.
    #[test]
    fn adversarial_keys_match_the_model_at_every_capacity_and_residency() {
        use duc_sim::Rng;
        let keys = adversarial_keys();
        let mut commitments = Vec::new();
        for capacity in [1usize, 4, 64] {
            for limit in [None, Some(0), Some(2)] {
                let cfg = PagingConfig::in_memory(limit).with_page_capacity(capacity);
                let mut s = WorldState::with_paging(&cfg);
                let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
                let mut rng = Rng::seed_from_u64(0xED6E);
                for step in 0..700u32 {
                    let at = format!("capacity {capacity}, limit {limit:?}, step {step}");
                    let key = &keys[rng.gen_range(keys.len() as u64) as usize];
                    match rng.gen_range(8) {
                        0..=2 => {
                            let value = vec![step as u8; rng.gen_range(12) as usize];
                            s.storage_set(&cid(), key.clone(), value.clone());
                            model.insert(key.clone(), value);
                        }
                        3 => {
                            assert_eq!(s.storage_get(&cid(), key), model.get(key).cloned(), "{at}")
                        }
                        4 => assert_eq!(s.storage_contains(&cid(), key), model.contains_key(key)),
                        5 | 6 => {
                            assert_eq!(s.storage_remove(&cid(), key), model.remove(key).is_some())
                        }
                        _ => {
                            let cut = rng.gen_range(key.len().min(3) as u64 + 1) as usize;
                            let prefix = &key[..key.len() - cut];
                            let expected: Vec<(Vec<u8>, Vec<u8>)> = model
                                .iter()
                                .filter(|(k, _)| k.starts_with(prefix))
                                .map(|(k, v)| (k.clone(), v.clone()))
                                .collect();
                            assert_eq!(collect_prefix(&s, &cid(), prefix), expected, "{at}");
                        }
                    }
                    for k in &keys {
                        assert_eq!(s.storage_get(&cid(), k), model.get(k).cloned(), "{at}");
                        assert_eq!(s.storage_contains(&cid(), k), model.contains_key(k), "{at}");
                    }
                    if step % 50 == 0 {
                        s.verify_pages().unwrap_or_else(|e| panic!("{at}: {e}"));
                    }
                }
                assert_eq!(
                    collect_prefix(&s, &cid(), b""),
                    model.into_iter().collect::<Vec<_>>()
                );
                s.verify_pages().expect("page integrity");
                commitments.push(s.commitment());
            }
        }
        assert!(
            commitments.windows(2).all(|w| w[0] == w[1]),
            "{commitments:?}"
        );
    }

    /// `verify_pages` checks the derived indexes: one directory entry filed
    /// under a stale head fails it, naming the page, and so does a page
    /// table that holds a page the directory does not list.
    #[test]
    fn verify_pages_names_a_page_with_a_stale_head() {
        let cfg = PagingConfig::in_memory(None).with_page_capacity(2);
        let mut s = WorldState::with_paging(&cfg);
        for key in adversarial_keys() {
            s.storage_set(&cid(), key, b"v".to_vec());
        }
        s.verify_pages().expect("fresh indexes verify");
        let stale = {
            let mut slots = s.slots.lock().expect("world-state lock poisoned");
            let dir = slots.dir.get_mut(&cid()).expect("contract dir");
            let (head, tied) = dir.pop_last().expect("pages");
            let id = tied[0].1;
            dir.insert(head ^ 1, tied);
            id
        };
        let err = s.verify_pages().expect_err("stale head");
        assert!(err.contains(&format!("page {stale} ")), "{err}");

        let mut s = WorldState::with_paging(&cfg);
        s.storage_set(&cid(), b"k".to_vec(), b"v".to_vec());
        s.slots_mut().pages.push(None);
        s.verify_pages()
            .expect("a dropped page's hole is not a page");
        let orphan = s.slots_mut().pages[0].as_ref().map(|p| Page {
            contract: p.contract.clone(),
            first: p.first.clone(),
            data: PageData::Resident(SlottedPage::new()),
            last_used: 0,
            spill: None,
        });
        s.slots_mut().pages.push(orphan);
        let err = s.verify_pages().expect_err("unlisted page");
        assert!(err.contains("page table holds 2 pages"), "{err}");
    }

    /// The accumulator a state with `accounts` and `slots` must read,
    /// folded eagerly from content.
    fn eager_accumulator(
        accounts: &BTreeMap<Address, AccountState>,
        slots: &BTreeMap<(ContractId, Vec<u8>), Vec<u8>>,
    ) -> [u8; 32] {
        let mut acc = [0u8; 32];
        for (addr, account) in accounts {
            xor_row(&mut acc, &account_row(addr, account));
        }
        for ((contract, key), value) in slots {
            xor_row(&mut acc, &storage_row(contract, key, value));
        }
        acc
    }

    /// Account rows fold once per block, but commitment reads are exact at
    /// every instant: after each step of a seeded mix of account and slot
    /// mutations and settles, `accumulator()` and `commitment()` equal an
    /// eagerly folded reference, `verify_pages()` passes, and a clone taken
    /// mid-block, fed the same steps and settled on its own schedule, agrees.
    #[test]
    fn account_rows_fold_once_per_block_and_read_exact() {
        use duc_sim::Rng;
        let contracts = [cid(), ContractId::new("other")];
        let addrs: Vec<Address> = (0..6u8).map(|i| Address::from_seed(&[i])).collect();
        let cfg = PagingConfig::in_memory(Some(2)).with_page_capacity(4);
        let mut s = WorldState::with_paging(&cfg);
        let mut twin: Option<WorldState> = None;
        let mut accounts: BTreeMap<Address, AccountState> = BTreeMap::new();
        let mut slots: BTreeMap<(ContractId, Vec<u8>), Vec<u8>> = BTreeMap::new();
        let mut rng = Rng::seed_from_u64(0xF01D);
        let mut settles = 0;
        for step in 0..2_000u32 {
            let addr = addrs[rng.gen_range(addrs.len() as u64) as usize];
            let contract = &contracts[rng.gen_range(2) as usize];
            let key = vec![b'k', rng.gen_range(16) as u8];
            let amount = Amount::from(rng.gen_range(50));
            let op = rng.gen_range(8);
            for state in std::iter::once(&mut s).chain(twin.as_mut()) {
                match op {
                    0 | 1 => state.credit(addr, amount),
                    2 => {
                        let _ = state.debit(&addr, amount);
                    }
                    3 => state.bump_nonce(&addr),
                    4 => state.storage_set(contract, key.clone(), step.to_le_bytes().to_vec()),
                    5 => {
                        state.storage_remove(contract, &key);
                    }
                    _ => {}
                }
            }
            match op {
                0 | 1 => accounts.entry(addr).or_default().balance += amount,
                2 => {
                    if accounts.get(&addr).map_or(0, |a| a.balance) >= amount {
                        accounts.entry(addr).or_default().balance -= amount;
                    }
                }
                3 => accounts.entry(addr).or_default().nonce += 1,
                4 => {
                    slots.insert((contract.clone(), key), step.to_le_bytes().to_vec());
                }
                5 => {
                    slots.remove(&(contract.clone(), key));
                }
                6 => {
                    s.settle();
                    settles += 1;
                }
                _ => {
                    if let Some(twin) = twin.as_mut() {
                        twin.settle();
                    }
                }
            }
            if step % 97 == 0 {
                twin = Some(s.clone());
            }
            let expected = eager_accumulator(&accounts, &slots);
            let commitment = hash_parts(&[
                b"duc/state",
                &expected,
                &(accounts.len() as u64).to_le_bytes(),
                &(slots.len() as u64).to_le_bytes(),
            ]);
            assert_eq!(s.accumulator(), expected, "step {step}");
            assert_eq!(s.commitment(), commitment, "step {step}");
            s.verify_pages()
                .unwrap_or_else(|e| panic!("step {step}: {e}"));
            let twin = twin.as_ref().expect("cloned at step 0");
            assert_eq!(twin.accumulator(), expected, "twin, step {step}");
            assert_eq!(twin.commitment(), commitment, "twin, step {step}");
            twin.verify_pages()
                .unwrap_or_else(|e| panic!("twin, step {step}: {e}"));
        }
        assert!(settles > 100, "the mix settles often: {settles}");
    }

    /// The spill log's counters on a tiny cache, pinned exactly: a seeded
    /// mix of 512-byte writes and reads over 2-page residency and 4-slot
    /// pages, enough dead weight for several compactions. Recorded before
    /// the page spill log took the shared frame format: framing may change
    /// what a page occupies in the log, never a counter here.
    #[test]
    fn tiny_cache_paging_counters_are_pinned() {
        use duc_sim::Rng;
        let cfg = PagingConfig::in_memory(Some(2)).with_page_capacity(4);
        let mut s = WorldState::with_paging(&cfg);
        let mut rng = Rng::seed_from_u64(0x5B11);
        for step in 0..3_000u32 {
            let key = format!("res/{:03}", rng.gen_range(200)).into_bytes();
            if rng.gen_range(3) == 0 {
                s.storage_get(&cid(), &key);
            } else {
                s.storage_set(&cid(), key, vec![step as u8; 512]);
            }
        }
        s.verify_pages().expect("page integrity");
        let stats = s.paging_stats();
        assert_eq!(
            (
                stats.evictions,
                stats.fault_ins,
                stats.spilled_pages,
                stats.spilled_live_bytes,
                stats.spilled_dead_bytes,
                stats.compactions
            ),
            (2_917, 2_850, 2_014, 101_979, 103_013, 3)
        );
    }

    #[test]
    fn file_backed_paging_round_trips_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!("duc-paged-state-{}", std::process::id()));
        let cfg = PagingConfig::in_memory(Some(1))
            .with_page_capacity(3)
            .with_spill_dir(&dir);
        let mut s = WorldState::with_paging(&cfg);
        for i in 0..40u8 {
            s.storage_set(&cid(), vec![b'k', i], vec![i; 16]);
        }
        for i in 0..40u8 {
            assert_eq!(s.storage_get(&cid(), &[b'k', i]).unwrap(), vec![i; 16]);
        }
        s.verify_pages().expect("page integrity");
        let stats = s.paging_stats();
        assert!(stats.spilled_live_bytes > 0, "cold pages hit the file");
        assert!(stats.resident_pages <= 1);
    }

    #[test]
    fn paged_clone_is_independent() {
        let cfg = PagingConfig::in_memory(Some(1)).with_page_capacity(2);
        let mut s = WorldState::with_paging(&cfg);
        for i in 0..20u8 {
            s.storage_set(&cid(), vec![i], vec![i]);
        }
        let t = s.clone();
        assert_eq!(t.commitment(), s.commitment());
        t.verify_pages().expect("clone integrity");
        s.storage_remove(&cid(), &[3]);
        assert_ne!(t.commitment(), s.commitment());
        assert_eq!(t.storage_get(&cid(), &[3]).unwrap(), vec![3]);
    }

    #[test]
    fn empty_pages_are_dropped_not_leaked() {
        let cfg = PagingConfig::in_memory(None).with_page_capacity(2);
        let mut s = WorldState::with_paging(&cfg);
        for i in 0..10u8 {
            s.storage_set(&cid(), vec![i], vec![i]);
        }
        let before = s.paging_stats().total_pages;
        assert!(before > 1, "splits happened");
        for i in 0..10u8 {
            assert!(s.storage_remove(&cid(), &[i]));
        }
        let stats = s.paging_stats();
        assert_eq!(stats.total_pages, 0, "empty pages are reclaimed");
        assert_eq!(s.storage_slot_count(), 0);
        s.verify_pages().expect("page integrity");
    }
}
