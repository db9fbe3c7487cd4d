//! Scheduling support for block execution: one transaction pipeline, two
//! schedulers (ROADMAP item 2).
//!
//! Every transaction reaches state through the same three steps in
//! `chain.rs` — pure execution against a state snapshot (writes buffer in
//! [`crate::contract::CallEffects`]), commit of the buffered outcome, and
//! emission of the gas record, events and receipt. [`ExecMode`] only picks
//! the scheduler that drives them:
//!
//! * **serial** runs the three steps back-to-back per transaction, in
//!   canonical (sorted mempool key) order;
//! * **parallel** partitions a block's ready transactions on *access
//!   sets* — the state keys each call may read or write, derived from the
//!   decoded ABI before execution (see `duc_contracts::access` for the
//!   DE App's derivation). Transactions whose sets do not conflict execute
//!   concurrently on a work-stealing pool of scoped threads; commit and
//!   emission then run in canonical order, so receipts, the event log,
//!   nonce bumps, per-method gas and replay fingerprints are the serial
//!   scheduler's, byte for byte.
//!
//! Anything that cannot declare its footprint — raw transfers, unknown
//! methods, undecodable arguments — falls back to [`AccessSet::Exclusive`],
//! which conflicts with everything and therefore runs alone at its serial
//! position.
//!
//! This module holds what only the parallel scheduler needs: access sets,
//! conflict-graph levelling and the pool.

use std::collections::VecDeque;
use std::sync::Mutex;

use duc_sim::SimTime;

use crate::state::WorldState;
use crate::types::{Address, ContractId};

/// How a chain schedules the transactions inside one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// One at a time, in canonical mempool order (the default).
    #[default]
    Serial,
    /// Conflict-scheduled batches on a thread pool, committed in
    /// canonical order — byte-identical outputs, less wall-clock.
    Parallel,
}

/// One state key a transaction may touch. Key material is FNV-hashed into
/// `u64` *spaces* (a table prefix, e.g. `copy/{resource}\0`) and *slots*
/// within a space: a hash collision can only merge two distinct keys into
/// one, which adds a conflict edge and serializes — never the unsound
/// direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AccessKey {
    /// An account's balance + nonce row.
    Account(Address),
    /// One storage slot inside a key space.
    Slot {
        /// Hash of the slot's table/prefix.
        space: u64,
        /// Hash of the slot key within the space.
        key: u64,
    },
    /// A whole key space (prefix scans); overlaps every [`AccessKey::Slot`]
    /// in the same space.
    Table(u64),
}

impl AccessKey {
    /// Whether two keys can name overlapping state.
    fn overlaps(&self, other: &AccessKey) -> bool {
        match (self, other) {
            (AccessKey::Account(a), AccessKey::Account(b)) => a == b,
            (AccessKey::Slot { space: s1, key: k1 }, AccessKey::Slot { space: s2, key: k2 }) => {
                s1 == s2 && k1 == k2
            }
            (AccessKey::Table(s1), AccessKey::Table(s2)) => s1 == s2,
            (AccessKey::Slot { space, .. }, AccessKey::Table(t))
            | (AccessKey::Table(t), AccessKey::Slot { space, .. }) => space == t,
            _ => false,
        }
    }
}

/// The declared footprint of one transaction.
#[derive(Debug, Clone, Default)]
pub struct AccessSummary {
    /// Keys the call may read.
    pub reads: Vec<AccessKey>,
    /// Keys the call may write.
    pub writes: Vec<AccessKey>,
    /// Keys the call only applies commutative balance credits to (e.g. the
    /// market treasury): delta–delta pairs commute and never conflict, but
    /// a delta against a read or write on the same key does.
    pub deltas: Vec<AccessKey>,
}

/// A transaction's access set: either a declared footprint or "conflicts
/// with everything".
#[derive(Debug, Clone)]
pub enum AccessSet {
    /// Undeclarable: serializes against every other transaction.
    Exclusive,
    /// Declared reads/writes/deltas.
    Declared(AccessSummary),
}

impl AccessSet {
    /// An empty declared set (builder entry point).
    pub fn declared() -> AccessSet {
        AccessSet::Declared(AccessSummary::default())
    }

    /// Adds a read key.
    #[must_use]
    pub fn read(mut self, key: AccessKey) -> AccessSet {
        if let AccessSet::Declared(s) = &mut self {
            s.reads.push(key);
        }
        self
    }

    /// Adds a write key (implies the read).
    #[must_use]
    pub fn write(mut self, key: AccessKey) -> AccessSet {
        if let AccessSet::Declared(s) = &mut self {
            s.writes.push(key);
        }
        self
    }

    /// Adds a commutative-credit key.
    #[must_use]
    pub fn delta(mut self, key: AccessKey) -> AccessSet {
        if let AccessSet::Declared(s) = &mut self {
            s.deltas.push(key);
        }
        self
    }

    /// Augments the set with the fee/nonce row every transaction touches:
    /// the sender's account is read (affordability) and written (fee debit,
    /// refund, nonce bump). Ensures same-sender nonce chains land in
    /// strictly increasing levels.
    #[must_use]
    pub(crate) fn with_sender(mut self, sender: Address) -> AccessSet {
        if let AccessSet::Declared(s) = &mut self {
            s.reads.push(AccessKey::Account(sender));
            s.writes.push(AccessKey::Account(sender));
        }
        self
    }

    /// Whether two transactions must execute in canonical order.
    pub fn conflicts(&self, other: &AccessSet) -> bool {
        let (a, b) = match (self, other) {
            (AccessSet::Declared(a), AccessSet::Declared(b)) => (a, b),
            _ => return true,
        };
        let hits = |xs: &[AccessKey], ys: &[AccessKey]| {
            xs.iter().any(|x| ys.iter().any(|y| x.overlaps(y)))
        };
        // W–W, W–R, W–Δ in either direction; Δ–R in either direction.
        // R–R and Δ–Δ commute.
        hits(&a.writes, &b.writes)
            || hits(&a.writes, &b.reads)
            || hits(&a.reads, &b.writes)
            || hits(&a.writes, &b.deltas)
            || hits(&a.deltas, &b.writes)
            || hits(&a.deltas, &b.reads)
            || hits(&a.reads, &b.deltas)
    }
}

/// Everything an access-derivation function may inspect about one call.
/// Derivation runs on the proposer thread against the pre-block state, so
/// it may resolve indirections (e.g. the treasury address behind
/// `cfg/treasury`) that the call will re-read unchanged — anything that
/// *could* change mid-block must instead widen the set or go
/// [`AccessSet::Exclusive`].
pub struct AccessParams<'a> {
    /// Target contract.
    pub contract: &'a ContractId,
    /// Method name.
    pub method: &'a str,
    /// Encoded arguments.
    pub args: &'a [u8],
    /// Transaction sender.
    pub caller: Address,
    /// Block height being produced.
    pub block_height: u64,
    /// Block timestamp being produced.
    pub block_time: SimTime,
    /// Pre-block state.
    pub state: &'a WorldState,
}

/// Maps one decoded call to its access set. Installed per chain (see
/// `Ledger::install_access_fn`); absent → every call is
/// [`AccessSet::Exclusive`].
pub type AccessFn = Box<dyn Fn(&AccessParams<'_>) -> AccessSet>;

/// FNV-1a over one byte string (the shared key/space hasher — same
/// construction as the sharded router's placement hash).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a over a list of parts with per-part length framing, so
/// `("ab","c")` and `("a","bc")` hash differently.
pub fn fnv1a_parts(parts: &[&[u8]]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for b in (part.len() as u64).to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        for b in *part {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Assigns each transaction the earliest level consistent with its
/// conflicts: `level(i) = 1 + max(level(j))` over earlier conflicting `j`.
/// All transactions in one level are mutually conflict-free and may
/// execute concurrently; levels commit in order, and within a level the
/// commit order is canonical (input) order. O(n²) pairwise checks — block
/// batches are small and the sets are a handful of keys each.
pub(crate) fn schedule_levels(sets: &[AccessSet]) -> Vec<u32> {
    let mut levels: Vec<u32> = Vec::with_capacity(sets.len());
    for (i, set) in sets.iter().enumerate() {
        let mut level = 0u32;
        for j in 0..i {
            if set.conflicts(&sets[j]) {
                level = level.max(levels[j] + 1);
            }
        }
        levels.push(level);
    }
    levels
}

/// Runs `f(0..n)` across a work-stealing pool of `threads` scoped threads
/// and returns the results in index order. Tasks are dealt round-robin
/// onto per-worker deques; an idle worker steals from the back of victims
/// in an order drawn from a seeded [`duc_sim::Rng`], so the *schedule* is
/// load-adaptive while the *output* is a pure function of the inputs.
/// Falls back to an inline loop for tiny batches or a single thread.
pub(crate) fn run_batch<T, F>(threads: usize, seed: u64, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.min(n);
    if workers <= 1 || n < 2 {
        return (0..n).map(f).collect();
    }
    let queues: Vec<Mutex<VecDeque<usize>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for i in 0..n {
        queues[i % workers]
            .lock()
            .expect("queue poisoned")
            .push_back(i);
    }
    // Per-worker victim orders, fixed up front from the seed: stealing
    // stays deterministic in *choice* (though not in interleaving, which
    // the index-keyed result merge makes irrelevant).
    let mut rng = duc_sim::Rng::seed_from_u64(seed);
    let victim_orders: Vec<Vec<usize>> = (0..workers)
        .map(|w| {
            let mut order: Vec<usize> = (0..workers).filter(|&v| v != w).collect();
            rng.fork(w as u64).shuffle(&mut order);
            order
        })
        .collect();
    let mut out: Vec<Option<T>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let queues = &queues;
                let f = &f;
                let order = &victim_orders[w];
                scope.spawn(move || {
                    let mut done: Vec<(usize, T)> = Vec::new();
                    loop {
                        // Own-queue guard dropped before stealing: holding
                        // it across a victim's lock deadlocks two workers
                        // that run dry at once and steal from each other.
                        let own = queues[w].lock().expect("queue poisoned").pop_front();
                        let task = own.or_else(|| {
                            order
                                .iter()
                                .find_map(|&v| queues[v].lock().expect("queue poisoned").pop_back())
                        });
                        match task {
                            Some(i) => done.push((i, f(i))),
                            None => break,
                        }
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            for (i, value) in handle.join().expect("executor worker panicked") {
                out[i] = Some(value);
            }
        }
    });
    out.into_iter()
        .map(|v| v.expect("every task dealt to a queue runs exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(space: u64, key: u64) -> AccessKey {
        AccessKey::Slot { space, key }
    }

    #[test]
    fn reads_commute_writes_serialize() {
        let r = AccessSet::declared().read(slot(1, 1));
        let w = AccessSet::declared().write(slot(1, 1));
        let w_other = AccessSet::declared().write(slot(1, 2));
        assert!(!r.conflicts(&r));
        assert!(r.conflicts(&w));
        assert!(w.conflicts(&w));
        assert!(!w.conflicts(&w_other));
    }

    #[test]
    fn tables_overlap_their_slots() {
        let scan = AccessSet::declared().read(AccessKey::Table(7));
        let write_in = AccessSet::declared().write(slot(7, 3));
        let write_out = AccessSet::declared().write(slot(8, 3));
        assert!(scan.conflicts(&write_in));
        assert!(!scan.conflicts(&write_out));
    }

    #[test]
    fn deltas_commute_with_each_other_only() {
        let a = Address::from_seed(b"treasury");
        let d = AccessSet::declared().delta(AccessKey::Account(a));
        let r = AccessSet::declared().read(AccessKey::Account(a));
        let w = AccessSet::declared().write(AccessKey::Account(a));
        assert!(!d.conflicts(&d));
        assert!(d.conflicts(&r));
        assert!(d.conflicts(&w));
    }

    #[test]
    fn exclusive_conflicts_with_everything() {
        let e = AccessSet::Exclusive;
        let r = AccessSet::declared().read(slot(1, 1));
        assert!(e.conflicts(&r));
        assert!(r.conflicts(&e));
        assert!(e.conflicts(&e));
    }

    #[test]
    fn sender_augmentation_orders_nonce_chains() {
        let alice = Address::from_seed(b"alice");
        let t1 = AccessSet::declared().write(slot(1, 1)).with_sender(alice);
        let t2 = AccessSet::declared().write(slot(2, 2)).with_sender(alice);
        // Disjoint storage, same sender: the fee/nonce row still orders them.
        assert!(t1.conflicts(&t2));
        let levels = schedule_levels(&[t1, t2]);
        assert_eq!(levels, vec![0, 1]);
    }

    #[test]
    fn levels_chain_through_transitive_conflicts() {
        // t0 writes A; t1 reads A, writes B; t2 reads B; t3 disjoint.
        let t0 = AccessSet::declared().write(slot(0, 0));
        let t1 = AccessSet::declared().read(slot(0, 0)).write(slot(0, 1));
        let t2 = AccessSet::declared().read(slot(0, 1));
        let t3 = AccessSet::declared().write(slot(9, 9));
        let levels = schedule_levels(&[t0, t1, t2, t3]);
        assert_eq!(levels, vec![0, 1, 2, 0]);
    }

    #[test]
    fn exclusive_occupies_singleton_levels() {
        let a = AccessSet::declared().write(slot(1, 1));
        let b = AccessSet::Exclusive;
        let c = AccessSet::declared().write(slot(2, 2));
        let levels = schedule_levels(&[a, b, c]);
        assert_eq!(levels, vec![0, 1, 2]);
    }

    #[test]
    fn run_batch_returns_results_in_index_order() {
        for threads in [1, 2, 4, 8] {
            let out = run_batch(threads, 42, 100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_batch_handles_empty_and_singleton() {
        assert_eq!(run_batch(4, 0, 0, |i| i), Vec::<usize>::new());
        assert_eq!(run_batch(4, 0, 1, |i| i + 1), vec![1]);
    }

    #[test]
    fn workers_running_dry_together_do_not_deadlock() {
        // Two workers, one task each, released together by a barrier: both
        // queues empty at the same instant and each worker goes stealing
        // from the other. Holding the own-queue lock across the steal
        // deadlocked here (seen as a ~5 % hang of the parallel chaos suite).
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for round in 0..2_000u64 {
                let barrier = std::sync::Barrier::new(2);
                let out = run_batch(2, round, 2, |i| {
                    barrier.wait();
                    i
                });
                assert_eq!(out, vec![0, 1]);
            }
            done_tx.send(()).expect("watchdog alive");
        });
        done_rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("run_batch deadlocked");
    }

    #[test]
    fn framed_part_hashing_separates_boundaries() {
        assert_ne!(fnv1a_parts(&[b"ab", b"c"]), fnv1a_parts(&[b"a", b"bc"]));
        assert_eq!(fnv1a_parts(&[b"ab", b"c"]), fnv1a_parts(&[b"ab", b"c"]));
    }
}
