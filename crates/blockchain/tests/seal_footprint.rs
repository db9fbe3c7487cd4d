//! Where a DE App transaction's allocations go, from building and signing
//! it to sealing it and reading it back, and a ceiling on each phase.
//!
//! `seal_footprint` drives one block of 256 `register_pod` calls through a
//! bare [`Blockchain`] and counts allocator calls and bytes per transaction
//! for each phase: building and signing, submitting, the seal and a
//! `get_pod` view. The seal is split at the one boundary it exposes, the
//! contract call: execution is what runs inside `Contract::call`; commit,
//! receipt and events are what runs between one call and the next (with
//! the pool walk and the next call's set-up); the block is what runs after
//! the last call. The block's leaves, Merkle root and header are replayed
//! on the sealed block with the calls `Block::seal_encoded` makes, and what
//! remains of the block is settle, commitment and the receipt index (with
//! the last transaction's commit).
//! `cargo test -p duc-blockchain --release --test seal_footprint --
//! --nocapture` prints the table. The ceilings were set at the values this
//! test read when every encoding began to be allocated once, at its length;
//! tighten them, never loosen them.
//!
//! `encodings_allocate_once_at_their_length` holds a signed DE App call and
//! a block header to one allocation of exactly `encoded_len()` bytes per
//! encoding.
//!
//! The binary has its own counting global allocator (the pattern of
//! `duc-core`'s `actor_footprint`). Its counters are per thread, and a
//! serial chain runs on the calling thread, so tests running on parallel
//! threads do not move each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt;
use std::ops::{Add, Sub};

use duc_blockchain::{Blockchain, CallCtx, Contract, ContractError, ContractId, SignedTransaction};
use duc_codec::{encode_to_vec, Encode};
use duc_contracts::calls::GetPod;
use duc_contracts::{DistExchange, DistExchangeClient, PolicyEnvelope, DEX_CONTRACT_ID};
use duc_crypto::{KeyPair, MerkleTree};
use duc_policy::UsagePolicy;

thread_local! {
    /// Fresh allocations made by this thread.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    /// Reallocations made by this thread.
    static REALLOCS: Cell<usize> = const { Cell::new(0) };
    /// Bytes this thread asked for (a reallocation counts its new size).
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<usize>>, by: usize) {
    // `try_with`: a thread being torn down may still free or allocate.
    let _ = counter.try_with(|c| c.set(c.get() + by));
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are
// const-initialised thread-locals without destructors, so updating them
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS, 1);
        bump(&BYTES, layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS, 1);
        bump(&BYTES, layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&REALLOCS, 1);
        bump(&BYTES, new_size);
        // SAFETY: `ptr`/`layout` describe a live `System` block.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocator traffic: calls (fresh allocations plus reallocations), the
/// reallocations among them, and bytes asked for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Count {
    calls: usize,
    reallocs: usize,
    bytes: usize,
}

impl Count {
    /// This thread's traffic so far.
    fn now() -> Count {
        let reallocs = REALLOCS.get();
        Count {
            calls: ALLOCS.get() + reallocs,
            reallocs,
            bytes: BYTES.get(),
        }
    }
}

impl Add for Count {
    type Output = Count;
    fn add(self, o: Count) -> Count {
        Count {
            calls: self.calls + o.calls,
            reallocs: self.reallocs + o.reallocs,
            bytes: self.bytes + o.bytes,
        }
    }
}

impl Sub for Count {
    type Output = Count;
    fn sub(self, o: Count) -> Count {
        Count {
            calls: self.calls - o.calls,
            reallocs: self.reallocs - o.reallocs,
            bytes: self.bytes - o.bytes,
        }
    }
}

/// What this thread asked the allocator for while `f` ran.
fn counted<R>(f: impl FnOnce() -> R) -> (R, Count) {
    let before = Count::now();
    let out = f();
    (out, Count::now() - before)
}

thread_local! {
    /// Traffic inside every contract call so far.
    static INSIDE: Cell<Count> = const { Cell::new(Count { calls: 0, reallocs: 0, bytes: 0 }) };
    /// The thread's traffic when the last contract call returned.
    static LAST_RETURN: Cell<Count> = const { Cell::new(Count { calls: 0, reallocs: 0, bytes: 0 }) };
}

/// The DE App behind a probe that splits the seal at each contract call.
struct Probe(DistExchange);

impl Contract for Probe {
    fn call(
        &self,
        ctx: &mut CallCtx<'_>,
        method: &str,
        args: &[u8],
    ) -> Result<Vec<u8>, ContractError> {
        let (out, inside) = counted(|| self.0.call(ctx, method, args));
        INSIDE.set(INSIDE.get() + inside);
        LAST_RETURN.set(Count::now());
        out
    }
}

/// Senders, and so transactions in the block.
const N: usize = 256;

/// High enough that the whole batch seals in one block.
const MAX_BLOCK_GAS: u64 = 10_000_000_000;

/// A phase's traffic over the block's [`N`] transactions, beside its
/// ceiling.
struct Row {
    phase: &'static str,
    total: Count,
    ceiling: Count,
}

impl Row {
    fn new(phase: &'static str, total: Count, [calls, reallocs, bytes]: [usize; 3]) -> Row {
        let ceiling = Count {
            calls,
            reallocs,
            bytes,
        };
        Row {
            phase,
            total,
            ceiling,
        }
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let per = |v: usize| v as f64 / N as f64;
        let Count {
            calls,
            reallocs,
            bytes,
        } = self.total;
        write!(
            f,
            "| {:<42} | {:>5.2} | {:>8.2} | {:>7.1} | {calls:>5} {reallocs:>4} {bytes:>7} |",
            self.phase,
            per(calls),
            per(reallocs),
            per(bytes),
        )
    }
}

#[test]
fn seal_footprint() {
    let dex = DistExchangeClient::new();
    let mut chain = Blockchain::builder().max_block_gas(MAX_BLOCK_GAS).build();
    chain.deploy(
        ContractId::new(DEX_CONTRACT_ID),
        Box::new(Probe(DistExchange::default())),
    );
    let keys: Vec<KeyPair> = (0..N)
        .map(|i| {
            chain.create_funded_account(format!("sender-{i}").as_bytes(), u128::from(u64::MAX))
        })
        .collect();
    let webids: Vec<String> = (0..N).map(|i| format!("https://s{i}.id/me")).collect();
    let pods: Vec<String> = (0..N).map(|i| format!("https://s{i}.pod/")).collect();
    let envelopes: Vec<PolicyEnvelope> = pods
        .iter()
        .zip(&webids)
        .map(|(pod, webid)| PolicyEnvelope::plain(&UsagePolicy::default_for(pod, webid)))
        .collect();
    // Seal an empty block first, so the measured one is not the chain's
    // first.
    let slot = chain.next_slot_at(chain.current_time());
    chain.advance_to(slot);

    let mut txs = Vec::with_capacity(N);
    let (_, build_sign) = counted(|| {
        for (i, env) in envelopes.into_iter().enumerate() {
            txs.push(dex.register_pod_tx(&chain, &keys[i], &webids[i], &pods[i], env));
        }
    });

    let (_, submit) = counted(|| {
        for tx in txs {
            chain.submit(tx).expect("submits");
        }
    });

    let slot = chain.next_slot_at(chain.current_time());
    INSIDE.set(Count::default());
    let before_seal = Count::now();
    chain.advance_to(slot);
    let after_seal = Count::now();
    assert_eq!(chain.pending_count(), 0, "one block holds the batch");
    let height = chain.height();
    let block = chain.block(height).expect("sealed");
    assert_eq!(block.transactions.len(), N);
    for tx in &block.transactions {
        assert!(chain.receipt(&tx.id()).expect("receipt").status.is_ok());
    }
    let execute = INSIDE.get();
    let between = LAST_RETURN.get() - before_seal - execute;
    let block_work = after_seal - LAST_RETURN.get();

    // What `Block::seal_encoded` does with the pool's encodings.
    let leaves: Vec<Vec<u8>> = block.transactions.iter().map(encode_to_vec).collect();
    let proposer = KeyPair::from_seed(b"replayed proposer");
    let mut header = block.header.clone();
    let (_, leaves_root_header) = counted(|| {
        header.tx_root = MerkleTree::from_leaves(&leaves).root();
        header.signature = proposer.sign(&header.signing_bytes());
    });
    let settle_commit = block_work - leaves_root_header;

    let (_, view) = counted(|| {
        for webid in &webids {
            let owner_webid = webid.clone();
            let pod = dex.view(&chain, GetPod { owner_webid }).expect("view runs");
            assert!(pod.is_some());
        }
    });

    // Ceilings: block totals of [calls, reallocations, bytes].
    let rows = [
        Row::new("build + sign", build_sign, [1_280, 0, 111_576]),
        Row::new("submit", submit, [291, 0, 161_178]),
        Row::new(
            "seal: execute (inside the call)",
            execute,
            [2_560, 0, 304_198],
        ),
        Row::new(
            "seal: commit, receipt and events",
            between,
            [681, 62, 384_705],
        ),
        Row::new(
            "seal: leaves, Merkle root and header",
            leaves_root_header,
            [14, 3, 17_184],
        ),
        Row::new(
            "seal: settle, commitment, receipt index",
            settle_commit,
            [14, 0, 93_900],
        ),
        Row::new("view (get_pod)", view, [2_816, 0, 145_220]),
    ];
    println!(
        "| phase                                      | calls | reallocs |   bytes | (per transaction; block totals) |"
    );
    for row in &rows {
        println!("{row}");
    }
    for row in &rows {
        let (total, ceiling) = (row.total, row.ceiling);
        assert!(
            total.calls <= ceiling.calls
                && total.reallocs <= ceiling.reallocs
                && total.bytes <= ceiling.bytes,
            "{}: {total:?} over the block, above its ceiling {ceiling:?}",
            row.phase
        );
    }
}

/// Encodes `value` and checks it took one allocation of exactly
/// `encoded_len()` bytes.
fn encodes_once<T: Encode>(what: &str, value: &T) {
    let len = value.encoded_len();
    let (bytes, used) = counted(|| encode_to_vec(value));
    assert_eq!(
        bytes.len(),
        len,
        "{what}: encoded_len is the encoding's length"
    );
    assert_eq!(
        used,
        Count {
            calls: 1,
            reallocs: 0,
            bytes: len,
        },
        "{what}: one allocation of {len} B"
    );
}

#[test]
fn encodings_allocate_once_at_their_length() {
    let dex = DistExchangeClient::new();
    let mut chain = Blockchain::builder().max_block_gas(MAX_BLOCK_GAS).build();
    chain.deploy(
        ContractId::new(DEX_CONTRACT_ID),
        Box::new(DistExchange::default()),
    );
    let key = chain.create_funded_account(b"owner", u128::from(u64::MAX));
    let (webid, pod) = ("https://owner.id/me", "https://owner.pod/");
    let env = PolicyEnvelope::plain(&UsagePolicy::default_for(pod, webid));
    let tx: SignedTransaction = dex.register_pod_tx(&chain, &key, webid, pod, env);
    assert!(tx.encoded_len() > 256, "a call several growth steps long");
    encodes_once("signed register_pod call", &tx);
    encodes_once("its body", &tx.tx);
    let (_, signing) = counted(|| tx.tx.signing_bytes());
    assert_eq!(signing.calls, 1, "signing bytes: one allocation");

    chain.submit(tx).expect("submits");
    let slot = chain.next_slot_at(chain.current_time());
    chain.advance_to(slot);
    let header = &chain.block(chain.height()).expect("sealed").header;
    encodes_once("block header", header);
    let (signing, used) = counted(|| header.signing_bytes());
    assert_eq!(
        used,
        Count {
            calls: 1,
            reallocs: 0,
            bytes: header.encoded_len(),
        },
        "header signing bytes: one allocation, at the whole header's length"
    );
    assert_eq!(
        signing.len(),
        header.encoded_len() - header.signature.encoded_len()
    );
}
