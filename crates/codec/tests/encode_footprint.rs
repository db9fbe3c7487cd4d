//! `encode_to_vec` asks the allocator once per encoding, for exactly
//! `encoded_len()` bytes: no growth reallocation, no spare capacity.
//!
//! The test binary has its own counting global allocator (the pattern of
//! `duc-core`'s `actor_footprint`). Its counters are per thread, so tests
//! running on parallel threads do not move each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use duc_codec::{decode_from_slice, encode_to_vec, impl_codec_struct, Encode};
use duc_crypto::{sha256, Digest};

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

/// What this thread asked the allocator for while `f` ran.
#[derive(Debug, PartialEq, Eq)]
struct Footprint {
    allocs: usize,
    reallocs: usize,
    bytes: usize,
}

fn footprint<R>(f: impl FnOnce() -> R) -> (R, Footprint) {
    let read = || (ALLOCS.get(), REALLOCS.get(), BYTES.get());
    let before = read();
    let out = f();
    let after = read();
    (
        out,
        Footprint {
            allocs: after.0 - before.0,
            reallocs: after.1 - before.1,
            bytes: after.2 - before.2,
        },
    )
}

/// Encodes `value` and checks it took one allocation of exactly
/// `encoded_len()` bytes, and that the bytes decode back to `value`.
fn encodes_once<T>(value: &T)
where
    T: Encode + duc_codec::Decode + PartialEq + std::fmt::Debug,
{
    let len = value.encoded_len();
    let (bytes, used) = footprint(|| encode_to_vec(value));
    assert_eq!(bytes.len(), len, "encoded_len is the encoding's length");
    assert_eq!(bytes.capacity(), len, "no spare capacity");
    assert_eq!(
        used,
        Footprint {
            allocs: 1,
            reallocs: 0,
            bytes: len,
        },
        "one allocation of the encoding's length ({len} B)"
    );
    assert_eq!(decode_from_slice::<T>(&bytes).as_ref(), Ok(value));
}

#[derive(Debug, PartialEq)]
struct Grant {
    agent: String,
    actions: Vec<u8>,
    until: Option<u64>,
}
impl_codec_struct!(Grant {
    agent,
    actions,
    until
});

#[derive(Debug, PartialEq)]
struct Listing {
    id: u64,
    content: Digest,
    location: Option<String>,
    grants: Vec<Grant>,
    tags: Vec<(String, u32)>,
    sealed: (bool, [u8; 12]),
}
impl_codec_struct!(Listing {
    id,
    content,
    location,
    grants,
    tags,
    sealed
});

#[test]
fn a_nested_struct_encodes_in_one_allocation_of_its_length() {
    let listing = Listing {
        id: 7,
        content: sha256(b"listing"),
        location: Some("https://alice.pod/data/set.bin".into()),
        grants: (0..4)
            .map(|i| Grant {
                agent: format!("https://agent-{i}.id/profile#me"),
                actions: vec![i; i as usize + 1],
                until: (i % 2 == 0).then_some(u64::from(i) * 1_000),
            })
            .collect(),
        tags: vec![("domain".into(), 1), ("health".into(), 2)],
        sealed: (true, [9; 12]),
    };
    assert!(
        listing.encoded_len() > 256,
        "large enough that a growing buffer would reallocate several times"
    );
    encodes_once(&listing);
}

#[test]
fn string_pairs_encode_in_one_allocation_of_their_length() {
    let metadata: Vec<(String, String)> = (0..8)
        .map(|i| {
            (
                format!("key-{i}"),
                format!("value number {i} of the metadata"),
            )
        })
        .collect();
    assert!(metadata.encoded_len() > 256);
    encodes_once(&metadata);
    encodes_once(&Vec::<(String, String)>::new());
}
