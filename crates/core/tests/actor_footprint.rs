//! A device's host footprint is a function of what the device holds, not of
//! how many owners and devices share its world.
//!
//! One `#[test]` in its own binary with its own live-bytes global allocator:
//! a second test running on a parallel thread would move the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use duc_core::prelude::*;
use duc_core::scenario::PopulationSpec;

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

/// Fresh devices measured per population.
const FRESH: usize = 64;

/// The median, over [`FRESH`] fresh devices, of the live bytes `per_device`
/// leaves behind.
///
/// A median, not a mean: the world's own registries grow by amortised
/// doubling, so one device in a few thousand pays a step proportional to the
/// population by design (the `devices` registry moves 850 KB when its
/// 2 049th entry arrives), and a histogram doubles under another. Those land
/// on single devices; a per-actor structure sized by the world lands on all
/// of them, and that is what this test is for.
fn median_live_added(mut per_device: impl FnMut(usize)) -> f64 {
    let mut added: Vec<isize> = Vec::with_capacity(FRESH);
    for n in 0..FRESH {
        let before = LIVE.load(Ordering::Relaxed) as isize;
        per_device(n);
        added.push(LIVE.load(Ordering::Relaxed) as isize - before);
    }
    added.sort_unstable();
    added[FRESH / 2] as f64
}

/// Live bytes per fresh device of (a) `add_device`, (b) its first
/// `ResourceIndexing` of a late-registered resource, (c) its second.
fn footprint(owners: usize) -> [f64; 3] {
    let mut world = World::new(WorldConfig::default());
    let spec = PopulationSpec {
        owners,
        ..PopulationSpec::default()
    };
    let pop = scenario::populate_population(&mut world, &spec);
    // The two resources registered last: whatever symbols their IRIs get,
    // every owner and device name was interned before them.
    let (first, second) = (&pop.resources[owners - 1], &pop.resources[owners - 2]);
    let name = |n: usize| format!("fresh-dev-{n}");

    let added = median_live_added(|n| world.add_device(name(n), format!("https://fd{n}.id/me")));
    let mut index = |resource: &str| {
        median_live_added(|n| {
            let ticket = world.submit(Request::ResourceIndexing {
                device: name(n),
                resource: resource.to_string(),
            });
            world.run_until_idle();
            let outcome = ticket.poll(&mut world).expect("idle means completed");
            assert!(
                matches!(outcome, Ok(Outcome::Indexed { .. })),
                "{outcome:?}"
            );
        })
    };
    [added, index(first), index(second)]
}

#[test]
fn footprint_does_not_depend_on_the_population() {
    let small = footprint(200);
    let large = footprint(2_000);
    println!("live bytes per device at  200 owners: {small:.0?}");
    println!("live bytes per device at 2000 owners: {large:.0?}");
    let what = ["add_device", "first indexing", "second indexing"];
    for ((what, small), large) in what.into_iter().zip(small).zip(large) {
        let ratio = large.max(small) / large.min(small).max(1.0);
        assert!(
            ratio <= 1.5,
            "{what}: {small:.0} B per device at 200 owners, {large:.0} B at 2 000 ({ratio:.2}×)"
        );
    }
    assert!(
        large[1] < 8.0 * 1024.0,
        "a first index entry costs {:.0} B; it must not carry a slot per world symbol",
        large[1]
    );
}
