//! An actor's host footprint — a device, its index entries and governed
//! copies, an owner with its pod — is a function of what the actor holds,
//! not of how many owners and devices share its world, and stays under a
//! recorded ceiling.
//!
//! One `#[test]` in its own binary with its own live-bytes global allocator:
//! a second test running on a parallel thread would move the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use duc_core::prelude::*;
use duc_core::scenario::PopulationSpec;
use duc_solid::Body;

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

/// What one more actor leaves allocated, each a median over [`FRESH`]
/// fresh actors: `add_device`, a device's first and second
/// `ResourceIndexing`, its first governed copy (one `ResourceAccess`), and
/// an owner (`add_owner` plus processes 1 and 2 with one 256-byte resource).
const WHAT: [&str; 5] = [
    "add_device",
    "first indexing",
    "second indexing",
    "first copy",
    "owner",
];

/// Runs one request to completion and checks its outcome.
fn run(world: &mut World, request: Request, ok: impl Fn(&Outcome) -> bool) {
    let ticket = world.submit(request);
    world.run_until_idle();
    match ticket.poll(world).expect("idle means completed") {
        Ok(outcome) if ok(&outcome) => {}
        other => panic!("{other:?}"),
    }
}

/// [`WHAT`], per fresh actor, in a world of `owners` bulk-enrolled owners.
fn footprint(owners: usize) -> [f64; 5] {
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
            let request = Request::ResourceIndexing {
                device: name(n),
                resource: resource.to_string(),
            };
            run(&mut world, request, |o| {
                matches!(o, Outcome::Indexed { .. })
            });
        })
    };
    let (first_entry, second_entry) = (index(first), index(second));
    for n in 0..FRESH {
        let request = Request::MarketSubscribe { device: name(n) };
        run(&mut world, request, |o| {
            matches!(o, Outcome::Subscribed { .. })
        });
    }
    let copy = median_live_added(|n| {
        let request = Request::ResourceAccess {
            device: name(n),
            resource: first.clone(),
        };
        run(&mut world, request, |o| matches!(o, Outcome::Accessed(_)));
    });
    let owner = median_live_added(|n| {
        let webid = format!("https://fo{n}.id/me");
        world.add_owner(webid.clone(), format!("https://fo{n}.pod/"));
        let request = Request::PodInitiation {
            webid: webid.clone(),
        };
        run(&mut world, request, |o| {
            matches!(o, Outcome::PodInitiated { .. })
        });
        let iri = format!("https://fo{n}.pod/{}", scenario::POPULATION_PATH);
        let request = Request::ResourceInitiation {
            policy: scenario::population_policy(&iri, &webid, spec.retention_days),
            webid,
            path: scenario::POPULATION_PATH.into(),
            body: Body::Binary(vec![0xA5; spec.body_bytes]),
            metadata: vec![],
        };
        run(&mut world, request, |o| {
            matches!(o, Outcome::ResourceInitiated { .. })
        });
    });
    [added, first_entry, second_entry, copy, owner]
}

/// Live bytes per actor, each ceiling [`WHAT`]'s value at 2 000 owners plus
/// about 10 %: 122, 656, 400, 3 470 and 4 866 B. Before index entries, TEE
/// copies and pods were sorted vectors and the policy was shared, these read
/// 122, 2 248, 256, 4 621 and 7 366 B: a device's first index entry, its
/// first sealed copy and a pod's first resource each allocated an
/// eleven-slot B-tree leaf. The second index entry rose from 256 to 400 B
/// because the shared policy is an allocation of its own (an `Rc`) rather
/// than part of a tree slot already paid for; the first copy shares that
/// same policy instead of cloning it.
const CEILING: [f64; 5] = [136.0, 1024.0, 440.0, 3_820.0, 5_360.0];

#[test]
fn footprint_does_not_depend_on_the_population() {
    let small = footprint(200);
    let large = footprint(2_000);
    println!("live bytes per actor  {WHAT:?}");
    println!("   at  200 owners:    {small:.0?}");
    println!("   at 2000 owners:    {large:.0?}");
    for (i, what) in WHAT.into_iter().enumerate() {
        let (small, large) = (small[i], large[i]);
        let ratio = large.max(small) / large.min(small).max(1.0);
        assert!(
            ratio <= 1.5,
            "{what}: {small:.0} B per actor at 200 owners, {large:.0} B at 2 000 ({ratio:.2}×)"
        );
        assert!(
            large.max(small) <= CEILING[i],
            "{what}: {small:.0} B per actor at 200 owners, {large:.0} B at 2 000; ceiling {:.0} B",
            CEILING[i]
        );
    }
}
