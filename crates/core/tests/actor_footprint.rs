//! An actor's host footprint — a device, its index entries and governed
//! copies, an owner with its pod — is a function of what the actor holds,
//! not of how many owners and devices share its world, and stays under a
//! recorded ceiling.
//!
//! The tests share one binary with its own counting global allocator and
//! take [`SERIAL`] first: a second test running on a parallel thread would
//! move the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use duc_core::prelude::*;
use duc_core::scenario::PopulationSpec;
use duc_solid::Body;

/// Bytes currently allocated and not yet freed.
static LIVE: AtomicUsize = AtomicUsize::new(0);

/// Bytes allocated so far, freed or not (a reallocation counts its new size).
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

/// Held by each test for its whole run, so no two measure at once.
static SERIAL: Mutex<()> = Mutex::new(());

struct LiveBytes;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a plain
// statistic that publishes no other data (hence `Relaxed`).
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
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
        ALLOCATED.fetch_add(new_size, Ordering::Relaxed);
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
/// fresh actors: `add_device`; a device's first `ResourceIndexing`, of a
/// resource no one indexed before, so the world's policy table decodes its
/// policy; the device's second, of a resource another fresh device's first
/// indexing decoded; a further device's first indexing, of a resource
/// another device decoded; a device's first governed copy (one
/// `ResourceAccess` of its first-indexed resource, whose program no TEE had
/// compiled); and an owner (`add_owner` plus processes 1 and 2 with one
/// 256-byte resource).
const WHAT: [&str; 6] = [
    "add_device",
    "first indexing",
    "second indexing",
    "first indexing, decoded elsewhere",
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

/// The median live bytes of fresh device `device(n)` indexing
/// `resource(n)`.
fn index(
    world: &mut World,
    device: impl Fn(usize) -> String,
    resource: impl Fn(usize) -> String,
) -> f64 {
    median_live_added(|n| {
        let request = Request::ResourceIndexing {
            device: device(n),
            resource: resource(n),
        };
        run(world, request, |o| matches!(o, Outcome::Indexed { .. }));
    })
}

/// [`WHAT`], per fresh actor, in a world of `owners` bulk-enrolled owners.
fn footprint(owners: usize) -> [f64; 6] {
    let mut world = World::new(WorldConfig::default());
    let spec = PopulationSpec {
        owners,
        ..PopulationSpec::default()
    };
    let pop = scenario::populate_population(&mut world, &spec);
    // Fresh device `n`'s own resource, one of those registered last: whatever
    // symbols their IRIs get, every owner and device name was interned
    // before them.
    let own = |n: usize| pop.resources[owners - 1 - n % FRESH].clone();
    let name = |n: usize| format!("fresh-dev-{n}");
    let later = |n: usize| format!("later-dev-{n}");

    let added = median_live_added(|n| world.add_device(name(n), format!("https://fd{n}.id/me")));
    let first_entry = index(&mut world, name, own);
    let second_entry = index(&mut world, name, |n| own(n + 1));
    for n in 0..FRESH {
        world.add_device(later(n), format!("https://ld{n}.id/me"));
    }
    let decoded_elsewhere = index(&mut world, later, own);
    for n in 0..FRESH {
        let request = Request::MarketSubscribe { device: name(n) };
        run(&mut world, request, |o| {
            matches!(o, Outcome::Subscribed { .. })
        });
    }
    let copy = median_live_added(|n| {
        let request = Request::ResourceAccess {
            device: name(n),
            resource: own(n),
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
    [
        added,
        first_entry,
        second_entry,
        decoded_elsewhere,
        copy,
        owner,
    ]
}

/// Live bytes per actor, each ceiling [`WHAT`]'s value at 2 000 owners plus
/// about 10 %: 122, 800, 49, 305, 1 557 and 3 563 B, except the first
/// indexing's, which is 1 KiB. The first copy and the owner read 2 485 and
/// 4 059 B while a TEE copy row held its cached decision and its reported
/// evidence inline (272 B a row, 160 B boxed) and the copy table, a pod's
/// resources, a pod manager's policies and an ACL's authorizations grew by
/// doubling from four slots rather than by an eighth of their length; and
/// 2 642 and 4 302 B while each event owned its topic and contract id as
/// strings, when the ceilings were 2 900 and 4 740 B. A first index entry
/// counts the world's policy-table entry its decode leaves; the program is
/// compiled only when a TEE first needs it, so the first copy counts that
/// instead. The other two indexings share a table entry already paid for.
/// While every (device, resource) pair decoded and compiled a policy of its
/// own and a pod manager kept its policies in a hash map, all fresh devices
/// indexed and fetched one shared resource and the rows without the third
/// read 122, 656, 400, 2 730 and 4 546 B. The first copy and the owner
/// read 2 890 and 4 866 B while a one-event receipt kept its event pointer in
/// a 288-byte buffer, receipts sat in a map keyed by transaction id and every
/// event was logged a second time beside them. The first copy read 3 470 B
/// when the other ceilings were set, and 3 016 B while its sealed bytes sat
/// in a second name-sorted table beside its row, which held the name a
/// second time. Before index entries, TEE copies and pods were sorted
/// vectors and the policy was shared, these read 122, 2 248, 256, 4 621 and 7 366 B: a device's first index entry, its
/// first sealed copy and a pod's first resource each allocated an
/// eleven-slot B-tree leaf. The second index entry rose from 256 to 400 B
/// because the shared policy is an allocation of its own (an `Rc`) rather
/// than part of a tree slot already paid for; the first copy shares that
/// same policy instead of cloning it.
const CEILING: [f64; 6] = [136.0, 1024.0, 56.0, 340.0, 1_720.0, 3_920.0];

#[test]
fn footprint_does_not_depend_on_the_population() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
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

/// Resources one owner initiates in [`initiating_a_resource_costs_the_same_at_any_rank`].
const RESOURCES: usize = 160;

/// Initiating an owner's k-th resource (process 2: the upload, the policy,
/// the market-readers authorization, the registration on-chain) allocates
/// as much at k = 160 as at k = 16: the ACL takes the new authorization in
/// place. While each initiation cloned the owner's whole ACL to append one
/// authorization, the k-th copied the k authorizations before it.
#[test]
fn initiating_a_resource_costs_the_same_at_any_rank() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut world = World::new(WorldConfig::default());
    let webid = "https://many.id/me".to_string();
    world.add_owner(webid.clone(), "https://many.pod/");
    let request = Request::PodInitiation {
        webid: webid.clone(),
    };
    run(&mut world, request, |o| {
        matches!(o, Outcome::PodInitiated { .. })
    });
    let mut allocated = Vec::with_capacity(RESOURCES);
    for k in 0..RESOURCES {
        let path = format!("data/r{k:03}.bin");
        let iri = format!("https://many.pod/{path}");
        let request = Request::ResourceInitiation {
            policy: scenario::population_policy(&iri, &webid, 30),
            webid: webid.clone(),
            path,
            body: Body::Binary(vec![0xA5; 256]),
            metadata: vec![],
        };
        let before = ALLOCATED.load(Ordering::Relaxed);
        run(&mut world, request, |o| {
            matches!(o, Outcome::ResourceInitiated { .. })
        });
        allocated.push(ALLOCATED.load(Ordering::Relaxed) - before);
    }
    // Medians of 16 neighbours: a table that grows by an eighth or doubles
    // reallocates on single initiations, and a median steps over them.
    let median = |from: usize| {
        let mut window = allocated[from..from + 16].to_vec();
        window.sort_unstable();
        window[8]
    };
    let (early, late) = (median(8), median(RESOURCES - 16));
    println!(
        "bytes allocated per resource initiation: {early} near k = 16, {late} near k = {RESOURCES}"
    );
    assert!(
        late <= early + 512,
        "the {RESOURCES}th initiation allocates {late} B, the 16th {early} B"
    );
}
