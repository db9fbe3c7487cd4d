//! The motivating use-case scenario (paper §II), executable end to end.
//!
//! Alice and Bob join the data market; Bob trades medical data restricted
//! to medical purposes, Alice trades browsing data with a one-month
//! retention that she later tightens to one week; Bob's copy is erased when
//! the shorter deadline lapses, while Alice — whose application serves a
//! university hospital — retains access to Bob's data when he narrows its
//! purpose to academic pursuits.

use std::collections::{BTreeSet, HashMap};

use duc_blockchain::{Ledger, Receipt, TxId};
use duc_contracts::DexEvent;
use duc_policy::{Action, Constraint, Duty, Purpose, Rule, UsagePolicy};
use duc_sim::{zipf_weights, SimDuration};
use duc_solid::Body;

use crate::driver::{pod_init, res_init, subscribe, MonitoringOutcome, ProcessError, Request};
use crate::world::{IndexEntry, World, WorldConfig};

/// Alice's WebID.
pub const ALICE: &str = "https://alice.id/me";
/// Bob's WebID.
pub const BOB: &str = "https://bob.id/me";
/// Alice's device.
pub const ALICE_DEVICE: &str = "alice-laptop";
/// Bob's device.
pub const BOB_DEVICE: &str = "bob-workstation";
/// Path of Bob's medical dataset in his pod.
pub const MEDICAL_PATH: &str = "data/medical.ttl";
/// Path of Alice's browsing dataset in her pod.
pub const BROWSING_PATH: &str = "data/browsing.csv";

/// What happened in a full scenario run (the integration tests and the
/// quickstart example assert on these fields).
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// IRI of Bob's medical resource.
    pub medical_iri: String,
    /// IRI of Alice's browsing resource.
    pub browsing_iri: String,
    /// Bytes Alice retrieved from Bob's pod.
    pub alice_got_bytes: usize,
    /// Bytes Bob retrieved from Alice's pod.
    pub bob_got_bytes: usize,
    /// Whether Bob's copy of the browsing data was deleted by his TEE
    /// after Alice tightened the retention to one week.
    pub bob_copy_deleted: bool,
    /// Whether Alice could still use Bob's medical data after he narrowed
    /// the allowed purpose to academic pursuits.
    pub alice_still_permitted: bool,
    /// Monitoring outcome for Alice's browsing resource.
    pub browsing_monitoring: MonitoringOutcome,
    /// Monitoring outcome for Bob's medical resource.
    pub medical_monitoring: MonitoringOutcome,
    /// Total gas spent across the run.
    pub total_gas: u64,
}

/// Builds the two-party world of §II.
pub fn build_world(config: WorldConfig) -> World {
    let mut world = World::new(config);
    populate(&mut world);
    world
}

/// Registers the two owners and two devices of §II on any backend (the
/// conformance suite runs the scenario against every [`Ledger`]).
pub fn populate<L: Ledger>(world: &mut World<L>) {
    world.add_owner(ALICE, "https://alice.pod/");
    world.add_owner(BOB, "https://bob.pod/");
    world.add_device(ALICE_DEVICE, ALICE);
    world.add_device(BOB_DEVICE, BOB);
}

/// Bob's medical policy: use for medical purposes only; log accesses.
pub fn medical_policy(resource_iri: &str) -> UsagePolicy {
    UsagePolicy::builder(format!("{resource_iri}#policy"), resource_iri, BOB)
        .permit(
            Rule::permit([Action::Use])
                .with_constraint(Constraint::Purpose(vec![Purpose::new("medical")])),
        )
        .rule(Rule::prohibit([Action::Distribute]))
        .duty(Duty::LogAccesses)
        .build()
}

/// Alice's browsing policy: keep at most `retention_days`, then delete.
pub fn browsing_policy(resource_iri: &str, retention_days: u64) -> UsagePolicy {
    UsagePolicy::builder(format!("{resource_iri}#policy"), resource_iri, ALICE)
        .permit(
            Rule::permit([Action::Use]).with_constraint(Constraint::MaxRetention(
                SimDuration::from_days(retention_days),
            )),
        )
        .duty(Duty::DeleteWithin(SimDuration::from_days(retention_days)))
        .duty(Duty::LogAccesses)
        .build()
}

/// Runs the full §II scenario on `world`.
///
/// # Errors
/// Propagates the first process failure (a fault-free default world runs
/// cleanly; fault-injected worlds may legitimately fail here).
pub fn run<L: Ledger>(world: &mut World<L>) -> Result<ScenarioReport, ProcessError> {
    // --- Registration (process 1 for both owners).
    world.pod_initiation(ALICE)?;
    world.pod_initiation(BOB)?;

    // --- Resource initiation (process 2).
    let medical_iri = {
        let iri = world.owner(BOB).pod_manager.pod().iri_of(MEDICAL_PATH);
        let policy = medical_policy(&iri);
        world.resource_initiation(
            BOB,
            MEDICAL_PATH,
            Body::Turtle(
                "@prefix duc: <https://w3id.org/duc/ns#> .\n\
                 <urn:dataset:medical> duc:registeredAt 1 .\n"
                    .into(),
            ),
            policy,
            vec![("domain".into(), "health".into())],
        )?
    };
    let browsing_iri = {
        let iri = world.owner(ALICE).pod_manager.pod().iri_of(BROWSING_PATH);
        let policy = browsing_policy(&iri, 30);
        world.resource_initiation(
            ALICE,
            BROWSING_PATH,
            Body::Text("url,timestamp\nexample.org,100\n".repeat(16)),
            policy,
            vec![("domain".into(), "web-analytics".into())],
        )?
    };

    // --- Market subscriptions and discovery (process 3).
    world.market_subscribe(ALICE_DEVICE)?;
    world.market_subscribe(BOB_DEVICE)?;
    world.resource_indexing(ALICE_DEVICE, &medical_iri)?;
    world.resource_indexing(BOB_DEVICE, &browsing_iri)?;

    // --- Resource access (process 4).
    let alice_got = world.resource_access(ALICE_DEVICE, &medical_iri)?;
    let bob_got = world.resource_access(BOB_DEVICE, &browsing_iri)?;

    // Alice works with Bob's data inside her TEE (for a university
    // hospital, i.e. both medical and academic research).
    {
        let device = world.devices.get_mut(ALICE_DEVICE).expect("alice device");
        device
            .tee
            .access(
                &medical_iri,
                Action::Read,
                Purpose::new("university-hospital-research"),
                world.clock.now(),
            )
            .map_err(|e| ProcessError::Policy(e.to_string()))?;
    }

    // --- Two days pass; Alice tightens retention to one week, Bob narrows
    // --- his purpose to academic pursuits (process 5, twice).
    world.advance(SimDuration::from_days(2));
    let tightened = world.policy_modification(
        ALICE,
        BROWSING_PATH,
        vec![Rule::permit([Action::Use])
            .with_constraint(Constraint::MaxRetention(SimDuration::from_days(7)))],
        vec![
            Duty::DeleteWithin(SimDuration::from_days(7)),
            Duty::LogAccesses,
        ],
    )?;
    debug_assert_eq!(tightened.version, 2);
    world.policy_modification(
        BOB,
        MEDICAL_PATH,
        vec![
            Rule::permit([Action::Use])
                .with_constraint(Constraint::Purpose(vec![Purpose::new("academic")])),
            Rule::prohibit([Action::Distribute]),
        ],
        vec![Duty::LogAccesses],
    )?;

    // Alice's access grant survives: her purpose is academic *and* medical.
    let alice_still_permitted = {
        let device = world.devices.get_mut(ALICE_DEVICE).expect("alice device");
        device
            .tee
            .access(
                &medical_iri,
                Action::Read,
                Purpose::new("university-hospital-research"),
                world.clock.now(),
            )
            .is_ok()
    };

    // --- Six more days: Bob's copy (now 8 days old) crosses the one-week
    // --- retention bound; his TEE timer erases it.
    world.advance(SimDuration::from_days(6));
    let bob_copy_deleted = !world.device(BOB_DEVICE).tee.has_copy(&browsing_iri);

    // --- Monitoring (process 6) on both resources.
    let browsing_monitoring = world.policy_monitoring(ALICE, BROWSING_PATH)?;
    let medical_monitoring = world.policy_monitoring(BOB, MEDICAL_PATH)?;

    let total_gas: u64 = world.chain.gas_used_total();
    Ok(ScenarioReport {
        medical_iri,
        browsing_iri,
        alice_got_bytes: alice_got.bytes,
        bob_got_bytes: bob_got.bytes,
        bob_copy_deleted,
        alice_still_permitted,
        browsing_monitoring,
        medical_monitoring,
        total_gas,
    })
}

// ------------------------------------------------------------- population

/// Pod path of every population resource.
pub const POPULATION_PATH: &str = "data/set.bin";

/// Submission chunk for the bulk direct-transaction setup: comfortably
/// below the chain's 10 000-entry mempool bound.
const FLUSH_CHUNK: usize = 4_096;

/// A synthetic market population (experiment E15): `owners` pods with one
/// resource each, `devices_per_owner` subscribed consumer devices,
/// Zipf-skewed resource popularity, bursty access waves and device churn
/// between waves. All randomness comes from the world's seeded RNG, so a
/// population run replays byte-identically.
#[derive(Debug, Clone)]
pub struct PopulationSpec {
    /// Number of pod owners; each registers exactly one resource.
    pub owners: usize,
    /// Consumer devices enrolled per owner.
    pub devices_per_owner: usize,
    /// Body size of every resource, in bytes.
    pub body_bytes: usize,
    /// Retention bound of every policy, in days.
    pub retention_days: u64,
    /// Zipf exponent of resource popularity (rank 0 is the hottest).
    pub zipf_s: f64,
    /// Number of bursty access waves.
    pub waves: usize,
    /// Concurrent accesses submitted per wave.
    pub accesses_per_wave: usize,
    /// Devices retired and replaced between consecutive waves.
    pub churn_per_wave: usize,
    /// Mean think-time between waves (exponentially distributed).
    pub mean_wave_gap: SimDuration,
}

impl Default for PopulationSpec {
    fn default() -> Self {
        PopulationSpec {
            owners: 100,
            devices_per_owner: 1,
            body_bytes: 256,
            retention_days: 30,
            zipf_s: 1.1,
            waves: 3,
            accesses_per_wave: 128,
            churn_per_wave: 4,
            mean_wave_gap: SimDuration::from_millis(500),
        }
    }
}

/// A generated population: owner WebIDs and resource IRIs are
/// index-aligned (index = popularity rank), `devices` is the live consumer
/// fleet (churn retires from the front, enrolls at the back).
#[derive(Debug, Clone)]
pub struct Population {
    /// Owner WebIDs by popularity rank.
    pub owners: Vec<String>,
    /// Resource IRIs by popularity rank.
    pub resources: Vec<String>,
    /// Live consumer devices.
    pub devices: Vec<String>,
    /// Devices ever enrolled (names stay unique across churn).
    spawned: usize,
}

/// What the wave-driven workload did (E15 reports these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PopulationRunReport {
    /// Access requests submitted across every wave.
    pub requests: usize,
    /// Requests that completed successfully.
    pub ok: usize,
    /// Devices retired and replaced between waves.
    pub churned: usize,
    /// Simulated time from first wave to last completion.
    pub makespan: SimDuration,
}

/// The population's per-resource policy: use permitted under a
/// `retention_days` retention bound, deletion owed at the deadline.
pub fn population_policy(resource_iri: &str, owner: &str, retention_days: u64) -> UsagePolicy {
    UsagePolicy::builder(format!("{resource_iri}#policy"), resource_iri, owner)
        .permit(
            Rule::permit([Action::Use]).with_constraint(Constraint::MaxRetention(
                SimDuration::from_days(retention_days),
            )),
        )
        .duty(Duty::DeleteWithin(SimDuration::from_days(retention_days)))
        .duty(Duty::LogAccesses)
        .build()
}

/// Confirms one chunk of a bulk-enrolment pass: party `names[i]` sent
/// transaction `ids[i]` straight into the mempool, and its call emits an
/// event naming that party — `PodRegistered`'s owner WebID,
/// `ResourceRegistered`'s IRI or `CertificateIssued`'s WebID (a pass
/// enrolls one kind of party, and the mempool drains between passes).
///
/// Seals slots until the mempool is empty and confirms parties the way the
/// driver's inclusion wait-set confirms requests: by what each sealed slot
/// included. After every slot it reads that slot's events from the
/// ledger's merged, prune-aware log ([`Ledger::try_events_since`]), so the
/// work is per included transaction, not a receipt probe per pending one
/// per slot. `on_included(world, i)` runs in the slot that included party
/// `i`; a pruning chain evicts at the start of the next slot, so that
/// slot's receipts are still resident however many slots the chunk spans.
///
/// # Panics
/// If a party is still unconfirmed once the pool drains, naming each such
/// party with its receipt's status: a reverted call emits no event, so its
/// receipt is the one place the reason is.
fn confirm_chunk<L: Ledger>(
    world: &mut World<L>,
    what: &str,
    names: &[String],
    ids: &[TxId],
    mut on_included: impl FnMut(&World<L>, usize),
) {
    let mut parties: HashMap<&str, usize> = HashMap::with_capacity(names.len());
    for (i, name) in names.iter().enumerate() {
        let earlier = parties.insert(name, i);
        assert!(
            earlier.is_none(),
            "{what} {name} enrolled twice in one chunk"
        );
    }
    let mut included = vec![false; names.len()];
    let mut cursor = world.chain.height();
    loop {
        let sealed = (world.chain)
            .try_events_since(cursor)
            .expect("a slot is read before the chain prunes it");
        for (_, event) in sealed.iter() {
            let name = match DexEvent::decode(event) {
                Some(DexEvent::PodRegistered(e)) => e.owner_webid,
                Some(DexEvent::ResourceRegistered(e)) => e.resource,
                Some(DexEvent::CertificateIssued(e)) => e.webid,
                _ => continue,
            };
            if let Some(&i) = parties.get(name.as_str()) {
                if !std::mem::replace(&mut included[i], true) {
                    on_included(world, i);
                }
            }
        }
        cursor = world.chain.height();
        if world.chain.pending_count() == 0 {
            break;
        }
        world.advance(SimDuration::from_secs(2));
    }
    let missing: Vec<String> = (0..names.len())
        .filter(|&i| !included[i])
        .map(|i| match world.chain.receipt(&ids[i]) {
            Some(receipt) => format!("{what} {}: {:?}", names[i], receipt.status),
            None => format!("{what} {}: no receipt retained", names[i]),
        })
        .collect();
    assert!(
        missing.is_empty(),
        "{} of {} bulk {what} transactions not confirmed:\n{}",
        missing.len(),
        names.len(),
        missing.join("\n")
    );
}

/// Builds a population at market scale: processes 1 and 2 for every owner
/// and the market subscription for every device, without their per-party
/// network round-trips — the measured workload is [`run_population`], not
/// the bulk enrolment.
///
/// What each party does off-chain, the transaction it signs and what it
/// does once that executed are the driver's own (`driver::pod_init`,
/// `res_init`, `subscribe`: the functions their machines call). Only the
/// sending is bulk: transactions go straight into the mempool in chunks
/// under its bound, and each chunk is confirmed from what every sealed
/// slot included (`confirm_chunk`).
///
/// # Panics
/// If a party's transaction does not execute — its pod or resource is
/// already registered, say. The message names each such party with the
/// status its receipt recorded.
pub fn populate_population<L: Ledger>(world: &mut World<L>, spec: &PopulationSpec) -> Population {
    assert!(spec.owners > 0, "population needs at least one owner");
    let owners: Vec<String> = (0..spec.owners)
        .map(|o| format!("https://p{o}.id/me"))
        .collect();
    for (o, webid) in owners.iter().enumerate() {
        world.add_owner(webid.clone(), format!("https://p{o}.pod/"));
    }

    // Pass 1 — register every pod (process 1).
    for chunk in owners.chunks(FLUSH_CHUNK) {
        let ids: Vec<TxId> = (chunk.iter())
            .map(|webid| {
                let call = pod_init::prepare(world, webid).expect("just added");
                world
                    .chain
                    .submit(call.tx)
                    .expect("pod tx fits the mempool")
            })
            .collect();
        confirm_chunk(world, "pod", chunk, &ids, |_, _| {});
    }
    for webid in &owners {
        pod_init::registered(world, webid);
    }

    // Pass 2 — upload every body, attach its policy, open the market ACL
    // and register the resource (process 2).
    let resources: Vec<String> = (owners.iter())
        .map(|webid| world.owner(webid).pod_manager.pod().iri_of(POPULATION_PATH))
        .collect();
    for (chunk, iris) in owners
        .chunks(FLUSH_CHUNK)
        .zip(resources.chunks(FLUSH_CHUNK))
    {
        let ids: Vec<TxId> = (chunk.iter().zip(iris))
            .map(|(webid, iri)| {
                let policy = population_policy(iri, webid, spec.retention_days);
                let body = Body::Binary(vec![0xA5; spec.body_bytes]);
                let (_, call) =
                    res_init::prepare(world, webid, POPULATION_PATH, body, policy, vec![])
                        .expect("population upload succeeds");
                (world.chain.submit(call.tx)).expect("resource tx fits the mempool")
            })
            .collect();
        confirm_chunk(world, "resource", iris, &ids, |_, _| {});
    }

    let mut pop = Population {
        owners,
        resources,
        devices: Vec::with_capacity(spec.owners * spec.devices_per_owner),
        spawned: 0,
    };
    enroll_devices(world, &mut pop, spec.owners * spec.devices_per_owner);
    pop
}

/// Enrolls `count` fresh consumer devices: funded account, subscription
/// transaction straight into the mempool, market certificate installed
/// from the receipt. Used by the initial build-out and by inter-wave churn.
fn enroll_devices<L: Ledger>(world: &mut World<L>, pop: &mut Population, count: usize) {
    let mut left = count;
    loop {
        let chunk = left.min(FLUSH_CHUNK);
        left -= chunk;
        certify_enrolled(world, pop, chunk);
        if chunk < FLUSH_CHUNK {
            break;
        }
    }
}

/// Enrolls one chunk of `size` devices, drains the mempool and installs
/// each device's market certificate, moving the devices into the live
/// fleet.
///
/// A subscription's receipt is fetched in the slot that included it — one
/// lookup per `CertificateIssued` event — since a pruning chain
/// ([`crate::world::WorldConfig::storage`]) evicts receipts with their
/// blocks and a chunk can span far more slots than the resident window.
/// The certificates are then installed in submission order, so the fleet
/// order, and everything drawn from it, does not depend on how the chunk
/// was packed into blocks.
fn certify_enrolled<L: Ledger>(world: &mut World<L>, pop: &mut Population, size: usize) {
    let mut devices = Vec::with_capacity(size);
    let mut ids = Vec::with_capacity(size);
    for _ in 0..size {
        let n = pop.spawned;
        pop.spawned += 1;
        let name = format!("pop-dev-{n}");
        world.add_device(name.clone(), format!("https://pd{n}.id/me"));
        let call = subscribe::prepare(world, &name).expect("just added");
        ids.push(
            world
                .chain
                .submit(call.tx)
                .expect("subscribe tx fits the mempool"),
        );
        devices.push(name);
    }
    let webids: Vec<String> = (devices.iter())
        .map(|name| world.device(name).webid.clone())
        .collect();
    let mut receipts: Vec<Option<Receipt>> = vec![None; size];
    confirm_chunk(world, "subscription", &webids, &ids, |world, i| {
        receipts[i] = world.chain.receipt(&ids[i]).cloned();
    });
    for (name, receipt) in devices.into_iter().zip(receipts) {
        let receipt = receipt.expect("included in a resident slot");
        subscribe::certified(world, &name, &receipt).expect("subscription certificate");
        pop.devices.push(name);
    }
}

/// Hands `device` the pull-out oracle's answer for rank `rank` directly
/// (the entry the driver's process 3 would fetch over two relay hops), so
/// a wave can start from a cold index without serializing 10⁴ lookups.
fn index_direct<L: Ledger>(world: &mut World<L>, pop: &Population, device: &str, rank: usize) {
    let iri = &pop.resources[rank];
    let sym = world.ids.intern(iri);
    if world.device(device).index_entry(sym).is_some() {
        return;
    }
    let webid = &pop.owners[rank];
    let policy = (world.owner(webid).pod_manager.policy_for(POPULATION_PATH))
        .expect("population policy attached");
    let envelope = world.envelope(policy);
    let entry = IndexEntry {
        location: iri.clone(),
        owner_webid: webid.clone(),
        policy: world.shared_policy(&envelope).expect("own envelope opens"),
    };
    (world.devices.get_mut(device))
        .expect("live device")
        .index(sym, entry);
}

/// Drives the wave-based population workload: per wave, a burst of
/// concurrent resource accesses with Zipf-ranked resource choice and
/// uniformly drawn live devices; between waves, exponential think time and
/// device churn (the oldest devices retire, replacements enroll and
/// subscribe). Requests run through the concurrent driver.
pub fn run_population<L: Ledger>(
    world: &mut World<L>,
    pop: &mut Population,
    spec: &PopulationSpec,
) -> PopulationRunReport {
    let t0 = world.clock.now();
    let (mut requests, mut ok, mut churned) = (0usize, 0usize, 0usize);
    // Built once per run: `gen_zipf` per draw would redo `owners` `powf`s.
    let popularity = zipf_weights(pop.resources.len(), spec.zipf_s);
    for wave in 0..spec.waves {
        if wave > 0 {
            // Bursty arrivals: exponentially distributed inter-wave gap.
            let gap_ms = world
                .rng
                .gen_exponential(spec.mean_wave_gap.as_millis_f64());
            world.advance(SimDuration::from_millis(gap_ms as u64 + 1));
            // Churn: retire from the front, enroll fresh subscribers. The
            // retired devices stay in the world (their TEE copies keep
            // their obligations) but stop driving load.
            let churn = spec.churn_per_wave.min(pop.devices.len().saturating_sub(1));
            pop.devices.drain(..churn);
            enroll_devices(world, pop, churn);
            churned += churn;
        }
        // One burst: distinct (device, resource) pairs, Zipf-skewed over
        // resource ranks, uniform over the live fleet.
        let mut picks: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut attempts = 0;
        while picks.len() < spec.accesses_per_wave && attempts < spec.accesses_per_wave * 8 {
            attempts += 1;
            let rank = world.rng.choose_weighted(&popularity);
            let dev = world.rng.gen_range(pop.devices.len() as u64) as usize;
            picks.insert((dev, rank));
        }
        for (dev, rank) in &picks {
            let device = pop.devices[*dev].clone();
            index_direct(world, pop, &device, *rank);
        }
        let tickets: Vec<crate::Ticket> = picks
            .iter()
            .map(|(dev, rank)| {
                world.submit(Request::ResourceAccess {
                    device: pop.devices[*dev].clone(),
                    resource: pop.resources[*rank].clone(),
                })
            })
            .collect();
        requests += tickets.len();
        world.run_until_idle();
        ok += tickets
            .into_iter()
            .filter(|t| matches!(t.poll(world), Some(Ok(_))))
            .count();
    }
    PopulationRunReport {
        requests,
        ok,
        churned,
        makespan: world.clock.now() - t0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duc_contracts::calls::{GetPod, VerifyCertificate};

    #[test]
    fn the_motivating_scenario_plays_out() {
        let mut world = build_world(WorldConfig::default());
        let report = run(&mut world).expect("fault-free run succeeds");

        assert!(report.alice_got_bytes > 0);
        assert!(report.bob_got_bytes > 0);
        assert!(
            report.bob_copy_deleted,
            "retention tightening erased Bob's copy"
        );
        assert!(
            report.alice_still_permitted,
            "university-hospital research satisfies the academic narrowing"
        );
        // Bob's device deleted the copy on time → compliant; the round
        // may have zero expected devices (copy unregistered) or report a
        // compliant device.
        assert!(report.browsing_monitoring.violators.is_empty());
        assert!(report.medical_monitoring.violators.is_empty());
        assert_eq!(
            report.medical_monitoring.evidence,
            report.medical_monitoring.expected
        );
        assert!(report.total_gas > 0);
    }

    #[test]
    fn scenario_is_deterministic_across_runs() {
        let run_once = |seed: u64| {
            let mut world = build_world(WorldConfig {
                seed,
                ..WorldConfig::default()
            });
            let report = run(&mut world).expect("runs");
            (
                report.total_gas,
                world.clock.now(),
                report.alice_got_bytes,
                report.browsing_monitoring.duration,
            )
        };
        assert_eq!(run_once(7), run_once(7), "same seed, same trajectory");
    }

    fn small_spec() -> PopulationSpec {
        PopulationSpec {
            owners: 6,
            devices_per_owner: 2,
            waves: 2,
            accesses_per_wave: 8,
            churn_per_wave: 2,
            ..PopulationSpec::default()
        }
    }

    #[test]
    fn population_builds_and_every_access_succeeds() {
        let spec = small_spec();
        let mut world = World::new(WorldConfig {
            seed: 15,
            ..WorldConfig::default()
        });
        let mut pop = populate_population(&mut world, &spec);
        assert_eq!(pop.resources.len(), 6);
        assert_eq!(pop.devices.len(), 12);
        for name in &pop.devices {
            assert!(
                world.device(name).certificate.is_some(),
                "{name} holds a market certificate"
            );
        }
        let report = run_population(&mut world, &mut pop, &spec);
        assert_eq!(report.requests, report.ok, "every access succeeds");
        assert_eq!(report.churned, 2, "one churn step between two waves");
        assert_eq!(pop.devices.len(), 12, "churn replaces what it retires");
        assert!(report.requests >= spec.accesses_per_wave);
        assert!(report.makespan > SimDuration::ZERO);
    }

    #[test]
    fn population_replays_byte_identically() {
        let run_once = || {
            let spec = small_spec();
            let mut world = World::new(WorldConfig {
                seed: 16,
                ..WorldConfig::default()
            });
            let mut pop = populate_population(&mut world, &spec);
            let report = run_population(&mut world, &mut pop, &spec);
            (report, world.chain.gas_used_total(), world.clock.now())
        };
        assert_eq!(run_once(), run_once(), "same seed, same trajectory");
    }

    /// The bulk enrolment and the driver's processes 1, 2 and subscription
    /// leave the same market behind: same on-chain records (registration
    /// instants aside), same pod-manager state, every device certified.
    #[test]
    fn bulk_enrolment_registers_what_the_driver_registers() {
        use duc_solid::{SolidRequest, Status};

        let spec = PopulationSpec {
            owners: 3,
            devices_per_owner: 2,
            ..PopulationSpec::default()
        };
        let config = WorldConfig {
            seed: 17,
            ..WorldConfig::default()
        };
        let mut bulk = World::new(config.clone());
        let pop = populate_population(&mut bulk, &spec);

        let mut driven = World::new(config);
        for (o, webid) in pop.owners.iter().enumerate() {
            driven.add_owner(webid.clone(), format!("https://p{o}.pod/"));
        }
        let mut tickets: Vec<_> = (pop.owners.iter())
            .map(|webid| {
                driven.submit(Request::PodInitiation {
                    webid: webid.clone(),
                })
            })
            .collect();
        driven.run_until_idle();
        for (webid, iri) in pop.owners.iter().zip(&pop.resources) {
            tickets.push(driven.submit(Request::ResourceInitiation {
                webid: webid.clone(),
                path: POPULATION_PATH.into(),
                body: Body::Binary(vec![0xA5; spec.body_bytes]),
                policy: population_policy(iri, webid, spec.retention_days),
                metadata: vec![],
            }));
        }
        for (n, device) in pop.devices.iter().enumerate() {
            driven.add_device(device.clone(), format!("https://pd{n}.id/me"));
            tickets.push(driven.submit(Request::MarketSubscribe {
                device: device.clone(),
            }));
        }
        driven.run_until_idle();
        for ticket in tickets {
            ticket.poll(&mut driven).expect("completed").expect("ok");
        }

        fn market<L: Ledger>(world: &mut World<L>, pop: &Population) -> Vec<String> {
            let mut seen = Vec::new();
            for (webid, iri) in pop.owners.iter().zip(&pop.resources) {
                let get_pod = GetPod {
                    owner_webid: webid.clone(),
                };
                let mut pod = world.dex.view(&world.chain, get_pod).unwrap().unwrap();
                let mut resource = (world.dex)
                    .lookup_resource(&world.chain, iri)
                    .unwrap()
                    .unwrap();
                pod.registered_at = duc_sim::SimTime::ZERO;
                resource.registered_at = duc_sim::SimTime::ZERO;
                seen.push(format!("{pod:?} {resource:?}"));

                let owner = world.owners.get_mut(webid).expect("owner");
                assert!(owner.pod_registered);
                let manager = &mut owner.pod_manager;
                seen.push(format!(
                    "{:?} {:?} {:?}",
                    manager.policy_for(""),
                    manager.policy_for(POPULATION_PATH),
                    manager.acl()
                ));
                // The certificate gate: the ACL lets a stranger in, the
                // missing market certificate keeps them out.
                let stranger = SolidRequest::get("https://stranger.id/me", POPULATION_PATH);
                assert_eq!(manager.handle(&stranger).status, Status::PaymentRequired);
            }
            for name in &pop.devices {
                let device = world.device(name);
                let certificate = device.certificate.expect("certified");
                let verify = VerifyCertificate {
                    certificate,
                    webid: device.webid.clone(),
                };
                let accepted = world.dex.view(&world.chain, verify).expect("view");
                assert!(accepted, "{name}'s certificate verifies on-chain");
            }
            seen.push(format!("{} subscriptions", world.push_out.subscriptions()));
            seen
        }
        assert_eq!(market(&mut bulk, &pop), market(&mut driven, &pop));
    }

    /// A bulk registration that reverts is not taken for a registered
    /// party: p0's pod is registered through the driver first, so pass 1's
    /// own `register_pod` for p0 reverts, and the panic names p0 with the
    /// revert its receipt recorded.
    #[test]
    #[should_panic(expected = "pod https://p0.id/me: Reverted(\"reverted: pod already registered")]
    fn a_reverted_bulk_registration_panics_with_its_receipt_status() {
        let mut world = World::new(WorldConfig {
            seed: 18,
            ..WorldConfig::default()
        });
        world.add_owner("https://p0.id/me", "https://p0.pod/");
        world
            .pod_initiation("https://p0.id/me")
            .expect("driver registers p0");
        populate_population(&mut world, &small_spec());
    }

    #[test]
    fn scenario_works_with_encrypted_policies() {
        let mut world = build_world(WorldConfig {
            encrypt_policies: true,
            ..WorldConfig::default()
        });
        let report = run(&mut world).expect("sealed-policy run succeeds");
        assert!(report.bob_copy_deleted);
        assert!(report.alice_still_permitted);
    }
}
