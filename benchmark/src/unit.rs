//! `unit.<crate>.<op>_ns` / `_alloc_b`: nanoseconds and allocated bytes
//! per call of one public function on a fixed input, measured from
//! outside. Inputs and results pass through `black_box`; the byte counts
//! come from the binary's counting allocator ([`crate::alloc`]).
//!
//! Every op runs a fixed number of calls (not a fixed time), so the
//! allocation figures repeat exactly and the time figures differ only by
//! host noise; the reported time is the median of [`SAMPLES`] samples.

use std::hint::black_box;
use std::time::Instant;

use duc_blockchain::{
    AccessParams, Address, Blockchain, ContractId, Ledger, PagingConfig, SignedTransaction,
    WorldState,
};
use duc_codec::{decode_from_slice, encode_to_vec};
use duc_contracts::{
    dex_access, DistExchange, DistExchangeClient, PolicyEnvelope, DEX_CONTRACT_ID,
};
use duc_core::scenario::{populate_population, PopulationSpec};
use duc_core::{Request, World, WorldConfig};
use duc_crypto::{sha256, Digest, KeyPair, MerkleTree};
use duc_intern::Interner;
use duc_oracle::PushOutOracle;
use duc_policy::{compile, Action, Constraint, Duty, Purpose, Rule, UsageContext, UsagePolicy};
use duc_sim::{Clock, LinkConfig, NetworkModel, Rng, Scheduler, SimDuration, SimTime};
use duc_solid::{Body, PodManager, SolidRequest, Status};
use duc_storage::{encode_page, Checkpoint, PageStore, StateStore};
use duc_tee::{Enclave, TrustedApplication};

use crate::alloc::allocated_bytes;
use crate::calib::HostSpeed;
use crate::stats::median;

/// Samples per op; the median is reported.
pub const SAMPLES: usize = 5;

/// One measured op.
#[derive(Debug, Clone)]
pub struct UnitResult {
    /// `<crate>.<op>`.
    pub name: &'static str,
    /// Median nanoseconds per call.
    pub ns: f64,
    /// Allocated bytes per call.
    pub alloc_b: f64,
}

/// Wall nanoseconds for `iters` back-to-back calls of `f`.
pub fn loop_total_ns<R>(iters: u64, mut f: impl FnMut() -> R) -> u64 {
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    start.elapsed().as_nanos() as u64
}

/// Kernel samples on each side of one op's measurement (see
/// [`crate::calib`]): unit times are in reference nanoseconds, like every
/// other host-time metric.
const KERNEL_SAMPLES: usize = 4;

/// A repeatable op: the whole loop is timed at once.
fn time_loop<R>(name: &'static str, iters: u64, mut f: impl FnMut() -> R) -> UnitResult {
    loop_total_ns(iters.div_ceil(10), &mut f); // warm-up
    let mut speed = HostSpeed::new();
    speed.sample_n(KERNEL_SAMPLES);
    let mut ns = Vec::with_capacity(SAMPLES);
    let mut bytes = 0;
    for _ in 0..SAMPLES {
        let before = allocated_bytes();
        ns.push(loop_total_ns(iters, &mut f) as f64 / iters as f64);
        bytes = allocated_bytes() - before;
    }
    speed.sample_n(KERNEL_SAMPLES);
    UnitResult {
        name,
        ns: median(&ns) * speed.factor(),
        alloc_b: bytes as f64 / iters as f64,
    }
}

/// A stateful op on `state`: `prep` builds call `i`'s input untimed,
/// `run` is timed call by call (two clock reads ≈ 40 ns per call, so only
/// for ops well above that).
fn time_each<S, I, R>(
    name: &'static str,
    iters: u64,
    state: &mut S,
    mut prep: impl FnMut(&mut S, u64) -> I,
    mut run: impl FnMut(&mut S, I) -> R,
) -> UnitResult {
    let mut speed = HostSpeed::new();
    speed.sample_n(KERNEL_SAMPLES);
    let mut ns = Vec::with_capacity(SAMPLES);
    let mut bytes = 0;
    let mut call = 0;
    for _ in 0..SAMPLES {
        let (mut total, mut allocated) = (0u64, 0u64);
        for _ in 0..iters {
            let input = prep(state, call);
            call += 1;
            let before = allocated_bytes();
            let start = Instant::now();
            let result = run(state, black_box(input));
            total += start.elapsed().as_nanos() as u64;
            allocated += allocated_bytes() - before;
            black_box(result);
        }
        ns.push(total as f64 / iters as f64);
        bytes = allocated;
    }
    speed.sample_n(KERNEL_SAMPLES);
    UnitResult {
        name,
        ns: median(&ns) * speed.factor(),
        alloc_b: bytes as f64 / iters as f64,
    }
}

// ------------------------------------------------------------- fixtures

fn sample_policy(iri: &str, owner: &str, version: u64) -> UsagePolicy {
    UsagePolicy::builder(format!("{iri}#policy"), iri, owner)
        .permit(
            Rule::permit([Action::Use])
                .with_constraint(Constraint::MaxRetention(SimDuration::from_days(30))),
        )
        .duty(Duty::DeleteWithin(SimDuration::from_days(30)))
        .duty(Duty::LogAccesses)
        .version(version)
        .build()
}

const IRI: &str = "https://p7.pod/data/set.bin";
const OWNER: &str = "https://p7.id/me";

fn tee_with_copy() -> TrustedApplication {
    let mut tee = TrustedApplication::new(
        Enclave::new("unit-dev", b"duc/trusted-app-v1"),
        "https://pd7.id/me",
    );
    tee.store_resource(
        IRI,
        &[0xA5; 256],
        sample_policy(IRI, OWNER, 1),
        SimTime::from_secs(50),
    );
    tee
}

/// A chain with the DE App deployed and initialised, blocks wide enough
/// for any batch below.
fn dex_chain() -> (Blockchain, DistExchangeClient) {
    let mut chain = Blockchain::builder().max_block_gas(10_000_000_000).build();
    chain.deploy_with(ContractId::new(DEX_CONTRACT_ID), &|| {
        Box::new(DistExchange::default())
    });
    chain.install_access_fn(&duc_contracts::dex_access_fn);
    let dex = DistExchangeClient::new();
    let admin = Ledger::create_funded_account(&mut chain, b"unit/admin", 1_000_000_000);
    let init = dex.init_tx(
        &chain,
        &admin,
        10_000,
        SimDuration::from_days(30).as_nanos(),
        Address::from_seed(b"unit/treasury"),
    );
    Ledger::submit(&mut chain, init).expect("init fits");
    seal(&mut chain);
    (chain, dex)
}

fn seal(chain: &mut Blockchain) {
    let slot = Ledger::next_slot_at(chain, Ledger::current_time(chain));
    Ledger::advance_to(chain, slot);
}

struct Sender {
    key: KeyPair,
    webid: String,
    root: String,
}

fn senders(chain: &mut Blockchain, tag: &str, n: usize) -> Vec<Sender> {
    (0..n)
        .map(|j| {
            let webid = format!("https://{tag}{j}.id/me");
            Sender {
                key: Ledger::create_funded_account(chain, webid.as_bytes(), u128::from(u64::MAX)),
                root: format!("https://{tag}{j}.pod/"),
                webid,
            }
        })
        .collect()
}

fn register_pod_tx(chain: &Blockchain, dex: &DistExchangeClient, s: &Sender) -> SignedTransaction {
    let env = PolicyEnvelope::plain(&UsagePolicy::default_for(s.root.clone(), &s.webid));
    dex.register_pod_tx(chain, &s.key, &s.webid, &s.root, env)
}

/// A chain holding `n` registered pods with one resource each; returns
/// the resource names and one receipt id.
fn populated_chain(n: usize) -> (Blockchain, DistExchangeClient, Vec<Sender>, Vec<String>) {
    let (mut chain, dex) = dex_chain();
    let owners = senders(&mut chain, "u", n);
    for s in &owners {
        let tx = register_pod_tx(&chain, &dex, s);
        Ledger::submit(&mut chain, tx).expect("pod tx fits");
    }
    seal(&mut chain);
    let mut names = Vec::with_capacity(n);
    for s in &owners {
        let name = format!("{}data/set.bin", s.root);
        let env = PolicyEnvelope::plain(&sample_policy(&name, &s.webid, 1));
        let tx = dex.register_resource_tx(&chain, &s.key, &name, &name, &s.webid, vec![], env);
        Ledger::submit(&mut chain, tx).expect("resource tx fits");
        names.push(name);
    }
    seal(&mut chain);
    assert_eq!(Ledger::pending_count(&chain), 0, "fixture blocks drained");
    (chain, dex, owners, names)
}

// ------------------------------------------------------------------ ops

/// Measures every unit op. `scale` multiplies the per-op call counts
/// (1.0 for the benchmark; the smoke tests pass a small fraction).
pub fn run_all(scale: f64) -> Vec<UnitResult> {
    let n = |base: u64| ((base as f64 * scale) as u64).max(2);
    let mut out = Vec::new();

    // ---- crypto
    let data_1k = vec![0xABu8; 1024];
    out.push(time_loop("crypto.sha256_1k", n(2_000), || {
        sha256(black_box(&data_1k))
    }));
    let kp = KeyPair::from_seed(b"unit/signer");
    let msg = [0x5Au8; 160];
    let sig = kp.sign(&msg);
    out.push(time_loop("crypto.schnorr_sign", n(2_000), || {
        kp.sign(black_box(&msg))
    }));
    out.push(time_loop("crypto.schnorr_verify", n(2_000), || {
        kp.public().verify(black_box(&msg), black_box(&sig)).is_ok()
    }));
    let leaves: Vec<Vec<u8>> = (0..256)
        .map(|i| format!("tx-{i:04}").into_bytes())
        .collect();
    out.push(time_loop("crypto.merkle_root_256", n(50), || {
        MerkleTree::from_leaves(black_box(&leaves)).root()
    }));

    // ---- codec
    let policy = sample_policy(IRI, OWNER, 1);
    let policy_bytes = encode_to_vec(&policy);
    out.push(time_loop("codec.encode_policy", n(5_000), || {
        encode_to_vec(black_box(&policy))
    }));
    out.push(time_loop("codec.decode_policy", n(5_000), || {
        decode_from_slice::<UsagePolicy>(black_box(&policy_bytes)).expect("decodes")
    }));

    // ---- intern
    let mut interner = Interner::new();
    for i in 0..10_000 {
        interner.intern(&format!("https://p{i}.pod/data/set.bin"));
    }
    out.push(time_loop("intern.intern_hit", n(20_000), || {
        interner.intern(black_box("https://p7777.pod/data/set.bin"))
    }));

    // ---- rdf
    let graph = duc_policy::rdf_binding::policy_to_graph(&policy).expect("graph");
    let turtle = duc_rdf::turtle::serialize(&graph);
    out.push(time_loop("rdf.turtle_parse_policy", n(500), || {
        duc_rdf::turtle::parse(black_box(&turtle)).expect("parses")
    }));

    // ---- policy
    let taxonomy = duc_policy::PurposeTaxonomy::standard();
    out.push(time_loop("policy.compile", n(5_000), || {
        compile(black_box(&policy), &taxonomy)
    }));
    let prog = compile(&policy, &taxonomy);
    let ctx = UsageContext {
        consumer: "https://pd7.id/me".into(),
        action: Action::Read,
        purpose: Purpose::new("research"),
        now: SimTime::from_secs(100),
        acquired_at: SimTime::from_secs(50),
        access_count: 3,
    };
    out.push(time_loop("policy.decide", n(20_000), || {
        prog.decide(black_box(&ctx))
    }));
    out.push(time_loop("policy.next_transition", n(20_000), || {
        prog.next_transition(black_box(&ctx))
    }));

    // ---- solid
    let mut pm = PodManager::new("https://p7.pod/", OWNER);
    let put = SolidRequest::put(OWNER, "data/set.bin").with_body(Body::Binary(vec![0xA5; 256]));
    assert!(pm.handle(&put).status.is_success(), "fixture PUT");
    let mut acl = pm.acl().clone();
    acl.push(duc_policy::Authorization::for_resource(
        "market-readers",
        IRI,
        vec![duc_policy::AgentSpec::AuthenticatedAgent],
        vec![duc_policy::AclMode::Read],
    ));
    pm.set_acl(acl);
    pm.set_require_certificate(true);
    let get = SolidRequest::get("https://pd7.id/me", "data/set.bin")
        .with_certificate(sha256(b"unit/certificate"));
    let verifier = |_: &Digest, _: &str| true;
    out.push(time_loop("solid.pod_get_certified", n(5_000), || {
        let resp = pm.handle_with_verifier(black_box(&get), &verifier);
        assert_eq!(resp.status, Status::Ok);
        resp
    }));

    // ---- tee
    let mut tee = tee_with_copy();
    let body = [0xA5u8; 256];
    out.push(time_each(
        "tee.store_resource",
        n(500),
        &mut tee,
        |_, i| {
            let iri = format!("https://p{i}.pod/data/set.bin");
            let policy = sample_policy(&iri, OWNER, 1);
            (iri, policy)
        },
        |tee, (iri, policy)| tee.store_resource(iri, &body, policy, SimTime::from_secs(60)),
    ));
    let mut tee = tee_with_copy();
    let research = Purpose::new("research");
    let now = SimTime::from_secs(100);
    tee.access(IRI, Action::Read, research.clone(), now)
        .expect("fixture access");
    out.push(time_loop("tee.access_cache_hit", n(2_000), || {
        tee.access(IRI, Action::Read, research.clone(), now)
            .expect("permitted")
    }));
    let mut tee = tee_with_copy();
    let purposes = [Purpose::new("research"), Purpose::new("medical")];
    let mut flip = 0usize;
    out.push(time_loop("tee.access_cache_miss", n(2_000), || {
        // Alternating the purpose invalidates the one-entry cache.
        flip ^= 1;
        tee.access(IRI, Action::Read, purposes[flip].clone(), now)
            .expect("permitted")
    }));
    let mut tee = tee_with_copy();
    out.push(time_each(
        "tee.apply_policy_update",
        n(500),
        &mut tee,
        |_, i| sample_policy(IRI, OWNER, i + 2),
        |tee, policy| tee.apply_policy_update(IRI, policy, now),
    ));
    let mut tee = tee_with_copy();
    for _ in 0..16 {
        tee.access(IRI, Action::Read, research.clone(), now)
            .expect("fixture access");
    }
    out.push(time_loop("tee.report", n(500), || {
        tee.report(black_box(IRI), now).expect("copy held")
    }));

    // ---- sim
    let clock = Clock::new();
    let mut sched = Scheduler::new(clock.clone());
    let mut at = SimTime::ZERO;
    out.push(time_loop("sim.sched_event", n(20_000), || {
        at += SimDuration::from_millis(1);
        sched.schedule_at(at, |_| {});
        sched.run_until(at)
    }));

    // ---- storage
    // A page as `paged_access` spills them: about 40 slots (pages split
    // at 64) of a 30-byte key and a 56-byte row.
    let slots: Vec<(Vec<u8>, Vec<u8>)> = (0..40)
        .map(|i| {
            (
                format!("res/https://p{i:03}.pod/data/set.bin").into_bytes(),
                vec![i as u8; 56],
            )
        })
        .collect();
    let page = encode_page(slots.iter().map(|(k, v)| (k.as_slice(), v.as_slice())));
    let mut store = PageStore::in_memory();
    out.push(time_loop("storage.page_append", n(500), || {
        store.append(black_box(&page)).expect("in-memory append")
    }));
    let page_ref = store.append(&page).expect("in-memory append");
    out.push(time_loop("storage.page_read_verify", n(500), || {
        store.read(black_box(&page_ref)).expect("verifies")
    }));
    let mut checkpoints = StateStore::new();
    let mut height = 0;
    out.push(time_loop("storage.checkpoint_seal", n(20_000), || {
        height += 8;
        checkpoints.seal(Checkpoint {
            height,
            state_commitment: Digest([7; 32]),
            accumulator: [9; 32],
            event_cursor_floor: height,
        });
    }));

    // ---- blockchain: write path
    let (mut chain, dex) = dex_chain();
    let pool = senders(&mut chain, "w", 256);
    let mut k = 0usize;
    out.push(time_loop("blockchain.tx_build_sign", n(1_000), || {
        k = (k + 1) % pool.len();
        register_pod_tx(&chain, &dex, &pool[k])
    }));
    let (mut chain, dex) = dex_chain();
    let submits = n(1_280);
    let pool = senders(&mut chain, "s", submits as usize * SAMPLES);
    let txs: Vec<SignedTransaction> = pool
        .iter()
        .map(|s| register_pod_tx(&chain, &dex, s))
        .collect();
    out.push(time_each(
        "blockchain.submit",
        submits,
        &mut (chain, txs.into_iter()),
        |(chain, txs), i| {
            // Keep the mempool at batch size, as the workloads do.
            if i % 256 == 0 {
                seal(chain);
            }
            txs.next().expect("one tx per call")
        },
        |(chain, _), tx| Ledger::submit(chain, tx).expect("valid tx"),
    ));
    let (mut chain, dex) = dex_chain();
    let pool = senders(&mut chain, "b", 256 * n(4) as usize * SAMPLES);
    out.push(time_each(
        "blockchain.seal_block_256",
        n(4),
        &mut (chain, pool.chunks(256)),
        |(chain, pool), _| {
            for s in pool.next().expect("one chunk per block") {
                let tx = register_pod_tx(chain, &dex, s);
                Ledger::submit(chain, tx).expect("valid tx");
            }
        },
        |(chain, _), ()| seal(chain),
    ));
    let (mut chain, dex) = dex_chain();
    let pool = senders(&mut chain, "e", n(200) as usize * SAMPLES);
    out.push(time_each(
        "blockchain.seal_block_1",
        n(200),
        &mut (chain, pool.iter()),
        |(chain, pool), _| {
            let tx = register_pod_tx(chain, &dex, pool.next().expect("one sender per block"));
            Ledger::submit(chain, tx).expect("valid tx");
        },
        |(chain, _), ()| seal(chain),
    ));

    // ---- blockchain: read path
    let (mut chain, dex, owners, names) = populated_chain(1_000);
    let s = &owners[7];
    let name = format!("{}data/extra.bin", s.root);
    let env = PolicyEnvelope::plain(&sample_policy(&name, &s.webid, 1));
    let tx = dex.register_resource_tx(&chain, &s.key, &name, &name, &s.webid, vec![], env);
    let id = Ledger::submit(&mut chain, tx).expect("valid tx");
    seal(&mut chain);
    out.push(time_loop("blockchain.receipt_lookup", n(20_000), || {
        Ledger::receipt(&chain, black_box(&id)).expect("included")
    }));
    out.push(time_loop("blockchain.call_view_lookup", n(5_000), || {
        dex.lookup_resource(&chain, black_box(&names[500]))
            .expect("view")
            .expect("registered")
    }));
    let tip = Ledger::height(&chain);
    out.push(time_loop("blockchain.events_since_tail", n(20_000), || {
        Ledger::events_since(&chain, black_box(tip - 1)).len()
    }));

    // ---- blockchain: state slots
    let contract = ContractId::new(DEX_CONTRACT_ID);
    let key_of = |i: usize| format!("res/https://p{i:05}.pod/data/set.bin").into_bytes();
    let fill = |state: &mut WorldState| {
        for i in 0..4_096 {
            state.storage_set(&contract, key_of(i), vec![(i % 251) as u8; 96]);
        }
    };
    let mut resident = WorldState::new();
    fill(&mut resident);
    let hot = key_of(2_048);
    out.push(time_loop("blockchain.slot_get_resident", n(20_000), || {
        resident.storage_get(&contract, black_box(&hot))
    }));
    // 4 096 slots in 64-slot pages against 4 resident pages: striding by
    // one page per read makes every read a fault-in.
    let mut paged = WorldState::with_paging(&PagingConfig::in_memory(Some(4)));
    fill(&mut paged);
    let mut i = 0usize;
    out.push(time_loop("blockchain.slot_get_faulted", n(2_000), || {
        i = (i + 67) % 4_096;
        paged.storage_get(&contract, black_box(&key_of(i)))
    }));
    let mut j = 0usize;
    out.push(time_loop("blockchain.slot_set", n(5_000), || {
        j = (j + 1) % 4_096;
        resident.storage_set(&contract, key_of(j), vec![(j % 241) as u8; 96]);
    }));

    // ---- contracts
    let args = encode_to_vec(&(
        IRI.to_string(),
        "pop-dev-7".to_string(),
        "https://pd7.id/me".to_string(),
        kp.public(),
    ));
    let state = WorldState::new();
    let params = AccessParams {
        contract: &contract,
        method: "register_copy",
        args: &args,
        caller: Address::from_seed(b"unit/caller"),
        block_height: 1,
        block_time: SimTime::from_secs(2),
        state: &state,
    };
    out.push(time_loop("contracts.access_set_derive", n(5_000), || {
        dex_access(black_box(&params))
    }));
    let envelope = PolicyEnvelope::plain(&policy);
    out.push(time_loop("contracts.envelope_open_plain", n(5_000), || {
        black_box(&envelope).open_plain().expect("decodes")
    }));

    // ---- oracle: one fresh PolicyUpdated event, one subscriber.
    let (mut chain, dex, owners, names) = populated_chain(1);
    let mut net = NetworkModel::new(LinkConfig::default());
    let relay = net.add_endpoint("relay");
    let device = net.add_endpoint("device");
    let mut push_out = PushOutOracle::new(relay);
    push_out.subscribe(duc_contracts::topics::POLICY_UPDATED, device);
    let clock = Clock::new();
    let mut rng = Rng::seed_from_u64(7);
    out.push(time_each(
        "oracle.push_out_drain_event",
        n(200),
        &mut chain,
        |chain, i| {
            let s = &owners[0];
            let env = PolicyEnvelope::plain(&sample_policy(&names[0], &s.webid, i + 2));
            let tx = dex.update_policy_tx(chain, &s.key, &names[0], env, i + 2);
            Ledger::submit(chain, tx).expect("valid tx");
            seal(chain);
        },
        |chain, ()| {
            let deliveries = push_out
                .try_drain(chain, &mut net, &clock, &mut rng)
                .expect("nothing pruned");
            assert_eq!(deliveries.len(), 1, "one event, one subscriber");
            deliveries
        },
    ));

    // ---- core: submit on a small populated world.
    let mut world = World::new(WorldConfig::default());
    let pop = populate_population(
        &mut world,
        &PopulationSpec {
            owners: 16,
            devices_per_owner: 1,
            ..PopulationSpec::default()
        },
    );
    out.push(time_each(
        "core.submit_request",
        n(1_024),
        &mut world,
        |world, i| {
            // Flush the driver every 64 submissions so the in-flight
            // table stays at wave size.
            if i % 64 == 0 {
                world.run_until_idle();
                world.drain_events();
            }
            Request::ResourceIndexing {
                device: pop.devices[i as usize % 16].clone(),
                resource: pop.resources[(i as usize * 7) % 16].clone(),
            }
        },
        |world, request| world.submit(request),
    ));

    out
}
