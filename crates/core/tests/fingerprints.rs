//! The behaviour pin: everything observable about a fixed set of runs,
//! rendered to text and compared with `golden/fingerprints.txt`.
//!
//! Per ledger backend the file holds, for the six chaos seeds, the
//! fault-free launch pad, the policy-churn batch and the §II scenario:
//! the `run_until_idle` step count, every ticket's [`outcome_key`] and the
//! whole [`chaos::fingerprint`] (counters, histograms, trace, clock,
//! height, gas, state commitment); and for a small bulk-enrolled
//! population with one churn wave: height, gas, state commitment, fleet
//! order and push-out subscription count. Each backend is rendered under
//! both execution modes, which must agree, so the file keeps one copy.
//!
//! A refactor that is meant to change nothing leaves the file byte-equal.
//! After a change that is meant to move it:
//! `cargo test -p duc-core --release --test fingerprints -- --ignored bless`.

use std::fmt::Write as _;

use duc_blockchain::{ExecMode, Ledger};
use duc_core::chaos::{self, fixed_link};
use duc_core::outcome_key;
use duc_core::prelude::*;
use duc_core::scenario::{populate_population, run_population, PopulationSpec};
use duc_sim::FaultPlan;

const OWNER: &str = "https://owner.id/me";
const PATH: &str = "data/set.bin";
const GOLDEN: &str = include_str!("golden/fingerprints.txt");

/// The world seeds of the chaos gate (`tests/chaos.rs`).
const SEEDS: [u64; 6] = [11, 23, 42, 77, 1234, 31337];

fn config(seed: u64, exec_mode: ExecMode) -> WorldConfig {
    WorldConfig {
        seed,
        link: fixed_link(10),
        trace: true,
        shards: 4,
        exec_mode,
        ..WorldConfig::default()
    }
}

/// One batch against the six-holder launch pad under `plan`.
fn batch_section<L: Ledger>(
    out: &mut String,
    title: &str,
    world: World<L>,
    batch: fn(&str, &str, &str, usize) -> Vec<Request>,
    plan: impl FnOnce(&World<L>) -> FaultPlan,
) {
    let (mut world, resource) = chaos::launch_pad_in(world, OWNER, PATH, 6);
    let plan = plan(&world);
    let run = chaos::run_chaos(&mut world, batch(OWNER, PATH, &resource, 6), plan)
        .unwrap_or_else(|e| panic!("{title}: {e}"));
    let _ = writeln!(out, "--- {title}");
    let _ = writeln!(out, "steps {}", run.steps);
    for (ticket, outcome) in &run.outcomes {
        let _ = writeln!(out, "ticket {} {}", ticket.id(), outcome_key(outcome));
    }
    out.push_str(&chaos::fingerprint(&mut world));
}

/// Everything pinned for one backend under one execution mode; `new`
/// builds that backend's world.
fn render<L: Ledger>(mode: ExecMode, new: fn(WorldConfig) -> World<L>) -> String {
    let mut out = String::new();
    for seed in SEEDS {
        let chaos_seed = seed.wrapping_mul(31).wrapping_add(7);
        batch_section(
            &mut out,
            &format!("chaos world_seed={seed} chaos_seed={chaos_seed}"),
            new(config(seed, mode)),
            chaos::mixed_batch,
            |world| chaos::random_plan(world, chaos_seed, SimDuration::from_secs(15), 5),
        );
    }
    batch_section(
        &mut out,
        "fault-free launch pad seed=7",
        new(config(7, mode)),
        chaos::mixed_batch,
        |_| FaultPlan::none(),
    );
    batch_section(
        &mut out,
        "policy churn seed=77",
        new(config(77, mode)),
        chaos::policy_churn_batch,
        |world| {
            let device = world.device("device-0").endpoint;
            chaos::healing_plan(world.clock.now(), device, world.push_in.relay)
        },
    );
    // The chaos seeds' windows rarely land on a busy link: this plan drops
    // on every device's uplink and on the relay ↔ gateway pair, so the
    // uplink's retry arm, hop backoffs and their RNG draws are pinned too.
    batch_section(
        &mut out,
        "policy churn under drop windows seed=31",
        new(config(31, mode)),
        chaos::policy_churn_batch,
        |world| {
            let now = world.clock.now();
            let until = now + SimDuration::from_secs(20);
            let relay = world.push_in.relay;
            (0..6).fold(
                FaultPlan::none().drop_window(relay, world.gateway, now, until, 300),
                |plan, i| {
                    let device = world.device(&format!("device-{i}")).endpoint;
                    plan.drop_window(device, relay, now, until, 400)
                },
            )
        },
    );

    let mut world = new(config(3, mode));
    scenario::populate(&mut world);
    let report = scenario::run(&mut world).expect("fault-free scenario");
    let _ = writeln!(out, "--- scenario seed=3");
    let _ = writeln!(out, "{report:?}");
    out.push_str(&chaos::fingerprint(&mut world));

    let spec = PopulationSpec {
        owners: 24,
        devices_per_owner: 2,
        waves: 2,
        accesses_per_wave: 16,
        churn_per_wave: 3,
        ..PopulationSpec::default()
    };
    let mut world = new(config(15, mode));
    let mut pop = populate_population(&mut world, &spec);
    let _ = writeln!(out, "--- population seed=15, enrolled");
    population_lines(&mut out, &world, &pop.devices);
    let report = run_population(&mut world, &mut pop, &spec);
    let _ = writeln!(out, "--- population seed=15, after {report:?}");
    population_lines(&mut out, &world, &pop.devices);
    out
}

fn population_lines<L: Ledger>(out: &mut String, world: &World<L>, fleet: &[String]) {
    let _ = writeln!(out, "height {}", world.chain.height());
    let _ = writeln!(out, "gas {}", world.chain.gas_used_total());
    let _ = writeln!(out, "commitment {}", world.chain.state_commitment());
    let _ = writeln!(out, "subscriptions {}", world.push_out.subscriptions());
    let _ = writeln!(out, "fleet {}", fleet.join(" "));
}

/// Both backends, each rendered under both execution modes.
fn render_all() -> String {
    fn backend<L: Ledger>(out: &mut String, name: &str, new: fn(WorldConfig) -> World<L>) {
        let serial = render(ExecMode::Serial, new);
        let parallel = render(ExecMode::Parallel, new);
        assert_lines_eq(&format!("{name}: Serial vs Parallel"), &serial, &parallel);
        let _ = writeln!(out, "=== backend={name} (Serial and Parallel agree)");
        out.push_str(&serial);
    }
    let mut out = String::new();
    backend(&mut out, "single", World::new);
    backend(&mut out, "sharded", World::new_sharded);
    out
}

/// Panics with the differing lines (not two multi-thousand-line strings).
fn assert_lines_eq(context: &str, expected: &str, actual: &str) {
    if expected == actual {
        return;
    }
    let (expected, actual): (Vec<&str>, Vec<&str>) =
        (expected.lines().collect(), actual.lines().collect());
    let mut diff = String::new();
    let mut shown = 0;
    for i in 0..expected.len().max(actual.len()) {
        let (e, a) = (expected.get(i), actual.get(i));
        if e != a && shown < 40 {
            shown += 1;
            let _ = writeln!(diff, "line {}:", i + 1);
            let _ = writeln!(diff, "  - {}", e.unwrap_or(&"<end of file>"));
            let _ = writeln!(diff, "  + {}", a.unwrap_or(&"<end of file>"));
        }
    }
    panic!(
        "{context}: {} vs {} lines, first differences (- expected, + actual):\n{diff}",
        expected.len(),
        actual.len()
    );
}

#[test]
fn fingerprints_match_the_golden_file() {
    assert_lines_eq("golden/fingerprints.txt", GOLDEN, &render_all());
}

/// Rewrites the golden file from the current behaviour.
#[test]
#[ignore = "rewrites tests/golden/fingerprints.txt"]
fn bless() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fingerprints.txt");
    std::fs::write(path, render_all()).expect("golden file is writable");
}
