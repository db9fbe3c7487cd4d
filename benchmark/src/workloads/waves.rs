//! `market_access`, `paged_access` and `market_10k`: the paper's dominant
//! traffic — a device indexes a resource (process 3), then fetches a
//! governed copy into its TEE (process 4) — in waves over a Zipf-skewed
//! market population.

use duc_blockchain::{PagingConfig, StorageConfig};
use duc_core::scenario::{populate_population, PopulationSpec};
use duc_core::{Request, World, WorldConfig};

use super::{
    decision_cache, drive_phase, peak_rss_mib, timed_setup, verify_chain, ChainSnapshot,
    CheckFailed, EstCounts, Measured, Window,
};
use crate::schedule::WaveSchedule;
use crate::trace::Tracer;

/// Sizes of one wave workload.
#[derive(Debug, Clone)]
pub struct WaveSizes {
    /// Pod owners; each registers one resource.
    pub owners: usize,
    /// Consumer devices (a multiple of `owners`).
    pub devices: usize,
    /// Waves in the window.
    pub waves: usize,
    /// Distinct (device, resource) pairs per wave. At most 128: beyond
    /// that the 30 M-gas blocks (≈ 6 copy registrations each) push the
    /// tail past the driver's 120 s inclusion timeout.
    pub width: usize,
    /// Whether the chain checkpoints, prunes and pages its state
    /// (`paged_access`) or keeps everything resident (the library default).
    pub paged: bool,
}

impl WaveSizes {
    fn storage(&self) -> StorageConfig {
        if self.paged {
            // Checkpoint every 8 blocks, keep 16; 16 resident state pages
            // of 64 slots against ≈ 3 slots per owner and device: the
            // working set is far larger than the page cache.
            StorageConfig::enabled(8, 16).with_paging(PagingConfig::in_memory(Some(16)))
        } else {
            StorageConfig::disabled()
        }
    }
}

/// Runs one repeat: build the world, populate it, generate the schedule
/// (all `setup_s`), then drive the waves (the window).
///
/// # Errors
/// [`CheckFailed`] when a post-window integrity check does not hold.
pub fn run(seed: u64, sizes: &WaveSizes, tracer: &mut Tracer) -> Result<Measured, CheckFailed> {
    let mut out = Measured::default();

    let (mut world, pop, schedule) = timed_setup(&mut out, || {
        let mut world = World::new(WorldConfig {
            seed,
            storage: sizes.storage(),
            ..WorldConfig::default()
        });
        let pop = populate_population(
            &mut world,
            &PopulationSpec {
                owners: sizes.owners,
                devices_per_owner: sizes.devices / sizes.owners,
                ..PopulationSpec::default()
            },
        );
        let schedule = WaveSchedule::generate(
            seed,
            pop.devices.len(),
            pop.resources.len(),
            sizes.waves,
            sizes.width,
        );
        Ok((world, pop, schedule))
    })?;
    out.det_u64("_schedule_digest", schedule.digest());

    let before = ChainSnapshot::take(&world.chain);
    let sim_start = world.clock.now();
    let mut steps = 0u64;

    tracer.enter("workload");
    let mut win = Window::open();
    for wave in &schedule.waves {
        win.batch_begin(tracer);
        tracer.enter("batch");
        let index: Vec<Request> = wave
            .iter()
            .map(|(dev, rank)| Request::ResourceIndexing {
                device: pop.devices[*dev as usize].clone(),
                resource: pop.resources[*rank as usize].clone(),
            })
            .collect();
        steps += drive_phase(
            &mut world,
            tracer,
            &mut win,
            ["phase.index_submit", "phase.index_run"],
            index,
        )
        .0;
        let access: Vec<Request> = wave
            .iter()
            .map(|(dev, rank)| Request::ResourceAccess {
                device: pop.devices[*dev as usize].clone(),
                resource: pop.resources[*rank as usize].clone(),
            })
            .collect();
        steps += drive_phase(
            &mut world,
            tracer,
            &mut win,
            ["phase.access_submit", "phase.access_run"],
            access,
        )
        .0;
        tracer.exit();
        win.batch_end();
    }
    let requests = win.attempted;
    let makespan = (world.clock.now() - sim_start).as_nanos();
    let gas = before.gas_since(&world.chain);
    win.close(&mut out, tracer, makespan, gas);
    tracer.exit();

    let txs = before.counts_since(&world.chain, &mut out);
    EstCounts {
        views: requests,
        envelope_opens: requests / 2,
        tee_stores: requests / 2,
        ..EstCounts::default()
    }
    .write(&mut out, &world.chain, txs);
    out.det_f64(
        "count.driver_steps_per_req",
        steps as f64 / requests.max(1) as f64,
    );
    let (hits, misses) = decision_cache(&world);
    out.det_f64(
        "count.tee.decision_cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.det_f64("count.monitoring.evidence_per_round", 0.0);
    out.det_u64("count.policy_mod.devices_notified", 0);
    out.wall("peak_rss_mib", peak_rss_mib());

    verify_chain(&world.chain)?;
    Ok(out)
}
