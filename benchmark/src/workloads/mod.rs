//! The five workloads and what one run of any of them reports.
//!
//! All are closed loop: a batch (wave, block or round) is submitted only
//! after the previous one has run to idle, because the driver's callers
//! wait on their tickets. Work is a fixed function of the sizes, never of
//! elapsed time, so every count repeats exactly.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use duc_blockchain::{Blockchain, ExecMode, Ledger, PagingStats};
use duc_core::{Outcome, ProcessError, Ticket, World};

use crate::calib::HostSpeed;
use crate::schedule::Fnv64;
use crate::stats;
use crate::trace::Tracer;

pub mod ingest;
pub mod lifecycle;
pub mod waves;

/// DE App methods whose mean gas per call is reported as `count.gas.*`
/// (the six heaviest by mean gas across the five workloads).
pub const GAS_METHODS: [&str; 6] = [
    "register_pod",
    "register_resource",
    "register_copy",
    "update_policy",
    "start_monitoring",
    "record_evidence",
];

/// A benchmark failure: a correctness check did not hold. The run exits
/// non-zero; it never reports metrics from a run it cannot vouch for.
#[derive(Debug)]
pub struct CheckFailed(pub String);

impl std::fmt::Display for CheckFailed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "correctness check failed: {}", self.0)
    }
}

impl std::error::Error for CheckFailed {}

/// What one repeat of one workload measured, keyed by metric name (plus
/// `_`-prefixed internals the parent needs). `det` values are functions of
/// seed and sizes alone and are compared *as strings* across repeats;
/// `wall` values are host time or memory and are summarised by medians.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Measured {
    /// Deterministic values, formatted once where they are computed.
    pub det: BTreeMap<String, String>,
    /// Host-dependent values.
    pub wall: BTreeMap<String, f64>,
}

impl Measured {
    fn det_u64(&mut self, name: &str, v: u64) {
        self.det.insert(name.to_string(), v.to_string());
    }

    fn det_f64(&mut self, name: &str, v: f64) {
        // `{:?}` prints the shortest string that round-trips the value.
        self.det.insert(name.to_string(), format!("{v:?}"));
    }

    fn wall(&mut self, name: &str, v: f64) {
        self.wall.insert(name.to_string(), v);
    }

    /// A deterministic value parsed back as a number.
    pub fn det_value(&self, name: &str) -> Option<f64> {
        self.det.get(name)?.parse().ok()
    }
}

/// Runs `build` as the workload's set-up and records `setup_s`: its wall
/// time in reference seconds (see [`crate::calib`]), calibrated by kernel
/// samples on either side.
pub(crate) fn timed_setup<T>(
    out: &mut Measured,
    build: impl FnOnce() -> Result<T, CheckFailed>,
) -> Result<T, CheckFailed> {
    let mut speed = HostSpeed::new();
    speed.sample_n(SETUP_KERNEL_SAMPLES);
    let start = Instant::now();
    let built = build()?;
    let raw_s = start.elapsed().as_secs_f64();
    speed.sample_n(SETUP_KERNEL_SAMPLES);
    out.wall("_setup_raw_s", raw_s);
    out.wall("setup_s", raw_s * speed.factor());
    Ok(built)
}

/// Kernel samples on each side of a set-up.
const SETUP_KERNEL_SAMPLES: usize = 32;

/// Bookkeeping shared by every workload's timed window.
///
/// The window's clock excludes the calibration kernel: every
/// [`Window::calibrate`] call is timed and subtracted from both the
/// window and the open batch.
pub(crate) struct Window {
    started: Instant,
    /// Kernel time of this process when the window opened.
    sys_started_s: f64,
    calibration_ns: u64,
    batch_started: Instant,
    batch_calibration_ns: u64,
    speed: HostSpeed,
    /// Raw wall milliseconds per batch.
    batch_ms: Vec<f64>,
    /// Simulated latency samples, nanoseconds.
    latencies_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    outcomes: Fnv64,
    first_failure: Option<String>,
}

impl Window {
    pub(crate) fn open() -> Window {
        let now = Instant::now();
        Window {
            started: now,
            sys_started_s: kernel_time_s(),
            calibration_ns: 0,
            batch_started: now,
            batch_calibration_ns: 0,
            speed: HostSpeed::new(),
            batch_ms: Vec::new(),
            latencies_ns: Vec::new(),
            attempted: 0,
            failed: 0,
            outcomes: Fnv64::new(),
            first_failure: None,
        }
    }

    /// Samples the host's speed (untimed: excluded from window and batch;
    /// its own span in a traced run).
    pub(crate) fn calibrate(&mut self, tracer: &mut Tracer) {
        let ns = tracer.call("harness.calibrate", || self.speed.sample());
        self.calibration_ns += ns;
        self.batch_calibration_ns += ns;
    }

    pub(crate) fn batch_begin(&mut self, tracer: &mut Tracer) {
        self.calibrate(tracer);
        self.batch_started = Instant::now();
        self.batch_calibration_ns = 0;
    }

    pub(crate) fn batch_end(&mut self) {
        let raw_ns = self.batch_started.elapsed().as_nanos() as u64 - self.batch_calibration_ns;
        self.batch_ms.push(raw_ns as f64 / 1e6);
    }

    pub(crate) fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    pub(crate) fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(what);
    }

    pub(crate) fn latency(&mut self, ns: u64) {
        self.latencies_ns.push(ns);
    }

    pub(crate) fn fold(&mut self, bytes: &[u8]) {
        self.outcomes.write(bytes);
    }

    pub(crate) fn fold_u64(&mut self, v: u64) {
        self.outcomes.write_u64(v);
    }

    /// Closes the window and writes every metric that all workloads
    /// share. `sim_makespan_ns` is the simulated time the window spanned,
    /// `gas` what it burned. Host-time metrics are in reference seconds.
    pub(crate) fn close(
        mut self,
        out: &mut Measured,
        tracer: &mut Tracer,
        sim_makespan_ns: u64,
        gas: u64,
    ) {
        self.calibrate(tracer);
        let wall_s = (self.started.elapsed().as_nanos() as u64 - self.calibration_ns) as f64 / 1e9;
        // The window `req_per_s` is taken over leaves out the kernel time
        // the process was charged meanwhile. Nothing here makes system
        // calls in a loop: that time is first-touch page faults, and in
        // this micro-VM their cost follows the *host's* memory state —
        // identical `market_10k` repeats are charged 0.4 s or 1.3 s for
        // the same 180 000 faults, in regimes lasting minutes, all of it
        // inside a 1 s window. (A throw-away process touching the memory
        // first, glibc's malloc tunables and disabling ASLR were tried;
        // none holds across regimes.) Batch times stay plain wall time.
        let sys_s = (kernel_time_s() - self.sys_started_s).clamp(0.0, wall_s / 2.0);
        let raw_s = wall_s - sys_s;
        let factor = self.speed.factor();
        let completed = self.attempted - self.failed;
        out.wall("_window_wall_s", wall_s * factor);
        out.wall("_window_sys_s", sys_s * factor);
        out.wall("_window_s", raw_s * factor);
        out.wall("host.speed_factor", factor);
        out.wall("req_per_s", completed as f64 / (raw_s * factor));

        // History-dependent cost: mean batch of the last quarter over the
        // first quarter (before the percentiles sort the samples).
        let quarter = (self.batch_ms.len() / 4).max(1);
        out.wall(
            "count.batch_growth_ratio",
            stats::mean(&self.batch_ms[self.batch_ms.len() - quarter..])
                / stats::mean(&self.batch_ms[..quarter]),
        );
        out.wall(
            "batch_ms_p50",
            stats::percentile(&mut self.batch_ms, 0.50) * factor,
        );
        out.wall(
            "count.batch_ms_p95",
            stats::percentile(&mut self.batch_ms, 0.95) * factor,
        );
        out.wall(
            "count.batch_ms_max",
            stats::percentile(&mut self.batch_ms, 1.0) * factor,
        );
        out.det_u64("_batches", self.batch_ms.len() as u64);

        out.det_u64("_attempted", self.attempted);
        out.det_u64("_failed", self.failed);
        out.det_f64(
            "fail_ratio",
            self.failed as f64 / self.attempted.max(1) as f64,
        );
        if let Some(what) = &self.first_failure {
            out.det
                .insert("_first_failure".into(), what.replace(['\n', '\t'], " "));
        }
        out.det_f64(
            "sim_req_per_s",
            completed as f64 / (sim_makespan_ns.max(1) as f64 / 1e9),
        );
        let mut lat_ms: Vec<f64> = self
            .latencies_ns
            .iter()
            .map(|ns| *ns as f64 / 1e6)
            .collect();
        out.det_f64(
            "sim_latency_ms_p50",
            stats::band_mean(&mut lat_ms, 450, 550),
        );
        out.det_f64(
            "sim_latency_ms_p99",
            stats::band_mean(&mut lat_ms, 985, 995),
        );
        out.det_u64("_sim_latency_samples", lat_ms.len() as u64);
        out.det_f64("gas_per_op", gas as f64 / completed.max(1) as f64);
        out.det_u64("_outcome_digest", self.outcomes.finish());
    }
}

/// Folds one driver outcome into the window: digest, failure count and —
/// where the outcome carries one — the simulated latency sample. Returns
/// the simulated latency in nanoseconds, if any.
pub(crate) fn record_outcome(
    win: &mut Window,
    ticket: Ticket,
    result: &Result<Outcome, ProcessError>,
) -> Option<u64> {
    win.fold_u64(ticket.id());
    let latency = match result {
        Ok(Outcome::Accessed(a)) => {
            win.fold(b"accessed");
            win.fold_u64(a.bytes as u64);
            win.fold_u64(a.fetch.as_nanos());
            Some(a.e2e.as_nanos())
        }
        Ok(Outcome::Indexed { entry }) => {
            win.fold(b"indexed");
            win.fold(entry.location.as_bytes());
            win.fold(entry.owner_webid.as_bytes());
            win.fold_u64(entry.policy.version);
            None
        }
        Ok(Outcome::ResourceInitiated { resource }) => {
            win.fold(b"initiated");
            win.fold(resource.as_bytes());
            None
        }
        Ok(Outcome::PolicyPropagated(p)) => {
            win.fold(b"propagated");
            win.fold_u64(p.version);
            win.fold_u64(p.devices_notified as u64);
            win.fold_u64(p.enforcement.len() as u64);
            Some(p.e2e.as_nanos())
        }
        Ok(Outcome::Monitored(m)) => {
            win.fold(b"monitored");
            win.fold_u64(m.round);
            win.fold_u64(m.expected as u64);
            win.fold_u64(m.evidence as u64);
            win.fold_u64(m.violators.len() as u64);
            win.fold_u64(m.evidence_bytes as u64);
            Some(m.duration.as_nanos())
        }
        Ok(Outcome::PodInitiated { webid }) => {
            win.fold(b"pod");
            win.fold(webid.as_bytes());
            None
        }
        Ok(Outcome::Subscribed { certificate }) => {
            win.fold(b"subscribed");
            win.fold(certificate.as_bytes());
            None
        }
        Ok(Outcome::ObligationsEnforced { .. }) => None,
        Err(e) => {
            win.fold(b"error");
            win.fail(format!("ticket {}: {e}", ticket.id()));
            None
        }
    };
    if let Some(ns) = latency {
        win.fold_u64(ns);
        win.latency(ns);
    }
    latency
}

/// What one `drain_events` call yields.
pub(crate) type Drained = Vec<(Ticket, Result<Outcome, ProcessError>)>;

/// Submits `requests` as one closed-loop phase: submit all, run to idle,
/// drain, and account every ticket. Returns the driver steps executed and
/// the drained outcomes (for workload-specific folding).
pub(crate) fn drive_phase(
    world: &mut World,
    tracer: &mut Tracer,
    win: &mut Window,
    phases: [&'static str; 2],
    requests: Vec<duc_core::Request>,
) -> (u64, Drained) {
    win.calibrate(tracer);
    let n = requests.len() as u64;
    let sim_start = world.clock.now().as_nanos();
    // Ticket id → wall mark of its submission (0 with tracing off).
    let mut pending: HashMap<u64, u64> = HashMap::with_capacity(requests.len());

    tracer.enter(phases[0]);
    for request in requests {
        let mark = tracer.mark();
        let ticket = tracer.call("core.submit", || world.submit(request));
        pending.insert(ticket.id(), mark);
    }
    tracer.exit();

    tracer.enter(phases[1]);
    let steps = tracer.call("core.run_until_idle", || world.run_until_idle());
    tracer.exit();

    tracer.enter("phase.drain_events");
    let drained = tracer.call("core.drain_events", || world.drain_events());
    win.attempt(n);
    let sim_now = world.clock.now().as_nanos();
    for (ticket, result) in &drained {
        let latency = record_outcome(win, *ticket, result);
        match pending.remove(&ticket.id()) {
            Some(mark) => {
                let sim_end = latency.map_or(sim_now, |ns| sim_start + ns);
                tracer.request(ticket.id(), mark, (sim_start, sim_end));
            }
            None => win.fail(format!(
                "ticket {} drained but never submitted",
                ticket.id()
            )),
        }
    }
    for ticket in pending.into_keys() {
        win.fail(format!("ticket {ticket} never resolved"));
    }
    if world.in_flight() != 0 {
        win.fail(format!("{} requests in flight at idle", world.in_flight()));
    }
    tracer.exit();
    (steps, drained)
}

/// Chain-side counters snapshotted before and after a window.
pub(crate) struct ChainSnapshot {
    height: u64,
    gas_total: u64,
    by_method: BTreeMap<String, (u64, u64)>,
    paging: PagingStats,
}

impl ChainSnapshot {
    pub(crate) fn take(chain: &Blockchain) -> ChainSnapshot {
        ChainSnapshot {
            height: Ledger::height(chain),
            gas_total: Ledger::gas_used_total(chain),
            by_method: Ledger::gas_by_method(chain)
                .into_iter()
                .map(|((_, method), (calls, total, _))| (method, (calls, total)))
                .collect(),
            paging: Ledger::paging_stats(chain),
        }
    }

    /// Gas burned since `self` was taken.
    pub(crate) fn gas_since(&self, chain: &Blockchain) -> u64 {
        Ledger::gas_used_total(chain) - self.gas_total
    }

    /// Writes the `count.*` chain, paging and storage metrics for the
    /// interval from `self` to now, and returns the interval's tx count.
    pub(crate) fn counts_since(&self, chain: &Blockchain, out: &mut Measured) -> u64 {
        let now = ChainSnapshot::take(chain);
        let blocks = now.height - self.height;
        let delta = |method: &str| -> (u64, u64) {
            let (c1, g1) = now.by_method.get(method).copied().unwrap_or((0, 0));
            let (c0, g0) = self.by_method.get(method).copied().unwrap_or((0, 0));
            (c1 - c0, g1 - g0)
        };
        let txs: u64 = now.by_method.keys().map(|m| delta(m).0).sum();
        out.det_u64("count.blocks", blocks);
        out.det_u64("count.txs", txs);
        out.det_f64(
            "count.txs_per_block_mean",
            txs as f64 / blocks.max(1) as f64,
        );
        for method in GAS_METHODS {
            let (calls, gas) = delta(method);
            out.det_f64(
                &format!("count.gas.{method}"),
                gas as f64 / calls.max(1) as f64,
            );
        }
        out.det_u64(
            "count.events_logged",
            Ledger::events_since(chain, self.height).len() as u64,
        );
        let (slots, bytes) = Ledger::state_size(chain);
        out.det_u64("count.state_slots", slots as u64);
        out.det_u64("count.state_bytes", bytes as u64);
        out.det_u64("count.obligations_deleted", delta("unregister_copy").0);
        out.det_u64(
            "count.paging.evictions",
            now.paging.evictions - self.paging.evictions,
        );
        out.det_u64(
            "count.paging.fault_ins",
            now.paging.fault_ins - self.paging.fault_ins,
        );
        out.det_u64(
            "count.paging.compactions",
            now.paging.compactions - self.paging.compactions,
        );
        // Without a residency limit every page is resident by definition;
        // the paging family reads 0 so that "paging is idle here" is
        // visible as zeros rather than as the size of the whole state.
        let paged = chain.storage_config().paging.is_some();
        out.det_u64(
            "count.paging.resident_bytes",
            if paged {
                now.paging.resident_bytes as u64
            } else {
                0
            },
        );
        out.det_u64(
            "count.paging.spilled_live_bytes",
            now.paging.spilled_live_bytes,
        );
        out.det_u64(
            "count.retained_blocks",
            Ledger::retained_blocks(chain) as u64,
        );
        out.det_u64("count.checkpoints", chain.checkpoints().len() as u64);
        // Evicting a clean page appends nothing; only dirty pages are
        // written to the spill log.
        out.det_u64(
            "_n.page_appends",
            now.paging
                .spilled_pages
                .saturating_sub(self.paging.spilled_pages),
        );
        txs
    }
}

/// Call counts behind the `est.*_share` estimates (see
/// `harness::estimate_shares`): how often the window exercised each unit
/// op that no `count.*` metric already counts.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EstCounts {
    pub(crate) views: u64,
    pub(crate) event_polls: u64,
    pub(crate) envelope_opens: u64,
    pub(crate) tee_stores: u64,
    pub(crate) tee_updates: u64,
    pub(crate) tee_hits: u64,
    pub(crate) tee_misses: u64,
    pub(crate) tee_reports: u64,
}

impl EstCounts {
    pub(crate) fn write(&self, out: &mut Measured, chain: &Blockchain, txs: u64) {
        out.det_u64("_n.views", self.views);
        out.det_u64("_n.event_polls", self.event_polls);
        out.det_u64("_n.envelope_opens", self.envelope_opens);
        // Access sets are derived per transaction by the parallel executor
        // only; the serial one never calls the derivation.
        let parallel = chain.exec_mode() == ExecMode::Parallel;
        out.det_u64("_n.access_derives", if parallel { txs } else { 0 });
        out.det_u64("_n.tee_stores", self.tee_stores);
        out.det_u64("_n.tee_updates", self.tee_updates);
        out.det_u64("_n.tee_hits", self.tee_hits);
        out.det_u64("_n.tee_misses", self.tee_misses);
        out.det_u64("_n.tee_reports", self.tee_reports);
    }
}

/// The integrity checks every window ends with, outside the timed region.
pub(crate) fn verify_chain(chain: &Blockchain) -> Result<(), CheckFailed> {
    Ledger::validate_chains(chain).map_err(|e| CheckFailed(format!("validate_chain: {e:?}")))?;
    Ledger::verify_checkpoints(chain)
        .map_err(|e| CheckFailed(format!("verify_checkpoints: {e}")))?;
    Ledger::verify_pages(chain).map_err(|e| CheckFailed(format!("verify_pages: {e}")))?;
    Ok(())
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where `/proc`
/// is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Kernel (system) CPU time charged to this process so far, in seconds:
/// field 15 of `/proc/self/stat`, in `USER_HZ` = 100 ticks. `0.0` where
/// `/proc` is unavailable (the window is then plain wall time).
fn kernel_time_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // The command name (field 2) may contain spaces: count from
            // the closing parenthesis, after which field 3 comes first.
            let rest = &stat[stat.rfind(')')? + 1..];
            rest.split_whitespace().nth(12)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// TEE decision-cache `(hits, misses)` summed over the fleet.
pub(crate) fn decision_cache(world: &World) -> (u64, u64) {
    world.devices.values().fold((0, 0), |(h, m), dev| {
        let (dh, dm) = dev.tee.decision_cache_stats();
        (h + dh, m + dm)
    })
}
