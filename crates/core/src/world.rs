//! The simulated deployment: all components of Fig. 1, wired together.

use std::rc::Rc;

use duc_blockchain::{Address, Blockchain, ContractId, ExecMode, StorageConfig};
use duc_contracts::calls::Init;
use duc_contracts::{topics, DistExchange, DistExchangeClient, PolicyEnvelope, DEX_CONTRACT_ID};
use duc_crypto::{Digest, KeyPair};
use duc_intern::{FxHashMap, Registry, SharedInterner, Sym};
use duc_oracle::{PullInOracle, PullOutOracle, PushInOracle, PushOutOracle};
use duc_policy::{PolicyVersion, UsagePolicy};
use duc_sim::{
    Clock, EndpointId, EventId, FaultPlan, LinkConfig, MetricsRegistry, NetworkModel, Rng,
    Scheduler, SimDuration, TraceRecorder,
};
use duc_solid::PodManager;
use duc_tee::{AttestationAuthority, Enclave, TrustedApplication};

/// How TEE obligations (retention/expiry deletion, notification) are
/// driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnforcementMode {
    /// Deadline-driven (the default): the driver's obligation scheduler
    /// registers a wakeup at each copy's exact `next_transition` /
    /// deadline instant, so enforcement fires the moment a decision can
    /// flip — no polling.
    Deadline,
    /// Round-based baseline (experiment E14): obligations are only
    /// checked on a fixed-period grid, so a violation waits for the next
    /// sweep — the behaviour the paper's round-based monitoring implies.
    Periodic(SimDuration),
}

/// Market subscription fee (native tokens) every world's DE App charges.
pub const MARKET_FEE: u128 = 10_000;

/// The code identity of the canonical trusted application every device
/// runs: its measurement is the one the attestation authority trusts and
/// the DE App deployment accepts copies of.
const TRUSTED_APP: &[u8] = b"duc/trusted-app-v1";

/// Genesis balance of every owner and device account.
pub(crate) const INITIAL_BALANCE: u128 = 10_000_000_000;

/// Configuration for one simulated deployment.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// RNG seed (the whole run is a function of this and the workload).
    pub seed: u64,
    /// PoA validator count.
    pub validators: usize,
    /// Block interval.
    pub block_interval: SimDuration,
    /// Default network link profile.
    pub link: LinkConfig,
    /// Certificate validity window.
    pub cert_validity: SimDuration,
    /// Store usage policies on-chain encrypted (privacy experiment E9).
    pub encrypt_policies: bool,
    /// Record a structured trace of every process hop.
    pub trace: bool,
    /// Obligation-enforcement mode (see [`EnforcementMode`]).
    pub enforcement: EnforcementMode,
    /// Block/state storage policy: checkpoint interval, retained block
    /// window and optional archive path (disabled by default — every
    /// block stays resident, the pre-storage behaviour).
    pub storage: StorageConfig,
    /// Block-execution mode: serial (the default) or the deterministic
    /// parallel executor; both produce byte-identical chains.
    pub exec_mode: ExecMode,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 42,
            validators: 4,
            block_interval: SimDuration::from_secs(2),
            link: LinkConfig::default(),
            cert_validity: SimDuration::from_days(30),
            encrypt_policies: false,
            trace: false,
            enforcement: EnforcementMode::Deadline,
            storage: StorageConfig::disabled(),
            exec_mode: ExecMode::Serial,
        }
    }
}

/// The fault-plan state a world has currently pushed into its components
/// (network model + chain). Diffed against the plan at every transition
/// boundary; manual fault toggles outside the plan are never clobbered.
#[derive(Debug, Clone, Default)]
struct AppliedFaults {
    crashed: std::collections::BTreeSet<EndpointId>,
    partitioned: std::collections::BTreeSet<(EndpointId, EndpointId)>,
    lossy: std::collections::BTreeMap<(EndpointId, EndpointId), u16>,
    stalled: std::collections::BTreeSet<usize>,
}

/// A data owner: a chain identity plus a pod manager.
pub struct Owner {
    /// Chain signing key.
    pub key: KeyPair,
    /// The pod manager fronting the owner's pod.
    pub pod_manager: PodManager,
    /// The pod manager's network endpoint.
    pub endpoint: EndpointId,
    /// Whether the pod has been registered on-chain (process 1 done).
    pub pod_registered: bool,
}

/// What a device learned about a resource from the DE App (paper process 3
/// stores these "in the TEE").
#[derive(Debug, Clone)]
pub struct IndexEntry {
    /// Physical location of the resource.
    pub location: String,
    /// WebID of the data owner.
    pub owner_webid: String,
    /// The usage policy at indexing time: the version the world's policy
    /// table ([`World::shared_policy`]) decoded from the pull-out view's
    /// envelope. Shared, not copied: every device indexing that version
    /// holds this same `Rc`, process 4 hands it to the TEE, and cloning an
    /// entry clones no policy.
    pub policy: Rc<PolicyVersion>,
}

/// A consumer device: a chain identity plus a TEE.
pub struct Device {
    /// WebID of the consumer operating the device.
    pub webid: String,
    /// Chain signing key (pays for copy registration and evidence).
    pub key: KeyPair,
    /// The trusted application in this device's enclave.
    pub tee: TrustedApplication,
    /// The device's network endpoint.
    pub endpoint: EndpointId,
    /// Market certificate, once subscribed.
    pub certificate: Option<duc_crypto::Digest>,
    /// Indexed resources, keyed by the IRI's symbol in [`World::ids`] and
    /// sorted by it; read through [`Device::index_entry`], written through
    /// [`Device::index`]. Not a `Registry`: resource IRIs sit high in the
    /// world's symbol space, and a device's index must cost what the device
    /// holds, not four bytes per symbol in the world. Not a tree either: a
    /// device indexes a handful of resources, and a tree's first node has
    /// room for eleven. Only ever probed, never iterated.
    indexed: Vec<(Sym, IndexEntry)>,
}

impl Device {
    /// The index entry for the resource whose IRI interned as `resource`.
    pub(crate) fn index_entry(&self, resource: Sym) -> Option<&IndexEntry> {
        let i = self.indexed.binary_search_by_key(&resource, |(s, _)| *s);
        i.ok().map(|i| &self.indexed[i].1)
    }

    /// Stores (or replaces) the index entry for `resource`.
    pub fn index(&mut self, resource: Sym, entry: IndexEntry) {
        match self.indexed.binary_search_by_key(&resource, |(s, _)| *s) {
            Ok(i) => self.indexed[i].1 = entry,
            Err(i) => self.indexed.insert(i, (resource, entry)),
        }
    }
}

/// One simulated deployment of the whole architecture, over the one
/// [`Blockchain`] hosting the DE App.
pub struct World {
    /// Deployment configuration.
    pub config: WorldConfig,
    /// Logical clock shared by every component.
    pub clock: Clock,
    /// The network model.
    pub net: NetworkModel,
    /// Seeded randomness.
    pub rng: Rng,
    /// The chain hosting the DE App.
    pub chain: Blockchain,
    /// Typed DE App client.
    pub dex: DistExchangeClient,
    /// Push-in oracle (off-chain → chain transactions).
    pub push_in: PushInOracle,
    /// Push-out oracle (chain events → devices/pod managers).
    pub push_out: PushOutOracle,
    /// Pull-out oracle (off-chain reads of chain state).
    pub pull_out: PullOutOracle,
    /// Pull-in oracle (chain-initiated data requests).
    pub pull_in: PullInOracle,
    /// The attestation authority trusted by the DE App deployment.
    pub attestation: AttestationAuthority,
    /// The world's shared identity table: WebIDs, device names, pod URLs
    /// and resource IRIs all intern into one symbol space, so the hot-path
    /// maps below key on `u32` symbols instead of re-hashing strings.
    pub ids: SharedInterner,
    /// Data owners by WebID (flat, interned; deterministic iteration).
    pub owners: Registry<Owner>,
    /// Consumer devices by device name (flat, interned).
    pub devices: Registry<Device>,
    /// Which device sits behind a network endpoint, maintained by
    /// [`World::add_device`]: push-out deliveries address endpoints.
    pub(crate) device_endpoints: FxHashMap<EndpointId, Sym>,
    /// Collected measurements.
    pub metrics: MetricsRegistry,
    /// Structured event trace (enabled by [`WorldConfig::trace`]).
    pub trace: TraceRecorder,
    /// The chain gateway endpoint (where view calls land).
    pub gateway: EndpointId,
    /// The discrete-event scheduler driving in-flight request machines
    /// (shares this world's clock).
    pub sched: Scheduler,
    /// Non-blocking request driver bookkeeping (see [`crate::driver`]).
    pub(crate) driver: crate::driver::DriverState,
    /// The declarative fault plan driving chaos runs (see
    /// [`World::set_fault_plan`]).
    fault_plan: FaultPlan,
    /// The no-op scheduler events marking the installed plan's boundaries;
    /// cancelled when the plan is replaced.
    fault_markers: Vec<EventId>,
    /// Fault-plan state currently applied to the components, so boundary
    /// transitions toggle exactly what the plan controls and nothing else.
    applied_faults: AppliedFaults,
    /// Devices whose hosts suppress enclave timers (fault injection).
    rogue_hosts: std::collections::HashSet<String>,
    /// Key material for encrypted policy envelopes (E9). In a production
    /// deployment this would come from a key-distribution service; the
    /// simulation provisions it to owners and TEEs out of band.
    pub policy_key: ([u8; 32], [u8; 12]),
    /// Every policy version an envelope was opened for, keyed by the
    /// envelope's [`PolicyEnvelope::digest`]; read and filled only by
    /// [`World::shared_policy`].
    policies: FxHashMap<Digest, Rc<PolicyVersion>>,
}

impl World {
    /// Builds a deployment: chain + DE App + oracles, no participants yet.
    pub fn new(config: WorldConfig) -> World {
        let mut chain = Blockchain::builder()
            .validators(config.validators)
            .block_interval(config.block_interval)
            .storage(config.storage.clone())
            .exec_mode(config.exec_mode)
            .build();
        // The attestation authority trusts the canonical trusted
        // application, and the DE App accepts copies that authority quoted.
        let mut attestation = AttestationAuthority::new(b"duc/attestation-root");
        let measurement = Enclave::measurement_of(TRUSTED_APP);
        attestation.trust_measurement(measurement);
        let dex_app = DistExchange::new(attestation.public_key(), measurement);
        chain.deploy(ContractId::new(DEX_CONTRACT_ID), Box::new(dex_app));
        chain.set_access_fn(duc_contracts::dex_access_fn());
        let dex = DistExchangeClient::new();

        // Market initialization by a deployment admin.
        let admin = chain.create_funded_account(b"duc/market-admin", 1_000_000_000);
        let init = Init {
            fee: MARKET_FEE,
            validity_nanos: config.cert_validity.as_nanos(),
            treasury: Address::from_seed(b"duc/market-treasury"),
        };
        let init = dex.call_tx(&chain, &admin, init);
        chain.submit(init).expect("genesis init is valid");
        chain.advance_to(duc_sim::SimTime::ZERO + config.block_interval);

        let mut net = NetworkModel::new(config.link.clone());
        let relay = net.add_endpoint("oracle-relay");
        let gateway = net.add_endpoint("chain-gateway");

        let clock = Clock::new();
        clock.advance(config.block_interval); // genesis block has passed
        let trace = if config.trace {
            TraceRecorder::new()
        } else {
            TraceRecorder::disabled()
        };
        let ids = SharedInterner::new();
        World {
            rng: Rng::seed_from_u64(config.seed),
            sched: Scheduler::new(clock.clone()),
            driver: crate::driver::DriverState::new(),
            fault_plan: FaultPlan::none(),
            fault_markers: Vec::new(),
            applied_faults: AppliedFaults::default(),
            push_in: PushInOracle::new(relay),
            push_out: PushOutOracle::new(relay),
            pull_out: PullOutOracle::new(relay),
            pull_in: PullInOracle::new(relay, topics::MONITORING_REQUESTED),
            attestation,
            owners: Registry::new(ids.clone()),
            devices: Registry::new(ids.clone()),
            device_endpoints: FxHashMap::default(),
            ids,
            metrics: MetricsRegistry::new(),
            trace,
            gateway,
            rogue_hosts: std::collections::HashSet::new(),
            policy_key: ([0x42; 32], [0x17; 12]),
            policies: FxHashMap::default(),
            config,
            clock,
            net,
            chain,
            dex,
        }
    }

    /// Registers a data owner with a pod rooted at `pod_root`.
    /// (Participant setup; the on-chain half happens in process 1.)
    pub fn add_owner(&mut self, webid: impl Into<String>, pod_root: impl Into<String>) {
        let webid = webid.into();
        let pod_root = pod_root.into();
        let key = self
            .chain
            .create_funded_account(webid.as_bytes(), INITIAL_BALANCE);
        let endpoint = self.net.add_endpoint(format!("pod-manager:{webid}"));
        let owner = Owner {
            key,
            pod_manager: PodManager::new(pod_root, webid.clone()),
            endpoint,
            pod_registered: false,
        };
        self.owners.insert(&webid, owner);
    }

    /// Registers a consumer device operated by `webid`, running the
    /// canonical trusted application (whitelisted with the attestation
    /// authority).
    pub fn add_device(&mut self, device: impl Into<String>, webid: impl Into<String>) {
        let device = device.into();
        let webid = webid.into();
        let enclave = Enclave::new(device.clone(), TRUSTED_APP);
        let key = self
            .chain
            .create_funded_account(device.as_bytes(), INITIAL_BALANCE);
        let endpoint = self.net.add_endpoint(format!("device:{device}"));
        self.device_endpoints
            .insert(endpoint, self.ids.intern(&device));
        self.devices.insert(
            &device,
            Device {
                tee: TrustedApplication::new(enclave, webid.clone()),
                webid,
                key,
                endpoint,
                certificate: None,
                indexed: Vec::new(),
            },
        );
    }

    /// Wraps a policy for on-chain storage per the deployment's privacy
    /// configuration.
    pub fn envelope(&self, policy: &UsagePolicy) -> PolicyEnvelope {
        if self.config.encrypt_policies {
            PolicyEnvelope::sealed(policy, self.policy_key.0, self.policy_key.1)
        } else {
            PolicyEnvelope::plain(policy)
        }
    }

    /// The policy version an on-chain envelope carries, shared by every
    /// holder of it — the one place an envelope is opened. The table is
    /// content-addressed like the DE App's `pol/{digest}` rows: the first
    /// caller decodes the envelope (with [`World::policy_key`] when it is
    /// sealed), every later one gets a clone of the same `Rc`. Entries are
    /// never evicted; there are no more of them than policy versions the
    /// chain stores.
    ///
    /// # Errors
    /// The envelope's decode error (wrong key, corrupt bytes); nothing is
    /// cached then.
    pub fn shared_policy(
        &mut self,
        env: &PolicyEnvelope,
    ) -> Result<Rc<PolicyVersion>, duc_codec::DecodeError> {
        let digest = env.digest();
        if let Some(version) = self.policies.get(&digest) {
            return Ok(Rc::clone(version));
        }
        let version: Rc<PolicyVersion> = env.open(env.encrypted.then_some(self.policy_key))?.into();
        self.policies.insert(digest, Rc::clone(&version));
        Ok(version)
    }

    /// Produces blocks due at the current clock and returns the height.
    ///
    /// When the chain prunes behind a checkpoint, idle oracle cursors are
    /// fast-forwarded to the new horizon (the relay observing the
    /// checkpoint announcement): every event below it is evicted, so the
    /// lift is exactly the resync the next poll would be forced into, and
    /// cursors stay within `[prune_horizon, height]` at every quiescent
    /// point (a chaos invariant).
    pub fn sync_chain(&mut self) -> u64 {
        self.chain.advance_to(self.clock.now());
        let horizon = self.chain.prune_horizon();
        if horizon > 0 {
            self.push_out.resync(horizon);
            self.pull_in.resync(horizon);
        }
        self.chain.height()
    }

    /// Installs a declarative [`FaultPlan`] for this run.
    ///
    /// Crashes, partitions, drop windows and validator stalls flip at
    /// exactly their declared boundaries while the event loop runs: the
    /// plan's transition instants are scheduled as events, so every hop of
    /// every in-flight process observes the fault state of its own instant.
    /// The driver's machines additionally *suspend* hops blocked by a
    /// declared crash/partition window and resume at recovery (see
    /// [`crate::driver`]).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        // The replaced plan's markers go with it: left queued they would
        // be wake instants of a plan that no longer exists.
        for marker in self.fault_markers.drain(..) {
            self.sched.cancel(marker);
        }
        let now = self.clock.now();
        for boundary in plan.boundaries() {
            if boundary > now {
                // A no-op event: it makes the event loop pause at the
                // boundary, where `apply_faults` flips component state.
                let marker = self.sched.schedule_at(boundary, |_| {});
                self.fault_markers.push(marker);
            }
        }
        self.fault_plan = plan;
        self.apply_faults();
    }

    /// The installed fault plan (empty by default).
    pub(crate) fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    /// Synchronizes component fault state (network down/partition/loss,
    /// chain validator stalls) with the plan at the current instant. Only
    /// differences against the previously applied state are toggled, so
    /// manual fault injection outside the plan is preserved.
    pub(crate) fn apply_faults(&mut self) {
        let applied_empty = self.applied_faults.crashed.is_empty()
            && self.applied_faults.partitioned.is_empty()
            && self.applied_faults.lossy.is_empty()
            && self.applied_faults.stalled.is_empty();
        if self.fault_plan.is_empty() && applied_empty {
            return;
        }
        let now = self.clock.now();
        let mut applied = std::mem::take(&mut self.applied_faults);

        let crashed = self.fault_plan.crashed_at(now);
        for ep in applied.crashed.difference(&crashed) {
            self.net.set_down(*ep, false);
        }
        for ep in crashed.difference(&applied.crashed) {
            self.net.set_down(*ep, true);
        }
        applied.crashed = crashed;

        let partitioned = self.fault_plan.partitions_at(now);
        for (a, b) in applied.partitioned.difference(&partitioned) {
            self.net.heal(*a, *b);
        }
        for (a, b) in partitioned.difference(&applied.partitioned) {
            self.net.partition(*a, *b);
        }
        applied.partitioned = partitioned;

        let lossy = self.fault_plan.lossy_at(now);
        for (pair, _) in applied
            .lossy
            .iter()
            .filter(|(p, _)| !lossy.contains_key(*p))
        {
            self.net.clear_extra_drop(pair.0, pair.1);
        }
        for (pair, per_mille) in &lossy {
            if applied.lossy.get(pair) != Some(per_mille) {
                self.net
                    .set_extra_drop(pair.0, pair.1, f64::from(*per_mille) / 1000.0);
            }
        }
        applied.lossy = lossy;

        let stalled = self.fault_plan.stalled_at(now);
        for idx in applied.stalled.difference(&stalled) {
            self.chain.set_validator_down(*idx, false);
        }
        for idx in stalled.difference(&applied.stalled) {
            self.chain.set_validator_down(*idx, true);
        }
        applied.stalled = stalled;

        self.applied_faults = applied;
    }

    /// Marks a device's host as rogue: its enclave timer interrupts are
    /// suppressed, so its obligation wakeups fire into the void (the
    /// monitoring experiments use this to create detectable violators; the
    /// enclave still cannot *forge* evidence).
    ///
    /// Healing (`rogue: false`) re-arms the wakeup of every live copy the
    /// device holds: one that fell due while the host was rogue is
    /// enforced at the next instant ([`EnforcementMode::Deadline`]) or the
    /// next grid point ([`EnforcementMode::Periodic`]), with its lag and
    /// on-chain evidence recorded like any other enforcement.
    pub fn set_rogue_host(&mut self, device: impl Into<String>, rogue: bool) {
        let device = device.into();
        if rogue {
            self.rogue_hosts.insert(device);
        } else if self.rogue_hosts.remove(&device) {
            let now = self.clock.now();
            let held: Vec<String> = self.try_device(&device).map_or(Vec::new(), |dev| {
                dev.tee.resources().map(str::to_string).collect()
            });
            for resource in held {
                self.schedule_obligation(&device, &resource, Some(now));
            }
        }
    }

    /// Whether a device's host currently suppresses its enclave timers.
    pub(crate) fn is_rogue_host(&self, device: &str) -> bool {
        self.rogue_hosts.contains(device)
    }

    /// Everything this world can report, as one registry: a copy of
    /// [`World::metrics`] plus the totals owned by other components — the
    /// network model's `net.*` counters, per-contract/method gas from the
    /// ledger, the TEE decision caches and world-state paging.
    ///
    /// Those are written into the copy, never into `self.metrics`: the
    /// replay fingerprint walks `self.metrics`, and eviction order under
    /// the parallel executor is nondeterministic, so the paging numbers
    /// must stay out of replay state.
    pub fn metrics_snapshot(&self) -> MetricsRegistry {
        let mut snapshot = self.metrics.clone();
        self.net.publish_metrics(&mut snapshot);
        for ((contract, method), (calls, total, _max)) in self.chain.gas_by_method() {
            let labels = [("contract", contract.as_str()), ("method", method.as_str())];
            snapshot.set("gas.calls", &labels, calls);
            snapshot.set("gas.used", &labels, total);
        }
        let (mut hits, mut misses) = (0u64, 0u64);
        for (_, device) in self.devices.iter() {
            let (h, m) = device.tee.decision_cache_stats();
            hits += h;
            misses += m;
        }
        snapshot.set("tee.decision_cache", &[("result", "hit")], hits);
        snapshot.set("tee.decision_cache", &[("result", "miss")], misses);
        let (delivered, dropped) = self.push_out.stats();
        snapshot.set("oracle.push_out", &[("result", "delivered")], delivered);
        snapshot.set("oracle.push_out", &[("result", "dropped")], dropped);
        snapshot.set("oracle.push_out.resyncs", &[], self.push_out.resyncs());
        // Gauges for what is resident *now*, counters for the traffic.
        let paging = self.chain.paging_stats();
        snapshot.set_gauge("state.resident_pages", paging.resident_pages as f64);
        snapshot.set_gauge("state.total_pages", paging.total_pages as f64);
        snapshot.set_gauge("state.resident_bytes", paging.resident_bytes as f64);
        snapshot.set_gauge("state.spilled_live_bytes", paging.spilled_live_bytes as f64);
        snapshot.set_gauge(
            "oracle.push_out.subscriptions",
            self.push_out.subscriptions() as f64,
        );
        snapshot.set_gauge("driver.inbox.events", self.driver.inbox.len() as f64);
        snapshot.set_gauge("driver.inclusion.waiting", self.awaiting_inclusion() as f64);
        snapshot.set_gauge("chain.mempool.depth", self.chain.pending_count() as f64);
        snapshot.set("state.evictions", &[], paging.evictions);
        snapshot.set("state.fault_ins", &[], paging.fault_ins);
        snapshot.set("state.page_compactions", &[], paging.compactions);
        snapshot
    }

    /// Immutable owner lookup; `None` when the WebID is unknown. Internal
    /// callers that can legitimately see unknown ids (the driver validates
    /// requests against arbitrary input) use this instead of panicking.
    pub(crate) fn try_owner(&self, webid: &str) -> Option<&Owner> {
        self.owners.get(webid)
    }

    /// Immutable device lookup; `None` when the device name is unknown.
    pub(crate) fn try_device(&self, device: &str) -> Option<&Device> {
        self.devices.get(device)
    }

    /// Immutable owner lookup.
    ///
    /// # Panics
    /// Panics when the owner is unknown — worlds are built by the test or
    /// bench harness, so a missing participant is a harness bug.
    pub fn owner(&self, webid: &str) -> &Owner {
        self.try_owner(webid).expect("unknown owner webid")
    }

    /// Immutable device lookup.
    ///
    /// # Panics
    /// Panics when the device is unknown (harness bug).
    pub fn device(&self, device: &str) -> &Device {
        self.try_device(device).expect("unknown device")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duc_contracts::calls::ListResources;

    #[test]
    fn world_boots_with_initialized_market() {
        let world = World::new(WorldConfig::default());
        assert!(world.chain.has_contract(&ContractId::new(DEX_CONTRACT_ID)));
        assert_eq!(world.chain.height(), 1, "genesis init block");
        let resources = world.dex.view(&world.chain, ListResources {});
        assert!(resources.unwrap().is_empty());
    }

    #[test]
    fn participants_get_funded_accounts_and_endpoints() {
        let mut world = World::new(WorldConfig::default());
        world.add_owner("https://alice.id/me", "https://alice.pod/");
        world.add_device("alice-laptop", "https://alice.id/me");
        let owner = world.owner("https://alice.id/me");
        assert!(
            world
                .chain
                .balance(&Address::from_public_key(&owner.key.public()))
                > 0
        );
        assert_eq!(
            world.net.endpoint_name(owner.endpoint),
            "pod-manager:https://alice.id/me"
        );
        let device = world.device("alice-laptop");
        assert_eq!(device.webid, "https://alice.id/me");
        assert!(device.certificate.is_none());
    }

    #[test]
    fn envelope_respects_privacy_configuration() {
        let mut plain_world = World::new(WorldConfig::default());
        let mut sealed_world = World::new(WorldConfig {
            encrypt_policies: true,
            ..WorldConfig::default()
        });
        let policy = UsagePolicy::default_for("urn:r", "urn:o");
        assert!(!plain_world.envelope(&policy).encrypted);
        let env = sealed_world.envelope(&policy);
        assert!(env.encrypted);
        assert_eq!(**sealed_world.shared_policy(&env).unwrap(), policy);
        let env = plain_world.envelope(&policy);
        assert_eq!(**plain_world.shared_policy(&env).unwrap(), policy);
        // An envelope that does not decode is not cached.
        let corrupt = PolicyEnvelope {
            encrypted: false,
            bytes: env.bytes[1..].to_vec(),
        };
        assert!(plain_world.shared_policy(&corrupt).is_err());
        assert_eq!(plain_world.policies.len(), 1);
    }

    #[test]
    fn replacing_a_fault_plan_cancels_its_boundary_markers() {
        let mut world = World::new(WorldConfig::default());
        let before = world.sched.pending();
        let now = world.clock.now();
        let (from, until) = (
            now + SimDuration::from_secs(5),
            now + SimDuration::from_secs(9),
        );
        world.set_fault_plan(FaultPlan::none().crash(world.gateway, from, until));
        assert_eq!(world.sched.pending(), before + 2, "one marker per boundary");
        world.set_fault_plan(FaultPlan::none());
        assert_eq!(world.sched.pending(), before);
        assert_eq!(world.sched.next_event_at(), None);
    }

    #[test]
    fn advance_moves_clock_and_chain_together() {
        let mut world = World::new(WorldConfig::default());
        let t0 = world.clock.now();
        world.advance(SimDuration::from_secs(10));
        assert_eq!(world.clock.now(), t0 + SimDuration::from_secs(10));
        assert_eq!(world.chain.current_time(), world.clock.now());
    }
}
