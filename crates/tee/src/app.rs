//! The trusted application: policy-mediated access to sealed copies.

use std::rc::Rc;

use duc_crypto::{hash_parts, Digest};
use duc_intern::key_head;
use duc_policy::{
    Action, Decision, DenyReason, PolicyProgram, PolicyVersion, Purpose, UsageContext,
};
use duc_sim::SimTime;

use crate::enclave::Enclave;
use crate::storage::Sealed;

/// An internal trusted-application invariant failure: the caller's record
/// of copies and the copy table disagree. These are *permanent* faults (a
/// damaged enclave state cannot heal by retrying), so the driver's
/// `is_transient()` classification reports them as not-retryable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TeeError {
    /// A copy listed in the table has no entry when re-read.
    CopyStateMissing {
        /// The affected resource.
        resource: String,
    },
}

impl std::fmt::Display for TeeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let TeeError::CopyStateMissing { resource } = self;
        write!(f, "copy state missing for {resource}")
    }
}

impl std::error::Error for TeeError {}

/// Why a local access failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessError {
    /// No copy of the resource is held (never stored, or already deleted).
    NoCopy,
    /// The policy program denied the use.
    Denied(Vec<DenyReason>),
}

impl std::fmt::Display for AccessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccessError::NoCopy => f.write_str("no local copy"),
            AccessError::Denied(reasons) => {
                write!(f, "denied:")?;
                for r in reasons {
                    write!(f, " {r};")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for AccessError {}

/// An obligation the trusted application executed autonomously.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnforcementAction {
    /// The copy was deleted (retention/expiry obligation).
    Deleted {
        /// Which resource.
        resource: String,
        /// When.
        at: SimTime,
        /// Why (human-readable, e.g. "retention expired").
        reason: String,
    },
    /// The owner must be notified (the oracle layer delivers it).
    NotifyOwner {
        /// Which resource.
        resource: String,
        /// Deadline for the notification.
        by: SimTime,
    },
}

/// A self-audit produced for monitoring (paper process 6). The oracle layer
/// wraps this in an on-chain evidence submission signed by the enclave.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageReport {
    /// The audited resource.
    pub resource: String,
    /// The reporting device.
    pub device: String,
    /// Policy version the device currently enforces.
    pub policy_version: u64,
    /// The device's compliance verdict.
    pub compliant: bool,
    /// Violation descriptions (empty when compliant).
    pub violations: Vec<String>,
    /// Digest over the full usage log (tamper-evident evidence).
    pub log_digest: Digest,
    /// Total accesses performed.
    pub accesses: u64,
    /// Whether the copy still exists.
    pub copy_alive: bool,
}

/// A memoized decision for one `(action, purpose[, access_count])`
/// request shape, valid until the program's next transition instant.
#[derive(Debug, Clone)]
struct CachedDecision {
    action: Action,
    purpose: Purpose,
    /// The access count the decision was computed for — compared only
    /// when the program is count-sensitive.
    access_count: u64,
    decision: Decision,
    /// First instant at which the decision can differ (`None` = never).
    valid_until: Option<SimTime>,
}

/// What this device last recorded on-chain for a resource (monitoring
/// evidence), so an unchanged copy can *reaffirm* instead of resubmitting
/// the full evidence in later rounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportedEvidence {
    /// The round the evidence answered.
    pub round: u64,
    /// The usage-log digest it carried.
    pub digest: Digest,
    /// The verdict it carried.
    pub compliant: bool,
}

/// One permitted access in a copy's usage log. The acting agent is
/// always the holder, so it is not stored per access.
#[derive(Debug, Clone)]
struct AccessRecord {
    at: SimTime,
    action: Action,
    purpose: Purpose,
}

/// Where a copy is in its life. Only a live copy has bytes, and it always
/// has them.
#[derive(Debug, Clone)]
enum Lifecycle {
    /// Held, its bytes sealed at rest.
    Live { sealed: Sealed },
    /// Deleted at `at`; the audit state stays for monitoring.
    Deleted { at: SimTime },
}

/// Everything the trusted application keeps about one copy: its sealed
/// bytes while it lives, the auditable state the monitoring process (paper
/// process 6) replays, and the policy versions it is replayed against.
#[derive(Debug, Clone)]
struct CopyEntry {
    /// [`key_head`] of `resource`: the table is searched on heads, and a
    /// name is read only where two heads tie.
    head: u128,
    /// The copy's resource IRI; the table is sorted by it.
    resource: String,
    /// The decision served to repeated identical requests until the
    /// program's next transition (or an access-count change when the
    /// program is count-sensitive). Boxed, like `last_reported`: a copy
    /// that is stored and never accessed carries a pointer, not the 80 B.
    cached: Option<Box<CachedDecision>>,
    /// When the copy was stored.
    acquired_at: SimTime,
    /// Live with its sealed bytes, or deleted.
    life: Lifecycle,
    /// Every access performed through the trusted application; its length
    /// is the access count.
    log: Vec<AccessRecord>,
    /// Every policy version ever enforced, with its local application
    /// time. Never empty: the last version is the one in force and its
    /// program serves the access hot path; the audit replays each access
    /// against the version in force *at access time* (a policy narrowed
    /// later does not retroactively incriminate past, then-legal uses).
    /// Each version is the `Rc` every other holder of it shares, program
    /// included.
    history: Vec<(SimTime, Rc<PolicyVersion>)>,
    /// The evidence last recorded on-chain for this copy, if any; only a
    /// monitored copy has it.
    last_reported: Option<Box<ReportedEvidence>>,
}

impl CopyEntry {
    /// When the copy was deleted, if it was.
    fn deleted_at(&self) -> Option<SimTime> {
        match self.life {
            Lifecycle::Live { .. } => None,
            Lifecycle::Deleted { at } => Some(at),
        }
    }

    /// The sealed bytes of a live copy.
    fn sealed(&self) -> Option<&Sealed> {
        match &self.life {
            Lifecycle::Live { sealed } => Some(sealed),
            Lifecycle::Deleted { .. } => None,
        }
    }

    /// The policy version in force.
    fn policy(&self) -> &Rc<PolicyVersion> {
        &self.history.last().expect("a copy has a policy").1
    }

    /// The compiled form of the current policy.
    fn program(&self) -> &PolicyProgram {
        self.policy().program()
    }

    /// When the currently-enforced policy version was applied locally
    /// (no deadline of it can precede this instant).
    fn policy_applied_at(&self) -> SimTime {
        self.history.last().expect("a copy has a policy").0
    }

    /// When the copy must be gone under the version in force: its
    /// retention and its expiry due instants.
    fn due(&self) -> (Option<SimTime>, Option<SimTime>) {
        let (program, applied_at) = (self.program(), self.policy_applied_at());
        (
            program.retention_due(self.acquired_at, applied_at),
            program.expiry_due(applied_at),
        )
    }

    fn program_in_force_at(&self, at: SimTime) -> &PolicyProgram {
        self.history
            .iter()
            .rev()
            .find(|(applied, _)| *applied <= at)
            .map_or(self.program(), |(_, p)| p.program())
    }
}

/// The trusted application running inside an enclave.
#[derive(Debug, Clone)]
pub struct TrustedApplication {
    enclave: Enclave,
    holder_webid: String,
    /// One row per copy, live or audited-deleted, sorted by resource and
    /// searched by binary search: a device holds one to a few copies. It
    /// grows by an eighth of its length, at least one row, so a few rows
    /// are exact and a large table keeps amortised inserts.
    copies: Vec<CopyEntry>,
    /// Seals done so far; never decreases, deletions included.
    seals: u64,
    /// Accesses served from the per-copy decision cache.
    cache_hits: u64,
    /// Accesses that re-evaluated the decision.
    cache_misses: u64,
}

impl TrustedApplication {
    /// Creates a trusted application for `holder_webid` on `enclave`.
    pub fn new(enclave: Enclave, holder_webid: impl Into<String>) -> TrustedApplication {
        TrustedApplication {
            enclave,
            holder_webid: holder_webid.into(),
            copies: Vec::new(),
            seals: 0,
            cache_hits: 0,
            cache_misses: 0,
        }
    }

    /// Decisions served from the per-copy cache vs re-evaluated
    /// (observability for the deadline-enforcement experiments).
    pub fn decision_cache_stats(&self) -> (u64, u64) {
        (self.cache_hits, self.cache_misses)
    }

    /// The enclave identity.
    pub fn enclave(&self) -> &Enclave {
        &self.enclave
    }

    /// The holder's WebID.
    pub fn holder(&self) -> &str {
        &self.holder_webid
    }

    /// What the *host* operating system can observe of a live copy: its
    /// raw ciphertext.
    pub fn host_view(&self, resource: &str) -> Option<&[u8]> {
        self.entry(resource)?.sealed().map(Sealed::ciphertext)
    }

    /// Total sealed bytes of the live copies (ciphertext; nonces are not
    /// counted).
    pub fn sealed_bytes(&self) -> usize {
        self.copies
            .iter()
            .filter_map(CopyEntry::sealed)
            .map(|sealed| sealed.ciphertext().len())
            .sum()
    }

    /// Stores a freshly retrieved resource copy under its policy
    /// (the tail of paper process 4).
    ///
    /// The policy is an owned [`UsagePolicy`](duc_policy::UsagePolicy) or
    /// a shared [`PolicyVersion`]: a device passes the `Rc` its index entry
    /// holds (process 3 stores the entry "in the TEE"), so the copy, the
    /// entry and every other holder of the version share one decoded policy
    /// and one compiled program.
    ///
    /// Re-storing a resource replaces its row, usage log included.
    pub fn store_resource(
        &mut self,
        resource: impl Into<String>,
        bytes: &[u8],
        policy: impl Into<Rc<PolicyVersion>>,
        now: SimTime,
    ) {
        let resource = resource.into();
        let sealed = Sealed::new(&self.enclave, &resource, self.seals, bytes);
        self.seals += 1;
        let slot = self.find(&resource);
        let entry = CopyEntry {
            head: key_head(resource.as_bytes()),
            resource,
            cached: None,
            acquired_at: now,
            life: Lifecycle::Live { sealed },
            log: Vec::new(),
            history: vec![(now, policy.into())],
            last_reported: None,
        };
        match slot {
            Ok(i) => self.copies[i] = entry,
            Err(i) => {
                let rows = &mut self.copies;
                if rows.len() == rows.capacity() {
                    rows.reserve_exact((rows.len() / 8).max(1));
                }
                rows.insert(i, entry);
            }
        }
    }

    /// Where `resource`'s row is, or would be inserted. Heads order like
    /// the names they start, so the search reads the rows alone and a
    /// name only on a head tie.
    fn find(&self, resource: &str) -> Result<usize, usize> {
        let head = key_head(resource.as_bytes());
        self.copies.binary_search_by(|e| {
            e.head
                .cmp(&head)
                .then_with(|| e.resource.as_str().cmp(resource))
        })
    }

    fn entry(&self, resource: &str) -> Option<&CopyEntry> {
        self.find(resource).ok().map(|i| &self.copies[i])
    }

    /// Whether a live copy of `resource` is held.
    pub fn has_copy(&self, resource: &str) -> bool {
        self.entry(resource).is_some_and(|e| e.sealed().is_some())
    }

    /// The locally enforced policy version for `resource`.
    pub fn policy_version(&self, resource: &str) -> Option<u64> {
        self.entry(resource).map(|e| e.policy().version)
    }

    /// The policy in force for `resource`: the [`PolicyVersion`] every
    /// holder of that version shares.
    pub fn policy(&self, resource: &str) -> Option<&Rc<PolicyVersion>> {
        self.entry(resource).map(CopyEntry::policy)
    }

    /// The resources with copies (live or audited-deleted), in name
    /// order.
    pub fn resources(&self) -> impl Iterator<Item = &str> {
        self.copies.iter().map(|e| e.resource.as_str())
    }

    fn enforce_entry(entry: &mut CopyEntry, now: SimTime, actions: &mut Vec<EnforcementAction>) {
        if entry.deleted_at().is_some() {
            return;
        }
        let (retention_due, expiry_due) = entry.due();
        let overdue = retention_due.is_some_and(|d| now >= d);
        let expired = expiry_due.is_some_and(|d| now >= d);
        if overdue || expired {
            entry.life = Lifecycle::Deleted { at: now };
            actions.push(EnforcementAction::Deleted {
                resource: entry.resource.clone(),
                at: now,
                reason: if overdue {
                    "retention window elapsed".to_string()
                } else {
                    "absolute expiry passed".to_string()
                },
            });
        }
    }

    /// Performs a policy-mediated access to the copy.
    ///
    /// This is the *only* way to obtain resource bytes: the request is
    /// evaluated against the current policy (ongoing authorization), the
    /// access is logged, and obligations are enforced lazily first.
    ///
    /// # Errors
    /// [`AccessError::NoCopy`] when no live copy exists (possibly because
    /// this very call deleted an overdue copy), [`AccessError::Denied`]
    /// with the program's reasons otherwise.
    pub fn access(
        &mut self,
        resource: &str,
        action: Action,
        purpose: Purpose,
        now: SimTime,
    ) -> Result<Vec<u8>, AccessError> {
        // Lazy obligation sweep on the touched entry first.
        let mut actions = Vec::new();
        let i = self.find(resource).map_err(|_| AccessError::NoCopy)?;
        let entry = &mut self.copies[i];
        Self::enforce_entry(entry, now, &mut actions);
        let Lifecycle::Live { sealed } = &entry.life else {
            return Err(AccessError::NoCopy);
        };
        let ctx = UsageContext {
            consumer: self.holder_webid.clone(),
            action,
            purpose: purpose.clone(),
            now,
            acquired_at: entry.acquired_at,
            access_count: entry.log.len() as u64 + 1,
        };
        // Serve the request off the cached decision when the request shape
        // matches and no transition instant has passed; otherwise evaluate
        // the compiled program and memoize the result together with the
        // next instant it can change.
        let cached = entry.cached.as_ref().filter(|c| {
            c.action == ctx.action
                && c.purpose == ctx.purpose
                && (!entry.program().count_sensitive() || c.access_count == ctx.access_count)
                && c.valid_until.is_none_or(|until| now < until)
        });
        let decision = match cached {
            Some(hit) => {
                self.cache_hits += 1;
                hit.decision.clone()
            }
            None => {
                self.cache_misses += 1;
                let decision = entry.program().decide(&ctx);
                entry.cached = Some(Box::new(CachedDecision {
                    action: ctx.action,
                    purpose: ctx.purpose.clone(),
                    access_count: ctx.access_count,
                    decision: decision.clone(),
                    valid_until: entry.program().next_transition(&ctx),
                }));
                decision
            }
        };
        match decision {
            Decision::Permit => {
                entry.log.push(AccessRecord {
                    at: now,
                    action,
                    purpose,
                });
                Ok(sealed.open(&self.enclave))
            }
            Decision::Deny(reasons) => Err(AccessError::Denied(reasons)),
        }
    }

    /// Applies a pushed policy update (paper process 5): replaces the local
    /// policy and executes any consequent obligations immediately.
    ///
    /// Stale or mismatched updates are ignored (returned action list is
    /// empty and the version unchanged).
    pub fn apply_policy_update(
        &mut self,
        resource: &str,
        new_policy: impl Into<Rc<PolicyVersion>>,
        now: SimTime,
    ) -> Vec<EnforcementAction> {
        let mut actions = Vec::new();
        let Ok(i) = self.find(resource) else {
            return actions;
        };
        let entry = &mut self.copies[i];
        let new_policy = new_policy.into();
        let current = entry.policy();
        if new_policy.resource != current.resource || new_policy.version <= current.version {
            return actions;
        }
        entry.history.push((now, new_policy));
        entry.cached = None;
        Self::enforce_entry(entry, now, &mut actions);
        // Notification duties surface to the oracle layer.
        for window in entry.policy().notify_windows() {
            actions.push(EnforcementAction::NotifyOwner {
                resource: resource.to_string(),
                by: now + *window,
            });
        }
        actions
    }

    /// Enforces the obligations of a single copy at `now` — what the
    /// driver's obligation scheduler calls at each registered deadline.
    ///
    /// # Errors
    /// [`TeeError::CopyStateMissing`] for an unknown resource.
    pub fn enforce_due(
        &mut self,
        resource: &str,
        now: SimTime,
    ) -> Result<Vec<EnforcementAction>, TeeError> {
        let i = self
            .find(resource)
            .map_err(|_| TeeError::CopyStateMissing {
                resource: resource.to_string(),
            })?;
        let mut actions = Vec::new();
        Self::enforce_entry(&mut self.copies[i], now, &mut actions);
        Ok(actions)
    }

    /// The next retention/expiry deadline of one live copy (`None` when
    /// the copy is gone or unconstrained) — what the obligation scheduler
    /// registers wakeups at.
    pub fn next_deadline_for(&self, resource: &str) -> Option<SimTime> {
        let entry = self.entry(resource)?;
        if entry.deleted_at().is_some() {
            return None;
        }
        entry
            .program()
            .next_deadline(entry.acquired_at, entry.policy_applied_at())
    }

    /// The evidence this device last recorded on-chain for `resource`.
    pub fn last_reported(&self, resource: &str) -> Option<&ReportedEvidence> {
        self.entry(resource)?.last_reported.as_deref()
    }

    /// Remembers the evidence just recorded on-chain for `resource`, so a
    /// later round with an unchanged usage log can reaffirm it instead of
    /// resubmitting.
    pub fn note_reported(&mut self, resource: &str, reported: ReportedEvidence) {
        if let Ok(i) = self.find(resource) {
            self.copies[i].last_reported = Some(Box::new(reported));
        }
    }

    /// Deletes a copy voluntarily.
    pub fn delete(&mut self, resource: &str, now: SimTime) -> bool {
        match self.find(resource) {
            Ok(i) if self.copies[i].deleted_at().is_none() => {
                self.copies[i].life = Lifecycle::Deleted { at: now };
                true
            }
            _ => false,
        }
    }

    /// Produces the self-audit for a monitoring round (paper process 6).
    ///
    /// Each logged access is replayed against the policy version in force
    /// *at the time of the access* (narrowing a policy later does not
    /// retroactively incriminate then-legal uses); retention and expiry are
    /// judged against the current policy's *effective* deadline (policy
    /// tightenings only bind from their local application time).
    pub fn report(&self, resource: &str, now: SimTime) -> Option<UsageReport> {
        let entry = self.entry(resource)?;
        let mut violations: Vec<String> = Vec::new();
        for (i, record) in entry.log.iter().enumerate() {
            let program = entry.program_in_force_at(record.at);
            let ctx = UsageContext {
                consumer: self.holder_webid.clone(),
                action: record.action,
                purpose: record.purpose.clone(),
                now: record.at,
                acquired_at: entry.acquired_at,
                access_count: (i + 1) as u64,
            };
            if !program.decide(&ctx).is_permit() {
                violations.push(format!(
                    "unauthorized access at {} ({} for {})",
                    record.at, record.action, record.purpose
                ));
            }
        }
        let (retention_due, expiry_due) = entry.due();
        let outlived = |due: &SimTime| match entry.deleted_at() {
            Some(deleted) => deleted > *due,
            None => now > *due,
        };
        if let Some(due) = retention_due.filter(outlived) {
            violations.push(format!(
                "retention violated: copy was due for deletion at {due}"
            ));
        }
        if let Some(due) = expiry_due.filter(outlived) {
            violations.push(format!("expiry violated: copy outlived {due}"));
        }
        let mut log_rows: Vec<Vec<u8>> = Vec::with_capacity(entry.log.len());
        for record in &entry.log {
            let mut row = Vec::new();
            row.extend_from_slice(&record.at.as_nanos().to_le_bytes());
            row.push(record.action as u8);
            row.extend_from_slice(record.purpose.as_str().as_bytes());
            row.push(0);
            row.extend_from_slice(self.holder_webid.as_bytes());
            log_rows.push(row);
        }
        let parts: Vec<&[u8]> = std::iter::once(&b"duc/usage-log"[..])
            .chain(log_rows.iter().map(Vec::as_slice))
            .collect();
        Some(UsageReport {
            resource: resource.to_string(),
            device: self.enclave.device().to_string(),
            policy_version: entry.policy().version,
            compliant: violations.is_empty(),
            violations,
            log_digest: hash_parts(&parts),
            accesses: entry.log.len() as u64,
            copy_alive: entry.deleted_at().is_none(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duc_policy::{Constraint, Duty, Rule, UsagePolicy};
    use duc_sim::SimDuration;

    const RES: &str = "https://bob.pod/data/medical.ttl";
    const ALICE: &str = "https://alice.id/me";

    fn medical_policy() -> UsagePolicy {
        UsagePolicy::builder(format!("{RES}#policy"), RES, "https://bob.id/me")
            .permit(
                Rule::permit([Action::Use])
                    .with_constraint(Constraint::Purpose(vec![Purpose::new("medical")])),
            )
            .duty(Duty::LogAccesses)
            .build()
    }

    fn retention_policy(days: u64) -> UsagePolicy {
        UsagePolicy::builder(format!("{RES}#policy"), RES, "https://bob.id/me")
            .permit(
                Rule::permit([Action::Use])
                    .with_constraint(Constraint::MaxRetention(SimDuration::from_days(days))),
            )
            .duty(Duty::DeleteWithin(SimDuration::from_days(days)))
            .build()
    }

    fn app() -> TrustedApplication {
        TrustedApplication::new(Enclave::new("alice-laptop", b"trusted-app-v1"), ALICE)
    }

    fn t(days: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_days(days)
    }

    #[test]
    fn store_and_access_with_right_purpose() {
        let mut app = app();
        app.store_resource(RES, b"patient rows", medical_policy(), t(0));
        let bytes = app
            .access(RES, Action::Read, Purpose::new("medical-research"), t(1))
            .expect("permitted");
        assert_eq!(bytes, b"patient rows");
        assert!(app.has_copy(RES));
    }

    #[test]
    fn wrong_purpose_is_denied_and_unlogged() {
        let mut app = app();
        app.store_resource(RES, b"data", medical_policy(), t(0));
        let err = app
            .access(RES, Action::Read, Purpose::new("marketing"), t(1))
            .unwrap_err();
        match err {
            AccessError::Denied(reasons) => {
                assert!(matches!(reasons[0], DenyReason::PurposeNotAllowed(_)))
            }
            other => panic!("unexpected {other:?}"),
        }
        let report = app.report(RES, t(1)).unwrap();
        assert_eq!(report.accesses, 0, "denied accesses are not counted");
        assert!(report.compliant, "a denied attempt is not a violation");
    }

    #[test]
    fn missing_copy_errors() {
        let mut app = app();
        assert_eq!(
            app.access("urn:none", Action::Read, Purpose::any(), t(0))
                .unwrap_err(),
            AccessError::NoCopy
        );
    }

    #[test]
    fn retention_enforced_lazily_on_access() {
        let mut app = app();
        app.store_resource(RES, b"web logs", retention_policy(7), t(0));
        assert!(app.access(RES, Action::Read, Purpose::any(), t(6)).is_ok());
        // Day 8: the copy is overdue; the access itself triggers deletion.
        let err = app
            .access(RES, Action::Read, Purpose::any(), t(8))
            .unwrap_err();
        assert_eq!(err, AccessError::NoCopy);
        assert!(!app.has_copy(RES));
        assert!(app.host_view(RES).is_none(), "sealed bytes erased");
    }

    #[test]
    fn enforce_due_deletes_only_the_overdue_copy() {
        let mut app = app();
        app.store_resource(RES, b"a", retention_policy(7), t(0));
        app.store_resource("urn:other", b"b", retention_policy(30), t(0));
        let kept = app.enforce_due("urn:other", t(10)).expect("held");
        assert!(kept.is_empty(), "the 30-day copy is not overdue");
        let actions = app.enforce_due(RES, t(10)).expect("held");
        assert_eq!(actions.len(), 1, "the 7-day copy is overdue");
        match &actions[0] {
            EnforcementAction::Deleted {
                resource,
                at,
                reason,
            } => {
                assert_eq!(resource, RES);
                assert_eq!(*at, t(10));
                assert!(reason.contains("retention"));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(!app.has_copy(RES));
        assert!(app.has_copy("urn:other"));
    }

    #[test]
    fn policy_update_triggers_immediate_enforcement() {
        // The paper's Bob scenario: retention shortened from 30d to 7d while
        // the copy is 10 days old → erase immediately on update receipt.
        let mut app = app();
        app.store_resource(RES, b"browsing data", retention_policy(30), t(0));
        assert!(app.has_copy(RES));
        let tightened = retention_policy(30).amended(
            vec![Rule::permit([Action::Use])
                .with_constraint(Constraint::MaxRetention(SimDuration::from_days(7)))],
            vec![Duty::DeleteWithin(SimDuration::from_days(7))],
        );
        let actions = app.apply_policy_update(RES, tightened, t(10));
        assert!(matches!(actions[0], EnforcementAction::Deleted { .. }));
        assert!(!app.has_copy(RES));
        // The self-report still judges the device compliant: the deadline
        // was only learnable at update time.
        let report = app.report(RES, t(10)).unwrap();
        assert!(report.compliant, "{:?}", report.violations);
        assert!(!report.copy_alive);
    }

    #[test]
    fn stale_or_foreign_updates_ignored() {
        let mut app = app();
        app.store_resource(RES, b"x", retention_policy(7), t(0));
        // Same version → ignored.
        assert!(app
            .apply_policy_update(RES, retention_policy(7), t(1))
            .is_empty());
        assert_eq!(app.policy_version(RES), Some(1));
        // Mismatched resource → ignored.
        let mut other = retention_policy(7).amended(vec![], vec![]);
        other.resource = "urn:other".into();
        assert!(app.apply_policy_update(RES, other, t(1)).is_empty());
    }

    #[test]
    fn notify_duty_surfaces_from_update() {
        let mut app = app();
        app.store_resource(RES, b"x", retention_policy(30), t(0));
        let with_notify = retention_policy(30).amended(
            vec![Rule::permit([Action::Use])],
            vec![Duty::NotifyOwnerWithin(SimDuration::from_hours(1))],
        );
        let actions = app.apply_policy_update(RES, with_notify, t(1));
        assert!(actions.iter().any(|a| matches!(
            a,
            EnforcementAction::NotifyOwner { by, .. } if *by == t(1) + SimDuration::from_hours(1)
        )));
    }

    #[test]
    fn report_reflects_log_and_versions() {
        let mut app = app();
        app.store_resource(RES, b"data", medical_policy(), t(0));
        app.access(RES, Action::Read, Purpose::new("medical"), t(1))
            .unwrap();
        app.access(RES, Action::Read, Purpose::new("medical"), t(2))
            .unwrap();
        let r1 = app.report(RES, t(3)).unwrap();
        assert_eq!(r1.accesses, 2);
        assert_eq!(r1.policy_version, 1);
        assert!(r1.compliant);
        assert_eq!(r1.device, "alice-laptop");
        // The log digest changes as the log grows.
        app.access(RES, Action::Read, Purpose::new("medical"), t(4))
            .unwrap();
        let r2 = app.report(RES, t(5)).unwrap();
        assert_ne!(r1.log_digest, r2.log_digest);
        assert!(app.report("urn:missing", t(5)).is_none());
    }

    #[test]
    fn voluntary_delete() {
        let mut app = app();
        app.store_resource(RES, b"x", medical_policy(), t(0));
        assert!(app.delete(RES, t(1)));
        assert!(!app.delete(RES, t(2)), "double delete is false");
        assert!(!app.has_copy(RES));
        let report = app.report(RES, t(3)).unwrap();
        assert!(report.compliant);
        assert!(!report.copy_alive);
    }

    #[test]
    fn absolute_expiry_enforced() {
        let policy = UsagePolicy::builder(format!("{RES}#p"), RES, "urn:o")
            .permit(Rule::permit([Action::Use]).with_constraint(Constraint::ExpiresAt(t(5))))
            .build();
        let mut app = app();
        app.store_resource(RES, b"x", policy, t(0));
        assert!(app.access(RES, Action::Read, Purpose::any(), t(4)).is_ok());
        let actions = app.enforce_due(RES, t(5)).expect("held");
        assert!(matches!(
            &actions[0],
            EnforcementAction::Deleted { reason, .. } if reason.contains("expiry")
        ));
    }

    #[test]
    fn decision_cache_serves_repeated_accesses() {
        let mut app = app();
        app.store_resource(RES, b"data", medical_policy(), t(0));
        for day in 1..=5 {
            app.access(RES, Action::Read, Purpose::new("medical"), t(day))
                .expect("permitted");
        }
        let (hits, misses) = app.decision_cache_stats();
        assert_eq!(misses, 1, "only the first access evaluates the program");
        assert_eq!(hits, 4, "the rest are cache-served");
    }

    #[test]
    fn decision_cache_invalidates_at_the_transition_instant() {
        let policy = UsagePolicy::builder(format!("{RES}#p"), RES, "urn:o")
            .permit(Rule::permit([Action::Use]).with_constraint(Constraint::ExpiresAt(t(5))))
            .build();
        let mut app = app();
        app.store_resource(RES, b"x", policy, t(0));
        assert!(app.access(RES, Action::Read, Purpose::any(), t(1)).is_ok());
        assert!(app.access(RES, Action::Read, Purpose::any(), t(4)).is_ok());
        let (hits, _) = app.decision_cache_stats();
        assert_eq!(hits, 1, "within the validity window the cache serves");
        // At the expiry instant the cached permit is stale: the program
        // re-evaluates (and the sweep deletes the copy first, so the
        // access reports NoCopy).
        assert_eq!(
            app.access(RES, Action::Read, Purpose::any(), t(5))
                .unwrap_err(),
            AccessError::NoCopy
        );
    }

    #[test]
    fn decision_cache_respects_count_sensitivity_and_updates() {
        let counted = UsagePolicy::builder(format!("{RES}#p"), RES, "urn:o")
            .permit(Rule::permit([Action::Use]).with_constraint(Constraint::MaxAccessCount(2)))
            .build();
        let mut app = app();
        app.store_resource(RES, b"x", counted, t(0));
        assert!(app.access(RES, Action::Read, Purpose::any(), t(1)).is_ok());
        assert!(app.access(RES, Action::Read, Purpose::any(), t(1)).is_ok());
        let (hits, misses) = app.decision_cache_stats();
        assert_eq!(
            (hits, misses),
            (0, 2),
            "count-sensitive programs re-evaluate per access"
        );
        let err = app
            .access(RES, Action::Read, Purpose::any(), t(1))
            .unwrap_err();
        assert!(matches!(err, AccessError::Denied(ref rs)
            if rs == &[DenyReason::AccessCountExhausted { limit: 2 }]));
        // A policy update drops the cached decision outright.
        let mut app = self::app();
        app.store_resource(RES, b"x", medical_policy(), t(0));
        app.access(RES, Action::Read, Purpose::new("medical"), t(1))
            .unwrap();
        app.access(RES, Action::Read, Purpose::new("medical"), t(1))
            .unwrap();
        let (hits_before, _) = app.decision_cache_stats();
        assert_eq!(hits_before, 1);
        let narrowed = medical_policy().amended(
            vec![Rule::permit([Action::Use])
                .with_constraint(Constraint::Purpose(vec![Purpose::new("academic")]))],
            vec![],
        );
        app.apply_policy_update(RES, narrowed, t(2));
        let err = app
            .access(RES, Action::Read, Purpose::new("medical"), t(3))
            .unwrap_err();
        assert!(
            matches!(err, AccessError::Denied(_)),
            "recompiled program applies"
        );
    }

    #[test]
    fn tee_error_display_and_conversion() {
        let mut app = app();
        let e = app.enforce_due("urn:r", t(0)).unwrap_err();
        assert_eq!(
            e,
            TeeError::CopyStateMissing {
                resource: "urn:r".into(),
            }
        );
        assert!(e.to_string().contains("copy state"));
        let boxed: Box<dyn std::error::Error> = e.into();
        assert_eq!(boxed.to_string(), "copy state missing for urn:r");
    }

    #[test]
    fn a_copy_row_holds_its_hot_fields_only() {
        // 272 B while the cached decision (80 B) and the reported evidence
        // (48 B) sat inline in every row: only an accessed copy sets the
        // first, and only a monitored one the second.
        assert!(
            std::mem::size_of::<CopyEntry>() <= 160,
            "{} B",
            std::mem::size_of::<CopyEntry>()
        );
    }

    #[test]
    fn the_copy_table_grows_by_an_eighth() {
        let mut app = app();
        let mut growths = 0;
        for k in 1..=2_000usize {
            let before = app.copies.capacity();
            app.store_resource(format!("urn:r{k:04}"), b"x", medical_policy(), t(0));
            growths += usize::from(app.copies.capacity() != before);
            if k <= 40 {
                assert!(
                    app.copies.capacity() <= k + (k / 8).max(1),
                    "{k} copies in {} rows",
                    app.copies.capacity()
                );
            }
        }
        // Growth by an eighth reallocates 59 times over 2 000 rows; growth
        // by a row at a time would reallocate on every insert.
        assert!(growths <= 64, "{growths} reallocations");
    }

    #[test]
    fn resources_iteration() {
        let mut app = app();
        app.store_resource("urn:a", b"1", medical_policy(), t(0));
        app.store_resource("urn:b", b"2", medical_policy(), t(0));
        let rs: Vec<&str> = app.resources().collect();
        assert_eq!(rs, vec!["urn:a", "urn:b"]);
        assert_eq!(app.holder(), ALICE);
    }
}
