//! The trusted application: policy-mediated access to sealed copies.

use std::rc::Rc;

use duc_crypto::{hash_parts, Digest};
use duc_policy::{
    compile, Action, Decision, DenyReason, Duty, PolicyProgram, Purpose, PurposeTaxonomy,
    UsageContext, UsagePolicy,
};
use duc_sim::SimTime;

use crate::enclave::Enclave;
use crate::storage::TrustedDataStorage;

/// An internal trusted-application invariant failure: the copy table and
/// the sealed storage disagree. These are *permanent* faults (a damaged
/// enclave state cannot heal by retrying), so the driver's
/// `is_transient()` classification reports them as not-retryable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TeeError {
    /// A live copy's sealed bytes vanished from trusted storage.
    SealedCopyMissing {
        /// The affected resource.
        resource: String,
    },
    /// A copy listed in the table has no entry when re-read.
    CopyStateMissing {
        /// The affected resource.
        resource: String,
    },
}

impl std::fmt::Display for TeeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TeeError::SealedCopyMissing { resource } => {
                write!(f, "sealed bytes missing for live copy of {resource}")
            }
            TeeError::CopyStateMissing { resource } => {
                write!(f, "copy state missing for {resource}")
            }
        }
    }
}

impl std::error::Error for TeeError {}

/// Why a local access failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessError {
    /// No copy of the resource is held (never stored, or already deleted).
    NoCopy,
    /// The policy engine denied the use.
    Denied(Vec<DenyReason>),
    /// The trusted application's own state is damaged.
    Tee(TeeError),
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
            AccessError::Tee(e) => write!(f, "trusted application fault: {e}"),
        }
    }
}

impl std::error::Error for AccessError {}

impl From<TeeError> for AccessError {
    fn from(e: TeeError) -> Self {
        AccessError::Tee(e)
    }
}

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

/// Everything the trusted application keeps about one copy: the auditable
/// state the monitoring process (paper process 6) replays, and the policy
/// versions it is replayed against.
#[derive(Debug, Clone)]
struct CopyEntry {
    /// The copy's resource IRI; the table is sorted by it.
    resource: String,
    /// The policy in force; shared with the device's index entry while
    /// the copy enforces the version the entry was indexed at.
    policy: Rc<UsagePolicy>,
    /// The decision served to repeated identical requests until the
    /// program's next transition (or an access-count change when the
    /// program is count-sensitive).
    cached: Option<CachedDecision>,
    /// When the copy was stored.
    acquired_at: SimTime,
    /// When it was deleted, if it was.
    deleted_at: Option<SimTime>,
    /// Every access performed through the trusted application; its length
    /// is the access count.
    log: Vec<AccessRecord>,
    /// Every policy version ever enforced, compiled against
    /// [`PurposeTaxonomy::shared_standard`], with its local application
    /// time. Never empty: the last program is
    /// the one in force and serves the access hot path; the audit replays
    /// each access against the version in force *at access time* (a policy
    /// narrowed later does not retroactively incriminate past, then-legal
    /// uses).
    history: Vec<(SimTime, PolicyProgram)>,
    /// The evidence last recorded on-chain for this copy, if any.
    last_reported: Option<ReportedEvidence>,
}

impl CopyEntry {
    /// The compiled form of the current policy.
    fn program(&self) -> &PolicyProgram {
        &self.history.last().expect("a copy has a policy").1
    }

    /// When the currently-enforced policy version was applied locally
    /// (the retention deadline can never precede this instant).
    fn policy_applied_at(&self) -> SimTime {
        self.history.last().expect("a copy has a policy").0
    }

    fn program_in_force_at(&self, at: SimTime) -> &PolicyProgram {
        self.history
            .iter()
            .rev()
            .find(|(applied, _)| *applied <= at)
            .map_or(self.program(), |(_, p)| p)
    }
}

/// The trusted application running inside an enclave.
#[derive(Debug, Clone)]
pub struct TrustedApplication {
    enclave: Enclave,
    storage: TrustedDataStorage,
    holder_webid: String,
    /// One row per copy, live or audited-deleted, sorted by resource and
    /// searched by binary search: a device holds one to a few copies.
    copies: Vec<CopyEntry>,
    /// Accesses served from the per-copy decision cache.
    cache_hits: u64,
    /// Accesses that recompiled or re-evaluated the decision.
    cache_misses: u64,
}

impl TrustedApplication {
    /// Creates a trusted application for `holder_webid` on `enclave`.
    pub fn new(enclave: Enclave, holder_webid: impl Into<String>) -> TrustedApplication {
        TrustedApplication {
            enclave,
            storage: TrustedDataStorage::new(),
            holder_webid: holder_webid.into(),
            copies: Vec::new(),
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

    /// The sealed storage (host-visible surface, for the privacy tests).
    pub fn storage(&self) -> &TrustedDataStorage {
        &self.storage
    }

    /// Stores a freshly retrieved resource copy under its policy
    /// (the tail of paper process 4).
    ///
    /// The policy is an owned [`UsagePolicy`] or an `Rc` of one: a device
    /// passes the `Rc` its index entry holds (process 3 stores the entry
    /// "in the TEE"), so the copy and the entry share one decoded policy
    /// rather than each holding a deep clone.
    pub fn store_resource(
        &mut self,
        resource: impl Into<String>,
        bytes: &[u8],
        policy: impl Into<Rc<UsagePolicy>>,
        now: SimTime,
    ) {
        let resource = resource.into();
        let policy = policy.into();
        self.storage.seal(&self.enclave, &resource, bytes);
        let program = compile(&policy, PurposeTaxonomy::shared_standard());
        let slot = self.find(&resource);
        let entry = CopyEntry {
            resource,
            policy,
            cached: None,
            acquired_at: now,
            deleted_at: None,
            log: Vec::new(),
            history: vec![(now, program)],
            last_reported: None,
        };
        match slot {
            Ok(i) => self.copies[i] = entry,
            Err(i) => self.copies.insert(i, entry),
        }
    }

    /// Where `resource`'s row is, or would be inserted.
    fn find(&self, resource: &str) -> Result<usize, usize> {
        self.copies
            .binary_search_by(|e| e.resource.as_str().cmp(resource))
    }

    fn entry(&self, resource: &str) -> Option<&CopyEntry> {
        self.find(resource).ok().map(|i| &self.copies[i])
    }

    /// Whether a live copy of `resource` is held.
    pub fn has_copy(&self, resource: &str) -> bool {
        self.entry(resource).is_some_and(|e| e.deleted_at.is_none())
    }

    /// The locally enforced policy version for `resource`.
    pub fn policy_version(&self, resource: &str) -> Option<u64> {
        self.entry(resource).map(|e| e.policy.version)
    }

    /// The resources with copies (live or audited-deleted), in name
    /// order.
    pub fn resources(&self) -> impl Iterator<Item = &str> {
        self.copies.iter().map(|e| e.resource.as_str())
    }

    fn effective_due(entry: &CopyEntry) -> Option<SimTime> {
        entry
            .program()
            .retention_bound()
            .map(|b| (entry.acquired_at + b).max(entry.policy_applied_at()))
    }

    fn enforce_entry(
        resource: &str,
        entry: &mut CopyEntry,
        storage: &mut TrustedDataStorage,
        now: SimTime,
        actions: &mut Vec<EnforcementAction>,
    ) {
        if entry.deleted_at.is_some() {
            return;
        }
        let retention_due = Self::effective_due(entry);
        let expiry_due = entry.policy.expiry_bound();
        let overdue = retention_due.map(|d| now >= d).unwrap_or(false);
        let expired = expiry_due.map(|d| now >= d).unwrap_or(false);
        if overdue || expired {
            storage.erase(resource);
            entry.deleted_at = Some(now);
            actions.push(EnforcementAction::Deleted {
                resource: resource.to_string(),
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
    /// with the engine's reasons otherwise.
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
        Self::enforce_entry(resource, entry, &mut self.storage, now, &mut actions);
        if entry.deleted_at.is_some() {
            return Err(AccessError::NoCopy);
        }
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
                entry.cached = Some(CachedDecision {
                    action: ctx.action,
                    purpose: ctx.purpose.clone(),
                    access_count: ctx.access_count,
                    decision: decision.clone(),
                    valid_until: entry.program().next_transition(&ctx),
                });
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
                let bytes = self
                    .storage
                    .unseal(&self.enclave, resource)
                    .ok_or_else(|| TeeError::SealedCopyMissing {
                        resource: resource.to_string(),
                    })?;
                Ok(bytes)
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
        new_policy: UsagePolicy,
        now: SimTime,
    ) -> Vec<EnforcementAction> {
        let mut actions = Vec::new();
        let Ok(i) = self.find(resource) else {
            return actions;
        };
        let entry = &mut self.copies[i];
        if new_policy.resource != entry.policy.resource
            || new_policy.version <= entry.policy.version
        {
            return actions;
        }
        entry.history.push((
            now,
            compile(&new_policy, PurposeTaxonomy::shared_standard()),
        ));
        entry.cached = None;
        entry.policy = Rc::new(new_policy);
        Self::enforce_entry(resource, entry, &mut self.storage, now, &mut actions);
        // Notification duties surface to the oracle layer.
        for duty in &entry.policy.duties {
            if let Duty::NotifyOwnerWithin(window) = duty {
                actions.push(EnforcementAction::NotifyOwner {
                    resource: resource.to_string(),
                    by: now + *window,
                });
            }
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
        let entry = &mut self.copies[i];
        let mut actions = Vec::new();
        Self::enforce_entry(resource, entry, &mut self.storage, now, &mut actions);
        Ok(actions)
    }

    /// The next retention/expiry deadline of one live copy (`None` when
    /// the copy is gone or unconstrained) — what the obligation scheduler
    /// registers wakeups at.
    pub fn next_deadline_for(&self, resource: &str) -> Option<SimTime> {
        let entry = self.entry(resource)?;
        if entry.deleted_at.is_some() {
            return None;
        }
        entry
            .program()
            .next_deadline(entry.acquired_at, entry.policy_applied_at())
    }

    /// The evidence this device last recorded on-chain for `resource`.
    pub fn last_reported(&self, resource: &str) -> Option<&ReportedEvidence> {
        self.entry(resource)?.last_reported.as_ref()
    }

    /// Remembers the evidence just recorded on-chain for `resource`, so a
    /// later round with an unchanged usage log can reaffirm it instead of
    /// resubmitting.
    pub fn note_reported(&mut self, resource: &str, reported: ReportedEvidence) {
        if let Ok(i) = self.find(resource) {
            self.copies[i].last_reported = Some(reported);
        }
    }

    /// Deletes a copy voluntarily.
    pub fn delete(&mut self, resource: &str, now: SimTime) -> bool {
        match self.find(resource) {
            Ok(i) if self.copies[i].deleted_at.is_none() => {
                self.storage.erase(resource);
                self.copies[i].deleted_at = Some(now);
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
        if let Some(due) = Self::effective_due(entry) {
            let violated = match entry.deleted_at {
                Some(deleted) => deleted > due,
                None => now > due,
            };
            if violated {
                violations.push(format!(
                    "retention violated: copy was due for deletion at {due}"
                ));
            }
        }
        if let Some(expiry) = entry.policy.expiry_bound() {
            let effective = expiry.max(entry.policy_applied_at());
            let violated = match entry.deleted_at {
                Some(deleted) => deleted > effective,
                None => now > effective,
            };
            if violated {
                violations.push(format!("expiry violated: copy outlived {effective}"));
            }
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
            policy_version: entry.policy.version,
            compliant: violations.is_empty(),
            violations,
            log_digest: hash_parts(&parts),
            accesses: entry.log.len() as u64,
            copy_alive: entry.deleted_at.is_none(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duc_policy::{Constraint, Rule};
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
        assert!(
            app.storage().host_view(RES).is_none(),
            "sealed bytes erased"
        );
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
        let e = TeeError::SealedCopyMissing {
            resource: "urn:r".into(),
        };
        assert!(e.to_string().contains("sealed bytes"));
        let e2 = TeeError::CopyStateMissing {
            resource: "urn:r".into(),
        };
        assert!(e2.to_string().contains("copy state"));
        let access: AccessError = e.into();
        assert!(matches!(access, AccessError::Tee(_)));
        assert!(access.to_string().contains("trusted application fault"));
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
