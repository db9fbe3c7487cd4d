//! The DistExchange contract implementation.
//!
//! Storage keys are built by `layout.rs` (the crate-private `layout`
//! module), which documents the layout table; rows are the compact
//! encodings of [`crate::rows`].
//!
//! Each method takes its argument struct from [`crate::calls`] and returns
//! its typed output; [`DistExchange::call`] decodes the call once, admits
//! the caller by the call's [`CallerRule`](crate::calls::CallerRule) (the
//! call table's caller column) and encodes the output in one place. No
//! method body checks its caller: a method runs only for a caller its
//! row's rule admitted, and takes the row the rule read (`update_policy`
//! the resource row, `unregister_copy` the copy row) instead of reading it
//! again.
//!
//! View methods (`get_pod`, `lookup_resource`, `get_subscription`,
//! `list_copies`, `get_round`) reconstruct the full ABI records of
//! [`crate::abi`] from key + row + pol table, so callers see the exact same
//! wire format as before the compaction. Hot mutation paths
//! (`update_policy`, `start_monitoring`, `register_copy`) never materialize
//! a policy envelope from storage, and a monitoring submission writes its
//! own answer row and the round's counter, never the round.

use duc_blockchain::{Address, CallCtx, Contract, ContractError};
use duc_codec::encode_to_vec;
use duc_crypto::{hash_parts, Digest, PublicKey};
use duc_sim::SimDuration;

use crate::abi::{
    CopyRecord, EvidenceReaffirmation, EvidenceSubmission, MonitoringRound, PodRecord,
    PolicyEnvelope, ResourceRecord, Subscription,
};
use crate::calls::{
    DexCall, DexMethod, GetPod, GetRound, GetSubscription, Init, ListCopies, LookupResource,
    RegisterCopy, RegisterPod, RegisterResource, StartMonitoring, Subscribe, UnregisterCopy,
    UpdatePolicy, VerifyCertificate,
};
use crate::events;
use crate::layout;
use crate::rows::{Answer, AnswerRow, CopyRow, PodRow, ResourceRow, RoundRow, SubRow};

/// The conventional deployment id of the DE App.
pub const DEX_CONTRACT_ID: &str = "dist-exchange";

/// The DistExchange application contract: code over ledger storage plus
/// two deployment settings — every validator runs it against the same
/// slots, so it holds no state of its own.
///
/// The settings are the attestation authority's key and the trusted
/// application's measurement, which the `QuotedEnclave` rule checks a
/// `register_copy` quote against. [`DistExchange::default`] trusts no
/// authority, so it serves every method but `register_copy`, which it
/// refuses.
#[derive(Debug, Default)]
pub struct DistExchange {
    attestation: Option<(PublicKey, Digest)>,
}

/// Where an admitted submission lands in its round: the answers recorded
/// before it (its ordinal), and whether it is the last one expected.
struct Place {
    answered: u32,
    closes: bool,
}

/// A revert with `msg`, the error every refused call returns.
pub(crate) fn revert(msg: impl Into<String>) -> ContractError {
    ContractError::Reverted(msg.into())
}

/// Writes the content-addressed pol-table row for `policy` and returns its
/// digest. Unconditional and idempotent: the key is the digest of the
/// exact bytes written, so every writer of a given envelope stores
/// identical bytes — the access layer declares this slot as a *delta* —
/// and skipping the existence probe keeps gas identical on every path,
/// serial or parallel.
fn put_policy(ctx: &mut CallCtx<'_>, policy: &PolicyEnvelope) -> Result<Digest, ContractError> {
    let digest = policy.digest();
    ctx.set(layout::pol(&digest), policy)?;
    Ok(digest)
}

/// Fetches an envelope from the pol table (view-method reconstruction).
fn get_policy(ctx: &mut CallCtx<'_>, digest: &Digest) -> Result<PolicyEnvelope, ContractError> {
    ctx.get(&layout::pol(digest))?
        .ok_or_else(|| revert("missing policy envelope"))
}

impl DistExchange {
    /// A deployment that accepts copies of enclaves running code of
    /// `measurement`, quoted by the attestation authority whose key is
    /// `authority`.
    pub fn new(authority: PublicKey, measurement: Digest) -> DistExchange {
        DistExchange {
            attestation: Some((authority, measurement)),
        }
    }

    fn init(&self, ctx: &mut CallCtx<'_>, a: Init) -> Result<(), ContractError> {
        if ctx.contains(&layout::cfg("fee"))? {
            return Err(revert("already initialized"));
        }
        ctx.set(layout::cfg("fee"), &a.fee)?;
        ctx.set(layout::cfg("validity"), &a.validity_nanos)?;
        ctx.set(layout::cfg("treasury"), &a.treasury)?;
        Ok(())
    }

    fn register_pod(&self, ctx: &mut CallCtx<'_>, a: RegisterPod) -> Result<(), ContractError> {
        let key = layout::pod(&a.owner_webid);
        if ctx.contains(&key)? {
            return Err(revert(format!(
                "pod already registered for {}",
                a.owner_webid
            )));
        }
        let policy = put_policy(ctx, &a.default_policy)?;
        let row = PodRow {
            owner_addr: ctx.caller,
            web_ref: a.web_ref,
            policy,
            registered_at: ctx.block_time,
        };
        ctx.set(key, &row)?;
        let owner_webid = a.owner_webid;
        events::PodRegistered { owner_webid }.emit(ctx)?;
        Ok(())
    }

    fn get_pod(
        &self,
        ctx: &mut CallCtx<'_>,
        a: GetPod,
    ) -> Result<Option<PodRecord>, ContractError> {
        let Some(row) = ctx.get::<PodRow>(&layout::pod(&a.owner_webid))? else {
            return Ok(None);
        };
        let policy = get_policy(ctx, &row.policy)?;
        Ok(Some(row.into_record(a.owner_webid, policy)))
    }

    fn register_resource(
        &self,
        ctx: &mut CallCtx<'_>,
        a: RegisterResource,
    ) -> Result<(), ContractError> {
        layout::reject_separator("resource IRI", &a.resource)?;
        let key = layout::res(&a.resource);
        if ctx.contains(&key)? {
            return Err(revert(format!(
                "resource already registered: {}",
                a.resource
            )));
        }
        let digest = put_policy(ctx, &a.policy)?;
        let row = ResourceRow {
            location: ResourceRow::encode_location(&a.resource, a.location),
            owner_webid: a.owner_webid,
            owner_addr: ctx.caller,
            metadata: a.metadata,
            policy: digest,
            policy_version: 1,
            registered_at: ctx.block_time,
        };
        ctx.set(key, &row)?;
        let resource = a.resource;
        events::ResourceRegistered { resource }.emit(ctx)?;
        Ok(())
    }

    fn lookup_resource(
        &self,
        ctx: &mut CallCtx<'_>,
        a: LookupResource,
    ) -> Result<Option<ResourceRecord>, ContractError> {
        let Some(row) = ctx.get::<ResourceRow>(&layout::res(&a.resource))? else {
            return Ok(None);
        };
        let policy = get_policy(ctx, &row.policy)?;
        Ok(Some(row.into_record(a.resource, policy)))
    }

    fn list_resources(&self, ctx: &mut CallCtx<'_>) -> Result<Vec<String>, ContractError> {
        let keys = ctx.keys_with_prefix(layout::RES)?;
        Ok(keys
            .into_iter()
            .filter_map(|k| String::from_utf8(k[layout::RES.len()..].to_vec()).ok())
            .collect())
    }

    /// `row` is the resource row the `ResourceOwner` rule read.
    fn update_policy(
        &self,
        ctx: &mut CallCtx<'_>,
        a: UpdatePolicy,
        mut row: ResourceRow,
    ) -> Result<(), ContractError> {
        // The hot path: only the compact row round-trips storage — the
        // superseded envelope is never read, the new one only written.
        if a.new_version != row.policy_version + 1 {
            return Err(revert(format!(
                "version must increment: current {}, got {}",
                row.policy_version, a.new_version
            )));
        }
        let policy_hash = put_policy(ctx, &a.policy)?;
        row.policy = policy_hash;
        row.policy_version = a.new_version;
        ctx.set(layout::res(&a.resource), &row)?;
        // The event anchors the new policy *hash* alongside the envelope:
        // devices verify the pushed bytes against it before recompiling
        // their local program and re-scheduling obligations.
        let updated = events::PolicyUpdated {
            resource: a.resource,
            version: a.new_version,
            policy: a.policy,
            policy_hash,
        };
        updated.emit(ctx)?;
        Ok(())
    }

    fn register_copy(&self, ctx: &mut CallCtx<'_>, a: RegisterCopy) -> Result<(), ContractError> {
        layout::reject_separator("device name", &a.device)?;
        if !ctx.contains(&layout::res(&a.resource))? {
            return Err(revert(format!("unknown resource {}", a.resource)));
        }
        let key = layout::copy(&a.resource, &a.device);
        let row = CopyRow {
            holder_webid: a.holder_webid,
            attestation_key: a.attestation_key,
            registered_at: ctx.block_time,
        };
        ctx.set(key, &row)?;
        let (resource, device) = (a.resource, a.device);
        events::CopyRegistered { resource, device }.emit(ctx)?;
        Ok(())
    }

    /// Removes a copy record, but only when it predates `as_of` — an
    /// in-flight unregister (submitted when a TEE deleted its copy) must
    /// not clobber a *newer* registration from a re-access that raced it;
    /// the guarded case returns `false` without touching the record. `row`
    /// is the copy row the `CopyKey` rule read.
    fn unregister_copy(
        &self,
        ctx: &mut CallCtx<'_>,
        a: UnregisterCopy,
        row: CopyRow,
    ) -> Result<bool, ContractError> {
        if row.registered_at >= a.as_of {
            return Ok(false);
        }
        ctx.remove_raw(&layout::copy(&a.resource, &a.device))?;
        let (resource, device) = (a.resource, a.device);
        events::CopyRemoved { resource, device }.emit(ctx)?;
        Ok(true)
    }

    fn list_copies(
        &self,
        ctx: &mut CallCtx<'_>,
        a: ListCopies,
    ) -> Result<Vec<CopyRecord>, ContractError> {
        let prefix = layout::copy_prefix(&a.resource);
        let keys = ctx.keys_with_prefix(&prefix)?;
        let mut copies = Vec::with_capacity(keys.len());
        for k in keys {
            if let Some(row) = ctx.get::<CopyRow>(&k)? {
                let device = String::from_utf8(k[prefix.len()..].to_vec())
                    .map_err(|_| revert("non-utf8 device in copy key"))?;
                copies.push(row.into_record(device));
            }
        }
        Ok(copies)
    }

    /// The devices currently holding copies of `resource` — read off the
    /// key suffixes alone, with no row fetches (the compact layout keeps
    /// the device name in the key).
    fn copy_devices(
        &self,
        ctx: &mut CallCtx<'_>,
        resource: &str,
    ) -> Result<Vec<String>, ContractError> {
        let prefix = layout::copy_prefix(resource);
        let keys = ctx.keys_with_prefix(&prefix)?;
        keys.into_iter()
            .map(|k| {
                String::from_utf8(k[prefix.len()..].to_vec())
                    .map_err(|_| revert("non-utf8 device in copy key"))
            })
            .collect()
    }

    fn start_monitoring(
        &self,
        ctx: &mut CallCtx<'_>,
        a: StartMonitoring,
    ) -> Result<u64, ContractError> {
        let resource = a.resource;
        let counter_key = layout::round_counter(&resource);
        let round: u64 = ctx.get(&counter_key)?.unwrap_or(0) + 1;
        ctx.set(counter_key, &round)?;
        let header = RoundRow {
            requested_by: ctx.caller,
            started_at: ctx.block_time,
            expected_devices: self.copy_devices(ctx, &resource)?,
        };
        ctx.set(layout::round(&resource, round), &header)?;
        let requested = events::MonitoringRequested {
            resource,
            round,
            expected_devices: header.expected_devices,
        };
        requested.emit(ctx)?;
        if requested.expected_devices.is_empty() {
            events::RoundClosed {
                resource: requested.resource,
                round,
                compliant: 0,
                violators: Vec::new(),
            }
            .emit(ctx)?;
        }
        Ok(round)
    }

    /// The answers recorded in a round, as `(device, row)` in submission
    /// order: one prefix scan over the round's answer rows.
    fn answers(
        &self,
        ctx: &mut CallCtx<'_>,
        resource: &str,
        round: u64,
    ) -> Result<Vec<(String, AnswerRow)>, ContractError> {
        let prefix = layout::answer_prefix(resource, round);
        let keys = ctx.keys_with_prefix(&prefix)?;
        let mut answers = Vec::with_capacity(keys.len());
        for k in keys {
            if let Some(row) = ctx.get::<AnswerRow>(&k)? {
                let device = String::from_utf8(k[prefix.len()..].to_vec())
                    .map_err(|_| revert("non-utf8 device in answer key"))?;
                answers.push((device, row));
            }
        }
        answers.sort_by_key(|(_, row)| row.ordinal);
        Ok(answers)
    }

    /// The checks both submission methods share after their `CopyKey` rule
    /// (the copy is registered and its key signed the answer), in their
    /// revert order: the round exists and is open, and `device` is expected
    /// in it and has not answered. Returns the answer's place in the round.
    fn place(
        &self,
        ctx: &mut CallCtx<'_>,
        resource: &str,
        round: u64,
        device: &str,
    ) -> Result<Place, ContractError> {
        let header: RoundRow = ctx
            .get(&layout::round(resource, round))?
            .ok_or_else(|| revert("unknown monitoring round"))?;
        let answered: u32 = ctx
            .get(&layout::round_answered(resource, round))?
            .unwrap_or(0);
        let expected = header.expected_devices.len();
        if answered as usize == expected {
            return Err(revert("round already closed"));
        }
        if !header.expects(device) {
            return Err(revert(format!(
                "device {device} not expected in this round"
            )));
        }
        if ctx.contains(&layout::answer(resource, round, device))? {
            return Err(revert("duplicate evidence for device"));
        }
        let closes = answered as usize + 1 == expected;
        Ok(Place { answered, closes })
    }

    /// Records `device`'s answer as the round's next, emits
    /// `EvidenceRecorded`, and, when it is the last one expected, emits
    /// `RoundClosed` with the violators in submission order.
    fn answer(
        &self,
        ctx: &mut CallCtx<'_>,
        resource: String,
        round: u64,
        device: String,
        place: Place,
        answer: Answer,
    ) -> Result<(), ContractError> {
        let compliant = match answer {
            Answer::Evidence { compliant, .. } => compliant,
            Answer::Reaffirmed { .. } => true,
        };
        let recorded = events::EvidenceRecorded {
            resource: resource.clone(),
            round,
            device: device.clone(),
            compliant,
        };
        recorded.emit(ctx)?;
        let row = AnswerRow {
            ordinal: place.answered,
            answer,
        };
        ctx.set(layout::answer(&resource, round, &device), &row)?;
        ctx.set(
            layout::round_answered(&resource, round),
            &(place.answered + 1),
        )?;
        if !place.closes {
            return Ok(());
        }
        let mut closed = events::RoundClosed {
            resource,
            round,
            compliant: 0,
            violators: Vec::new(),
        };
        for (device, row) in self.answers(ctx, &closed.resource, round)? {
            match row.answer {
                Answer::Evidence {
                    compliant: false, ..
                } => closed.violators.push(device),
                _ => closed.compliant += 1,
            }
        }
        closed.emit(ctx)
    }

    fn record_evidence(
        &self,
        ctx: &mut CallCtx<'_>,
        submission: EvidenceSubmission,
    ) -> Result<(), ContractError> {
        let place = self.place(
            ctx,
            &submission.resource,
            submission.round,
            &submission.device,
        )?;
        let answer = Answer::Evidence {
            compliant: submission.compliant,
            violations: submission.violations,
            evidence_digest: submission.evidence_digest,
            signature: submission.signature,
        };
        let (resource, round, device) = (submission.resource, submission.round, submission.device);
        self.answer(ctx, resource, round, device, place, answer)
    }

    /// Records that a device's evidence from an earlier round still
    /// stands, after verifying the enclave's signed attestation that the
    /// usage log is unchanged — the cheap incremental-monitoring path for
    /// copies whose log did not advance since they were last audited.
    fn reaffirm_evidence(
        &self,
        ctx: &mut CallCtx<'_>,
        reaff: EvidenceReaffirmation,
    ) -> Result<(), ContractError> {
        let place = self.place(ctx, &reaff.resource, reaff.round, &reaff.device)?;
        // The prior evidence must exist, be compliant, and carry the very
        // same digest — anything else requires a full resubmission.
        // `prev_round` must hold *full* evidence (devices always point
        // their reaffirmations at the round of their last full
        // submission), so the digest is checked against signed bytes.
        let prior: Option<AnswerRow> = ctx.get(&layout::answer(
            &reaff.resource,
            reaff.prev_round,
            &reaff.device,
        ))?;
        let prior_ok = matches!(
            &prior,
            Some(AnswerRow {
                answer: Answer::Evidence { compliant: true, evidence_digest, .. },
                ..
            }) if *evidence_digest == reaff.evidence_digest
        );
        if !prior_ok {
            // An answer row lives beside its round's header, so only a
            // missing row leaves the prior round itself to check.
            let known = prior.is_some()
                || ctx.contains(&layout::round(&reaff.resource, reaff.prev_round))?;
            return Err(revert(if known {
                "no matching compliant prior evidence to reaffirm"
            } else {
                "unknown prior round"
            }));
        }
        let answer = Answer::Reaffirmed {
            prev_round: reaff.prev_round,
        };
        self.answer(
            ctx,
            reaff.resource,
            reaff.round,
            reaff.device,
            place,
            answer,
        )
    }

    fn get_round(
        &self,
        ctx: &mut CallCtx<'_>,
        a: GetRound,
    ) -> Result<Option<MonitoringRound>, ContractError> {
        let Some(header) = ctx.get::<RoundRow>(&layout::round(&a.resource, a.round))? else {
            return Ok(None);
        };
        let answers = self.answers(ctx, &a.resource, a.round)?;
        Ok(Some(header.into_record(a.resource, a.round, answers)))
    }

    fn subscribe(&self, ctx: &mut CallCtx<'_>, a: Subscribe) -> Result<Digest, ContractError> {
        let webid = a.webid;
        let fee: u128 = ctx
            .get(&layout::cfg("fee"))?
            .ok_or_else(|| revert("market not initialized"))?;
        let validity: u64 = ctx.get(&layout::cfg("validity"))?.unwrap_or(0);
        let treasury: Address = ctx
            .get(&layout::cfg("treasury"))?
            .ok_or_else(|| revert("market not initialized"))?;
        ctx.transfer_from_caller(treasury, fee)?;
        let certificate = hash_parts(&[
            b"duc/cert",
            webid.as_bytes(),
            &ctx.block_time.as_nanos().to_le_bytes(),
            ctx.caller.0.as_bytes(),
        ]);
        let sub = SubRow {
            addr: ctx.caller,
            certificate,
            paid_at: ctx.block_time,
            valid_until: ctx.block_time + SimDuration::from_nanos(validity),
        };
        ctx.set(layout::sub(&webid), &sub)?;
        // Existence marker only: ownership of the certificate is implied —
        // the sole writer of cert/{c} is the subscribe that minted c, and
        // c commits to the subscriber's WebID (hash preimage above), so
        // sub/{webid}.certificate == c already proves c was issued to
        // webid. Storing the WebID again would duplicate the key material.
        ctx.set_raw(layout::cert(&certificate), Vec::new())?;
        events::CertificateIssued { webid, certificate }.emit(ctx)?;
        Ok(certificate)
    }

    fn verify_certificate(
        &self,
        ctx: &mut CallCtx<'_>,
        a: VerifyCertificate,
    ) -> Result<bool, ContractError> {
        if !ctx.contains(&layout::cert(&a.certificate))? {
            return Ok(false);
        }
        let sub: Option<SubRow> = ctx.get(&layout::sub(&a.webid))?;
        Ok(sub.is_some_and(|s| s.certificate == a.certificate && s.valid_at(ctx.block_time)))
    }

    fn get_subscription(
        &self,
        ctx: &mut CallCtx<'_>,
        a: GetSubscription,
    ) -> Result<Option<Subscription>, ContractError> {
        Ok(ctx
            .get::<SubRow>(&layout::sub(&a.webid))?
            .map(|row| row.into_record(a.webid)))
    }
}

/// Runs one method on its decoded arguments and encodes what it returns:
/// the output type is the one the call table gives the method.
fn reply<C: DexMethod>(
    args: C,
    method: impl FnOnce(C) -> Result<C::Output, ContractError>,
) -> Result<Vec<u8>, ContractError> {
    method(args).map(|out| encode_to_vec(&out))
}

impl Contract for DistExchange {
    fn call(
        &self,
        ctx: &mut CallCtx<'_>,
        method: &str,
        args: &[u8],
    ) -> Result<Vec<u8>, ContractError> {
        let call = DexCall::decode(method, args)?;
        let admitted = call.caller_rule().admit(ctx, self.attestation)?;
        match call {
            DexCall::Init(a) => reply(a, |a| self.init(ctx, a)),
            DexCall::RegisterPod(a) => reply(a, |a| self.register_pod(ctx, a)),
            DexCall::GetPod(a) => reply(a, |a| self.get_pod(ctx, a)),
            DexCall::RegisterResource(a) => reply(a, |a| self.register_resource(ctx, a)),
            DexCall::LookupResource(a) => reply(a, |a| self.lookup_resource(ctx, a)),
            DexCall::ListResources(a) => reply(a, |_| self.list_resources(ctx)),
            DexCall::UpdatePolicy(a) => {
                reply(a, |a| self.update_policy(ctx, a, admitted.resource()?))
            }
            DexCall::RegisterCopy(a) => reply(a, |a| self.register_copy(ctx, a)),
            DexCall::UnregisterCopy(a) => {
                reply(a, |a| self.unregister_copy(ctx, a, admitted.copy()?))
            }
            DexCall::ListCopies(a) => reply(a, |a| self.list_copies(ctx, a)),
            DexCall::StartMonitoring(a) => reply(a, |a| self.start_monitoring(ctx, a)),
            DexCall::RecordEvidence(a) => reply(a, |a| self.record_evidence(ctx, a)),
            DexCall::ReaffirmEvidence(a) => reply(a, |a| self.reaffirm_evidence(ctx, a)),
            DexCall::GetRound(a) => reply(a, |a| self.get_round(ctx, a)),
            DexCall::Subscribe(a) => reply(a, |a| self.subscribe(ctx, a)),
            DexCall::VerifyCertificate(a) => reply(a, |a| self.verify_certificate(ctx, a)),
            DexCall::GetSubscription(a) => reply(a, |a| self.get_subscription(ctx, a)),
        }
    }
}
