//! The DE App's call table: each `DistExchange` method's name, caller
//! rule, argument struct and return type, declared once.
//!
//! A row reads `Variant(Args) = "name" by Rule -> Output { field: Type, … }`.
//! The fields are listed in wire order, and a struct encodes as its fields one
//! after another, exactly like the argument tuple it replaced; a row with no
//! field list reuses a struct of [`crate::abi`]. From the table come
//! [`DexCall`] with `name()`, `encode_args()`, `decode()` and
//! `caller_rule()`, one `From` impl per argument struct, and [`DexMethod`],
//! which gives each argument struct its method's return type. The
//! contract's dispatch, the access-set derivation and the client all read
//! the decoded call, so none of them spells a method name.
//!
//! `by Rule` is the caller column: who may call the method, as a
//! [`CallerRule`] over the call's own arguments. A row without one does not
//! compile. `DistExchange::call` admits the caller by that rule before the
//! method runs (`CallerRule::admit`) and hands the method the row the
//! rule read, so no method body compares the caller with anything. Rules
//! that refuse in words particular to a method (`ResourceOwner`,
//! `CopyKey`) carry those words in the row: `by ResourceOwner("only the
//! owner may …")`.

use duc_blockchain::{Address, CallCtx, ContractError};
use duc_codec::{
    decode_from_slice, encode_to_vec, encode_without_signature, impl_codec_struct, Decode, Encode,
};
use duc_crypto::{quote_signing_bytes, Digest, PublicKey, Signature};
use duc_sim::SimTime;

use crate::abi::{
    CopyRecord, EvidenceReaffirmation, EvidenceSubmission, MonitoringRound, PodRecord,
    PolicyEnvelope, ResourceRecord, Subscription,
};
use crate::dist_exchange::revert;
use crate::layout;
use crate::rows::{CopyRow, PodRow, ResourceRow, SubRow};

/// A DE App method's argument struct, and the type its return data decodes
/// to.
pub trait DexMethod: Into<DexCall> {
    /// The method's return value.
    type Output: Encode + Decode;
}

/// Who may call a DE App method — the call table's caller column — with
/// the arguments the rule is checked against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallerRule<'a> {
    /// Any account.
    Anyone,
    /// The address that registered the pod of `owner_webid`.
    PodOwner {
        /// The pod's owner WebID.
        owner_webid: &'a str,
    },
    /// The address that registered `resource`.
    ResourceOwner {
        /// The resource IRI.
        resource: &'a str,
        /// The revert a caller other than the owner gets.
        refusal: &'static str,
    },
    /// A device whose attestation key the deployment's attestation
    /// authority quoted, for the deployment's trusted measurement.
    QuotedEnclave {
        /// The quoted device.
        device: &'a str,
        /// The enclave key the quote binds to the device.
        attestation_key: &'a PublicKey,
        /// The authority's signature over [`quote_signing_bytes`].
        quote: &'a Signature,
    },
    /// Whoever holds the attestation key of the registered copy of
    /// `resource` on `device`: the arguments carry its signature over
    /// their own encoding.
    CopyKey {
        /// The copied resource.
        resource: &'a str,
        /// The device holding the copy.
        device: &'a str,
        /// The signed bytes: the arguments less their signature.
        signed: Vec<u8>,
        /// The copy key's signature.
        signature: &'a Signature,
        /// The revert a signature that does not verify gets.
        refusal: &'static str,
    },
    /// Any account, unless another address holds a live subscription for
    /// `webid`.
    CertificateHolder {
        /// The WebID the certificate is bought for.
        webid: &'a str,
    },
}

/// What a caller rule read to admit a call, handed on to the method so
/// that no slot is read twice.
pub(crate) enum Admitted {
    /// The rule read nothing the method needs.
    Nothing,
    /// The resource row `ResourceOwner` read.
    Resource(ResourceRow),
    /// The copy row `CopyKey` read.
    Copy(CopyRow),
}

impl Admitted {
    /// The resource row, for a method whose row names `ResourceOwner`.
    pub(crate) fn resource(self) -> Result<ResourceRow, ContractError> {
        match self {
            Admitted::Resource(row) => Ok(row),
            _ => Err(revert("caller rule read no resource row")),
        }
    }

    /// The copy row, for a method whose row names `CopyKey`.
    pub(crate) fn copy(self) -> Result<CopyRow, ContractError> {
        match self {
            Admitted::Copy(row) => Ok(row),
            _ => Err(revert("caller rule read no copy row")),
        }
    }
}

impl CallerRule<'_> {
    /// Admits `ctx.caller` by this rule, before the method runs.
    /// `attestation` is the deployment's attestation authority key and
    /// trusted measurement; a deployment without one admits no
    /// `QuotedEnclave` call.
    ///
    /// # Errors
    /// [`ContractError::Reverted`] when the rule refuses the caller, or the
    /// row it checks against does not exist.
    pub(crate) fn admit(
        self,
        ctx: &mut CallCtx<'_>,
        attestation: Option<(PublicKey, Digest)>,
    ) -> Result<Admitted, ContractError> {
        let caller = ctx.caller;
        match self {
            CallerRule::Anyone => Ok(Admitted::Nothing),
            CallerRule::PodOwner { owner_webid } => {
                let pod: PodRow = ctx
                    .get(&layout::pod(owner_webid))?
                    .ok_or_else(|| revert(format!("no pod registered for {owner_webid}")))?;
                if pod.owner_addr != caller {
                    return Err(revert("caller does not own the pod"));
                }
                Ok(Admitted::Nothing)
            }
            CallerRule::ResourceOwner { resource, refusal } => {
                let row: ResourceRow = ctx
                    .get(&layout::res(resource))?
                    .ok_or_else(|| revert(format!("unknown resource {resource}")))?;
                if row.owner_addr != caller {
                    return Err(revert(refusal));
                }
                Ok(Admitted::Resource(row))
            }
            CallerRule::QuotedEnclave {
                device,
                attestation_key,
                quote,
            } => {
                let quoted = attestation.is_some_and(|(authority, measurement)| {
                    let signed = quote_signing_bytes(device, &measurement, attestation_key);
                    authority.verify(&signed, quote).is_ok()
                });
                if !quoted {
                    return Err(revert(
                        "QuotedEnclave: no attestation quote for this device and key",
                    ));
                }
                Ok(Admitted::Nothing)
            }
            CallerRule::CopyKey {
                resource,
                device,
                signed,
                signature,
                refusal,
            } => {
                let copy: CopyRow = ctx
                    .get(&layout::copy(resource, device))?
                    .ok_or_else(|| revert("copy no longer registered"))?;
                if copy.attestation_key.verify(&signed, signature).is_err() {
                    return Err(revert(refusal));
                }
                Ok(Admitted::Copy(copy))
            }
            CallerRule::CertificateHolder { webid } => {
                let sub: Option<SubRow> = ctx.get(&layout::sub(webid))?;
                if sub.is_some_and(|s| s.addr != caller && s.valid_at(ctx.block_time)) {
                    return Err(revert(
                        "CertificateHolder: another address holds a live subscription for this WebID",
                    ));
                }
                Ok(Admitted::Nothing)
            }
        }
    }
}

/// One row's caller rule over its decoded arguments `$a`: which argument
/// fields each rule reads is written here, once.
macro_rules! caller_rule {
    ($a:ident, Anyone) => {{
        let _ = $a;
        CallerRule::Anyone
    }};
    ($a:ident, PodOwner) => {
        CallerRule::PodOwner {
            owner_webid: &$a.owner_webid,
        }
    };
    ($a:ident, ResourceOwner($refusal:literal)) => {
        CallerRule::ResourceOwner {
            resource: &$a.resource,
            refusal: $refusal,
        }
    };
    ($a:ident, QuotedEnclave) => {
        CallerRule::QuotedEnclave {
            device: &$a.device,
            attestation_key: &$a.attestation_key,
            quote: &$a.quote,
        }
    };
    ($a:ident, CopyKey($refusal:literal)) => {
        CallerRule::CopyKey {
            resource: &$a.resource,
            device: &$a.device,
            signed: encode_without_signature($a),
            signature: &$a.signature,
            refusal: $refusal,
        }
    };
    ($a:ident, CertificateHolder) => {
        CallerRule::CertificateHolder { webid: &$a.webid }
    };
}

macro_rules! dex_calls {
    ($(
        $(#[$doc:meta])*
        $variant:ident($args:ident) = $name:literal by $rule:ident $(($refusal:literal))? -> $out:ty
        $({ $($field:ident: $ty:ty $(as ($to:path, $from:path))?),* $(,)? })?;
    )*) => {
        $(
            $(
                #[doc = concat!("The arguments of `", $name, "`.")]
                #[derive(Debug, Clone, PartialEq, Eq)]
                pub struct $args {
                    $(pub $field: $ty,)*
                }
                impl_codec_struct!($args { $($field $(as ($to, $from))?),* });
            )?
            impl From<$args> for DexCall {
                fn from(args: $args) -> DexCall {
                    DexCall::$variant(args)
                }
            }
            impl DexMethod for $args {
                type Output = $out;
            }
        )*

        /// One decoded call of a DE App method.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum DexCall {
            $($(#[$doc])* $variant($args),)*
        }

        impl DexCall {
            /// The method's name, as a call transaction carries it.
            pub fn name(&self) -> &'static str {
                match self {
                    $(DexCall::$variant(_) => $name,)*
                }
            }

            /// Who may make this call, over its arguments (the row's
            /// `by` column).
            pub fn caller_rule(&self) -> CallerRule<'_> {
                match self {
                    $(DexCall::$variant(a) => caller_rule!(a, $rule $(($refusal))?),)*
                }
            }

            /// The argument bytes, as a call transaction carries them.
            pub fn encode_args(&self) -> Vec<u8> {
                match self {
                    $(DexCall::$variant(args) => encode_to_vec(args),)*
                }
            }

            /// Decodes a call from its method name and its whole argument
            /// bytes.
            ///
            /// # Errors
            /// [`ContractError::UnknownMethod`] for a name outside the
            /// table; [`ContractError::BadArguments`] for arguments that do
            /// not decode to the method's struct or leave bytes over.
            pub fn decode(method: &str, args: &[u8]) -> Result<DexCall, ContractError> {
                match method {
                    $($name => Ok(DexCall::$variant(decode_from_slice(args)?)),)*
                    other => Err(ContractError::UnknownMethod(other.to_string())),
                }
            }
        }
    };
}

dex_calls! {
    /// One-time market set-up: the subscription fee, how long a
    /// certificate stays valid and where fees go.
    Init(Init) = "init" by Anyone -> () {
        fee: u128,
        validity_nanos: u64,
        treasury: Address,
    };
    /// Registers a pod (paper process 1).
    RegisterPod(RegisterPod) = "register_pod" by Anyone -> () {
        owner_webid: String,
        web_ref: String,
        default_policy: PolicyEnvelope,
    };
    /// Reads a pod record.
    GetPod(GetPod) = "get_pod" by Anyone -> Option<PodRecord> { owner_webid: String };
    /// Adds a resource to the index (paper process 2).
    RegisterResource(RegisterResource) = "register_resource" by PodOwner -> () {
        resource: String,
        location: String,
        owner_webid: String,
        metadata: Vec<(String, String)>,
        policy: PolicyEnvelope,
    };
    /// Reads a resource record (paper process 3).
    LookupResource(LookupResource) = "lookup_resource" by Anyone -> Option<ResourceRecord> {
        resource: String,
    };
    /// Lists the indexed resource IRIs of one chain.
    ListResources(ListResources) = "list_resources" by Anyone -> Vec<String> {};
    /// Replaces a resource's policy (paper process 5).
    UpdatePolicy(UpdatePolicy) = "update_policy"
        by ResourceOwner("only the owner may update the policy") -> () {
        resource: String,
        policy: PolicyEnvelope,
        new_version: u64,
    };
    /// Records a device's copy of a resource (after paper process 4).
    /// `quote` is the attestation authority's signature over
    /// [`quote_signing_bytes`] of the device, the deployment's trusted
    /// measurement and `attestation_key`.
    RegisterCopy(RegisterCopy) = "register_copy" by QuotedEnclave -> () {
        resource: String,
        device: String,
        holder_webid: String,
        attestation_key: PublicKey,
        quote: Signature,
    };
    /// Drops a copy registered before `as_of`, the deletion instant;
    /// returns whether it did (a re-access that raced the deletion keeps
    /// its newer registration). The copy's enclave signs the arguments.
    UnregisterCopy(UnregisterCopy) = "unregister_copy"
        by CopyKey("CopyKey: unregister signature does not verify") -> bool {
        resource: String,
        device: String,
        as_of: SimTime as (SimTime::as_nanos, SimTime::from_nanos),
        signature: Signature,
    };
    /// Lists the devices holding copies of a resource.
    ListCopies(ListCopies) = "list_copies" by Anyone -> Vec<CopyRecord> { resource: String };
    /// Opens a monitoring round (paper process 6); returns its number.
    StartMonitoring(StartMonitoring) = "start_monitoring"
        by ResourceOwner("only the owner may start monitoring") -> u64 { resource: String };
    /// Records a device's signed evidence for a round.
    RecordEvidence(EvidenceSubmission) = "record_evidence"
        by CopyKey("evidence signature does not verify") -> ();
    /// Carries a device's compliant evidence forward from an earlier round.
    ReaffirmEvidence(EvidenceReaffirmation) = "reaffirm_evidence"
        by CopyKey("reaffirmation signature does not verify") -> ();
    /// Reads a monitoring round.
    GetRound(GetRound) = "get_round" by Anyone -> Option<MonitoringRound> {
        resource: String,
        round: u64,
    };
    /// Buys a market subscription; returns its certificate.
    Subscribe(Subscribe) = "subscribe" by CertificateHolder -> Digest { webid: String };
    /// Whether a certificate is a valid one of a WebID's.
    VerifyCertificate(VerifyCertificate) = "verify_certificate" by Anyone -> bool {
        certificate: Digest,
        webid: String,
    };
    /// Reads a subscription.
    GetSubscription(GetSubscription) = "get_subscription" by Anyone -> Option<Subscription> {
        webid: String,
    };
}

impl UnregisterCopy {
    /// The arguments, signed with `sign` by the copy's enclave over their
    /// encoding less the signature.
    pub fn signed(
        resource: String,
        device: String,
        as_of: SimTime,
        sign: impl FnOnce(&[u8]) -> Signature,
    ) -> UnregisterCopy {
        let mut call = UnregisterCopy {
            resource,
            device,
            as_of,
            signature: Signature { e: 0, s: 0 },
        };
        call.signature = sign(&encode_without_signature(&call));
        call
    }
}
