//! The DE App's call table: each `DistExchange` method's name, argument
//! struct and return type, declared once.
//!
//! A row reads `Variant(Args) = "name" -> Output { field: Type, … }`. The
//! fields are listed in wire order, and a struct encodes as its fields one
//! after another, exactly like the argument tuple it replaced; a row with no
//! field list reuses a struct of [`crate::abi`]. From the table come
//! [`DexCall`] with `name()`, `encode_args()` and `decode()`, one `From`
//! impl per argument struct, and [`DexMethod`], which gives each argument
//! struct its method's return type. The contract's dispatch, the
//! access-set derivation and the client all read the decoded call, so none
//! of them spells a method name.

use duc_blockchain::{Address, ContractError};
use duc_codec::{decode_from_slice, encode_to_vec, impl_codec_struct, Decode, Encode};
use duc_crypto::{Digest, PublicKey};
use duc_sim::SimTime;

use crate::abi::{
    CopyRecord, EvidenceReaffirmation, EvidenceSubmission, MonitoringRound, PodRecord,
    PolicyEnvelope, ResourceRecord, Subscription,
};

/// A DE App method's argument struct, and the type its return data decodes
/// to.
pub trait DexMethod: Into<DexCall> {
    /// The method's return value.
    type Output: Encode + Decode;
}

macro_rules! dex_calls {
    ($(
        $(#[$doc:meta])*
        $variant:ident($args:ident) = $name:literal -> $out:ty
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
    Init(Init) = "init" -> () {
        fee: u128,
        validity_nanos: u64,
        treasury: Address,
    };
    /// Registers a pod (paper process 1).
    RegisterPod(RegisterPod) = "register_pod" -> () {
        owner_webid: String,
        web_ref: String,
        default_policy: PolicyEnvelope,
    };
    /// Reads a pod record.
    GetPod(GetPod) = "get_pod" -> Option<PodRecord> { owner_webid: String };
    /// Adds a resource to the index (paper process 2).
    RegisterResource(RegisterResource) = "register_resource" -> () {
        resource: String,
        location: String,
        owner_webid: String,
        metadata: Vec<(String, String)>,
        policy: PolicyEnvelope,
    };
    /// Reads a resource record (paper process 3).
    LookupResource(LookupResource) = "lookup_resource" -> Option<ResourceRecord> {
        resource: String,
    };
    /// Lists the indexed resource IRIs of one chain.
    ListResources(ListResources) = "list_resources" -> Vec<String> {};
    /// Replaces a resource's policy (paper process 5).
    UpdatePolicy(UpdatePolicy) = "update_policy" -> () {
        resource: String,
        policy: PolicyEnvelope,
        new_version: u64,
    };
    /// Records a device's copy of a resource (after paper process 4).
    RegisterCopy(RegisterCopy) = "register_copy" -> () {
        resource: String,
        device: String,
        holder_webid: String,
        attestation_key: PublicKey,
    };
    /// Drops a copy registered before `as_of`, the deletion instant;
    /// returns whether it did (a re-access that raced the deletion keeps
    /// its newer registration).
    UnregisterCopy(UnregisterCopy) = "unregister_copy" -> bool {
        resource: String,
        device: String,
        as_of: SimTime as (SimTime::as_nanos, SimTime::from_nanos),
    };
    /// Lists the devices holding copies of a resource.
    ListCopies(ListCopies) = "list_copies" -> Vec<CopyRecord> { resource: String };
    /// Opens a monitoring round (paper process 6); returns its number.
    StartMonitoring(StartMonitoring) = "start_monitoring" -> u64 { resource: String };
    /// Records a device's signed evidence for a round.
    RecordEvidence(EvidenceSubmission) = "record_evidence" -> ();
    /// Carries a device's compliant evidence forward from an earlier round.
    ReaffirmEvidence(EvidenceReaffirmation) = "reaffirm_evidence" -> ();
    /// Reads a monitoring round.
    GetRound(GetRound) = "get_round" -> Option<MonitoringRound> {
        resource: String,
        round: u64,
    };
    /// Buys a market subscription; returns its certificate.
    Subscribe(Subscribe) = "subscribe" -> Digest { webid: String };
    /// Whether a certificate is a valid one of a WebID's.
    VerifyCertificate(VerifyCertificate) = "verify_certificate" -> bool {
        certificate: Digest,
        webid: String,
    };
    /// Reads a subscription.
    GetSubscription(GetSubscription) = "get_subscription" -> Option<Subscription> {
        webid: String,
    };
}
