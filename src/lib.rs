//! Umbrella crate for the Solid usage-control reproduction.
//!
//! Re-exports every workspace crate under one namespace so that examples
//! and integration tests can `use solid_usage_control::prelude::*`.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub use duc_blockchain as blockchain;
pub use duc_codec as codec;
pub use duc_contracts as contracts;
pub use duc_core as core;
pub use duc_crypto as crypto;
pub use duc_oracle as oracle;
pub use duc_policy as policy;
pub use duc_rdf as rdf;
pub use duc_runtime as runtime;
pub use duc_sim as sim;
pub use duc_solid as solid;
pub use duc_tee as tee;

/// Convenience prelude bringing the most common types into scope.
pub mod prelude {
    pub use duc_core::prelude::*;
}
