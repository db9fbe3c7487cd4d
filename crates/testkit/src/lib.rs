//! # duc-testkit — in-repo proptest-compatible harness
//!
//! The build environment is fully offline, so the workspace cannot fetch
//! `proptest` from crates.io. This crate implements the API subset the
//! repository's property-test suites actually use, in the seed's own
//! hand-rolled style (everything is seeded through `duc_sim`'s
//! xoshiro256++ RNG and therefore bit-for-bit reproducible).
//!
//! Manifests alias it under the upstream name, so suites keep their
//! stock imports:
//!
//! ```toml
//! [dev-dependencies]
//! proptest = { path = "../testkit", package = "duc-testkit" }
//! ```
//!
//! Property testing: [`proptest!`], [`prop_oneof!`], the `prop_assert*`
//! macros, [`strategy::Strategy`] with `prop_map`/`prop_filter`/
//! `prop_flat_map`/`boxed`, [`strategy::Just`], [`strategy::any`],
//! [`collection::vec`], [`option::of`] and
//! [`test_runner::ProptestConfig`]. Shrinking is seed-based and
//! deterministic: the same seed always reports the same minimal failing
//! case.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod collection;
pub mod option;
mod pattern;
pub mod strategy;
pub mod test_runner;

/// Everything a property-test suite needs in scope.
pub mod prelude {
    pub use crate::strategy::{any, Arbitrary, BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Declares property tests. Each `fn name(binding in strategy, ...)` body
/// runs once per generated case; the optional leading
/// `#![proptest_config(...)]` sets the case count for the block.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)]
     $($(#[$meta:meta])*
       fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
     )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config = $config;
                $crate::test_runner::run_proptest(
                    &__config,
                    concat!(module_path!(), "::", stringify!($name)),
                    |__rng, __size| {
                        ($($crate::strategy::Strategy::generate(&($strategy), __rng, __size),)+)
                    },
                    |($($arg,)+)| {
                        $body
                        ::std::result::Result::Ok(())
                    },
                )
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest! {
            #![proptest_config($crate::test_runner::ProptestConfig::default())]
            $($rest)*
        }
    };
}

/// Chooses between strategies, optionally weighted: `prop_oneof![a, b]`
/// or `prop_oneof![3 => a, 1 => b]`.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $((($weight) as u32, $crate::strategy::Strategy::boxed($strategy))),+
        ])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strategy))),+
        ])
    };
}

/// Asserts inside a property body; failures become shrinkable test-case
/// errors instead of immediate panics.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// `prop_assert!` for equality, with a `left`/`right` diagnostic.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `(left == right)`\n  left: {:?}\n right: {:?}",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `(left == right)`\n  left: {:?}\n right: {:?}\n{}",
            left,
            right,
            format!($($fmt)*)
        );
    }};
}

/// `prop_assert!` for inequality.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `(left != right)`\n  both: {:?}",
            left
        );
    }};
}
