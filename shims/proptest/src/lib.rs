//! Offline stand-in for the `proptest` subset this workspace uses.
//!
//! Supports the `proptest! { #![proptest_config(...)] #[test] fn f(x in
//! strategy) {..} }` macro form, range / tuple / `Just` / string-pattern
//! strategies, `collection::vec`, `prop_map` / `prop_flat_map`, and the
//! `prop_assert*` family. Differences from the real crate, deliberate
//! for an offline shim:
//!
//! * generation is seeded deterministically from the test's module path
//!   and name, so every run (and every machine) sees the same cases;
//! * failing cases are reported but not shrunk.

pub mod strategy;

pub mod test_runner;

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Number-of-elements parameter for [`vec`]: a fixed size or a range.
    pub trait SizeRange {
        /// Choose a concrete length.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for std::ops::Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty size range");
            self.start + (rng.next_u64() as usize) % (self.end - self.start)
        }
    }

    impl SizeRange for std::ops::RangeInclusive<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            let (lo, hi) = (*self.start(), *self.end());
            assert!(lo <= hi, "empty size range");
            lo + (rng.next_u64() as usize) % (hi - lo + 1)
        }
    }

    /// Strategy producing a `Vec` of `size` elements drawn from `element`.
    pub fn vec<S: Strategy, Z: SizeRange>(element: S, size: Z) -> VecStrategy<S, Z> {
        VecStrategy { element, size }
    }

    /// See [`vec`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S, Z> {
        element: S,
        size: Z,
    }

    impl<S: Strategy, Z: SizeRange> Strategy for VecStrategy<S, Z> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Everything a test module needs: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

/// Declare deterministic property tests. Mirrors the real macro's
/// `#![proptest_config(..)]` header and `arg in strategy` signatures.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg = $cfg;
            let mut __rng = $crate::test_runner::TestRng::from_seed(
                $crate::test_runner::seed_from_name(concat!(
                    module_path!(),
                    "::",
                    stringify!($name)
                )),
            );
            for __case in 0..__cfg.cases {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)+
                let __result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                match __result {
                    ::std::result::Result::Ok(()) => {}
                    ::std::result::Result::Err(__e) => ::std::panic!(
                        "proptest '{}' failed at case {}/{}: {}",
                        stringify!($name),
                        __case + 1,
                        __cfg.cases,
                        __e
                    ),
                }
            }
        }
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
}

/// Assert inside a `proptest!` body; failure reports the case number.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!($($fmt)*),
            ));
        }
    };
}

/// Equality assert inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            __l,
            __r
        );
    }};
}
