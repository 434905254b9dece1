//! A workspace-local, dependency-free stand-in for the `proptest` crate.
//!
//! The build environment cannot reach crates.io, so this vendors the
//! subset of the proptest API the workspace's property tests use: the
//! [`proptest!`] macro, `prop_assert!`/`prop_assert_eq!`, [`any`],
//! integer-range and tuple strategies,
//! [`Strategy::prop_map`](crate::strategy::Strategy::prop_map),
//! [`collection::vec`] and [`option::weighted`].
//!
//! Inputs are drawn from a deterministic RNG seeded from the test's
//! module path and name, so failures reproduce exactly on re-run. There
//! is no shrinking: a failing case panics with the generated values
//! visible in the assertion message, which has proven sufficient for the
//! invariants tested here.

#![warn(missing_docs)]

/// Test-execution configuration, mirroring `proptest::test_runner`.
pub mod test_runner {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// How many random cases each property runs.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of generated inputs per property.
        pub cases: u32,
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 256 }
        }
    }

    impl Config {
        /// A config running `cases` inputs per property.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    /// The RNG handed to strategies while generating one case.
    #[derive(Debug)]
    pub struct TestRng(pub(crate) StdRng);

    impl TestRng {
        /// Deterministic construction from a 64-bit seed.
        pub fn from_seed(seed: u64) -> Self {
            TestRng(StdRng::seed_from_u64(seed))
        }
    }
}

/// Value-generation strategies, mirroring `proptest::strategy`.
pub mod strategy {
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// Something that can generate values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Generate one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// A strategy generating `f(x)` for `x` from `self`.
        fn prop_map<T, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// The [`Strategy::prop_map`] adapter.
    #[derive(Debug)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            (self.f)(self.inner.sample(rng))
        }
    }

    macro_rules! impl_range_strategies {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    rng.0.gen_range(self.clone())
                }
            }

            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    rng.0.gen_range(self.clone())
                }
            }

            impl Strategy for core::ops::RangeFrom<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    rng.0.gen_range(self.start..=<$t>::MAX)
                }
            }
        )*};
    }

    impl_range_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    // Floats get the two bounded forms only (no `RangeFrom`: an upper
    // bound of `f64::MAX` is never what a property means).
    impl Strategy for core::ops::Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            rng.0.gen_range(self.clone())
        }
    }

    impl Strategy for core::ops::RangeInclusive<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            rng.0.gen_range(self.clone())
        }
    }

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    #[allow(non_snake_case, reason = "the bindings reuse the type parameters' names")]
                    let ($($name,)+) = self;
                    ($($name.sample(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);
}

/// `any::<T>()` support, mirroring `proptest::arbitrary`.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use core::marker::PhantomData;
    use rand::{Rng, RngCore};

    /// Types with a canonical "anything goes" strategy.
    pub trait Arbitrary: Sized {
        /// Generate one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.0.gen::<$t>()
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool);

    impl<const N: usize> Arbitrary for [u8; N] {
        fn arbitrary(rng: &mut TestRng) -> Self {
            let mut out = [0u8; N];
            rng.0.fill_bytes(&mut out);
            out
        }
    }

    /// The strategy returned by [`any`](crate::any).
    #[derive(Debug)]
    pub struct Any<T>(PhantomData<T>);

    impl<T> Default for Any<T> {
        fn default() -> Self {
            Any(PhantomData)
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

/// The strategy generating any value of `T`.
pub fn any<T: arbitrary::Arbitrary>() -> arbitrary::Any<T> {
    arbitrary::Any::default()
}

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// Strategy producing `Vec`s with lengths drawn from `size`.
    #[derive(Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: core::ops::Range<usize>,
    }

    /// `Vec`s of values from `element`, with length in `size`.
    pub fn vec<S: Strategy>(element: S, size: core::ops::Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty vec size range");
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.0.gen_range(self.size.clone());
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// `Option` strategies, mirroring `proptest::option`.
pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// Strategy producing `Some` with a fixed probability.
    #[derive(Debug)]
    pub struct WeightedOption<S> {
        some_probability: f64,
        inner: S,
    }

    /// `Some(x)` with probability `some_probability`, else `None`.
    pub fn weighted<S: Strategy>(some_probability: f64, inner: S) -> WeightedOption<S> {
        WeightedOption { some_probability, inner }
    }

    impl<S: Strategy> Strategy for WeightedOption<S> {
        type Value = Option<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.0.gen_bool(self.some_probability) {
                Some(self.inner.sample(rng))
            } else {
                None
            }
        }
    }
}

/// A stable 64-bit hash of the test path, used as the per-test base seed.
pub fn seed_for(name: &str) -> u64 {
    // FNV-1a.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Define property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `body` over `Config::cases` random inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::test_runner::Config::default()) $($rest)* }
    };
}

/// Internal expansion helper for [`proptest!`]. Not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $(
          $(#[$meta:meta])*
          fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                #[allow(unused_imports, reason = "a body without strategies leaves the trait unused")]
                use $crate::strategy::Strategy as _;
                let __config: $crate::test_runner::Config = $cfg;
                let __base = $crate::seed_for(concat!(module_path!(), "::", stringify!($name)));
                for __case in 0..__config.cases {
                    let mut __rng = $crate::test_runner::TestRng::from_seed(
                        __base ^ (u64::from(__case)).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                    );
                    $(let $arg = ($strat).sample(&mut __rng);)*
                    $body
                }
            }
        )*
    };
}

/// Property assertion; panics (no shrinking) with the formatted message.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Property equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Property inequality assertion.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Everything a property-test module needs, mirroring
/// `proptest::prelude`.
pub mod prelude {
    pub use crate::any;
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u8..9, y in 10u16..=20, z in 1u64..) {
            prop_assert!((3..9).contains(&x));
            prop_assert!((10..=20).contains(&y));
            prop_assert!(z >= 1);
        }

        #[test]
        fn tuples_and_map_compose(
            pair in (0u8..4, 0u8..4),
            mapped in (0u32..10).prop_map(|v| v * 2),
        ) {
            prop_assert!(pair.0 < 4 && pair.1 < 4);
            prop_assert!(mapped % 2 == 0 && mapped < 20);
        }

        #[test]
        fn vec_and_weighted_option(
            v in crate::collection::vec(crate::option::weighted(0.5, 0u8..5), 0..16),
        ) {
            prop_assert!(v.len() < 16);
            for x in v.into_iter().flatten() {
                prop_assert!(x < 5);
            }
        }
    }

    #[test]
    fn seeds_are_stable() {
        assert_eq!(super::seed_for("abc"), super::seed_for("abc"));
        assert_ne!(super::seed_for("abc"), super::seed_for("abd"));
    }
}
