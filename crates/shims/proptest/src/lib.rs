//! Minimal offline stand-in for the parts of `proptest` this workspace's
//! property tests use.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors this shim as a path dependency under the `proptest`
//! name. It implements randomized case generation without shrinking:
//!
//! * the [`proptest!`] macro (with optional `#![proptest_config(...)]`);
//! * [`strategy::Strategy`] with `prop_map`, tuple and boxed strategies;
//! * `any::<T>()` for integers, `bool`, and `[u8; N]`;
//! * integer range strategies (`0u64..10`, `1u8..=255`, `2u64..`);
//! * [`collection::vec`] and the [`prop_oneof!`] union;
//! * `prop_assert!` / `prop_assert_eq!` / `prop_assert_ne!` /
//!   `prop_assume!`.
//!
//! Failing cases panic with the assertion message (no shrinking); seeds
//! are derived from the test name so runs are reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// Re-exported for the `proptest!` macro expansion: consuming crates need a
// stable path to the generator without depending on `rand` themselves.
#[doc(hidden)]
pub use rand as __rand;

pub mod strategy {
    //! Value-generation strategies.

    use rand::rngs::SmallRng;
    use rand::{Rng, RngCore};
    use std::ops::{Range, RangeFrom, RangeInclusive};

    /// Generates values of an associated type from a random stream.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut SmallRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Boxes the strategy behind a trait object.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// A boxed, type-erased strategy.
    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut SmallRng) -> T {
            (**self).generate(rng)
        }
    }

    /// Strategy produced by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut SmallRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        /// Draws an arbitrary value.
        fn arbitrary(rng: &mut SmallRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($ty:ty),*) => {$(
            impl Arbitrary for $ty {
                #[allow(clippy::cast_possible_truncation)]
                fn arbitrary(rng: &mut SmallRng) -> Self {
                    rng.next_u64() as $ty
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut SmallRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    impl<const N: usize> Arbitrary for [u8; N] {
        fn arbitrary(rng: &mut SmallRng) -> Self {
            let mut out = [0u8; N];
            for chunk in out.chunks_mut(8) {
                let bytes = rng.next_u64().to_le_bytes();
                chunk.copy_from_slice(&bytes[..chunk.len()]);
            }
            out
        }
    }

    /// Strategy returned by [`any`].
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut SmallRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }

    /// [`Strategy`] that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut SmallRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategies {
        ($($ty:ty),*) => {$(
            impl Strategy for Range<$ty> {
                type Value = $ty;
                fn generate(&self, rng: &mut SmallRng) -> $ty {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for RangeInclusive<$ty> {
                type Value = $ty;
                fn generate(&self, rng: &mut SmallRng) -> $ty {
                    let (start, end) = (*self.start(), *self.end());
                    if end < <$ty>::MAX {
                        rng.gen_range(start..end + 1)
                    } else if start > <$ty>::MIN {
                        // Shift down to avoid overflowing the exclusive end.
                        rng.gen_range(start - 1..end) + 1
                    } else {
                        // Full domain.
                        #[allow(clippy::cast_possible_truncation)]
                        { rng.next_u64() as $ty }
                    }
                }
            }
            impl Strategy for RangeFrom<$ty> {
                type Value = $ty;
                fn generate(&self, rng: &mut SmallRng) -> $ty {
                    (self.start..=<$ty>::MAX).generate(rng)
                }
            }
        )*};
    }
    impl_range_strategies!(u8, u16, u32, u64, usize);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            #[allow(non_snake_case)]
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut SmallRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
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

    /// Equal-weight union over boxed strategies (built by
    /// [`prop_oneof!`](crate::prop_oneof)).
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Builds a union; panics if `options` is empty.
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Self { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut SmallRng) -> T {
            let idx = rng.gen_range(0..self.options.len());
            self.options[idx].generate(rng)
        }
    }
}

pub mod collection {
    //! Collection strategies.

    use super::strategy::Strategy;
    use rand::rngs::SmallRng;
    use rand::Rng;
    use std::ops::Range;

    /// Strategy for `Vec<T>` with a length drawn from `len`.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// Generates vectors whose elements come from `element` and whose
    /// length is uniform in `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut SmallRng) -> Vec<S::Value> {
            let n = rng.gen_range(self.len.clone());
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod test_runner {
    //! Test-case execution support used by the [`crate::proptest!`] macro.

    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Runner configuration (only the case count is honoured).
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of random cases each property runs.
        pub cases: u32,
    }

    impl Config {
        /// A configuration running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Self { cases: 256 }
        }
    }

    /// Deterministic per-test generator (FNV-1a over the test name).
    pub fn rng_for(test_name: &str) -> SmallRng {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
        SmallRng::seed_from_u64(hash)
    }
}

pub mod prelude {
    //! The imports property tests conventionally glob in.

    pub use crate::collection;
    pub use crate::strategy::{any, Arbitrary, BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Asserts a condition inside a property (panics on failure; no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

/// Skips the current case when the assumption does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
}

/// Equal-weight choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}

/// Declares property tests: each `fn name(pat in strategy, ...)` body runs
/// for `cases` randomly generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@run $config; $($rest)*);
    };
    (@run $config:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        #[test]
        fn $name() {
            let config = $config;
            let mut rng = $crate::test_runner::rng_for(concat!(module_path!(), "::", stringify!($name)));
            for _case in 0..config.cases {
                // One closure per case so `prop_assume!` can skip via return.
                let case = |rng: &mut $crate::__rand::rngs::SmallRng| {
                    let ($($pat,)+) = (
                        $($crate::strategy::Strategy::generate(&$strategy, rng),)+
                    );
                    $body
                };
                case(&mut rng);
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@run $crate::test_runner::Config::default(); $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(a in 3u64..17, b in 1u8..=255, c in 0usize..5) {
            prop_assert!((3..17).contains(&a));
            prop_assert!(b >= 1);
            prop_assert!(c < 5);
        }

        #[test]
        fn assume_skips(a in 0u32..10, b in 0u32..10) {
            prop_assume!(a != b);
            prop_assert_ne!(a, b);
        }

        #[test]
        fn vec_and_oneof_compose(v in collection::vec(prop_oneof![0u8..4, 10u8..14], 1..20)) {
            prop_assert!(!v.is_empty() && v.len() < 20);
            prop_assert!(v.iter().all(|&x| x < 4 || (10..14).contains(&x)));
        }

        #[test]
        fn tuples_and_map(pair in (0u16..50, any::<bool>()).prop_map(|(n, neg)| if neg { 0 } else { n })) {
            prop_assert!(pair < 50);
        }
    }

    proptest! {
        #[test]
        fn default_config_runs(x in any::<[u8; 16]>()) {
            prop_assert_eq!(x.len(), 16);
        }
    }
}
