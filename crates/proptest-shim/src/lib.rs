//! A minimal, dependency-free property-testing shim that is
//! **API-compatible with the subset of [proptest] this workspace
//! uses**. The build environment has no access to crates.io, so the
//! workspace vendors this stand-in instead of the real crate; test
//! files written against proptest compile unchanged.
//!
//! Scope (deliberately small):
//!
//! * the [`proptest!`] macro with an optional
//!   `#![proptest_config(...)]` header and `name in strategy`
//!   parameters;
//! * strategies: integer ranges (`2usize..5`, `-5i64..=5`),
//!   [`any`] for primitive types and [`sample::Index`],
//!   [`collection::vec`], [`sample::select`], [`Just`],
//!   [`Strategy::prop_map`], and [`prop_oneof!`];
//! * assertions: [`prop_assert!`], [`prop_assert_eq!`],
//!   [`prop_assert_ne!`], [`prop_assume!`].
//!
//! Unlike real proptest there is **no shrinking** and no persistence:
//! failures report the case's seed so a run can be replayed by rerunning
//! the (fully deterministic) test binary. Generation is driven by a
//! fixed-keyed SplitMix64, so every `cargo test` run sees the same
//! inputs — a property the rest of this workspace relies on anyway.
//!
//! [proptest]: https://docs.rs/proptest

#![warn(missing_docs)]

use core::fmt;

/// Deterministic generator state handed to strategies.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// The generator for one test case. Derivation is fixed so runs are
    /// reproducible.
    pub fn for_case(case: u64) -> Self {
        // Decorrelate consecutive case indices through one mix round.
        TestRng { state: case.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED_CAFE_F00D_5EED }
    }

    /// Next 64 uniformly distributed bits (SplitMix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `0..n`. Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Value generators. The real crate's `Strategy` is a tree of
/// shrinkable value sources; here it is simply "something that can
/// produce a value from a [`TestRng`]".
pub mod strategy {
    use super::TestRng;

    /// A source of generated values.
    pub trait Strategy {
        /// The type of value this strategy produces.
        type Value;

        /// Produce one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values with `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        /// Erase the concrete strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(move |rng| self.generate(rng)))
        }
    }

    /// A type-erased strategy (see [`Strategy::boxed`]).
    pub struct BoxedStrategy<T>(Box<dyn Fn(&mut TestRng) -> T>);

    impl<T> core::fmt::Debug for BoxedStrategy<T> {
        fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
            f.write_str("BoxedStrategy")
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    /// The strategy returned by [`Strategy::prop_map`].
    #[derive(Clone, Copy, Debug)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, U, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> U,
    {
        type Value = U;

        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Always produces a clone of the given value.
    #[derive(Clone, Copy, Debug)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Uniform choice among boxed alternatives (see [`prop_oneof!`](crate::prop_oneof)).
    #[derive(Debug)]
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// A union of the given alternatives. Panics if empty.
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.options.len() as u64) as usize;
            self.options[i].generate(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }

            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128 + 1) as u64;
                    (lo as i128 + rng.below(span) as i128) as $t
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// Types with a canonical "generate any value" strategy.
    pub trait Arbitrary: Sized {
        /// Generate an arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arbitrary_uint {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    arbitrary_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// The strategy returned by [`any`](crate::any).
    #[derive(Clone, Copy, Debug, Default)]
    pub struct Any<A>(core::marker::PhantomData<A>);

    impl<A> Any<A> {
        pub(crate) fn new() -> Self {
            Any(core::marker::PhantomData)
        }
    }

    impl<A: Arbitrary> Strategy for Any<A> {
        type Value = A;

        fn generate(&self, rng: &mut TestRng) -> A {
            A::arbitrary(rng)
        }
    }
}

/// A strategy producing any value of `A` (primitives and
/// [`sample::Index`]).
pub fn any<A: strategy::Arbitrary>() -> strategy::Any<A> {
    strategy::Any::new()
}

/// Re-export of [`strategy::Just`] at the crate root, as in proptest.
pub use strategy::Just;
pub use strategy::Strategy;

/// Collection strategies.
pub mod collection {
    use super::strategy::Strategy;
    use super::TestRng;

    /// A length range for [`vec()`], as in proptest: built from
    /// `usize` ranges (or a single exact length), so plain `0..6`
    /// literals infer as `usize`.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        /// Inclusive lower bound.
        min: usize,
        /// Inclusive upper bound.
        max: usize,
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.end > r.start, "empty length range");
            SizeRange { min: r.start, max: r.end - 1 }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange { min: *r.start(), max: *r.end() }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    /// A strategy for `Vec`s whose length is drawn from `len` and whose
    /// elements are drawn from `elem`.
    #[derive(Clone, Copy, Debug)]
    pub struct VecStrategy<S> {
        elem: S,
        len: SizeRange,
    }

    /// `vec(elem, 1..4)`: vectors of 1–3 elements from `elem`.
    pub fn vec<S>(elem: S, len: impl Into<SizeRange>) -> VecStrategy<S>
    where
        S: Strategy,
    {
        VecStrategy { elem, len: len.into() }
    }

    impl<S> Strategy for VecStrategy<S>
    where
        S: Strategy,
    {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.max - self.len.min) as u64 + 1;
            let n = self.len.min + (rng.next_u64() % span) as usize;
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// Sampling strategies.
pub mod sample {
    use super::strategy::{Arbitrary, Strategy};
    use super::TestRng;

    /// An index into a collection whose length is only known at use
    /// time: `ix.index(len)` is uniform in `0..len`.
    #[derive(Clone, Copy, Debug)]
    pub struct Index(u64);

    impl Index {
        /// Map this index into `0..len`. Panics if `len == 0`.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index(0)");
            (self.0 % len as u64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut TestRng) -> Self {
            Index(rng.next_u64())
        }
    }

    /// Uniform choice of one element of `items`.
    #[derive(Clone, Debug)]
    pub struct Select<T> {
        items: Vec<T>,
    }

    /// `select(items)`: a strategy choosing one element uniformly.
    /// Panics at generation time if `items` is empty.
    pub fn select<T: Clone>(items: impl Into<Vec<T>>) -> Select<T> {
        Select { items: items.into() }
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            assert!(!self.items.is_empty(), "select over an empty collection");
            let i = rng.below(self.items.len() as u64) as usize;
            self.items[i].clone()
        }
    }
}

/// `prop::` paths, as re-exported by the real crate's prelude.
pub mod prop {
    pub use crate::collection;
    pub use crate::sample;
}

/// The test runner: configuration, case errors, and the driving loop
/// used by the [`proptest!`] macro.
pub mod test_runner {
    use super::TestRng;

    /// Runner configuration. Only `cases` is honoured.
    #[derive(Clone, Copy, Debug)]
    pub struct ProptestConfig {
        /// Number of successful (non-rejected) cases required.
        pub cases: u32,
        /// Accepted for compatibility with the real crate's config;
        /// this shim does not shrink failing inputs.
        pub max_shrink_iters: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64, max_shrink_iters: 0 }
        }
    }

    /// Why a single test case did not pass.
    #[derive(Clone, Debug)]
    pub enum TestCaseError {
        /// The case's inputs did not satisfy a [`prop_assume!`](crate::prop_assume)
        /// precondition; the runner draws a fresh case instead.
        Reject(String),
        /// An assertion failed; the whole test fails.
        Fail(String),
    }

    impl TestCaseError {
        /// A failure with the given message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }

        /// A rejection with the given reason.
        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    /// Drive `f` until `config.cases` cases pass. Panics on the first
    /// failing case (no shrinking), reporting the case index so the
    /// deterministic run can be replayed.
    pub fn run_cases<F>(config: ProptestConfig, mut f: F)
    where
        F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
    {
        let mut accepted = 0u32;
        let mut rejected = 0u32;
        let mut case = 0u64;
        while accepted < config.cases {
            let mut rng = TestRng::for_case(case);
            match f(&mut rng) {
                Ok(()) => accepted += 1,
                Err(TestCaseError::Reject(_)) => {
                    rejected += 1;
                    let budget = config.cases.saturating_mul(16).saturating_add(256);
                    assert!(
                        rejected <= budget,
                        "too many prop_assume! rejections ({rejected}) — \
                         strategy and precondition are incompatible"
                    );
                }
                Err(TestCaseError::Fail(msg)) => {
                    panic!("proptest case #{case} failed: {msg}");
                }
            }
            case += 1;
        }
    }
}

pub use test_runner::{ProptestConfig, TestCaseError};

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
            TestCaseError::Fail(m) => write!(f, "failed: {m}"),
        }
    }
}

/// Everything a proptest-style test file needs.
pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest, Just,
    };
}

/// Define property tests. See the crate docs for the supported shape.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

/// Internal expansion helper for [`proptest!`]. Not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($config:expr)) => {};
    (
        ($config:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            $crate::test_runner::run_cases($config, |__rng| {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), __rng);)*
                let mut __case = move || -> ::core::result::Result<(), $crate::test_runner::TestCaseError> {
                    $body
                    #[allow(unreachable_code)]
                    ::core::result::Result::Ok(())
                };
                __case()
            });
        }
        $crate::__proptest_items! { ($config) $($rest)* }
    };
}

/// Choose uniformly among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($crate::strategy::Strategy::boxed($s)),+])
    };
}

/// Like `assert!`, but fails the current proptest case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Like `assert_eq!`, but fails the current proptest case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {
        match (&$a, &$b) {
            (__l, __r) => {
                $crate::prop_assert!(*__l == *__r, "{:?} != {:?}", __l, __r)
            }
        }
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        match (&$a, &$b) {
            (__l, __r) => {
                $crate::prop_assert!(
                    *__l == *__r,
                    "{:?} != {:?}: {}", __l, __r, format!($($fmt)*)
                )
            }
        }
    };
}

/// Like `assert_ne!`, but fails the current proptest case.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {
        match (&$a, &$b) {
            (__l, __r) => {
                $crate::prop_assert!(*__l != *__r, "{:?} == {:?}", __l, __r)
            }
        }
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        match (&$a, &$b) {
            (__l, __r) => {
                $crate::prop_assert!(
                    *__l != *__r,
                    "{:?} == {:?}: {}", __l, __r, format!($($fmt)*)
                )
            }
        }
    };
}

/// Reject the current case unless `cond` holds (drawn again instead of
/// failing).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn generation_is_deterministic() {
        let s = 0u64..1000;
        let mut a = crate::TestRng::for_case(3);
        let mut b = crate::TestRng::for_case(3);
        assert_eq!(s.generate(&mut a), s.generate(&mut b));
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::TestRng::for_case(1);
        for _ in 0..200 {
            let v = (-5i64..=5).generate(&mut rng);
            assert!((-5..=5).contains(&v));
            let u = (2usize..5).generate(&mut rng);
            assert!((2..5).contains(&u));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        /// The macro wires strategies, assume and assert together.
        #[test]
        fn macro_end_to_end(
            n in 1usize..6,
            xs in prop::collection::vec(any::<u8>(), 0..4),
            ix in any::<prop::sample::Index>(),
            flip in any::<bool>(),
        ) {
            prop_assume!(n != 3);
            prop_assert!((1..6).contains(&n));
            prop_assert!(xs.len() < 4);
            prop_assert_eq!(ix.index(n) < n, true);
            let choice = prop_oneof![Just(0u8), 1u8..3].generate(
                &mut crate::TestRng::for_case(n as u64),
            );
            let bound = if flip { 3 } else { 4 };
            prop_assert!(choice < bound);
        }
    }
}
