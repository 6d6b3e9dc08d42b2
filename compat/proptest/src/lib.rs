//! Offline, API-compatible stub of the subset of [`proptest`] this workspace
//! uses.
//!
//! The build container cannot reach a cargo registry, so the real `proptest`
//! crate is unavailable. This stub keeps every property test in the repo
//! compiling and *running* — strategies generate uniformly random values from
//! a deterministic per-test RNG and the `proptest!` macro loops the body for
//! `ProptestConfig::cases` iterations. What it does **not** do is shrink
//! failing inputs: a failure panics with the offending case number and the
//! generated arguments are printed by the assertion itself.
//!
//! Supported surface: `proptest!` (with optional
//! `#![proptest_config(ProptestConfig::with_cases(n))]`), `prop_assert!`,
//! `prop_assert_eq!`, `prop_assert_ne!`, `prop_oneof!`, `Just`, `any::<T>()`,
//! integer range strategies, tuple strategies up to arity 6,
//! `Strategy::prop_map`, and `proptest::collection::vec`.
//!
//! [`proptest`]: https://crates.io/crates/proptest

pub mod test_runner {
    /// Configuration accepted by `#![proptest_config(..)]`.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` iterations.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 256 }
        }
    }

    /// Why a generated case failed (or was rejected).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum TestCaseError {
        /// The case was rejected (e.g. by `prop_assume!`); not a failure.
        Reject(String),
        /// The property does not hold for this case.
        Fail(String),
    }

    impl TestCaseError {
        /// A failing case with the given reason.
        pub fn fail(reason: impl Into<String>) -> TestCaseError {
            TestCaseError::Fail(reason.into())
        }

        /// A rejected case with the given reason.
        pub fn reject(reason: impl Into<String>) -> TestCaseError {
            TestCaseError::Reject(reason.into())
        }
    }

    impl core::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
            match self {
                TestCaseError::Reject(r) => write!(f, "case rejected: {r}"),
                TestCaseError::Fail(r) => write!(f, "property failed: {r}"),
            }
        }
    }

    /// Result type of a single generated case.
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// Deterministic RNG driving value generation (splitmix64).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// A fixed-seed RNG; every test run generates the same cases.
        pub fn deterministic() -> TestRng {
            TestRng {
                state: 0x5EED_C0DE_5EED_C0DE,
            }
        }

        /// Next 64 random bits.
        #[inline]
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, n)`; `n` must be nonzero.
        #[inline]
        pub fn below(&mut self, n: u64) -> u64 {
            debug_assert!(n > 0);
            self.next_u64() % n
        }
    }
}

pub mod strategy {
    use super::test_runner::TestRng;
    use core::marker::PhantomData;
    use core::ops::{Range, RangeInclusive};

    /// A recipe for generating values of `Self::Value`.
    ///
    /// Unlike the real proptest, generation is plain uniform sampling and
    /// there is no shrinking.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Keeps only values satisfying `pred`, retrying generation.
        fn prop_filter<F>(self, whence: &'static str, pred: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter {
                inner: self,
                whence,
                pred,
            }
        }

        /// Erases the concrete strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy {
                gen_fn: Box::new(move |rng| self.generate(rng)),
            }
        }
    }

    /// A type-erased strategy.
    pub struct BoxedStrategy<T> {
        gen_fn: Box<dyn Fn(&mut TestRng) -> T>,
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.gen_fn)(rng)
        }
    }

    /// Always yields a clone of the wrapped value.
    #[derive(Debug, Clone)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// `Strategy::prop_map` adapter.
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// `Strategy::prop_filter` adapter (rejection sampling).
    pub struct Filter<S, F> {
        inner: S,
        whence: &'static str,
        pred: F,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..10_000 {
                let v = self.inner.generate(rng);
                if (self.pred)(&v) {
                    return v;
                }
            }
            panic!("prop_filter({}) rejected 10000 candidates", self.whence);
        }
    }

    /// (Possibly weighted) choice between type-erased alternatives
    /// (`prop_oneof!`).
    pub struct Union<T> {
        /// `(cumulative_weight, strategy)` pairs.
        options: Vec<(u64, BoxedStrategy<T>)>,
        total_weight: u64,
    }

    impl<T> Union<T> {
        /// Builds a uniform union; `options` must be non-empty.
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Union<T> {
            Union::new_weighted(options.into_iter().map(|s| (1, s)).collect())
        }

        /// Builds a weighted union; `options` must be non-empty and weights
        /// must be positive.
        pub fn new_weighted(options: Vec<(u32, BoxedStrategy<T>)>) -> Union<T> {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            let mut cumulative = 0u64;
            let options = options
                .into_iter()
                .map(|(w, s)| {
                    assert!(w > 0, "prop_oneof! weights must be positive");
                    cumulative += u64::from(w);
                    (cumulative, s)
                })
                .collect();
            Union {
                options,
                total_weight: cumulative,
            }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let pick = rng.below(self.total_weight);
            let i = self
                .options
                .partition_point(|(cumulative, _)| *cumulative <= pick);
            self.options[i].1.generate(rng)
        }
    }

    macro_rules! impl_int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                #[inline]
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u64).wrapping_sub(self.start as u64);
                    self.start.wrapping_add(rng.below(span) as $t)
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                #[inline]
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty range strategy");
                    let span = (end as u64).wrapping_sub(start as u64).wrapping_add(1);
                    if span == 0 {
                        return rng.next_u64() as $t;
                    }
                    start.wrapping_add(rng.below(span) as $t)
                }
            }
        )*};
    }

    impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        #[inline]
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            self.start + unit * (self.end - self.start)
        }
    }

    /// `any::<T>()` marker.
    pub struct Any<T>(PhantomData<T>);

    /// Full-domain strategy for `T` (`bool` and the integer primitives).
    pub fn any<T>() -> Any<T>
    where
        Any<T>: Strategy<Value = T>,
    {
        Any(PhantomData)
    }

    impl Strategy for Any<bool> {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! impl_any_int {
        ($($t:ty),*) => {$(
            impl Strategy for Any<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_any_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use core::ops::{Range, RangeInclusive};

    /// Element-count specification for [`vec`].
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        /// Inclusive minimum length.
        pub min: usize,
        /// Exclusive maximum length.
        pub max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { min: n, max: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max: r.end,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                min: *r.start(),
                max: *r.end() + 1,
            }
        }
    }

    /// Generates `Vec`s whose length is drawn from `size` and whose elements
    /// come from `element`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Strategy producing vectors of `element` values.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max - self.size.min) as u64;
            let len = self.size.min + if span > 0 { rng.below(span) as usize } else { 0 };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    //! Everything a property test needs in scope.
    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Skips the current generated case when the assumption does not hold.
///
/// The stub simply abandons the case (the surrounding closure returns), so a
/// test whose assumptions almost always fail will silently run few effective
/// cases — acceptable for the light assumptions used in this repo.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($fmt:tt)*)?) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond),
            ));
        }
    };
}

/// Asserts a condition inside a property test (panics; no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Choice among strategies producing the same value type; arms may carry
/// `weight => strategy` relative weights.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new_weighted(vec![
            $(($weight, $crate::strategy::Strategy::boxed($strategy))),+
        ])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}

/// Declares property tests. Each `#[test] fn name(arg in strategy, ..)` body
/// is run for `cases` freshly generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            cfg = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (cfg = $cfg:expr;
     $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block)*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config = $cfg;
                let mut __rng = $crate::test_runner::TestRng::deterministic();
                for __case in 0..__config.cases {
                    let run = |__rng: &mut $crate::test_runner::TestRng|
                        -> $crate::test_runner::TestCaseResult {
                        $(let $arg =
                            $crate::strategy::Strategy::generate(&{ $strategy }, __rng);)+
                        $body
                        Ok(())
                    };
                    let result = ::std::panic::catch_unwind(
                        ::std::panic::AssertUnwindSafe(|| run(&mut __rng)),
                    );
                    match result {
                        Ok(Ok(())) => {}
                        Ok(Err($crate::test_runner::TestCaseError::Reject(_))) => {}
                        Ok(Err(err)) => {
                            panic!(
                                "proptest stub: case {}/{} of `{}`: {}",
                                __case + 1,
                                __config.cases,
                                stringify!($name),
                                err,
                            );
                        }
                        Err(payload) => {
                            eprintln!(
                                "proptest stub: case {}/{} of `{}` failed",
                                __case + 1,
                                __config.cases,
                                stringify!($name),
                            );
                            ::std::panic::resume_unwind(payload);
                        }
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn small_even() -> impl Strategy<Value = u64> {
        (0u64..50).prop_map(|x| x * 2)
    }

    proptest! {
        #[test]
        fn ranges_in_bounds(x in 5u64..10, y in 0u8..=3) {
            prop_assert!((5..10).contains(&x));
            prop_assert!(y <= 3);
        }

        #[test]
        fn map_and_oneof_work(v in prop_oneof![Just(1u32), Just(2), 10u32..20]) {
            prop_assert!(v == 1 || v == 2 || (10..20).contains(&v));
        }

        #[test]
        fn tuples_and_vec(
            pair in (0u64..4, any::<bool>()),
            items in crate::collection::vec(small_even(), 1..8),
        ) {
            prop_assert!(pair.0 < 4);
            prop_assert!(!items.is_empty() && items.len() < 8);
            for i in items {
                prop_assert_eq!(i % 2, 0);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(13))]
        #[test]
        fn configured_case_count(x in 0u64..1000) {
            prop_assert!(x < 1000);
        }
    }

    #[test]
    fn fixed_vec_len() {
        use crate::strategy::Strategy;
        let mut rng = crate::test_runner::TestRng::deterministic();
        let s = crate::collection::vec(0u64..10, 4usize);
        assert_eq!(s.generate(&mut rng).len(), 4);
    }
}
