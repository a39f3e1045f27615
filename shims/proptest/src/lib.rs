//! Offline drop-in subset of `proptest`.
//!
//! The build container has no network access, so the workspace ships a
//! minimal property-testing harness exposing the `proptest` surface its
//! tests use: the [`proptest!`] macro, [`Strategy`] with `prop_filter` /
//! `prop_map`, `any::<T>()`, range strategies, `prop::collection::vec`,
//! `prop::sample::{select, Index}`, `prop::num::f64::{ANY, NORMAL}`, and
//! the `prop_assert*` / `prop_assume!` macros.
//!
//! Differences from the real crate: inputs are not shrunk on failure (the
//! failing inputs are printed instead), and the default case count is 64
//! (override with `PROPTEST_CASES`).

use std::fmt::Debug;

/// Per-test configuration.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of accepted cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64);
        ProptestConfig { cases }
    }
}

/// Why a test case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; the case is re-drawn.
    Reject(String),
    /// A `prop_assert*` failed.
    Fail(String),
}

/// Deterministic generator driving input sampling (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds from a label (the test name), or `PROPTEST_SEED` when set.
    pub fn from_label(label: &str) -> Self {
        if let Ok(seed) = std::env::var("PROPTEST_SEED") {
            if let Ok(seed) = seed.parse() {
                return TestRng { state: seed };
            }
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in label.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        TestRng { state: h }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0);
        // Widening multiply; the tiny modulo bias is irrelevant here.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A source of random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value: Debug;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Keeps only values satisfying `pred`, re-drawing otherwise.
    fn prop_filter<F>(self, reason: impl Into<String>, pred: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            reason: reason.into(),
            pred,
        }
    }

    /// Maps generated values through `f`.
    fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

macro_rules! impl_tuple_strategy {
    ($($s:ident . $idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A.0);
impl_tuple_strategy!(A.0, B.1);
impl_tuple_strategy!(A.0, B.1, C.2);
impl_tuple_strategy!(A.0, B.1, C.2, D.3);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);

/// Strategy returned by [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    reason: String,
    pred: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;

    fn sample(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..10_000 {
            let v = self.inner.sample(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!(
            "prop_filter rejected 10000 consecutive draws: {}",
            self.reason
        );
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// Types with a canonical `any::<T>()` strategy.
pub trait Arbitrary: Sized + Debug {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_ints {
    ($($ty:ty),*) => {$(
        impl Arbitrary for $ty {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $ty
            }
        }
    )*};
}

arbitrary_ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for u128 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        (rng.next_u64() as u128) << 64 | rng.next_u64() as u128
    }
}

impl Arbitrary for i128 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        u128::arbitrary(rng) as i128
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        // Raw bit patterns: covers normals, subnormals, infinities, NaNs —
        // like the real crate, callers filter what they need.
        f64::from_bits(rng.next_u64())
    }
}

impl Arbitrary for f32 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        f32::from_bits(rng.next_u64() as u32)
    }
}

/// Strategy produced by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

macro_rules! range_strategies {
    ($($ty:ty),*) => {$(
        impl Strategy for std::ops::Range<$ty> {
            type Value = $ty;
            fn sample(&self, rng: &mut TestRng) -> $ty {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + rng.below(span) as $ty
            }
        }
        impl Strategy for std::ops::RangeInclusive<$ty> {
            type Value = $ty;
            fn sample(&self, rng: &mut TestRng) -> $ty {
                assert!(self.start() <= self.end(), "empty range strategy");
                let span = (*self.end() - *self.start()) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $ty;
                }
                self.start() + rng.below(span + 1) as $ty
            }
        }
        impl Strategy for std::ops::RangeFrom<$ty> {
            type Value = $ty;
            fn sample(&self, rng: &mut TestRng) -> $ty {
                let span = (<$ty>::MAX - self.start) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $ty;
                }
                self.start + rng.below(span + 1) as $ty
            }
        }
    )*};
}

range_strategies!(u8, u16, u32, u64, usize);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;

    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        let x = self.start + rng.unit_f64() * (self.end - self.start);
        x.min(self.end - self.end.abs() * f64::EPSILON)
    }
}

/// A literal single-value strategy.
#[derive(Debug, Clone)]
pub struct Just<T: Clone + Debug>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

pub mod collection {
    //! Collection strategies.

    use super::{Strategy, TestRng};

    /// Strategy for `Vec<S::Value>` with a length drawn from `len`.
    pub struct VecStrategy<S> {
        element: S,
        len: std::ops::Range<usize>,
    }

    /// `prop::collection::vec(element, len_range)`.
    pub fn vec<S: Strategy>(element: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.clone().sample(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod sample {
    //! Sampling helpers.

    use super::{Arbitrary, Strategy, TestRng};
    use std::fmt::Debug;

    /// An index into a runtime-sized collection.
    #[derive(Debug, Clone, Copy)]
    pub struct Index(u64);

    impl Index {
        /// Resolves against a collection of length `len`.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            (self.0 % len as u64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut TestRng) -> Self {
            Index(rng.next_u64())
        }
    }

    /// Strategy choosing uniformly from a fixed set.
    pub struct Select<T: Clone + Debug>(Vec<T>);

    /// `prop::sample::select(options)`.
    pub fn select<T: Clone + Debug>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select() from empty set");
        Select(options)
    }

    impl<T: Clone + Debug> Strategy for Select<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            self.0[rng.below(self.0.len() as u64) as usize].clone()
        }
    }
}

pub mod num {
    //! Numeric strategies.

    pub mod f64 {
        //! `f64` strategies.

        use crate::{Strategy, TestRng};

        /// Any bit pattern, including NaNs and infinities.
        #[derive(Debug, Clone, Copy)]
        pub struct AnyF64;

        impl Strategy for AnyF64 {
            type Value = f64;
            fn sample(&self, rng: &mut TestRng) -> f64 {
                f64::from_bits(rng.next_u64())
            }
        }

        /// Normal (non-zero, non-subnormal, finite) values.
        #[derive(Debug, Clone, Copy)]
        pub struct NormalF64;

        impl Strategy for NormalF64 {
            type Value = f64;
            fn sample(&self, rng: &mut TestRng) -> f64 {
                loop {
                    let x = f64::from_bits(rng.next_u64());
                    if x.is_normal() {
                        return x;
                    }
                }
            }
        }

        /// Any `f64` bit pattern.
        pub const ANY: AnyF64 = AnyF64;
        /// Normal `f64` values only.
        pub const NORMAL: NormalF64 = NormalF64;
    }
}

/// The `prop::` namespace used inside test bodies.
pub mod prop {
    pub use crate::collection;
    pub use crate::num;
    pub use crate::sample;
}

pub mod prelude {
    //! Glob-import surface matching `proptest::prelude::*`.

    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Just,
        ProptestConfig, Strategy,
    };
}

/// Asserts a condition inside a property, failing the case (not the
/// process) so the harness can report the generated inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)*)));
        }
    };
}

/// `prop_assert!(a == b)` with value reporting.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a == *b,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($a),
            stringify!($b),
            a,
            b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a == *b, $($fmt)*);
    }};
}

/// `prop_assert!(a != b)` with value reporting.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a != *b,
            "assertion failed: {} != {}\n  both: {:?}",
            stringify!($a),
            stringify!($b),
            a
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a != *b, $($fmt)*);
    }};
}

/// Rejects the current inputs; the case is re-drawn without counting
/// against the case budget.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Reject(
                concat!("assumption failed: ", stringify!($cond)).to_string(),
            ));
        }
    };
}

/// Defines property tests: each `fn name(arg in strategy, ...)` block
/// becomes a `#[test]` running the body over sampled inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ @cfg ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ @cfg ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (@cfg ($cfg:expr) $( $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::from_label(concat!(module_path!(), "::", stringify!($name)));
                let mut accepted: u32 = 0;
                let mut rejected: u32 = 0;
                while accepted < config.cases {
                    $(let $arg = $crate::Strategy::sample(&($strat), &mut rng);)*
                    let __inputs = {
                        let mut s = ::std::string::String::new();
                        $(
                            s.push_str(stringify!($arg));
                            s.push_str(" = ");
                            s.push_str(&format!("{:?}, ", &$arg));
                        )*
                        s
                    };
                    let outcome: ::std::result::Result<(), $crate::TestCaseError> = (move || {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                    match outcome {
                        ::std::result::Result::Ok(()) => accepted += 1,
                        ::std::result::Result::Err($crate::TestCaseError::Reject(why)) => {
                            rejected += 1;
                            if rejected > config.cases.saturating_mul(20).max(1000) {
                                panic!("too many rejected cases ({rejected}): {why}");
                            }
                        }
                        ::std::result::Result::Err($crate::TestCaseError::Fail(why)) => {
                            panic!(
                                "property {} failed after {} cases: {}\n  inputs: {}",
                                stringify!($name),
                                accepted,
                                why,
                                __inputs
                            );
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

    #[test]
    fn ranges_and_filters_sample_in_bounds() {
        let mut rng = crate::TestRng::from_label("bounds");
        let s = (10u32..20).prop_filter("even", |x| x % 2 == 0);
        for _ in 0..200 {
            let v = s.sample(&mut rng);
            assert!((10..20).contains(&v) && v % 2 == 0);
        }
    }

    #[test]
    fn vec_strategy_respects_length() {
        let mut rng = crate::TestRng::from_label("vec");
        let s = prop::collection::vec(any::<u8>(), 2..7);
        for _ in 0..100 {
            let v = s.sample(&mut rng);
            assert!((2..7).contains(&v.len()));
        }
    }

    #[test]
    fn index_resolves_in_range() {
        let mut rng = crate::TestRng::from_label("index");
        for _ in 0..100 {
            let idx = <prop::sample::Index as crate::Arbitrary>::arbitrary(&mut rng);
            assert!(idx.index(13) < 13);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn harness_runs_and_rejects(x in 0u64..100, y in any::<u64>()) {
            prop_assume!(x != 50);
            prop_assert!(x < 100);
            prop_assert_ne!(x, 50);
            let _ = y;
        }
    }
}
