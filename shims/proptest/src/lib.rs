//! In-tree shim for the `proptest` API surface this workspace's tests
//! use: the [`Strategy`] trait (ranges, tuples, `prop_map`, `Just`,
//! collections, `any`), the `proptest!`/`prop_oneof!` macros and the
//! `prop_assert*` family.
//!
//! Differences from the real crate, deliberate for a registry-less
//! build: no shrinking (a failing case panics with the generated inputs
//! still bound — rerun under a debugger or add prints), and generation
//! is driven by a fixed per-test seed derived from the test name, so
//! runs are deterministic.

use std::rc::Rc;

pub mod test_runner {
    /// Per-test configuration. Only `cases` matters to the shim.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
        /// Accepted for source compatibility; unused (no shrinking).
        pub max_shrink_iters: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig {
                cases: 256,
                max_shrink_iters: 0,
            }
        }
    }

    /// Why a generated case did not pass. `prop_assert*` panic instead
    /// (no shrink phase), but bodies may still build and `?`-propagate
    /// these explicitly.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// The property is false for this input.
        Fail(String),
        /// The input should not count as a case.
        Reject(String),
    }

    impl TestCaseError {
        pub fn fail(reason: impl Into<String>) -> Self {
            TestCaseError::Fail(reason.into())
        }

        pub fn reject(reason: impl Into<String>) -> Self {
            TestCaseError::Reject(reason.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TestCaseError::Fail(r) => write!(f, "failed: {r}"),
                TestCaseError::Reject(r) => write!(f, "rejected: {r}"),
            }
        }
    }

    /// Deterministic generation source (SplitMix64).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        pub fn seed(seed: u64) -> Self {
            TestRng {
                state: seed ^ 0x9E37_79B9_7F4A_7C15,
            }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, n)`.
        pub fn below(&mut self, n: u64) -> u64 {
            assert!(n > 0);
            // Multiply-shift; bias is negligible for test generation.
            ((self.next_u64() as u128 * n as u128) >> 64) as u64
        }
    }
}

use test_runner::TestRng;

/// A value generator. Unlike the real crate there is no intermediate
/// value tree: strategies produce final values directly.
pub trait Strategy: Clone {
    type Value;

    /// Generate one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Value) -> O + Clone,
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Retry until `pred` holds (bounded; panics if the predicate is
    /// never satisfied in 1000 draws).
    fn prop_filter<F>(self, reason: &'static str, pred: F) -> Filter<Self, F>
    where
        F: Fn(&Self::Value) -> bool + Clone,
        Self: Sized,
    {
        Filter {
            inner: self,
            pred,
            reason,
        }
    }

    /// Type-erase into a clonable boxed strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        let s = self;
        BoxedStrategy(Rc::new(move |rng| s.generate(rng)))
    }
}

/// A type-erased strategy (cheaply clonable).
pub struct BoxedStrategy<V>(Rc<dyn Fn(&mut TestRng) -> V>);

impl<V> Clone for BoxedStrategy<V> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        (self.0)(rng)
    }
}

/// [`Strategy::prop_map`] adapter.
#[derive(Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O + Clone> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// [`Strategy::prop_filter`] adapter.
#[derive(Clone)]
pub struct Filter<S, F> {
    inner: S,
    pred: F,
    reason: &'static str,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool + Clone> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.generate(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!("prop_filter never satisfied: {}", self.reason);
    }
}

/// A constant strategy.
#[derive(Clone)]
pub struct Just<V: Clone>(pub V);

impl<V: Clone> Strategy for Just<V> {
    type Value = V;
    fn generate(&self, _rng: &mut TestRng) -> V {
        self.0.clone()
    }
}

/// Weighted union of same-valued strategies (backs `prop_oneof!`).
pub struct Union<V> {
    arms: Vec<(u32, BoxedStrategy<V>)>,
    total: u64,
}

impl<V> Clone for Union<V> {
    fn clone(&self) -> Self {
        Union {
            arms: self.arms.clone(),
            total: self.total,
        }
    }
}

impl<V> Union<V> {
    pub fn new(arms: Vec<(u32, BoxedStrategy<V>)>) -> Self {
        assert!(!arms.is_empty());
        let total = arms.iter().map(|(w, _)| *w as u64).sum();
        assert!(total > 0, "prop_oneof weights sum to zero");
        Union { arms, total }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let mut pick = rng.below(self.total);
        for (w, s) in &self.arms {
            if pick < *w as u64 {
                return s.generate(rng);
            }
            pick -= *w as u64;
        }
        unreachable!()
    }
}

// Ranges are strategies.
macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                let span = (end as i128 - start as i128) as u128 + 1;
                if span > u64::MAX as u128 {
                    return rng.next_u64() as $t;
                }
                start.wrapping_add(rng.below(span as u64) as $t)
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

// Tuples of strategies are strategies.
macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
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

/// Types with a canonical "anything" strategy (the shim's `Arbitrary`).
pub trait Arbitrary: Sized + Clone + 'static {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy producing any value of `T`.
#[derive(Clone)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The `any::<T>()` entry point.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Collection strategies (`prop::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::collections::BTreeMap;
    use std::ops::Range;

    /// Sizes acceptable to the collection strategies: a fixed `usize` or
    /// a `Range<usize>`.
    #[derive(Clone)]
    pub enum SizeRange {
        Fixed(usize),
        Range(Range<usize>),
    }

    impl SizeRange {
        fn pick(&self, rng: &mut TestRng) -> usize {
            match self {
                SizeRange::Fixed(n) => *n,
                SizeRange::Range(r) => {
                    assert!(r.start < r.end, "empty collection size range");
                    r.start + rng.below((r.end - r.start) as u64) as usize
                }
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange::Fixed(n)
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            SizeRange::Range(r)
        }
    }

    /// `Vec` of generated elements.
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// `BTreeMap` of generated entries. The size bound applies to the
    /// number of *insertions*; duplicate keys collapse, matching the
    /// real crate's semantics loosely.
    #[derive(Clone)]
    pub struct BTreeMapStrategy<K, V> {
        key: K,
        value: V,
        size: SizeRange,
    }

    impl<K: Strategy, V: Strategy> Strategy for BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        type Value = BTreeMap<K::Value, V::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.pick(rng);
            (0..n)
                .map(|_| (self.key.generate(rng), self.value.generate(rng)))
                .collect()
        }
    }

    pub fn btree_map<K: Strategy, V: Strategy>(
        key: K,
        value: V,
        size: impl Into<SizeRange>,
    ) -> BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        BTreeMapStrategy {
            key,
            value,
            size: size.into(),
        }
    }
}

/// Boolean strategies (`prop::bool`).
pub mod bool {
    /// Any boolean.
    pub const ANY: crate::Any<bool> = crate::Any(std::marker::PhantomData);
}

/// One generated case per property; see the `proptest!` macro.
#[macro_export]
macro_rules! prop_oneof {
    // Weighted arms: `w => strategy`.
    ($($weight:expr => $strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $(($weight as u32, $crate::Strategy::boxed($strategy)),)+
        ])
    };
    // Unweighted arms.
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $((1u32, $crate::Strategy::boxed($strategy)),)+
        ])
    };
}

/// Assertion macros: the shim panics immediately (no shrink phase).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::reject(stringify!(
                $cond
            )));
        }
    };
}

/// The property-test entry point. Supports the forms used in this
/// workspace:
///
/// ```
/// use proptest::prelude::*;
///
/// proptest! {
///     #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]
///     // Put `#[test]` here in a test module; this example calls it.
///     fn my_property(x in 0u64..100, ys in prop::collection::vec(any::<bool>(), 1..10)) {
///         prop_assert!(x < 100);
///         prop_assert!(!ys.is_empty() && ys.len() < 10);
///     }
/// }
///
/// my_property(); // runs all 64 cases
/// ```
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_items! { config = $cfg; $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_items! {
            config = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( config = $cfg:expr; ) => {};
    (
        config = $cfg:expr;
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:pat in $strategy:expr),+ $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            // Deterministic per-test seed: runs are reproducible.
            let seed = {
                use std::hash::{Hash, Hasher};
                let mut h = std::collections::hash_map::DefaultHasher::new();
                stringify!($name).hash(&mut h);
                h.finish()
            };
            let mut rng = $crate::test_runner::TestRng::seed(seed);
            #[allow(clippy::redundant_clone)]
            for _case in 0..config.cases {
                $(let $arg = $crate::Strategy::generate(&($strategy), &mut rng);)+
                // Bodies may `?`-propagate TestCaseError like the real
                // crate; assertion macros panic directly.
                #[allow(clippy::redundant_closure_call)]
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| { $body Ok(()) })();
                match outcome {
                    Ok(()) => {}
                    Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                    Err(e) => panic!("proptest case {} {e}", _case),
                }
            }
        }
        $crate::__proptest_items! { config = $cfg; $($rest)* }
    };
}

/// Everything the tests import.
pub mod prelude {
    /// The real crate re-exports itself as `prop` in the prelude so
    /// `prop::collection::vec(..)` resolves.
    pub use crate as prop;
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        BoxedStrategy, Just, Strategy,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_tuples_generate_in_bounds() {
        let mut rng = crate::test_runner::TestRng::seed(1);
        for _ in 0..1000 {
            let v = (0u64..10, 5usize..6).generate(&mut rng);
            assert!(v.0 < 10);
            assert_eq!(v.1, 5);
        }
    }

    #[test]
    fn oneof_respects_weights_loosely() {
        let s = prop_oneof![9 => Just(true), 1 => Just(false)];
        let mut rng = crate::test_runner::TestRng::seed(2);
        let trues = (0..1000).filter(|_| s.generate(&mut rng)).count();
        assert!(trues > 700, "weighted arm starved: {trues}");
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        #[test]
        fn the_macro_itself_works(
            xs in prop::collection::vec(0u64..50, 1..20),
            flag in prop::bool::ANY,
        ) {
            prop_assert!(xs.iter().all(|&x| x < 50));
            prop_assert!(!xs.is_empty());
            let _ = flag;
        }
    }
}
