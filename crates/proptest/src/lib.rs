//! A self-contained, offline stand-in for the [`proptest`] crate.
//!
//! Tier-1 verification for this workspace must run with **no network
//! access**, so the real proptest (and its transitive dependency tree)
//! cannot be fetched from a registry. This crate implements the exact
//! subset of proptest's API that the workspace's property tests use —
//! the [`proptest!`] macro,
//! [`ProptestConfig::with_cases`](test_runner::ProptestConfig::with_cases),
//! [`collection::vec`], [`any`](arbitrary::any), [`Just`](strategy::Just),
//! [`prop_oneof!`], [`Strategy::prop_map`](strategy::Strategy::prop_map),
//! string-pattern strategies, and the
//! `prop_assert*` macros — with the same call syntax, so the test files
//! compile unchanged against either implementation.
//!
//! Differences from the real crate, by design:
//!
//! * **Deterministic**: every test function derives its RNG seed from its
//!   own name, so runs are reproducible without a persistence file.
//! * **No shrinking**: a failing case panics with the assert message
//!   immediately. Shrinking is a debugging convenience, not a soundness
//!   requirement; the generators in this workspace are tape-driven and
//!   already produce small inputs.
//! * **String patterns are not regexes**: a `&str` strategy such as
//!   `"\\PC*"` generates printable character soup of bounded length
//!   rather than interpreting the pattern. The only pattern used in this
//!   workspace is exactly that one ("any printable characters").
//!
//! [`proptest`]: https://crates.io/crates/proptest

#![forbid(unsafe_code)]

/// Deterministic test-case RNG (xorshift64*) and run configuration.
pub mod test_runner {
    /// Run configuration; only `cases` is honoured.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of random cases each test function runs.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A configuration running `cases` cases per test.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// A small deterministic RNG (xorshift64*), seeded from the test name.
    pub struct TestRng(u64);

    impl TestRng {
        /// Seeds from an arbitrary string via FNV-1a; never yields the
        /// all-zero state xorshift cannot leave.
        pub fn from_name(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng(h | 1)
        }

        /// Next pseudo-random 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        /// Uniform-ish value in `0..bound` (`bound` must be nonzero).
        pub fn below(&mut self, bound: usize) -> usize {
            (self.next_u64() % bound as u64) as usize
        }
    }
}

/// The [`Strategy`](crate::strategy::Strategy) trait and the combinators
/// the workspace uses.
pub mod strategy {
    use crate::test_runner::TestRng;

    /// A generator of test-case values.
    ///
    /// Unlike real proptest there is no value tree: `generate` produces a
    /// final value directly and failing cases are not shrunk.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Produces one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy that always yields a clone of a fixed value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Uniform choice between several strategies of the same type
    /// (the desugaring of [`prop_oneof!`](crate::prop_oneof)).
    pub struct Union<S> {
        arms: Vec<S>,
    }

    impl<S> Union<S> {
        /// Builds a union; `arms` must be non-empty.
        pub fn new(arms: Vec<S>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<S: Strategy> Strategy for Union<S> {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            let i = rng.below(self.arms.len());
            self.arms[i].generate(rng)
        }
    }

    /// The result of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S, F, O> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// String-pattern strategy: generates printable character soup.
    ///
    /// The pattern itself is ignored (see the crate docs); lengths are
    /// 0..64 characters drawn from ASCII printables plus a few multi-byte
    /// code points so UTF-8 boundary handling gets exercised.
    impl Strategy for &str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            const EXTRA: &[char] = &['λ', 'Ω', 'ν', 'π', '→', '⟨', '⟩', '×', '∀', '∃', 'é', '字'];
            let len = rng.below(64);
            let mut s = String::with_capacity(len);
            for _ in 0..len {
                if rng.below(8) == 0 {
                    s.push(EXTRA[rng.below(EXTRA.len())]);
                } else {
                    // Printable ASCII, space through '~'.
                    s.push(char::from(b' ' + rng.below(95) as u8));
                }
            }
            s
        }
    }
}

/// `any::<T>()` and the [`Arbitrary`](crate::arbitrary::Arbitrary) trait
/// backing it.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical generation strategy.
    pub trait Arbitrary {
        /// Produces one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arb_int!(u8, u16, u32, u64, i8, i16, i32, i64, usize, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// The canonical strategy for `T` (`any::<T>()`).
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// Returns the canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }
}

/// Collection strategies (only `vec` is needed).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Strategy for `Vec<S::Value>` with length drawn from a range.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// Generates vectors whose length lies in `len` (half-open, as in
    /// `proptest::collection::vec(any::<u8>(), 0..256)`).
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.len.end.saturating_sub(self.len.start).max(1);
            let n = self.len.start + rng.below(span);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Everything the test files import with `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Defines `#[test]` functions that run a body over generated inputs.
///
/// Supports the same surface as the real macro for the forms used in this
/// workspace: an optional `#![proptest_config(...)]` header followed by
/// test functions whose parameters are `pattern in strategy` bindings.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_tests! { config = $cfg; $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_tests! {
            config = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    ( config = $cfg:expr; ) => {};
    (
        config = $cfg:expr;
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let cfg = $cfg;
            let mut rng = $crate::test_runner::TestRng::from_name(stringify!($name));
            for _case in 0..cfg.cases {
                $(let $pat = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                $body
            }
        }
        $crate::__proptest_tests! { config = $cfg; $($rest)* }
    };
}

/// Uniform choice between strategies of a common type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($arm),+])
    };
}

/// Asserts a condition inside a property body (panics on failure; this
/// stand-in does not shrink, so plain assert semantics are equivalent).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = TestRng::from_name("alpha");
        let mut b = TestRng::from_name("alpha");
        let mut c = TestRng::from_name("beta");
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn vec_lengths_respect_range() {
        let mut rng = TestRng::from_name("lens");
        let strat = crate::collection::vec(any::<u8>(), 4..64);
        for _ in 0..200 {
            let v = strat.generate(&mut rng);
            assert!((4..64).contains(&v.len()), "len {}", v.len());
        }
    }

    #[test]
    fn string_strategy_is_printable_utf8() {
        let mut rng = TestRng::from_name("strings");
        for _ in 0..100 {
            let s: String = "\\PC*".generate(&mut rng);
            assert!(s.chars().all(|c| !c.is_control()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro itself: bindings, oneof, map, asserts.
        #[test]
        fn macro_roundtrip(
            bytes in crate::collection::vec(any::<u8>(), 0..16),
            word in prop_oneof![Just("a"), Just("bb")].prop_map(str::to_string),
        ) {
            prop_assert!(bytes.len() < 16);
            prop_assert_eq!(word.is_empty(), false, "word {:?}", word);
        }
    }
}
