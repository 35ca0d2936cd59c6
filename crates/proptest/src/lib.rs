//! Offline stand-in for the `proptest` crate.
//!
//! The build environment cannot fetch crates.io, so this crate provides the
//! exact macro surface the workspace's property tests use — [`proptest!`]
//! with an optional `#![proptest_config(...)]` header, `prop_assert!`,
//! `prop_assert_eq!`, range strategies and [`collection::vec`] — backed by
//! deterministic random sampling (no shrinking). Each test function runs
//! `cases` random cases seeded from the test name, so failures reproduce
//! across runs.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration and runtime support used by the generated tests.
pub mod test_runner {
    /// Subset of proptest's run configuration.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config with an explicit case count.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// Failure raised by `prop_assert!`-style macros.
    #[derive(Debug)]
    pub struct TestCaseError(pub String);

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }
}

/// Deterministic per-test random source.
#[derive(Debug)]
pub struct TestRng(StdRng);

impl TestRng {
    /// Seeds the generator from the test name and case index (FNV-1a over
    /// the name, mixed with the case number) so every case is reproducible.
    pub fn for_case(test_name: &str, case: u32) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng(StdRng::seed_from_u64(
            h ^ ((case as u64) << 32 | case as u64),
        ))
    }
}

/// Value-generation strategies (sampling only; no shrinking).
pub mod strategy {
    use super::TestRng;
    use rand::Rng;

    /// A source of random values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;
    }

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;

        fn sample(&self, rng: &mut TestRng) -> f64 {
            rng.0.gen_range(self.start..self.end)
        }
    }

    macro_rules! int_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut TestRng) -> $t {
                    rng.0.gen_range(self.start..self.end)
                }
            }
        )*};
    }

    int_strategy!(usize, u64, u32);
}

/// Collection strategies.
pub mod collection {
    use super::strategy::Strategy;
    use super::TestRng;
    use rand::Rng;

    /// Length specification for [`vec()`]: an exact size or a range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// Strategy producing `Vec`s of values drawn from `element`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Vectors with lengths drawn from `size` and elements from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.0.gen_range(self.size.lo..self.size.hi);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Everything the tests import.
pub mod prelude {
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

/// Asserts a condition inside a `proptest!` body, reporting the failing
/// expression (and optional message) without unwinding through foreign code.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError(
                concat!("assertion failed: ", stringify!($cond)).to_string(),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError(format!(
                "assertion failed: {}: {}",
                stringify!($cond),
                format!($($fmt)*)
            )));
        }
    };
}

/// Equality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        if !(*left == *right) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError(format!(
                "assertion failed: {} == {} (left: {:?}, right: {:?})",
                stringify!($a),
                stringify!($b),
                left,
                right
            )));
        }
    }};
}

/// Binds one `name in strategy` parameter list entry after another.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident;) => {};
    ($rng:ident; mut $name:ident in $strat:expr) => {
        let mut $name = $crate::strategy::Strategy::sample(&($strat), &mut *$rng);
    };
    ($rng:ident; $name:ident in $strat:expr) => {
        let $name = $crate::strategy::Strategy::sample(&($strat), &mut *$rng);
    };
    ($rng:ident; mut $name:ident in $strat:expr, $($rest:tt)*) => {
        let mut $name = $crate::strategy::Strategy::sample(&($strat), &mut *$rng);
        $crate::__proptest_bind!($rng; $($rest)*);
    };
    ($rng:ident; $name:ident in $strat:expr, $($rest:tt)*) => {
        let $name = $crate::strategy::Strategy::sample(&($strat), &mut *$rng);
        $crate::__proptest_bind!($rng; $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident ( $($params:tt)* ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::test_runner::ProptestConfig = $cfg;
            for __case in 0..__cfg.cases {
                let mut __rng = $crate::TestRng::for_case(stringify!($name), __case);
                let __result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        let __rng = &mut __rng;
                        $crate::__proptest_bind!(__rng; $($params)*);
                        $body
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(e) = __result {
                    panic!(
                        "proptest {}: case {}/{} failed: {}",
                        stringify!($name),
                        __case + 1,
                        __cfg.cases,
                        e
                    );
                }
            }
        }
    )*};
}

/// The `proptest!` block macro: wraps `#[test]` functions whose parameters
/// are drawn from strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { $crate::test_runner::ProptestConfig::default(); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(n in 1usize..10, x in -2.0..2.0f64) {
            prop_assert!((1..10).contains(&n));
            prop_assert!((-2.0..2.0).contains(&x));
        }

        #[test]
        fn vec_strategy_sizes(v in crate::collection::vec(0.0..1.0f64, 3..7)) {
            prop_assert!((3..7).contains(&v.len()));
            for x in &v {
                prop_assert!((0.0..1.0).contains(x));
            }
        }

        #[test]
        fn exact_size_vec(mut v in crate::collection::vec(0.0..1.0f64, 5)) {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            prop_assert_eq!(v.len(), 5);
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let mut a = crate::TestRng::for_case("t", 3);
        let mut b = crate::TestRng::for_case("t", 3);
        use crate::strategy::Strategy;
        let s = 0.0..1.0f64;
        assert_eq!(s.sample(&mut a), s.sample(&mut b));
    }
}
