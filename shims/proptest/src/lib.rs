//! Offline, API-compatible subset of `proptest`.
//!
//! The build environment cannot reach crates.io, so the workspace
//! vendors the slice of proptest it uses: the [`Strategy`] trait with
//! `prop_map` / `prop_flat_map` / `prop_recursive`, [`strategy::Just`],
//! weighted [`prop_oneof!`], integer-range and tuple strategies,
//! `collection::vec`, a small regex-subset string strategy, and the
//! [`proptest!`] / `prop_assert*` macros.
//!
//! Differences from real proptest, deliberately accepted:
//!
//! - **No shrinking.** A failing case reports its inputs (via the
//!   assertion message) but is not minimized.
//! - **Deterministic seeding.** Each test's RNG is seeded from the
//!   test's module path and name, so failures reproduce exactly across
//!   runs; set `PROPTEST_CASES` to change the iteration count.
//! - **Regex strategies** support the subset the workspace uses:
//!   concatenations of `.`, `[...]` classes (with ranges), and literal
//!   characters, each optionally quantified by `{m,n}`, `*`, `+`, `?`.

#![forbid(unsafe_code)]

pub mod test_runner {
    //! Configuration, RNG, and failure plumbing for generated tests.

    use std::fmt;

    /// Per-test configuration (`#![proptest_config(..)]`).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases each property runs.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` iterations (or `PROPTEST_CASES`
        /// from the environment, when set, to let CI dial effort).
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig {
                cases: env_cases().unwrap_or(cases),
            }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig::with_cases(256)
        }
    }

    fn env_cases() -> Option<u32> {
        std::env::var("PROPTEST_CASES").ok()?.parse().ok()
    }

    /// The deterministic generator driving value generation (SplitMix64
    /// seeded from the test's fully qualified name).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds from an arbitrary string (the test name).
        pub fn deterministic(name: &str) -> Self {
            // FNV-1a over the name gives a stable per-test seed.
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng { state: h }
        }

        /// Next 64-bit word.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw from `[0, bound)`.
        pub fn below(&mut self, bound: u64) -> u64 {
            assert!(bound > 0, "below(0)");
            self.next_u64() % bound
        }
    }

    /// Why a test case failed (no rejection machinery: the workspace
    /// never uses `prop_assume!`).
    #[derive(Debug, Clone)]
    pub struct TestCaseError(String);

    impl TestCaseError {
        /// A hard failure with a reason.
        pub fn fail(reason: impl Into<String>) -> Self {
            TestCaseError(reason.into())
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.0)
        }
    }

    impl std::error::Error for TestCaseError {}
}

pub mod strategy {
    //! The [`Strategy`] trait and its combinators.

    use std::marker::PhantomData;
    use std::ops::{Range, RangeInclusive};
    use std::rc::Rc;

    use crate::test_runner::TestRng;

    /// A recipe for generating values of one type.
    pub trait Strategy: Clone + 'static {
        /// The generated type.
        type Value: 'static;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            O: 'static,
            F: Fn(Self::Value) -> O + Clone + 'static,
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Feeds generated values into a strategy-producing `f` and
        /// draws from the result.
        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            S: Strategy,
            F: Fn(Self::Value) -> S + Clone + 'static,
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }

        /// Builds a recursive strategy: `self` is the leaf case and
        /// `recurse` wraps an inner strategy into one more level. The
        /// `_desired_size` / `_branch_size` hints are accepted for
        /// signature compatibility; depth alone bounds recursion here.
        fn prop_recursive<R, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _branch_size: u32,
            recurse: F,
        ) -> BoxedStrategy<Self::Value>
        where
            R: Strategy<Value = Self::Value>,
            F: Fn(BoxedStrategy<Self::Value>) -> R,
            Self: Sized,
        {
            let leaf = self.boxed();
            let mut level = leaf.clone();
            for _ in 0..depth {
                // Mix the leaf back in at every level so generated
                // trees have varied, not uniformly maximal, depth.
                let deeper = recurse(level).boxed();
                level = Union::weighted(vec![(1, leaf.clone()), (3, deeper)]).boxed();
            }
            level
        }

        /// Type-erases the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized,
        {
            let this = self;
            BoxedStrategy(Rc::new(move |rng: &mut TestRng| this.generate(rng)))
        }
    }

    /// A type-erased strategy (cheaply cloneable).
    pub struct BoxedStrategy<T>(Rc<dyn Fn(&mut TestRng) -> T>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T: 'static> Strategy for BoxedStrategy<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    /// Always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T>(pub T);

    impl<T: Clone + 'static> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        O: 'static,
        F: Fn(S::Value) -> O + Clone + 'static,
    {
        type Value = O;

        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Clone)]
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S, S2, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2 + Clone + 'static,
    {
        type Value = S2::Value;

        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// A weighted choice among same-valued strategies (`prop_oneof!`).
    pub struct Union<T> {
        arms: Vec<(u32, BoxedStrategy<T>)>,
        total: u64,
    }

    impl<T> Clone for Union<T> {
        fn clone(&self) -> Self {
            Union {
                arms: self.arms.clone(),
                total: self.total,
            }
        }
    }

    impl<T: 'static> Union<T> {
        /// Builds from `(weight, strategy)` arms.
        pub fn weighted(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            let total = arms.iter().map(|(w, _)| u64::from(*w)).sum();
            assert!(total > 0, "prop_oneof! weights must not all be zero");
            Union { arms, total }
        }
    }

    impl<T: 'static> Strategy for Union<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            let mut draw = rng.below(self.total);
            for (w, s) in &self.arms {
                let w = u64::from(*w);
                if draw < w {
                    return s.generate(rng);
                }
                draw -= w;
            }
            unreachable!("weights summed correctly")
        }
    }

    /// Types with a canonical whole-domain strategy (`any::<T>()`).
    pub trait Arbitrary: Sized + 'static {
        /// Draws from the full domain.
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

    impl Arbitrary for u128 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
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

    /// The canonical strategy for `T` (`any::<T>()`).
    pub struct Any<T>(PhantomData<T>);

    impl<T> Clone for Any<T> {
        fn clone(&self) -> Self {
            Any(PhantomData)
        }
    }

    /// Strategy over `T`'s whole domain.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = ((self.end as i128) - (self.start as i128)) as u64;
                    let draw = rng.below(span) as i128;
                    (self.start as i128 + draw) as $t
                }
            }

            impl Strategy for RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo + 1) as u64;
                    (lo + rng.below(span) as i128) as $t
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, i8, i16, i32, i64, u64, usize, isize, i128);

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident . $idx:tt),+ $(,)?))+) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )+};
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

    impl Strategy for &'static str {
        type Value = String;

        fn generate(&self, rng: &mut TestRng) -> String {
            crate::string::generate_from_pattern(self, rng)
        }
    }
}

pub mod collection {
    //! Collection strategies (`proptest::collection::vec`).

    use std::ops::{Range, RangeInclusive};

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// An inclusive element-count range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// A strategy yielding vectors of `element` draws.
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Vectors with a size drawn from `size` and elements from
    /// `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo
                + if span == 0 {
                    0
                } else {
                    rng.below(span + 1) as usize
                };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod string {
    //! A generator for the regex subset the workspace's string
    //! strategies use.

    use crate::test_runner::TestRng;

    enum Piece {
        AnyChar,
        Class(Vec<(char, char)>),
        Literal(char),
    }

    struct Atom {
        piece: Piece,
        min: u32,
        max: u32,
    }

    fn parse(pattern: &str) -> Vec<Atom> {
        let mut chars = pattern.chars().peekable();
        let mut atoms = Vec::new();
        while let Some(c) = chars.next() {
            let piece = match c {
                '.' => Piece::AnyChar,
                '[' => {
                    let mut items: Vec<(char, char)> = Vec::new();
                    let mut class: Vec<char> = Vec::new();
                    for d in chars.by_ref() {
                        if d == ']' {
                            break;
                        }
                        class.push(d);
                    }
                    let mut i = 0;
                    while i < class.len() {
                        // `a-z` is a range unless `-` is first or last.
                        if i + 2 < class.len() && class[i + 1] == '-' {
                            items.push((class[i], class[i + 2]));
                            i += 3;
                        } else {
                            items.push((class[i], class[i]));
                            i += 1;
                        }
                    }
                    assert!(!items.is_empty(), "empty character class in `{pattern}`");
                    Piece::Class(items)
                }
                '\\' => Piece::Literal(chars.next().expect("dangling escape")),
                other => Piece::Literal(other),
            };
            let (min, max) = match chars.peek() {
                Some('{') => {
                    chars.next();
                    let mut spec = String::new();
                    for d in chars.by_ref() {
                        if d == '}' {
                            break;
                        }
                        spec.push(d);
                    }
                    match spec.split_once(',') {
                        Some((m, n)) => (
                            m.trim().parse().expect("bad quantifier"),
                            n.trim().parse().expect("bad quantifier"),
                        ),
                        None => {
                            let n: u32 = spec.trim().parse().expect("bad quantifier");
                            (n, n)
                        }
                    }
                }
                Some('*') => {
                    chars.next();
                    (0, 8)
                }
                Some('+') => {
                    chars.next();
                    (1, 8)
                }
                Some('?') => {
                    chars.next();
                    (0, 1)
                }
                _ => (1, 1),
            };
            atoms.push(Atom { piece, min, max });
        }
        atoms
    }

    fn any_char(rng: &mut TestRng) -> char {
        // Mostly printable ASCII; occasionally an arbitrary scalar so
        // parser fuzzing still sees multi-byte UTF-8.
        if rng.below(8) != 0 {
            char::from_u32(0x20 + rng.below(0x5f) as u32).expect("printable ascii")
        } else {
            loop {
                if let Some(c) = char::from_u32(rng.below(0x11_0000) as u32) {
                    return c;
                }
            }
        }
    }

    /// Generates one string matching `pattern`.
    pub fn generate_from_pattern(pattern: &str, rng: &mut TestRng) -> String {
        let mut out = String::new();
        for atom in parse(pattern) {
            let span = u64::from(atom.max - atom.min) + 1;
            let count = atom.min + rng.below(span) as u32;
            for _ in 0..count {
                match &atom.piece {
                    Piece::AnyChar => out.push(any_char(rng)),
                    Piece::Literal(c) => out.push(*c),
                    Piece::Class(items) => {
                        let (lo, hi) = items[rng.below(items.len() as u64) as usize];
                        let offset = rng.below(hi as u64 - lo as u64 + 1) as u32;
                        out.push(char::from_u32(lo as u32 + offset).expect("class range"));
                    }
                }
            }
        }
        out
    }
}

pub mod prelude {
    //! Everything a test file imports with `use proptest::prelude::*`.

    pub use crate::strategy::{any, Arbitrary, BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// The crate under its conventional prelude alias, matching real
    /// proptest's `prelude::prop` (for `prop::collection::vec` etc.).
    pub use crate as prop;
}

/// Defines property tests: each `fn name(arg in strategy, ..) { body }`
/// becomes a `#[test]` running `cases` random iterations.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!{ ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let mut rng = $crate::test_runner::TestRng::deterministic(
                concat!(module_path!(), "::", stringify!($name)),
            );
            let strategies = ($($strat,)+);
            for case in 0..config.cases {
                let ($($arg,)+) =
                    $crate::strategy::Strategy::generate(&strategies, &mut rng);
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(err) = outcome {
                    ::std::panic!(
                        "property `{}` failed at case {}/{}: {}",
                        stringify!($name),
                        case + 1,
                        config.cases,
                        err
                    );
                }
            }
        }
        $crate::__proptest_fns!{ ($cfg) $($rest)* }
    };
}

/// Weighted (`w => strategy`) or uniform choice among strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::weighted(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::weighted(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
}

/// Fails the surrounding property when `cond` is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(::std::format!($($fmt)+)),
            );
        }
    };
}

/// Fails the surrounding property when the values differ.
#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *lhs == *rhs,
            "assertion failed: `{:?}` == `{:?}`", lhs, rhs
        );
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)+) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *lhs == *rhs,
            "assertion failed: `{:?}` == `{:?}`: {}", lhs, rhs, ::std::format!($($fmt)+)
        );
    }};
}

/// Fails the surrounding property when the values are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *lhs != *rhs,
            "assertion failed: `{:?}` != `{:?}`", lhs, rhs
        );
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)+) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *lhs != *rhs,
            "assertion failed: `{:?}` != `{:?}`: {}", lhs, rhs, ::std::format!($($fmt)+)
        );
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn rng() -> TestRng {
        TestRng::deterministic("proptest::tests")
    }

    #[test]
    fn ranges_and_tuples_generate_in_bounds() {
        let mut rng = rng();
        let s = (1usize..=5, -4i128..=4);
        for _ in 0..200 {
            let (a, b) = s.generate(&mut rng);
            assert!((1..=5).contains(&a));
            assert!((-4..=4).contains(&b));
        }
    }

    #[test]
    fn oneof_respects_zero_weight_absence() {
        let mut rng = rng();
        let s = prop_oneof![3 => Just(1u8), 1 => Just(2u8)];
        let mut seen = [0usize; 3];
        for _ in 0..400 {
            seen[s.generate(&mut rng) as usize - 1] += 1;
        }
        assert!(seen[0] > seen[1], "weighted arm should dominate: {seen:?}");
        assert!(seen[1] > 0, "light arm must still appear");
    }

    #[test]
    fn recursive_strategies_terminate_and_vary() {
        #[derive(Clone, Debug)]
        enum Tree {
            Leaf(#[allow(dead_code)] u8),
            Node(Box<Tree>, Box<Tree>),
        }
        fn depth(t: &Tree) -> usize {
            match t {
                Tree::Leaf(_) => 0,
                Tree::Node(a, b) => 1 + depth(a).max(depth(b)),
            }
        }
        let s = any::<u8>()
            .prop_map(Tree::Leaf)
            .prop_recursive(4, 32, 2, |inner| {
                (inner.clone(), inner).prop_map(|(a, b)| Tree::Node(Box::new(a), Box::new(b)))
            });
        let mut rng = rng();
        let mut max_depth = 0;
        for _ in 0..200 {
            let t = s.generate(&mut rng);
            let d = depth(&t);
            assert!(d <= 4, "depth bound violated");
            max_depth = max_depth.max(d);
        }
        assert!(max_depth >= 2, "recursion never fired");
    }

    #[test]
    fn vec_strategy_honors_size_forms() {
        let mut rng = rng();
        for _ in 0..100 {
            assert_eq!(
                crate::collection::vec(Just(0u8), 5)
                    .generate(&mut rng)
                    .len(),
                5
            );
            let l = crate::collection::vec(Just(0u8), 1..4)
                .generate(&mut rng)
                .len();
            assert!((1..4).contains(&l));
            let m = crate::collection::vec(Just(0u8), 0..=2)
                .generate(&mut rng)
                .len();
            assert!(m <= 2);
        }
    }

    #[test]
    fn string_patterns_match_their_alphabet() {
        let mut rng = rng();
        for _ in 0..100 {
            let s = "[-~ ()xyz0-9+*&|^]{0,48}".generate(&mut rng);
            assert!(s.chars().count() <= 48);
            assert!(s
                .chars()
                .all(|c| "-~ ()xyz+*&|^".contains(c) || c.is_ascii_digit()));
            let t = ".{0,64}".generate(&mut rng);
            assert!(t.chars().count() <= 64);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The macro wires strategies, assertions, and `?` together.
        #[test]
        fn macro_machinery_works(a in 0u64..100, b in any::<bool>()) {
            prop_assert!(a < 100);
            if b {
                prop_assert_ne!(a, 100);
            }
            prop_assert_eq!(a, a, "reflexivity of {}", a);
        }
    }
}
