//! Strategies: deterministic value generators.
//!
//! A [`Strategy`] here is simply a sampler — there is no value tree and no
//! shrinking. Samplers must consume RNG draws in a stable order so a test
//! path + case index always reproduces the same inputs.

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

use dsim::rng::SimRng;

use crate::test_runner::TestRng;

/// A generator of values of one type.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generate one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with a function.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { source: self, f }
    }

    /// Generate a dependent second stage from each value.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { source: self, f }
    }

    /// Keep only values satisfying a predicate (rejection-sampled with a
    /// bounded retry count).
    fn prop_filter<F>(self, whence: &'static str, f: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            source: self,
            whence,
            f,
        }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (**self).sample(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    source: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.source.sample(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    source: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;
    fn sample(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.source.sample(rng)).sample(rng)
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    source: S,
    whence: &'static str,
    f: F,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.source.sample(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!("prop_filter({}) rejected 1000 straight samples", self.whence);
    }
}

/// Always produce a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// A boxed sampler arm of a `prop_oneof!`.
pub type UnionArm<V> = Box<dyn Fn(&mut TestRng) -> V + Send + Sync>;

/// Uniform choice among boxed samplers (built by `prop_oneof!`).
pub struct Union<V> {
    choices: Vec<UnionArm<V>>,
}

impl<V> Union<V> {
    /// Build from the candidate samplers.
    pub fn new(choices: Vec<UnionArm<V>>) -> Union<V> {
        assert!(!choices.is_empty(), "prop_oneof! needs at least one arm");
        Union { choices }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn sample(&self, rng: &mut TestRng) -> V {
        let i = rng.inner.below(self.choices.len() as u64) as usize;
        (self.choices[i])(rng)
    }
}

/// Types [`any`] can generate, each from one 64-bit draw.
pub trait Random {
    /// Draw one value.
    fn random(rng: &mut SimRng) -> Self;
}

macro_rules! impl_random_int {
    ($($t:ty),*) => {$(
        impl Random for $t {
            fn random(rng: &mut SimRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_random_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Random for bool {
    fn random(rng: &mut SimRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Random for f64 {
    fn random(rng: &mut SimRng) -> f64 {
        rng.unit_f64()
    }
}

/// Strategy of every value of a type (`any::<T>()`).
pub struct Any<T>(PhantomData<fn() -> T>);

impl<T: Random> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::random(&mut rng.inner)
    }
}

/// Types with a canonical [`Any`] strategy.
pub trait Arbitrary: Sized {
    /// The strategy `any::<Self>()` returns.
    type Strategy: Strategy<Value = Self>;
    /// Build that strategy.
    fn arbitrary() -> Self::Strategy;
}

impl<T: Random> Arbitrary for T {
    type Strategy = Any<T>;
    fn arbitrary() -> Any<T> {
        Any(PhantomData)
    }
}

/// The canonical strategy for a type.
pub fn any<A: Arbitrary>() -> A::Strategy {
    A::arbitrary()
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + rng.inner.uniform_below(span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                (lo as i128 + rng.inner.uniform_below(span) as i128) as $t
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident : $idx:tt),+);)*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (S0: 0);
    (S0: 0, S1: 1);
    (S0: 0, S1: 1, S2: 2);
    (S0: 0, S1: 1, S2: 2, S3: 3);
    (S0: 0, S1: 1, S2: 2, S3: 3, S4: 4);
    (S0: 0, S1: 1, S2: 2, S3: 3, S4: 4, S5: 5);
}

/// A `&str` is a string strategy. Only the shapes this workspace uses are
/// interpreted: a char-class pattern with a `{min,max}` length suffix
/// (e.g. `"\\PC{0,120}"`, printable chars); anything else generates short
/// alphanumeric strings.
impl Strategy for &'static str {
    type Value = String;
    fn sample(&self, rng: &mut TestRng) -> String {
        let (min, max) = parse_len_suffix(self).unwrap_or((0, 16));
        let len = rng.inner.range_inclusive(min as u64, max as u64) as usize;
        // Printable alphabet with a couple of multi-byte code points so
        // UTF-8 handling is exercised.
        const EXTRA: [char; 4] = ['é', 'Ω', '→', '☃'];
        (0..len)
            .map(|_| {
                if rng.inner.below(16) == 0 {
                    EXTRA[rng.inner.below(EXTRA.len() as u64) as usize]
                } else {
                    (0x20u8..0x7F).sample(rng) as char
                }
            })
            .collect()
    }
}

fn parse_len_suffix(pattern: &str) -> Option<(usize, usize)> {
    let body = pattern.strip_suffix('}')?;
    let open = body.rfind('{')?;
    let mut parts = body[open + 1..].splitn(2, ',');
    let min: usize = parts.next()?.trim().parse().ok()?;
    let max: usize = match parts.next() {
        Some(s) => s.trim().parse().ok()?,
        None => min,
    };
    Some((min, max.max(min)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_and_tuples() {
        let mut rng = TestRng::from_seed(1);
        for _ in 0..200 {
            let v = (1usize..10, 5u32..=6, -10i32..10).sample(&mut rng);
            assert!((1..10).contains(&v.0));
            assert!((5..=6).contains(&v.1));
            assert!((-10..10).contains(&v.2));
        }
    }

    #[test]
    fn map_and_just() {
        let mut rng = TestRng::from_seed(2);
        let s = (0u8..10).prop_map(|x| x as u32 + 100);
        for _ in 0..50 {
            let v = s.sample(&mut rng);
            assert!((100..110).contains(&v));
        }
        assert_eq!(Just(7).sample(&mut rng), 7);
    }

    #[test]
    fn string_pattern_lengths() {
        let mut rng = TestRng::from_seed(3);
        let s: &'static str = "\\PC{0,120}";
        for _ in 0..100 {
            let v = Strategy::sample(&s, &mut rng);
            assert!(v.chars().count() <= 120);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut rng = TestRng::from_seed(9);
            (0..32).map(|_| (0u64..1000).sample(&mut rng)).collect()
        };
        let b: Vec<u64> = {
            let mut rng = TestRng::from_seed(9);
            (0..32).map(|_| (0u64..1000).sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
