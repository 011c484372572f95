//! Collection strategies (`prop::collection::vec`).

use std::ops::Range;

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// Strategy for `Vec<S::Value>` with a length drawn from a range.
pub struct VecStrategy<S> {
    element: S,
    min: usize,
    max_exclusive: usize,
}

/// Generate vectors whose length lies in `size` (half-open, as proptest's
/// `0..300` usage reads).
pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
    assert!(size.start < size.end, "empty vec size range");
    VecStrategy {
        element,
        min: size.start,
        max_exclusive: size.end,
    }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = (self.min..self.max_exclusive).sample(rng);
        (0..len).map(|_| self.element.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::any;

    #[test]
    fn lengths_respect_range() {
        let mut rng = TestRng::from_seed(4);
        let s = vec(any::<u8>(), 3..7);
        for _ in 0..100 {
            let v = s.sample(&mut rng);
            assert!((3..7).contains(&v.len()));
        }
    }

    #[test]
    fn nested_vec_of_tuples() {
        let mut rng = TestRng::from_seed(5);
        let s = vec((any::<bool>(), 0usize..10), 0..5);
        let v = s.sample(&mut rng);
        assert!(v.len() < 5);
    }
}
