//! Configuration, RNG, and case outcomes for the mini proptest engine.

use dsim::rng::SimRng;

/// Per-suite configuration (`#![proptest_config(...)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of successful cases required per property.
    pub cases: u32,
    /// Kept for source compatibility; shrinking is not implemented.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig {
            cases: 64,
            max_shrink_iters: 0,
        }
    }
}

/// Outcome of one generated case body.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` failed: discard, do not count.
    Reject,
    /// `prop_assert*!` failed.
    Fail(String),
}

/// Deterministic RNG used for case generation, seeded from the test path
/// so every run (and every machine) generates the same cases. It is the
/// simulator's own [`SimRng`].
pub struct TestRng {
    pub(crate) inner: SimRng,
}

impl TestRng {
    /// RNG for the named test (FNV-1a of the full test path as seed).
    pub fn for_test(name: &str) -> TestRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng::from_seed(h)
    }

    /// RNG from an explicit seed (for driving strategies outside `proptest!`).
    pub fn from_seed(seed: u64) -> TestRng {
        TestRng {
            inner: SimRng::seed_from(seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Strategy;

    /// Generated cases are unchanged by the move onto `dsim`'s generator:
    /// these values were recorded before it.
    #[test]
    fn cases_are_pinned() {
        let mut rng = TestRng::from_seed(9);
        let cases: Vec<u64> = (0..8).map(|_| (0u64..1000).sample(&mut rng)).collect();
        assert_eq!(cases, [248, 291, 266, 217, 415, 876, 917, 250]);
    }
}
