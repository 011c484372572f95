//! Seeded property cases for the `proptest_*` suites, drawn straight from
//! the simulator's own generator ([`SimRng`]).
//!
//! A property's generator is seeded with the FNV-1a hash of its name, so
//! every run on every machine checks the same cases. There is no
//! shrinking: a failing case prints its property, case number and inputs,
//! and rerunning the test replays it.

use std::fmt::Debug;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};

use dsim::rng::SimRng;

/// The generator of `property`'s cases (FNV-1a of the name as the seed).
pub fn rng_for(property: &str) -> SimRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in property.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    SimRng::seed_from(h)
}

/// Run `body` on `cases` accepted inputs from `draw`. A draw of `None`
/// rejects the input: it is redrawn and not counted, up to
/// `max(10 × cases, 64)` draws in all.
pub fn check<T: Debug>(
    property: &str,
    cases: u32,
    mut draw: impl FnMut(&mut SimRng) -> Option<T>,
    mut body: impl FnMut(T),
) {
    let mut rng = rng_for(property);
    let max_draws = cases.saturating_mul(10).max(64);
    let (mut passed, mut draws) = (0, 0);
    while passed < cases {
        assert!(
            draws < max_draws,
            "{property}: too many rejected cases ({draws} draws for {cases} cases)"
        );
        draws += 1;
        let Some(input) = draw(&mut rng) else {
            continue;
        };
        let shown = format!("{input:?}");
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| body(input))) {
            eprintln!(
                "{property}: case {} of {cases} failed\n  inputs: {shown}",
                passed + 1
            );
            panic::resume_unwind(payload);
        }
        passed += 1;
    }
}

/// Uniform in `r` (half-open).
pub fn range(rng: &mut SimRng, r: Range<usize>) -> usize {
    r.start + rng.below((r.end - r.start) as u64) as usize
}
