//! Helpers shared by the root suites: seeded property cases, drawn
//! straight from the simulator's own generator ([`SimRng`]), and the
//! socket-scenario runner ([`scenario`]).
//!
//! A property's generator is seeded with the FNV-1a hash of its name, so
//! every run on every machine checks the same cases. There is no
//! shrinking: a failing case prints its property, case number and inputs,
//! and rerunning the test replays it.

// Each suite uses a part of these helpers.
#![allow(dead_code)]

pub mod scenario;

use std::fmt::Debug;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};

use dsim::rng::SimRng;

/// The 64-bit FNV-1a hash of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The generator of `property`'s cases (FNV-1a of the name as the seed).
pub fn rng_for(property: &str) -> SimRng {
    SimRng::seed_from(fnv1a(property.as_bytes()))
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
