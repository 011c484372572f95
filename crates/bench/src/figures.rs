//! The experiment definitions, one per table/figure of the paper.
//!
//! Every measurement point is a fresh, independent simulation, so the
//! sweeps run their variant × size grids through
//! [`crate::runner::par_grid`]. Output is byte-identical at any thread
//! count (the runner collects by input index).

use dsim::SchedStats;
use sovia::SoviaConfig;

use crate::micro::{self, Series, Variant};
use crate::runner::{self, RunOutput};

/// Message sizes of Figure 6(a).
pub const FIG6A_SIZES: [usize; 11] = [4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];
/// Message sizes of Figure 6(b).
pub const FIG6B_SIZES: [usize; 14] = [
    4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768,
];

/// Ping-pong rounds per latency point.
pub const LATENCY_ROUNDS: u32 = 40;

/// Bytes streamed per bandwidth point, scaled with the message size so
/// small-message points stay tractable.
pub fn bandwidth_total(size: usize) -> usize {
    // Enough traffic that steady state dominates ramp/stall transients
    // and packet-burst granularity (combining emits 32 KB packets even
    // for 4-byte sends).
    (size * 400).clamp(1024 * 1024, 8 * 1024 * 1024)
}

/// The series of Figure 6(a), in the paper's legend order.
pub fn fig6a_variants() -> Vec<Variant> {
    vec![
        Variant::TcpLane,
        Variant::NativeVia,
        Variant::Sovia(SoviaConfig::handler()),
        Variant::Sovia(SoviaConfig::single()),
        // Fig 6(a) isolates the combining timer's cost: SINGLE plus
        // combining, everything else equal ("increases the latency of
        // SOVIA by 1-2 usec to manage a software timer").
        Variant::Sovia(SoviaConfig {
            combine_small: true,
            ..SoviaConfig::single()
        }),
    ]
}

/// The series of Figure 6(b).
pub fn fig6b_variants() -> Vec<Variant> {
    vec![
        Variant::TcpLane,
        Variant::NativeVia,
        Variant::Sovia(SoviaConfig::single()),
        Variant::Sovia(SoviaConfig::flowctrl()),
        Variant::Sovia(SoviaConfig::dacks()),
        Variant::Sovia(SoviaConfig::combine()),
    ]
}

/// Outcome of a Figure 6 sweep: the figure's series plus the scheduler
/// counters of every simulation, in job order (variant-major: job
/// `vi * sizes.len() + si` is variant `vi` at size index `si`).
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// One series per variant, in legend order.
    pub series: Vec<Series>,
    /// Per-simulation scheduler counters, job order.
    pub sim_stats: Vec<SchedStats>,
}

/// Run `measure` over the `variants × sizes` grid on at most `threads`
/// concurrent simulations.
fn sweep(
    variants: &[Variant],
    sizes: &[usize],
    threads: usize,
    measure: impl Fn(&Variant, usize) -> RunOutput + Sync,
) -> SweepOutcome {
    let rows = runner::par_grid(variants, sizes, threads, |v, &s| measure(v, s));
    SweepOutcome {
        series: variants
            .iter()
            .zip(&rows)
            .map(|(v, row)| Series::new(v.label(), sizes, row.iter().map(|o| o.value)))
            .collect(),
        sim_stats: rows.iter().flatten().map(|o| o.stats).collect(),
    }
}

/// Run the Figure 6(a) grid on at most `threads` concurrent simulations.
pub fn run_fig6a_sweep(sizes: &[usize], rounds: u32, threads: usize) -> SweepOutcome {
    sweep(&fig6a_variants(), sizes, threads, |v, s| {
        micro::latency_traced(v, s, rounds, None)
    })
}

/// Run the Figure 6(b) grid on at most `threads` concurrent simulations.
/// `total` maps a message size to the bytes streamed at that point
/// (normally [`bandwidth_total`]).
pub fn run_fig6b_sweep(
    sizes: &[usize],
    total: impl Fn(usize) -> usize + Sync,
    threads: usize,
) -> SweepOutcome {
    sweep(&fig6b_variants(), sizes, threads, |v, s| {
        micro::bandwidth_traced(v, s, total(s), None)
    })
}
