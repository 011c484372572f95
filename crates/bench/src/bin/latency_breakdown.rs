//! Decompose the headline numbers per layer: where does each microsecond
//! of the 4-byte round-trip — and each percent of the peak-bandwidth
//! window — go, for TCP over LANE, native VIA, and SOVIA?
//!
//!   cargo run -p bench --release --bin latency_breakdown [-- --trace out.json]
//!
//! Each variant is re-run once with `dsim::trace` enabled; spans inside
//! the marked measurement window are attributed so components sum
//! exactly to the end-to-end numbers of `results/fig6a.txt` /
//! `results/fig6b.txt`. `--trace PATH` additionally writes the raw
//! traces as Chrome trace-event JSON (load in Perfetto). Runs are
//! sequential and deterministic: all output — including the trace file —
//! is byte-identical at any `--threads` value.

use bench::{cli, report};

fn main() {
    let args = cli::BenchCli::parse_env();
    args.reject_seed("latency_breakdown");
    args.emit(report::latency_breakdown(args.trace.is_some()));
}
