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

use bench::{breakdown, cli, figures};

/// Peak-bandwidth message size (the top of the Figure 6(b) sweep).
const BW_SIZE: usize = 32 * 1024;

fn main() {
    let args = cli::BenchCli::parse_env();
    args.reject_seed("latency_breakdown");

    let lat = breakdown::latency_breakdown(4, figures::LATENCY_ROUNDS);
    print!("{}", breakdown::render_latency(4, figures::LATENCY_ROUNDS, &lat));
    println!();
    let bw = breakdown::bandwidth_breakdown(BW_SIZE, figures::bandwidth_total(BW_SIZE));
    print!("{}", breakdown::render_bandwidth(BW_SIZE, &bw));
    println!();
    print!("{}", breakdown::render_procs(&lat));

    if let Some(path) = &args.trace {
        let mut parts = breakdown::trace_parts("latency 4B", &lat);
        parts.extend(breakdown::trace_parts("bandwidth 32KB", &bw));
        cli::write_trace(path, &parts);
    }
}
