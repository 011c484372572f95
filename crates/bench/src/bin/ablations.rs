//! Design-choice ablations (window size, ACK threshold, copy threshold,
//! handler-thread penalty).
//!
//!   cargo run -p bench --release --bin ablations [-- --threads N] [--trace out.json]
//!
//! `--threads` caps concurrent simulations; the output is byte-identical
//! at any thread count. `--trace` re-runs the 2 KB ablation workload
//! (two-way vs REQ/ACK handshake latency and the COMBINE stream) with
//! tracing enabled and writes a Chrome trace-event (Perfetto) JSON file.

use bench::micro::Variant;
use bench::{cli, figures, micro};
use dsim::TraceConfig;
use sovia::SoviaConfig;

fn main() {
    let args = cli::BenchCli::parse_env();
    args.reject_seed("ablations");
    let threads = args.threads();
    let w = bench::ablate::window_sweep(2048, &[1, 2, 4, 8, 16, 32, 64], threads);
    println!("# Ablation: window size w (bandwidth at 2KB messages, Mbps)");
    for (x, v) in &w.points {
        println!("  w={x:<4} {v:>8.1}");
    }
    let t = bench::ablate::ack_threshold_sweep(2048, &[1, 2, 4, 8, 16, 24], threads);
    println!("# Ablation: delayed-ACK threshold t (bandwidth at 2KB, Mbps; w=32)");
    for (x, v) in &t.points {
        println!("  t={x:<4} {v:>8.1}");
    }
    let c =
        bench::ablate::copy_threshold_sweep(2048, &[256, 512, 1024, 2048, 4096, 8192], threads);
    println!("# Ablation: copy-vs-register threshold (latency of 2KB messages, usec)");
    for (x, v) in &c.points {
        println!("  thr={x:<6} {v:>8.1}");
    }
    let hs = bench::ablate::handshake_comparison(&[4, 256, 2048], threads);
    println!("# Ablation: two-way vs REQ/ACK three-way handshake (one-way latency, usec)");
    for series in &hs {
        print!("  {:<22}", series.name);
        for (sz, v) in &series.points {
            print!("  {sz}B={v:.1}");
        }
        println!();
    }
    let h = bench::ablate::handler_gap_us(&[4, 256, 1024, 4096], threads);
    println!("# Ablation: handler-thread latency penalty vs message size (usec)");
    for (x, v) in &h.points {
        println!("  size={x:<6} {v:>8.1}");
    }
    if let Some(path) = &args.trace {
        let reps = [
            (
                "SOVIA two-way 2KB latency",
                Variant::Sovia(SoviaConfig::single()),
                false,
            ),
            (
                "REQ/ACK three-way 2KB latency",
                Variant::Sovia(SoviaConfig::reqack()),
                false,
            ),
            (
                "SOVIA_COMBINE 2KB stream",
                Variant::Sovia(SoviaConfig::combine()),
                true,
            ),
        ];
        let parts: Vec<_> = reps
            .iter()
            .map(|(label, v, stream)| {
                let out = if *stream {
                    micro::bandwidth_traced(
                        v,
                        2048,
                        figures::bandwidth_total(2048),
                        Some(TraceConfig::default()),
                    )
                } else {
                    micro::latency_traced(
                        v,
                        2048,
                        30,
                        Some(TraceConfig::default()),
                    )
                };
                (label.to_string(), out.trace.expect("tracing was enabled"))
            })
            .collect();
        cli::write_trace(path, &parts);
    }
}
