//! Design-choice ablations (window size, ACK threshold, copy threshold,
//! handler-thread penalty).
//!
//!   cargo run -p bench --release --bin ablations [-- --threads N] [--trace out.json]
//!
//! `--threads` caps concurrent simulations; the output is byte-identical
//! at any thread count. `--trace` re-runs the 2 KB ablation workload
//! (two-way vs REQ/ACK handshake latency and the COMBINE stream) with
//! tracing enabled and writes a Chrome trace-event (Perfetto) JSON file.

use bench::{cli, report};

fn main() {
    let args = cli::BenchCli::parse_env();
    args.reject_seed("ablations");
    args.emit(report::ablations(args.threads(), args.trace.is_some()));
}
