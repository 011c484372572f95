//! Regenerate Figure 7: average elapsed time for a single RPC.
//!
//!   cargo run -p bench --release --bin fig7 [-- --threads N] [--trace out.json]
//!
//! `--threads` caps concurrent simulations; the output is byte-identical
//! at any thread count. `--trace` re-runs every platform's 128-byte point
//! with tracing enabled and writes a Chrome trace-event (Perfetto) JSON
//! file.

use bench::{cli, report};

fn main() {
    let args = cli::BenchCli::parse_env();
    args.reject_seed("fig7");
    args.emit(report::fig7(args.threads(), args.trace.is_some()));
}
