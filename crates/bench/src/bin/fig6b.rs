//! Regenerate Figure 6(b): bandwidth on simulated cLAN.
//!
//!   cargo run -p bench --release --bin fig6b [-- --threads N] [--trace out.json]
//!
//! `--threads` caps concurrent simulations; the output is byte-identical
//! at any thread count. `--trace` re-runs every variant's 32 KB point
//! with tracing enabled and writes a Chrome trace-event (Perfetto) JSON
//! file — also byte-identical at any thread count.

use bench::{cli, report};

fn main() {
    let args = cli::BenchCli::parse_env();
    args.reject_seed("fig6b");
    args.emit(report::fig6b(args.threads(), args.trace.is_some()));
}
