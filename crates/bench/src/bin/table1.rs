//! Regenerate Table 1: FTP file-transfer performance.
//!
//!   cargo run -p bench --release --bin table1 [-- --threads N] [--trace out.json]
//!
//! `--threads` caps concurrent simulations; the output is byte-identical
//! at any thread count. `--trace` re-runs the three network platforms'
//! File 1 transfer with tracing enabled and writes a Chrome trace-event
//! (Perfetto) JSON file.

use bench::{cli, report};

fn main() {
    let args = cli::BenchCli::parse_env();
    args.reject_seed("table1");
    args.emit(report::table1(args.threads(), args.trace.is_some()));
}
