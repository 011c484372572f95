//! Regenerate Figure 7: average elapsed time for a single RPC.
//!
//!   cargo run -p bench --release --bin fig7 [-- --threads N] [--trace out.json]
//!
//! `--threads` caps concurrent simulations; the output is byte-identical
//! at any thread count. `--trace` re-runs every platform's 128-byte point
//! with tracing enabled and writes a Chrome trace-event (Perfetto) JSON
//! file.

use bench::{cli, fig7, micro};
use dsim::TraceConfig;

fn main() {
    let args = cli::BenchCli::parse_env();
    args.reject_seed("fig7");
    let sizes = fig7::FIG7_SIZES;
    let series = fig7::run_fig7_with(&sizes, args.threads());
    print!(
        "{}",
        micro::render_table(
            "Figure 7: Average elapsed time for a single RPC",
            "usec",
            &sizes,
            &series
        )
    );
    if let Some(path) = &args.trace {
        let parts: Vec<_> = fig7::fig7_platforms()
            .iter()
            .map(|(label, p)| {
                let out = fig7::rpc_elapsed_traced(p, 128, Some(TraceConfig::default()));
                (
                    format!("{label} 128B RPC"),
                    out.trace.expect("tracing was enabled"),
                )
            })
            .collect();
        cli::write_trace(path, &parts);
    }
}
