//! Regenerate Figure 6(b): bandwidth on simulated cLAN.
//!
//!   cargo run -p bench --release --bin fig6b [-- --threads N] [--trace out.json]
//!
//! `--threads` caps concurrent simulations; the output is byte-identical
//! at any thread count. `--trace` re-runs every variant's 32 KB point
//! with tracing enabled and writes a Chrome trace-event (Perfetto) JSON
//! file — also byte-identical at any thread count.

use bench::{cli, figures, micro};
use dsim::TraceConfig;

fn main() {
    let args = cli::BenchCli::parse_env();
    args.reject_seed("fig6b");
    let sizes = figures::FIG6B_SIZES;
    let outcome = figures::run_fig6b_sweep(
        &sizes,
        figures::bandwidth_total,
        args.threads(),
    );
    print!(
        "{}",
        micro::render_table(
            "Figure 6(b): Bandwidth (Giganet cLAN1000, simulated)",
            "Mbps",
            &sizes,
            &outcome.series
        )
    );
    if let Some(path) = &args.trace {
        let size = 32 * 1024;
        let parts: Vec<_> = figures::fig6b_variants()
            .iter()
            .map(|v| {
                let out = micro::bandwidth_traced(
                    v,
                    size,
                    figures::bandwidth_total(size),
                    Some(TraceConfig::default()),
                );
                (
                    format!("{} 32KB stream", v.label()),
                    out.trace.expect("tracing was enabled"),
                )
            })
            .collect();
        cli::write_trace(path, &parts);
    }
}
