//! Regenerate Figure 6(a): latency on simulated cLAN.
//!
//!   cargo run -p bench --release --bin fig6a [-- --threads N] [--trace out.json]
//!
//! `--threads` caps concurrent simulations; the output is byte-identical
//! at any thread count. `--trace` re-runs every variant's 4-byte point
//! with tracing enabled and writes a Chrome trace-event (Perfetto) JSON
//! file — also byte-identical at any thread count.

use bench::{cli, figures, micro};
use dsim::TraceConfig;

fn main() {
    let args = cli::BenchCli::parse_env();
    args.reject_seed("fig6a");
    let sizes = figures::FIG6A_SIZES;
    let outcome = figures::run_fig6a_sweep(
        &sizes,
        figures::LATENCY_ROUNDS,
        args.threads(),
    );
    print!(
        "{}",
        micro::render_table(
            "Figure 6(a): Latency (Giganet cLAN1000, simulated)",
            "usec, one-way",
            &sizes,
            &outcome.series
        )
    );
    if let Some(path) = &args.trace {
        let parts: Vec<_> = figures::fig6a_variants()
            .iter()
            .map(|v| {
                let out = micro::latency_traced(
                    v,
                    4,
                    figures::LATENCY_ROUNDS,
                    Some(TraceConfig::default()),
                );
                (
                    format!("{} 4B latency", v.label()),
                    out.trace.expect("tracing was enabled"),
                )
            })
            .collect();
        cli::write_trace(path, &parts);
    }
}
