//! Print the fault-sweep table: TCP goodput and recovery latency vs
//! frame loss rate on a lossy Fast Ethernet link.
//!
//!   cargo run -p bench --release --bin fault_sweep \
//!       [-- --threads N] [--seed S] [--trace out.json]
//!
//! `--seed` replaces the default base seed ([`fault_sweep::SWEEP_SEED`])
//! for every point's fault lane; the default reproduces the checked-in
//! `results/fault_sweep.txt`. `--trace` re-runs the 1% loss point with
//! tracing enabled and writes a Chrome trace-event (Perfetto) JSON file
//! in which the dropped frames show up as `fault_drop` instants.

use bench::{cli, fault_sweep};
use dsim::TraceConfig;

fn main() {
    let args = cli::BenchCli::parse_env();
    let base_seed = args.seed.unwrap_or(fault_sweep::SWEEP_SEED);
    let points =
        fault_sweep::run_fault_sweep_seeded(args.threads(), base_seed);
    print!("{}", fault_sweep::render_fault_table(&points));
    if let Some(path) = &args.trace {
        let (_, trace) = fault_sweep::lossy_tcp_stream_traced(
            0.01,
            base_seed ^ 3,
            fault_sweep::STREAM_MSG,
            fault_sweep::STREAM_TOTAL,
            Some(TraceConfig::default()),
        );
        let parts = [(
            "TCP stream, 1% frame loss".to_string(),
            trace.expect("tracing was enabled"),
        )];
        cli::write_trace(path, &parts);
    }
}
