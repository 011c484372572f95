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

use bench::{cli, fault_sweep, report};

fn main() {
    let args = cli::BenchCli::parse_env();
    let seed = args.seed.unwrap_or(fault_sweep::SWEEP_SEED);
    args.emit(report::fault_sweep(
        args.threads(),
        seed,
        args.trace.is_some(),
    ));
}
