//! # bench — the experiment harness
//!
//! One module per table/figure of the paper, each regenerating the same
//! rows/series from the simulated platform:
//!
//! * [`figures`] — Figure 6(a) latency and 6(b) bandwidth sweeps;
//! * [`table1`] — the FTP file-transfer table;
//! * [`fig7`] — the RPC elapsed-time figure;
//! * [`ablate`] — parameter sweeps for the design choices (w, t, the
//!   2 KB copy threshold, the handler-thread penalty);
//! * [`fault_sweep`] — TCP goodput and recovery latency vs frame loss on
//!   a lossy Fast Ethernet link (the `simnic::faults` layer end to end);
//! * [`micro`] — the ping-pong / streaming workloads and [`micro::Variant`],
//!   the one platform type (with one `boot`) every experiment runs on;
//! * [`breakdown`] — per-layer decomposition of the end-to-end numbers
//!   from `dsim::trace` spans (the `latency_breakdown` binary);
//! * [`runner`] — the one measurement path: `run_point` runs each point
//!   in a fresh simulation and returns its [`runner::RunOutput`] (value,
//!   counters, trace); [`runner::par_map`] and [`runner::par_grid`] run
//!   many points on a bounded pool of host threads;
//! * [`report`] — what each binary prints and traces, as one function per
//!   binary (the root package's `tests/goldens.rs` checks the fast ones
//!   against `results/`);
//! * [`cli`] — the shared `--threads` / `--seed` / `--trace` parsing of
//!   every bench binary.
//!
//! Binaries `fig6a`, `fig6b`, `table1`, `fig7` and `ablations` print the
//! paper-style tables; `fault_sweep` prints goodput vs frame loss;
//! `latency_breakdown` decomposes the headline numbers per layer. Each
//! one's output is committed as `results/<binary>.txt`. All of them take
//! `--trace PATH` to emit a Perfetto-loadable trace. Host performance is
//! measured separately, by `perfbench/`.

#![warn(missing_docs)]

pub mod ablate;
pub mod breakdown;
pub mod cli;
pub mod fault_sweep;
pub mod fig7;
pub mod figures;
pub mod micro;
pub mod report;
pub mod runner;
pub mod table1;
