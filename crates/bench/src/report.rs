//! What each bench binary prints, and the traced re-runs behind its
//! `--trace` file. The binaries in `src/bin/` print these reports; the
//! root package's `tests/goldens.rs` compares the fast ones with
//! `results/` byte for byte.

use std::fmt::Write as _;

use dsim::{TraceConfig, TraceData};
use sovia::SoviaConfig;

use crate::micro::Variant;
use crate::runner::RunOutput;
use crate::{ablate, breakdown, fault_sweep, fig7, figures, micro, table1};

/// One binary's output.
pub struct Report {
    /// The table the binary prints (committed as `results/<binary>.txt`).
    pub text: String,
    /// The traced simulations `--trace` writes as JSON, if the report was
    /// built with `trace` set.
    pub trace: Option<Vec<(String, TraceData)>>,
}

/// A traced re-run's trace, labelled.
fn traced<T>(label: String, out: RunOutput<T>) -> (String, TraceData) {
    (label, out.trace.expect("tracing was enabled"))
}

/// Figure 6(a), latency; traced: every variant's 4-byte point.
pub fn fig6a(threads: usize, trace: bool) -> Report {
    let sizes = figures::FIG6A_SIZES;
    let outcome = figures::run_fig6a_sweep(&sizes, figures::LATENCY_ROUNDS, threads);
    let title = "Figure 6(a): Latency (Giganet cLAN1000, simulated)";
    let text = micro::render_table(title, "usec, one-way", &sizes, &outcome.series);
    let trace = trace.then(|| {
        figures::fig6a_variants()
            .iter()
            .map(|v| {
                let cfg = Some(TraceConfig::default());
                let out = micro::latency_traced(v, 4, figures::LATENCY_ROUNDS, cfg);
                traced(format!("{} 4B latency", v.label()), out)
            })
            .collect()
    });
    Report { text, trace }
}

/// Figure 6(b), bandwidth; traced: every variant's 32 KB point.
pub fn fig6b(threads: usize, trace: bool) -> Report {
    let sizes = figures::FIG6B_SIZES;
    let outcome = figures::run_fig6b_sweep(&sizes, figures::bandwidth_total, threads);
    let title = "Figure 6(b): Bandwidth (Giganet cLAN1000, simulated)";
    let text = micro::render_table(title, "Mbps", &sizes, &outcome.series);
    let trace = trace.then(fig6b_trace);
    Report { text, trace }
}

/// The traced runs behind `fig6b --trace`, without the sweep: a fraction
/// of the table's cost, so tier-1 checks their digest.
pub fn fig6b_trace() -> Vec<(String, TraceData)> {
    let size = 32 * 1024;
    figures::fig6b_variants()
        .iter()
        .map(|v| {
            let total = figures::bandwidth_total(size);
            let out = micro::bandwidth_traced(v, size, total, Some(TraceConfig::default()));
            traced(format!("{} 32KB stream", v.label()), out)
        })
        .collect()
}

/// Figure 7, RPC elapsed time; traced: every platform's 128-byte point.
pub fn fig7(threads: usize, trace: bool) -> Report {
    let sizes = fig7::FIG7_SIZES;
    let series = fig7::run_fig7_with(&sizes, threads);
    let title = "Figure 7: Average elapsed time for a single RPC";
    let text = micro::render_table(title, "usec", &sizes, &series);
    let trace = trace.then(|| {
        fig7::fig7_platforms()
            .iter()
            .map(|(label, p)| {
                let out = fig7::rpc_elapsed_traced(p, 128, Some(TraceConfig::default()));
                traced(format!("{label} 128B RPC"), out)
            })
            .collect()
    });
    Report { text, trace }
}

/// Table 1, FTP transfers; traced: the network platforms' File 1.
pub fn table1(threads: usize, trace: bool) -> Report {
    let sizes = table1::FILE_SIZES;
    let rows = table1::run_table1_with(&sizes, threads);
    let text = table1::render(&rows, &sizes);
    let trace = trace.then(table1_trace);
    Report { text, trace }
}

/// The traced runs behind `table1 --trace`, without the table: the
/// network platforms' File 1, a fraction of the table's cost, so tier-1
/// checks their digest.
pub fn table1_trace() -> Vec<(String, TraceData)> {
    let size = table1::FILE_SIZES[0];
    table1::table1_rows()
        .iter()
        .filter_map(|(label, p)| {
            let cfg = Some(TraceConfig::default());
            let out = table1::ftp_transfer_traced(p.as_ref()?, size, cfg);
            Some(traced(format!("{label} file1 FTP"), out))
        })
        .collect()
}

/// The design-choice ablations; traced: the 2 KB two-way and REQ/ACK
/// latency and the COMBINE stream.
pub fn ablations(threads: usize, trace: bool) -> Report {
    let mut text = String::new();
    let out = &mut text;
    let w = ablate::window_sweep(2048, &[1, 2, 4, 8, 16, 32, 64], threads);
    let _ = writeln!(
        out,
        "# Ablation: window size w (bandwidth at 2KB messages, Mbps)"
    );
    for (x, v) in &w.points {
        let _ = writeln!(out, "  w={x:<4} {v:>8.1}");
    }
    let t = ablate::ack_threshold_sweep(2048, &[1, 2, 4, 8, 16, 24], threads);
    let _ = writeln!(
        out,
        "# Ablation: delayed-ACK threshold t (bandwidth at 2KB, Mbps; w=32)"
    );
    for (x, v) in &t.points {
        let _ = writeln!(out, "  t={x:<4} {v:>8.1}");
    }
    let c = ablate::copy_threshold_sweep(2048, &[256, 512, 1024, 2048, 4096, 8192], threads);
    let _ = writeln!(
        out,
        "# Ablation: copy-vs-register threshold (latency of 2KB messages, usec)"
    );
    for (x, v) in &c.points {
        let _ = writeln!(out, "  thr={x:<6} {v:>8.1}");
    }
    let hs = ablate::handshake_comparison(&[4, 256, 2048], threads);
    let _ = writeln!(
        out,
        "# Ablation: two-way vs REQ/ACK three-way handshake (one-way latency, usec)"
    );
    for series in &hs {
        let _ = write!(out, "  {:<22}", series.name);
        for (sz, v) in &series.points {
            let _ = write!(out, "  {sz}B={v:.1}");
        }
        let _ = writeln!(out);
    }
    let h = ablate::handler_gap_us(&[4, 256, 1024, 4096], threads);
    let _ = writeln!(
        out,
        "# Ablation: handler-thread latency penalty vs message size (usec)"
    );
    for (x, v) in &h.points {
        let _ = writeln!(out, "  size={x:<6} {v:>8.1}");
    }
    let trace = trace.then(|| {
        let reps = [
            ("SOVIA two-way 2KB latency", SoviaConfig::single(), false),
            (
                "REQ/ACK three-way 2KB latency",
                SoviaConfig::reqack(),
                false,
            ),
            ("SOVIA_COMBINE 2KB stream", SoviaConfig::combine(), true),
        ];
        reps.into_iter()
            .map(|(label, config, stream)| {
                let (v, cfg) = (Variant::Sovia(config), Some(TraceConfig::default()));
                let out = if stream {
                    micro::bandwidth_traced(&v, 2048, figures::bandwidth_total(2048), cfg)
                } else {
                    micro::latency_traced(&v, 2048, 30, cfg)
                };
                traced(label.to_string(), out)
            })
            .collect()
    });
    Report { text, trace }
}

/// TCP goodput and recovery latency against frame loss, every point's
/// fault lane seeded from `seed`; traced: the 1% loss point.
pub fn fault_sweep(threads: usize, seed: u64, trace: bool) -> Report {
    let points = fault_sweep::run_fault_sweep_seeded(threads, seed);
    let text = fault_sweep::render_fault_table(&points);
    let trace = trace.then(|| {
        let (msg, total) = (fault_sweep::STREAM_MSG, fault_sweep::STREAM_TOTAL);
        let cfg = Some(TraceConfig::default());
        let (_, data) = fault_sweep::lossy_tcp_stream_traced(0.01, seed ^ 3, msg, total, cfg);
        let label = "TCP stream, 1% frame loss".to_string();
        vec![(label, data.expect("tracing was enabled"))]
    });
    Report { text, trace }
}

/// The per-layer breakdown of the 4-byte round trip and the 32 KB stream
/// (always traced: the attribution reads the traces it writes).
pub fn latency_breakdown(trace: bool) -> Report {
    /// Peak-bandwidth message size (the top of the Figure 6(b) sweep).
    const BW_SIZE: usize = 32 * 1024;
    let lat = breakdown::latency_breakdown(4, figures::LATENCY_ROUNDS);
    let bw = breakdown::bandwidth_breakdown(BW_SIZE, figures::bandwidth_total(BW_SIZE));
    let text = [
        breakdown::render_latency(4, figures::LATENCY_ROUNDS, &lat),
        breakdown::render_bandwidth(BW_SIZE, &bw),
        breakdown::render_procs(&lat),
    ]
    .join("\n");
    let trace = trace.then(|| {
        let mut parts = breakdown::trace_parts("latency 4B", &lat);
        parts.extend(breakdown::trace_parts("bandwidth 32KB", &bw));
        parts
    });
    Report { text, trace }
}
