//! Trace-layer regression tests: tracing must be an observability
//! no-op (same virtual-time results with tracing off, on, or ignored),
//! and the exported Chrome trace JSON must be byte-identical at any
//! host thread count and across repeated runs.

use bench::micro::{self, Variant};
use bench::{breakdown, runner};
use dsim::{chrome_trace_json, TraceConfig};
use sovia::SoviaConfig;

fn variants() -> Vec<Variant> {
    vec![
        Variant::TcpLane,
        Variant::NativeVia,
        Variant::Sovia(SoviaConfig::single()),
    ]
}

/// Render every fig6a variant's traced 4-byte run into one Chrome JSON
/// document, fanning the simulations out over `threads` host threads.
fn traced_suite_json(threads: usize) -> String {
    let vs = variants();
    let parts: Vec<(String, dsim::TraceData)> = runner::par_map(&vs, threads, |_, v| {
        let out = micro::latency_traced(v, 4, 8, Some(TraceConfig::default()));
        (
            format!("{} 4B latency", v.label()),
            out.trace.expect("tracing was enabled"),
        )
    });
    chrome_trace_json(&parts)
}

/// The fig6a acceptance point: the exported trace JSON is byte-identical
/// at `--threads 1`, `2`, and `8`.
#[test]
fn trace_json_identical_across_thread_counts() {
    let base = traced_suite_json(1);
    assert!(base.contains("traceEvents"));
    for threads in [2, 8] {
        assert_eq!(
            base,
            traced_suite_json(threads),
            "trace JSON drifted at threads={threads}"
        );
    }
}

/// Enabling tracing (and then ignoring the buffer) changes nothing
/// simulated: virtual-time result bits and scheduler counters match the
/// untraced run for every latency variant.
#[test]
fn tracing_enabled_is_a_virtual_time_noop_for_latency() {
    for v in &variants() {
        let untraced = micro::latency_traced(v, 64, 10, None);
        let (plain, plain_stats) = (untraced.value, untraced.stats);
        let traced = micro::latency_traced(v, 64, 10, Some(TraceConfig::default()));
        assert_eq!(
            plain.to_bits(),
            traced.value.to_bits(),
            "{}: tracing changed the measured latency",
            v.label()
        );
        assert_eq!(
            plain_stats,
            traced.stats,
            "{}: tracing changed the scheduler counters",
            v.label()
        );
        assert!(
            !traced.trace.as_ref().unwrap().events.is_empty(),
            "{}: traced run captured no events",
            v.label()
        );
    }
}

/// Same no-op property on the bandwidth (streaming) path.
#[test]
fn tracing_enabled_is_a_virtual_time_noop_for_bandwidth() {
    for v in &variants() {
        let untraced = micro::bandwidth_traced(v, 4096, 128 * 1024, None);
        let (plain, plain_stats) = (untraced.value, untraced.stats);
        let traced = micro::bandwidth_traced(v, 4096, 128 * 1024, Some(TraceConfig::default()));
        assert_eq!(
            plain.to_bits(),
            traced.value.to_bits(),
            "{}: tracing changed the measured bandwidth",
            v.label()
        );
        assert_eq!(plain_stats, traced.stats, "{}: counters drifted", v.label());
    }
}

/// Traces are bit-reproducible: two identical traced runs produce the
/// same Chrome JSON byte for byte.
#[test]
fn trace_json_identical_across_repeated_runs() {
    let run = || {
        let out = micro::latency_traced(
            &Variant::Sovia(SoviaConfig::single()),
            64,
            8,
            Some(TraceConfig::default()),
        );
        chrome_trace_json(&[(
            "SOVIA 64B".to_string(),
            out.trace.expect("tracing was enabled"),
        )])
    };
    assert_eq!(run(), run(), "trace JSON drifted between identical runs");
}

/// The breakdown attribution is exhaustive (components sum exactly to
/// the measurement window, i.e. to the end-to-end latency) and shows the
/// paper's headline contrast: TCP's syscall+copy share is present, and
/// SOVIA's is visibly smaller.
#[test]
fn breakdown_sums_to_window_and_shows_sovia_contrast() {
    let rows = breakdown::latency_breakdown(4, 8);
    assert_eq!(rows.len(), 3);
    for r in &rows {
        let sum: u64 = r.attribution.by_component.iter().map(|(_, ns)| ns).sum();
        assert_eq!(
            sum, r.attribution.window_ns,
            "{}: attribution does not sum to the window",
            r.label
        );
        assert!(
            !r.procs.is_empty(),
            "{}: per-process accounting is empty",
            r.label
        );
        assert!(
            r.procs.iter().any(|p| p.wakeups > 0),
            "{}: no process recorded a wakeup",
            r.label
        );
    }
    let share = |r: &breakdown::VariantBreakdown| {
        (r.attribution.ns(breakdown::Component::Syscall)
            + r.attribution.ns(breakdown::Component::Copy)) as f64
            / r.attribution.window_ns as f64
    };
    let (tcp, sovia) = (&rows[0], &rows[2]);
    assert!(
        share(tcp) > 0.0,
        "TCP shows no syscall+copy time at all: {:?}",
        tcp.attribution
    );
    assert!(
        share(sovia) < share(tcp),
        "SOVIA's syscall+copy share ({:.3}) is not smaller than TCP's ({:.3})",
        share(sovia),
        share(tcp)
    );
    // The user-level library never crosses the kernel boundary on the
    // data path: SOVIA's syscall bucket is exactly zero.
    assert_eq!(
        sovia.attribution.ns(breakdown::Component::Syscall),
        0,
        "SOVIA charged data-path syscall time"
    );
}

/// fig6a's per-point virtual-time numbers are reproduced by the traced
/// window: window / (2 * rounds) equals the reported one-way latency.
#[test]
fn traced_window_reproduces_reported_latency() {
    for v in &variants() {
        let rounds = 8u32;
        let out = micro::latency_traced(v, 4, rounds, Some(TraceConfig::default()));
        let (w0, w1) = out
            .trace
            .as_ref()
            .unwrap()
            .window()
            .expect("measurement window marks missing");
        let us = (w1 - w0) as f64 / f64::from(rounds) / 2.0 / 1e3;
        let diff = (us - out.value).abs();
        assert!(
            diff < 1e-6,
            "{}: window-derived latency {us} != reported {}",
            v.label(),
            out.value
        );
    }
}
