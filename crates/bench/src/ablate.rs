//! Ablations for the design choices DESIGN.md calls out: the parameters
//! the paper fixes (w = 32, t = 16, 2 KB copy threshold) swept to show
//! why those values are reasonable, plus the handshake comparison the
//! paper describes qualitatively in Section 3.1 (REQ/ACK three-way vs
//! SOVIA's two-way handshake, whose cost appears as the stop-and-wait
//! SINGLE series).
//!
//! Every sweep point is a fresh, independent simulation; each sweep runs
//! its points through [`crate::runner::par_map`] on at most `threads`
//! concurrent simulations (output is identical at any thread count).

use sovia::SoviaConfig;

use crate::figures::bandwidth_total;
use crate::micro::{self, Series, Variant};
use crate::runner;

/// Sweep the flow-control window size at a fixed message size.
pub fn window_sweep(msg_size: usize, windows: &[u32], threads: usize) -> Series {
    let points = runner::par_map(windows, threads, |_, &w| {
        let config = SoviaConfig {
            window: w,
            ack_threshold: (w / 2).max(1),
            ..SoviaConfig::single()
        };
        let v = Variant::Sovia(config);
        let out = micro::bandwidth_traced(&v, msg_size, bandwidth_total(msg_size), None);
        (w as usize, out.value)
    });
    Series {
        name: format!("bandwidth@{msg_size}B vs window"),
        points,
    }
}

/// Sweep the delayed-ACK threshold `t` with w = 32.
pub fn ack_threshold_sweep(msg_size: usize, thresholds: &[u32], threads: usize) -> Series {
    let points = runner::par_map(thresholds, threads, |_, &t| {
        let config = SoviaConfig {
            ack_threshold: t,
            ..SoviaConfig::flowctrl()
        };
        let v = Variant::Sovia(config);
        let out = micro::bandwidth_traced(&v, msg_size, bandwidth_total(msg_size), None);
        (t as usize, out.value)
    });
    Series {
        name: format!("bandwidth@{msg_size}B vs ack threshold"),
        points,
    }
}

/// Sweep the copy-vs-register threshold, measuring latency at a message
/// size between the candidate thresholds (the paper picks 2 KB).
pub fn copy_threshold_sweep(msg_size: usize, thresholds: &[usize], threads: usize) -> Series {
    let points = runner::par_map(thresholds, threads, |_, &thr| {
        let config = SoviaConfig {
            copy_threshold: thr,
            ..SoviaConfig::dacks()
        };
        let v = Variant::Sovia(config);
        (thr, micro::latency_traced(&v, msg_size, 30, None).value)
    });
    Series {
        name: format!("latency@{msg_size}B vs copy threshold"),
        points,
    }
}

/// Latency of the rejected REQ/ACK three-way handshake vs SOVIA's two-way
/// handshake (Section 3.1: "the overhead of exchanging REQ and ACK packets
/// ... has a substantial impact on the latency especially for small
/// messages").
pub fn handshake_comparison(sizes: &[usize], threads: usize) -> Vec<Series> {
    let configs = [SoviaConfig::single(), SoviaConfig::reqack()];
    let rows = latency_grid(configs, sizes, threads);
    ["two-way (SOVIA)", "three-way (REQ/ACK)"]
        .iter()
        .zip(rows)
        .map(|(name, row)| Series::new(*name, sizes, row))
        .collect()
}

/// Latency cost of the handler thread as a function of message size: the
/// SOVIA_HANDLER minus SOVIA_SINGLE gap (the paper: "more than 15 µsec").
pub fn handler_gap_us(sizes: &[usize], threads: usize) -> Series {
    let configs = [SoviaConfig::single(), SoviaConfig::handler()];
    let rows = latency_grid(configs, sizes, threads);
    let gaps = rows[1].iter().zip(&rows[0]).map(|(h, s)| h - s);
    Series::new("handler-thread latency penalty", sizes, gaps)
}

/// 30-round latency of SOVIA in each configuration at every size, one
/// row per configuration.
fn latency_grid(configs: [SoviaConfig; 2], sizes: &[usize], threads: usize) -> Vec<Vec<f64>> {
    let variants = configs.map(Variant::Sovia);
    runner::par_grid(&variants, sizes, threads, |v, &s| {
        micro::latency_traced(v, s, 30, None).value
    })
}
