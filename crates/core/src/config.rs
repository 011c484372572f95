//! SOVIA configuration: every optimization of Section 3 is a parameter,
//! so the microbenchmarks can measure exactly the series of Figure 6; the
//! values the paper never varies are constants.

use dsim::SimDuration;

/// How incoming completions are serviced (Section 3.1,
/// "Single-threading vs. Multi-threading").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReceiveMode {
    /// The application thread services the completion queue inside
    /// `send()`/`recv()`/`close()` — SOVIA's choice (SOVIA_SINGLE).
    SingleThreaded,
    /// A dedicated handler thread blocks on the CQ and signals the
    /// application thread — pays the Linux thread-synchronization cost on
    /// every message (SOVIA_HANDLER).
    HandlerThread,
}

/// Message chunk size: sends are fragmented to this, and it bounds how
/// much combining may accumulate (the paper: 32 KB).
pub(crate) const CHUNK_SIZE: usize = 32 * 1024;

/// Timer after which a partially filled combine buffer is flushed (the
/// paper: 100 ms).
pub const COMBINE_TIMEOUT: SimDuration = SimDuration::from_millis(100);

/// CPU cost of arming/managing the combine software timer (the paper's
/// "1–2 µsec to manage a software timer").
pub(crate) const COMBINE_TIMER_COST: SimDuration = SimDuration::from_nanos(1_500);

/// Tunable parameters of the SOVIA layer: one value per parameter the
/// paper varies.
#[derive(Debug, Clone)]
pub struct SoviaConfig {
    /// Completion servicing mode.
    pub mode: ReceiveMode,
    /// Window size `w` of the sliding-window flow control (Section 3.2):
    /// DATA packets in flight without an acknowledgment. `w = 1` is
    /// stop-and-wait: the sender waits for an ACK after every DATA packet.
    pub window: u32,
    /// Delayed-acknowledgment threshold `t` (< `w`): send an ACK once `t`
    /// acknowledgments are pending, piggybacking fewer on reverse-direction
    /// DATA. `t = 1` acknowledges every packet.
    pub ack_threshold: u32,
    /// Combine consecutive small sends into one packet (the Nagle-like
    /// algorithm of Section 3.2).
    pub combine_small: bool,
    /// Messages up to this size are copied into a pre-registered buffer;
    /// larger ones are registered and sent zero-copy (Section 3.1,
    /// "Memory registration vs. copying"; the paper picks 2 KB).
    pub copy_threshold: usize,
    /// Allocate descriptors and bounce buffers on shared-memory segments
    /// so fork() does not un-map them from under the NIC (Section 4.3).
    /// Turn off to reproduce the Figure 5 corruption.
    pub use_shared_segments: bool,
    /// Ask the receiver for permission (a REQ/ACK exchange) before every
    /// DATA packet — the conservative way to satisfy the pre-posting
    /// constraint that Section 3.1 describes and rejects: "this overhead
    /// has a substantial impact on the latency especially for small
    /// messages". Kept as an ablation.
    pub explicit_handshake: bool,
}

impl SoviaConfig {
    /// SOVIA_SINGLE: single-threaded, conditional sender-side buffering,
    /// stop-and-wait (w = 1), per-packet ACKs (t = 1), no combining.
    pub fn single() -> SoviaConfig {
        SoviaConfig {
            mode: ReceiveMode::SingleThreaded,
            window: 1,
            ack_threshold: 1,
            combine_small: false,
            copy_threshold: 2048,
            use_shared_segments: true,
            explicit_handshake: false,
        }
    }

    /// The rejected REQ/ACK design: `single` plus an explicit permission
    /// round trip before every DATA packet.
    pub fn reqack() -> SoviaConfig {
        SoviaConfig {
            explicit_handshake: true,
            ..SoviaConfig::single()
        }
    }

    /// SOVIA_HANDLER: like `single`, but a dedicated handler thread
    /// services completions.
    pub fn handler() -> SoviaConfig {
        SoviaConfig {
            mode: ReceiveMode::HandlerThread,
            ..SoviaConfig::single()
        }
    }

    /// SOVIA_FLOWCTRL: `single` + sliding-window flow control (w = 32).
    pub fn flowctrl() -> SoviaConfig {
        SoviaConfig {
            window: 32,
            ..SoviaConfig::single()
        }
    }

    /// SOVIA_DACKS: `flowctrl` + delayed acknowledgments (t = 16).
    pub fn dacks() -> SoviaConfig {
        SoviaConfig {
            ack_threshold: 16,
            ..SoviaConfig::flowctrl()
        }
    }

    /// SOVIA_COMBINE: `dacks` + small-message combining — the full SOVIA
    /// layer, and the default.
    pub fn combine() -> SoviaConfig {
        SoviaConfig {
            combine_small: true,
            ..SoviaConfig::dacks()
        }
    }

    /// Receive descriptors pre-posted per VI: the data window plus a pool
    /// for control packets (ACK/WAKEUP/FIN/FINACK), which are re-posted as
    /// soon as they are processed. Worst case in flight toward one end:
    /// `w` DATA + `w` ACKs + connection control.
    pub fn prepost_count(&self) -> usize {
        (2 * self.window as usize) + 4
    }

    /// Sanity-check invariants (w > 0, t < w when delaying, threshold
    /// <= chunk).
    pub fn validate(&self) -> Result<(), String> {
        if self.window == 0 {
            return Err("zero window".into());
        }
        if self.ack_threshold > 1 && self.ack_threshold >= self.window {
            return Err(format!(
                "ack_threshold ({}) must be < window ({})",
                self.ack_threshold, self.window
            ));
        }
        if self.copy_threshold > CHUNK_SIZE {
            return Err("copy_threshold exceeds the chunk size".into());
        }
        Ok(())
    }
}

impl Default for SoviaConfig {
    fn default() -> Self {
        SoviaConfig::combine()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_form_the_figure6_ladder() {
        let single = SoviaConfig::single();
        assert_eq!((single.window, single.ack_threshold), (1, 1));
        assert!(!single.combine_small);

        let fc = SoviaConfig::flowctrl();
        assert_eq!((fc.window, fc.ack_threshold), (32, 1));

        let da = SoviaConfig::dacks();
        assert_eq!((da.window, da.ack_threshold), (32, 16));
        assert!(!da.combine_small);

        let co = SoviaConfig::combine();
        assert!(co.combine_small);
        assert_eq!((co.window, co.ack_threshold), (32, 16));

        for c in [single, fc, da, co, SoviaConfig::handler()] {
            c.validate().unwrap();
        }
    }

    #[test]
    fn paper_constants() {
        let c = SoviaConfig::default();
        assert_eq!(c.copy_threshold, 2048);
        assert_eq!(CHUNK_SIZE, 32 * 1024);
        assert_eq!(c.window, 32);
        assert_eq!(c.ack_threshold, 16);
        assert_eq!(COMBINE_TIMEOUT, SimDuration::from_millis(100));
        assert_eq!(COMBINE_TIMER_COST, SimDuration::from_micros_f64(1.5));
    }

    #[test]
    fn invalid_threshold_rejected() {
        let c = SoviaConfig {
            ack_threshold: 40,
            ..SoviaConfig::dacks()
        };
        assert!(c.validate().is_err());
        let zero = SoviaConfig {
            window: 0,
            ..SoviaConfig::single()
        };
        assert!(zero.validate().is_err());
    }

    #[test]
    fn prepost_covers_worst_case_bursts() {
        let c = SoviaConfig::dacks();
        // w DATA + w ACKs + FIN + FINACK + WAKEUP fits.
        assert!(c.prepost_count() >= 2 * 32 + 3);
    }
}
