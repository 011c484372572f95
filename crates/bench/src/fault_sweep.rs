//! Goodput-vs-loss-rate sweep: kernel TCP over a lossy Fast Ethernet
//! link, exercising the `simnic::faults` layer end to end.
//!
//! Each point streams a fixed byte count over a fresh simulation whose
//! `m0 → m1` (data) direction drops frames with a configured probability;
//! the reverse (ACK) direction stays clean, so every stall is a data-loss
//! recovery, never an ACK-loss artifact. Measured per point:
//!
//! * **goodput** — sink-side Mb/s from the first to the last received
//!   byte (retransmission stalls are inside the window, so goodput falls
//!   as loss rises);
//! * **recovery latency** — the longest gap between successive sink
//!   reads: a dropped data frame stalls the sink until the sender's RTO
//!   fires and go-back-N retransmission catches up.
//!
//! Every point uses a fixed `(seed, plan)`, so the whole sweep — fault
//! schedule, goodput digits, fault counters — is bit-reproducible at any
//! `--threads` count (the determinism suite asserts this at 1/2/8).

use dsim::{SchedStats, SimDuration, SimTime, Simulation, TraceConfig, TraceData, TraceKind};
use simnic::{FaultPlan, FaultStats};
use simos::HostId;
use sockets::{api, SockAddr, SockOption, SockType};
use sovia_repro::testbed;

use crate::micro::mark;
use crate::runner::{self, run_point, Report};

/// Per-frame drop probabilities of the sweep (data direction only).
pub const LOSS_RATES: [f64; 6] = [0.0, 0.001, 0.005, 0.01, 0.02, 0.05];

/// Bytes per `send()` call.
pub const STREAM_MSG: usize = 8 * 1024;

/// Bytes streamed per point.
pub const STREAM_TOTAL: usize = 2 * 1024 * 1024;

/// Base RNG seed; point `i` seeds its fault lane with `SWEEP_SEED ^ i`.
pub const SWEEP_SEED: u64 = 0xFA17;

const PORT: u16 = 9000;

/// One measured point of the sweep.
#[derive(Debug, Clone)]
pub struct FaultPoint {
    /// Configured per-frame drop probability on the data direction.
    pub loss_p: f64,
    /// Sink-side goodput over the whole stream, Mb/s.
    pub goodput_mbps: f64,
    /// Longest gap between successive sink reads, µs (the recovery
    /// latency of the worst single loss burst).
    pub max_stall_us: f64,
    /// Fault counters of the lossy direction.
    pub faults: FaultStats,
    /// Scheduler counters of the simulation.
    pub stats: SchedStats,
}

/// Stream `total` bytes over TCP/Fast-Ethernet with per-frame drop
/// probability `loss_p` (seeded `seed`) on the data direction, measuring
/// sink goodput and the longest receive stall; traced when `trace` is
/// `Some`. The sink brackets the first-to-last-byte goodput window with
/// measurement marks, so the trace window matches the reported goodput
/// interval (retransmission stalls and `FaultDrop` instants land inside
/// it).
pub fn lossy_tcp_stream_traced(
    loss_p: f64,
    seed: u64,
    msg: usize,
    total: usize,
    trace: Option<TraceConfig>,
) -> (FaultPoint, Option<TraceData>) {
    let msgs = total.div_ceil(msg);
    let total = msgs * msg;
    // The sink reports (goodput Mb/s, max stall µs).
    let setup = |sim: &Simulation, report: Report<(f64, f64)>| {
        let plan = if loss_p > 0.0 {
            FaultPlan::drops(seed, loss_p)
        } else {
            FaultPlan::empty()
        };
        let (m0, m1, f01, _f10) =
            testbed::tcp_ethernet_pair_with_faults(&sim.handle(), &plan, &FaultPlan::empty());
        let (cp, sp) = testbed::procs(&m0, &m1);
        sim.spawn("sink", move |ctx| {
            let s = api::socket(ctx, &sp, SockType::Stream).unwrap();
            api::bind(ctx, &sp, s, SockAddr::new(HostId(1), PORT)).unwrap();
            api::listen(ctx, &sp, s, 1).unwrap();
            let (c, _) = api::accept(ctx, &sp, s).unwrap();
            api::set_option(ctx, &sp, c, SockOption::RecvBuf(131_170)).unwrap();
            let mut got = 0usize;
            let mut t_first: Option<SimTime> = None;
            let mut t_last = ctx.now();
            let mut max_stall = 0f64;
            while got < total {
                let d = api::recv(ctx, &sp, c, 16 * 1024).unwrap();
                if d.is_empty() {
                    break;
                }
                let now = ctx.now();
                if t_first.is_none() {
                    t_first = Some(now);
                    mark(ctx, TraceKind::MarkStart);
                } else {
                    let stall = now.since(t_last).as_micros_f64();
                    if stall > max_stall {
                        max_stall = stall;
                    }
                }
                t_last = now;
                got += d.len();
            }
            mark(ctx, TraceKind::MarkEnd);
            if let Some(t0) = t_first {
                let secs = t_last.since(t0).as_secs_f64();
                if secs > 0.0 {
                    let goodput = got as f64 * 8.0 / secs / 1e6;
                    let point = (goodput, max_stall);
                    report.set(point).expect("one report per run");
                }
            }
            // The terminating application-level acknowledgment (clean
            // reverse path, so the source never waits on a lossy frame).
            api::send_all(ctx, &sp, c, b"A").unwrap();
            api::close(ctx, &sp, c).unwrap();
            api::close(ctx, &sp, s).unwrap();
        });
        sim.spawn("source", move |ctx| {
            ctx.sleep(SimDuration::from_millis(1));
            let s = api::socket(ctx, &cp, SockType::Stream).unwrap();
            api::set_option(ctx, &cp, s, SockOption::SendBuf(131_170)).unwrap();
            api::connect(ctx, &cp, s, SockAddr::new(HostId(1), PORT)).unwrap();
            let payload = vec![0x5Au8; msg];
            for _ in 0..msgs {
                api::send_all(ctx, &cp, s, &payload).unwrap();
            }
            let _ = api::recv_exact(ctx, &cp, s, 1).unwrap();
            api::close(ctx, &cp, s).unwrap();
        });
        f01
    };
    // The lossy lane's counters are read after the run: frames sent after
    // the sink's last read still count.
    let (out, lossy) = run_point(trace, setup);
    let (goodput_mbps, max_stall_us) = out.value;
    let point = FaultPoint {
        loss_p,
        goodput_mbps,
        max_stall_us,
        faults: lossy.stats(),
        stats: out.stats,
    };
    (point, out.trace)
}

/// Run the whole sweep on at most `threads` concurrent simulations. Point
/// `i` seeds its fault lane with `base_seed ^ i`, so [`SWEEP_SEED`]
/// reproduces the checked-in `results/fault_sweep.txt` while `--seed`
/// explores other fault schedules.
pub fn run_fault_sweep_seeded(threads: usize, base_seed: u64) -> Vec<FaultPoint> {
    let jobs: Vec<(usize, f64)> = LOSS_RATES.iter().copied().enumerate().collect();
    runner::par_map(&jobs, threads, |_, &(i, p)| {
        lossy_tcp_stream_traced(p, base_seed ^ i as u64, STREAM_MSG, STREAM_TOTAL, None).0
    })
}

/// Render the sweep as a figure-style table.
pub fn render_fault_table(points: &[FaultPoint]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Fault sweep: TCP goodput vs frame loss (Fast Ethernet, simulated)"
    );
    let _ = writeln!(
        out,
        "{:>9}{:>15}{:>15}{:>10}{:>9}",
        "loss_pct", "goodput_mbps", "max_stall_ms", "frames", "dropped"
    );
    for p in points {
        let _ = writeln!(
            out,
            "{:>9.2}{:>15.2}{:>15.3}{:>10}{:>9}",
            p.loss_p * 100.0,
            p.goodput_mbps,
            p.max_stall_us / 1e3,
            p.faults.frames,
            p.faults.dropped,
        );
    }
    out
}
