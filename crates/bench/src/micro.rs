//! The microbenchmarks of Section 5.2: ping-pong latency and
//! unidirectional bandwidth, for every transport variant in Figure 6,
//! and [`Variant`], the platform type every experiment boots.
//!
//! Each measurement point runs in a **fresh simulation** (fully
//! deterministic, no cross-talk between points) through
//! `runner::run_point`. "TCP" means TCP over the LANE driver on
//! cLAN, as in the paper's Figure 6.

use std::sync::Arc;

use dsim::{SimCtx, SimDuration, Simulation, TraceConfig, TraceKind, TraceLayer, TraceTag};
use simnic::{FaultHandle, FaultPlan};
use simos::{HostId, Machine};
use sockets::{api, SockAddr, SockOption, SockType};
use sovia::SoviaConfig;
use sovia_repro::testbed;
use via::{Descriptor, MemRegion, ViAttributes, ViaNic, ViaNicId, WaitMode};

use crate::runner::{run_point, Report, RunOutput};

/// The platforms of the paper's testbeds: the transport variants of
/// Figure 6 plus kernel TCP on Fast Ethernet (Table 1, Figure 7).
#[derive(Debug, Clone)]
pub enum Variant {
    /// Kernel TCP/IP over Fast Ethernet.
    TcpEth,
    /// TCP over the LANE kernel driver on cLAN (`TCP_NODELAY` for latency).
    TcpLane,
    /// Raw VIPL (no sockets layer at all).
    NativeVia,
    /// SOVIA with a given configuration (the SINGLE/HANDLER/FLOWCTRL/
    /// DACKS/COMBINE ladder).
    Sovia(SoviaConfig),
}

impl Variant {
    /// Label used in the printed tables.
    pub fn label(&self) -> &'static str {
        match self {
            Variant::TcpEth => "TCP_FASTETH",
            Variant::TcpLane => "TCP",
            Variant::NativeVia => "NATIVE_VIA",
            Variant::Sovia(c) => {
                if c.explicit_handshake {
                    "SOVIA_REQACK"
                } else if c.mode == sovia::ReceiveMode::HandlerThread {
                    "SOVIA_HANDLER"
                } else if c.combine_small {
                    "SOVIA_COMBINE"
                } else if c.ack_threshold > 1 {
                    "SOVIA_DACKS"
                } else if c.window > 1 {
                    "SOVIA_FLOWCTRL"
                } else {
                    "SOVIA_SINGLE"
                }
            }
        }
    }

    /// The platform's socket type: SOVIA's `SOCK_VIA`, else kernel
    /// TCP's `SOCK_STREAM`.
    pub fn sock_type(&self) -> SockType {
        match self {
            Variant::Sovia(_) => SockType::Via,
            _ => SockType::Stream,
        }
    }

    /// Build the platform's two machines on `sim` and call `run` from
    /// the `"bootstrap"` process with the client (`m0`) and server (`m1`).
    ///
    /// # Panics
    ///
    /// For [`Variant::NativeVia`], which has no sockets layer to boot:
    /// its workloads spawn their processes on a bare cLAN pair.
    pub fn boot(
        &self,
        sim: &Simulation,
        run: impl FnOnce(&SimCtx, Machine, Machine) + Send + 'static,
    ) {
        let empty = FaultPlan::empty();
        self.boot_with_faults(sim, &empty, &empty, run);
    }

    /// [`Variant::boot`] with fault plans installed, returning their
    /// handles. On TCP/Ethernet `plan0` faults the frames `m0` sends and
    /// `plan1` those `m1` sends; on SOVIA each plan faults its machine's
    /// VIA NIC (`testbed::sovia_pair_with_faults`). Empty plans install
    /// nothing: the platform is bit-identical to an unfaulted one.
    ///
    /// # Panics
    ///
    /// As [`Variant::boot`], and for non-empty plans on TCP/LANE, which
    /// takes none.
    pub fn boot_with_faults(
        &self,
        sim: &Simulation,
        plan0: &FaultPlan,
        plan1: &FaultPlan,
        run: impl FnOnce(&SimCtx, Machine, Machine) + Send + 'static,
    ) -> (FaultHandle, FaultHandle) {
        let (m0, m1, f0, f1) = match self {
            Variant::TcpLane => {
                assert!(
                    plan0.is_empty() && plan1.is_empty(),
                    "TCP/LANE takes no fault plan"
                );
                testbed::clan_dual_stack(sim, SoviaConfig::combine(), run);
                return (FaultHandle::disabled(), FaultHandle::disabled());
            }
            Variant::NativeVia => panic!("NATIVE_VIA has no sockets platform to boot"),
            Variant::TcpEth => testbed::tcp_ethernet_pair_with_faults(&sim.handle(), plan0, plan1),
            Variant::Sovia(config) => {
                testbed::sovia_pair_with_faults(&sim.handle(), config.clone(), plan0, plan1)
            }
        };
        sim.spawn("bootstrap", move |ctx| run(ctx, m0, m1));
        (f0, f1)
    }
}

/// One measured series: `(message size, value)` points.
#[derive(Debug, Clone)]
pub struct Series {
    /// Series label (the figure legend entry).
    pub name: String,
    /// Measurement points.
    pub points: Vec<(usize, f64)>,
}

impl Series {
    /// The series `name` of `values` measured at `sizes`.
    pub(crate) fn new(
        name: impl Into<String>,
        sizes: &[usize],
        values: impl IntoIterator<Item = f64>,
    ) -> Series {
        Series {
            name: name.into(),
            points: sizes.iter().copied().zip(values).collect(),
        }
    }
}

const PORT: u16 = 9000;

/// Emit a measurement-window marker (a zero-width instant: no virtual
/// time passes, so marks never perturb a measurement).
pub(crate) fn mark(ctx: &SimCtx, kind: TraceKind) {
    ctx.trace_instant(TraceLayer::App, kind, TraceTag::default());
}

/// Half mean round-trip time for `size`-byte messages, in µs, traced
/// when `trace` is `Some`. The measured rounds are bracketed by
/// [`TraceKind::MarkStart`] / [`TraceKind::MarkEnd`] App instants, so
/// the trace's measurement window is exactly the timed interval the
/// latency number comes from.
pub fn latency_traced(
    variant: &Variant,
    size: usize,
    rounds: u32,
    trace: Option<TraceConfig>,
) -> RunOutput {
    match variant {
        Variant::NativeVia => native_via_latency_traced(size, rounds, trace),
        v => socket_latency_traced(v, size, rounds, trace),
    }
}

/// Unidirectional bandwidth in Mb/s streaming `total` bytes in
/// `size`-byte sends, traced when `trace` is `Some`; the steady-state
/// measurement window is marked as in [`latency_traced`].
pub fn bandwidth_traced(
    variant: &Variant,
    size: usize,
    total: usize,
    trace: Option<TraceConfig>,
) -> RunOutput {
    match variant {
        Variant::NativeVia => native_via_bandwidth_traced(size, total, trace),
        v => socket_bandwidth_traced(v, size, total, trace),
    }
}

// ----- sockets-based (TCP / SOVIA) ------------------------------------------

/// The Figure 6(a) ping-pong workload over a sockets platform.
fn socket_latency_traced(
    variant: &Variant,
    size: usize,
    rounds: u32,
    trace: Option<TraceConfig>,
) -> RunOutput {
    let stype = variant.sock_type();
    let setup = |sim: &Simulation, report: Report<f64>| {
        variant.boot(sim, move |ctx, m0, m1| {
            let (cp, sp) = testbed::procs(&m0, &m1);
            // Server: echo `rounds + 1` messages (one warm-up).
            ctx.handle().spawn("pong", move |sctx| {
                let s = api::socket(sctx, &sp, stype).unwrap();
                api::bind(sctx, &sp, s, SockAddr::new(HostId(1), PORT)).unwrap();
                api::listen(sctx, &sp, s, 1).unwrap();
                let (c, _) = api::accept(sctx, &sp, s).unwrap();
                // The paper's latency figure runs TCP with TCP_NODELAY;
                // SOVIA variants keep their configured behavior (the
                // COMBINE series exists to show the timer cost).
                if stype == SockType::Stream {
                    api::set_option(sctx, &sp, c, SockOption::NoDelay(true)).unwrap();
                }
                for _ in 0..=rounds {
                    let msg = api::recv_exact(sctx, &sp, c, size).unwrap();
                    if msg.len() < size {
                        break;
                    }
                    api::send_all(sctx, &sp, c, &msg).unwrap();
                }
                api::close(sctx, &sp, c).unwrap();
                api::close(sctx, &sp, s).unwrap();
            });
            ctx.handle().spawn("ping", move |cctx| {
                cctx.sleep(SimDuration::from_millis(1));
                let s = api::socket(cctx, &cp, stype).unwrap();
                api::connect(cctx, &cp, s, SockAddr::new(HostId(1), PORT)).unwrap();
                if stype == SockType::Stream {
                    api::set_option(cctx, &cp, s, SockOption::NoDelay(true)).unwrap();
                }
                let msg = vec![0xA5u8; size];
                // Warm-up.
                api::send_all(cctx, &cp, s, &msg).unwrap();
                let _ = api::recv_exact(cctx, &cp, s, size).unwrap();
                mark(cctx, TraceKind::MarkStart);
                let t0 = cctx.now();
                for _ in 0..rounds {
                    api::send_all(cctx, &cp, s, &msg).unwrap();
                    let _ = api::recv_exact(cctx, &cp, s, size).unwrap();
                }
                mark(cctx, TraceKind::MarkEnd);
                let rtt_us = cctx.now().since(t0).as_micros_f64() / f64::from(rounds);
                report.set(rtt_us / 2.0).expect("one report per run");
                api::close(cctx, &cp, s).unwrap();
            });
        })
    };
    run_point(trace, setup).0
}

/// The Figure 6(b) stream workload over a sockets platform.
fn socket_bandwidth_traced(
    variant: &Variant,
    size: usize,
    total: usize,
    trace: Option<TraceConfig>,
) -> RunOutput {
    let stype = variant.sock_type();
    let msgs = total.div_ceil(size);
    let total = msgs * size;
    let setup = |sim: &Simulation, report: Report<f64>| {
        variant.boot(sim, move |ctx, m0, m1| {
            let (cp, sp) = testbed::procs(&m0, &m1);
            // Steady-state bandwidth is measured at the sink, from the
            // first to the last received byte. The paper streams "for a
            // given time", amortizing TCP's Nagle/delayed-ACK tail stall;
            // a finite transfer must exclude that tail instead.
            ctx.handle().spawn("sink", move |sctx| {
                let s = api::socket(sctx, &sp, stype).unwrap();
                api::bind(sctx, &sp, s, SockAddr::new(HostId(1), PORT)).unwrap();
                api::listen(sctx, &sp, s, 1).unwrap();
                let (c, _) = api::accept(sctx, &sp, s).unwrap();
                // The paper's footnote: socket buffer raised to the
                // maximum (131,170) for the bandwidth measurement.
                api::set_option(sctx, &sp, c, SockOption::RecvBuf(131_170)).unwrap();
                // Steady-state window: time the last 75% of the bytes,
                // skipping connection ramp (slow start, the first
                // Nagle/delayed-ACK interlock).
                let skip = total / 4;
                let mut got = 0usize;
                let mut mark: Option<(dsim::SimTime, usize)> = None;
                let mut t_last = sctx.now();
                while got < total {
                    let d = api::recv(sctx, &sp, c, 16 * 1024).unwrap();
                    if d.is_empty() {
                        break;
                    }
                    got += d.len();
                    t_last = sctx.now();
                    if mark.is_none() && got >= skip {
                        mark = Some((t_last, got));
                        self::mark(sctx, TraceKind::MarkStart);
                    }
                }
                self::mark(sctx, TraceKind::MarkEnd);
                if let Some((t_mark, got_mark)) = mark {
                    let secs = t_last.since(t_mark).as_secs_f64();
                    if secs > 0.0 {
                        let mbps = (got - got_mark) as f64 * 8.0 / secs / 1e6;
                        report.set(mbps).expect("one report per run");
                    }
                }
                // The terminating application-level acknowledgment.
                api::send_all(sctx, &sp, c, b"A").unwrap();
                api::close(sctx, &sp, c).unwrap();
                api::close(sctx, &sp, s).unwrap();
            });
            ctx.handle().spawn("source", move |cctx| {
                cctx.sleep(SimDuration::from_millis(1));
                let s = api::socket(cctx, &cp, stype).unwrap();
                api::set_option(cctx, &cp, s, SockOption::SendBuf(131_170)).unwrap();
                api::connect(cctx, &cp, s, SockAddr::new(HostId(1), PORT)).unwrap();
                let msg = vec![0x5Au8; size];
                for _ in 0..msgs {
                    api::send_all(cctx, &cp, s, &msg).unwrap();
                }
                // Wait for the receiver's acknowledgment (paper method).
                let _ = api::recv_exact(cctx, &cp, s, 1).unwrap();
                api::close(cctx, &cp, s).unwrap();
            });
        })
    };
    run_point(trace, setup).0
}

// ----- native VIA (raw VIPL) --------------------------------------------------

fn native_via_latency_traced(size: usize, rounds: u32, trace: Option<TraceConfig>) -> RunOutput {
    let cap = size.max(64);
    let setup = |sim: &Simulation, report: Report<f64>| {
        let (m0, m1) = testbed::clan_pair(&sim.handle());
        let n0 = ViaNic::of(&m0);
        let n1 = ViaNic::of(&m1);
        sim.spawn("pong", move |ctx| {
            let p = m1.spawn_process("pong");
            let vi = n1.create_vi(ViAttributes::default());
            n1.listen(1);
            let va = p.alloc(ctx, cap.max(4096));
            let region = MemRegion::register(ctx, &p, va, cap.max(4096));
            for _ in 0..=rounds + 1 {
                vi.post_recv(ctx, Descriptor::recv(Arc::clone(&region), 0, cap))
                    .unwrap();
            }
            let pending = n1.connect_wait(ctx, 1);
            n1.connect_accept(ctx, &pending, &vi).unwrap();
            let sva = p.alloc(ctx, cap.max(4096));
            let sregion = MemRegion::register(ctx, &p, sva, cap.max(4096));
            for _ in 0..=rounds {
                let _ = vi.recv_wait(ctx, WaitMode::Poll).unwrap();
                vi.post_send(ctx, Descriptor::send(Arc::clone(&sregion), 0, size, None))
                    .unwrap();
            }
        });
        sim.spawn("ping", move |ctx| {
            let p = m0.spawn_process("ping");
            let vi = n0.create_vi(ViAttributes::default());
            let va = p.alloc(ctx, cap.max(4096));
            let region = MemRegion::register(ctx, &p, va, cap.max(4096));
            for _ in 0..=rounds + 1 {
                vi.post_recv(ctx, Descriptor::recv(Arc::clone(&region), 0, cap))
                    .unwrap();
            }
            ctx.sleep(SimDuration::from_millis(1));
            n0.connect_request(ctx, &vi, ViaNicId(1), 1).unwrap();
            let sva = p.alloc(ctx, cap.max(4096));
            let sregion = MemRegion::register(ctx, &p, sva, cap.max(4096));
            // Warm-up round.
            vi.post_send(ctx, Descriptor::send(Arc::clone(&sregion), 0, size, None))
                .unwrap();
            let _ = vi.recv_wait(ctx, WaitMode::Poll).unwrap();
            mark(ctx, TraceKind::MarkStart);
            let t0 = ctx.now();
            for _ in 0..rounds {
                vi.post_send(ctx, Descriptor::send(Arc::clone(&sregion), 0, size, None))
                    .unwrap();
                let _ = vi.recv_wait(ctx, WaitMode::Poll).unwrap();
            }
            mark(ctx, TraceKind::MarkEnd);
            let rtt_us = ctx.now().since(t0).as_micros_f64() / f64::from(rounds);
            report.set(rtt_us / 2.0).expect("one report per run");
        });
    };
    run_point(trace, setup).0
}

fn native_via_bandwidth_traced(size: usize, total: usize, trace: Option<TraceConfig>) -> RunOutput {
    let msgs = total.div_ceil(size);
    let total = msgs * size;
    // A descriptor ring deep enough to keep the NIC busy.
    let ring = 64usize.min(msgs + 1);
    let setup = |sim: &Simulation, report: Report<f64>| {
        let (m0, m1) = testbed::clan_pair(&sim.handle());
        let n0 = ViaNic::of(&m0);
        let n1 = ViaNic::of(&m1);
        sim.spawn("sink", move |ctx| {
            let p = m1.spawn_process("sink");
            let vi = n1.create_vi(ViAttributes::default());
            n1.listen(1);
            let va = p.alloc(ctx, ring * size.max(64));
            let region = MemRegion::register(ctx, &p, va, ring * size.max(64));
            for i in 0..ring {
                vi.post_recv(
                    ctx,
                    Descriptor::recv(Arc::clone(&region), i * size.max(64), size.max(64)),
                )
                .unwrap();
            }
            let pending = n1.connect_wait(ctx, 1);
            n1.connect_accept(ctx, &pending, &vi).unwrap();
            for _ in 0..msgs {
                let done = vi.recv_wait(ctx, WaitMode::Poll).unwrap();
                // Recycle the descriptor's slot immediately.
                vi.post_recv(ctx, done).unwrap();
            }
        });
        sim.spawn("source", move |ctx| {
            let p = m0.spawn_process("source");
            let vi = n0.create_vi(ViAttributes::default());
            ctx.sleep(SimDuration::from_millis(1));
            n0.connect_request(ctx, &vi, ViaNicId(1), 1).unwrap();
            let va = p.alloc(ctx, size.max(64));
            let region = MemRegion::register(ctx, &p, va, size.max(64));
            mark(ctx, TraceKind::MarkStart);
            let t0 = ctx.now();
            let mut outstanding = 0usize;
            for _ in 0..msgs {
                // Keep up to `ring` sends in flight without overrunning
                // the receiver's descriptor recycling.
                while outstanding >= ring - 1 {
                    let _ = vi.send_wait(ctx, WaitMode::Poll).unwrap();
                    outstanding -= 1;
                }
                vi.post_send(ctx, Descriptor::send(Arc::clone(&region), 0, size, None))
                    .unwrap();
                outstanding += 1;
            }
            while outstanding > 0 {
                let _ = vi.send_wait(ctx, WaitMode::Poll).unwrap();
                outstanding -= 1;
            }
            mark(ctx, TraceKind::MarkEnd);
            let secs = ctx.now().since(t0).as_secs_f64();
            report
                .set(total as f64 * 8.0 / secs / 1e6)
                .expect("one report per run");
        });
    };
    run_point(trace, setup).0
}

/// Render a figure-style table: one row per size, one column per series.
pub fn render_table(title: &str, unit: &str, sizes: &[usize], series: &[Series]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# {title}");
    let width = series.iter().map(|s| s.name.len() + 3).max().unwrap_or(15).max(15);
    let _ = write!(out, "{:>8}", "size");
    for s in series {
        let _ = write!(out, "{:>width$}", s.name);
    }
    let _ = writeln!(out, "    ({unit})");
    for (i, size) in sizes.iter().enumerate() {
        let _ = write!(out, "{size:>8}");
        for s in series {
            let _ = write!(out, "{:>width$.1}", s.points[i].1);
        }
        let _ = writeln!(out);
    }
    out
}
