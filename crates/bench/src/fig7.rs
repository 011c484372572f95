//! Figure 7: average elapsed time for a single RPC vs argument size.
//!
//! Series: RPC over TCP on Fast Ethernet, RPC over TCP on cLAN (LANE),
//! RPC over SOVIA on cLAN. Argument is a character string of 0..4 KB;
//! the remote procedure body is empty and returns an integer.

use apps::rpc::client::Transport;
use apps::rpc::echo::{echo_client, echo_len_1, echo_null_1, spawn_echo_server};
use dsim::{SimDuration, Simulation, TraceConfig, TraceKind};
use simos::HostId;
use sockets::SockType;
use sovia::SoviaConfig;
use sovia_repro::testbed;

use crate::micro::{mark, Series, Variant};
use crate::runner::{self, run_point, Report, RunOutput};

/// The argument sizes of Figure 7 (0 = void argument).
pub const FIG7_SIZES: [usize; 12] = [0, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

/// Calls per measurement point.
pub const CALLS: u32 = 30;

/// The series of Figure 7, in legend order: sunrpc over TCP on Fast
/// Ethernet, over TCP on cLAN (LANE driver), and over SOVIA on cLAN.
pub fn fig7_platforms() -> [(&'static str, Variant); 3] {
    [
        ("RPC/TCP(FastEth)", Variant::TcpEth),
        ("RPC/TCP(cLAN)", Variant::TcpLane),
        ("RPC/SOVIA(cLAN)", Variant::Sovia(SoviaConfig::combine())),
    ]
}

/// Mean elapsed µs for a single RPC with an `arg_len`-byte string
/// argument (0 = void), traced when `trace` is `Some`; the timed calls
/// are bracketed by measurement-window marks.
pub fn rpc_elapsed_traced(
    platform: &Variant,
    arg_len: usize,
    trace: Option<TraceConfig>,
) -> RunOutput {
    let transport = match platform.sock_type() {
        SockType::Via => Transport::Via,
        _ => Transport::Tcp,
    };
    let setup = |sim: &Simulation, report: Report<f64>| {
        platform.boot(sim, move |ctx, m0, m1| {
            let (cp, sp) = testbed::procs(&m0, &m1);
            spawn_echo_server(ctx.handle(), sp, HostId(1), transport, Some(1));
            ctx.handle().spawn("rpc-client", move |cctx| {
                cctx.sleep(SimDuration::from_millis(1));
                let clnt = echo_client(cctx, &cp, HostId(1), transport).unwrap();
                let arg = "x".repeat(arg_len);
                // Warm-up call.
                do_call(cctx, &clnt, &arg, arg_len);
                mark(cctx, TraceKind::MarkStart);
                let t0 = cctx.now();
                for _ in 0..CALLS {
                    do_call(cctx, &clnt, &arg, arg_len);
                }
                mark(cctx, TraceKind::MarkEnd);
                let us = cctx.now().since(t0).as_micros_f64() / f64::from(CALLS);
                report.set(us).expect("one report per run");
                clnt.destroy(cctx);
            });
        })
    };
    run_point(trace, setup).0
}

fn do_call(ctx: &dsim::SimCtx, clnt: &apps::rpc::client::Clnt, arg: &str, arg_len: usize) {
    if arg_len == 0 {
        echo_null_1(ctx, clnt).unwrap();
    } else {
        let r = echo_len_1(ctx, clnt, arg).unwrap();
        assert_eq!(r, arg_len as i32);
    }
}

/// Run the whole figure on at most `threads` concurrent simulations:
/// each platform × argument-size point is an independent simulation.
pub fn run_fig7_with(sizes: &[usize], threads: usize) -> Vec<Series> {
    let platforms = fig7_platforms();
    let rows = runner::par_grid(&platforms, sizes, threads, |(_, p), &s| {
        rpc_elapsed_traced(p, s, None).value
    });
    platforms
        .iter()
        .zip(rows)
        .map(|((name, _), row)| Series::new(*name, sizes, row))
        .collect()
}
