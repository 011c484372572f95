//! Cross-crate integration: the full platform end to end.

use std::sync::Arc;

use dsim::{SimDuration, Simulation};
use parking_lot::Mutex;
use simos::HostId;
use sovia_repro::sockets::{api, SockAddr, SockType};
use sovia_repro::sovia::SoviaConfig;
use sovia_repro::testbed;

/// TCP and SOVIA sockets coexisting in one process, cross-machine — the
/// Figure 4 design goal ("normal TCP/UDP sockets can not coexist with
/// SOVIA" is the problem the dynamic dispatch solves).
#[test]
fn tcp_and_sovia_coexist_in_one_process() {
    let mut sim = Simulation::new();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let seen2 = Arc::clone(&seen);
    testbed::clan_dual_stack(&sim, SoviaConfig::default(), move |ctx, m0, m1| {
        let (cp, sp) = testbed::procs(&m0, &m1);
        // One server process listens on BOTH socket types.
        {
            let sp = sp.clone();
            let seen = Arc::clone(&seen2);
            ctx.handle().spawn("dual-server", move |sctx| {
                let tcp = api::socket(sctx, &sp, SockType::Stream).unwrap();
                api::bind(sctx, &sp, tcp, SockAddr::new(HostId(1), 80)).unwrap();
                api::listen(sctx, &sp, tcp, 4).unwrap();
                let via = api::socket(sctx, &sp, SockType::Via).unwrap();
                api::bind(sctx, &sp, via, SockAddr::new(HostId(1), 81)).unwrap();
                api::listen(sctx, &sp, via, 4).unwrap();

                let (c1, _) = api::accept(sctx, &sp, tcp).unwrap();
                let m1 = api::recv_exact(sctx, &sp, c1, 11).unwrap();
                seen.lock().push(String::from_utf8(m1).unwrap());
                let (c2, _) = api::accept(sctx, &sp, via).unwrap();
                let m2 = api::recv_exact(sctx, &sp, c2, 13).unwrap();
                seen.lock().push(String::from_utf8(m2).unwrap());
                for fd in [c1, c2, tcp, via] {
                    api::close(sctx, &sp, fd).unwrap();
                }
            });
        }
        ctx.handle().spawn("dual-client", move |cctx| {
            cctx.sleep(SimDuration::from_millis(1));
            // One client process talks both protocols.
            let tcp = api::socket(cctx, &cp, SockType::Stream).unwrap();
            api::connect(cctx, &cp, tcp, SockAddr::new(HostId(1), 80)).unwrap();
            api::send_all(cctx, &cp, tcp, b"via the ker").unwrap();
            let via = api::socket(cctx, &cp, SockType::Via).unwrap();
            api::connect(cctx, &cp, via, SockAddr::new(HostId(1), 81)).unwrap();
            api::send_all(cctx, &cp, via, b"via user-leve").unwrap();
            api::close(cctx, &cp, tcp).unwrap();
            api::close(cctx, &cp, via).unwrap();
        });
    });
    sim.run().unwrap();
    assert_eq!(
        seen.lock().clone(),
        vec!["via the ker".to_string(), "via user-leve".to_string()]
    );
}

/// The whole stack is deterministic: identical runs produce identical
/// virtual end times.
#[test]
fn simulation_is_deterministic() {
    fn run_once() -> u64 {
        let mut sim = Simulation::new();
        let (m0, m1) = testbed::sovia_pair(&sim.handle(), SoviaConfig::default());
        let (cp, sp) = testbed::procs(&m0, &m1);
        {
            let sp = sp.clone();
            sim.spawn("server", move |ctx| {
                let s = api::socket(ctx, &sp, SockType::Via).unwrap();
                api::bind(ctx, &sp, s, SockAddr::new(HostId(1), 7)).unwrap();
                api::listen(ctx, &sp, s, 1).unwrap();
                let (c, _) = api::accept(ctx, &sp, s).unwrap();
                loop {
                    let d = api::recv(ctx, &sp, c, 4096).unwrap();
                    if d.is_empty() {
                        break;
                    }
                    api::send_all(ctx, &sp, c, &d).unwrap();
                }
                api::close(ctx, &sp, c).unwrap();
                api::close(ctx, &sp, s).unwrap();
            });
        }
        sim.spawn("client", move |ctx| {
            ctx.sleep(SimDuration::from_micros(50));
            let s = api::socket(ctx, &cp, SockType::Via).unwrap();
            api::connect(ctx, &cp, s, SockAddr::new(HostId(1), 7)).unwrap();
            let mut rng = dsim::rng::SimRng::seed_from(1234);
            for _ in 0..40 {
                let n = rng.range_inclusive(1, 5000) as usize;
                let buf: Vec<u8> = (0..n.div_ceil(8))
                    .flat_map(|_| rng.next_u64().to_le_bytes())
                    .take(n)
                    .collect();
                api::send_all(ctx, &cp, s, &buf).unwrap();
                let echo = api::recv_exact(ctx, &cp, s, n).unwrap();
                assert_eq!(echo, buf);
            }
            api::close(ctx, &cp, s).unwrap();
        });
        sim.run().unwrap().as_nanos()
    }
    let a = run_once();
    let b = run_once();
    assert_eq!(a, b, "two identical simulations must end at the same tick");
    assert!(a > 0);
}

/// Latency ordering across the whole platform, end to end:
/// native-class SOVIA < handler-threaded SOVIA < kernel TCP.
#[test]
fn latency_hierarchy_holds() {
    fn pingpong_ns(config: Option<SoviaConfig>) -> u64 {
        let mut sim = Simulation::new();
        let out = Arc::new(Mutex::new(0u64));
        let stype = if config.is_some() {
            SockType::Via
        } else {
            SockType::Stream
        };
        let out2 = Arc::clone(&out);
        let run = move |ctx: &dsim::SimCtx, m0: simos::Machine, m1: simos::Machine| {
            let (cp, sp) = testbed::procs(&m0, &m1);
            {
                let sp = sp.clone();
                ctx.handle().spawn("pong", move |sctx| {
                    let s = api::socket(sctx, &sp, stype).unwrap();
                    api::bind(sctx, &sp, s, SockAddr::new(HostId(1), 7)).unwrap();
                    api::listen(sctx, &sp, s, 1).unwrap();
                    let (c, _) = api::accept(sctx, &sp, s).unwrap();
                    api::set_option(sctx, &sp, c, sovia_repro::sockets::SockOption::NoDelay(true))
                        .unwrap();
                    for _ in 0..20 {
                        let d = api::recv_exact(sctx, &sp, c, 4).unwrap();
                        if d.len() < 4 {
                            break;
                        }
                        api::send_all(sctx, &sp, c, &d).unwrap();
                    }
                    api::close(sctx, &sp, c).unwrap();
                    api::close(sctx, &sp, s).unwrap();
                });
            }
            let out = Arc::clone(&out2);
            ctx.handle().spawn("ping", move |cctx| {
                cctx.sleep(SimDuration::from_millis(1));
                let s = api::socket(cctx, &cp, stype).unwrap();
                api::connect(cctx, &cp, s, SockAddr::new(HostId(1), 7)).unwrap();
                api::set_option(cctx, &cp, s, sovia_repro::sockets::SockOption::NoDelay(true))
                    .unwrap();
                let t0 = cctx.now();
                for _ in 0..20 {
                    api::send_all(cctx, &cp, s, b"ping").unwrap();
                    let _ = api::recv_exact(cctx, &cp, s, 4).unwrap();
                }
                *out.lock() = cctx.now().since(t0).as_nanos() / 20;
                api::close(cctx, &cp, s).unwrap();
            });
        };
        match config {
            Some(cfg) => {
                let (m0, m1) = testbed::sovia_pair(&sim.handle(), cfg);
                sim.spawn("boot", move |ctx| run(ctx, m0, m1));
            }
            None => testbed::clan_dual_stack(&sim, SoviaConfig::default(), run),
        }
        sim.run().unwrap();
        let v = *out.lock();
        v
    }
    let single = pingpong_ns(Some(SoviaConfig::single()));
    let handler = pingpong_ns(Some(SoviaConfig::handler()));
    let tcp = pingpong_ns(None);
    assert!(
        single < handler && handler < tcp,
        "expected SINGLE < HANDLER < TCP, got {single} / {handler} / {tcp}"
    );
}
