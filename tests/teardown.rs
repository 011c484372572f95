//! Dropping a `Simulation` frees its simulated world: every `Machine`
//! (and everything registered on it) dies with it, after a clean run, a
//! lossy run, a run that ends in any `SimError`, or no run at all.
//!
//! Each case builds a platform, optionally drives traffic over it, keeps
//! only weak handles to the machines, drops the simulation and checks
//! that no machine survived. It also checks how many processes teardown
//! had to unwind (`Simulation::teardown_unwinds`): none after a run whose
//! every non-daemon finished (each daemon leaves its loop from an idle
//! wait), at least one after a deadlock, a panic or the event limit.

use std::sync::Arc;

use dsim::{SimDuration, SimError, Simulation};
use parking_lot::Mutex;
use simnic::FaultPlan;
use simos::{HostId, Machine, Process, WeakMachine};
use sovia_repro::apps::ftp::{
    spawn_ftp_server, FtpClient, FtpServerConfig, FtpTransports, FTP_PORT,
};
use sovia_repro::apps::rpc::client::Transport;
use sovia_repro::apps::rpc::echo::{echo_client, echo_len_1, spawn_echo_server};
use sovia_repro::sockets::{api, SockAddr, SockType};
use sovia_repro::sovia::SoviaConfig;
use sovia_repro::testbed;

const PORT: u16 = 5050;

/// Weak handles to the machines a case built, filled in as it builds them
/// (`clan_dual_stack` hands its machines over only inside the simulation).
#[derive(Clone, Default)]
struct Census(Arc<Mutex<Vec<WeakMachine>>>);

impl Census {
    fn add(&self, machines: &[&Machine]) {
        self.0.lock().extend(machines.iter().map(|m| m.downgrade()));
    }

    /// What is wrong, if not exactly `expected` machines were built or
    /// any of them outlived the simulation.
    fn verdict(&self, case: &str, expected: usize) -> Option<String> {
        let weak = self.0.lock();
        let alive = weak.iter().filter(|w| w.upgrade().is_some()).count();
        (weak.len() != expected || alive > 0).then(|| {
            format!(
                "{case}: {alive} of {} machine(s) alive, {expected} expected built",
                weak.len()
            )
        })
    }
}

/// How many processes a case's teardown may unwind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Unwinds {
    /// None: every process finished or left an idle wait.
    None,
    /// At least one: the run was cut with processes mid-work.
    Some,
}

/// The cases of one test; every failing case is reported, not just the
/// first.
struct Cases {
    unwinds: Unwinds,
    failures: Vec<String>,
}

impl Cases {
    fn new(unwinds: Unwinds) -> Cases {
        Cases {
            unwinds,
            failures: Vec::new(),
        }
    }

    /// Build with `build`, run with `run` (which may choose not to), drop
    /// the simulation, and check that all `expected` machines are gone
    /// and that teardown unwound as many processes as expected.
    fn check(
        &mut self,
        case: &str,
        expected: usize,
        build: impl FnOnce(&Simulation, &Census),
        run: impl FnOnce(&mut Simulation),
    ) {
        let census = Census::default();
        let unwound = {
            let mut sim = Simulation::new();
            build(&sim, &census);
            run(&mut sim);
            sim.teardown_unwinds()
        };
        self.failures.extend(census.verdict(case, expected));
        if (unwound > 0) != (self.unwinds == Unwinds::Some) {
            let want = self.unwinds;
            self.failures.push(format!(
                "{case}: teardown unwound {unwound} process(es), expected {want:?}"
            ));
        }
    }

    fn assert_none_leaked(self) {
        assert!(self.failures.is_empty(), "failed: {:#?}", self.failures);
    }
}

/// Every SOVIA configuration the paper names.
fn every_config() -> [SoviaConfig; 6] {
    [
        SoviaConfig::single(),
        SoviaConfig::reqack(),
        SoviaConfig::handler(),
        SoviaConfig::flowctrl(),
        SoviaConfig::dacks(),
        SoviaConfig::combine(),
    ]
}

fn run_ok(sim: &mut Simulation) {
    sim.run().expect("simulation failed");
}

/// Every builder, with only the platform itself (and the dual stack's
/// bootstrap process) in the simulation, which is run only if `ran`.
fn each_builder(ran: bool) {
    let mut cases = Cases::new(Unwinds::None);
    let run = move |sim: &mut Simulation| {
        if ran {
            run_ok(sim);
        }
    };
    let empty = FaultPlan::empty();
    let lossy = FaultPlan::drops(3, 0.05);
    cases.check(
        "sovia_pair",
        2,
        |sim, c| {
            let (m0, m1) = testbed::sovia_pair(&sim.handle(), SoviaConfig::default());
            c.add(&[&m0, &m1]);
        },
        run,
    );
    cases.check(
        "sovia_pair_with_faults",
        2,
        |sim, c| {
            let (m0, m1, _, _) = testbed::sovia_pair_with_faults(
                &sim.handle(),
                SoviaConfig::default(),
                &lossy,
                &empty,
            );
            c.add(&[&m0, &m1]);
        },
        run,
    );
    cases.check(
        "clan_pair",
        2,
        |sim, c| {
            let (m0, m1) = testbed::clan_pair(&sim.handle());
            c.add(&[&m0, &m1]);
        },
        run,
    );
    cases.check(
        "tcp_ethernet_pair",
        2,
        |sim, c| {
            let (m0, m1) = testbed::tcp_ethernet_pair(&sim.handle());
            c.add(&[&m0, &m1]);
        },
        run,
    );
    cases.check(
        "tcp_ethernet_pair_with_faults",
        2,
        |sim, c| {
            let (m0, m1, _, _) =
                testbed::tcp_ethernet_pair_with_faults(&sim.handle(), &lossy, &empty);
            c.add(&[&m0, &m1]);
        },
        run,
    );
    cases.check(
        "sovia_cluster",
        3,
        |sim, c| {
            let ms = testbed::sovia_cluster(&sim.handle(), 3, SoviaConfig::default());
            c.add(&ms.iter().collect::<Vec<_>>());
        },
        run,
    );
    // The dual stack's machines reach the census only from inside the
    // simulation, so without a run there is nothing to check.
    if ran {
        cases.check(
            "clan_dual_stack",
            2,
            |sim, c| {
                let c = c.clone();
                testbed::clan_dual_stack(sim, SoviaConfig::default(), move |_, m0, m1| {
                    c.add(&[&m0, &m1]);
                });
            },
            run,
        );
    }
    cases.assert_none_leaked();
}

#[test]
fn bare_platforms_are_freed_without_a_run() {
    each_builder(false);
}

#[test]
fn bare_platforms_are_freed_after_a_run() {
    each_builder(true);
}

/// One echo RPC server on `sp` and a client on `cp` making a few calls.
fn spawn_rpc(h: &dsim::SimHandle, cp: Process, sp: Process, transport: Transport) {
    spawn_echo_server(h, sp, HostId(1), transport, Some(1));
    h.spawn("rpc-client", move |ctx| {
        ctx.sleep(SimDuration::from_millis(1));
        let clnt = echo_client(ctx, &cp, HostId(1), transport).expect("clnt_create");
        for arg in ["", "four", &"x".repeat(3000)] {
            assert_eq!(echo_len_1(ctx, &clnt, arg).expect("call"), arg.len() as i32);
        }
        clnt.destroy(ctx);
    });
}

#[test]
fn platforms_are_freed_after_rpc() {
    let mut cases = Cases::new(Unwinds::None);
    for config in every_config() {
        cases.check(
            "rpc over sovia_pair",
            2,
            |sim, c| {
                let (m0, m1) = testbed::sovia_pair(&sim.handle(), config);
                c.add(&[&m0, &m1]);
                let (cp, sp) = testbed::procs(&m0, &m1);
                spawn_rpc(&sim.handle(), cp, sp, Transport::Via);
            },
            run_ok,
        );
    }
    cases.check(
        "rpc over tcp_ethernet_pair",
        2,
        |sim, c| {
            let (m0, m1) = testbed::tcp_ethernet_pair(&sim.handle());
            c.add(&[&m0, &m1]);
            let (cp, sp) = testbed::procs(&m0, &m1);
            spawn_rpc(&sim.handle(), cp, sp, Transport::Tcp);
        },
        run_ok,
    );
    for transport in [Transport::Tcp, Transport::Via] {
        cases.check(
            "rpc over clan_dual_stack",
            2,
            |sim, c| {
                let c = c.clone();
                testbed::clan_dual_stack(sim, SoviaConfig::combine(), move |ctx, m0, m1| {
                    c.add(&[&m0, &m1]);
                    let (cp, sp) = testbed::procs(&m0, &m1);
                    spawn_rpc(ctx.handle(), cp, sp, transport);
                });
            },
            run_ok,
        );
    }
    cases.assert_none_leaked();
}

/// A `total`-byte stream from `cp` to a server on `sp` (host 1), closed
/// by both sides; either side stops at its first error.
fn spawn_stream(h: &dsim::SimHandle, stype: SockType, cp: Process, sp: Process, total: usize) {
    h.spawn("stream-server", move |ctx| {
        let s = api::socket(ctx, &sp, stype).unwrap();
        api::bind(ctx, &sp, s, SockAddr::new(HostId(1), PORT)).unwrap();
        api::listen(ctx, &sp, s, 1).unwrap();
        let (c, _) = api::accept(ctx, &sp, s).unwrap();
        let mut got = 0;
        while got < total {
            match api::recv(ctx, &sp, c, 64 * 1024) {
                Ok(b) if !b.is_empty() => got += b.len(),
                _ => break,
            }
        }
        let _ = api::close(ctx, &sp, c);
        let _ = api::close(ctx, &sp, s);
    });
    h.spawn("stream-client", move |ctx| {
        ctx.sleep(SimDuration::from_micros(500));
        let s = api::socket(ctx, &cp, stype).unwrap();
        if api::connect(ctx, &cp, s, SockAddr::new(HostId(1), PORT)).is_ok() {
            let data = vec![0x5a; total];
            let _ = api::send_all(ctx, &cp, s, &data);
        }
        let _ = api::close(ctx, &cp, s);
    });
}

#[test]
fn platforms_are_freed_after_a_stream() {
    let mut cases = Cases::new(Unwinds::None);
    for config in every_config() {
        cases.check(
            "sovia stream",
            2,
            |sim, c| {
                let (m0, m1) = testbed::sovia_pair(&sim.handle(), config);
                c.add(&[&m0, &m1]);
                let (cp, sp) = testbed::procs(&m0, &m1);
                spawn_stream(&sim.handle(), SockType::Via, cp, sp, 200_000);
            },
            run_ok,
        );
    }
    cases.check(
        "tcp stream",
        2,
        |sim, c| {
            let (m0, m1) = testbed::tcp_ethernet_pair(&sim.handle());
            c.add(&[&m0, &m1]);
            let (cp, sp) = testbed::procs(&m0, &m1);
            spawn_stream(&sim.handle(), SockType::Stream, cp, sp, 200_000);
        },
        run_ok,
    );
    cases.check(
        "tcp stream over clan_dual_stack",
        2,
        |sim, c| {
            let c = c.clone();
            testbed::clan_dual_stack(sim, SoviaConfig::combine(), move |ctx, m0, m1| {
                c.add(&[&m0, &m1]);
                let (cp, sp) = testbed::procs(&m0, &m1);
                spawn_stream(ctx.handle(), SockType::Stream, cp, sp, 200_000);
            });
        },
        run_ok,
    );
    cases.assert_none_leaked();
}

#[test]
fn platforms_are_freed_after_a_lossy_run() {
    let mut cases = Cases::new(Unwinds::None);
    // Outcome does not matter (a typed error is fine); the run must end.
    let settle = |sim: &mut Simulation| {
        let _ = sim.run();
    };
    cases.check(
        "lossy tcp stream",
        2,
        |sim, c| {
            let plan = FaultPlan::drops(11, 0.05).with_duplicate(0.02);
            let (m0, m1, _, _) = testbed::tcp_ethernet_pair_with_faults(
                &sim.handle(),
                &plan,
                &FaultPlan::drops(12, 0.05),
            );
            c.add(&[&m0, &m1]);
            let (cp, sp) = testbed::procs(&m0, &m1);
            spawn_stream(&sim.handle(), SockType::Stream, cp, sp, 100_000);
        },
        settle,
    );
    cases.check(
        "lossy sovia stream",
        2,
        |sim, c| {
            let plan = FaultPlan::drops(13, 0.01);
            let (m0, m1, _, _) = testbed::sovia_pair_with_faults(
                &sim.handle(),
                SoviaConfig::default(),
                &plan,
                &FaultPlan::empty(),
            );
            c.add(&[&m0, &m1]);
            let (cp, sp) = testbed::procs(&m0, &m1);
            spawn_stream(&sim.handle(), SockType::Via, cp, sp, 100_000);
        },
        settle,
    );
    cases.assert_none_leaked();
}

/// FTP `dir` (the server forks a child for the listing) then `get`.
#[test]
fn platforms_are_freed_after_ftp_with_fork() {
    let mut cases = Cases::new(Unwinds::None);
    cases.check(
        "ftp dir+get over sovia_pair",
        2,
        |sim, c| {
            let (m0, m1) = testbed::sovia_pair(&sim.handle(), SoviaConfig::dacks());
            c.add(&[&m0, &m1]);
            let (cp, sp) = testbed::procs(&m0, &m1);
            m1.fs().add_file("pub/data.bin", vec![7; 50_000]);
            spawn_ftp_server(
                &sim.handle(),
                sp,
                FtpServerConfig {
                    transports: FtpTransports::sovia(),
                    fork_for_list: true,
                    max_sessions: Some(1),
                    ..Default::default()
                },
            );
            sim.spawn("ftp-client", move |ctx| {
                ctx.sleep(SimDuration::from_micros(500));
                let mut ftp =
                    FtpClient::connect(ctx, &cp, HostId(1), FTP_PORT, FtpTransports::sovia())
                        .unwrap();
                assert!(ftp.list(ctx, "pub/").unwrap().contains("pub/data.bin"));
                assert_eq!(
                    ftp.retr(ctx, "pub/data.bin", "local.bin").unwrap().bytes,
                    50_000
                );
                ftp.quit(ctx).unwrap();
            });
        },
        run_ok,
    );
    cases.assert_none_leaked();
}

#[test]
fn platforms_are_freed_after_a_deadlock() {
    let mut cases = Cases::new(Unwinds::Some);
    for stype in [SockType::Via, SockType::Stream] {
        cases.check(
            &format!("deadlock over {stype:?}"),
            2,
            |sim, c| {
                let (m0, m1) = match stype {
                    SockType::Via => testbed::sovia_pair(&sim.handle(), SoviaConfig::default()),
                    _ => testbed::tcp_ethernet_pair(&sim.handle()),
                };
                c.add(&[&m0, &m1]);
                let (cp, sp) = testbed::procs(&m0, &m1);
                // Each side waits for bytes the other never sends, with a
                // connection open on both.
                sim.spawn("server", move |ctx| {
                    let s = api::socket(ctx, &sp, stype).unwrap();
                    api::bind(ctx, &sp, s, SockAddr::new(HostId(1), PORT)).unwrap();
                    api::listen(ctx, &sp, s, 1).unwrap();
                    let (c, _) = api::accept(ctx, &sp, s).unwrap();
                    let _ = api::recv_exact(ctx, &sp, c, 1_000);
                });
                sim.spawn("client", move |ctx| {
                    ctx.sleep(SimDuration::from_micros(500));
                    let s = api::socket(ctx, &cp, stype).unwrap();
                    api::connect(ctx, &cp, s, SockAddr::new(HostId(1), PORT)).unwrap();
                    api::send_all(ctx, &cp, s, &[1; 100]).unwrap();
                    let _ = api::recv(ctx, &cp, s, 1);
                });
            },
            |sim| {
                let r = sim.run();
                assert!(matches!(r, Err(SimError::Deadlock { .. })), "{r:?}");
            },
        );
    }
    cases.assert_none_leaked();
}

#[test]
fn platforms_are_freed_after_a_panic() {
    let mut cases = Cases::new(Unwinds::Some);
    for stype in [SockType::Via, SockType::Stream] {
        cases.check(
            &format!("panic mid-stream over {stype:?}"),
            2,
            |sim, c| {
                let (m0, m1) = match stype {
                    SockType::Via => testbed::sovia_pair(&sim.handle(), SoviaConfig::default()),
                    _ => testbed::tcp_ethernet_pair(&sim.handle()),
                };
                c.add(&[&m0, &m1]);
                let (cp, sp) = testbed::procs(&m0, &m1);
                spawn_stream(&sim.handle(), stype, cp.clone(), sp, 1_000_000);
                sim.spawn("crasher", move |ctx| {
                    ctx.sleep(SimDuration::from_micros(800));
                    let _keep = cp;
                    panic!("boom");
                });
            },
            |sim| {
                let r = sim.run();
                assert!(matches!(r, Err(SimError::ProcessPanicked { .. })), "{r:?}");
            },
        );
    }
    cases.assert_none_leaked();
}

/// The budget runs out at every event of a window of a lossy stream, so
/// some cut lands with timers queued but not yet served.
#[test]
fn platforms_are_freed_after_the_event_limit() {
    let mut cases = Cases::new(Unwinds::Some);
    for stype in [SockType::Via, SockType::Stream] {
        for limit in 300..400 {
            cases.check(
                &format!("event limit {limit} over {stype:?}"),
                2,
                |sim, c| {
                    let (h, lossy, clean) =
                        (sim.handle(), FaultPlan::drops(11, 0.05), FaultPlan::empty());
                    let (m0, m1) = match stype {
                        SockType::Via => {
                            let cfg = SoviaConfig::combine();
                            let (m0, m1, _, _) =
                                testbed::sovia_pair_with_faults(&h, cfg, &clean, &lossy);
                            (m0, m1)
                        }
                        _ => {
                            let (m0, m1, _, _) =
                                testbed::tcp_ethernet_pair_with_faults(&h, &lossy, &lossy);
                            (m0, m1)
                        }
                    };
                    c.add(&[&m0, &m1]);
                    let (cp, sp) = testbed::procs(&m0, &m1);
                    spawn_stream(&h, stype, cp, sp, 1_000_000);
                },
                |sim| {
                    let r = sim.run_with_limit(limit);
                    assert!(matches!(r, Err(SimError::EventLimit { .. })), "{r:?}");
                },
            );
        }
    }
    cases.assert_none_leaked();
}
