//! Half-close (`shutdown(SHUT_WR)`) semantics across both transports:
//! the classic request/EOF/response pattern — the client sends its whole
//! request, shuts down the write half, and keeps reading the response.

use std::sync::Arc;

use dsim::{SimDuration, Simulation};
use parking_lot::Mutex;
use simnic::{FaultPlan, ScriptedFault};
use simos::HostId;
use sovia_repro::sockets::{api, Shutdown, SockAddr, SockError, SockOption, SockType};
use sovia_repro::sovia::SoviaConfig;
use sovia_repro::testbed;

const PORT: u16 = 2020;
const REQ: usize = 30_000;
const RESP: usize = 70_000;

fn run_half_close(stype: SockType) {
    let mut sim = Simulation::new();
    let done = Arc::new(Mutex::new(false));
    let done2 = Arc::clone(&done);
    let run = move |ctx: &dsim::SimCtx, m0: simos::Machine, m1: simos::Machine| {
        let (cp, sp) = testbed::procs(&m0, &m1);
        {
            let sp = sp.clone();
            ctx.handle().spawn("server", move |sctx| {
                let s = api::socket(sctx, &sp, stype).unwrap();
                api::bind(sctx, &sp, s, SockAddr::new(HostId(1), PORT)).unwrap();
                api::listen(sctx, &sp, s, 1).unwrap();
                let (c, _) = api::accept(sctx, &sp, s).unwrap();
                // Consume the request until EOF (the client's shutdown).
                let mut req = Vec::new();
                loop {
                    let d = api::recv(sctx, &sp, c, 8192).unwrap();
                    if d.is_empty() {
                        break;
                    }
                    req.extend_from_slice(&d);
                }
                assert_eq!(req.len(), REQ);
                assert_eq!(dsim::rng::check_pattern(1, 0, &req), None);
                // Then answer over the still-open reverse direction.
                let mut resp = vec![0u8; RESP];
                dsim::rng::fill_pattern(2, 0, &mut resp);
                api::send_all(sctx, &sp, c, &resp).unwrap();
                api::close(sctx, &sp, c).unwrap();
                api::close(sctx, &sp, s).unwrap();
            });
        }
        let done = Arc::clone(&done2);
        ctx.handle().spawn("client", move |cctx| {
            cctx.sleep(SimDuration::from_millis(1));
            let s = api::socket(cctx, &cp, stype).unwrap();
            api::connect(cctx, &cp, s, SockAddr::new(HostId(1), PORT)).unwrap();
            let mut req = vec![0u8; REQ];
            dsim::rng::fill_pattern(1, 0, &mut req);
            api::send_all(cctx, &cp, s, &req).unwrap();
            api::shutdown(cctx, &cp, s, Shutdown::Write).unwrap();
            // Writes must now fail...
            assert_eq!(
                api::send(cctx, &cp, s, b"late").unwrap_err(),
                SockError::Closed
            );
            // ...but the read half still delivers the whole response.
            let resp = api::recv_exact(cctx, &cp, s, RESP).unwrap();
            assert_eq!(resp.len(), RESP);
            assert_eq!(dsim::rng::check_pattern(2, 0, &resp), None);
            // And then a clean EOF.
            assert_eq!(api::recv(cctx, &cp, s, 10).unwrap(), b"");
            api::close(cctx, &cp, s).unwrap();
            *done.lock() = true;
        });
    };
    match stype {
        SockType::Via => {
            let (m0, m1) = testbed::sovia_pair(&sim.handle(), SoviaConfig::default());
            sim.spawn("boot", move |ctx| run(ctx, m0, m1));
        }
        SockType::Stream => {
            let (m0, m1) = testbed::tcp_ethernet_pair(&sim.handle());
            sim.spawn("boot", move |ctx| run(ctx, m0, m1));
        }
    }
    sim.run().unwrap();
    assert!(*done.lock());
}

#[test]
fn half_close_over_sovia() {
    run_half_close(SockType::Via);
}

#[test]
fn half_close_over_tcp() {
    run_half_close(SockType::Stream);
}

// ----- disconnect while blocked ---------------------------------------
//
// The other half of teardown semantics: a peer that *vanishes* (forced
// VI disconnect, abortive TCP close) must turn a blocked send()/recv()
// into a typed error, never leave it parked forever.

/// SOVIA: the server blocks in recv() with nothing in flight; a scripted
/// fault forcibly disconnects every VI at t = 5 ms. The blocked recv must
/// surface `ConnectionReset`.
#[test]
fn sovia_disconnect_during_blocking_recv() {
    let mut sim = Simulation::new();
    let plan0 = FaultPlan::empty().with_scripted(ScriptedFault::DisconnectAt {
        at: SimDuration::from_millis(5),
    });
    let (m0, m1, f0, _f1) = testbed::sovia_pair_with_faults(
        &sim.handle(),
        SoviaConfig::default(),
        &plan0,
        &FaultPlan::empty(),
    );
    let seen = Arc::new(Mutex::new(None));
    let seen2 = Arc::clone(&seen);
    sim.spawn("boot", move |ctx| {
        let (cp, sp) = testbed::procs(&m0, &m1);
        {
            let seen = Arc::clone(&seen2);
            ctx.handle().spawn("server", move |sctx| {
                let s = api::socket(sctx, &sp, SockType::Via).unwrap();
                api::bind(sctx, &sp, s, SockAddr::new(HostId(1), PORT)).unwrap();
                api::listen(sctx, &sp, s, 1).unwrap();
                let (c, _) = api::accept(sctx, &sp, s).unwrap();
                // Nothing ever arrives: parked here when the VI breaks.
                let r = api::recv(sctx, &sp, c, 1024);
                *seen.lock() = Some(r);
                let _ = api::close(sctx, &sp, c);
                let _ = api::close(sctx, &sp, s);
            });
        }
        ctx.handle().spawn("client", move |cctx| {
            cctx.sleep(SimDuration::from_millis(1));
            let s = api::socket(cctx, &cp, SockType::Via).unwrap();
            api::connect(cctx, &cp, s, SockAddr::new(HostId(1), PORT)).unwrap();
            cctx.sleep(SimDuration::from_millis(20));
            let _ = api::close(cctx, &cp, s);
        });
    });
    sim.run().unwrap();
    assert_eq!(*seen.lock(), Some(Err(SockError::ConnectionReset)));
    assert!(f0.stats().forced_disconnects >= 1);
}

/// SOVIA: stop-and-wait config (one credit). The first send consumes it;
/// with the server never reading, the second send parks in wait-credit
/// until the scripted disconnect breaks the VI under it.
#[test]
fn sovia_disconnect_during_blocking_send() {
    let mut sim = Simulation::new();
    let plan0 = FaultPlan::empty().with_scripted(ScriptedFault::DisconnectAt {
        at: SimDuration::from_millis(5),
    });
    let (m0, m1, f0, _f1) = testbed::sovia_pair_with_faults(
        &sim.handle(),
        SoviaConfig::single(),
        &plan0,
        &FaultPlan::empty(),
    );
    let seen = Arc::new(Mutex::new(None));
    let seen2 = Arc::clone(&seen);
    sim.spawn("boot", move |ctx| {
        let (cp, sp) = testbed::procs(&m0, &m1);
        {
            ctx.handle().spawn("server", move |sctx| {
                let s = api::socket(sctx, &sp, SockType::Via).unwrap();
                api::bind(sctx, &sp, s, SockAddr::new(HostId(1), PORT)).unwrap();
                api::listen(sctx, &sp, s, 1).unwrap();
                let (c, _) = api::accept(sctx, &sp, s).unwrap();
                // Never recv: no credits are ever returned.
                sctx.sleep(SimDuration::from_millis(50));
                let _ = api::close(sctx, &sp, c);
                let _ = api::close(sctx, &sp, s);
            });
        }
        let seen = Arc::clone(&seen2);
        ctx.handle().spawn("client", move |cctx| {
            cctx.sleep(SimDuration::from_millis(1));
            let s = api::socket(cctx, &cp, SockType::Via).unwrap();
            api::connect(cctx, &cp, s, SockAddr::new(HostId(1), PORT)).unwrap();
            let data = vec![7u8; 4096];
            api::send(cctx, &cp, s, &data).unwrap();
            // Credit exhausted: this one blocks, then the VI breaks.
            let r = api::send(cctx, &cp, s, &data);
            *seen.lock() = Some(r);
            let _ = api::close(cctx, &cp, s);
        });
    });
    sim.run().unwrap();
    assert_eq!(*seen.lock(), Some(Err(SockError::ConnectionReset)));
    assert!(f0.stats().forced_disconnects >= 1);
}

/// TCP: the server blocks in recv() while the client closes with the
/// server's greeting still unread — an abortive close (BSD semantics), so
/// the RST must turn the server's blocked recv into `ConnectionReset`,
/// not a clean EOF.
#[test]
fn tcp_disconnect_during_blocking_recv() {
    let mut sim = Simulation::new();
    let (m0, m1) = testbed::tcp_ethernet_pair(&sim.handle());
    let seen = Arc::new(Mutex::new(None));
    let seen2 = Arc::clone(&seen);
    sim.spawn("boot", move |ctx| {
        let (cp, sp) = testbed::procs(&m0, &m1);
        {
            let seen = Arc::clone(&seen2);
            ctx.handle().spawn("server", move |sctx| {
                let s = api::socket(sctx, &sp, SockType::Stream).unwrap();
                api::bind(sctx, &sp, s, SockAddr::new(HostId(1), PORT)).unwrap();
                api::listen(sctx, &sp, s, 1).unwrap();
                let (c, _) = api::accept(sctx, &sp, s).unwrap();
                // A greeting the client will never read...
                api::send_all(sctx, &sp, c, &[1u8; 1024]).unwrap();
                // ...then block for a request that never comes.
                let r = api::recv(sctx, &sp, c, 1024);
                *seen.lock() = Some(r);
                let _ = api::close(sctx, &sp, c);
                let _ = api::close(sctx, &sp, s);
            });
        }
        ctx.handle().spawn("client", move |cctx| {
            cctx.sleep(SimDuration::from_millis(1));
            let s = api::socket(cctx, &cp, SockType::Stream).unwrap();
            api::connect(cctx, &cp, s, SockAddr::new(HostId(1), PORT)).unwrap();
            // Let the greeting land in the receive buffer, then close
            // without reading it: abortive close, RST to the peer.
            cctx.sleep(SimDuration::from_millis(5));
            let _ = api::close(cctx, &cp, s);
        });
    });
    sim.run().unwrap();
    assert_eq!(*seen.lock(), Some(Err(SockError::ConnectionReset)));
}

/// TCP: the client fills the peer's advertised window plus its own send
/// buffer and parks in send(); the server then closes with all that data
/// unread. The RST must turn the blocked send into `ConnectionReset`.
#[test]
fn tcp_disconnect_during_blocking_send() {
    let mut sim = Simulation::new();
    let (m0, m1) = testbed::tcp_ethernet_pair(&sim.handle());
    let seen = Arc::new(Mutex::new(None));
    let seen2 = Arc::clone(&seen);
    sim.spawn("boot", move |ctx| {
        let (cp, sp) = testbed::procs(&m0, &m1);
        {
            ctx.handle().spawn("server", move |sctx| {
                let s = api::socket(sctx, &sp, SockType::Stream).unwrap();
                api::bind(sctx, &sp, s, SockAddr::new(HostId(1), PORT)).unwrap();
                api::listen(sctx, &sp, s, 1).unwrap();
                let (c, _) = api::accept(sctx, &sp, s).unwrap();
                // Read nothing; close with the window's worth of data
                // sitting unread in the receive buffer.
                sctx.sleep(SimDuration::from_millis(30));
                let _ = api::close(sctx, &sp, c);
                let _ = api::close(sctx, &sp, s);
            });
        }
        let seen = Arc::clone(&seen2);
        ctx.handle().spawn("client", move |cctx| {
            cctx.sleep(SimDuration::from_millis(1));
            let s = api::socket(cctx, &cp, SockType::Stream).unwrap();
            api::connect(cctx, &cp, s, SockAddr::new(HostId(1), PORT)).unwrap();
            api::set_option(cctx, &cp, s, SockOption::SendBuf(8192)).unwrap();
            // Far more than peer window + send buffer: send() must park.
            let data = vec![9u8; 200 * 1024];
            let r = api::send_all(cctx, &cp, s, &data);
            *seen.lock() = Some(r);
            let _ = api::close(cctx, &cp, s);
        });
    });
    sim.run().unwrap();
    assert_eq!(*seen.lock(), Some(Err(SockError::ConnectionReset)));
}

// ----- close with unread data ------------------------------------------
//
// The server closes with the client's 100 bytes unread. TCP follows BSD:
// the close aborts with RST and the client's later calls fail. SOVIA
// departs from it (DESIGN.md §8): the close sends FIN, the client's later
// sends succeed and their bytes vanish, and its recv sees EOF.

/// What the client sees after the server's close: three 10-byte sends,
/// then a recv.
type Transcript = (Vec<Result<usize, SockError>>, Result<Vec<u8>, SockError>);

fn close_with_unread_data(stype: SockType) -> Transcript {
    let mut sim = Simulation::new();
    let (m0, m1) = match stype {
        SockType::Via => testbed::sovia_pair(&sim.handle(), SoviaConfig::default()),
        SockType::Stream => testbed::tcp_ethernet_pair(&sim.handle()),
    };
    let (cp, sp) = testbed::procs(&m0, &m1);
    sim.spawn("server", move |sctx| {
        let s = api::socket(sctx, &sp, stype).unwrap();
        api::bind(sctx, &sp, s, SockAddr::new(HostId(1), PORT)).unwrap();
        api::listen(sctx, &sp, s, 1).unwrap();
        let (c, _) = api::accept(sctx, &sp, s).unwrap();
        // Let the client's bytes arrive, then close without reading them.
        sctx.sleep(SimDuration::from_millis(5));
        api::close(sctx, &sp, c).unwrap();
        api::close(sctx, &sp, s).unwrap();
    });
    let seen = Arc::new(Mutex::new(None));
    let seen2 = Arc::clone(&seen);
    sim.spawn("client", move |cctx| {
        cctx.sleep(SimDuration::from_millis(1));
        let s = api::socket(cctx, &cp, stype).unwrap();
        api::connect(cctx, &cp, s, SockAddr::new(HostId(1), PORT)).unwrap();
        api::send_all(cctx, &cp, s, &[3u8; 100]).unwrap();
        // Well after the server's close has reached us.
        cctx.sleep(SimDuration::from_millis(20));
        let sends = (0..3)
            .map(|_| api::send(cctx, &cp, s, &[4u8; 10]))
            .collect();
        let recv = api::recv(cctx, &cp, s, 10);
        *seen2.lock() = Some((sends, recv));
        let _ = api::close(cctx, &cp, s);
    });
    sim.run().unwrap();
    let transcript = seen.lock().take().expect("the client finished");
    transcript
}

#[test]
fn close_with_unread_data_resets_tcp() {
    let reset = SockError::ConnectionReset;
    assert_eq!(
        close_with_unread_data(SockType::Stream),
        (vec![Err(reset); 3], Err(reset))
    );
}

#[test]
fn close_with_unread_data_is_eof_over_sovia() {
    assert_eq!(
        close_with_unread_data(SockType::Via),
        (vec![Ok(10), Ok(10), Ok(10)], Ok(Vec::new()))
    );
}

#[test]
fn sovia_listen_port_conflict_is_addrinuse() {
    let mut sim = Simulation::new();
    let (m0, _m1) = testbed::sovia_pair(&sim.handle(), SoviaConfig::default());
    let p = m0.spawn_process("p");
    sim.spawn("main", move |ctx| {
        let a = api::socket(ctx, &p, SockType::Via).unwrap();
        api::bind(ctx, &p, a, SockAddr::new(HostId(0), 7)).unwrap();
        api::listen(ctx, &p, a, 1).unwrap();
        let b = api::socket(ctx, &p, SockType::Via).unwrap();
        api::bind(ctx, &p, b, SockAddr::new(HostId(0), 7)).unwrap();
        assert_eq!(
            api::listen(ctx, &p, b, 1).unwrap_err(),
            SockError::AddrInUse
        );
        api::close(ctx, &p, a).unwrap();
        api::close(ctx, &p, b).unwrap();
    });
    sim.run().unwrap();
}
