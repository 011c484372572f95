//! RPC integration tests: the Section 5.4 port, over TCP and SOVIA.

use std::sync::Arc;

use apps::rpc::client::{RpcError, Transport};
use apps::rpc::echo::{echo_client, echo_len_1, echo_null_1, spawn_echo_server};
use apps::rpc::msg::ReplyStat;
use dsim::{SimDuration, Simulation};
use parking_lot::Mutex;
use simos::HostId;
use sovia::SoviaConfig;
use sovia_repro::testbed;

#[test]
fn rpc_over_tcp_ethernet() {
    let mut sim = Simulation::new();
    let (m0, m1) = testbed::tcp_ethernet_pair(&sim.handle());
    let (cp, sp) = testbed::procs(&m0, &m1);
    spawn_echo_server(&sim.handle(), sp, HostId(1), Transport::Tcp, Some(1));
    sim.spawn("client", move |ctx| {
        ctx.sleep(SimDuration::from_micros(500));
        let clnt = echo_client(ctx, &cp, HostId(1), Transport::Tcp).unwrap();
        echo_null_1(ctx, &clnt).unwrap();
        assert_eq!(echo_len_1(ctx, &clnt, "four").unwrap(), 4);
        assert_eq!(echo_len_1(ctx, &clnt, "").unwrap(), 0);
        let big = "x".repeat(4096);
        assert_eq!(echo_len_1(ctx, &clnt, &big).unwrap(), 4096);
        clnt.destroy(ctx);
    });
    sim.run().unwrap();
}

#[test]
fn rpc_over_sovia_selecting_via_transport() {
    // The paper: the client "simply selects SOVIA as a base transport by
    // specifying 'via' when it calls clnt_create()".
    let mut sim = Simulation::new();
    let (m0, m1) = testbed::sovia_pair(&sim.handle(), SoviaConfig::combine());
    let (cp, sp) = testbed::procs(&m0, &m1);
    spawn_echo_server(&sim.handle(), sp, HostId(1), Transport::Via, Some(1));
    sim.spawn("client", move |ctx| {
        ctx.sleep(SimDuration::from_micros(500));
        let clnt = echo_client(ctx, &cp, HostId(1), Transport::Via).unwrap();
        for len in [0usize, 4, 64, 512, 2048, 4096] {
            let arg = "a".repeat(len);
            assert_eq!(echo_len_1(ctx, &clnt, &arg).unwrap(), len as i32);
        }
        clnt.destroy(ctx);
    });
    sim.run().unwrap();
}

#[test]
fn rpc_latency_sovia_beats_tcp() {
    // Fig. 7's core claim: a null RPC over SOVIA is several times faster
    // than over kernel TCP on the same hardware.
    fn null_rpc_us(transport: Transport) -> f64 {
        const CALLS: u32 = 30;
        let mut sim = Simulation::new();
        let elapsed = Arc::new(Mutex::new(0f64));
        let e2 = Arc::clone(&elapsed);
        let (m0, m1) = match transport {
            Transport::Via => testbed::sovia_pair(&sim.handle(), SoviaConfig::combine()),
            Transport::Tcp => testbed::tcp_ethernet_pair(&sim.handle()),
        };
        let (cp, sp) = testbed::procs(&m0, &m1);
        spawn_echo_server(&sim.handle(), sp, HostId(1), transport, Some(1));
        sim.spawn("client", move |ctx| {
            ctx.sleep(SimDuration::from_micros(500));
            let clnt = echo_client(ctx, &cp, HostId(1), transport).unwrap();
            echo_null_1(ctx, &clnt).unwrap(); // warm-up
            let t0 = ctx.now();
            for _ in 0..CALLS {
                echo_null_1(ctx, &clnt).unwrap();
            }
            *e2.lock() = ctx.now().since(t0).as_micros_f64() / f64::from(CALLS);
            clnt.destroy(ctx);
        });
        sim.run().unwrap();
        let v = *elapsed.lock();
        v
    }
    let sovia_us = null_rpc_us(Transport::Via);
    let tcp_us = null_rpc_us(Transport::Tcp);
    assert!(
        sovia_us * 3.0 < tcp_us,
        "null RPC: SOVIA {sovia_us:.0}us should be >3x faster than TCP {tcp_us:.0}us"
    );
    assert!(
        (25.0..60.0).contains(&sovia_us),
        "paper reports ~35us for a null RPC over SOVIA, got {sovia_us:.0}"
    );
}

#[test]
fn rpc_error_statuses() {
    let mut sim = Simulation::new();
    let (m0, m1) = testbed::tcp_ethernet_pair(&sim.handle());
    let (cp, sp) = testbed::procs(&m0, &m1);
    spawn_echo_server(&sim.handle(), sp, HostId(1), Transport::Tcp, Some(2));
    sim.spawn("client", move |ctx| {
        ctx.sleep(SimDuration::from_micros(500));
        // Wrong program number -> ProgUnavail.
        let clnt = apps::rpc::client::clnt_create(
            ctx,
            &cp,
            HostId(1),
            apps::rpc::echo::ECHO_PORT,
            0xDEAD,
            1,
            Transport::Tcp,
        )
        .unwrap();
        match clnt.call(ctx, 0, &[]) {
            Err(RpcError::Denied(ReplyStat::ProgUnavail)) => {}
            other => panic!("expected ProgUnavail, got {other:?}"),
        }
        // Unknown procedure -> ProcUnavail.
        let clnt2 = echo_client(ctx, &cp, HostId(1), Transport::Tcp).unwrap();
        match clnt2.call(ctx, 99, &[]) {
            Err(RpcError::Denied(ReplyStat::ProcUnavail)) => {}
            other => panic!("expected ProcUnavail, got {other:?}"),
        }
        clnt.destroy(ctx);
        clnt2.destroy(ctx);
    });
    sim.run().unwrap();
}
