//! # tcpip — the kernel TCP/IP baseline
//!
//! A miniature but behaviorally faithful TCP/IP stack: sliding-window
//! transport with Nagle, delayed ACKs, slow start, go-back-N
//! retransmission, real 40-byte headers; an IP layer over either a Fast
//! Ethernet device or the **LANE** driver (IP-over-VIA — the kernel path
//! Giganet shipped for cLAN, Figure 2(b) of the SOVIA paper). Every
//! packet pays syscall/interrupt/copy/protocol costs — the overheads the
//! paper's measurements hold against SOVIA.

#![warn(missing_docs)]

mod costs;
mod device;
mod packet;
mod socket;
mod stack;
mod tcb;

pub use costs::TcpCosts;
pub use device::{EthDevice, LaneDevice, NetDevice};
pub use packet::{IpPacket, PacketHeader, TcpFlags, IP_HDR, TCP_HDR};
pub use socket::{TcpProvider, TcpSocket};
pub use stack::TcpStack;
pub use tcb::{mss_for, Tcb, TcpState, DEFAULT_SOCKBUF};

#[cfg(test)]
mod tests {
    use super::*;
    use dsim::{SimDuration, Simulation};
    use parking_lot::Mutex;
    use simnic::{clan1000_nic, clan_link, fast_ethernet_link, fast_ethernet_nic, EthPort};
    use simos::{HostCosts, HostId, Machine, Process};
    use sockets::{api, SockAddr, SockOption, SockType};
    use std::sync::Arc;
    use via::{ViaNic, ViaNicId};

    /// Two hosts over Fast Ethernet with TCP installed.
    fn ethernet_testbed(sim: &dsim::SimHandle) -> (Machine, Machine, Process, Process) {
        let m0 = Machine::new(sim, HostId(0), "m0", HostCosts::pentium3_500());
        let m1 = Machine::new(sim, HostId(1), "m1", HostCosts::pentium3_500());
        let e0 = EthPort::new(sim, HostId(0), fast_ethernet_nic(), fast_ethernet_link());
        let e1 = EthPort::new(sim, HostId(1), fast_ethernet_nic(), fast_ethernet_link());
        EthPort::connect(sim, &e0, &e1);
        TcpStack::install(&m0, EthDevice::new(e0), TcpCosts::linux22());
        TcpStack::install(&m1, EthDevice::new(e1), TcpCosts::linux22());
        TcpProvider::register(&m0);
        TcpProvider::register(&m1);
        (
            m0.clone(),
            m1.clone(),
            m0.spawn_process("p0"),
            m1.spawn_process("p1"),
        )
    }

    /// Two hosts over cLAN with the LANE driver and TCP installed; the
    /// device setup runs in a bootstrap process, after which `f` runs.
    fn lane_testbed(
        sim: &Simulation,
        f: impl FnOnce(&dsim::SimCtx, Process, Process) + Send + 'static,
    ) {
        let h = sim.handle();
        let m0 = Machine::new(&h, HostId(0), "m0", HostCosts::pentium3_500());
        let m1 = Machine::new(&h, HostId(1), "m1", HostCosts::pentium3_500());
        let n0 = ViaNic::attach(&m0, ViaNicId(0), clan1000_nic());
        let n1 = ViaNic::attach(&m1, ViaNicId(1), clan1000_nic());
        ViaNic::connect_pair(&n0, &n1, clan_link());
        sim.spawn("bootstrap", move |ctx| {
            let d0 = LaneDevice::new(ctx, &m0);
            let d1 = LaneDevice::new(ctx, &m1);
            LaneDevice::connect_pair(ctx, &d0, &d1).expect("LANE link setup failed");
            TcpStack::install(&m0, d0, TcpCosts::linux22());
            TcpStack::install(&m1, d1, TcpCosts::linux22());
            TcpProvider::register(&m0);
            TcpProvider::register(&m1);
            f(ctx, m0.spawn_process("p0"), m1.spawn_process("p1"));
        });
    }

    const PORT: u16 = 5001;

    fn spawn_echo_server(h: &dsim::SimHandle, p1: Process, max_total: usize) {
        h.spawn("server", move |ctx| {
            let s = api::socket(ctx, &p1, SockType::Stream).unwrap();
            api::bind(ctx, &p1, s, SockAddr::new(HostId(1), PORT)).unwrap();
            api::listen(ctx, &p1, s, 8).unwrap();
            let (c, _) = api::accept(ctx, &p1, s).unwrap();
            let mut total = 0;
            loop {
                let data = api::recv(ctx, &p1, c, 16 * 1024).unwrap();
                if data.is_empty() {
                    break;
                }
                total += data.len();
                api::send_all(ctx, &p1, c, &data).unwrap();
                if total >= max_total {
                    break;
                }
            }
            api::close(ctx, &p1, c).unwrap();
            api::close(ctx, &p1, s).unwrap();
        });
    }

    #[test]
    fn close_handshake_terminates_promptly() {
        let mut sim = Simulation::new();
        let (_m0, _m1, p0, p1) = ethernet_testbed(&sim.handle());
        spawn_echo_server(&sim.handle(), p1, usize::MAX);
        sim.spawn("client", move |ctx| {
            ctx.sleep(SimDuration::from_micros(100));
            let s = api::socket(ctx, &p0, SockType::Stream).unwrap();
            api::connect(ctx, &p0, s, SockAddr::new(HostId(1), PORT)).unwrap();
            api::send_all(ctx, &p0, s, b"over the wire").unwrap();
            let echo = api::recv_exact(ctx, &p0, s, 13).unwrap();
            assert_eq!(echo, b"over the wire");
            api::close(ctx, &p0, s).unwrap();
        });
        // Regression guard for the LAST_ACK bug: the whole exchange,
        // including lingering timers, must complete within a small event
        // budget (a retransmission loop would exhaust it).
        let end = sim.run_with_limit(200_000).expect("simulation wedged");
        assert!(end.as_secs_f64() < 2.0, "close dragged on: {end}");
    }

    #[test]
    fn ethernet_echo_roundtrip() {
        let mut sim = Simulation::new();
        let (_m0, _m1, p0, p1) = ethernet_testbed(&sim.handle());
        spawn_echo_server(&sim.handle(), p1, usize::MAX);
        sim.spawn("client", move |ctx| {
            ctx.sleep(SimDuration::from_micros(100));
            let s = api::socket(ctx, &p0, SockType::Stream).unwrap();
            api::connect(ctx, &p0, s, SockAddr::new(HostId(1), PORT)).unwrap();
            api::send_all(ctx, &p0, s, b"over the wire").unwrap();
            let echo = api::recv_exact(ctx, &p0, s, 13).unwrap();
            assert_eq!(echo, b"over the wire");
            api::close(ctx, &p0, s).unwrap();
        });
        sim.run().unwrap();
    }

    #[test]
    fn ethernet_large_stream_integrity() {
        // Multi-segment transfer with sliding window, ACK clocking and
        // buffer wrap: must be byte-exact.
        const LEN: usize = 300_000;
        let mut sim = Simulation::new();
        let (_m0, _m1, p0, p1) = ethernet_testbed(&sim.handle());
        {
            let p1 = p1.clone();
            sim.spawn("server", move |ctx| {
                let s = api::socket(ctx, &p1, SockType::Stream).unwrap();
                api::bind(ctx, &p1, s, SockAddr::new(HostId(1), PORT)).unwrap();
                api::listen(ctx, &p1, s, 8).unwrap();
                let (c, _) = api::accept(ctx, &p1, s).unwrap();
                let data = api::recv_exact(ctx, &p1, c, LEN).unwrap();
                assert_eq!(data.len(), LEN);
                assert_eq!(dsim::rng::check_pattern(3, 0, &data), None);
                api::close(ctx, &p1, c).unwrap();
                api::close(ctx, &p1, s).unwrap();
            });
        }
        sim.spawn("client", move |ctx| {
            ctx.sleep(SimDuration::from_micros(100));
            let s = api::socket(ctx, &p0, SockType::Stream).unwrap();
            api::connect(ctx, &p0, s, SockAddr::new(HostId(1), PORT)).unwrap();
            let mut buf = vec![0u8; LEN];
            dsim::rng::fill_pattern(3, 0, &mut buf);
            api::send_all(ctx, &p0, s, &buf).unwrap();
            api::close(ctx, &p0, s).unwrap();
        });
        sim.run().unwrap();
    }

    #[test]
    fn connect_refused_gets_rst() {
        let mut sim = Simulation::new();
        let (_m0, _m1, p0, _p1) = ethernet_testbed(&sim.handle());
        sim.spawn("client", move |ctx| {
            let s = api::socket(ctx, &p0, SockType::Stream).unwrap();
            let err = api::connect(ctx, &p0, s, SockAddr::new(HostId(1), 999)).unwrap_err();
            assert_eq!(err, sockets::SockError::ConnectionRefused);
        });
        sim.run().unwrap();
    }

    #[test]
    fn lane_echo_within_event_budget() {
        let mut sim = Simulation::new();
        lane_testbed(&sim, |ctx, p0, p1| {
            let h = ctx.handle().clone();
            spawn_echo_server(&h, p1, usize::MAX);
            h.spawn("client", move |cctx| {
                cctx.sleep(SimDuration::from_micros(200));
                let s = api::socket(cctx, &p0, SockType::Stream).unwrap();
                api::connect(cctx, &p0, s, SockAddr::new(HostId(1), PORT)).unwrap();
                api::send_all(cctx, &p0, s, b"ip over via").unwrap();
                let echo = api::recv_exact(cctx, &p0, s, 11).unwrap();
                assert_eq!(echo, b"ip over via");
                api::close(cctx, &p0, s).unwrap();
            });
        });
        // Regression guard: the whole exchange, timers included, fits in
        // a small event budget (a stall or retransmit loop would not).
        sim.run_with_limit(300_000).expect("lane echo wedged");
    }

    #[test]
    fn lane_echo_roundtrip() {
        let mut sim = Simulation::new();
        lane_testbed(&sim, |ctx, p0, p1| {
            let h = ctx.handle().clone();
            spawn_echo_server(&h, p1, usize::MAX);
            h.spawn("client", move |cctx| {
                cctx.sleep(SimDuration::from_micros(200));
                let s = api::socket(cctx, &p0, SockType::Stream).unwrap();
                api::connect(cctx, &p0, s, SockAddr::new(HostId(1), PORT)).unwrap();
                api::send_all(cctx, &p0, s, b"ip over via").unwrap();
                let echo = api::recv_exact(cctx, &p0, s, 11).unwrap();
                assert_eq!(echo, b"ip over via");
                api::close(cctx, &p0, s).unwrap();
            });
        });
        sim.run().unwrap();
    }

    #[test]
    fn lane_latency_anchor_55us() {
        // The paper: TCP over LANE shows ~55 us latency for 4-byte
        // messages (with TCP_NODELAY). Half the ping-pong RTT.
        const ROUNDS: u32 = 50;
        let mut sim = Simulation::new();
        let one_way = Arc::new(Mutex::new(0f64));
        let one_way2 = Arc::clone(&one_way);
        lane_testbed(&sim, move |ctx, p0, p1| {
            let h = ctx.handle().clone();
            {
                let p1 = p1.clone();
                h.spawn("server", move |sctx| {
                    let s = api::socket(sctx, &p1, SockType::Stream).unwrap();
                    api::bind(sctx, &p1, s, SockAddr::new(HostId(1), PORT)).unwrap();
                    api::listen(sctx, &p1, s, 8).unwrap();
                    let (c, _) = api::accept(sctx, &p1, s).unwrap();
                    api::set_option(sctx, &p1, c, SockOption::NoDelay(true)).unwrap();
                    for _ in 0..ROUNDS {
                        let d = api::recv_exact(sctx, &p1, c, 4).unwrap();
                        api::send_all(sctx, &p1, c, &d).unwrap();
                    }
                    api::close(sctx, &p1, c).unwrap();
                    api::close(sctx, &p1, s).unwrap();
                });
            }
            let one_way = Arc::clone(&one_way2);
            h.spawn("client", move |cctx| {
                cctx.sleep(SimDuration::from_micros(300));
                let s = api::socket(cctx, &p0, SockType::Stream).unwrap();
                api::connect(cctx, &p0, s, SockAddr::new(HostId(1), PORT)).unwrap();
                api::set_option(cctx, &p0, s, SockOption::NoDelay(true)).unwrap();
                // Warm-up round.
                api::send_all(cctx, &p0, s, b"warm").unwrap();
                let _ = api::recv_exact(cctx, &p0, s, 4).unwrap();
                let t0 = cctx.now();
                for _ in 0..ROUNDS - 1 {
                    api::send_all(cctx, &p0, s, b"ping").unwrap();
                    let _ = api::recv_exact(cctx, &p0, s, 4).unwrap();
                }
                let rtt = cctx.now().since(t0).as_micros_f64() / f64::from(ROUNDS - 1);
                *one_way.lock() = rtt / 2.0;
                api::close(cctx, &p0, s).unwrap();
            });
        });
        sim.run().unwrap();
        let got = *one_way.lock();
        assert!(
            (45.0..70.0).contains(&got),
            "TCP/LANE 4B latency should be ~55us, got {got:.1}us"
        );
    }

    #[test]
    fn lane_bandwidth_anchor() {
        // The paper: TCP bandwidth tops out near 450 Mb/s (~55% of native
        // VIA) with the socket buffer raised to 131,170.
        const TOTAL: usize = 4 * 1024 * 1024;
        let mut sim = Simulation::new();
        let mbps = Arc::new(Mutex::new(0f64));
        let mbps2 = Arc::clone(&mbps);
        lane_testbed(&sim, move |ctx, p0, p1| {
            let h = ctx.handle().clone();
            {
                let p1 = p1.clone();
                h.spawn("server", move |sctx| {
                    let s = api::socket(sctx, &p1, SockType::Stream).unwrap();
                    api::bind(sctx, &p1, s, SockAddr::new(HostId(1), PORT)).unwrap();
                    api::listen(sctx, &p1, s, 8).unwrap();
                    let (c, _) = api::accept(sctx, &p1, s).unwrap();
                    api::set_option(sctx, &p1, c, SockOption::RecvBuf(131_170)).unwrap();
                    let mut got = 0;
                    while got < TOTAL {
                        let d = api::recv(sctx, &p1, c, 64 * 1024).unwrap();
                        if d.is_empty() {
                            break;
                        }
                        got += d.len();
                    }
                    api::close(sctx, &p1, c).unwrap();
                    api::close(sctx, &p1, s).unwrap();
                });
            }
            let mbps = Arc::clone(&mbps2);
            h.spawn("client", move |cctx| {
                cctx.sleep(SimDuration::from_micros(300));
                let s = api::socket(cctx, &p0, SockType::Stream).unwrap();
                api::set_option(cctx, &p0, s, SockOption::SendBuf(131_170)).unwrap();
                api::connect(cctx, &p0, s, SockAddr::new(HostId(1), PORT)).unwrap();
                let chunk = vec![0xEEu8; 32 * 1024];
                let t0 = cctx.now();
                let mut sent = 0;
                while sent < TOTAL {
                    api::send_all(cctx, &p0, s, &chunk).unwrap();
                    sent += chunk.len();
                }
                let secs = cctx.now().since(t0).as_secs_f64();
                *mbps.lock() = sent as f64 * 8.0 / secs / 1e6;
                api::close(cctx, &p0, s).unwrap();
            });
        });
        sim.run().unwrap();
        let got = *mbps.lock();
        assert!(
            (350.0..550.0).contains(&got),
            "TCP/LANE peak should be near 450 Mb/s, got {got:.0}"
        );
    }

    #[test]
    fn ethernet_bandwidth_near_wire_rate() {
        const TOTAL: usize = 1024 * 1024;
        let mut sim = Simulation::new();
        let (_m0, _m1, p0, p1) = ethernet_testbed(&sim.handle());
        let mbps = Arc::new(Mutex::new(0f64));
        {
            let p1 = p1.clone();
            sim.spawn("server", move |ctx| {
                let s = api::socket(ctx, &p1, SockType::Stream).unwrap();
                api::bind(ctx, &p1, s, SockAddr::new(HostId(1), PORT)).unwrap();
                api::listen(ctx, &p1, s, 8).unwrap();
                let (c, _) = api::accept(ctx, &p1, s).unwrap();
                let mut got = 0;
                while got < TOTAL {
                    let d = api::recv(ctx, &p1, c, 64 * 1024).unwrap();
                    if d.is_empty() {
                        break;
                    }
                    got += d.len();
                }
                api::close(ctx, &p1, c).unwrap();
                api::close(ctx, &p1, s).unwrap();
            });
        }
        {
            let mbps = Arc::clone(&mbps);
            sim.spawn("client", move |ctx| {
                ctx.sleep(SimDuration::from_micros(100));
                let s = api::socket(ctx, &p0, SockType::Stream).unwrap();
                api::connect(ctx, &p0, s, SockAddr::new(HostId(1), PORT)).unwrap();
                let chunk = vec![1u8; 32 * 1024];
                let t0 = ctx.now();
                let mut sent = 0;
                while sent < TOTAL {
                    api::send_all(ctx, &p0, s, &chunk).unwrap();
                    sent += chunk.len();
                }
                let secs = ctx.now().since(t0).as_secs_f64();
                *mbps.lock() = sent as f64 * 8.0 / secs / 1e6;
                api::close(ctx, &p0, s).unwrap();
            });
        }
        sim.run().unwrap();
        let got = *mbps.lock();
        assert!(
            (75.0..100.0).contains(&got),
            "Fast Ethernet TCP should reach ~90 Mb/s, got {got:.0}"
        );
    }

    /// A device wrapper dropping ~1/N of data-bearing packets in the A→B
    /// direction (deterministically pseudo-random): exercises the
    /// retransmission machinery.
    struct DropNth {
        inner: Arc<dyn NetDevice>,
        n: u32,
        victim_dst: HostId,
        count: std::sync::atomic::AtomicU32,
        dropped: std::sync::atomic::AtomicU32,
    }

    impl NetDevice for DropNth {
        fn mtu(&self) -> usize {
            self.inner.mtu()
        }
        fn send(&self, ctx: &dsim::SimCtx, dst: HostId, packet: dsim::Payload) {
            use std::sync::atomic::Ordering;
            let has_payload = IpPacket::decode(&packet)
                .map(|p| !p.payload.is_empty())
                .unwrap_or(false);
            if dst == self.victim_dst && has_payload {
                let k = self.count.fetch_add(1, Ordering::Relaxed) + 1;
                // Pseudo-random drop positions (deterministic, but not
                // periodic: a strictly periodic rule can resonate with the
                // go-back-N burst length and kill the same segment every
                // round trip, which no real wire does).
                if u32::from(dsim::rng::pattern_byte(0xD0D0, u64::from(k))) < 256 / self.n {
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                    return; // the wire ate it
                }
            }
            self.inner.send(ctx, dst, packet);
        }
        fn set_rx(&self, handler: crate::device::IpRxHandler) {
            self.inner.set_rx(handler);
        }
    }

    #[test]
    fn retransmission_recovers_from_packet_loss() {
        const LEN: usize = 200_000;
        let mut sim = Simulation::new();
        let h = sim.handle();
        let m0 = Machine::new(&h, HostId(0), "m0", HostCosts::pentium3_500());
        let m1 = Machine::new(&h, HostId(1), "m1", HostCosts::pentium3_500());
        let e0 = EthPort::new(&h, HostId(0), fast_ethernet_nic(), fast_ethernet_link());
        let e1 = EthPort::new(&h, HostId(1), fast_ethernet_nic(), fast_ethernet_link());
        EthPort::connect(&h, &e0, &e1);
        let lossy = Arc::new(DropNth {
            inner: EthDevice::new(e0),
            n: 20, // ~5% of data segments toward host1
            victim_dst: HostId(1),
            count: std::sync::atomic::AtomicU32::new(0),
            dropped: std::sync::atomic::AtomicU32::new(0),
        });
        TcpStack::install(&m0, Arc::clone(&lossy) as Arc<dyn NetDevice>, TcpCosts::linux22());
        TcpStack::install(&m1, EthDevice::new(e1), TcpCosts::linux22());
        TcpProvider::register(&m0);
        TcpProvider::register(&m1);
        let p0 = m0.spawn_process("p0");
        let p1 = m1.spawn_process("p1");
        {
            let p1 = p1.clone();
            sim.spawn("server", move |ctx| {
                let s = api::socket(ctx, &p1, SockType::Stream).unwrap();
                api::bind(ctx, &p1, s, SockAddr::new(HostId(1), PORT)).unwrap();
                api::listen(ctx, &p1, s, 1).unwrap();
                let (c, _) = api::accept(ctx, &p1, s).unwrap();
                let data = api::recv_exact(ctx, &p1, c, LEN).unwrap();
                assert_eq!(data.len(), LEN, "stream must survive the losses");
                assert_eq!(dsim::rng::check_pattern(13, 0, &data), None);
                api::close(ctx, &p1, c).unwrap();
                api::close(ctx, &p1, s).unwrap();
            });
        }
        sim.spawn("client", move |ctx| {
            ctx.sleep(SimDuration::from_micros(100));
            let s = api::socket(ctx, &p0, SockType::Stream).unwrap();
            api::connect(ctx, &p0, s, SockAddr::new(HostId(1), PORT)).unwrap();
            let mut buf = vec![0u8; LEN];
            dsim::rng::fill_pattern(13, 0, &mut buf);
            api::send_all(ctx, &p0, s, &buf).unwrap();
            api::close(ctx, &p0, s).unwrap();
        });
        let end = sim.run_with_limit(3_000_000).expect("loss recovery wedged");
        assert!(
            end.as_secs_f64() < 30.0,
            "recovery took implausibly long: {end}"
        );
        assert!(
            lossy.dropped.load(std::sync::atomic::Ordering::Relaxed) >= 5,
            "the loss injector must actually have dropped segments"
        );
    }

    #[test]
    fn bidirectional_traffic() {
        let mut sim = Simulation::new();
        let (_m0, _m1, p0, p1) = ethernet_testbed(&sim.handle());
        {
            let p1 = p1.clone();
            sim.spawn("server", move |ctx| {
                let s = api::socket(ctx, &p1, SockType::Stream).unwrap();
                api::bind(ctx, &p1, s, SockAddr::new(HostId(1), PORT)).unwrap();
                api::listen(ctx, &p1, s, 8).unwrap();
                let (c, _) = api::accept(ctx, &p1, s).unwrap();
                // Full-duplex: send our own stream while receiving.
                let mut down = vec![0u8; 40_000];
                dsim::rng::fill_pattern(11, 0, &mut down);
                api::send_all(ctx, &p1, c, &down).unwrap();
                let up = api::recv_exact(ctx, &p1, c, 30_000).unwrap();
                assert_eq!(dsim::rng::check_pattern(12, 0, &up), None);
                api::close(ctx, &p1, c).unwrap();
                api::close(ctx, &p1, s).unwrap();
            });
        }
        sim.spawn("client", move |ctx| {
            ctx.sleep(SimDuration::from_micros(100));
            let s = api::socket(ctx, &p0, SockType::Stream).unwrap();
            api::connect(ctx, &p0, s, SockAddr::new(HostId(1), PORT)).unwrap();
            let mut up = vec![0u8; 30_000];
            dsim::rng::fill_pattern(12, 0, &mut up);
            api::send_all(ctx, &p0, s, &up).unwrap();
            let down = api::recv_exact(ctx, &p0, s, 40_000).unwrap();
            assert_eq!(dsim::rng::check_pattern(11, 0, &down), None);
            api::close(ctx, &p0, s).unwrap();
        });
        sim.run().unwrap();
    }
}
