//! # sovia — SOVIA: a user-level Sockets layer over the Virtual Interface
//! Architecture
//!
//! Reproduction of Kim, Kim & Jung, *"SOVIA: A User-level Sockets Layer
//! Over Virtual Interface Architecture"*, IEEE CLUSTER 2001. SOVIA
//! emulates the Berkeley Sockets API entirely at user level on top of the
//! VIPL (crate [`via`]), eliminating the kernel from the data path while
//! keeping Sockets semantics:
//!
//! * **Latency** (Section 3.1): a two-way handshake that satisfies VIA's
//!   pre-posting constraint with receiver-side bounce buffering; a
//!   single-threaded receive path (the handler-thread variant exists as a
//!   config for comparison); hybrid copy-vs-register with a 2 KB
//!   threshold.
//! * **Bandwidth** (Section 3.2): sliding-window flow control (w = 32),
//!   delayed acknowledgments with piggybacking (t = 16, carried in the
//!   VIA immediate-data field), and Nagle-style small-message combining
//!   (100 ms timer, 32 KB chunks).
//! * **Compatibility** (Section 4): DATA/ACK/WAKEUP/FIN/FINACK packets, a
//!   connection thread per listen port, a close thread that drains the
//!   final handshakes, descriptor-table interposition via the [`sockets`]
//!   crate, and shared-memory-segment buffers so `fork()` works (the
//!   Figure 5 copy-on-write hazard).
//!
//! ## Quick start
//!
//! Attach a [`via::ViaNic`] to each machine, call
//! [`register_sovia`], then use the plain sockets API with
//! [`sockets::SockType::Via`].

#![warn(missing_docs)]

mod buffers;
pub mod config;
mod conn;
mod library;
mod packet;
mod socket;

pub use buffers::SlotPool;
pub use config::{ReceiveMode, SoviaConfig};
pub use conn::{ConnStats, SovConn};
pub use library::SoviaLib;
pub use packet::{decode, encode, PacketType, WakeupInfo};
pub use socket::{nic_of_host, register_sovia, SovSocket, SoviaProvider};

#[cfg(test)]
mod tests {
    use super::*;
    use dsim::{SimDuration, Simulation};
    use parking_lot::Mutex;
    use simnic::{clan1000_nic, clan_link};
    use simos::{HostCosts, HostId, Machine, Process};
    use sockets::{api, SockAddr, SockType};
    use std::sync::Arc;
    use via::{ViaNic, ViaNicId};

    /// Two hosts with cLAN NICs and SOVIA registered.
    fn testbed(
        sim: &dsim::SimHandle,
        config: SoviaConfig,
    ) -> (Machine, Machine, Process, Process) {
        let m0 = Machine::new(sim, HostId(0), "m0", HostCosts::pentium3_500());
        let m1 = Machine::new(sim, HostId(1), "m1", HostCosts::pentium3_500());
        let n0 = ViaNic::attach(&m0, ViaNicId(0), clan1000_nic());
        let n1 = ViaNic::attach(&m1, ViaNicId(1), clan1000_nic());
        ViaNic::connect_pair(&n0, &n1, clan_link());
        register_sovia(&m0, config.clone());
        register_sovia(&m1, config);
        let p0 = m0.spawn_process("client-proc");
        let p1 = m1.spawn_process("server-proc");
        (m0, m1, p0, p1)
    }

    const PORT: u16 = 7777;

    fn run_echo_server(
        sim: &Simulation,
        p1: Process,
        rounds: usize,
    ) {
        sim.spawn("server", move |ctx| {
            let s = api::socket(ctx, &p1, SockType::Via).unwrap();
            api::bind(ctx, &p1, s, SockAddr::new(HostId(1), PORT)).unwrap();
            api::listen(ctx, &p1, s, 8).unwrap();
            let (c, _peer) = api::accept(ctx, &p1, s).unwrap();
            for _ in 0..rounds {
                let data = api::recv(ctx, &p1, c, 64 * 1024).unwrap();
                if data.is_empty() {
                    break;
                }
                api::send_all(ctx, &p1, c, &data).unwrap();
            }
            api::close(ctx, &p1, c).unwrap();
            api::close(ctx, &p1, s).unwrap();
        });
    }

    #[test]
    fn connect_send_recv_close() {
        let mut sim = Simulation::new();
        let (_m0, _m1, p0, p1) = testbed(&sim.handle(), SoviaConfig::dacks());
        run_echo_server(&sim, p1, 1);
        sim.spawn("client", move |ctx| {
            ctx.sleep(SimDuration::from_micros(100));
            let s = api::socket(ctx, &p0, SockType::Via).unwrap();
            api::connect(ctx, &p0, s, SockAddr::new(HostId(1), PORT)).unwrap();
            api::send_all(ctx, &p0, s, b"hello sovia").unwrap();
            let echo = api::recv_exact(ctx, &p0, s, 11).unwrap();
            assert_eq!(echo, b"hello sovia");
            api::close(ctx, &p0, s).unwrap();
        });
        sim.run().unwrap();
    }

    #[test]
    fn close_handshake_finalizes_conns_via_close_thread() {
        // After both applications close, the FIN/FINACK drainage must
        // complete on the close thread (no app thread ever re-enters).
        let mut sim = Simulation::new();
        let (_m0, _m1, p0, p1) = testbed(&sim.handle(), SoviaConfig::dacks());
        run_echo_server(&sim, p1.clone(), 1);
        let p0_probe = p0.clone();
        let p1_probe = p1.clone();
        sim.spawn("client", move |ctx| {
            ctx.sleep(SimDuration::from_micros(100));
            let s = api::socket(ctx, &p0, SockType::Via).unwrap();
            api::connect(ctx, &p0, s, SockAddr::new(HostId(1), PORT)).unwrap();
            api::send_all(ctx, &p0, s, b"x").unwrap();
            let _ = api::recv_exact(ctx, &p0, s, 1).unwrap();
            api::close(ctx, &p0, s).unwrap();
        });
        sim.run().unwrap();
        // Both libraries drained all connections after the apps exited.
        for p in [p0_probe, p1_probe] {
            let lib = SoviaLib::get(&p).expect("library initialized");
            assert_eq!(
                lib.open_conn_count(),
                0,
                "close thread must finish the FIN handshake for {}",
                p.name()
            );
        }
    }

    #[test]
    fn stream_integrity_various_sizes() {
        // Byte-exact delivery across the copy/zero-copy threshold and
        // chunking boundaries.
        let sizes = [1usize, 7, 100, 2047, 2048, 2049, 8192, 32 * 1024, 100_000];
        let mut sim = Simulation::new();
        let (_m0, _m1, p0, p1) = testbed(&sim.handle(), SoviaConfig::dacks());
        let total: usize = sizes.iter().sum();
        {
            let p1 = p1.clone();
            sim.spawn("server", move |ctx| {
                let s = api::socket(ctx, &p1, SockType::Via).unwrap();
                api::bind(ctx, &p1, s, SockAddr::new(HostId(1), PORT)).unwrap();
                api::listen(ctx, &p1, s, 8).unwrap();
                let (c, _) = api::accept(ctx, &p1, s).unwrap();
                let data = api::recv_exact(ctx, &p1, c, total).unwrap();
                // Verify the whole concatenated pattern.
                assert_eq!(dsim::rng::check_pattern(42, 0, &data), None);
                assert_eq!(data.len(), total);
                api::close(ctx, &p1, c).unwrap();
                api::close(ctx, &p1, s).unwrap();
            });
        }
        sim.spawn("client", move |ctx| {
            ctx.sleep(SimDuration::from_micros(100));
            let s = api::socket(ctx, &p0, SockType::Via).unwrap();
            api::connect(ctx, &p0, s, SockAddr::new(HostId(1), PORT)).unwrap();
            let mut offset = 0u64;
            for sz in sizes {
                let mut buf = vec![0u8; sz];
                dsim::rng::fill_pattern(42, offset, &mut buf);
                api::send_all(ctx, &p0, s, &buf).unwrap();
                offset += sz as u64;
            }
            api::close(ctx, &p0, s).unwrap();
        });
        sim.run().unwrap();
    }

    #[test]
    fn no_drops_under_windowed_stream() {
        // The credit scheme must satisfy the pre-posting constraint: zero
        // NIC drops even when the sender runs far ahead of the receiver.
        let mut sim = Simulation::new();
        let (m0, m1, p0, p1) = testbed(&sim.handle(), SoviaConfig::dacks());
        const MSGS: usize = 200;
        const SIZE: usize = 1500;
        {
            let p1 = p1.clone();
            sim.spawn("server", move |ctx| {
                let s = api::socket(ctx, &p1, SockType::Via).unwrap();
                api::bind(ctx, &p1, s, SockAddr::new(HostId(1), PORT)).unwrap();
                api::listen(ctx, &p1, s, 8).unwrap();
                let (c, _) = api::accept(ctx, &p1, s).unwrap();
                // A slow receiver: compute between recvs.
                let mut got = 0;
                while got < MSGS * SIZE {
                    ctx.sleep(SimDuration::from_micros(30));
                    let data = api::recv(ctx, &p1, c, 8192).unwrap();
                    assert!(!data.is_empty());
                    got += data.len();
                }
                api::close(ctx, &p1, c).unwrap();
                api::close(ctx, &p1, s).unwrap();
            });
        }
        sim.spawn("client", move |ctx| {
            ctx.sleep(SimDuration::from_micros(100));
            let s = api::socket(ctx, &p0, SockType::Via).unwrap();
            api::connect(ctx, &p0, s, SockAddr::new(HostId(1), PORT)).unwrap();
            let buf = vec![0xA5u8; SIZE];
            for _ in 0..MSGS {
                api::send_all(ctx, &p0, s, &buf).unwrap();
            }
            api::close(ctx, &p0, s).unwrap();
        });
        sim.run().unwrap();
        let n0 = ViaNic::of(&m0);
        let n1 = ViaNic::of(&m1);
        assert_eq!(n0.stats().rx_drops_no_descriptor, 0);
        assert_eq!(n1.stats().rx_drops_no_descriptor, 0);
    }

    #[test]
    fn handler_mode_works_but_is_slower() {
        // Functional equivalence of the handler-thread mode, plus the
        // latency ordering of Figure 6(a): HANDLER > SINGLE.
        fn pingpong_rtt(config: SoviaConfig) -> u64 {
            const ROUNDS: u32 = 50;
            let mut sim = Simulation::new();
            let (_m0, _m1, p0, p1) = testbed(&sim.handle(), config);
            run_echo_server(&sim, p1, ROUNDS as usize);
            let rtt = Arc::new(Mutex::new(0u64));
            let rtt2 = Arc::clone(&rtt);
            sim.spawn("client", move |ctx| {
                ctx.sleep(SimDuration::from_micros(100));
                let s = api::socket(ctx, &p0, SockType::Via).unwrap();
                api::connect(ctx, &p0, s, SockAddr::new(HostId(1), PORT)).unwrap();
                let t0 = ctx.now();
                for _ in 0..ROUNDS {
                    api::send_all(ctx, &p0, s, b"ping").unwrap();
                    let _ = api::recv_exact(ctx, &p0, s, 4).unwrap();
                }
                *rtt2.lock() = ctx.now().since(t0).as_nanos() / u64::from(ROUNDS);
                api::close(ctx, &p0, s).unwrap();
            });
            sim.run().unwrap();
            let v = *rtt.lock();
            v
        }
        let single = pingpong_rtt(SoviaConfig::single());
        let handler = pingpong_rtt(SoviaConfig::handler());
        assert!(
            handler > single + 20_000,
            "handler mode must pay thread-sync cost: single={single}ns handler={handler}ns"
        );
        // The paper: SOVIA_SINGLE one-way ~10.5us for small messages.
        let one_way_us = single as f64 / 2000.0;
        assert!(
            (9.0..14.0).contains(&one_way_us),
            "SOVIA_SINGLE one-way latency ~10.5us, got {one_way_us:.1}"
        );
    }

    #[test]
    fn combining_batches_small_messages() {
        let mut sim = Simulation::new();
        let (_m0, _m1, p0, p1) = testbed(&sim.handle(), SoviaConfig::combine());
        let server_stats = Arc::new(Mutex::new(None));
        {
            let p1 = p1.clone();
            let server_stats = Arc::clone(&server_stats);
            sim.spawn("server", move |ctx| {
                let s = api::socket(ctx, &p1, SockType::Via).unwrap();
                api::bind(ctx, &p1, s, SockAddr::new(HostId(1), PORT)).unwrap();
                api::listen(ctx, &p1, s, 8).unwrap();
                let (c, _) = api::accept(ctx, &p1, s).unwrap();
                let data = api::recv_exact(ctx, &p1, c, 100 * 64).unwrap();
                assert_eq!(data.len(), 100 * 64);
                let table = api::SocketTable::of(&p1);
                let sock = table.get(c).unwrap();
                // Downcast via the concrete type to check packet counts.
                let sov = sock.as_any().downcast::<SovSocket>().ok();
                *server_stats.lock() = sov.and_then(|s| s.connection()).map(|c| c.stats());
                api::close(ctx, &p1, c).unwrap();
                api::close(ctx, &p1, s).unwrap();
            });
        }
        sim.spawn("client", move |ctx| {
            ctx.sleep(SimDuration::from_micros(100));
            let s = api::socket(ctx, &p0, SockType::Via).unwrap();
            api::connect(ctx, &p0, s, SockAddr::new(HostId(1), PORT)).unwrap();
            // 100 back-to-back 64-byte sends: combining should coalesce
            // them into far fewer DATA packets.
            let buf = vec![0x5Au8; 64];
            for _ in 0..100 {
                api::send_all(ctx, &p0, s, &buf).unwrap();
            }
            api::close(ctx, &p0, s).unwrap();
        });
        sim.run().unwrap();
        let stats = server_stats.lock().take().expect("stats captured");
        assert!(
            stats.data_rcvd < 50,
            "combining should coalesce 100 sends into few packets, got {}",
            stats.data_rcvd
        );
        assert_eq!(stats.bytes_rcvd, 100 * 64);
    }

    #[test]
    fn nodelay_disables_combining() {
        let mut sim = Simulation::new();
        let (_m0, _m1, p0, p1) = testbed(&sim.handle(), SoviaConfig::combine());
        let got_packets = Arc::new(Mutex::new(0u64));
        {
            let p1 = p1.clone();
            let got = Arc::clone(&got_packets);
            sim.spawn("server", move |ctx| {
                let s = api::socket(ctx, &p1, SockType::Via).unwrap();
                api::bind(ctx, &p1, s, SockAddr::new(HostId(1), PORT)).unwrap();
                api::listen(ctx, &p1, s, 8).unwrap();
                let (c, _) = api::accept(ctx, &p1, s).unwrap();
                let _ = api::recv_exact(ctx, &p1, c, 20 * 8).unwrap();
                let table = api::SocketTable::of(&p1);
                let sov = table.get(c).unwrap().as_any().downcast::<SovSocket>().unwrap();
                *got.lock() = sov.connection().unwrap().stats().data_rcvd;
                api::close(ctx, &p1, c).unwrap();
                api::close(ctx, &p1, s).unwrap();
            });
        }
        sim.spawn("client", move |ctx| {
            ctx.sleep(SimDuration::from_micros(100));
            let s = api::socket(ctx, &p0, SockType::Via).unwrap();
            api::connect(ctx, &p0, s, SockAddr::new(HostId(1), PORT)).unwrap();
            api::set_option(ctx, &p0, s, sockets::SockOption::NoDelay(true)).unwrap();
            let buf = vec![1u8; 8];
            for _ in 0..20 {
                api::send_all(ctx, &p0, s, &buf).unwrap();
            }
            api::close(ctx, &p0, s).unwrap();
        });
        sim.run().unwrap();
        assert_eq!(
            *got_packets.lock(),
            20,
            "TCP_NODELAY-equivalent must send each message immediately"
        );
    }

    #[test]
    fn connect_refused_without_listener() {
        let mut sim = Simulation::new();
        let (_m0, _m1, p0, _p1) = testbed(&sim.handle(), SoviaConfig::dacks());
        sim.spawn("client", move |ctx| {
            let s = api::socket(ctx, &p0, SockType::Via).unwrap();
            let err = api::connect(ctx, &p0, s, SockAddr::new(HostId(1), 4242)).unwrap_err();
            assert_eq!(err, sockets::SockError::ConnectionRefused);
        });
        sim.run().unwrap();
    }

    #[test]
    fn explicit_reqack_handshake_works_and_is_slower() {
        // Section 3.1's rejected design: a REQ/ACK permission round trip
        // before every DATA. It must still deliver the stream intact, at
        // visibly higher latency than the two-way handshake.
        fn pingpong_rtt(config: SoviaConfig) -> u64 {
            const ROUNDS: u32 = 30;
            let mut sim = Simulation::new();
            let (_m0, _m1, p0, p1) = testbed(&sim.handle(), config);
            run_echo_server(&sim, p1, ROUNDS as usize);
            let rtt = Arc::new(Mutex::new(0u64));
            let rtt2 = Arc::clone(&rtt);
            sim.spawn("client", move |ctx| {
                ctx.sleep(SimDuration::from_micros(100));
                let s = api::socket(ctx, &p0, SockType::Via).unwrap();
                api::connect(ctx, &p0, s, SockAddr::new(HostId(1), PORT)).unwrap();
                let t0 = ctx.now();
                for _ in 0..ROUNDS {
                    api::send_all(ctx, &p0, s, b"ping").unwrap();
                    let echo = api::recv_exact(ctx, &p0, s, 4).unwrap();
                    assert_eq!(echo, b"ping");
                }
                *rtt2.lock() = ctx.now().since(t0).as_nanos() / u64::from(ROUNDS);
                api::close(ctx, &p0, s).unwrap();
            });
            sim.run().unwrap();
            let v = *rtt.lock();
            v
        }
        let two_way = pingpong_rtt(SoviaConfig::single());
        let three_way = pingpong_rtt(SoviaConfig::reqack());
        assert!(
            three_way > two_way + 10_000,
            "REQ/ACK must add roughly a round trip: 2-way={two_way}ns 3-way={three_way}ns"
        );
    }

    #[test]
    fn stop_and_wait_still_correct() {
        // SOVIA_SINGLE (w=1) delivers the same bytes, just slower.
        let mut sim = Simulation::new();
        let (_m0, _m1, p0, p1) = testbed(&sim.handle(), SoviaConfig::single());
        {
            let p1 = p1.clone();
            sim.spawn("server", move |ctx| {
                let s = api::socket(ctx, &p1, SockType::Via).unwrap();
                api::bind(ctx, &p1, s, SockAddr::new(HostId(1), PORT)).unwrap();
                api::listen(ctx, &p1, s, 8).unwrap();
                let (c, _) = api::accept(ctx, &p1, s).unwrap();
                let data = api::recv_exact(ctx, &p1, c, 50_000).unwrap();
                assert_eq!(dsim::rng::check_pattern(9, 0, &data), None);
                api::close(ctx, &p1, c).unwrap();
                api::close(ctx, &p1, s).unwrap();
            });
        }
        sim.spawn("client", move |ctx| {
            ctx.sleep(SimDuration::from_micros(100));
            let s = api::socket(ctx, &p0, SockType::Via).unwrap();
            api::connect(ctx, &p0, s, SockAddr::new(HostId(1), PORT)).unwrap();
            let mut buf = vec![0u8; 50_000];
            dsim::rng::fill_pattern(9, 0, &mut buf);
            api::send_all(ctx, &p0, s, &buf).unwrap();
            api::close(ctx, &p0, s).unwrap();
        });
        sim.run().unwrap();
    }
}
