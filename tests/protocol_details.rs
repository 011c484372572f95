//! Focused protocol-detail tests across the stack: the observable
//! counters and edge cases that the broad integration tests do not pin
//! down individually.

use std::sync::Arc;

use dsim::{SimDuration, SimTime, Simulation};
use parking_lot::Mutex;
use simos::HostId;
use sovia_repro::sockets::{api, SockAddr, SockError, SockOption, SockType};
use sovia_repro::sovia::config::COMBINE_TIMEOUT;
use sovia_repro::sovia::{ConnStats, SovSocket, SoviaConfig, SoviaLib};
use sovia_repro::testbed;

use bench::micro::{self, Variant};

const PORT: u16 = 7;

/// Run a bidirectional workload and capture both sides' connection stats.
fn run_and_stats(
    config: SoviaConfig,
    client_msgs: usize,
    msg_len: usize,
) -> (ConnStats, ConnStats) {
    let mut sim = Simulation::new();
    let (m0, m1) = testbed::sovia_pair(&sim.handle(), config);
    let (cp, sp) = testbed::procs(&m0, &m1);
    let server_stats = Arc::new(Mutex::new(None));
    let client_stats = Arc::new(Mutex::new(None));
    {
        let sp = sp.clone();
        let server_stats = Arc::clone(&server_stats);
        sim.spawn("server", move |ctx| {
            let s = api::socket(ctx, &sp, SockType::Via).unwrap();
            api::bind(ctx, &sp, s, SockAddr::new(HostId(1), PORT)).unwrap();
            api::listen(ctx, &sp, s, 1).unwrap();
            let (c, _) = api::accept(ctx, &sp, s).unwrap();
            // Echo everything back (bidirectional traffic enables
            // piggybacking).
            loop {
                let d = api::recv(ctx, &sp, c, 64 * 1024).unwrap();
                if d.is_empty() {
                    break;
                }
                api::send_all(ctx, &sp, c, &d).unwrap();
            }
            let table = api::SocketTable::of(&sp);
            let sov = table.get(c).unwrap().as_any().downcast::<SovSocket>().unwrap();
            *server_stats.lock() = sov.stats();
            api::close(ctx, &sp, c).unwrap();
            api::close(ctx, &sp, s).unwrap();
        });
    }
    {
        let client_stats = Arc::clone(&client_stats);
        sim.spawn("client", move |ctx| {
            ctx.sleep(SimDuration::from_micros(100));
            let s = api::socket(ctx, &cp, SockType::Via).unwrap();
            api::connect(ctx, &cp, s, SockAddr::new(HostId(1), PORT)).unwrap();
            let msg = vec![0xAAu8; msg_len];
            for _ in 0..client_msgs {
                api::send_all(ctx, &cp, s, &msg).unwrap();
                let _ = api::recv_exact(ctx, &cp, s, msg_len).unwrap();
            }
            let table = api::SocketTable::of(&cp);
            let sov = table.get(s).unwrap().as_any().downcast::<SovSocket>().unwrap();
            *client_stats.lock() = sov.stats();
            api::close(ctx, &cp, s).unwrap();
        });
    }
    sim.run().unwrap();
    let c = client_stats.lock().take().unwrap();
    let s = server_stats.lock().take().unwrap();
    (c, s)
}

#[test]
fn dacks_piggyback_on_bidirectional_traffic() {
    // With delayed ACKs and echo traffic, acknowledgments should ride on
    // reverse DATA packets instead of standalone ACKs.
    let (client, server) = run_and_stats(SoviaConfig::dacks(), 40, 512);
    assert_eq!(client.data_sent, 40);
    assert_eq!(server.data_sent, 40);
    assert!(
        client.acks_piggybacked + server.acks_piggybacked > 0,
        "echo traffic must piggyback acknowledgments"
    );
    // Ping-pong consumes one packet per recv; with t=16 never reached and
    // piggybacking available, standalone ACKs should be rare.
    assert!(
        server.acks_sent <= 5,
        "standalone ACKs should be rare under piggybacking, got {}",
        server.acks_sent
    );
}

#[test]
fn stop_and_wait_sends_one_ack_per_packet() {
    let (client, server) = run_and_stats(SoviaConfig::single(), 20, 256);
    assert_eq!(client.data_sent, 20);
    // Without delayed acks every consumed DATA is acknowledged (possibly
    // piggybacked on the echo, but SINGLE disables piggybacking paths
    // only for *delayed* acks — here each consume acks immediately).
    assert!(
        server.acks_sent + server.acks_piggybacked >= 20,
        "every packet must be acknowledged: sent={} piggy={}",
        server.acks_sent,
        server.acks_piggybacked
    );
}

#[test]
fn large_sends_use_zero_copy_registration() {
    // 3 sends of 3 chunks each (96 KB per send at 32 KB chunks).
    let (client, _server) = run_and_stats(SoviaConfig::dacks(), 3, 96 * 1024);
    assert_eq!(
        client.zero_copy_registrations, 9,
        "each 32 KB chunk of a large send registers once"
    );
    // 96 KB = 3 chunks per send.
    assert_eq!(client.data_sent, 9);
}

#[test]
fn small_sends_never_register() {
    let (client, _server) = run_and_stats(SoviaConfig::dacks(), 10, 2048);
    assert_eq!(
        client.zero_copy_registrations, 0,
        "sends at the 2 KB threshold are copied, not registered"
    );
}

/// A connection's pre-posted, registered receive pool costs host memory
/// only once written: after one 4 B message each machine holds hundreds
/// of frames, but only the few that were written are materialized.
#[test]
fn pre_posted_pool_costs_host_memory_only_once_written() {
    let mut sim = Simulation::new();
    let (m0, m1) = testbed::sovia_pair(&sim.handle(), SoviaConfig::combine());
    let (cp, sp) = testbed::procs(&m0, &m1);
    // (frames in use, frames materialized) per machine, read while the
    // connection is open.
    let frames = Arc::new(Mutex::new(Vec::new()));
    {
        let frames = Arc::clone(&frames);
        sim.spawn("server", move |ctx| {
            let s = api::socket(ctx, &sp, SockType::Via).unwrap();
            api::bind(ctx, &sp, s, SockAddr::new(HostId(1), PORT)).unwrap();
            api::listen(ctx, &sp, s, 1).unwrap();
            let (c, _) = api::accept(ctx, &sp, s).unwrap();
            assert_eq!(api::recv_exact(ctx, &sp, c, 4).unwrap().len(), 4);
            *frames.lock() = [&m0, &m1]
                .iter()
                .map(|m| {
                    let phys = m.phys();
                    (phys.frames_in_use(), phys.frames_materialized())
                })
                .collect();
            api::close(ctx, &sp, c).unwrap();
            api::close(ctx, &sp, s).unwrap();
        });
    }
    sim.spawn("client", move |ctx| {
        ctx.sleep(SimDuration::from_micros(100));
        let s = api::socket(ctx, &cp, SockType::Via).unwrap();
        api::connect(ctx, &cp, s, SockAddr::new(HostId(1), PORT)).unwrap();
        api::send_all(ctx, &cp, s, &[0x42u8; 4]).unwrap();
        // Hold the connection open until the server has counted.
        assert!(api::recv(ctx, &cp, s, 1).unwrap().is_empty());
        api::close(ctx, &cp, s).unwrap();
    });
    sim.run().unwrap();
    let frames = frames.lock().clone();
    assert_eq!(frames.len(), 2);
    for (host, (in_use, materialized)) in frames.into_iter().enumerate() {
        assert!(in_use >= 500, "m{host}: only {in_use} frames in use");
        assert!(
            materialized <= 4,
            "m{host}: {materialized} of {in_use} frames materialized"
        );
    }
}

/// `n` back-to-back `len`-byte sends from a SOVIA_COMBINE client, with
/// `TCP_NODELAY` set when `nodelay`: the client's connection stats (read
/// after its close flushed the combine buffer) and the server's.
fn combined_sends(n: usize, len: usize, nodelay: bool) -> (ConnStats, ConnStats) {
    let mut sim = Simulation::new();
    let (m0, m1) = testbed::sovia_pair(&sim.handle(), SoviaConfig::combine());
    let (cp, sp) = testbed::procs(&m0, &m1);
    let stats = Arc::new(Mutex::new((None, None)));
    let server_stats = Arc::clone(&stats);
    sim.spawn("server", move |ctx| {
        let s = api::socket(ctx, &sp, SockType::Via).unwrap();
        api::bind(ctx, &sp, s, SockAddr::new(HostId(1), PORT)).unwrap();
        api::listen(ctx, &sp, s, 1).unwrap();
        let (c, _) = api::accept(ctx, &sp, s).unwrap();
        assert_eq!(api::recv_exact(ctx, &sp, c, n * len).unwrap().len(), n * len);
        server_stats.lock().1 = sov_socket(&sp, c).stats();
        api::close(ctx, &sp, c).unwrap();
        api::close(ctx, &sp, s).unwrap();
    });
    let client_stats = Arc::clone(&stats);
    sim.spawn("client", move |ctx| {
        ctx.sleep(SimDuration::from_micros(100));
        let s = api::socket(ctx, &cp, SockType::Via).unwrap();
        api::connect(ctx, &cp, s, SockAddr::new(HostId(1), PORT)).unwrap();
        api::set_option(ctx, &cp, s, SockOption::NoDelay(nodelay)).unwrap();
        for _ in 0..n {
            api::send_all(ctx, &cp, s, &vec![0x11u8; len]).unwrap();
        }
        // Keep the socket object: close() flushes the pending combine
        // buffer, and the stats must include that tail.
        let sock = sov_socket(&cp, s);
        api::close(ctx, &cp, s).unwrap();
        client_stats.lock().0 = sock.stats();
    });
    sim.run().unwrap();
    let (client, server) = *stats.lock();
    (client.unwrap(), server.unwrap())
}

#[test]
fn combining_counts_combined_sends() {
    let (client, server) = combined_sends(100, 64, false);
    assert_eq!(client.combined_sends, 100, "every small send was combined");
    assert_eq!(client.bytes_sent, 100 * 64);
    assert_eq!(server.bytes_rcvd, 100 * 64);
    // Combining coalesces the 100 sends into far fewer DATA packets.
    assert!(client.data_sent < 50, "{} packets sent", client.data_sent);
    assert!(server.data_rcvd < 50, "{} packets received", server.data_rcvd);
}

#[test]
fn nodelay_disables_combining() {
    let (_, server) = combined_sends(20, 8, true);
    assert_eq!(server.data_rcvd, 20, "TCP_NODELAY sends each message at once");
}

/// After both applications close (the server first, after one echo), the
/// FIN/FINACK drainage completes on the close threads: neither library
/// holds a connection at the end.
#[test]
fn close_handshake_finalizes_conns_via_close_thread() {
    let mut sim = Simulation::new();
    let (m0, m1) = testbed::sovia_pair(&sim.handle(), SoviaConfig::dacks());
    let (cp, sp) = testbed::procs(&m0, &m1);
    let probes = [cp.clone(), sp.clone()];
    sim.spawn("server", move |ctx| {
        let s = api::socket(ctx, &sp, SockType::Via).unwrap();
        api::bind(ctx, &sp, s, SockAddr::new(HostId(1), PORT)).unwrap();
        api::listen(ctx, &sp, s, 1).unwrap();
        let (c, _) = api::accept(ctx, &sp, s).unwrap();
        let data = api::recv(ctx, &sp, c, 64).unwrap();
        api::send_all(ctx, &sp, c, &data).unwrap();
        api::close(ctx, &sp, c).unwrap();
        api::close(ctx, &sp, s).unwrap();
    });
    sim.spawn("client", move |ctx| {
        ctx.sleep(SimDuration::from_micros(100));
        let s = api::socket(ctx, &cp, SockType::Via).unwrap();
        api::connect(ctx, &cp, s, SockAddr::new(HostId(1), PORT)).unwrap();
        api::send_all(ctx, &cp, s, b"x").unwrap();
        assert_eq!(api::recv_exact(ctx, &cp, s, 1).unwrap(), b"x");
        api::close(ctx, &cp, s).unwrap();
    });
    sim.run().unwrap();
    for p in probes {
        let open = SoviaLib::get(&p).expect("library initialized").open_conn_count();
        assert_eq!(open, 0, "the close thread must finish the FIN handshake for {}", p.name());
    }
}

#[test]
fn send_to_fresh_socket_is_not_connected() {
    let mut sim = Simulation::new();
    let (m0, _m1) = testbed::sovia_pair(&sim.handle(), SoviaConfig::default());
    let p = m0.spawn_process("p");
    sim.spawn("main", move |ctx| {
        let s = api::socket(ctx, &p, SockType::Via).unwrap();
        assert_eq!(
            api::send(ctx, &p, s, b"x").unwrap_err(),
            SockError::NotConnected
        );
        assert_eq!(
            api::recv(ctx, &p, s, 1).unwrap_err(),
            SockError::NotConnected
        );
        // accept on a non-listening socket is invalid.
        assert_eq!(api::accept(ctx, &p, s).unwrap_err(), SockError::InvalidState);
        api::close(ctx, &p, s).unwrap();
        // And the descriptor is gone afterwards.
        assert_eq!(api::send(ctx, &p, s, b"x").unwrap_err(), SockError::BadFd);
    });
    sim.run().unwrap();
}

#[test]
fn sovia_connections_on_three_hosts_simultaneously() {
    // One client talks to servers on two other hosts over one NIC each —
    // the link fabric and per-connection state must not interfere.
    let mut sim = Simulation::new();
    let machines = testbed::sovia_cluster(&sim.handle(), 3, SoviaConfig::default());
    for (i, m) in machines.iter().enumerate().skip(1) {
        let p = m.spawn_process("server");
        let tag = i as u64;
        sim.spawn(format!("server{i}"), move |ctx| {
            let host = p.machine().id();
            let s = api::socket(ctx, &p, SockType::Via).unwrap();
            api::bind(ctx, &p, s, SockAddr::new(host, PORT)).unwrap();
            api::listen(ctx, &p, s, 1).unwrap();
            let (c, _) = api::accept(ctx, &p, s).unwrap();
            let d = api::recv_exact(ctx, &p, c, 10_000).unwrap();
            assert_eq!(dsim::rng::check_pattern(tag, 0, &d), None);
            // Reply with the doubled tag pattern.
            let mut out = vec![0u8; 5_000];
            dsim::rng::fill_pattern(tag * 2, 0, &mut out);
            api::send_all(ctx, &p, c, &out).unwrap();
            api::close(ctx, &p, c).unwrap();
            api::close(ctx, &p, s).unwrap();
        });
    }
    let client = machines[0].spawn_process("client");
    sim.spawn("client", move |ctx| {
        ctx.sleep(SimDuration::from_micros(200));
        let mut fds = Vec::new();
        for i in 1u32..3 {
            let s = api::socket(ctx, &client, SockType::Via).unwrap();
            api::connect(ctx, &client, s, SockAddr::new(HostId(i), PORT)).unwrap();
            let mut msg = vec![0u8; 10_000];
            dsim::rng::fill_pattern(u64::from(i), 0, &mut msg);
            api::send_all(ctx, &client, s, &msg).unwrap();
            fds.push((i, s));
        }
        // Interleaved replies from both hosts.
        for (i, s) in fds {
            let d = api::recv_exact(ctx, &client, s, 5_000).unwrap();
            assert_eq!(dsim::rng::check_pattern(u64::from(i) * 2, 0, &d), None);
            api::close(ctx, &client, s).unwrap();
        }
    });
    sim.run().unwrap();
}

/// What one client saw while three combining connections A, B and C
/// (ascending VI ids) shared its SOVIA library, plus every server-side
/// arrival as `(connection, time, bytes)`.
#[derive(Default)]
struct FlushScene {
    vi_ids: Vec<u32>,
    /// Dirty-list membership of A, B, C after each step.
    after_a_b_sends: Vec<bool>,
    after_c_send: Vec<bool>,
    after_recv: Vec<bool>,
    after_b_resend: Vec<bool>,
    after_b_close: Vec<bool>,
    arrivals_before_c_send: usize,
    c_send_at: SimTime,
    recv_at: SimTime,
    arrivals: Vec<(usize, SimTime, Vec<u8>)>,
}

/// Flush condition (4), library-wide: a client holds combine buffers on
/// A and B, sends on C, receives on A, then refills and closes B. The
/// server echoes every message from one thread per connection.
fn three_combining_connections() -> FlushScene {
    let mut sim = Simulation::new();
    let (m0, m1) = testbed::sovia_pair(&sim.handle(), SoviaConfig::combine());
    let (cp, sp) = testbed::procs(&m0, &m1);
    let scene = Arc::new(Mutex::new(FlushScene::default()));
    {
        let scene = Arc::clone(&scene);
        sim.spawn("server", move |ctx| {
            let s = api::socket(ctx, &sp, SockType::Via).unwrap();
            api::bind(ctx, &sp, s, SockAddr::new(HostId(1), PORT)).unwrap();
            api::listen(ctx, &sp, s, 3).unwrap();
            for conn in 0..3 {
                let (c, _) = api::accept(ctx, &sp, s).unwrap();
                let (sp, scene) = (sp.clone(), Arc::clone(&scene));
                ctx.handle().spawn(format!("server-{conn}"), move |ctx| loop {
                    let d = api::recv(ctx, &sp, c, 1024).unwrap();
                    if d.is_empty() {
                        api::close(ctx, &sp, c).unwrap();
                        break;
                    }
                    scene.lock().arrivals.push((conn, ctx.now(), d.clone()));
                    api::send_all(ctx, &sp, c, &d).unwrap();
                });
            }
            api::close(ctx, &sp, s).unwrap();
        });
    }
    {
        let scene = Arc::clone(&scene);
        sim.spawn("client", move |ctx| {
            ctx.sleep(SimDuration::from_micros(100));
            let fds: Vec<_> = (0..3)
                .map(|_| {
                    let s = api::socket(ctx, &cp, SockType::Via).unwrap();
                    api::connect(ctx, &cp, s, SockAddr::new(HostId(1), PORT)).unwrap();
                    s
                })
                .collect();
            let table = api::SocketTable::of(&cp);
            let vi_ids: Vec<u32> = (fds.iter())
                .map(|&s| {
                    let sov = table.get(s).unwrap().as_any().downcast::<SovSocket>().unwrap();
                    sov.connection().unwrap().vi_id()
                })
                .collect();
            let lib = SoviaLib::get(&cp).unwrap();
            let dirty = || vi_ids.iter().map(|&vi| lib.holds_combine(vi)).collect::<Vec<_>>();
            let (a, b, c) = (fds[0], fds[1], fds[2]);
            ctx.sleep(SimDuration::from_millis(1));

            // One thread never holds two buffers: each send flushes the
            // others. Two threads sending at the same instant do, since
            // neither send's flush sees the other's buffer yet.
            for (fd, byte) in [(a, b"a"), (b, b"b")] {
                let cp = cp.clone();
                ctx.handle().spawn("sender", move |ctx| {
                    api::send(ctx, &cp, fd, byte).unwrap();
                });
            }
            ctx.sleep(SimDuration::from_millis(5));
            scene.lock().after_a_b_sends = dirty();
            let before = scene.lock().arrivals.len();
            scene.lock().arrivals_before_c_send = before;
            scene.lock().c_send_at = ctx.now();
            api::send(ctx, &cp, c, b"c").unwrap();
            scene.lock().after_c_send = dirty();
            ctx.sleep(SimDuration::from_millis(5));

            scene.lock().recv_at = ctx.now();
            assert_eq!(api::recv_exact(ctx, &cp, a, 1).unwrap(), b"a");
            scene.lock().after_recv = dirty();
            ctx.sleep(SimDuration::from_millis(5));

            api::send(ctx, &cp, b, b"x").unwrap();
            scene.lock().after_b_resend = dirty();
            api::close(ctx, &cp, b).unwrap();
            scene.lock().after_b_close = dirty();
            api::close(ctx, &cp, a).unwrap();
            api::close(ctx, &cp, c).unwrap();
            scene.lock().vi_ids = vi_ids;
        });
    }
    sim.run().unwrap();
    let mut scene = scene.lock();
    std::mem::take(&mut *scene)
}

#[test]
fn send_flushes_other_connections_in_vi_order() {
    let scene = three_combining_connections();
    assert!(scene.vi_ids.windows(2).all(|w| w[0] < w[1]), "{:?}", scene.vi_ids);
    assert_eq!(scene.after_a_b_sends, [true, true, false]);
    assert_eq!(scene.arrivals_before_c_send, 0, "A and B are still combining");
    // The send on C flushes A then B, long before the 100 ms timer, and
    // leaves C's own buffer pending.
    assert_eq!(scene.after_c_send, [false, false, true]);
    let flushed: Vec<_> = (scene.arrivals.iter())
        .filter(|(_, at, _)| *at < scene.recv_at)
        .collect();
    assert_eq!(flushed.iter().map(|(conn, ..)| *conn).collect::<Vec<_>>(), [0, 1]);
    assert_eq!(flushed[0].2, b"a");
    assert_eq!(flushed[1].2, b"b");
    assert!(flushed[0].1 < flushed[1].1, "A's bytes arrive before B's");
    for (_, at, _) in flushed {
        assert!(at.since(scene.c_send_at) < SimDuration::from_millis(1), "{at:?}");
    }
}

#[test]
fn recv_flushes_every_connection() {
    let scene = three_combining_connections();
    assert_eq!(scene.after_recv, [false, false, false]);
    let (_, at, bytes) = (scene.arrivals.iter())
        .find(|(conn, ..)| *conn == 2)
        .expect("C's byte arrives");
    assert_eq!(bytes, b"c");
    assert!(*at >= scene.recv_at);
    assert!(at.since(scene.recv_at) < SimDuration::from_millis(1), "{at:?}");
}

#[test]
fn closed_connection_leaves_the_dirty_list() {
    let scene = three_combining_connections();
    assert_eq!(scene.after_b_resend, [false, true, false]);
    assert_eq!(scene.after_b_close, [false, false, false]);
    let resent: Vec<_> = (scene.arrivals.iter())
        .filter(|(conn, _, bytes)| *conn == 1 && bytes == b"x")
        .collect();
    assert_eq!(resent.len(), 1, "close() flushed B's buffer");
}

/// The dirty list also covers a connection accepted while another one of
/// the same library holds a combine buffer: the server fills A's buffer
/// while it blocks in `accept` (whose entry flush ran before), and its
/// first `send` on the accepted B flushes A and keeps B's own buffer.
#[test]
fn first_send_on_an_accepted_connection_flushes_the_others() {
    let mut sim = Simulation::new();
    let (m0, m1) = testbed::sovia_pair(&sim.handle(), SoviaConfig::combine());
    let (cp, sp) = testbed::procs(&m0, &m1);
    let dirty = Arc::new(Mutex::new(None));
    let server_dirty = Arc::clone(&dirty);
    sim.spawn("server", move |ctx| {
        let s = api::socket(ctx, &sp, SockType::Via).unwrap();
        api::bind(ctx, &sp, s, SockAddr::new(HostId(1), PORT)).unwrap();
        api::listen(ctx, &sp, s, 2).unwrap();
        let (a, _) = api::accept(ctx, &sp, s).unwrap();
        let sender = sp.clone();
        ctx.handle().spawn("a-sender", move |ctx| {
            ctx.sleep(SimDuration::from_millis(1));
            api::send(ctx, &sender, a, b"a").unwrap();
        });
        let (b, _) = api::accept(ctx, &sp, s).unwrap();
        let lib = SoviaLib::get(&sp).unwrap();
        let vi_ids = [a, b].map(|fd| sov_socket(&sp, fd).connection().unwrap().vi_id());
        let before = vi_ids.map(|vi| lib.holds_combine(vi));
        api::send(ctx, &sp, b, b"b").unwrap();
        let after = vi_ids.map(|vi| lib.holds_combine(vi));
        *server_dirty.lock() = Some((before, after));
        for fd in [a, b, s] {
            api::close(ctx, &sp, fd).unwrap();
        }
    });
    let arrival = Arc::new(Mutex::new(None));
    let client_arrival = Arc::clone(&arrival);
    sim.spawn("client", move |ctx| {
        ctx.sleep(SimDuration::from_micros(100));
        let [a, b] = [0, 1].map(|i| {
            ctx.sleep(SimDuration::from_millis(2 * i));
            let s = api::socket(ctx, &cp, SockType::Via).unwrap();
            api::connect(ctx, &cp, s, SockAddr::new(HostId(1), PORT)).unwrap();
            s
        });
        let connected_b = ctx.now();
        assert_eq!(api::recv_exact(ctx, &cp, a, 1).unwrap(), b"a");
        let at = ctx.now();
        *client_arrival.lock() = Some(at.since(connected_b));
        assert_eq!(api::recv_exact(ctx, &cp, b, 1).unwrap(), b"b");
        api::close(ctx, &cp, a).unwrap();
        api::close(ctx, &cp, b).unwrap();
    });
    sim.run().unwrap();
    let (before, after) = dirty.lock().take().expect("the server ran");
    assert_eq!(before, [true, false], "A's buffer is pending, B holds none");
    assert_eq!(after, [false, true], "B's send flushed A and kept its own");
    let waited = arrival.lock().take().expect("A's byte arrived");
    assert!(waited < SimDuration::from_millis(1), "A's byte came after {waited:?}, not at B's send");
}

/// Accept one connection on `sp` and collect every `recv` chunk until
/// `total` bytes arrived; then send a one-byte acknowledgment and close.
fn collect_chunks(
    ctx: &dsim::SimCtx,
    sp: &simos::Process,
    total: usize,
    chunks: &Mutex<Vec<Vec<u8>>>,
) {
    let s = api::socket(ctx, sp, SockType::Via).unwrap();
    api::bind(ctx, sp, s, SockAddr::new(HostId(1), PORT)).unwrap();
    api::listen(ctx, sp, s, 1).unwrap();
    let (c, _) = api::accept(ctx, sp, s).unwrap();
    let mut got = 0;
    while got < total {
        let d = api::recv(ctx, sp, c, 64 * 1024).unwrap();
        assert!(!d.is_empty(), "EOF after {got} of {total} bytes");
        got += d.len();
        chunks.lock().push(d);
    }
    api::send_all(ctx, sp, c, b"A").unwrap();
    api::close(ctx, sp, c).unwrap();
    api::close(ctx, sp, s).unwrap();
}

/// The SOVIA socket behind descriptor `fd` of `process`.
fn sov_socket(process: &simos::Process, fd: i32) -> Arc<SovSocket> {
    let sock = api::SocketTable::of(process).get(fd).unwrap();
    sock.as_any().downcast::<SovSocket>().ok().unwrap()
}

#[test]
fn combine_timer_during_a_cow_fault_after_fork_flushes() {
    // After fork, private send slots are copy-on-write: the next append
    // takes a fault and is charged its cost. A combine timer that fires
    // inside that charge must find the send lock free and flush both
    // sends together. The simulation runs on a thread of its own so that
    // a regression fails by timeout instead of hanging the suite.
    let (tx, rx) = std::sync::mpsc::channel();
    let sim_thread = std::thread::spawn(move || {
        let config = SoviaConfig {
            use_shared_segments: false,
            ..SoviaConfig::combine()
        };
        let mut sim = Simulation::new();
        let (m0, m1) = testbed::sovia_pair(&sim.handle(), config);
        let (cp, sp) = testbed::procs(&m0, &m1);
        let chunks = Arc::new(Mutex::new(Vec::new()));
        let server_chunks = Arc::clone(&chunks);
        sim.spawn("server", move |ctx| {
            collect_chunks(ctx, &sp, 8, &server_chunks)
        });
        sim.spawn("client", move |ctx| {
            ctx.sleep(SimDuration::from_micros(100));
            let s = api::socket(ctx, &cp, SockType::Via).unwrap();
            api::connect(ctx, &cp, s, SockAddr::new(HostId(1), PORT)).unwrap();
            api::send(ctx, &cp, s, b"abcd").unwrap();
            // The timer was armed just before the 4-byte copy was charged.
            let deadline = ctx.now() + COMBINE_TIMEOUT - cp.costs().memcpy(4);
            cp.fork(ctx, "child", |_, _| {});
            let wake = deadline - SimDuration::from_micros(5);
            ctx.sleep(wake.since(ctx.now()));
            api::send(ctx, &cp, s, b"efgh").unwrap();
            assert_eq!(api::recv_exact(ctx, &cp, s, 1).unwrap(), b"A");
            api::close(ctx, &cp, s).unwrap();
        });
        sim.run().unwrap();
        let _ = tx.send(std::mem::take(&mut *chunks.lock()));
    });
    let got = rx.recv_timeout(std::time::Duration::from_secs(30));
    let hung = matches!(got, Err(std::sync::mpsc::RecvTimeoutError::Timeout));
    // A hang means a guard is held across a charge again.
    assert!(!hung, "the simulation hung");
    // A simulation that finished without sending panicked: surface it.
    if let Err(panic) = sim_thread.join() {
        std::panic::resume_unwind(panic);
    }
    // One timer flush carries all 8 bytes. The last 4 are zeros: the
    // append after fork broke COW into a fresh frame, while the NIC reads
    // the pinned original (the Figure 5 hazard that shared segments fix).
    let want = [b"abcd\0\0\0\0".to_vec()];
    assert_eq!(got.unwrap(), want, "one timer flush carries both sends");
}

#[test]
fn send_on_a_closed_socket_fails_before_flushing_others() {
    let mut sim = Simulation::new();
    let (m0, m1) = testbed::sovia_pair(&sim.handle(), SoviaConfig::combine());
    let (cp, sp) = testbed::procs(&m0, &m1);
    sim.spawn("server", move |ctx| {
        let s = api::socket(ctx, &sp, SockType::Via).unwrap();
        api::bind(ctx, &sp, s, SockAddr::new(HostId(1), PORT)).unwrap();
        api::listen(ctx, &sp, s, 2).unwrap();
        for _ in 0..2 {
            let (c, _) = api::accept(ctx, &sp, s).unwrap();
            let sp = sp.clone();
            ctx.handle().spawn("drain", move |ctx| {
                while !api::recv(ctx, &sp, c, 1024).unwrap().is_empty() {}
                api::close(ctx, &sp, c).unwrap();
            });
        }
        api::close(ctx, &sp, s).unwrap();
    });
    sim.spawn("client", move |ctx| {
        ctx.sleep(SimDuration::from_micros(100));
        let [a, b] = [0, 1].map(|_| {
            let s = api::socket(ctx, &cp, SockType::Via).unwrap();
            api::connect(ctx, &cp, s, SockAddr::new(HostId(1), PORT)).unwrap();
            s
        });
        let vi_a = sov_socket(&cp, a).connection().unwrap().vi_id();
        let sock_b = api::SocketTable::of(&cp).get(b).unwrap();
        api::send(ctx, &cp, a, b"pending").unwrap();
        api::close(ctx, &cp, b).unwrap();
        let lib = SoviaLib::get(&cp).unwrap();
        assert!(lib.holds_combine(vi_a));
        assert_eq!(sock_b.send(ctx, b"late"), Err(SockError::Closed));
        assert_eq!(sock_b.recv(ctx, 1), Err(SockError::Closed));
        assert!(lib.holds_combine(vi_a), "a failed send must not flush A");
        api::close(ctx, &cp, a).unwrap();
    });
    sim.run().unwrap();
}

#[test]
fn combined_sends_count_across_every_flush_condition() {
    // 40 sends of 1,000 B: the 33rd finds no room in the 32 KB buffer
    // (condition 2), the timer flushes the other 8 (condition 1), and 5
    // more go out when the client enters recv() (condition 4).
    let mut sim = Simulation::new();
    let (m0, m1) = testbed::sovia_pair(&sim.handle(), SoviaConfig::combine());
    let (cp, sp) = testbed::procs(&m0, &m1);
    let total = 40 * 1000 + 5 * 100;
    let chunks = Arc::new(Mutex::new(Vec::new()));
    let server_chunks = Arc::clone(&chunks);
    sim.spawn("server", move |ctx| {
        collect_chunks(ctx, &sp, total, &server_chunks)
    });
    let stats = Arc::new(Mutex::new(Vec::new()));
    let client_stats = Arc::clone(&stats);
    sim.spawn("client", move |ctx| {
        ctx.sleep(SimDuration::from_micros(100));
        let s = api::socket(ctx, &cp, SockType::Via).unwrap();
        api::connect(ctx, &cp, s, SockAddr::new(HostId(1), PORT)).unwrap();
        let sock = sov_socket(&cp, s);
        for _ in 0..40 {
            api::send(ctx, &cp, s, &[1u8; 1000]).unwrap();
        }
        client_stats.lock().push(sock.stats().unwrap());
        ctx.sleep(SimDuration::from_millis(150));
        client_stats.lock().push(sock.stats().unwrap());
        for _ in 0..5 {
            api::send(ctx, &cp, s, &[2u8; 100]).unwrap();
        }
        assert_eq!(api::recv_exact(ctx, &cp, s, 1).unwrap(), b"A");
        client_stats.lock().push(sock.stats().unwrap());
        api::close(ctx, &cp, s).unwrap();
    });
    sim.run().unwrap();
    let stats = stats.lock();
    let sent: Vec<_> = (stats.iter())
        .map(|s| (s.combined_sends, s.data_sent, s.bytes_sent))
        .collect();
    assert_eq!(sent, [(40, 1, 32_000), (40, 2, 40_000), (45, 3, 40_500)]);
    let lens: Vec<_> = chunks.lock().iter().map(Vec::len).collect();
    assert_eq!(lens.iter().sum::<usize>(), total);
}

/// What empties a combine buffer in [`timer_thread_after`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum Flush {
    /// 32 sends of 1 KB fill the 32 KB chunk (condition 2).
    FullChunk,
    /// Entering `recv()` (condition 4).
    Recv,
    /// `close()` (condition 3).
    Close,
    /// Nothing: the 100 ms timer fires (condition 1).
    Timer,
}

/// Fill one combine buffer on a fresh connection, empty it by `flush`,
/// and wait 150 ms, past the timer's expiry. Returns the wakeups of the
/// server's and the client's `sovia-timer-<host>/<pid>` (each start counts
/// one) and the client's DATA packets.
fn timer_thread_after(flush: Flush) -> ([u64; 2], u64) {
    let mut sim = Simulation::new();
    let (m0, m1) = testbed::sovia_pair(&sim.handle(), SoviaConfig::combine());
    let (cp, sp) = testbed::procs(&m0, &m1);
    let timer_threads = [&sp, &cp].map(|p| format!("sovia-timer-{}/{}", p.machine().id(), p.pid()));
    sim.spawn("server", move |ctx| {
        let s = api::socket(ctx, &sp, SockType::Via).unwrap();
        api::bind(ctx, &sp, s, SockAddr::new(HostId(1), PORT)).unwrap();
        api::listen(ctx, &sp, s, 1).unwrap();
        let (c, _) = api::accept(ctx, &sp, s).unwrap();
        if flush == Flush::Recv {
            api::send_all(ctx, &sp, c, b"A").unwrap();
        }
        while !api::recv(ctx, &sp, c, 64 * 1024).unwrap().is_empty() {}
        api::close(ctx, &sp, c).unwrap();
        api::close(ctx, &sp, s).unwrap();
    });
    let data_sent = Arc::new(Mutex::new(0));
    let client_data_sent = Arc::clone(&data_sent);
    sim.spawn("client", move |ctx| {
        ctx.sleep(SimDuration::from_micros(100));
        let s = api::socket(ctx, &cp, SockType::Via).unwrap();
        api::connect(ctx, &cp, s, SockAddr::new(HostId(1), PORT)).unwrap();
        let sock = sov_socket(&cp, s);
        match flush {
            Flush::FullChunk => {
                for _ in 0..32 {
                    api::send(ctx, &cp, s, &[1u8; 1024]).unwrap();
                }
            }
            Flush::Recv => {
                api::send(ctx, &cp, s, b"abcd").unwrap();
                assert_eq!(api::recv_exact(ctx, &cp, s, 1).unwrap(), b"A");
            }
            Flush::Close => {
                api::send(ctx, &cp, s, b"abcd").unwrap();
                api::close(ctx, &cp, s).unwrap();
            }
            Flush::Timer => {
                api::send(ctx, &cp, s, b"abcd").unwrap();
            }
        }
        ctx.sleep(SimDuration::from_millis(150));
        *client_data_sent.lock() = sock.stats().unwrap().data_sent;
        if flush != Flush::Close {
            api::close(ctx, &cp, s).unwrap();
        }
    });
    sim.run().unwrap();
    let procs = sim.proc_stats();
    let wakeups = timer_threads.map(|name| {
        let mut named = procs.iter().filter(|p| p.name == name);
        let p = named.next().expect("the timer thread ran");
        assert!(named.next().is_none(), "{name} names one process");
        p.wakeups
    });
    let data_sent = *data_sent.lock();
    (wakeups, data_sent)
}

#[test]
fn a_flush_before_the_timeout_leaves_the_timer_thread_asleep() {
    // The timer of a buffer some other condition flushed still expires,
    // but finds its epoch gone and wakes no one.
    for flush in [Flush::FullChunk, Flush::Recv, Flush::Close] {
        assert_eq!(timer_thread_after(flush), ([1, 1], 1), "{flush:?}");
    }
    // Left alone, the buffer wakes the client's timer thread once, and its
    // one flush charges one cost (a sleep, the third wakeup).
    assert_eq!(timer_thread_after(Flush::Timer), ([1, 3], 1));
}

// ----- paper anchors ---------------------------------------------------

/// Figure 6(a)'s one-way latency of 4 B messages on `variant`, in µs.
fn latency_4b(variant: Variant) -> f64 {
    micro::latency_traced(&variant, 4, 50, None).value
}

#[test]
fn latency_anchors_and_orderings() {
    let single = latency_4b(Variant::Sovia(SoviaConfig::single()));
    // The paper: SOVIA_SINGLE one-way ~10.5 µs for small messages.
    assert!((9.0..14.0).contains(&single), "SOVIA_SINGLE: {single:.1} µs");
    // The handler thread pays a thread-sync cost, over 20 µs a round trip.
    let handler = latency_4b(Variant::Sovia(SoviaConfig::handler()));
    assert!(handler > single + 10.0, "single {single:.1} µs, handler {handler:.1} µs");
    // Section 3.1's rejected REQ/ACK handshake adds roughly a round trip.
    let reqack = latency_4b(Variant::Sovia(SoviaConfig::reqack()));
    assert!(reqack > single + 5.0, "2-way {single:.1} µs, REQ/ACK {reqack:.1} µs");
    // The paper: TCP over LANE ~55 µs (with TCP_NODELAY).
    let lane = latency_4b(Variant::TcpLane);
    assert!((45.0..70.0).contains(&lane), "TCP/LANE: {lane:.1} µs");
}

/// Throughput of one `total`-byte TCP transfer on `variant`, timed at the
/// source: from connect to the last of its 32 KiB `send_all`s, slow start
/// included. `buf` raises both ends' socket buffers; `None` keeps TCP's
/// defaults.
fn source_mbps(variant: Variant, total: usize, buf: Option<usize>) -> f64 {
    let mut sim = Simulation::new();
    let mbps = Arc::new(Mutex::new(0f64));
    let out = Arc::clone(&mbps);
    variant.boot(&sim, move |ctx, m0, m1| {
        let (cp, sp) = testbed::procs(&m0, &m1);
        ctx.handle().spawn("server", move |ctx| {
            let s = api::socket(ctx, &sp, SockType::Stream).unwrap();
            api::bind(ctx, &sp, s, SockAddr::new(HostId(1), PORT)).unwrap();
            api::listen(ctx, &sp, s, 8).unwrap();
            let (c, _) = api::accept(ctx, &sp, s).unwrap();
            if let Some(b) = buf {
                api::set_option(ctx, &sp, c, SockOption::RecvBuf(b)).unwrap();
            }
            let mut got = 0;
            while got < total {
                let d = api::recv(ctx, &sp, c, 64 * 1024).unwrap();
                if d.is_empty() {
                    break;
                }
                got += d.len();
            }
            api::close(ctx, &sp, c).unwrap();
            api::close(ctx, &sp, s).unwrap();
        });
        ctx.handle().spawn("client", move |ctx| {
            ctx.sleep(SimDuration::from_micros(300));
            let s = api::socket(ctx, &cp, SockType::Stream).unwrap();
            if let Some(b) = buf {
                api::set_option(ctx, &cp, s, SockOption::SendBuf(b)).unwrap();
            }
            api::connect(ctx, &cp, s, SockAddr::new(HostId(1), PORT)).unwrap();
            let chunk = vec![0xEE; 32 * 1024];
            let t0 = ctx.now();
            let mut sent = 0;
            while sent < total {
                api::send_all(ctx, &cp, s, &chunk).unwrap();
                sent += chunk.len();
            }
            let secs = ctx.now().since(t0).as_secs_f64();
            *out.lock() = sent as f64 * 8.0 / secs / 1e6;
            api::close(ctx, &cp, s).unwrap();
        });
    });
    sim.run().unwrap();
    let got = *mbps.lock();
    got
}

#[test]
fn bandwidth_anchors() {
    // The paper: TCP over LANE tops out near 450 Mb/s (~55% of native VIA)
    // with the socket buffers raised to 131,170 bytes.
    let lane = source_mbps(Variant::TcpLane, 4 << 20, Some(131_170));
    assert!((350.0..550.0).contains(&lane), "TCP/LANE: {lane:.0} Mb/s");
    // TCP over Fast Ethernet, default buffers, runs near the 100 Mb/s wire
    // rate.
    let eth = source_mbps(Variant::TcpEth, 1 << 20, None);
    assert!((75.0..100.0).contains(&eth), "TCP/Ethernet: {eth:.0} Mb/s");
}
