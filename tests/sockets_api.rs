//! The sockets front-end's contract (crate `sockets`), checked on the
//! transports the workloads run. Each test is a function of the socket
//! type and runs twice: `SOCK_STREAM` on kernel TCP over Fast Ethernet
//! and `SOCK_VIA` on SOVIA over cLAN. The last test is the paper's
//! Figure 4 end to end: one process holds a TCP socket, a SOVIA socket, a
//! file and a pipe, and `read`/`write`/`close` route each descriptor.

use std::sync::Arc;

use dsim::{SimCtx, SimDuration, Simulation};
use parking_lot::Mutex;
use simos::fs::OpenMode;
use simos::{Fd, HostId, Machine, Process};
use sovia_repro::sockets::stdio::SockFile;
use sovia_repro::sockets::{api, SockAddr, SockError, SockType};
use sovia_repro::sovia::SoviaConfig;
use sovia_repro::testbed;

const PORT: u16 = 2121;
const ADDR: SockAddr = SockAddr {
    host: HostId(1),
    port: PORT,
};

/// Build `stype`'s platform (TCP/Ethernet or SOVIA/cLAN), run `f` in a
/// bootstrap process and require the simulation to finish cleanly.
fn run_on(stype: SockType, f: impl FnOnce(&SimCtx, Machine, Machine) + Send + 'static) {
    let mut sim = Simulation::new();
    let (m0, m1) = match stype {
        SockType::Stream => testbed::tcp_ethernet_pair(&sim.handle()),
        SockType::Via => testbed::sovia_pair(&sim.handle(), SoviaConfig::default()),
    };
    sim.spawn("boot", move |ctx| f(ctx, m0, m1));
    sim.run().unwrap();
}

/// A server on `ADDR` that accepts one connection, hands it to `serve`,
/// then closes the connection and the listener.
fn spawn_server(
    ctx: &SimCtx,
    stype: SockType,
    sp: Process,
    serve: impl FnOnce(&SimCtx, &Process, Fd) + Send + 'static,
) {
    ctx.handle().spawn("server", move |sctx| {
        let s = api::socket(sctx, &sp, stype).unwrap();
        api::bind(sctx, &sp, s, ADDR).unwrap();
        api::listen(sctx, &sp, s, 1).unwrap();
        let (c, peer) = api::accept(sctx, &sp, s).unwrap();
        assert_eq!(peer.host, HostId(0));
        serve(sctx, &sp, c);
        api::close(sctx, &sp, c).unwrap();
        api::close(sctx, &sp, s).unwrap();
    });
}

/// A socket of `stype` connected to `ADDR` once the server listens.
fn connect(ctx: &SimCtx, p: &Process, stype: SockType) -> Fd {
    ctx.sleep(SimDuration::from_millis(1));
    let s = api::socket(ctx, p, stype).unwrap();
    api::connect(ctx, p, s, ADDR).unwrap();
    s
}

/// `len` bytes through `api::read`, which returns what one `recv` gives.
fn read_exact(ctx: &SimCtx, p: &Process, fd: Fd, len: usize) -> Vec<u8> {
    let mut got = Vec::new();
    while got.len() < len {
        let chunk = api::read(ctx, p, fd, len - got.len()).unwrap();
        assert!(!chunk.is_empty(), "EOF after {} of {len} bytes", got.len());
        got.extend_from_slice(&chunk);
    }
    got
}

fn listen_accept_echo(stype: SockType) {
    run_on(stype, move |ctx, m0, m1| {
        let (cp, sp) = testbed::procs(&m0, &m1);
        spawn_server(ctx, stype, sp, |sctx, sp, c| {
            let data = api::recv_exact(sctx, sp, c, 4).unwrap();
            api::send_all(sctx, sp, c, &data).unwrap();
        });
        ctx.handle().spawn("client", move |cctx| {
            let s = connect(cctx, &cp, stype);
            api::send_all(cctx, &cp, s, b"ping").unwrap();
            assert_eq!(api::recv_exact(cctx, &cp, s, 4).unwrap(), b"ping");
            // After the server closes, we read EOF.
            assert_eq!(api::recv(cctx, &cp, s, 10).unwrap(), b"");
            api::close(cctx, &cp, s).unwrap();
        });
    });
}

#[test]
fn listen_accept_echo_over_tcp() {
    listen_accept_echo(SockType::Stream);
}

#[test]
fn listen_accept_echo_over_sovia() {
    listen_accept_echo(SockType::Via);
}

/// One process holds a file descriptor and a socket descriptor; the same
/// `write` call routes each to the right place.
fn sockets_and_files_share_a_process(stype: SockType) {
    run_on(stype, move |ctx, m0, m1| {
        let (cp, sp) = testbed::procs(&m0, &m1);
        spawn_server(ctx, stype, sp, |sctx, sp, c| {
            assert_eq!(api::recv_exact(sctx, sp, c, 13).unwrap(), b"to the socket");
        });
        ctx.handle().spawn("client", move |cctx| {
            let file_fd = cp.open(cctx, "log.txt", OpenMode::Write).unwrap();
            let sock_fd = connect(cctx, &cp, stype);
            assert_ne!(file_fd, sock_fd);
            api::write(cctx, &cp, file_fd, b"to the file").unwrap();
            api::write(cctx, &cp, sock_fd, b"to the socket").unwrap();
            api::close(cctx, &cp, sock_fd).unwrap();
            api::close(cctx, &cp, file_fd).unwrap();
            assert_eq!(m0.fs().contents("log.txt").unwrap(), b"to the file");
        });
    });
}

#[test]
fn sockets_and_files_share_a_process_over_tcp() {
    sockets_and_files_share_a_process(SockType::Stream);
}

#[test]
fn sockets_and_files_share_a_process_over_sovia() {
    sockets_and_files_share_a_process(SockType::Via);
}

fn socket_table_empties_on_close(stype: SockType) {
    run_on(stype, move |ctx, m0, _m1| {
        let p = m0.spawn_process("app");
        let table = api::SocketTable::of(&p);
        assert!(table.is_empty());
        let s = api::socket(ctx, &p, stype).unwrap();
        assert_eq!(table.len(), 1);
        api::close(ctx, &p, s).unwrap();
        assert!(table.is_empty());
        // Closing again is now a plain (bad) fd close.
        assert!(api::close(ctx, &p, s).is_err());
    });
}

#[test]
fn socket_table_empties_on_close_over_tcp() {
    socket_table_empties_on_close(SockType::Stream);
}

#[test]
fn socket_table_empties_on_close_over_sovia() {
    socket_table_empties_on_close(SockType::Via);
}

fn socket_table_len_tracks_open_sockets(stype: SockType) {
    run_on(stype, move |ctx, m0, _m1| {
        let p = m0.spawn_process("app");
        let table = api::SocketTable::of(&p);
        let a = api::socket(ctx, &p, stype).unwrap();
        let b = api::socket(ctx, &p, stype).unwrap();
        let c = api::socket(ctx, &p, stype).unwrap();
        assert_eq!(table.len(), 3);
        api::close(ctx, &p, b).unwrap();
        assert_eq!(table.len(), 2);
        assert!(table.get(b).is_none());
        api::close(ctx, &p, a).unwrap();
        api::close(ctx, &p, c).unwrap();
        assert!(table.is_empty());
    });
}

#[test]
fn socket_table_len_tracks_open_sockets_over_tcp() {
    socket_table_len_tracks_open_sockets(SockType::Stream);
}

#[test]
fn socket_table_len_tracks_open_sockets_over_sovia() {
    socket_table_len_tracks_open_sockets(SockType::Via);
}

fn reused_descriptor_names_the_new_object(stype: SockType) {
    run_on(stype, move |ctx, m0, _m1| {
        let p = m0.spawn_process("app");
        let table = api::SocketTable::of(&p);
        let s = api::socket(ctx, &p, stype).unwrap();
        let old = table.get(s).unwrap();
        api::close(ctx, &p, s).unwrap();
        // The OS hands out the lowest free descriptor: the same number.
        let s2 = api::socket(ctx, &p, stype).unwrap();
        assert_eq!(s2, s);
        assert!(!Arc::ptr_eq(&old, &table.get(s2).unwrap()));
        api::close(ctx, &p, s2).unwrap();
        // Reused by a file, the number no longer names a socket.
        let f = p.open(ctx, "f.txt", OpenMode::Write).unwrap();
        assert_eq!(f, s);
        assert!(table.get(f).is_none());
        api::write(ctx, &p, f, b"file bytes").unwrap();
        api::close(ctx, &p, f).unwrap();
        assert_eq!(m0.fs().contents("f.txt").unwrap(), b"file bytes");
    });
}

#[test]
fn reused_descriptor_names_the_new_object_over_tcp() {
    reused_descriptor_names_the_new_object(SockType::Stream);
}

#[test]
fn reused_descriptor_names_the_new_object_over_sovia() {
    reused_descriptor_names_the_new_object(SockType::Via);
}

fn negative_and_out_of_range_descriptors_are_bad(stype: SockType) {
    run_on(stype, move |ctx, m0, _m1| {
        let p = m0.spawn_process("app");
        let s = api::socket(ctx, &p, stype).unwrap();
        for fd in [-1, i32::MIN, s + 1, 1 << 20, i32::MAX] {
            assert!(api::SocketTable::of(&p).get(fd).is_none());
            assert_eq!(api::send(ctx, &p, fd, b"x"), Err(SockError::BadFd));
            assert_eq!(api::recv(ctx, &p, fd, 1), Err(SockError::BadFd));
            assert!(api::close(ctx, &p, fd).is_err());
        }
        api::close(ctx, &p, s).unwrap();
    });
}

#[test]
fn negative_and_out_of_range_descriptors_are_bad_over_tcp() {
    negative_and_out_of_range_descriptors_are_bad(SockType::Stream);
}

#[test]
fn negative_and_out_of_range_descriptors_are_bad_over_sovia() {
    negative_and_out_of_range_descriptors_are_bad(SockType::Via);
}

fn read_and_write_fall_through_for_pipes(stype: SockType) {
    run_on(stype, move |ctx, m0, _m1| {
        let p = m0.spawn_process("app");
        let s = api::socket(ctx, &p, stype).unwrap();
        let (r, w) = p.pipe(ctx);
        assert_eq!(api::write(ctx, &p, w, b"through the pipe").unwrap(), 16);
        assert_eq!(api::read(ctx, &p, r, 100).unwrap(), b"through the pipe");
        assert_eq!(api::SocketTable::of(&p).len(), 1);
        api::close(ctx, &p, w).unwrap();
        assert_eq!(api::read(ctx, &p, r, 100).unwrap(), b"");
        api::close(ctx, &p, r).unwrap();
        api::close(ctx, &p, s).unwrap();
    });
}

#[test]
fn read_and_write_fall_through_for_pipes_over_tcp() {
    read_and_write_fall_through_for_pipes(SockType::Stream);
}

#[test]
fn read_and_write_fall_through_for_pipes_over_sovia() {
    read_and_write_fall_through_for_pipes(SockType::Via);
}

/// Each platform registers one socket type; asking for the other fails.
fn no_provider_error(stype: SockType) {
    let missing = match stype {
        SockType::Stream => SockType::Via,
        SockType::Via => SockType::Stream,
    };
    run_on(stype, move |ctx, m0, _m1| {
        let p = m0.spawn_process("app");
        let err = api::socket(ctx, &p, missing).unwrap_err();
        assert_eq!(err, SockError::NoProvider);
        assert!(api::SocketTable::of(&p).is_empty());
    });
}

#[test]
fn no_provider_error_over_tcp() {
    no_provider_error(SockType::Stream);
}

#[test]
fn no_provider_error_over_sovia() {
    no_provider_error(SockType::Via);
}

fn stdio_lines_roundtrip(stype: SockType) {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let seen2 = Arc::clone(&seen);
    run_on(stype, move |ctx, m0, m1| {
        let (cp, sp) = testbed::procs(&m0, &m1);
        ctx.handle().spawn("server", move |sctx| {
            let s = api::socket(sctx, &sp, stype).unwrap();
            api::bind(sctx, &sp, s, ADDR).unwrap();
            api::listen(sctx, &sp, s, 1).unwrap();
            let (c, _) = api::accept(sctx, &sp, s).unwrap();
            let mut f = SockFile::fdopen(&sp, c);
            while let Some(line) = f.read_line(sctx).unwrap() {
                f.write_line(sctx, &format!("200 {line}")).unwrap();
                seen2.lock().push(line);
            }
            f.close(sctx).unwrap();
            api::close(sctx, &sp, s).unwrap();
        });
        ctx.handle().spawn("client", move |cctx| {
            let s = connect(cctx, &cp, stype);
            let mut f = SockFile::fdopen(&cp, s);
            f.write_line(cctx, "USER anonymous").unwrap();
            assert_eq!(f.read_line(cctx).unwrap().unwrap(), "200 USER anonymous");
            f.write_line(cctx, "QUIT").unwrap();
            assert_eq!(f.read_line(cctx).unwrap().unwrap(), "200 QUIT");
            f.close(cctx).unwrap();
        });
    });
    assert_eq!(*seen.lock(), ["USER anonymous", "QUIT"]);
}

#[test]
fn stdio_lines_roundtrip_over_tcp() {
    stdio_lines_roundtrip(SockType::Stream);
}

#[test]
fn stdio_lines_roundtrip_over_sovia() {
    stdio_lines_roundtrip(SockType::Via);
}

/// `recv` with a buffer smaller than what has arrived hands out the rest
/// on later calls: the message arrives intact across reads.
fn chunked_recv(stype: SockType) {
    run_on(stype, move |ctx, m0, m1| {
        let (cp, sp) = testbed::procs(&m0, &m1);
        spawn_server(ctx, stype, sp, |sctx, sp, c| {
            api::send_all(sctx, sp, c, b"0123456789").unwrap();
        });
        ctx.handle().spawn("client", move |cctx| {
            let s = connect(cctx, &cp, stype);
            let mut got = Vec::new();
            loop {
                let chunk = api::recv(cctx, &cp, s, 3).unwrap();
                if chunk.is_empty() {
                    break;
                }
                assert!(chunk.len() <= 3);
                got.extend_from_slice(&chunk);
            }
            assert_eq!(got, b"0123456789");
            api::close(cctx, &cp, s).unwrap();
        });
    });
}

#[test]
fn chunked_recv_over_tcp() {
    chunked_recv(SockType::Stream);
}

#[test]
fn chunked_recv_over_sovia() {
    chunked_recv(SockType::Via);
}

/// Figure 4 end to end, on the full cLAN platform: one process holds a
/// TCP socket (over LANE), a SOVIA socket, a ramdisk file and a pipe, and
/// the interposed `write`/`read`/`close` route each descriptor. The
/// server echoes each socket's bytes back, so a byte that took the wrong
/// path comes back on the wrong descriptor or not at all.
#[test]
fn one_process_routes_tcp_sovia_file_and_pipe() {
    const VIA_ADDR: SockAddr = SockAddr {
        host: HostId(1),
        port: PORT + 1,
    };
    const TCP_MSG: &[u8] = b"to the kernel stack";
    const VIA_MSG: &[u8] = b"to user-level VIA";
    let mut sim = Simulation::new();
    let done = Arc::new(Mutex::new(false));
    let done2 = Arc::clone(&done);
    testbed::clan_dual_stack(&sim, SoviaConfig::default(), move |ctx, m0, m1| {
        let (cp, sp) = testbed::procs(&m0, &m1);
        ctx.handle().spawn("echo-server", move |sctx| {
            let listeners = [
                (SockType::Stream, ADDR, TCP_MSG),
                (SockType::Via, VIA_ADDR, VIA_MSG),
            ]
            .map(|(stype, addr, msg)| {
                let l = api::socket(sctx, &sp, stype).unwrap();
                api::bind(sctx, &sp, l, addr).unwrap();
                api::listen(sctx, &sp, l, 1).unwrap();
                (l, msg)
            });
            let mut conns = Vec::new();
            for (l, msg) in listeners {
                let (c, _) = api::accept(sctx, &sp, l).unwrap();
                assert_eq!(api::recv_exact(sctx, &sp, c, msg.len()).unwrap(), msg);
                api::send_all(sctx, &sp, c, msg).unwrap();
                api::close(sctx, &sp, l).unwrap();
                conns.push(c);
            }
            // Both connections end when the app closes its sockets.
            for c in conns {
                assert_eq!(api::recv(sctx, &sp, c, 1).unwrap(), b"");
                api::close(sctx, &sp, c).unwrap();
            }
        });
        ctx.handle().spawn("app", move |cctx| {
            let file = cp.open(cctx, "fig4.txt", OpenMode::Write).unwrap();
            let tcp = connect(cctx, &cp, SockType::Stream);
            let via = api::socket(cctx, &cp, SockType::Via).unwrap();
            api::connect(cctx, &cp, via, VIA_ADDR).unwrap();
            let (r, w) = cp.pipe(cctx);
            let table = api::SocketTable::of(&cp);
            assert_eq!(table.len(), 2);
            for fd in [file, r, w] {
                assert!(table.get(fd).is_none());
            }

            // The same write() call, four destinations.
            assert_eq!(api::write(cctx, &cp, file, b"to the file").unwrap(), 11);
            assert_eq!(api::write(cctx, &cp, tcp, TCP_MSG).unwrap(), TCP_MSG.len());
            assert_eq!(api::write(cctx, &cp, via, VIA_MSG).unwrap(), VIA_MSG.len());
            assert_eq!(api::write(cctx, &cp, w, b"to the pipe").unwrap(), 11);

            // The same read() call, from each place written.
            assert_eq!(api::read(cctx, &cp, r, 100).unwrap(), b"to the pipe");
            assert_eq!(read_exact(cctx, &cp, tcp, TCP_MSG.len()), TCP_MSG);
            assert_eq!(read_exact(cctx, &cp, via, VIA_MSG.len()), VIA_MSG);
            api::close(cctx, &cp, file).unwrap();
            let file = cp.open(cctx, "fig4.txt", OpenMode::Read).unwrap();
            assert_eq!(api::read(cctx, &cp, file, 100).unwrap(), b"to the file");

            // And close() releases each: the sockets leave the table, and
            // every number is free again.
            for fd in [tcp, via, file, r, w] {
                api::close(cctx, &cp, fd).unwrap();
            }
            assert!(table.is_empty());
            for fd in [tcp, via, file, r, w] {
                assert!(api::close(cctx, &cp, fd).is_err());
            }
            assert_eq!(m0.fs().contents("fig4.txt").unwrap(), b"to the file");
            *done2.lock() = true;
        });
    });
    sim.run().unwrap();
    assert!(*done.lock());
}
