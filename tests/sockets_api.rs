//! The sockets front-end's contract (crate `sockets`), written once and
//! checked on the eight socket platforms of `common::scenario`. Each
//! `_over_tcp`/`_over_sovia` pair runs one check: the first test on the
//! two kernel TCP platforms, the second on the six SOVIA configurations.
//! The last test is the paper's Figure 4 end to end: one process holds a
//! TCP socket, a SOVIA socket, a file and a pipe, and
//! `read`/`write`/`close` route each descriptor.

mod common;

use std::sync::Arc;

use dsim::SimDuration;
use parking_lot::Mutex;
use simos::fs::OpenMode;
use simos::HostId;
use sovia_repro::sockets::stdio::SockFile;
use sovia_repro::sockets::{api, SockAddr, SockError, SockType};

use common::scenario::{self, *};
use Call::*;

/// An echo, then EOF once the server closes. The whole exchange, lingering
/// timers and close handshakes included, ends within 200,000 events and
/// 2 s of virtual time: a retransmission loop or a stalled close would not.
fn listen_accept_echo(platforms: &[Variant]) {
    let ping = || b"ping".to_vec();
    let echo = Scenario::new([
        served([
            RecvExact(CONN, 4),
            SendAll(CONN, ping()),
            Close(CONN),
            Close(LISTENER),
        ]),
        dialed([
            SendAll(SOCK, ping()),
            RecvExact(SOCK, 4),
            Recv(SOCK, 10),
            Close(SOCK),
        ]),
    ])
    .with_event_limit(200_000);
    for p in platforms {
        let run = scenario::run(&echo, p);
        let server = serving([data(b"ping"), Ret::Ok, Ret::Ok, Ret::Ok]);
        let client = dialing([Ret::Ok, data(b"ping"), data(b""), Ret::Ok]);
        assert_eq!(run.transcripts, [server, client], "{}", p.label());
        assert!(
            run.end.as_secs_f64() < 2.0,
            "{}: close dragged on to {}",
            p.label(),
            run.end
        );
    }
}

#[test]
fn listen_accept_echo_over_tcp() {
    listen_accept_echo(&tcp_platforms());
}

#[test]
fn listen_accept_echo_over_sovia() {
    listen_accept_echo(&sovia_platforms());
}

/// One process holds a file descriptor and a socket descriptor; the same
/// `write` and `read` calls route each to the right place.
fn sockets_and_files_share_a_process(platforms: &[Variant]) {
    let log = "log.txt";
    let client = program(
        "client",
        0,
        [
            Open(log, OpenMode::Write),
            Sleep(SimDuration::from_millis(1)),
            Socket,
            Connect(D(1), PORT),
            Write(D(0), b"to the file".to_vec()),
            Write(D(1), b"to the socket".to_vec()),
            Read(D(1), 100),
            Close(D(1)),
            Close(D(0)),
            Open(log, OpenMode::Read),
            Read(D(2), 100),
        ],
    );
    let server = served([
        RecvExact(CONN, 13),
        SendAll(CONN, b"from the socket".to_vec()),
        Close(CONN),
        Close(LISTENER),
    ]);
    expect(&Scenario::new([server, client]), platforms, |_| {
        let file = [Ret::Fd(0), Ret::Fd(1), Ret::Ok, Ret::Len(11), Ret::Len(13)];
        let rest = [data(b"from the socket"), Ret::Ok, Ret::Ok, Ret::Fd(0)];
        vec![
            serving([data(b"to the socket"), Ret::Ok, Ret::Ok, Ret::Ok]),
            file.into_iter()
                .chain(rest)
                .chain([data(b"to the file")])
                .collect(),
        ]
    });
}

#[test]
fn sockets_and_files_share_a_process_over_tcp() {
    sockets_and_files_share_a_process(&tcp_platforms());
}

#[test]
fn sockets_and_files_share_a_process_over_sovia() {
    sockets_and_files_share_a_process(&sovia_platforms());
}

fn socket_table_empties_on_close(platforms: &[Variant]) {
    for p in platforms {
        run_fn(p, move |ctx, m0, _m1, stype| {
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
}

#[test]
fn socket_table_empties_on_close_over_tcp() {
    socket_table_empties_on_close(&tcp_platforms());
}

#[test]
fn socket_table_empties_on_close_over_sovia() {
    socket_table_empties_on_close(&sovia_platforms());
}

fn socket_table_len_tracks_open_sockets(platforms: &[Variant]) {
    for p in platforms {
        run_fn(p, move |ctx, m0, _m1, stype| {
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
}

#[test]
fn socket_table_len_tracks_open_sockets_over_tcp() {
    socket_table_len_tracks_open_sockets(&tcp_platforms());
}

#[test]
fn socket_table_len_tracks_open_sockets_over_sovia() {
    socket_table_len_tracks_open_sockets(&sovia_platforms());
}

fn reused_descriptor_names_the_new_object(platforms: &[Variant]) {
    for p in platforms {
        run_fn(p, move |ctx, m0, _m1, stype| {
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
}

#[test]
fn reused_descriptor_names_the_new_object_over_tcp() {
    reused_descriptor_names_the_new_object(&tcp_platforms());
}

#[test]
fn reused_descriptor_names_the_new_object_over_sovia() {
    reused_descriptor_names_the_new_object(&sovia_platforms());
}

fn negative_and_out_of_range_descriptors_are_bad(platforms: &[Variant]) {
    for p in platforms {
        run_fn(p, move |ctx, m0, _m1, stype| {
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
}

#[test]
fn negative_and_out_of_range_descriptors_are_bad_over_tcp() {
    negative_and_out_of_range_descriptors_are_bad(&tcp_platforms());
}

#[test]
fn negative_and_out_of_range_descriptors_are_bad_over_sovia() {
    negative_and_out_of_range_descriptors_are_bad(&sovia_platforms());
}

fn read_and_write_fall_through_for_pipes(platforms: &[Variant]) {
    for p in platforms {
        run_fn(p, move |ctx, m0, _m1, stype| {
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
}

#[test]
fn read_and_write_fall_through_for_pipes_over_tcp() {
    read_and_write_fall_through_for_pipes(&tcp_platforms());
}

#[test]
fn read_and_write_fall_through_for_pipes_over_sovia() {
    read_and_write_fall_through_for_pipes(&sovia_platforms());
}

/// A platform registers one socket type, and asking for the other fails;
/// the dual-stack TCP/LANE platform registers both.
fn no_provider_error(platforms: &[Variant]) {
    for platform in platforms {
        let dual_stack = matches!(platform, Variant::TcpLane);
        run_fn(platform, move |ctx, m0, _m1, stype| {
            let p = m0.spawn_process("app");
            let other = match stype {
                SockType::Stream => SockType::Via,
                SockType::Via => SockType::Stream,
            };
            let r = api::socket(ctx, &p, other);
            if dual_stack {
                assert_eq!(r, Ok(0));
            } else {
                assert_eq!(r, Err(SockError::NoProvider));
                assert!(api::SocketTable::of(&p).is_empty());
            }
        });
    }
}

#[test]
fn no_provider_error_over_tcp() {
    no_provider_error(&tcp_platforms());
}

#[test]
fn no_provider_error_over_sovia() {
    no_provider_error(&sovia_platforms());
}

fn stdio_lines_roundtrip(platforms: &[Variant]) {
    for platform in platforms {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        run_fn(platform, move |ctx, m0, m1, stype| {
            let (cp, sp) = sovia_repro::testbed::procs(&m0, &m1);
            ctx.handle().spawn("server", move |sctx| {
                let s = api::socket(sctx, &sp, stype).unwrap();
                api::bind(sctx, &sp, s, SockAddr::new(HostId(1), PORT)).unwrap();
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
                cctx.sleep(SimDuration::from_millis(1));
                let s = api::socket(cctx, &cp, stype).unwrap();
                api::connect(cctx, &cp, s, SockAddr::new(HostId(1), PORT)).unwrap();
                let mut f = SockFile::fdopen(&cp, s);
                f.write_line(cctx, "USER anonymous").unwrap();
                assert_eq!(f.read_line(cctx).unwrap().unwrap(), "200 USER anonymous");
                f.write_line(cctx, "QUIT").unwrap();
                assert_eq!(f.read_line(cctx).unwrap().unwrap(), "200 QUIT");
                f.close(cctx).unwrap();
            });
        });
        assert_eq!(
            *seen.lock(),
            ["USER anonymous", "QUIT"],
            "{}",
            platform.label()
        );
    }
}

#[test]
fn stdio_lines_roundtrip_over_tcp() {
    stdio_lines_roundtrip(&tcp_platforms());
}

#[test]
fn stdio_lines_roundtrip_over_sovia() {
    stdio_lines_roundtrip(&sovia_platforms());
}

/// `recv` with a buffer smaller than what has arrived hands out the rest
/// on later calls (the runner checks that no call returns more than 3
/// bytes): the message arrives intact across reads.
fn chunked_recv(platforms: &[Variant]) {
    let sc = Scenario::new([
        served([
            SendAll(CONN, b"0123456789".to_vec()),
            Close(CONN),
            Close(LISTENER),
        ]),
        dialed([RecvToEof(SOCK, 3), Close(SOCK)]),
    ]);
    expect(&sc, platforms, |_| {
        let server = serving([Ret::Ok, Ret::Ok, Ret::Ok]);
        vec![server, dialing([data(b"0123456789"), Ret::Ok])]
    });
}

#[test]
fn chunked_recv_over_tcp() {
    chunked_recv(&tcp_platforms());
}

#[test]
fn chunked_recv_over_sovia() {
    chunked_recv(&sovia_platforms());
}

/// Figure 4 end to end, on the dual-stack cLAN platform (TCP/LANE, which
/// registers SOVIA too): one process holds a TCP socket (over LANE), a
/// SOVIA socket, a ramdisk file and a pipe, and the interposed
/// `write`/`read`/`close` route each descriptor. The server echoes each
/// socket's bytes back, so a byte that took the wrong path comes back on
/// the wrong descriptor or not at all.
#[test]
fn one_process_routes_tcp_sovia_file_and_pipe() {
    const TCP_ADDR: SockAddr = SockAddr {
        host: HostId(1),
        port: PORT,
    };
    const VIA_ADDR: SockAddr = SockAddr {
        host: HostId(1),
        port: PORT + 1,
    };
    const TCP_MSG: &[u8] = b"to the kernel stack";
    const VIA_MSG: &[u8] = b"to user-level VIA";
    let done = Arc::new(Mutex::new(false));
    let done2 = Arc::clone(&done);
    run_fn(&Variant::TcpLane, move |ctx, m0, m1, _| {
        let (cp, sp) = sovia_repro::testbed::procs(&m0, &m1);
        ctx.handle().spawn("echo-server", move |sctx| {
            let listeners = [
                (SockType::Stream, TCP_ADDR, TCP_MSG),
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
            // `len` bytes through `api::read`, which returns what one
            // `recv` gives.
            let read_exact = |fd, len| {
                let mut got = Vec::new();
                while got.len() < len {
                    let chunk = api::read(cctx, &cp, fd, len - got.len()).unwrap();
                    assert!(!chunk.is_empty(), "EOF after {} of {len} bytes", got.len());
                    got.extend_from_slice(&chunk);
                }
                got
            };
            let file = cp.open(cctx, "fig4.txt", OpenMode::Write).unwrap();
            cctx.sleep(SimDuration::from_millis(1));
            let tcp = api::socket(cctx, &cp, SockType::Stream).unwrap();
            api::connect(cctx, &cp, tcp, TCP_ADDR).unwrap();
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
            assert_eq!(read_exact(tcp, TCP_MSG.len()), TCP_MSG);
            assert_eq!(read_exact(via, VIA_MSG.len()), VIA_MSG);
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
    assert!(*done.lock());
}
