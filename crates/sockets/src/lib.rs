//! # sockets — the BSD sockets front-end
//!
//! A Berkeley-sockets API whose descriptors dispatch at run time to
//! whichever transport provider backs them: the kernel TCP/IP stack
//! (`SOCK_STREAM`, crate `tcpip`) or SOVIA (`SOCK_VIA`, crate `sovia`).
//! This reproduces the paper's portability layer (Section 4.2): SOVIA
//! sockets occupy real (dummy) kernel descriptors, `read`/`write`/`close`
//! wrappers check the per-process socket table first, and TCP and SOVIA
//! sockets coexist in one process.
//!
//! * [`api`] — `socket`/`bind`/`listen`/`accept`/`connect`/`send`/`recv`/
//!   `close` plus the interposed `read`/`write`.
//! * [`provider`] — the [`Socket`] and [`SocketProvider`] traits
//!   transports implement, and the per-machine registry.
//! * [`stdio`] — a buffered `fdopen`-style wrapper.
//! * [`loopback`] — a zero-cost in-memory transport for tests.

#![warn(missing_docs)]

pub mod api;
pub mod loopback;
pub mod provider;
pub mod stdio;
mod types;

pub use provider::{ProviderRegistry, Socket, SocketProvider};
pub use types::{Shutdown, SockAddr, SockError, SockOption, SockResult, SockType};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loopback::SharedLoopback;
    use crate::stdio::SockFile;
    use dsim::Simulation;
    use parking_lot::Mutex;
    use simos::{HostCosts, HostId, Machine, Process};
    use std::sync::Arc;

    fn setup(sim: &dsim::SimHandle) -> (Machine, Process) {
        let m = Machine::new(sim, HostId(0), "m0", HostCosts::free());
        let lo = SharedLoopback::new(sim);
        ProviderRegistry::of(&m).register(SockType::Stream, lo);
        let p = m.spawn_process("app");
        (m, p)
    }

    #[test]
    fn listen_accept_echo() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let (_m, p) = setup(&h);
        let server_p = p.clone();
        let addr = SockAddr::new(HostId(0), 21);
        sim.spawn("server", move |ctx| {
            let s = api::socket(ctx, &server_p, SockType::Stream).unwrap();
            api::bind(ctx, &server_p, s, addr).unwrap();
            api::listen(ctx, &server_p, s, 8).unwrap();
            let (c, peer) = api::accept(ctx, &server_p, s).unwrap();
            assert_eq!(peer.host, HostId(0));
            let data = api::recv(ctx, &server_p, c, 100).unwrap();
            api::send_all(ctx, &server_p, c, &data).unwrap();
            api::close(ctx, &server_p, c).unwrap();
            api::close(ctx, &server_p, s).unwrap();
        });
        let client_p = p.clone();
        sim.spawn("client", move |ctx| {
            ctx.sleep(dsim::SimDuration::from_micros(10));
            let s = api::socket(ctx, &client_p, SockType::Stream).unwrap();
            api::connect(ctx, &client_p, s, addr).unwrap();
            api::send_all(ctx, &client_p, s, b"ping").unwrap();
            let echo = api::recv_exact(ctx, &client_p, s, 4).unwrap();
            assert_eq!(echo, b"ping");
            // After the server closes, we read EOF.
            assert_eq!(api::recv(ctx, &client_p, s, 10).unwrap(), b"");
            api::close(ctx, &client_p, s).unwrap();
        });
        sim.run().unwrap();
    }

    #[test]
    fn descriptor_dispatch_mixes_sockets_and_files() {
        // The Figure 4 scenario: one process holds a file fd and a socket
        // fd; write() routes each to the right place.
        let mut sim = Simulation::new();
        let h = sim.handle();
        let (m, p) = setup(&h);
        let addr = SockAddr::new(HostId(0), 9);
        {
            let p = p.clone();
            sim.spawn("server", move |ctx| {
                let s = api::socket(ctx, &p, SockType::Stream).unwrap();
                api::bind(ctx, &p, s, addr).unwrap();
                api::listen(ctx, &p, s, 1).unwrap();
                let (c, _) = api::accept(ctx, &p, s).unwrap();
                let got = api::recv(ctx, &p, c, 100).unwrap();
                assert_eq!(got, b"to the socket");
                api::close(ctx, &p, c).unwrap();
                api::close(ctx, &p, s).unwrap();
            });
        }
        {
            let p = p.clone();
            let m = m.clone();
            sim.spawn("client", move |ctx| {
                ctx.sleep(dsim::SimDuration::from_micros(10));
                let file_fd = p.open(ctx, "log.txt", simos::fs::OpenMode::Write).unwrap();
                let sock_fd = api::socket(ctx, &p, SockType::Stream).unwrap();
                assert_ne!(file_fd, sock_fd);
                api::connect(ctx, &p, sock_fd, addr).unwrap();
                // Same write() call, different destinations.
                api::write(ctx, &p, file_fd, b"to the file").unwrap();
                api::write(ctx, &p, sock_fd, b"to the socket").unwrap();
                api::close(ctx, &p, sock_fd).unwrap();
                api::close(ctx, &p, file_fd).unwrap();
                assert_eq!(m.fs().contents("log.txt").unwrap(), b"to the file");
            });
        }
        sim.run().unwrap();
    }

    #[test]
    fn socket_table_cleans_up_on_close() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let (_m, p) = setup(&h);
        sim.spawn("main", move |ctx| {
            let table = api::SocketTable::of(&p);
            assert!(table.is_empty());
            let s = api::socket(ctx, &p, SockType::Stream).unwrap();
            assert_eq!(table.len(), 1);
            api::close(ctx, &p, s).unwrap();
            assert!(table.is_empty());
            // Closing again is now a plain (bad) fd close.
            assert!(api::close(ctx, &p, s).is_err());
        });
        sim.run().unwrap();
    }

    #[test]
    fn socket_table_len_tracks_open_sockets() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let (_m, p) = setup(&h);
        sim.spawn("main", move |ctx| {
            let table = api::SocketTable::of(&p);
            let a = api::socket(ctx, &p, SockType::Stream).unwrap();
            let b = api::socket(ctx, &p, SockType::Stream).unwrap();
            let c = api::socket(ctx, &p, SockType::Stream).unwrap();
            assert_eq!(table.len(), 3);
            api::close(ctx, &p, b).unwrap();
            assert_eq!(table.len(), 2);
            assert!(table.get(b).is_none());
            api::close(ctx, &p, a).unwrap();
            api::close(ctx, &p, c).unwrap();
            assert!(table.is_empty());
        });
        sim.run().unwrap();
    }

    #[test]
    fn reused_descriptor_maps_to_the_new_socket() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let (m, p) = setup(&h);
        sim.spawn("main", move |ctx| {
            let table = api::SocketTable::of(&p);
            let s = api::socket(ctx, &p, SockType::Stream).unwrap();
            let old = table.get(s).unwrap();
            api::close(ctx, &p, s).unwrap();
            // The OS hands out the lowest free descriptor: the same number.
            let s2 = api::socket(ctx, &p, SockType::Stream).unwrap();
            assert_eq!(s2, s);
            assert!(!Arc::ptr_eq(&old, &table.get(s2).unwrap()));
            api::close(ctx, &p, s2).unwrap();
            // Reused by a file, the number no longer names a socket.
            let f = p.open(ctx, "f.txt", simos::fs::OpenMode::Write).unwrap();
            assert_eq!(f, s);
            assert!(table.get(f).is_none());
            api::write(ctx, &p, f, b"file bytes").unwrap();
            api::close(ctx, &p, f).unwrap();
            assert_eq!(m.fs().contents("f.txt").unwrap(), b"file bytes");
        });
        sim.run().unwrap();
    }

    #[test]
    fn negative_and_out_of_range_descriptors_are_bad() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let (_m, p) = setup(&h);
        sim.spawn("main", move |ctx| {
            let s = api::socket(ctx, &p, SockType::Stream).unwrap();
            for fd in [-1, i32::MIN, s + 1, 1 << 20, i32::MAX] {
                assert!(api::SocketTable::of(&p).get(fd).is_none());
                assert_eq!(api::send(ctx, &p, fd, b"x"), Err(SockError::BadFd));
                assert_eq!(api::recv(ctx, &p, fd, 1), Err(SockError::BadFd));
                assert!(api::close(ctx, &p, fd).is_err());
            }
            api::close(ctx, &p, s).unwrap();
        });
        sim.run().unwrap();
    }

    #[test]
    fn read_and_write_fall_through_for_pipes() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let (_m, p) = setup(&h);
        sim.spawn("main", move |ctx| {
            let s = api::socket(ctx, &p, SockType::Stream).unwrap();
            let (r, w) = p.pipe(ctx);
            assert_eq!(api::write(ctx, &p, w, b"through the pipe").unwrap(), 16);
            assert_eq!(api::read(ctx, &p, r, 100).unwrap(), b"through the pipe");
            assert_eq!(api::SocketTable::of(&p).len(), 1);
            api::close(ctx, &p, w).unwrap();
            assert_eq!(api::read(ctx, &p, r, 100).unwrap(), b"");
            api::close(ctx, &p, r).unwrap();
            api::close(ctx, &p, s).unwrap();
        });
        sim.run().unwrap();
    }

    #[test]
    fn no_provider_error() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let (_m, p) = setup(&h);
        sim.spawn("main", move |ctx| {
            let err = api::socket(ctx, &p, SockType::Via).unwrap_err();
            assert_eq!(err, SockError::NoProvider);
        });
        sim.run().unwrap();
    }

    #[test]
    fn stdio_lines_roundtrip() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let (_m, p) = setup(&h);
        let addr = SockAddr::new(HostId(0), 21);
        let seen = Arc::new(Mutex::new(Vec::new()));
        {
            let p = p.clone();
            let seen = Arc::clone(&seen);
            sim.spawn("server", move |ctx| {
                let s = api::socket(ctx, &p, SockType::Stream).unwrap();
                api::bind(ctx, &p, s, addr).unwrap();
                api::listen(ctx, &p, s, 1).unwrap();
                let (c, _) = api::accept(ctx, &p, s).unwrap();
                let mut f = SockFile::fdopen(&p, c);
                while let Some(line) = f.read_line(ctx).unwrap() {
                    seen.lock().push(line.clone());
                    f.write_line(ctx, &format!("200 {line}")).unwrap();
                }
                f.close(ctx).unwrap();
                api::close(ctx, &p, s).unwrap();
            });
        }
        {
            let p = p.clone();
            sim.spawn("client", move |ctx| {
                ctx.sleep(dsim::SimDuration::from_micros(10));
                let s = api::socket(ctx, &p, SockType::Stream).unwrap();
                api::connect(ctx, &p, s, addr).unwrap();
                let mut f = SockFile::fdopen(&p, s);
                f.write_line(ctx, "USER anonymous").unwrap();
                assert_eq!(
                    f.read_line(ctx).unwrap().unwrap(),
                    "200 USER anonymous"
                );
                f.write_line(ctx, "QUIT").unwrap();
                assert_eq!(f.read_line(ctx).unwrap().unwrap(), "200 QUIT");
                f.close(ctx).unwrap();
            });
        }
        sim.run().unwrap();
        assert_eq!(
            seen.lock().clone(),
            vec!["USER anonymous".to_string(), "QUIT".to_string()]
        );
    }

    #[test]
    fn partial_reads_with_carry() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let (_m, p) = setup(&h);
        let addr = SockAddr::new(HostId(0), 5);
        {
            let p = p.clone();
            sim.spawn("server", move |ctx| {
                let s = api::socket(ctx, &p, SockType::Stream).unwrap();
                api::bind(ctx, &p, s, addr).unwrap();
                api::listen(ctx, &p, s, 1).unwrap();
                let (c, _) = api::accept(ctx, &p, s).unwrap();
                api::send_all(ctx, &p, c, b"0123456789").unwrap();
                api::close(ctx, &p, c).unwrap();
                api::close(ctx, &p, s).unwrap();
            });
        }
        {
            let p = p.clone();
            sim.spawn("client", move |ctx| {
                ctx.sleep(dsim::SimDuration::from_micros(10));
                let s = api::socket(ctx, &p, SockType::Stream).unwrap();
                api::connect(ctx, &p, s, addr).unwrap();
                // Read in chunks of 3; the 10-byte message must arrive
                // intact across reads.
                let mut got = Vec::new();
                loop {
                    let chunk = api::recv(ctx, &p, s, 3).unwrap();
                    if chunk.is_empty() {
                        break;
                    }
                    assert!(chunk.len() <= 3);
                    got.extend_from_slice(&chunk);
                }
                assert_eq!(got, b"0123456789");
                api::close(ctx, &p, s).unwrap();
            });
        }
        sim.run().unwrap();
    }
}
