//! Integration tests for the Section 4.3 inetd flow and the striped
//! parallel file store (the paper's future work) on multi-host clusters.

use std::sync::Arc;

use apps::ftp::{FtpClient, FtpTransports, FTP_PORT};
use apps::inetd::{ftp_service, spawn_inetd, InetdService};
use apps::pfs::{spawn_pfs_server, PfsClient, DEFAULT_STRIPE};
use dsim::{SimDuration, Simulation};
use parking_lot::Mutex;
use simos::HostId;
use sockets::{api, SockAddr, SockType};
use sovia::SoviaConfig;
use sovia_repro::testbed;

/// The paper's inetd scenario end to end: the client's control connection
/// goes to inetd over plain TCP, inetd forks the FTP daemon with the
/// descriptor inherited, and the transfer itself flows over a fresh SOVIA
/// connection.
#[test]
fn inetd_forks_ftpd_with_sovia_data_path() {
    let mut sim = Simulation::new();
    let ok = Arc::new(Mutex::new(false));
    let ok2 = Arc::clone(&ok);
    testbed::clan_dual_stack(&sim, SoviaConfig::default(), move |ctx, m0, m1| {
        let (client_proc, inetd_proc) = testbed::procs(&m0, &m1);
        let mut file = vec![0u8; 300_000];
        dsim::rng::fill_pattern(21, 0, &mut file);
        m1.fs().add_file("pub/data.bin", file);

        spawn_inetd(ctx.handle(), inetd_proc, vec![ftp_service(Some(1))]);

        let m0c = m0.clone();
        let ok = Arc::clone(&ok2);
        ctx.handle().spawn("ftp-client", move |cctx| {
            cctx.sleep(SimDuration::from_millis(1));
            let mut ftp = FtpClient::connect(
                cctx,
                &client_proc,
                HostId(1),
                FTP_PORT,
                FtpTransports::inetd_hybrid(),
            )
            .unwrap();
            let stats = ftp.retr(cctx, "pub/data.bin", "local.bin").unwrap();
            assert_eq!(stats.bytes, 300_000);
            ftp.quit(cctx).unwrap();
            let got = m0c.fs().contents("local.bin").unwrap();
            assert_eq!(dsim::rng::check_pattern(21, 0, &got), None);
            *ok.lock() = true;
        });
    });
    sim.run().unwrap();
    assert!(*ok.lock());
}

/// inetd can host several services on different ports concurrently.
#[test]
fn inetd_multiplexes_services() {
    let mut sim = Simulation::new();
    let echoed = Arc::new(Mutex::new(Vec::new()));
    let echoed2 = Arc::clone(&echoed);
    testbed::clan_dual_stack(&sim, SoviaConfig::default(), move |ctx, m0, m1| {
        let (client_proc, inetd_proc) = testbed::procs(&m0, &m1);
        let make_echo = |name: &str, port: u16| InetdService {
            port,
            name: name.into(),
            max_sessions: Some(1),
            handler: Arc::new(move |cctx, child, fd| {
                // A trivial "echo" daemon body.
                loop {
                    let d = api::recv(cctx, &child, fd, 1024).unwrap();
                    if d.is_empty() {
                        break;
                    }
                    api::send_all(cctx, &child, fd, &d).unwrap();
                }
                let _ = api::close(cctx, &child, fd);
            }),
        };
        spawn_inetd(
            ctx.handle(),
            inetd_proc,
            vec![make_echo("echo-a", 1007), make_echo("echo-b", 1008)],
        );
        let echoed = Arc::clone(&echoed2);
        ctx.handle().spawn("client", move |cctx| {
            cctx.sleep(SimDuration::from_millis(1));
            for (port, msg) in [(1007u16, "first"), (1008, "second")] {
                let s = api::socket(cctx, &client_proc, SockType::Stream).unwrap();
                api::connect(cctx, &client_proc, s, SockAddr::new(HostId(1), port)).unwrap();
                api::send_all(cctx, &client_proc, s, msg.as_bytes()).unwrap();
                let echo = api::recv_exact(cctx, &client_proc, s, msg.len()).unwrap();
                echoed.lock().push(String::from_utf8(echo).unwrap());
                api::close(cctx, &client_proc, s).unwrap();
            }
        });
    });
    sim.run().unwrap();
    assert_eq!(
        echoed.lock().clone(),
        vec!["first".to_string(), "second".to_string()]
    );
}

/// Striped store over SOVIA on a 4-host cluster (client + 3 servers):
/// write/read round-trip, stripes land round-robin, missing names report
/// cleanly.
#[test]
fn pfs_striped_roundtrip_over_sovia() {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let machines = testbed::sovia_cluster(&h, 4, SoviaConfig::default());
    let servers = [HostId(1), HostId(2), HostId(3)];
    for m in &machines[1..] {
        spawn_pfs_server(
            &h,
            m.spawn_process("pfs"),
            9100,
            SockType::Via,
            Some(1),
        );
    }
    let client_proc = machines[0].spawn_process("pfs-client");
    let server_machines: Vec<simos::Machine> = machines[1..].to_vec();
    sim.spawn("client", move |ctx| {
        ctx.sleep(SimDuration::from_millis(1));
        let pfs = PfsClient::connect(
            ctx,
            &client_proc,
            &servers,
            9100,
            SockType::Via,
            DEFAULT_STRIPE,
        )
        .unwrap();
        // 7 stripes over 3 servers: 3/2/2 distribution.
        let len = 6 * DEFAULT_STRIPE + 1234;
        let mut data = vec![0u8; len];
        dsim::rng::fill_pattern(77, 0, &mut data);
        pfs.write_striped(ctx, "big.dat", &data).unwrap();

        let back = pfs.read_striped(ctx, "big.dat").unwrap().unwrap();
        assert_eq!(back.len(), len);
        assert_eq!(dsim::rng::check_pattern(77, 0, &back), None);

        assert!(pfs.read_striped(ctx, "no-such").unwrap().is_none());
        pfs.close(ctx).unwrap();

        // Verify physical striping: stripes 0,3,6 on server 1 (plus meta),
        // 1,4 on server 2, 2,5 on server 3.
        let counts: Vec<usize> = server_machines
            .iter()
            .map(|m| m.fs().list("pfs/big.dat.").len())
            .collect();
        assert_eq!(counts, vec![3 + 1, 2, 2]);
    });
    sim.run().unwrap();
}

/// The same file store runs unchanged over kernel TCP (2 hosts).
#[test]
fn pfs_runs_over_tcp_too() {
    let mut sim = Simulation::new();
    let (m0, m1) = testbed::tcp_ethernet_pair(&sim.handle());
    spawn_pfs_server(
        &sim.handle(),
        m1.spawn_process("pfs"),
        9100,
        SockType::Stream,
        Some(1),
    );
    let client_proc = m0.spawn_process("pfs-client");
    sim.spawn("client", move |ctx| {
        ctx.sleep(SimDuration::from_millis(1));
        let pfs = PfsClient::connect(
            ctx,
            &client_proc,
            &[HostId(1)],
            9100,
            SockType::Stream,
            8 * 1024,
        )
        .unwrap();
        let mut data = vec![0u8; 50_000];
        dsim::rng::fill_pattern(5, 0, &mut data);
        pfs.write_striped(ctx, "f", &data).unwrap();
        let back = pfs.read_striped(ctx, "f").unwrap().unwrap();
        assert_eq!(dsim::rng::check_pattern(5, 0, &back), None);
        pfs.close(ctx).unwrap();
    });
    sim.run().unwrap();
}
