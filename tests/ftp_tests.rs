//! FTP integration tests: the Section 5.3 functionality over both
//! transports, plus the fork/COW hazard of Figure 5 end to end.

use std::sync::Arc;

use apps::ftp::{spawn_ftp_server, FtpClient, FtpServerConfig, FtpTransports, FTP_PORT};
use dsim::{SimDuration, Simulation};
use parking_lot::Mutex;
use simos::HostId;
use sovia::SoviaConfig;
use sovia_repro::testbed;

fn file_payload(len: usize, tag: u64) -> Vec<u8> {
    let mut v = vec![0u8; len];
    dsim::rng::fill_pattern(tag, 0, &mut v);
    v
}

/// End-to-end RETR + STOR + LIST over a given transport pair.
fn exercise_ftp(mut sim: Simulation, m0: simos::Machine, m1: simos::Machine, transports: FtpTransports) {
    let (client_proc, server_proc) = testbed::procs(&m0, &m1);
    let remote = file_payload(200_000, 5);
    m1.fs().add_file("pub/data.bin", remote.clone());
    m0.fs().add_file("upload.bin", file_payload(80_000, 6));

    spawn_ftp_server(
        &sim.handle(),
        server_proc,
        FtpServerConfig {
            transports,
            max_sessions: Some(1),
            ..Default::default()
        },
    );
    let m0c = m0.clone();
    let m1c = m1.clone();
    sim.spawn("ftp-client", move |ctx| {
        ctx.sleep(SimDuration::from_micros(500));
        let mut ftp =
            FtpClient::connect(ctx, &client_proc, HostId(1), FTP_PORT, transports).unwrap();
        // dir
        let listing = ftp.list(ctx, "pub/").unwrap();
        assert!(listing.contains("pub/data.bin"), "listing: {listing}");
        // get
        let stats = ftp.retr(ctx, "pub/data.bin", "local.bin").unwrap();
        assert_eq!(stats.bytes, 200_000);
        assert!(stats.mbps() > 0.0);
        // put
        let stats = ftp.stor(ctx, "upload.bin", "incoming/upload.bin").unwrap();
        assert_eq!(stats.bytes, 80_000);
        ftp.quit(ctx).unwrap();
        // Byte-exact both ways.
        let got = m0c.fs().contents("local.bin").unwrap();
        assert_eq!(dsim::rng::check_pattern(5, 0, &got), None);
        assert_eq!(got.len(), 200_000);
        let up = m1c.fs().contents("incoming/upload.bin").unwrap();
        assert_eq!(dsim::rng::check_pattern(6, 0, &up), None);
    });
    sim.run().unwrap();
}

#[test]
fn ftp_over_tcp_ethernet() {
    let sim = Simulation::new();
    let (m0, m1) = testbed::tcp_ethernet_pair(&sim.handle());
    exercise_ftp(sim, m0, m1, FtpTransports::tcp());
}

#[test]
fn ftp_over_sovia() {
    let sim = Simulation::new();
    let (m0, m1) = testbed::sovia_pair(&sim.handle(), SoviaConfig::combine());
    exercise_ftp(sim, m0, m1, FtpTransports::sovia());
}

#[test]
fn ftp_inetd_hybrid_control_tcp_data_sovia() {
    // Section 4.3's partial solution: TCP control (inetd-compatible),
    // SOVIA data connections.
    let mut sim = Simulation::new();
    let done = Arc::new(Mutex::new(false));
    let done2 = Arc::clone(&done);
    testbed::clan_dual_stack(&sim, SoviaConfig::combine(), move |ctx, m0, m1| {
        let (client_proc, server_proc) = testbed::procs(&m0, &m1);
        m1.fs().add_file("pub/data.bin", file_payload(100_000, 7));
        spawn_ftp_server(
            ctx.handle(),
            server_proc,
            FtpServerConfig {
                transports: FtpTransports::inetd_hybrid(),
                max_sessions: Some(1),
                ..Default::default()
            },
        );
        let m0c = m0.clone();
        let done = Arc::clone(&done2);
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
            assert_eq!(stats.bytes, 100_000);
            ftp.quit(cctx).unwrap();
            let got = m0c.fs().contents("local.bin").unwrap();
            assert_eq!(dsim::rng::check_pattern(7, 0, &got), None);
            *done.lock() = true;
        });
    });
    sim.run().unwrap();
    assert!(*done.lock());
}

/// The Figure 5 experiment, end to end: a `LIST` forks the SOVIA-based
/// server; with private (COW) buffer segments the session breaks after
/// the fork (stale pinned frames feed the NIC garbage — in practice the
/// control channel wedges or the file corrupts, the paper's "a naive
/// port of the FTP server may not work"); with shared segments it is
/// correct. Returns true iff the session completed with intact data.
fn ftp_after_fork(use_shared_segments: bool) -> bool {
    let mut sim = Simulation::new();
    let config = SoviaConfig {
        use_shared_segments,
        ..SoviaConfig::dacks()
    };
    let (m0, m1) = testbed::sovia_pair(&sim.handle(), config);
    let (client_proc, server_proc) = testbed::procs(&m0, &m1);
    m1.fs().add_file("pub/data.bin", file_payload(150_000, 8));

    spawn_ftp_server(
        &sim.handle(),
        server_proc,
        FtpServerConfig {
            transports: FtpTransports::sovia(),
            fork_for_list: true,
            max_sessions: Some(1),
            ..Default::default()
        },
    );
    let m0c = m0.clone();
    let intact = Arc::new(Mutex::new(false));
    let intact2 = Arc::clone(&intact);
    sim.spawn("ftp-client", move |ctx| {
        ctx.sleep(SimDuration::from_micros(500));
        let mut ftp = FtpClient::connect(
            ctx,
            &client_proc,
            HostId(1),
            FTP_PORT,
            FtpTransports::sovia(),
        )
        .unwrap();
        // The fork happens here (server runs "ls" in a child).
        let Ok(_) = ftp.list(ctx, "pub/") else { return };
        // Transfer *after* the fork: the server's SOVIA send path writes
        // into its pre-registered buffers — COWed away from the pinned
        // frames if shared segments are off.
        let Ok(stats) = ftp.retr(ctx, "pub/data.bin", "local.bin") else {
            return;
        };
        let _ = ftp.quit(ctx);
        let got = m0c.fs().contents("local.bin").unwrap();
        *intact2.lock() = stats.bytes == 150_000
            && dsim::rng::check_pattern(8, 0, &got).is_none();
    });
    match sim.run() {
        Ok(_) => *intact.lock(),
        // A wedged session (garbage framing on the control channel) is
        // the bug manifesting; count it as "not intact".
        Err(dsim::SimError::Deadlock { .. }) => false,
        Err(e) => panic!("unexpected simulation error: {e}"),
    }
}

#[test]
fn figure5_cow_bug_corrupts_transfer_without_shared_segments() {
    assert!(
        !ftp_after_fork(false),
        "with private (COW) segments the post-fork transfer must corrupt"
    );
}

#[test]
fn figure5_shared_segments_fix_transfer_after_fork() {
    assert!(
        ftp_after_fork(true),
        "with shared segments the post-fork transfer must be intact"
    );
}
