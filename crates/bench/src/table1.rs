//! Table 1: FTP file-transfer performance.
//!
//! Two files (19,090,223 and 145,864,380 bytes, the paper's exact sizes)
//! stored on ramdisks; rows: TCP/IP on Fast Ethernet, TCP/IP on cLAN
//! (LANE), SOVIA on cLAN, and the local ramdisk-to-ramdisk copy bound.

use apps::ftp::{spawn_ftp_server, FtpClient, FtpServerConfig, FtpTransports, FTP_PORT};
use dsim::{SimDuration, Simulation, TraceConfig};
use simos::fs::OpenMode;
use simos::HostId;
use sovia::SoviaConfig;
use sovia_repro::testbed;

use crate::micro::Variant;
use crate::runner::{self, run_point, Report, RunOutput};

/// The paper's file sizes.
pub const FILE_SIZES: [u64; 2] = [19_090_223, 145_864_380];

/// One measured cell of Table 1.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cell {
    /// Bandwidth, Mb/s.
    pub mbps: f64,
    /// Elapsed seconds.
    pub secs: f64,
}

/// One measured row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label.
    pub name: String,
    /// One cell per file.
    pub cells: Vec<Cell>,
}

/// The rows of Table 1, labeled as in the paper: an FTP transfer over
/// each network platform, then the local ramdisk-to-ramdisk copy
/// (`None`: no network).
pub fn table1_rows() -> [(&'static str, Option<Variant>); 4] {
    [
        ("TCP/IP on Fast Ethernet", Some(Variant::TcpEth)),
        ("TCP/IP on cLAN", Some(Variant::TcpLane)),
        (
            "SOVIA on cLAN",
            Some(Variant::Sovia(SoviaConfig::combine())),
        ),
        ("Local copy (on ramdisks)", None),
    ]
}

/// A deterministic, cheap-to-generate file body (content never inspected
/// by Table 1; only sizes and timing matter).
fn file_body(len: u64) -> Vec<u8> {
    let mut v = vec![0u8; len as usize];
    // A light pattern (full RNG fill of 145 MB is wasted host time).
    for (i, b) in v.iter_mut().enumerate().step_by(4096) {
        *b = (i / 4096) as u8;
    }
    v
}

/// Run one FTP transfer of a `file_len`-byte file over `platform` and
/// report what the client reports, traced when `trace` is `Some`
/// (whole-run window — FTP has no warm-up phase to exclude).
pub fn ftp_transfer_traced(
    platform: &Variant,
    file_len: u64,
    trace: Option<TraceConfig>,
) -> RunOutput<Cell> {
    let stype = platform.sock_type();
    let transports = FtpTransports {
        control: stype,
        data: stype,
    };
    let setup = |sim: &Simulation, report: Report<Cell>| {
        platform.boot(sim, move |ctx, m0, m1| {
            let (cp, sp) = testbed::procs(&m0, &m1);
            m1.fs().add_file("pub/file.bin", file_body(file_len));
            spawn_ftp_server(
                ctx.handle(),
                sp,
                FtpServerConfig {
                    transports,
                    fork_for_list: false,
                    max_sessions: Some(1),
                    ..Default::default()
                },
            );
            ctx.handle().spawn("ftp-client", move |cctx| {
                cctx.sleep(SimDuration::from_millis(1));
                let mut ftp =
                    FtpClient::connect(cctx, &cp, HostId(1), FTP_PORT, transports).unwrap();
                let stats = ftp.retr(cctx, "pub/file.bin", "file.bin").unwrap();
                assert_eq!(stats.bytes, file_len);
                let cell = Cell {
                    mbps: stats.mbps(),
                    secs: stats.elapsed.as_secs_f64(),
                };
                report.set(cell).expect("one report per run");
                ftp.quit(cctx).unwrap();
            });
        })
    };
    run_point(trace, setup).0
}

/// The local ramdisk-to-ramdisk copy row (`cp src dst` on one host).
pub fn local_copy(file_len: u64) -> RunOutput<Cell> {
    let setup = |sim: &Simulation, report: Report<Cell>| {
        let (m0, _) = testbed::clan_pair(&sim.handle());
        m0.fs().add_file("src.bin", file_body(file_len));
        sim.spawn("cp", move |ctx| {
            let p = m0.spawn_process("cp");
            let t0 = ctx.now();
            let src = p.open(ctx, "src.bin", OpenMode::Read).unwrap();
            let dst = p.open(ctx, "dst.bin", OpenMode::Write).unwrap();
            loop {
                let chunk = p.read(ctx, src, 8 * 1024).unwrap();
                if chunk.is_empty() {
                    break;
                }
                p.write(ctx, dst, &chunk).unwrap();
            }
            p.close(ctx, src).unwrap();
            p.close(ctx, dst).unwrap();
            let secs = ctx.now().since(t0).as_secs_f64();
            let cell = Cell {
                mbps: file_len as f64 * 8.0 / secs / 1e6,
                secs,
            };
            report.set(cell).expect("one report per run");
        });
    };
    run_point(None, setup).0
}

/// Run the whole table on at most `threads` concurrent simulations:
/// each row × file cell is an independent simulation.
pub fn run_table1_with(file_sizes: &[u64], threads: usize) -> Vec<Row> {
    let rows = table1_rows();
    let cells = runner::par_grid(&rows, file_sizes, threads, |(_, p), &len| match p {
        Some(p) => ftp_transfer_traced(p, len, None).value,
        None => local_copy(len).value,
    });
    rows.iter()
        .zip(cells)
        .map(|((name, _), cells)| Row {
            name: (*name).to_string(),
            cells,
        })
        .collect()
}

/// Render in the paper's format.
pub fn render(rows: &[Row], file_sizes: &[u64]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# Table 1: The performance of file transfers using FTP");
    let _ = write!(out, "{:<28}", "");
    for (i, len) in file_sizes.iter().enumerate() {
        let _ = write!(out, "   File {} ({} bytes)", i + 1, len);
    }
    let _ = writeln!(out);
    for row in rows {
        let _ = write!(out, "{:<28}", row.name);
        for c in &row.cells {
            let _ = write!(out, "   {:>4.0} Mbps ({:.2} sec)   ", c.mbps, c.secs);
        }
        let _ = writeln!(out);
    }
    out
}
