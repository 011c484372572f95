//! Socket programs that once lived as unit tests of the two transport
//! crates (`tcpip`, `sovia`), each written once as a scenario and run on
//! every platform of `common::scenario` that takes it.

mod common;

use dsim::SimDuration;
use simnic::FaultPlan;
use sovia_repro::sockets::SockError;

use common::scenario::{self, *};
use Call::*;

/// A `connect` with nobody listening on the port is refused.
#[test]
fn connect_without_listener_is_refused() {
    let sc = Scenario::new([program("client", 0, [Socket, Connect(D(0), 4242)])]);
    expect(&sc, &platforms(), |_| {
        vec![vec![Ret::Fd(0), Ret::Err(SockError::ConnectionRefused)]]
    });
}

/// Byte-exact delivery across SOVIA's 2 KB copy/zero-copy threshold, its
/// 32 KB chunks, TCP's segments and window, and buffer wrap: each send is
/// the next stretch of one pattern.
#[test]
fn stream_integrity_across_sizes() {
    let sizes = [
        1,
        7,
        100,
        2047,
        2048,
        2049,
        8192,
        32 * 1024,
        50_000,
        100_000,
        300_000,
    ];
    let total: usize = sizes.iter().sum();
    let mut off = 0;
    let sends = sizes.map(|n| {
        off += n;
        SendAll(SOCK, pattern(42, off - n, n))
    });
    let sc = Scenario::new([
        served([RecvExact(CONN, total), Close(CONN), Close(LISTENER)]),
        dialed(sends.into_iter().chain([Close(SOCK)])),
    ]);
    expect(&sc, &platforms(), |_| {
        let server = serving([Ret::Data(pattern(42, 0, total)), Ret::Ok, Ret::Ok]);
        vec![
            server,
            dialing(sizes.map(|_| Ret::Ok).into_iter().chain([Ret::Ok])),
        ]
    });
}

/// A receiver slower than the wire: the sender runs ahead until flow
/// control stops it, and (the runner checks) no frame ever arrives at a
/// VIA NIC without a posted descriptor.
#[test]
fn slow_receiver_loses_nothing() {
    const MSGS: usize = 200;
    const SIZE: usize = 1500;
    let chunk = |i: usize| pattern(5, i * SIZE, SIZE);
    let reads =
        (0..MSGS).flat_map(|_| [Sleep(SimDuration::from_micros(30)), RecvExact(CONN, SIZE)]);
    let sc = Scenario::new([
        served(reads.chain([Close(CONN), Close(LISTENER)])),
        dialed(
            (0..MSGS)
                .map(|i| SendAll(SOCK, chunk(i)))
                .chain([Close(SOCK)]),
        ),
    ]);
    expect(&sc, &platforms(), |_| {
        let server = serving(
            (0..MSGS)
                .map(|i| Ret::Data(chunk(i)))
                .chain([Ret::Ok, Ret::Ok]),
        );
        vec![server, dialing((0..=MSGS).map(|_| Ret::Ok))]
    });
}

/// Full duplex: both ends send their own stream before reading the
/// other's.
#[test]
fn bidirectional_traffic() {
    let (down, up) = (pattern(11, 0, 40_000), pattern(12, 0, 30_000));
    let sc = Scenario::new([
        served([
            SendAll(CONN, down.clone()),
            RecvExact(CONN, up.len()),
            Close(CONN),
            Close(LISTENER),
        ]),
        dialed([
            SendAll(SOCK, up.clone()),
            RecvExact(SOCK, down.len()),
            Close(SOCK),
        ]),
    ]);
    expect(&sc, &platforms(), |_| {
        vec![
            serving([Ret::Ok, Ret::Data(up.clone()), Ret::Ok, Ret::Ok]),
            dialing([Ret::Ok, Ret::Data(down.clone()), Ret::Ok]),
        ]
    });
}

/// TCP retransmission recovers a stream from the loss of about 5% of the
/// frames toward the server, within 3,000,000 events and 30 s of virtual
/// time. TCP/Ethernet only: a loss breaks a reliable VI, so SOVIA turns it
/// into `ConnectionReset` (tests/proptest_faults.rs), and TCP/LANE takes
/// no fault plan.
#[test]
fn retransmission_recovers_from_packet_loss() {
    let stream = pattern(13, 0, 200_000);
    let sc = Scenario::new([
        served([RecvExact(CONN, stream.len()), Close(CONN), Close(LISTENER)]),
        dialed([SendAll(SOCK, stream.clone()), Close(SOCK)]),
    ])
    .with_faults(FaultPlan::drops(0xD0D0, 0.05), FaultPlan::empty())
    .with_event_limit(3_000_000);
    let run = scenario::run(&sc, &Variant::TcpEth);
    let server = serving([Ret::Data(stream), Ret::Ok, Ret::Ok]);
    assert_eq!(run.transcripts, [server, dialing([Ret::Ok, Ret::Ok])]);
    assert!(
        run.end.as_secs_f64() < 30.0,
        "recovery took implausibly long: {}",
        run.end
    );
    assert!(
        run.faults[0].dropped >= 5,
        "only {} frames dropped",
        run.faults[0].dropped
    );
}
