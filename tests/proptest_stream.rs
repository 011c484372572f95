//! Property-based tests on the core invariant of a sockets layer: **the
//! byte stream is preserved** — any sequence of sends, with any receive
//! chunking, over any SOVIA configuration or kernel TCP, delivers exactly
//! the sent bytes in order, and the pre-posting constraint is never
//! violated (zero NIC drops, which the scenario runner checks on every
//! run).

mod common;

use std::ops::Range;

use dsim::rng::SimRng;
use sovia_repro::sovia::SoviaConfig;

use common::scenario::{self, *};
use common::{check, range, rng_for};
use Call::*;

/// Cases per property; each case is a whole simulation per platform.
const CASES: u32 = 24;

/// A client/server exchange on `platform` with the given send sizes and
/// a receive chunk size: the server reads exactly the sent bytes.
fn roundtrip(platform: &Variant, sends: &[usize], recv_chunk: usize, seed: u64) {
    let total: usize = sends.iter().sum();
    let mut off = 0;
    let client = sends.iter().map(|&n| {
        off += n;
        SendAll(SOCK, pattern(seed, off - n, n))
    });
    let sc = Scenario::new([
        served([RecvToEof(CONN, recv_chunk), Close(CONN), Close(LISTENER)]),
        dialed(client.chain([Close(SOCK)])),
    ]);
    let server = serving([Ret::Data(pattern(seed, 0, total)), Ret::Ok, Ret::Ok]);
    let client = dialing(sends.iter().map(|_| Ret::Ok).chain([Ret::Ok]));
    let run = scenario::run(&sc, platform);
    assert_eq!(run.transcripts, [server, client], "{}", platform.label());
}

/// One of the five paper configurations, or one with odd windows and
/// thresholds.
fn config(rng: &mut SimRng) -> SoviaConfig {
    match rng.below(6) {
        0 => SoviaConfig::single(),
        1 => SoviaConfig::flowctrl(),
        2 => SoviaConfig::dacks(),
        3 => SoviaConfig::combine(),
        4 => SoviaConfig::handler(),
        _ => {
            let w = range(rng, 2..12) as u32;
            let t = range(rng, 1..6) as u32;
            SoviaConfig {
                window: w,
                ack_threshold: t.min(w - 1).max(1),
                ..SoviaConfig::single()
            }
        }
    }
}

/// A count drawn from `counts`, then that many send sizes from `sizes`.
fn sends(rng: &mut SimRng, counts: Range<usize>, sizes: Range<usize>) -> Vec<usize> {
    let n = range(rng, counts);
    (0..n).map(|_| range(rng, sizes.clone())).collect()
}

/// Configuration, send sizes, receive chunk and payload seed.
type SoviaCase = (SoviaConfig, Vec<usize>, usize, u64);

fn sovia_case(rng: &mut SimRng) -> Option<SoviaCase> {
    let config = config(rng);
    let sends = sends(rng, 1..12, 1..60_000);
    let recv_chunk = range(rng, 1..40_000);
    Some((config, sends, recv_chunk, rng.next_u64()))
}

#[test]
fn sovia_preserves_byte_streams() {
    check(
        "proptest_stream::sovia_preserves_byte_streams",
        CASES,
        sovia_case,
        |(config, sends, recv_chunk, seed)| {
            roundtrip(&Variant::Sovia(config), &sends, recv_chunk, seed);
        },
    );
}

/// The cases are the ones the retired property-test shim generated: this
/// first case was recorded from it.
#[test]
fn first_case_is_pinned() {
    let mut rng = rng_for("proptest_stream::sovia_preserves_byte_streams");
    let expected: SoviaCase = (
        SoviaConfig::flowctrl(),
        vec![21659, 13460, 13914],
        1314,
        7983439297826483436,
    );
    // `SoviaConfig` has no `PartialEq`; its `Debug` lists every field.
    assert_eq!(
        format!("{:?}", sovia_case(&mut rng)),
        format!("{:?}", Some(expected))
    );
}

#[test]
fn tcp_preserves_byte_streams() {
    check(
        "proptest_stream::tcp_preserves_byte_streams",
        CASES,
        |rng| {
            let sends = sends(rng, 1..8, 1..40_000);
            let recv_chunk = range(rng, 1..20_000);
            Some((sends, recv_chunk, rng.next_u64()))
        },
        |(sends, recv_chunk, seed)| {
            for platform in tcp_platforms() {
                roundtrip(&platform, &sends, recv_chunk, seed);
            }
        },
    );
}
