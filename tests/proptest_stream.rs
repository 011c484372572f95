//! Property-based tests on the core invariant of a sockets layer: **the
//! byte stream is preserved** — any sequence of sends, with any receive
//! chunking, over any SOVIA configuration or kernel TCP, delivers exactly
//! the sent bytes in order, and the pre-posting constraint is never
//! violated (zero NIC drops).

mod common;

use std::ops::Range;
use std::sync::Arc;

use dsim::rng::SimRng;
use dsim::{SimDuration, Simulation};
use parking_lot::Mutex;
use simos::HostId;
use sovia_repro::sockets::{api, SockAddr, SockType};
use sovia_repro::sovia::SoviaConfig;
use sovia_repro::testbed;
use sovia_repro::via::ViaNic;

use common::{check, range, rng_for};

const PORT: u16 = 7;
/// Cases per property; each case is a whole simulation.
const CASES: u32 = 24;

/// Drive a full client/server exchange with the given send sizes and a
/// receive chunk size; assert byte-exactness and zero drops.
fn roundtrip(config: SoviaConfig, sends: Vec<usize>, recv_chunk: usize, seed: u64) {
    let total: usize = sends.iter().sum();
    let mut sim = Simulation::new();
    let (m0, m1) = testbed::sovia_pair(&sim.handle(), config);
    let (cp, sp) = testbed::procs(&m0, &m1);
    {
        let sp = sp.clone();
        sim.spawn("server", move |ctx| {
            let s = api::socket(ctx, &sp, SockType::Via).unwrap();
            api::bind(ctx, &sp, s, SockAddr::new(HostId(1), PORT)).unwrap();
            api::listen(ctx, &sp, s, 1).unwrap();
            let (c, _) = api::accept(ctx, &sp, s).unwrap();
            let mut got = Vec::with_capacity(total);
            while got.len() < total {
                let d = api::recv(ctx, &sp, c, recv_chunk).unwrap();
                if d.is_empty() {
                    break;
                }
                got.extend_from_slice(&d);
            }
            assert_eq!(got.len(), total, "stream length");
            assert_eq!(
                dsim::rng::check_pattern(seed, 0, &got),
                None,
                "stream content"
            );
            api::close(ctx, &sp, c).unwrap();
            api::close(ctx, &sp, s).unwrap();
        });
    }
    sim.spawn("client", move |ctx| {
        ctx.sleep(SimDuration::from_micros(100));
        let s = api::socket(ctx, &cp, SockType::Via).unwrap();
        api::connect(ctx, &cp, s, SockAddr::new(HostId(1), PORT)).unwrap();
        let mut off = 0u64;
        for n in sends {
            let mut buf = vec![0u8; n];
            dsim::rng::fill_pattern(seed, off, &mut buf);
            api::send_all(ctx, &cp, s, &buf).unwrap();
            off += n as u64;
        }
        api::close(ctx, &cp, s).unwrap();
    });
    sim.run().unwrap();
    // The pre-posting constraint held throughout: nothing was dropped.
    for m in [&m0, &m1] {
        assert_eq!(
            ViaNic::of(m).stats().rx_drops_no_descriptor,
            0,
            "SOVIA must never violate the pre-posting constraint"
        );
    }
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
        |(config, sends, recv_chunk, seed)| roundtrip(config, sends, recv_chunk, seed),
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
            let total: usize = sends.iter().sum();
            let mut sim = Simulation::new();
            let (m0, m1) = testbed::tcp_ethernet_pair(&sim.handle());
            let (cp, sp) = testbed::procs(&m0, &m1);
            let ok = Arc::new(Mutex::new(false));
            {
                let sp = sp.clone();
                let ok = Arc::clone(&ok);
                sim.spawn("server", move |ctx| {
                    let s = api::socket(ctx, &sp, SockType::Stream).unwrap();
                    api::bind(ctx, &sp, s, SockAddr::new(HostId(1), PORT)).unwrap();
                    api::listen(ctx, &sp, s, 1).unwrap();
                    let (c, _) = api::accept(ctx, &sp, s).unwrap();
                    let mut got = Vec::with_capacity(total);
                    while got.len() < total {
                        let d = api::recv(ctx, &sp, c, recv_chunk).unwrap();
                        if d.is_empty() {
                            break;
                        }
                        got.extend_from_slice(&d);
                    }
                    assert_eq!(got.len(), total);
                    assert_eq!(dsim::rng::check_pattern(seed, 0, &got), None);
                    *ok.lock() = true;
                    api::close(ctx, &sp, c).unwrap();
                    api::close(ctx, &sp, s).unwrap();
                });
            }
            sim.spawn("client", move |ctx| {
                ctx.sleep(SimDuration::from_micros(100));
                let s = api::socket(ctx, &cp, SockType::Stream).unwrap();
                api::connect(ctx, &cp, s, SockAddr::new(HostId(1), PORT)).unwrap();
                let mut off = 0u64;
                for n in sends {
                    let mut buf = vec![0u8; n];
                    dsim::rng::fill_pattern(seed, off, &mut buf);
                    api::send_all(ctx, &cp, s, &buf).unwrap();
                    off += n as u64;
                }
                api::close(ctx, &cp, s).unwrap();
            });
            sim.run().unwrap();
            assert!(*ok.lock());
        },
    );
}
