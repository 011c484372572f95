//! Property-based fault injection: under random seeds and fault plans
//! (drop / duplicate / reorder, up to 20% per frame, both directions), a
//! stream over either transport must deliver **exactly** the bytes that
//! were sent, in order — or fail with a clean typed [`SockError`] on at
//! least one side. Never a hang, never a panic, never silent truncation
//! or corruption.
//!
//! Hangs are bounded deterministically: the scheduler detects deadlock
//! (every non-daemon parked, heap empty), and a virtual-time watchdog
//! turns "still running at t = 600 s" into a test failure. Both surface
//! as `sim.run()` errors, which fail the case.
//!
//! To replay a failing case, take the seed and probabilities from the
//! printed inputs and call `run_lossy_stream` with them directly (the
//! simulation is bit-reproducible for a given plan).

mod common;

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use dsim::rng::SimRng;
use dsim::{SimDuration, Simulation};
use parking_lot::Mutex;
use simnic::FaultPlan;
use simos::HostId;
use sovia_repro::sockets::{api, SockAddr, SockError, SockType};
use sovia_repro::sovia::SoviaConfig;
use sovia_repro::testbed;

use common::{check, range};

const PORT: u16 = 4040;
const PATTERN_SEED: u64 = 1;
/// Virtual-time bound on one lossy stream: far above the worst capped
/// retransmit schedule (12 retries x ~300 ms RTO per stall episode).
const WATCHDOG: SimDuration = SimDuration::from_secs(600);

/// What each side observed: the in-order bytes the server collected
/// before EOF/error, and the first typed error (if any) on each side.
#[derive(Debug)]
struct Outcome {
    got: Vec<u8>,
    server_err: Option<SockError>,
    client_err: Option<SockError>,
}

/// Drive one `total`-byte client->server stream over `stype` with fault
/// plans installed on both directions, to completion or typed failure.
/// Panics if the simulation itself fails (deadlock or watchdog).
fn run_lossy_stream(
    stype: SockType,
    plan_to_m0: FaultPlan,
    plan_to_m1: FaultPlan,
    total: usize,
) -> Outcome {
    let mut sim = Simulation::new();
    let got = Arc::new(Mutex::new(Vec::new()));
    let server_err = Arc::new(Mutex::new(None));
    let client_err = Arc::new(Mutex::new(None));
    let finished = Arc::new(AtomicU32::new(0));

    let run = {
        let got = Arc::clone(&got);
        let server_err = Arc::clone(&server_err);
        let client_err = Arc::clone(&client_err);
        let finished = Arc::clone(&finished);
        move |ctx: &dsim::SimCtx, m0: simos::Machine, m1: simos::Machine| {
            let (cp, sp) = testbed::procs(&m0, &m1);
            {
                let server_err = Arc::clone(&server_err);
                let finished = Arc::clone(&finished);
                ctx.handle().spawn("server", move |sctx| {
                    let s = api::socket(sctx, &sp, stype).unwrap();
                    api::bind(sctx, &sp, s, SockAddr::new(HostId(1), PORT)).unwrap();
                    api::listen(sctx, &sp, s, 1).unwrap();
                    match api::accept(sctx, &sp, s) {
                        Ok((c, _)) => {
                            loop {
                                match api::recv(sctx, &sp, c, 8192) {
                                    Ok(d) if d.is_empty() => break,
                                    Ok(d) => got.lock().extend_from_slice(&d),
                                    Err(e) => {
                                        *server_err.lock() = Some(e);
                                        break;
                                    }
                                }
                            }
                            let _ = api::close(sctx, &sp, c);
                        }
                        Err(e) => *server_err.lock() = Some(e),
                    }
                    let _ = api::close(sctx, &sp, s);
                    finished.fetch_add(1, Ordering::Relaxed);
                });
            }
            let client_err = Arc::clone(&client_err);
            let finished = Arc::clone(&finished);
            ctx.handle().spawn("client", move |cctx| {
                cctx.sleep(SimDuration::from_millis(1));
                let s = api::socket(cctx, &cp, stype).unwrap();
                let res = api::connect(cctx, &cp, s, SockAddr::new(HostId(1), PORT))
                    .and_then(|_| {
                        let mut data = vec![0u8; total];
                        dsim::rng::fill_pattern(PATTERN_SEED, 0, &mut data);
                        api::send_all(cctx, &cp, s, &data)
                    });
                if let Err(e) = res {
                    *client_err.lock() = Some(e);
                }
                let _ = api::close(cctx, &cp, s);
                finished.fetch_add(1, Ordering::Relaxed);
            });
        }
    };

    match stype {
        SockType::Via => {
            let (m0, m1, _f0, _f1) = testbed::sovia_pair_with_faults(
                &sim.handle(),
                SoviaConfig::default(),
                &plan_to_m0,
                &plan_to_m1,
            );
            sim.spawn("boot", move |ctx| run(ctx, m0, m1));
        }
        SockType::Stream => {
            let (m0, m1, _f01, _f10) = testbed::tcp_ethernet_pair_with_faults(
                &sim.handle(),
                &plan_to_m1,
                &plan_to_m0,
            );
            sim.spawn("boot", move |ctx| run(ctx, m0, m1));
        }
    }
    {
        let finished = Arc::clone(&finished);
        sim.spawn("watchdog", move |ctx| {
            ctx.sleep(WATCHDOG);
            let n = finished.load(Ordering::Relaxed);
            assert!(n == 2, "lossy stream hung: {n}/2 sides finished by t={WATCHDOG:?}");
        });
    }
    if let Err(e) = sim.run() {
        panic!("simulation failed: {e}");
    }

    let got = std::mem::take(&mut *got.lock());
    let server_err = *server_err.lock();
    let client_err = *client_err.lock();
    Outcome {
        got,
        server_err,
        client_err,
    }
}

/// The shared postcondition: exact in-order delivery, or a typed error.
fn check_outcome(out: &Outcome, total: usize) {
    // Whatever arrived must be an exact in-order prefix of what was sent:
    // no corruption, no reordering, no duplication reaching the app.
    assert!(
        out.got.len() <= total,
        "over-delivery: got {} of {} bytes",
        out.got.len(),
        total
    );
    if let Some(bad) = dsim::rng::check_pattern(PATTERN_SEED, 0, &out.got) {
        panic!(
            "corrupted stream at offset {bad} ({} bytes delivered)",
            out.got.len()
        );
    }
    // Short delivery without a typed error anywhere is silent truncation.
    if out.got.len() < total {
        assert!(
            out.server_err.is_some() || out.client_err.is_some(),
            "silent truncation: {} of {} bytes, no error on either side",
            out.got.len(),
            total
        );
    }
}

/// Build both directions' plans from one seed and permille probabilities
/// (integers, so a printed case replays exactly).
fn plans(
    seed: u64,
    drop_pm: u32,
    dup_pm: u32,
    reorder_pm: u32,
    hold: SimDuration,
) -> (FaultPlan, FaultPlan) {
    let mk = |s: u64| {
        FaultPlan {
            seed: s,
            ..FaultPlan::default()
        }
        .with_drop(drop_pm as f64 / 1000.0)
        .with_duplicate(dup_pm as f64 / 1000.0)
        .with_reorder(reorder_pm as f64 / 1000.0, hold)
    };
    (mk(seed), mk(seed ^ 0x9E37_79B9_7F4A_7C15))
}

/// Cases per property; each case is a whole simulation.
const CASES: u32 = 24;

/// Plan seed, drop/duplicate/reorder permille, and stream length.
fn lossy_case(rng: &mut SimRng) -> Option<(u64, u32, u32, u32, usize)> {
    let seed = rng.next_u64();
    let drop_pm = range(rng, 0..200) as u32;
    let dup_pm = range(rng, 0..100) as u32;
    let reorder_pm = range(rng, 0..100) as u32;
    let total = range(rng, 4_096..32_768);
    Some((seed, drop_pm, dup_pm, reorder_pm, total))
}

/// TCP recovers from loss/duplication/reordering by retransmission:
/// the stream either arrives exactly, or dies with a typed error
/// (e.g. the retry cap resetting the connection) — never silently
/// wrong, never hung.
#[test]
fn tcp_stream_exact_or_typed_error() {
    check(
        "proptest_faults::tcp_stream_exact_or_typed_error",
        CASES,
        lossy_case,
        |(seed, drop_pm, dup_pm, reorder_pm, total)| {
            let hold = SimDuration::from_micros(200);
            let (to_m0, to_m1) = plans(seed, drop_pm, dup_pm, reorder_pm, hold);
            let out = run_lossy_stream(SockType::Stream, to_m0, to_m1, total);
            check_outcome(&out, total);
        },
    );
}

/// SOVIA runs over reliable-delivery VIs: any wire fault the NIC
/// cannot absorb (drops, reordering; duplicates are discarded by
/// sequence check) breaks the connection, and that break must surface
/// as a typed error on at least one side — never as a hang or a
/// silently short/corrupt stream.
#[test]
fn sovia_stream_exact_or_typed_error() {
    check(
        "proptest_faults::sovia_stream_exact_or_typed_error",
        CASES,
        lossy_case,
        |(seed, drop_pm, dup_pm, reorder_pm, total)| {
            let hold = SimDuration::from_micros(50);
            let (to_m0, to_m1) = plans(seed, drop_pm, dup_pm, reorder_pm, hold);
            let out = run_lossy_stream(SockType::Via, to_m0, to_m1, total);
            check_outcome(&out, total);
        },
    );
}
