//! Determinism regression tests: every paper experiment must be
//! bit-identical run to run, and must match the values recorded from the
//! OS-thread scheduler that the coroutine dispatch loop replaced (how
//! processes are carried changes *how fast* events are dispatched, never
//! *what* they compute).

use bench::figures::{self, SweepOutcome};
use bench::micro::{self, Variant};
use sovia::SoviaConfig;

#[test]
fn fig6a_pingpong_repeats_bit_identical() {
    let run = || {
        let out = micro::latency_traced(&Variant::Sovia(SoviaConfig::single()), 64, 10, None);
        (out.value, out.stats)
    };
    let (lat_a, stats_a) = run();
    let (lat_b, stats_b) = run();
    assert!(lat_a > 0.0);
    assert_eq!(lat_a.to_bits(), lat_b.to_bits(), "latency drifted between runs");
    assert_eq!(stats_a, stats_b, "dispatch counters drifted between runs");
}

#[test]
fn fig6a_pingpong_matches_recorded_values() {
    let out = micro::latency_traced(&Variant::Sovia(SoviaConfig::single()), 64, 10, None);
    let (lat, stats) = (out.value, out.stats);
    assert_eq!(lat.to_bits(), 0x4029_970a_3d70_a3d7, "latency moved: {lat} µs (recorded 12.795)");
    assert_eq!(stats.events_processed, 740, "event count moved");
    assert_eq!(stats.wakeups, 688);
    // Every wake is dispatched by the loop; the self-wakes are exactly the
    // ones the thread scheduler delivered without an OS switch.
    assert_eq!(stats.direct_handoffs, 0);
    assert_eq!(stats.self_wakes, 336);
    assert_eq!(stats.coordinator_wakes, 688 - 336);
}

#[test]
fn fig6b_stream_matches_recorded_values() {
    let run = || {
        let v = Variant::Sovia(SoviaConfig::combine());
        let out = micro::bandwidth_traced(&v, 4096, 256 * 1024, None);
        (out.value, out.stats)
    };
    let (bw, stats) = run();
    assert_eq!(bw.to_bits(), 0x4084_7962_de53_8ec0, "bandwidth moved: {bw} Mb/s");
    assert_eq!(stats.events_processed, 1595, "event count moved");
    assert_eq!(stats.wakeups, 1517);
    // Repeatability, counters included.
    let (bw2, stats2) = run();
    assert_eq!(bw.to_bits(), bw2.to_bits());
    assert_eq!(stats, stats2);
}

/// Assert two sweep passes are bit-identical: rendered table, per-point
/// virtual-time values, and per-simulation event counts.
fn assert_sweeps_identical(
    title: &str,
    sizes: &[usize],
    base: &SweepOutcome,
    other: &SweepOutcome,
    threads: usize,
) {
    assert_eq!(
        micro::render_table(title, "unit", sizes, &base.series),
        micro::render_table(title, "unit", sizes, &other.series),
        "{title}: rendered table drifted at threads={threads}"
    );
    for (s_base, s_other) in base.series.iter().zip(&other.series) {
        assert_eq!(s_base.name, s_other.name);
        for ((sz_a, v_a), (sz_b, v_b)) in s_base.points.iter().zip(&s_other.points) {
            assert_eq!(sz_a, sz_b);
            assert_eq!(
                v_a.to_bits(),
                v_b.to_bits(),
                "{title}: point {}B of {} drifted at threads={threads}",
                sz_a,
                s_base.name
            );
        }
    }
    let events = |o: &SweepOutcome| -> Vec<u64> {
        o.sim_stats.iter().map(|s| s.events_processed).collect()
    };
    assert_eq!(
        events(base),
        events(other),
        "{title}: per-simulation event counts drifted at threads={threads}"
    );
}

/// The parallel runner is host-side only: the fig6a sweep is
/// bit-identical at threads 1, 2, and 8.
#[test]
fn fig6a_sweep_identical_across_thread_counts() {
    let sizes = [4usize, 64];
    let run = |threads| figures::run_fig6a_sweep(&sizes, 8, threads);
    let base = run(1);
    assert!(base.series.iter().all(|s| s.points.iter().all(|&(_, v)| v > 0.0)));
    for threads in [2, 8] {
        assert_sweeps_identical("fig6a", &sizes, &base, &run(threads), threads);
    }
}

/// Same for the fig6b sweep (bandwidth workload: NIC service threads,
/// doorbells, payloads in flight).
#[test]
fn fig6b_sweep_identical_across_thread_counts() {
    let sizes = [2048usize];
    let run = |threads| figures::run_fig6b_sweep(&sizes, |_| 128 * 1024, threads);
    let base = run(1);
    assert!(base.series.iter().all(|s| s.points.iter().all(|&(_, v)| v > 0.0)));
    for threads in [2, 8] {
        assert_sweeps_identical("fig6b", &sizes, &base, &run(threads), threads);
    }
}

/// The fig7 grid (platforms × argument sizes) and the two ablation
/// grids render identically at threads 1 and 8.
#[test]
fn fig7_and_ablation_grids_identical_across_thread_counts() {
    use bench::{ablate, fig7};

    let sizes = [0usize, 256];
    let render = |threads| {
        let mut series = fig7::run_fig7_with(&sizes, threads);
        series.extend(ablate::handshake_comparison(&sizes[1..], threads));
        series.push(ablate::handler_gap_us(&sizes[1..], threads));
        format!("{series:?}")
    };
    let base = render(1);
    assert!(base.contains("RPC/TCP(FastEth)") && base.contains("three-way (REQ/ACK)"));
    assert_eq!(base, render(8), "grids drifted at threads=8");
}

// ----- fault layer -----------------------------------------------------

/// Run a small request/response exchange and return (finish time, sched
/// counters). `faulted` selects the fault-wrapped pair builders with an
/// *empty* plan on both lanes — which must be a bitwise no-op.
fn exchange(stype: sockets::SockType, faulted: bool) -> (dsim::SimTime, dsim::SchedStats) {
    use dsim::{SimDuration, Simulation};
    use simnic::FaultPlan;
    use simos::HostId;
    use sockets::{api, SockAddr};
    use sovia_repro::testbed;

    let mut sim = Simulation::new();
    let h = sim.handle();
    let empty = FaultPlan::empty();
    let (m0, m1) = match (stype, faulted) {
        (sockets::SockType::Via, false) => testbed::sovia_pair(&h, SoviaConfig::default()),
        (sockets::SockType::Via, true) => {
            let (m0, m1, f0, f1) =
                testbed::sovia_pair_with_faults(&h, SoviaConfig::default(), &empty, &empty);
            assert_eq!(f0.stats().injected(), 0);
            assert_eq!(f1.stats().injected(), 0);
            (m0, m1)
        }
        (sockets::SockType::Stream, false) => testbed::tcp_ethernet_pair(&h),
        (sockets::SockType::Stream, true) => {
            let (m0, m1, _f01, _f10) =
                testbed::tcp_ethernet_pair_with_faults(&h, &empty, &empty);
            (m0, m1)
        }
    };
    let (cp, sp) = testbed::procs(&m0, &m1);
    sim.spawn("server", move |ctx| {
        let s = api::socket(ctx, &sp, stype).unwrap();
        api::bind(ctx, &sp, s, SockAddr::new(HostId(1), 7070)).unwrap();
        api::listen(ctx, &sp, s, 1).unwrap();
        let (c, _) = api::accept(ctx, &sp, s).unwrap();
        let req = api::recv_exact(ctx, &sp, c, 16 * 1024).unwrap();
        api::send_all(ctx, &sp, c, &req).unwrap();
        api::close(ctx, &sp, c).unwrap();
        api::close(ctx, &sp, s).unwrap();
    });
    sim.spawn("client", move |ctx| {
        ctx.sleep(SimDuration::from_millis(1));
        let s = api::socket(ctx, &cp, stype).unwrap();
        api::connect(ctx, &cp, s, SockAddr::new(HostId(1), 7070)).unwrap();
        api::send_all(ctx, &cp, s, &vec![0xABu8; 16 * 1024]).unwrap();
        let echo = api::recv_exact(ctx, &cp, s, 16 * 1024).unwrap();
        assert_eq!(echo.len(), 16 * 1024);
        api::close(ctx, &cp, s).unwrap();
    });
    let end = sim.run().unwrap();
    (end, sim.sched_stats())
}

/// The empty `FaultPlan` is a strict no-op: routing a workload through
/// the fault-wrapped pair builders yields the *same simulation* — same
/// finish time, same event count — as the plain builders, for both the
/// SOVIA (VIA NIC wrapper) and TCP (link-lane wrapper) paths.
#[test]
fn empty_fault_plan_is_bitwise_noop() {
    for stype in [sockets::SockType::Via, sockets::SockType::Stream] {
        let (t_plain, s_plain) = exchange(stype, false);
        let (t_fault, s_fault) = exchange(stype, true);
        assert_eq!(
            t_plain, t_fault,
            "{stype:?}: empty fault plan shifted the finish time"
        );
        assert_eq!(
            s_plain.events_processed, s_fault.events_processed,
            "{stype:?}: empty fault plan changed the event count"
        );
    }
}

/// The fault sweep — seeded drops and all — is bit-identical at host
/// thread counts 1, 2, and 8: the rendered table, every goodput and
/// stall value, every fault counter, every per-point event count.
#[test]
fn fault_sweep_identical_across_thread_counts() {
    use bench::fault_sweep::{render_fault_table, run_fault_sweep_seeded, SWEEP_SEED};

    let base = run_fault_sweep_seeded(1, SWEEP_SEED);
    assert!(base.iter().all(|p| p.goodput_mbps > 0.0));
    // Losses actually fired on the lossy points.
    assert!(base.iter().any(|p| p.faults.dropped > 0));
    for threads in [2, 8] {
        let other = run_fault_sweep_seeded(threads, SWEEP_SEED);
        assert_eq!(
            render_fault_table(&base),
            render_fault_table(&other),
            "fault table drifted at threads={threads}"
        );
        for (a, b) in base.iter().zip(&other) {
            assert_eq!(a.goodput_mbps.to_bits(), b.goodput_mbps.to_bits());
            assert_eq!(a.max_stall_us.to_bits(), b.max_stall_us.to_bits());
            assert_eq!(a.faults, b.faults, "fault counters drifted at threads={threads}");
            assert_eq!(
                a.stats.events_processed, b.stats.events_processed,
                "event counts drifted at threads={threads}"
            );
        }
    }
}

#[test]
fn tcp_lane_stream_matches_recorded_values() {
    // The TCP-over-LANE variant exercises a different machine topology
    // (kernel stack + timer daemons); cover it too.
    let out = micro::bandwidth_traced(&Variant::TcpLane, 4096, 128 * 1024, None);
    let (bw, stats) = (out.value, out.stats);
    assert_eq!(bw.to_bits(), 0x407c_57e6_ea16_1f9b, "bandwidth moved: {bw} Mb/s");
    assert_eq!(stats.events_processed, 4658, "event count moved");
    assert_eq!(stats.wakeups, 4321);
}
