//! Scheduler edge cases. Expected end times and event counts were recorded
//! from the OS-thread scheduler the coroutine dispatch loop replaced (and
//! matched by both of its dispatch paths): changing how processes are
//! carried must never change what they compute.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use dsim::rng::SimRng;
use dsim::sync::SimQueue;
use dsim::{ProcStats, SimCtx, SimDuration, SimError, SimHandle, SimTime, Simulation};
use parking_lot::Mutex;

/// Run `scenario` on a fresh simulation and check its event count.
fn run_expecting<T>(events: u64, scenario: impl FnOnce(&mut Simulation) -> T) -> T {
    let mut sim = Simulation::new();
    let out = scenario(&mut sim);
    assert_eq!(sim.events_processed(), events, "event count moved");
    out
}

#[test]
fn run_with_limit_exact_boundary() {
    // 1 spawn (a Call event) + 10 sleeps (wake events) = 11 events. A
    // budget of exactly 11 completes; a budget of 10 fails with
    // `processed: 10`.
    let spawn_sleeper = |sim: &mut Simulation| {
        sim.spawn("sleeper", |ctx| {
            for _ in 0..10 {
                ctx.sleep(SimDuration::from_micros(1));
            }
        });
    };
    let end = run_expecting(11, |sim| {
        spawn_sleeper(sim);
        sim.run_with_limit(11).expect("exact budget must suffice")
    });
    assert_eq!(end.as_nanos(), 10_000);

    let (at, processed) = run_expecting(11, |sim| {
        spawn_sleeper(sim);
        match sim.run_with_limit(10) {
            Err(SimError::EventLimit { at, processed }) => (at.as_nanos(), processed),
            other => panic!("expected EventLimit, got {other:?}"),
        }
    });
    assert_eq!(processed, 10);
    // `at` is the virtual time of the event the budget refused to run.
    assert_eq!(at, 10_000);
}

#[test]
fn daemon_only_deadlock_is_reported() {
    // One non-daemon starves on a queue while a daemon idles on another:
    // the deadlock report must name only the non-daemon.
    let parked = run_expecting(2, |sim| {
        let h = sim.handle();
        let q = SimQueue::<u8>::new(&h);
        let dq = SimQueue::<u8>::new(&h);
        {
            let dq = Arc::clone(&dq);
            sim.spawn_daemon("idle-engine", move |ctx| {
                let _ = dq.pop(ctx);
            });
        }
        sim.spawn("starved", move |ctx| {
            let _ = q.pop(ctx);
        });
        match sim.run() {
            Err(SimError::Deadlock { parked, .. }) => parked,
            other => panic!("expected deadlock, got {other:?}"),
        }
    });
    assert_eq!(parked, vec!["starved".to_string()]);
}

#[test]
fn token_ring_matches_recorded_values() {
    // A three-process token ring: every wake targets a *different*
    // process, so every dispatch is a switch between coroutines.
    let end = run_expecting(605, |sim| {
        let h = sim.handle();
        let qs: Vec<_> = (0..3).map(|_| SimQueue::<u32>::new(&h)).collect();
        for i in 0..3 {
            let rx = Arc::clone(&qs[i]);
            let tx = Arc::clone(&qs[(i + 1) % 3]);
            sim.spawn(format!("ring{i}"), move |ctx| {
                if i == 0 {
                    tx.push(0);
                }
                loop {
                    let v = rx.pop(ctx);
                    if v >= 300 {
                        if i != 0 {
                            tx.push(v); // let the rest of the ring drain
                        }
                        break;
                    }
                    ctx.sleep(SimDuration::from_nanos(10));
                    tx.push(v + 1);
                }
            });
        }
        sim.run().unwrap().as_nanos()
    });
    assert_eq!(end, 300 / 3 * 3 * 10);
}

/// Spawn a process whose body records that it ran, delayed so its `Start`
/// wake is still queued when `run` stops.
fn spawn_late(sim: &Simulation) -> Arc<AtomicBool> {
    let ran = Arc::new(AtomicBool::new(false));
    let r = Arc::clone(&ran);
    sim.handle()
        .spawn_delayed("late", SimDuration::from_micros(100), move |_| {
            r.store(true, Ordering::Relaxed);
        });
    ran
}

#[test]
fn never_started_process_is_not_run_after_a_panic() {
    // Teardown used to hand the unstarted process `Shutdown`: a debug
    // build hung in `run()`, a release build ran the body.
    let mut sim = Simulation::new();
    let late_ran = spawn_late(&sim);
    sim.spawn("bad", |ctx| {
        ctx.sleep(SimDuration::from_micros(1));
        panic!("boom");
    });
    match sim.run() {
        Err(SimError::ProcessPanicked { name, .. }) => assert_eq!(name, "bad"),
        other => panic!("expected ProcessPanicked, got {other:?}"),
    }
    assert!(
        !late_ran.load(Ordering::Relaxed),
        "unstarted body ran during teardown"
    );
}

#[test]
fn never_started_process_is_not_run_after_the_event_limit() {
    let mut sim = Simulation::new();
    let late_ran = spawn_late(&sim);
    sim.spawn("spin", |ctx| loop {
        ctx.sleep(SimDuration::from_nanos(1));
    });
    match sim.run_with_limit(50) {
        Err(SimError::EventLimit { processed, .. }) => assert_eq!(processed, 50),
        other => panic!("expected EventLimit, got {other:?}"),
    }
    assert!(
        !late_ran.load(Ordering::Relaxed),
        "unstarted body ran during teardown"
    );
}

#[test]
fn panic_unwinds_every_parked_sibling_and_daemon() {
    // Each process holds a guard whose drop counts it as unwound.
    struct Unwound(Arc<Mutex<Vec<String>>>, &'static str);
    impl Drop for Unwound {
        fn drop(&mut self) {
            self.0.lock().push(self.1.to_string());
        }
    }
    let mut sim = Simulation::new();
    let h = sim.handle();
    let log = Arc::new(Mutex::new(Vec::new()));
    let idle = SimQueue::<u8>::new(&h);
    for name in ["sibling-a", "sibling-b"] {
        let (log, idle) = (Arc::clone(&log), Arc::clone(&idle));
        sim.spawn(name, move |ctx| {
            let _guard = Unwound(log, name);
            let _ = idle.pop(ctx);
        });
    }
    {
        let log = Arc::clone(&log);
        sim.spawn_daemon("engine", move |ctx| {
            let _guard = Unwound(log, "engine");
            loop {
                ctx.sleep(SimDuration::from_micros(1));
            }
        });
    }
    {
        let log = Arc::clone(&log);
        sim.spawn("bad", move |ctx| {
            let _guard = Unwound(log, "bad");
            ctx.sleep(SimDuration::from_micros(5));
            panic!("boom");
        });
    }
    match sim.run() {
        Err(SimError::ProcessPanicked { name, message }) => {
            assert_eq!(name, "bad");
            assert!(message.contains("boom"));
        }
        other => panic!("expected ProcessPanicked, got {other:?}"),
    }
    let mut unwound = log.lock().clone();
    unwound.sort();
    assert_eq!(unwound, ["bad", "engine", "sibling-a", "sibling-b"]);
}

#[test]
fn empty_simulation_finishes_at_zero() {
    let mut sim = Simulation::new();
    assert_eq!(sim.run().unwrap(), SimTime::ZERO);
}

#[test]
fn single_process_sleeps() {
    let mut sim = Simulation::new();
    let t_end = Arc::new(AtomicU64::new(0));
    let t2 = Arc::clone(&t_end);
    sim.spawn("sleeper", move |ctx| {
        ctx.sleep(SimDuration::from_micros(10));
        ctx.sleep(SimDuration::from_micros(5));
        t2.store(ctx.now().as_nanos(), Ordering::Relaxed);
    });
    let end = sim.run().unwrap();
    assert_eq!(t_end.load(Ordering::Relaxed), 15_000);
    assert_eq!(end.as_nanos(), 15_000);
}

#[test]
fn processes_interleave_deterministically() {
    let mut sim = Simulation::new();
    let log = Arc::new(Mutex::new(Vec::new()));
    for (name, start, step) in [("a", 1u64, 3u64), ("b", 2, 3)] {
        let log = Arc::clone(&log);
        sim.spawn(name, move |ctx| {
            ctx.sleep(SimDuration::from_micros(start));
            for _ in 0..3 {
                log.lock().push((name, ctx.now().as_nanos()));
                ctx.sleep(SimDuration::from_micros(step));
            }
        });
    }
    sim.run().unwrap();
    let got = log.lock().clone();
    assert_eq!(
        got,
        vec![
            ("a", 1_000),
            ("b", 2_000),
            ("a", 4_000),
            ("b", 5_000),
            ("a", 7_000),
            ("b", 8_000),
        ]
    );
}

#[test]
fn same_instant_events_fire_in_schedule_order() {
    let mut sim = Simulation::new();
    let log = Arc::new(Mutex::new(Vec::new()));
    let h = sim.handle();
    for i in 0..5 {
        let log = Arc::clone(&log);
        h.schedule_in(SimDuration::from_micros(1), move |_| {
            log.lock().push(i);
        });
    }
    sim.run().unwrap();
    assert_eq!(log.lock().clone(), vec![0, 1, 2, 3, 4]);
}

#[test]
fn nested_spawn() {
    let mut sim = Simulation::new();
    let sum = Arc::new(AtomicU64::new(0));
    let s2 = Arc::clone(&sum);
    sim.spawn("parent", move |ctx| {
        ctx.sleep(SimDuration::from_micros(1));
        let s3 = Arc::clone(&s2);
        ctx.handle().spawn("child", move |cctx| {
            cctx.sleep(SimDuration::from_micros(2));
            s3.fetch_add(cctx.now().as_nanos(), Ordering::Relaxed);
        });
        ctx.sleep(SimDuration::from_micros(10));
    });
    let end = sim.run().unwrap();
    assert_eq!(sum.load(Ordering::Relaxed), 3_000);
    assert_eq!(end.as_nanos(), 11_000);
}

#[test]
fn process_panic_is_reported() {
    let mut sim = Simulation::new();
    sim.spawn("bad", |_| panic!("boom"));
    match sim.run() {
        Err(SimError::ProcessPanicked { name, message }) => {
            assert_eq!(name, "bad");
            assert!(message.contains("boom"));
        }
        other => panic!("expected panic error, got {other:?}"),
    }
}

#[test]
fn event_limit_guard() {
    let mut sim = Simulation::new();
    sim.spawn("spin", |ctx| loop {
        ctx.sleep(SimDuration::from_nanos(1));
    });
    match sim.run_with_limit(100) {
        Err(SimError::EventLimit { .. }) => {}
        other => panic!("expected event-limit error, got {other:?}"),
    }
}

#[test]
fn yield_now_interleaves() {
    let mut sim = Simulation::new();
    let log = Arc::new(Mutex::new(Vec::new()));
    for name in ["x", "y"] {
        let log = Arc::clone(&log);
        sim.spawn(name, move |ctx| {
            for _ in 0..2 {
                log.lock().push(name);
                ctx.yield_now();
            }
        });
    }
    sim.run().unwrap();
    assert_eq!(log.lock().clone(), vec!["x", "y", "x", "y"]);
}

#[test]
fn proc_stats_account_runtime_and_wakeups() {
    let mut sim = Simulation::new();
    sim.spawn("worker", |ctx| {
        ctx.sleep(SimDuration::from_micros(10));
        ctx.sleep(SimDuration::from_micros(5));
    });
    sim.run().unwrap();
    let procs = sim.proc_stats();
    assert_eq!(procs.len(), 1);
    assert_eq!(procs[0].name, "worker");
    // Runtime = the two charged sleeps; wakeups = Start + 2 sleeps.
    assert_eq!(procs[0].runtime, SimDuration::from_micros(15));
    assert_eq!(procs[0].wakeups, 3);
    assert_eq!(sim.sched_stats().wakeups, 3);
}

#[test]
fn proc_stats_match_recorded_values() {
    // Expected values recorded from the OS-thread scheduler this one
    // replaced: dispatch must not move a single virtual nanosecond.
    let mut sim = Simulation::new();
    for name in ["a", "b"] {
        sim.spawn(name, |ctx| {
            for _ in 0..4 {
                ctx.sleep(SimDuration::from_micros(3));
                ctx.yield_now();
            }
        });
    }
    assert_eq!(sim.run().unwrap().as_nanos(), 12_000);
    assert_eq!(sim.events_processed(), 18);
    let expected = |pid: u64, name: &str| ProcStats {
        pid,
        name: name.to_string(),
        daemon: false,
        runtime: SimDuration::from_micros(12),
        wakeups: 9,
    };
    assert_eq!(sim.proc_stats(), vec![expected(0, "a"), expected(1, "b")]);
    let stats = sim.sched_stats();
    assert_eq!(stats.wakeups, 18);
    assert_eq!(stats.direct_handoffs, 0);
    assert_eq!(stats.self_wakes + stats.coordinator_wakes, stats.wakeups);
}

#[test]
fn trace_records_spans_and_names() {
    use dsim::{SimCtx, TraceConfig, TraceKind, TraceLayer, TraceTag};
    let us = SimDuration::from_micros;
    let body = move |ctx: &SimCtx| {
        ctx.sleep(us(1));
        ctx.charge(
            TraceLayer::Kernel,
            TraceKind::Syscall,
            us(2),
            TraceTag::bytes(4),
        );
        assert_eq!(ctx.now().as_nanos(), 3_000);
        ctx.charge(
            TraceLayer::Via,
            TraceKind::Poll,
            SimDuration::ZERO,
            TraceTag::on_conn(7),
        );
        assert_eq!(ctx.now().as_nanos(), 3_000);
    };
    let mut sim = Simulation::with_trace(Some(TraceConfig::default()));
    sim.spawn("worker", body);
    assert_eq!(sim.run().unwrap().as_nanos(), 3_000);
    let data = sim.take_trace().expect("tracing was enabled");
    assert_eq!(data.names, vec![(0, "worker".to_string())]);
    let spans: Vec<_> = data
        .events
        .iter()
        .map(|e| (e.start_ns, e.dur_ns, e.pid, e.layer, e.kind, e.tag))
        .collect();
    assert_eq!(
        spans,
        vec![
            (
                1_000,
                2_000,
                0,
                TraceLayer::Kernel,
                TraceKind::Syscall,
                TraceTag::bytes(4)
            ),
            (
                3_000,
                0,
                0,
                TraceLayer::Via,
                TraceKind::Poll,
                TraceTag::on_conn(7)
            ),
        ]
    );
    // Untraced, the same charges advance time identically and report no
    // data; both runs take the events of the bare sleeps, so the zero
    // charge never parked.
    let mut plain = Simulation::new();
    plain.spawn("worker", body);
    assert_eq!(plain.run().unwrap().as_nanos(), 3_000);
    assert!(plain.take_trace().is_none());
    let mut sleeps = Simulation::new();
    sleeps.spawn("worker", move |ctx| {
        ctx.sleep(us(1));
        ctx.sleep(us(2));
    });
    sleeps.run().unwrap();
    assert_eq!(sim.events_processed(), sleeps.events_processed());
    assert_eq!(plain.events_processed(), sleeps.events_processed());
}

/// The order test's record: every event it queues, by schedule index,
/// and the events that fired, in firing order.
#[derive(Default)]
struct Ledger {
    /// The time of each event, by schedule index.
    queued: Vec<u64>,
    /// `(time, schedule index)` per fired event.
    fired: Vec<(u64, usize)>,
}

type SharedLedger = Arc<Mutex<Ledger>>;

/// Delays in ns: small and repeating, so new events often land at the
/// instant of the earliest queued one, or before or after it.
const DELAYS: [u64; 6] = [0, 1, 1, 2, 3, 5];

fn draw_delay(rng: &mut SimRng) -> u64 {
    DELAYS[rng.below(DELAYS.len() as u64) as usize]
}

/// Note an event about to be queued for `at`; returns its schedule index.
fn note_queued(ledger: &SharedLedger, at: u64) -> usize {
    let mut l = ledger.lock();
    l.queued.push(at);
    l.queued.len() - 1
}

fn note_fired(ledger: &SharedLedger, at: SimTime, idx: usize) {
    ledger.lock().fired.push((at.as_nanos(), idx));
}

/// Queue a callback `delay` ns from now. One in two queues another from
/// inside its `Call`.
fn queue_timer(h: &SimHandle, ledger: &SharedLedger, delay: u64, rng: &mut SimRng) {
    let idx = note_queued(ledger, h.now().as_nanos() + delay);
    let (h2, l2) = (h.clone(), Arc::clone(ledger));
    let mut child = SimRng::seed_from(rng.next_u64());
    h.schedule_in(SimDuration::from_nanos(delay), move |now| {
        note_fired(&l2, now, idx);
        if child.below(2) == 0 {
            let d = draw_delay(&mut child);
            queue_timer(&h2, &l2, d, &mut child);
        }
    });
}

/// A process that charges costs (a sleep, or a yield at delay 0) and
/// queues timers.
fn order_process(ctx: &SimCtx, ledger: &SharedLedger, rng: &mut SimRng, steps: u64) {
    for _ in 0..steps {
        let d = draw_delay(rng);
        if rng.below(2) == 0 {
            let idx = note_queued(ledger, ctx.now().as_nanos() + d);
            if d == 0 {
                ctx.yield_now();
            } else {
                ctx.sleep(SimDuration::from_nanos(d));
            }
            note_fired(ledger, ctx.now(), idx);
        } else {
            queue_timer(ctx.handle(), ledger, d, rng);
        }
    }
}

#[test]
fn events_fire_in_time_then_schedule_order() {
    // Every schedule path (spawn, sleep, yield, timers queued before the
    // run, by processes and by callbacks) into an
    // empty queue, before, at and after the earliest queued event: the
    // firing order is the `(time, schedule index)` sort of what was
    // queued.
    for seed in 0..64 {
        let mut rng = SimRng::seed_from(seed);
        let mut sim = Simulation::new();
        let h = sim.handle();
        let ledger = SharedLedger::default();
        for _ in 0..rng.range_inclusive(1, 3) {
            let d = draw_delay(&mut rng);
            queue_timer(&h, &ledger, d, &mut rng);
        }
        for p in 0..rng.range_inclusive(2, 4) {
            let d = draw_delay(&mut rng);
            let idx = note_queued(&ledger, d);
            let (l, mut prng) = (Arc::clone(&ledger), SimRng::seed_from(rng.next_u64()));
            let steps = rng.range_inclusive(40, 80);
            h.spawn_delayed(format!("p{p}"), SimDuration::from_nanos(d), move |ctx| {
                note_fired(&l, ctx.now(), idx);
                order_process(ctx, &l, &mut prng, steps);
            });
        }
        let end = sim.run().expect("the case finishes");
        let l = ledger.lock();
        let mut want: Vec<(u64, usize)> = (l.queued.iter().enumerate())
            .map(|(i, &at)| (at, i))
            .collect();
        want.sort_unstable();
        assert_eq!(l.fired, want, "seed {seed}: firing order");
        assert_eq!(sim.events_processed(), l.queued.len() as u64, "seed {seed}");
        let last = l.queued.iter().max().copied();
        assert_eq!(Some(end.as_nanos()), last, "seed {seed}: end time");
    }
}
