//! Edge-case tests on the substrates that the protocol suites exercise
//! only implicitly.

use std::sync::Arc;

use dsim::sync::SimQueue;
use dsim::{SimDuration, SimError, Simulation};
use parking_lot::Mutex;
use sovia_repro::simos::fs::OpenMode;
use sovia_repro::simos::{HostCosts, HostId, Machine};
use sovia_repro::via::{
    Descriptor, MemRegion, ViAttributes, ViState, ViaNic, ViaNicId, WaitMode,
};

#[test]
fn spawn_delayed_starts_on_time() {
    let mut sim = Simulation::new();
    let started = Arc::new(Mutex::new(0u64));
    let s2 = Arc::clone(&started);
    sim.handle()
        .spawn_delayed("late", SimDuration::from_micros(250), move |ctx| {
            *s2.lock() = ctx.now().as_nanos();
        });
    sim.run().unwrap();
    assert_eq!(*started.lock(), 250_000);
}

#[test]
fn queue_len_tracks_pushes_and_pops() {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let q = SimQueue::<u8>::new(&h);
    sim.spawn("main", move |_ctx| {
        assert!(q.is_empty());
        q.push(1);
        q.push(2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.len(), 1);
        assert_eq!(q.try_pop(), Some(2));
        assert_eq!(q.try_pop(), None);
    });
    sim.run().unwrap();
}

#[test]
fn deadlock_error_is_catchable_and_names_the_culprit() {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let q = SimQueue::<u8>::new(&h);
    sim.spawn("starved-consumer", move |ctx| {
        let _ = q.pop(ctx); // nobody will push
    });
    match sim.run() {
        Err(SimError::Deadlock { parked, .. }) => {
            assert_eq!(parked, vec!["starved-consumer".to_string()]);
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn file_seek_and_overwrite() {
    let sim = Simulation::new();
    let m = Machine::new(&sim.handle(), HostId(0), "m", HostCosts::free());
    m.fs().add_file("f", b"0123456789".to_vec());
    let w = m.fs().open("f", OpenMode::Append).unwrap();
    w.seek(4);
    w.write(b"XY").unwrap();
    assert_eq!(m.fs().contents("f").unwrap(), b"0123XY6789");
    // Append positioned the handle at EOF originally; seek moved it.
    assert_eq!(w.len(), 10);
}

#[test]
fn via_post_send_on_unconnected_vi_fails_cleanly() {
    let mut sim = Simulation::new();
    let m0 = Machine::new(&sim.handle(), HostId(0), "m0", HostCosts::free());
    let n0 = ViaNic::attach(&m0, ViaNicId(0), simnic::clan1000_nic());
    sim.spawn("main", move |ctx| {
        let p = m0.spawn_process("p");
        let vi = n0.create_vi(ViAttributes::default());
        assert_eq!(vi.state(), ViState::Idle);
        let va = p.alloc(ctx, 4096);
        let region = MemRegion::register(ctx, &p, va, 4096);
        let err = vi
            .post_send(ctx, Descriptor::send(region, 0, 8, None))
            .unwrap_err();
        assert_eq!(err, sovia_repro::via::VipError::NotConnected);
        // Receives may be pre-posted before connecting (and must be).
        let va2 = p.alloc(ctx, 4096);
        let r2 = MemRegion::register(ctx, &p, va2, 4096);
        vi.post_recv(ctx, Descriptor::recv(r2, 0, 64)).unwrap();
        assert_eq!(vi.recv_pending(), 1);
    });
    sim.run().unwrap();
}

#[test]
fn via_zero_byte_message_with_immediate_data() {
    // SOVIA's ACK packets are exactly this: no payload, all semantics in
    // the 32-bit immediate field.
    let mut sim = Simulation::new();
    let m0 = Machine::new(&sim.handle(), HostId(0), "m0", HostCosts::free());
    let m1 = Machine::new(&sim.handle(), HostId(1), "m1", HostCosts::free());
    let n0 = ViaNic::attach(&m0, ViaNicId(0), simnic::clan1000_nic());
    let n1 = ViaNic::attach(&m1, ViaNicId(1), simnic::clan1000_nic());
    ViaNic::connect_pair(&n0, &n1, simnic::clan_link());
    let got = Arc::new(Mutex::new(None));
    {
        let n1 = Arc::clone(&n1);
        let got = Arc::clone(&got);
        sim.spawn("rx", move |ctx| {
            let p = m1.spawn_process("rx");
            let vi = n1.create_vi(ViAttributes::default());
            n1.listen(9);
            let va = p.alloc(ctx, 4096);
            let region = MemRegion::register(ctx, &p, va, 4096);
            vi.post_recv(ctx, Descriptor::recv(region, 0, 64)).unwrap();
            let pending = n1.connect_wait(ctx, 9);
            n1.connect_accept(ctx, &pending, &vi).unwrap();
            let d = vi.recv_wait(ctx, WaitMode::Poll).unwrap();
            let st = d.status();
            *got.lock() = Some((st.xfer_len, st.immediate));
        });
    }
    {
        let n0 = Arc::clone(&n0);
        sim.spawn("tx", move |ctx| {
            let p = m0.spawn_process("tx");
            let vi = n0.create_vi(ViAttributes::default());
            ctx.sleep(SimDuration::from_micros(50));
            n0.connect_request(ctx, &vi, ViaNicId(1), 9).unwrap();
            let va = p.alloc(ctx, 4096);
            let region = MemRegion::register(ctx, &p, va, 4096);
            vi.post_send(ctx, Descriptor::send(region, 0, 0, Some(0xCAFE)))
                .unwrap();
            let _ = vi.send_wait(ctx, WaitMode::Poll).unwrap();
        });
    }
    sim.run().unwrap();
    assert_eq!(*got.lock(), Some((0, Some(0xCAFE))));
}

#[test]
fn kernel_cpu_contention_is_visible_in_timing() {
    // Two "kernel" workers charging 50 us each on one machine finish at
    // 50 and 100 us; on two machines both finish at 50 us.
    fn run(machines: usize) -> Vec<u64> {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let ms: Vec<Machine> = (0..machines)
            .map(|i| Machine::new(&h, HostId(i as u32), format!("m{i}"), HostCosts::free()))
            .collect();
        let ends = Arc::new(Mutex::new(Vec::new()));
        for i in 0..2 {
            let m = ms[i % machines].clone();
            let ends = Arc::clone(&ends);
            sim.spawn(format!("w{i}"), move |ctx| {
                sovia_repro::simos::KernelCpu::of(&m)
                    .sleep(ctx, SimDuration::from_micros(50));
                ends.lock().push(ctx.now().as_nanos());
            });
        }
        sim.run().unwrap();
        let mut v = ends.lock().clone();
        v.sort_unstable();
        v
    }
    assert_eq!(run(1), vec![50_000, 100_000]);
    assert_eq!(run(2), vec![50_000, 50_000]);
}
