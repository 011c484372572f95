//! Every public [`VipError`] variant, reached through the VIPL API.
//!
//! Each test drives a small two-host simulation to the failing state and
//! asserts both the error returned by the blocking call *and* the
//! completion-queue view (entry present, descriptor status) where a
//! descriptor is involved — a broken VI must look the same to CQ-driven
//! consumers as to blocking waiters.

use std::sync::Arc;

use dsim::{SimDuration, SimTime, Simulation};
use parking_lot::Mutex;
use simnic::{clan1000_nic, clan_link, FaultPlan, ScriptedFault};
use simos::{HostCosts, HostId, Machine, Process};
use via::{
    CompletionQueue, DescState, Descriptor, MemRegion, Reliability, ViAttributes, ViState, Vi,
    ViaNic, ViaNicId, VipError, WaitMode, WqKind,
};

/// Two machines wired back-to-back with cLAN NICs.
fn testbed(sim: &dsim::SimHandle) -> (Machine, Machine, Arc<ViaNic>, Arc<ViaNic>) {
    let m0 = Machine::new(sim, HostId(0), "m0", HostCosts::pentium3_500());
    let m1 = Machine::new(sim, HostId(1), "m1", HostCosts::pentium3_500());
    let n0 = ViaNic::attach(&m0, ViaNicId(0), clan1000_nic());
    let n1 = ViaNic::attach(&m1, ViaNicId(1), clan1000_nic());
    ViaNic::connect_pair(&n0, &n1, clan_link());
    (m0, m1, n0, n1)
}

fn registered_buffer(ctx: &dsim::SimCtx, proc_: &Process, len: usize) -> Arc<MemRegion> {
    let va = proc_.alloc(ctx, len);
    MemRegion::register(ctx, proc_, va, len)
}

/// A server that accepts one connection on `disc` with `vi`.
fn accept_one(ctx: &dsim::SimCtx, nic: &Arc<ViaNic>, disc: u64, vi: &Arc<Vi>) {
    let pending = nic.connect_wait(ctx, disc);
    nic.connect_accept(ctx, &pending, vi).unwrap();
}

#[test]
fn invalid_state_on_second_connect_request() {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let (_m0, _m1, n0, n1) = testbed(&h);
    {
        let n1 = Arc::clone(&n1);
        sim.spawn("server", move |ctx| {
            let vi = n1.create_vi(ViAttributes::default());
            accept_one(ctx, &n1, 7, &vi);
        });
    }
    sim.spawn("client", move |ctx| {
        let vi = n0.create_vi(ViAttributes::default());
        ctx.sleep(SimDuration::from_micros(50));
        n0.connect_request(ctx, &vi, ViaNicId(1), 7).unwrap();
        assert!(matches!(vi.state(), ViState::Connected { .. }));
        // A connected VI cannot request again.
        assert_eq!(
            n0.connect_request(ctx, &vi, ViaNicId(1), 7),
            Err(VipError::InvalidState)
        );
    });
    sim.run().unwrap();
}

#[test]
fn prepost_refuses_a_vi_that_is_not_idle() {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let (m0, _m1, n0, n1) = testbed(&h);
    {
        let n1 = Arc::clone(&n1);
        sim.spawn("server", move |ctx| {
            let vi = n1.create_vi(ViAttributes::default());
            accept_one(ctx, &n1, 7, &vi);
        });
    }
    sim.spawn("client", move |ctx| {
        let p = m0.spawn_process("client");
        let region = registered_buffer(ctx, &p, 4096);
        let ring = |n: usize| (0..n).map(|i| Descriptor::recv(Arc::clone(&region), i * 64, 64));
        let vi = n0.create_vi(ViAttributes::default());
        vi.prepost(ctx, ring(2)).unwrap();
        assert_eq!(vi.recv_pending(), 2);
        ctx.sleep(SimDuration::from_micros(50));
        n0.connect_request(ctx, &vi, ViaNicId(1), 7).unwrap();
        // Connected: the ring is refused before anything is charged.
        let now = ctx.now();
        assert_eq!(vi.prepost(ctx, ring(4)), Err(VipError::InvalidState));
        assert_eq!((ctx.now(), vi.recv_pending()), (now, 2));
    });
    sim.run().unwrap();
}

#[test]
fn not_connected_on_post_send_idle_vi() {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let (m0, _m1, n0, _n1) = testbed(&h);
    sim.spawn("client", move |ctx| {
        let p = m0.spawn_process("client");
        let vi = n0.create_vi(ViAttributes::default());
        let region = registered_buffer(ctx, &p, 4096);
        let err = vi
            .post_send(ctx, Descriptor::send(region, 0, 8, None))
            .unwrap_err();
        assert_eq!(err, VipError::NotConnected);
    });
    sim.run().unwrap();
}

#[test]
fn connection_refused_on_unlistened_discriminator() {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let (_m0, _m1, n0, _n1) = testbed(&h);
    sim.spawn("client", move |ctx| {
        let vi = n0.create_vi(ViAttributes::default());
        assert_eq!(
            n0.connect_request(ctx, &vi, ViaNicId(1), 999),
            Err(VipError::ConnectionRefused)
        );
        assert_eq!(vi.state(), ViState::Idle);
    });
    sim.run().unwrap();
}

#[test]
fn connect_carries_data_and_traces_its_wakeup() {
    use dsim::{TraceConfig, TraceKind, TraceLayer};
    let mut sim = Simulation::with_trace(Some(TraceConfig::default()));
    let h = sim.handle();
    let (m0, m1, n0, n1) = testbed(&h);
    let received = Arc::new(Mutex::new(Vec::new()));
    {
        let received = Arc::clone(&received);
        sim.spawn("server", move |ctx| {
            let p = m1.spawn_process("server");
            let vi = n1.create_vi(ViAttributes::default());
            let region = registered_buffer(ctx, &p, 4096);
            vi.post_recv(ctx, Descriptor::recv(region, 0, 4096))
                .unwrap();
            accept_one(ctx, &n1, 5, &vi);
            let done = vi.recv_wait(ctx, WaitMode::Block).unwrap();
            let len = done.status().xfer_len;
            received.lock().extend(done.region.dma_read(0, len));
        });
    }
    sim.spawn("client", move |ctx| {
        let p = m0.spawn_process("client");
        let vi = n0.create_vi(ViAttributes::default());
        ctx.sleep(SimDuration::from_micros(50));
        n0.connect_request(ctx, &vi, ViaNicId(1), 5).unwrap();
        let region = registered_buffer(ctx, &p, 4096);
        region.dma_write(0, b"hello via");
        vi.post_send(ctx, Descriptor::send(region, 0, 9, None))
            .unwrap();
        assert!(vi.send_wait(ctx, WaitMode::Poll).unwrap().is_done());
    });
    sim.run().unwrap();
    assert_eq!(received.lock().as_slice(), b"hello via");
    // The requester's wake-up switch is charged through a span.
    let data = sim.take_trace().expect("tracing was enabled");
    let client = data.names.iter().find(|(_, n)| n == "client").unwrap().0;
    let switches = data
        .events
        .iter()
        .filter(|e| e.pid == client)
        .filter(|e| (e.layer, e.kind) == (TraceLayer::Via, TraceKind::ContextSwitch))
        .count();
    assert_eq!(switches, 1);
}

#[test]
fn too_large_send_rejected() {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let (m0, _m1, n0, _n1) = testbed(&h);
    sim.spawn("client", move |ctx| {
        let p = m0.spawn_process("client");
        let vi = n0.create_vi(ViAttributes::default());
        // 128 KB exceeds the cLAN1000's 64 KB maximum transfer size; the
        // size check fires before the connection-state check.
        let len = 128 * 1024;
        let region = registered_buffer(ctx, &p, len);
        let err = vi
            .post_send(ctx, Descriptor::send(region, 0, len, None))
            .unwrap_err();
        assert_eq!(err, VipError::TooLarge);
    });
    sim.run().unwrap();
}

#[test]
fn disconnected_fails_pending_descriptors_and_fills_cq() {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let (_m0, m1, n0, n1) = testbed(&h);
    let cq = CompletionQueue::new(&h);
    let observed = Arc::new(Mutex::new(None));
    {
        let n1 = Arc::clone(&n1);
        let m1 = m1.clone();
        let cq = Arc::clone(&cq);
        let observed = Arc::clone(&observed);
        sim.spawn("server", move |ctx| {
            let p = m1.spawn_process("server");
            let vi = n1.create_vi(ViAttributes {
                recv_cq: Some(Arc::clone(&cq)),
                ..Default::default()
            });
            let region = registered_buffer(ctx, &p, 4096);
            vi.post_recv(ctx, Descriptor::recv(Arc::clone(&region), 0, 1024))
                .unwrap();
            vi.post_recv(ctx, Descriptor::recv(Arc::clone(&region), 1024, 1024))
                .unwrap();
            accept_one(ctx, &n1, 7, &vi);
            // Blocks until the peer disconnects underneath us.
            let err = vi.recv_wait(ctx, WaitMode::Block).unwrap_err();
            assert_eq!(err, VipError::Disconnected);
            assert_eq!(vi.state(), ViState::Error(VipError::Disconnected));
            // Both failed descriptors surfaced as CQ entries too.
            let costs = HostCosts::pentium3_500();
            let mut entries = 0;
            while let Some(e) = cq.poll(ctx, &costs) {
                assert_eq!(e.vi_id, vi.id());
                assert_eq!(e.kind, WqKind::Recv);
                entries += 1;
            }
            *observed.lock() = Some(entries);
        });
    }
    sim.spawn("client", move |ctx| {
        let vi = n0.create_vi(ViAttributes::default());
        ctx.sleep(SimDuration::from_micros(50));
        n0.connect_request(ctx, &vi, ViaNicId(1), 7).unwrap();
        ctx.sleep(SimDuration::from_micros(100));
        n0.disconnect(ctx, &vi);
        assert_eq!(vi.state(), ViState::Disconnected);
    });
    sim.run().unwrap();
    // One CQ entry per failed descriptor; the waiter popped the first
    // failed descriptor but the entries themselves stay for the poller.
    assert_eq!(*observed.lock(), Some(2));
}

#[test]
fn scripted_tx_descriptor_error_reaches_sender_and_cq() {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let (m0, _m1, n0, n1) = testbed(&h);
    let send_cq = CompletionQueue::new(&h);
    // "Complete the next (0th) send descriptor in error."
    let fh = n0.install_faults(
        &FaultPlan::empty().with_scripted(ScriptedFault::TxDescriptorError { nth: 0 }),
    );
    {
        let n1 = Arc::clone(&n1);
        sim.spawn("server", move |ctx| {
            let vi = n1.create_vi(ViAttributes::default());
            accept_one(ctx, &n1, 7, &vi);
        });
    }
    {
        let send_cq = Arc::clone(&send_cq);
        sim.spawn("client", move |ctx| {
            let p = m0.spawn_process("client");
            let vi = n0.create_vi(ViAttributes {
                send_cq: Some(Arc::clone(&send_cq)),
                ..Default::default()
            });
            ctx.sleep(SimDuration::from_micros(50));
            n0.connect_request(ctx, &vi, ViaNicId(1), 7).unwrap();
            let region = registered_buffer(ctx, &p, 4096);
            let desc = Descriptor::send(Arc::clone(&region), 0, 64, None);
            let seq = vi.post_send(ctx, desc).unwrap();
            let err = vi.send_wait(ctx, WaitMode::Block).unwrap_err();
            assert_eq!(err, VipError::DescriptorError);
            // The send's state outlives the reaped descriptor.
            assert_eq!(vi.send_state(seq), DescState::Error(VipError::DescriptorError));
            // The failure produced a send-CQ entry, and an unreliable VI
            // survives a failed descriptor.
            let costs = HostCosts::pentium3_500();
            let e = send_cq.poll(ctx, &costs).expect("CQ entry for failed send");
            assert_eq!((e.vi_id, e.kind), (vi.id(), WqKind::Send));
            assert!(matches!(vi.state(), ViState::Connected { .. }));
        });
    }
    sim.run().unwrap();
    let stats = fh.stats();
    assert_eq!(stats.descriptor_errors, 1);
    assert_eq!(stats.scripted_fired, 1);
    assert_eq!(stats.injected(), 1);
}

#[test]
fn scripted_rx_descriptor_error_reaches_receiver_and_cq() {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let (m0, m1, n0, n1) = testbed(&h);
    let recv_cq = CompletionQueue::new(&h);
    // "Complete the next (0th) receive descriptor in error."
    let fh = n1.install_faults(
        &FaultPlan::empty().with_scripted(ScriptedFault::RxDescriptorError { nth: 0 }),
    );
    {
        let n1 = Arc::clone(&n1);
        let m1 = m1.clone();
        let recv_cq = Arc::clone(&recv_cq);
        sim.spawn("server", move |ctx| {
            let p = m1.spawn_process("server");
            let vi = n1.create_vi(ViAttributes {
                recv_cq: Some(Arc::clone(&recv_cq)),
                ..Default::default()
            });
            let region = registered_buffer(ctx, &p, 4096);
            let desc = Descriptor::recv(Arc::clone(&region), 0, 1024);
            vi.post_recv(ctx, desc).unwrap();
            accept_one(ctx, &n1, 7, &vi);
            // The wait reaped the failed descriptor and returned its error.
            let err = vi.recv_wait(ctx, WaitMode::Block).unwrap_err();
            assert_eq!(err, VipError::DescriptorError);
            assert_eq!(vi.recv_pending(), 0);
            let costs = HostCosts::pentium3_500();
            let e = recv_cq.poll(ctx, &costs).expect("CQ entry for failed recv");
            assert_eq!((e.vi_id, e.kind), (vi.id(), WqKind::Recv));
        });
    }
    sim.spawn("client", move |ctx| {
        let p = m0.spawn_process("client");
        let vi = n0.create_vi(ViAttributes::default());
        ctx.sleep(SimDuration::from_micros(50));
        n0.connect_request(ctx, &vi, ViaNicId(1), 7).unwrap();
        let region = registered_buffer(ctx, &p, 4096);
        vi.post_send(ctx, Descriptor::send(region, 0, 64, None)).unwrap();
        let _ = vi.send_wait(ctx, WaitMode::Block).unwrap();
    });
    sim.run().unwrap();
    assert_eq!(fh.stats().descriptor_errors, 1);
}

#[test]
fn no_descriptor_breaks_reliable_vi_with_sentinel_cq_entry() {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let (m0, _m1, n0, n1) = testbed(&h);
    let recv_cq = CompletionQueue::new(&h);
    {
        let n1 = Arc::clone(&n1);
        let recv_cq = Arc::clone(&recv_cq);
        sim.spawn("server", move |ctx| {
            // Reliable delivery, but nothing pre-posted: the first arrival
            // violates the guarantee and breaks the VI.
            let vi = n1.create_vi(ViAttributes {
                reliability: Some(Reliability::ReliableDelivery),
                recv_cq: Some(Arc::clone(&recv_cq)),
                ..Default::default()
            });
            accept_one(ctx, &n1, 7, &vi);
            let err = vi.recv_wait(ctx, WaitMode::Block).unwrap_err();
            assert_eq!(err, VipError::NoDescriptor);
            // No descriptor could fail, so the break pushed one sentinel
            // entry to wake CQ-driven consumers.
            let costs = HostCosts::pentium3_500();
            let e = recv_cq.poll(ctx, &costs).expect("sentinel CQ entry");
            assert_eq!((e.vi_id, e.kind), (vi.id(), WqKind::Recv));
            assert!(recv_cq.is_empty());
        });
    }
    sim.spawn("client", move |ctx| {
        let p = m0.spawn_process("client");
        let vi = n0.create_vi(ViAttributes::default());
        ctx.sleep(SimDuration::from_micros(50));
        n0.connect_request(ctx, &vi, ViaNicId(1), 7).unwrap();
        let region = registered_buffer(ctx, &p, 4096);
        vi.post_send(ctx, Descriptor::send(region, 0, 64, None)).unwrap();
        let _ = vi.send_wait(ctx, WaitMode::Block).unwrap();
    });
    sim.run().unwrap();
}

#[test]
fn buffer_too_small_fails_descriptor_with_cq_status() {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let (m0, m1, n0, n1) = testbed(&h);
    let recv_cq = CompletionQueue::new(&h);
    {
        let n1 = Arc::clone(&n1);
        let m1 = m1.clone();
        let recv_cq = Arc::clone(&recv_cq);
        sim.spawn("server", move |ctx| {
            let p = m1.spawn_process("server");
            let vi = n1.create_vi(ViAttributes {
                recv_cq: Some(Arc::clone(&recv_cq)),
                ..Default::default()
            });
            let region = registered_buffer(ctx, &p, 4096);
            // 8-byte buffer for a 64-byte arrival.
            let desc = Descriptor::recv(Arc::clone(&region), 0, 8);
            vi.post_recv(ctx, desc).unwrap();
            accept_one(ctx, &n1, 7, &vi);
            let err = vi.recv_wait(ctx, WaitMode::Block).unwrap_err();
            assert_eq!(err, VipError::BufferTooSmall);
            assert_eq!(vi.recv_pending(), 0);
            let costs = HostCosts::pentium3_500();
            let e = recv_cq.poll(ctx, &costs).expect("CQ entry for failed recv");
            assert_eq!((e.vi_id, e.kind), (vi.id(), WqKind::Recv));
            // An unreliable VI survives; the frame was simply lost.
            assert!(matches!(vi.state(), ViState::Connected { .. }));
        });
    }
    sim.spawn("client", move |ctx| {
        let p = m0.spawn_process("client");
        let vi = n0.create_vi(ViAttributes::default());
        ctx.sleep(SimDuration::from_micros(50));
        n0.connect_request(ctx, &vi, ViaNicId(1), 7).unwrap();
        let region = registered_buffer(ctx, &p, 4096);
        vi.post_send(ctx, Descriptor::send(region, 0, 64, None)).unwrap();
        let _ = vi.send_wait(ctx, WaitMode::Block).unwrap();
    });
    sim.run().unwrap();
}

#[test]
fn vi_broken_during_a_post_recv_charge_refuses_the_descriptor() {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let (_m0, m1, n0, n1) = testbed(&h);
    // Break every connected VI of n1 at 200 us, inside the server's 1 us
    // post charge below.
    let at = SimDuration::from_micros(200);
    n1.install_faults(&FaultPlan::empty().with_scripted(ScriptedFault::DisconnectAt { at }));
    {
        let n1 = Arc::clone(&n1);
        sim.spawn("server", move |ctx| {
            let p = m1.spawn_process("server");
            let vi = n1.create_vi(ViAttributes::default());
            let region = registered_buffer(ctx, &p, 4096);
            accept_one(ctx, &n1, 7, &vi);
            let to_break = at - ctx.now().since(SimTime::ZERO);
            ctx.sleep(to_break - SimDuration::from_micros_f64(0.5));
            let posted = vi.post_recv(ctx, Descriptor::recv(Arc::clone(&region), 0, 1024));
            assert!(ctx.now() > SimTime::ZERO + at, "the charge spans the break");
            assert_eq!(posted, Err(VipError::Disconnected));
            // Nothing sits behind the break, pending and never failed.
            assert_eq!(vi.recv_pending(), 0);
            // A VI broken already is refused before any charge.
            let t = ctx.now();
            let again = vi.post_recv(ctx, Descriptor::recv(region, 0, 1024));
            assert_eq!(again, Err(VipError::Disconnected));
            assert_eq!(ctx.now(), t);
        });
    }
    sim.spawn("client", move |ctx| {
        let vi = n0.create_vi(ViAttributes::default());
        ctx.sleep(SimDuration::from_micros(50));
        n0.connect_request(ctx, &vi, ViaNicId(1), 7).unwrap();
    });
    sim.run().unwrap();
}

#[test]
fn send_state_follows_the_nic_not_the_reaper() {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let (m0, _m1, n0, n1) = testbed(&h);
    // Break the client's VI at 110 us: its first send (4 KB, about 40 us
    // of DMA and serialization from 102.5 us) is then in the NIC's hands,
    // the second still pending.
    let at = SimDuration::from_micros(110);
    n0.install_faults(&FaultPlan::empty().with_scripted(ScriptedFault::DisconnectAt { at }));
    sim.spawn("server", move |ctx| {
        let vi = n1.create_vi(ViAttributes::default());
        accept_one(ctx, &n1, 7, &vi);
    });
    sim.spawn("client", move |ctx| {
        let p = m0.spawn_process("client");
        let vi = n0.create_vi(ViAttributes::default());
        ctx.sleep(SimDuration::from_micros(50));
        n0.connect_request(ctx, &vi, ViaNicId(1), 7).unwrap();
        let region = registered_buffer(ctx, &p, 4096);
        ctx.sleep(SimDuration::from_micros(100) - ctx.now().since(SimTime::ZERO));
        let first = vi
            .post_send(ctx, Descriptor::send(Arc::clone(&region), 0, 4096, None))
            .unwrap();
        let second = vi
            .post_send(ctx, Descriptor::send(region, 0, 64, None))
            .unwrap();
        assert_eq!(second, first + 1);
        ctx.sleep(SimDuration::from_micros(111) - ctx.now().since(SimTime::ZERO));
        // The break failed the pending send ahead of the one in the NIC.
        assert_eq!(vi.send_state(first), DescState::Pending);
        assert_eq!(
            vi.send_state(second),
            DescState::Error(VipError::Disconnected)
        );
        // Reaping a descriptor does not change its send's state.
        let failed = vi.send_done_uncharged().expect("the failed send");
        assert_eq!(
            failed.status().state,
            DescState::Error(VipError::Disconnected)
        );
        assert_eq!(
            vi.send_state(second),
            DescState::Error(VipError::Disconnected)
        );
        while vi.send_state(first) == DescState::Pending {
            vi.wait_send_event(ctx);
        }
        assert_eq!(vi.send_state(first), DescState::Done);
        assert!(vi
            .send_done_uncharged()
            .expect("the finished send")
            .is_done());
    });
    sim.run().unwrap();
}
