//! # via — a VIPL (VI Provider Library) over the simulated NIC
//!
//! Implements the Virtual Interface Architecture semantics the SOVIA paper
//! builds on: VIs with send/receive work queues, descriptors with immediate
//! data, completion queues, memory registration (pinning through the
//! simulated kernel agent), the connection model
//! (`VipConnectRequest`/`Wait`/`Accept`), and — crucially — the
//! **pre-posting constraint**: data arriving at a VI with an empty receive
//! queue is lost (unreliable VIs) or breaks the connection (reliable
//! delivery).
//!
//! The NIC "hardware" is a single engine process per adapter that serially
//! processes doorbells and arrivals, charging descriptor-handling, DMA and
//! wire-serialization costs from the [`simnic`] presets.
//!
//! Naming follows the VIPL: `Vi::post_send` is `VipPostSend`,
//! `Vi::recv_wait` is `VipRecvWait`, and so on.

#![warn(missing_docs)]

mod conn;
mod cq;
mod descriptor;
mod error;
mod mem;
mod nic;
mod vi;

pub use conn::PendingConn;
pub use cq::{CompletionQueue, CqEntry, WaitMode, WqKind};
pub use descriptor::{DescState, DescStatus, Descriptor};
pub use error::{VipError, VipResult};
pub use mem::MemRegion;
pub use nic::{NicStats, ViaNic, ViaNicId, VIA_FRAME_OVERHEAD};
pub use vi::{Reliability, Vi, ViAttributes, ViState};

#[cfg(test)]
mod tests {
    use super::*;
    use dsim::{SimDuration, Simulation};
    use parking_lot::Mutex;
    use simnic::{clan1000_nic, clan_link};
    use simos::{HostCosts, HostId, Machine, Process};
    use std::sync::Arc;

    /// Two machines wired back-to-back with cLAN NICs.
    fn testbed(sim: &dsim::SimHandle) -> (Machine, Machine, Arc<ViaNic>, Arc<ViaNic>) {
        let m0 = Machine::new(sim, HostId(0), "m0", HostCosts::pentium3_500());
        let m1 = Machine::new(sim, HostId(1), "m1", HostCosts::pentium3_500());
        let n0 = ViaNic::attach(&m0, ViaNicId(0), clan1000_nic());
        let n1 = ViaNic::attach(&m1, ViaNicId(1), clan1000_nic());
        ViaNic::connect_pair(&n0, &n1, clan_link());
        (m0, m1, n0, n1)
    }

    fn registered_buffer(
        ctx: &dsim::SimCtx,
        proc_: &Process,
        len: usize,
    ) -> (simos::mem::VAddr, Arc<MemRegion>) {
        let va = proc_.alloc(ctx, len);
        let region = MemRegion::register(ctx, proc_, va, len);
        (va, region)
    }

    #[test]
    fn connect_accept_and_transfer() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let (m0, m1, n0, n1) = testbed(&h);
        let received = Arc::new(Mutex::new(Vec::new()));

        // Server.
        {
            let n1 = Arc::clone(&n1);
            let m1 = m1.clone();
            let received = Arc::clone(&received);
            sim.spawn("server", move |ctx| {
                let p = m1.spawn_process("server");
                let vi = n1.create_vi(ViAttributes::default());
                let (_va, region) = registered_buffer(ctx, &p, 4096);
                vi.post_recv(ctx, Descriptor::recv(Arc::clone(&region), 0, 4096))
                    .unwrap();
                let pending = n1.connect_wait(ctx, 777);
                n1.connect_accept(ctx, &pending, &vi).unwrap();
                let done = vi.recv_wait(ctx, WaitMode::Block).unwrap();
                let st = done.status();
                received
                    .lock()
                    .extend_from_slice(&done.region.dma_read(0, st.xfer_len));
                assert_eq!(st.immediate, Some(0xBEEF));
            });
        }
        // Client.
        {
            let n0 = Arc::clone(&n0);
            let m0 = m0.clone();
            sim.spawn("client", move |ctx| {
                let p = m0.spawn_process("client");
                let vi = n0.create_vi(ViAttributes::default());
                // Give the server a moment to listen (the app-level
                // protocol guarantees ordering in real uses).
                ctx.sleep(SimDuration::from_micros(50));
                n0.connect_request(ctx, &vi, ViaNicId(1), 777).unwrap();
                let (va, region) = registered_buffer(ctx, &p, 4096);
                p.write_mem(ctx, va, b"hello via");
                vi.post_send(
                    ctx,
                    Descriptor::send(Arc::clone(&region), 0, 9, Some(0xBEEF)),
                )
                .unwrap();
                let d = vi.send_wait(ctx, WaitMode::Poll).unwrap();
                assert!(d.is_done());
            });
        }
        sim.run().unwrap();
        assert_eq!(received.lock().as_slice(), b"hello via");
    }

    #[test]
    fn native_via_latency_anchor() {
        // The paper's anchor: 8.5 us one-way latency for 4-byte messages
        // on cLAN (half of the ping-pong round trip). Polling mode.
        let mut sim = Simulation::new();
        let h = sim.handle();
        let (m0, m1, n0, n1) = testbed(&h);
        const ROUNDS: u32 = 100;
        let rtt_ns = Arc::new(Mutex::new(0u64));

        {
            let n1 = Arc::clone(&n1);
            let m1 = m1.clone();
            sim.spawn("pong", move |ctx| {
                let p = m1.spawn_process("pong");
                let vi = n1.create_vi(ViAttributes::default());
                let (_va, region) = registered_buffer(ctx, &p, 4096);
                for _ in 0..ROUNDS + 1 {
                    vi.post_recv(ctx, Descriptor::recv(Arc::clone(&region), 0, 64))
                        .unwrap();
                }
                let pending = n1.connect_wait(ctx, 1);
                n1.connect_accept(ctx, &pending, &vi).unwrap();
                let (_va2, sregion) = registered_buffer(ctx, &p, 4096);
                for _ in 0..ROUNDS {
                    let _ = vi.recv_wait(ctx, WaitMode::Poll).unwrap();
                    vi.post_send(ctx, Descriptor::send(Arc::clone(&sregion), 0, 4, None))
                        .unwrap();
                }
            });
        }
        {
            let n0 = Arc::clone(&n0);
            let m0 = m0.clone();
            let rtt_ns = Arc::clone(&rtt_ns);
            sim.spawn("ping", move |ctx| {
                let p = m0.spawn_process("ping");
                let vi = n0.create_vi(ViAttributes::default());
                let (_va, region) = registered_buffer(ctx, &p, 4096);
                for _ in 0..ROUNDS + 1 {
                    vi.post_recv(ctx, Descriptor::recv(Arc::clone(&region), 0, 64))
                        .unwrap();
                }
                ctx.sleep(SimDuration::from_micros(100));
                n0.connect_request(ctx, &vi, ViaNicId(1), 1).unwrap();
                let (_va2, sregion) = registered_buffer(ctx, &p, 4096);
                let t0 = ctx.now();
                for _ in 0..ROUNDS {
                    vi.post_send(ctx, Descriptor::send(Arc::clone(&sregion), 0, 4, None))
                        .unwrap();
                    let _ = vi.recv_wait(ctx, WaitMode::Poll).unwrap();
                }
                *rtt_ns.lock() = ctx.now().since(t0).as_nanos() / ROUNDS as u64;
            });
        }
        sim.run().unwrap();
        let one_way_us = *rtt_ns.lock() as f64 / 2.0 / 1000.0;
        assert!(
            (7.5..9.5).contains(&one_way_us),
            "native VIA 4B latency should be ~8.5us, got {one_way_us:.2}us"
        );
    }

    #[test]
    fn preposting_constraint_drops_on_unreliable_vi() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let (m0, m1, n0, n1) = testbed(&h);
        {
            let n1 = Arc::clone(&n1);
            let m1 = m1.clone();
            sim.spawn("server", move |ctx| {
                let _p = m1.spawn_process("server");
                let vi = n1.create_vi(ViAttributes::default());
                // Deliberately post NO receive descriptor.
                let pending = n1.connect_wait(ctx, 5);
                n1.connect_accept(ctx, &pending, &vi).unwrap();
                ctx.sleep(SimDuration::from_millis(1));
                assert_eq!(
                    vi.state(),
                    ViState::Connected {
                        peer_nic: ViaNicId(0),
                        peer_vi: 1
                    },
                    "loss is silent on an unreliable VI"
                );
            });
        }
        {
            let n0 = Arc::clone(&n0);
            let m0 = m0.clone();
            sim.spawn("client", move |ctx| {
                let p = m0.spawn_process("client");
                let vi = n0.create_vi(ViAttributes::default());
                ctx.sleep(SimDuration::from_micros(50));
                n0.connect_request(ctx, &vi, ViaNicId(1), 5).unwrap();
                let (_va, region) = registered_buffer(ctx, &p, 4096);
                vi.post_send(ctx, Descriptor::send(Arc::clone(&region), 0, 32, None))
                    .unwrap();
                // The send completes fine at the sender; the loss is silent.
                let d = vi.send_wait(ctx, WaitMode::Poll).unwrap();
                assert!(d.is_done());
            });
        }
        sim.run().unwrap();
        assert_eq!(n1.stats().rx_drops_no_descriptor, 1);
        assert_eq!(n1.stats().rx_frames, 0);
    }

    #[test]
    fn preposting_violation_breaks_reliable_vi() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let (m0, m1, n0, n1) = testbed(&h);
        {
            let n1 = Arc::clone(&n1);
            let m1 = m1.clone();
            sim.spawn("server", move |ctx| {
                let _p = m1.spawn_process("server");
                let vi = n1.create_vi(ViAttributes {
                    reliability: Some(Reliability::ReliableDelivery),
                    ..Default::default()
                });
                let pending = n1.connect_wait(ctx, 5);
                n1.connect_accept(ctx, &pending, &vi).unwrap();
                ctx.sleep(SimDuration::from_millis(1));
                assert_eq!(vi.state(), ViState::Error(VipError::NoDescriptor));
            });
        }
        {
            let n0 = Arc::clone(&n0);
            let m0 = m0.clone();
            sim.spawn("client", move |ctx| {
                let p = m0.spawn_process("client");
                let vi = n0.create_vi(ViAttributes {
                    reliability: Some(Reliability::ReliableDelivery),
                    ..Default::default()
                });
                ctx.sleep(SimDuration::from_micros(50));
                n0.connect_request(ctx, &vi, ViaNicId(1), 5).unwrap();
                let (_va, region) = registered_buffer(ctx, &p, 4096);
                vi.post_send(ctx, Descriptor::send(Arc::clone(&region), 0, 32, None))
                    .unwrap();
                let _ = vi.send_wait(ctx, WaitMode::Poll);
            });
        }
        sim.run().unwrap();
    }

    #[test]
    fn connect_to_unlistened_port_is_refused() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let (m0, _m1, n0, _n1) = testbed(&h);
        sim.spawn("client", move |ctx| {
            let _p = m0.spawn_process("client");
            let vi = n0.create_vi(ViAttributes::default());
            let err = n0.connect_request(ctx, &vi, ViaNicId(1), 99).unwrap_err();
            assert_eq!(err, VipError::ConnectionRefused);
            assert_eq!(vi.state(), ViState::Idle);
        });
        sim.run().unwrap();
    }

    #[test]
    fn disconnect_fails_peer_descriptors() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let (m0, m1, n0, n1) = testbed(&h);
        {
            let n1 = Arc::clone(&n1);
            let m1 = m1.clone();
            sim.spawn("server", move |ctx| {
                let p = m1.spawn_process("server");
                let vi = n1.create_vi(ViAttributes::default());
                let (_va, region) = registered_buffer(ctx, &p, 4096);
                vi.post_recv(ctx, Descriptor::recv(Arc::clone(&region), 0, 64))
                    .unwrap();
                let pending = n1.connect_wait(ctx, 5);
                n1.connect_accept(ctx, &pending, &vi).unwrap();
                // Blocks until the client disconnects -> error.
                let err = vi.recv_wait(ctx, WaitMode::Block).unwrap_err();
                assert_eq!(err, VipError::Disconnected);
            });
        }
        {
            let n0 = Arc::clone(&n0);
            let m0 = m0.clone();
            sim.spawn("client", move |ctx| {
                let _p = m0.spawn_process("client");
                let vi = n0.create_vi(ViAttributes::default());
                ctx.sleep(SimDuration::from_micros(50));
                n0.connect_request(ctx, &vi, ViaNicId(1), 5).unwrap();
                ctx.sleep(SimDuration::from_micros(100));
                n0.disconnect(ctx, &vi);
            });
        }
        sim.run().unwrap();
    }

    #[test]
    fn completion_queue_coalesces_two_vis() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let (m0, m1, n0, n1) = testbed(&h);
        let seen = Arc::new(Mutex::new(Vec::new()));
        {
            let n1 = Arc::clone(&n1);
            let m1 = m1.clone();
            let seen = Arc::clone(&seen);
            let h2 = h.clone();
            sim.spawn("server", move |ctx| {
                let p = m1.spawn_process("server");
                let cq = CompletionQueue::new(&h2);
                let mut vis = Vec::new();
                for port in [10u64, 11] {
                    let vi = n1.create_vi(ViAttributes {
                        recv_cq: Some(Arc::clone(&cq)),
                        ..Default::default()
                    });
                    let (_va, region) = registered_buffer(ctx, &p, 4096);
                    vi.post_recv(ctx, Descriptor::recv(Arc::clone(&region), 0, 64))
                        .unwrap();
                    let pending = n1.connect_wait(ctx, port);
                    n1.connect_accept(ctx, &pending, &vi).unwrap();
                    vis.push(vi);
                }
                for _ in 0..2 {
                    let e = cq
                        .wait(ctx, m1.costs(), WaitMode::Block)
                        .expect("a completion");
                    assert_eq!(e.kind, WqKind::Recv);
                    seen.lock().push(e.vi_id);
                }
            });
        }
        {
            let n0 = Arc::clone(&n0);
            let m0 = m0.clone();
            sim.spawn("client", move |ctx| {
                let p = m0.spawn_process("client");
                ctx.sleep(SimDuration::from_micros(50));
                let (_va, region) = registered_buffer(ctx, &p, 4096);
                for port in [10u64, 11] {
                    let vi = n0.create_vi(ViAttributes::default());
                    n0.connect_request(ctx, &vi, ViaNicId(1), port).unwrap();
                    vi.post_send(ctx, Descriptor::send(Arc::clone(&region), 0, 8, None))
                        .unwrap();
                    let _ = vi.send_wait(ctx, WaitMode::Poll).unwrap();
                }
            });
        }
        sim.run().unwrap();
        assert_eq!(seen.lock().len(), 2);
    }

    #[test]
    fn oversized_send_rejected() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let (m0, _m1, n0, _n1) = testbed(&h);
        sim.spawn("client", move |ctx| {
            let p = m0.spawn_process("client");
            let vi = n0.create_vi(ViAttributes::default());
            vi.set_state(ViState::Connected {
                peer_nic: ViaNicId(1),
                peer_vi: 1,
            });
            let len = 128 * 1024;
            let va = p.alloc(ctx, len);
            let region = MemRegion::register(ctx, &p, va, len);
            let err = vi
                .post_send(ctx, Descriptor::send(region, 0, len, None))
                .unwrap_err();
            assert_eq!(err, VipError::TooLarge);
        });
        sim.run().unwrap();
    }

    #[test]
    fn bandwidth_anchor_815mbps() {
        // Stream 32KB messages with plenty of pre-posted descriptors; the
        // sending NIC pipeline should sustain ~812 Mb/s.
        let mut sim = Simulation::new();
        let h = sim.handle();
        let (m0, m1, n0, n1) = testbed(&h);
        const MSGS: usize = 64;
        const SIZE: usize = 32 * 1024;
        let mbps = Arc::new(Mutex::new(0.0f64));
        {
            let n1 = Arc::clone(&n1);
            let m1 = m1.clone();
            sim.spawn("sink", move |ctx| {
                let p = m1.spawn_process("sink");
                let vi = n1.create_vi(ViAttributes::default());
                n1.listen(2); // register before the client's request arrives
                let (_va, region) = registered_buffer(ctx, &p, SIZE);
                for _ in 0..MSGS {
                    vi.post_recv(ctx, Descriptor::recv(Arc::clone(&region), 0, SIZE))
                        .unwrap();
                }
                let pending = n1.connect_wait(ctx, 2);
                n1.connect_accept(ctx, &pending, &vi).unwrap();
                for _ in 0..MSGS {
                    let _ = vi.recv_wait(ctx, WaitMode::Poll).unwrap();
                }
            });
        }
        {
            let n0 = Arc::clone(&n0);
            let m0 = m0.clone();
            let mbps = Arc::clone(&mbps);
            sim.spawn("source", move |ctx| {
                let p = m0.spawn_process("source");
                let vi = n0.create_vi(ViAttributes::default());
                ctx.sleep(SimDuration::from_micros(50));
                n0.connect_request(ctx, &vi, ViaNicId(1), 2).unwrap();
                let (_va, region) = registered_buffer(ctx, &p, SIZE);
                let t0 = ctx.now();
                for _ in 0..MSGS {
                    vi.post_send(ctx, Descriptor::send(Arc::clone(&region), 0, SIZE, None))
                        .unwrap();
                    let _ = vi.send_wait(ctx, WaitMode::Poll).unwrap();
                }
                let dt = ctx.now().since(t0).as_secs_f64();
                *mbps.lock() = (MSGS * SIZE) as f64 * 8.0 / dt / 1e6;
            });
        }
        sim.run().unwrap();
        let got = *mbps.lock();
        assert!(
            (700.0..830.0).contains(&got),
            "native VIA peak should approach 815 Mb/s, got {got:.0}"
        );
    }
}
