//! Ethernet NIC model (the Fast Ethernet baseline of Table 1 / Fig. 7).
//!
//! A classic store-and-forward NIC: the host hands frames to a transmit
//! queue; a NIC engine process serializes them onto the wire; arriving
//! frames raise an "interrupt" — the registered handler runs on the NIC's
//! receive process after the interrupt cost, exactly like a kernel
//! softirq path.

use std::sync::Arc;

use dsim::sync::SimQueue;
use dsim::{Payload, SimDuration, SimHandle};
use parking_lot::Mutex;
use simos::HostId;

use crate::link::{Link, LinkParams};

/// Ethernet MTU (payload bytes per frame).
pub const ETH_MTU: usize = 1500;

/// Per-frame NIC processing costs.
#[derive(Debug, Clone, Copy)]
pub struct EthNicCosts {
    /// NIC-side work to fetch and launch one frame.
    pub tx_frame: SimDuration,
    /// NIC-side work to land one frame (before the host interrupt).
    pub rx_frame: SimDuration,
}

/// An Ethernet frame. `payload` is a serialized IP packet. Cloning the
/// frame shares the payload bytes (see [`dsim::Payload`]).
#[derive(Debug, Clone)]
pub struct EthFrame {
    /// Sending host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
    /// Serialized network-layer packet.
    pub payload: Payload,
}

/// Ethernet framing overhead on the wire (header 14 + FCS 4 + preamble 8 +
/// IFG 12).
pub const ETH_OVERHEAD: usize = 38;

type RxHandler = Arc<dyn Fn(&dsim::SimCtx, EthFrame) + Send + Sync>;

/// One Ethernet port on a host.
pub struct EthPort {
    host: HostId,
    costs: EthNicCosts,
    tx_queue: Arc<SimQueue<EthFrame>>,
    rx_queue: Arc<SimQueue<EthFrame>>,
    handler: Mutex<Option<RxHandler>>,
    link_params: LinkParams,
}

impl EthPort {
    /// Create a port; call [`EthPort::connect`] to wire two ports together
    /// and launch the engines.
    pub fn new(sim: &SimHandle, host: HostId, costs: EthNicCosts, link: LinkParams) -> Arc<EthPort> {
        Arc::new(EthPort {
            host,
            costs,
            tx_queue: SimQueue::new(sim),
            rx_queue: SimQueue::new(sim),
            handler: Mutex::new(None),
            link_params: link,
        })
    }

    /// The host this port belongs to.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// Register the receive ("interrupt") handler. The handler runs on the
    /// NIC's receive process; it should charge its own protocol costs.
    pub fn set_rx_handler(&self, f: impl Fn(&dsim::SimCtx, EthFrame) + Send + Sync + 'static) {
        *self.handler.lock() = Some(Arc::new(f));
    }

    /// Queue a frame for transmission (host side; cheap — the engine pays
    /// the real costs).
    pub fn send(&self, frame: EthFrame) {
        assert!(
            frame.payload.len() <= ETH_MTU,
            "frame exceeds MTU: {}",
            frame.payload.len()
        );
        self.tx_queue.push(frame);
    }

    /// Cross-wire two ports and start both engines.
    pub fn connect(sim: &SimHandle, a: &Arc<EthPort>, b: &Arc<EthPort>) {
        let ab = Link::new(sim, a.link_params, Arc::clone(&b.rx_queue));
        let ba = Link::new(sim, b.link_params, Arc::clone(&a.rx_queue));
        a.start(sim, ab);
        b.start(sim, ba);
    }

    /// Cross-wire two ports with per-direction fault plans. Empty plans
    /// degenerate to the exact [`EthPort::connect`] wiring (and disabled
    /// handles). Returns the `(a→b, b→a)` fault handles.
    pub fn connect_with_faults(
        sim: &SimHandle,
        a: &Arc<EthPort>,
        b: &Arc<EthPort>,
        plan_ab: &crate::faults::FaultPlan,
        plan_ba: &crate::faults::FaultPlan,
    ) -> (crate::faults::FaultHandle, crate::faults::FaultHandle) {
        let (ab, h_ab) = Link::with_faults(sim, a.link_params, Arc::clone(&b.rx_queue), plan_ab);
        let (ba, h_ba) = Link::with_faults(sim, b.link_params, Arc::clone(&a.rx_queue), plan_ba);
        a.start(sim, ab);
        b.start(sim, ba);
        (h_ab, h_ba)
    }

    fn start(self: &Arc<EthPort>, sim: &SimHandle, out: Link<EthFrame>) {
        // TX engine.
        {
            let port = Arc::clone(self);
            sim.spawn_daemon(format!("ethtx-{}", self.host), move |ctx| {
                while let Ok(frame) = port.tx_queue.pop_idle(ctx) {
                    ctx.charge(
                        dsim::TraceLayer::Nic,
                        dsim::TraceKind::TxDesc,
                        port.costs.tx_frame,
                        dsim::TraceTag::bytes(frame.payload.len()),
                    );
                    ctx.charge(
                        dsim::TraceLayer::Link,
                        dsim::TraceKind::Serialize,
                        port.link_params
                            .serialize(frame.payload.len() + ETH_OVERHEAD),
                        dsim::TraceTag::bytes(frame.payload.len()),
                    );
                    out.transmit(frame);
                }
            });
        }
        // RX engine ("interrupt" context).
        {
            let port = Arc::clone(self);
            sim.spawn_daemon(format!("ethrx-{}", self.host), move |ctx| {
                while let Ok(frame) = port.rx_queue.pop_idle(ctx) {
                    ctx.charge(
                        dsim::TraceLayer::Nic,
                        dsim::TraceKind::RxDesc,
                        port.costs.rx_frame,
                        dsim::TraceTag::bytes(frame.payload.len()),
                    );
                    // The handler charges kernel costs, so it runs outside
                    // the lock.
                    let handler = port.handler.lock().clone();
                    if let Some(h) = handler {
                        h(ctx, frame);
                    }
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsim::Simulation;

    #[test]
    fn frame_roundtrip_with_costs() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let costs = EthNicCosts {
            tx_frame: SimDuration::from_micros(2),
            rx_frame: SimDuration::from_micros(2),
        };
        let link = LinkParams {
            latency: SimDuration::from_micros(10),
            ns_per_byte: 80.0,
        };
        let a = EthPort::new(&h, HostId(0), costs, link);
        let b = EthPort::new(&h, HostId(1), costs, link);
        let got = Arc::new(Mutex::new(Vec::new()));
        {
            let got = Arc::clone(&got);
            let sim_h = h.clone();
            b.set_rx_handler(move |_ctx, f| {
                got.lock().push((f.payload.to_vec(), sim_h.now().as_nanos()));
            });
        }
        EthPort::connect(&h, &a, &b);
        sim.spawn("tx", move |_| {
            a.send(EthFrame {
                src: HostId(0),
                dst: HostId(1),
                payload: vec![7u8; 100].into(),
            });
        });
        sim.run().unwrap();
        let got = got.lock().clone();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, vec![7u8; 100]);
        // tx 2us + serialize (138B * 80ns = 11.04us) + latency 10us + rx 2us.
        assert_eq!(got[0].1, 2_000 + 11_040 + 10_000 + 2_000);
    }

    #[test]
    #[should_panic(expected = "exceeds MTU")]
    fn oversized_frame_panics() {
        let sim = Simulation::new();
        let h = sim.handle();
        let costs = EthNicCosts {
            tx_frame: SimDuration::ZERO,
            rx_frame: SimDuration::ZERO,
        };
        let link = LinkParams {
            latency: SimDuration::ZERO,
            ns_per_byte: 0.0,
        };
        let a = EthPort::new(&h, HostId(0), costs, link);
        a.send(EthFrame {
            src: HostId(0),
            dst: HostId(1),
            payload: vec![0; ETH_MTU + 1].into(),
        });
    }
}
