//! Network devices under the IP layer: Ethernet, or the LANE driver
//! (IP-over-VIA — Giganet's kernel path, Figure 2(b) of the paper).

use std::sync::Arc;

use dsim::{Payload, SimCtx, SimDuration};
use parking_lot::Mutex;
use simnic::{EthFrame, EthPort, ETH_MTU};
use simos::{HostId, KernelCpu, Machine};
use via::{Descriptor, MemRegion, Reliability, ViAttributes, ViaNic, ViaNicId, Vi, WaitMode};

/// Handler invoked (on a device service thread) for each arriving IP
/// packet's wire bytes.
pub type IpRxHandler = Arc<dyn Fn(&SimCtx, Payload) + Send + Sync>;

/// A link-layer device the TCP/IP stack can run over.
pub trait NetDevice: Send + Sync {
    /// Maximum IP packet size this device carries.
    fn mtu(&self) -> usize;
    /// Queue a serialized IP packet for `dst`; may block briefly on ring
    /// space. Transmission costs are charged by the device engines.
    fn send(&self, ctx: &SimCtx, dst: HostId, packet: Payload);
    /// Register the IP receive handler.
    fn set_rx(&self, handler: IpRxHandler);
}

/// Ethernet device: a thin shim over [`simnic::EthPort`].
pub struct EthDevice {
    port: Arc<EthPort>,
    host: HostId,
}

impl EthDevice {
    /// Wrap an Ethernet port.
    pub fn new(port: Arc<EthPort>) -> Arc<EthDevice> {
        let host = port.host();
        Arc::new(EthDevice { port, host })
    }
}

impl NetDevice for EthDevice {
    fn mtu(&self) -> usize {
        ETH_MTU
    }

    fn send(&self, _ctx: &SimCtx, dst: HostId, packet: Payload) {
        self.port.send(EthFrame {
            src: self.host,
            dst,
            payload: packet,
        });
    }

    fn set_rx(&self, handler: IpRxHandler) {
        self.port
            .set_rx_handler(move |ctx, frame| handler(ctx, frame.payload));
    }
}

/// Descriptors the LANE driver pre-posts per peer VI. Generous, as the
/// real driver's ring was: with the paper's 131,170-byte socket buffer up
/// to ~90 segments can be in flight.
const LANE_RING: usize = 256;
/// LANE frame capacity (Ethernet-like MTU over the SAN).
const LANE_MTU: usize = 1500;
/// Kernel driver processing per LANE packet (encap/decap, ring upkeep).
const LANE_PKT_COST_US: f64 = 1.0;

struct LanePeer {
    host: HostId,
    vi: Arc<Vi>,
}

/// The LANE device: IP datagrams over kernel-owned VIA connections, one
/// reliable-delivery VI per peer with a pre-posted receive ring. The
/// TCP/IP costs paid on top of it are exactly what SOVIA eliminates.
pub struct LaneDevice {
    machine: Machine,
    nic: Arc<ViaNic>,
    host: HostId,
    peers: Mutex<Vec<Arc<LanePeer>>>,
    handler: Arc<Mutex<Option<IpRxHandler>>>,
    send_region: Arc<MemRegion>,
    send_free: Mutex<Vec<usize>>,
}

/// Discriminator namespace for LANE links ("LA" | initiating host).
fn lane_disc(initiator: HostId) -> u64 {
    0x4C41_0000_u64 | u64::from(initiator.0)
}

impl LaneDevice {
    /// Create the LANE device on a machine (its VIA NIC must already be
    /// attached). Must run inside a simulation process.
    pub fn new(ctx: &SimCtx, machine: &Machine) -> Arc<LaneDevice> {
        let nic = ViaNic::of(machine);
        let kproc = machine.spawn_process("lane-driver");
        let va = kproc.alloc_shared(ctx, LANE_RING * LANE_MTU);
        let send_region = MemRegion::register(ctx, &kproc, va, LANE_RING * LANE_MTU);
        Arc::new(LaneDevice {
            machine: machine.clone(),
            nic,
            host: machine.id(),
            peers: Mutex::new(Vec::new()),
            handler: Arc::new(Mutex::new(None)),
            send_region,
            send_free: Mutex::new((0..LANE_RING).rev().collect()),
        })
    }

    /// Establish the LANE link between two devices (bidirectional VI).
    /// Must run inside a simulation process. Surfaces VIA-layer failures
    /// (exhausted rings, refused dialogs) to the caller instead of
    /// panicking inside the driver.
    pub fn connect_pair(
        ctx: &SimCtx,
        a: &Arc<LaneDevice>,
        b: &Arc<LaneDevice>,
    ) -> Result<(), via::VipError> {
        let attrs = || ViAttributes {
            reliability: Some(Reliability::ReliableDelivery),
            ..Default::default()
        };
        let vi_b = b.nic.create_vi(attrs());
        b.prepost_ring(ctx, &vi_b)?;
        let listener = b.nic.listen(lane_disc(a.host));

        let vi_a = a.nic.create_vi(attrs());
        a.prepost_ring(ctx, &vi_a)?;

        // Accept on a helper process while this context drives the request.
        {
            let nic_b = Arc::clone(&b.nic);
            let vi_b2 = Arc::clone(&vi_b);
            a.machine
                .sim()
                .spawn(format!("lane-accept-{}", b.host), move |actx| {
                    let pending = listener.pop(actx);
                    actx.sleep(nic_b.machine().costs().context_switch);
                    nic_b
                        .connect_accept(actx, &pending, &vi_b2)
                        // sovia-lint: allow(R5) -- helper process closure: no caller to propagate to, and the requester side below surfaces the same dialog failure as Err
                        .expect("LANE accept failed");
                });
        }
        a.nic
            .connect_request(ctx, &vi_a, ViaNicId(b.host.0), lane_disc(a.host))?;

        let peer_a = Arc::new(LanePeer { host: b.host, vi: vi_a });
        let peer_b = Arc::new(LanePeer { host: a.host, vi: vi_b });
        a.peers.lock().push(Arc::clone(&peer_a));
        b.peers.lock().push(Arc::clone(&peer_b));
        a.start_rx(&peer_a);
        b.start_rx(&peer_b);
        Ok(())
    }

    fn prepost_ring(&self, ctx: &SimCtx, vi: &Arc<Vi>) -> Result<(), via::VipError> {
        let kproc = self.machine.spawn_process("lane-ring");
        let va = kproc.alloc_shared(ctx, LANE_RING * LANE_MTU);
        let region = MemRegion::register(ctx, &kproc, va, LANE_RING * LANE_MTU);
        for i in 0..LANE_RING {
            vi.post_recv(
                ctx,
                Descriptor::recv(Arc::clone(&region), i * LANE_MTU, LANE_MTU),
            )?;
        }
        Ok(())
    }

    fn start_rx(self: &Arc<Self>, peer: &Arc<LanePeer>) {
        let dev = Arc::clone(self);
        let peer = Arc::clone(peer);
        let sim = self.machine.sim().clone();
        sim.spawn_daemon(
            format!("lane-rx-{}-from-{}", self.host, peer.host),
            move |ctx| loop {
                let Ok(Ok(desc)) = peer.vi.recv_wait_idle(ctx, WaitMode::Block) else {
                    return; // simulation or VI torn down
                };
                let st = desc.status();
                let bytes = Payload::new(desc.region.dma_read(desc.offset, st.xfer_len));
                // Re-post the same descriptor immediately: ring discipline
                // keeps the pre-posting constraint satisfied.
                let _ = peer.vi.post_recv(ctx, desc);
                // Completion interrupt + driver work, like any kernel NIC;
                // all of it occupies the machine's one CPU.
                let kcpu = KernelCpu::of(&dev.machine);
                kcpu.charge(
                    ctx,
                    dsim::TraceLayer::Kernel,
                    dsim::TraceKind::Interrupt,
                    dev.machine.costs().interrupt,
                    dsim::TraceTag::bytes(bytes.len()),
                );
                kcpu.charge(
                    ctx,
                    dsim::TraceLayer::Kernel,
                    dsim::TraceKind::Driver,
                    SimDuration::from_micros_f64(LANE_PKT_COST_US),
                    dsim::TraceTag::bytes(bytes.len()),
                );
                let handler = dev.handler.lock().clone();
                if let Some(h) = handler {
                    h(ctx, bytes);
                }
            },
        );
    }

    /// Return each completed send's ring slot to the free list.
    fn reap(&self, peer: &LanePeer) {
        while let Some(done) = peer.vi.send_done_uncharged() {
            self.send_free.lock().push(done.offset / LANE_MTU);
        }
    }

    fn acquire_slot(&self, ctx: &SimCtx, peer: &LanePeer) -> usize {
        loop {
            if let Some(s) = self.send_free.lock().pop() {
                return s;
            }
            self.reap(peer);
            if let Some(s) = self.send_free.lock().pop() {
                return s;
            }
            peer.vi.wait_send_event(ctx);
        }
    }
}

impl NetDevice for LaneDevice {
    fn mtu(&self) -> usize {
        LANE_MTU
    }

    fn send(&self, ctx: &SimCtx, dst: HostId, packet: Payload) {
        assert!(packet.len() <= LANE_MTU, "LANE packet exceeds MTU");
        let peer = self
            .peers
            .lock()
            .iter()
            .find(|p| p.host == dst)
            .cloned()
            .unwrap_or_else(|| panic!("no LANE link from {} to {}", self.host, dst));
        self.reap(&peer);
        // Driver encapsulation + copy into the registered ring (a real
        // kernel-side copy: LANE cannot do zero-copy from user skbs).
        let kcpu = KernelCpu::of(&self.machine);
        kcpu.charge(
            ctx,
            dsim::TraceLayer::Kernel,
            dsim::TraceKind::Driver,
            SimDuration::from_micros_f64(LANE_PKT_COST_US),
            dsim::TraceTag::bytes(packet.len()),
        );
        kcpu.charge(
            ctx,
            dsim::TraceLayer::Kernel,
            dsim::TraceKind::Copy,
            self.machine.costs().memcpy(packet.len()),
            dsim::TraceTag::bytes(packet.len()),
        );
        ctx.trace_count(
            dsim::TraceLayer::Kernel,
            dsim::TraceKind::BytesCopied,
            packet.len() as u64,
            dsim::TraceTag::default(),
        );
        let slot = self.acquire_slot(ctx, &peer);
        let offset = slot * LANE_MTU;
        self.send_region.dma_write(offset, &packet);
        kcpu.charge(
            ctx,
            dsim::TraceLayer::Kernel,
            dsim::TraceKind::DescriptorPost,
            self.machine.costs().descriptor_post + self.machine.costs().doorbell,
            dsim::TraceTag::bytes(packet.len()),
        );
        let desc = Descriptor::send(Arc::clone(&self.send_region), offset, packet.len(), None);
        if peer.vi.post_send_uncharged(desc).is_err() {
            self.send_free.lock().push(slot);
        }
    }

    fn set_rx(&self, handler: IpRxHandler) {
        *self.handler.lock() = Some(handler);
    }
}
