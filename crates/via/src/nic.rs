//! The simulated VIA-aware NIC ("hardware + firmware").
//!
//! One engine process per NIC serially consumes *jobs*: doorbells (send
//! descriptors to process) and arriving frames. Serial processing is
//! deliberate — it is why a flood of per-packet ACKs steals transmit
//! capacity, which is the effect SOVIA's delayed acknowledgments exist to
//! avoid (Fig. 6(b), SOVIA_FLOWCTRL vs SOVIA_DACKS).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use dsim::sync::SimQueue;
use dsim::{Payload, SimCtx, SimDuration};
use parking_lot::Mutex;
use simnic::{FaultAction, FaultHandle, FaultLane, FaultPlan, Link, LinkParams, ScriptedFault, ViaNicCosts};
use simos::Machine;

use crate::conn::KernelAgent;
use crate::cq::WqKind;
use crate::descriptor::Descriptor;
use crate::error::VipError;
use crate::vi::{Reliability, Vi, ViAttributes, ViState};

/// Network-wide address of a VIA NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ViaNicId(pub u32);

impl std::fmt::Display for ViaNicId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vianic{}", self.0)
    }
}

/// Media overhead per VIA frame on the wire (header + CRC).
pub const VIA_FRAME_OVERHEAD: usize = 30;

/// Connection-management messages (handled by kernel agents, not
/// descriptors).
#[derive(Debug, Clone)]
pub(crate) enum MgmtMsg {
    ConnReq {
        req_id: u64,
        discriminator: u64,
        from_nic: ViaNicId,
        from_vi: u32,
    },
    ConnAccept {
        req_id: u64,
        peer_nic: ViaNicId,
        peer_vi: u32,
    },
    ConnReject {
        req_id: u64,
    },
    Disconnect {
        dst_vi: u32,
    },
}

/// A frame on a VIA link.
#[derive(Clone)]
pub(crate) enum ViaFrame {
    Data {
        dst_vi: u32,
        payload: Payload,
        immediate: Option<u32>,
    },
    Mgmt(MgmtMsg),
}

/// Jobs consumed by the NIC engine.
#[derive(Clone)]
pub(crate) enum NicJob {
    /// A doorbell rang for VI `vi_id`: process its next send descriptor.
    Doorbell { vi_id: u32 },
    /// A frame arrived from the wire.
    Rx(ViaFrame),
}

/// Counters exposed for tests and the experiment harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct NicStats {
    /// Data frames transmitted.
    pub tx_frames: u64,
    /// Data payload bytes transmitted.
    pub tx_bytes: u64,
    /// Data frames received (matched to a descriptor).
    pub rx_frames: u64,
    /// Data payload bytes received.
    pub rx_bytes: u64,
    /// Arrivals dropped because no descriptor was pre-posted (unreliable
    /// VIs) — the pre-posting constraint made visible.
    pub rx_drops_no_descriptor: u64,
    /// Arrivals for unknown/unconnected VIs.
    pub rx_drops_bad_vi: u64,
}

/// Installed fault-injection state of a NIC (see [`ViaNic::install_faults`]).
///
/// The probabilistic lane judges every arriving *data* frame (management
/// frames model the reliable kernel-agent channel and are exempt), and the
/// scripted descriptor-error lists fail the nth send/receive descriptor
/// the engine would otherwise complete successfully.
struct NicFaults {
    lane: Arc<FaultLane>,
    rx_desc_targets: Vec<u64>,
    tx_desc_targets: Vec<u64>,
    rx_desc_seen: Mutex<u64>,
    tx_desc_seen: Mutex<u64>,
}

impl NicFaults {
    /// Count one engine-processed receive descriptor; true if scripted to
    /// fail.
    fn take_rx_desc_error(&self) -> bool {
        let mut seen = self.rx_desc_seen.lock();
        let idx = *seen;
        *seen += 1;
        self.rx_desc_targets.contains(&idx)
    }

    /// Count one engine-processed send descriptor; true if scripted to
    /// fail.
    fn take_tx_desc_error(&self) -> bool {
        let mut seen = self.tx_desc_seen.lock();
        let idx = *seen;
        *seen += 1;
        self.tx_desc_targets.contains(&idx)
    }
}

/// A VIA-capable NIC attached to one machine.
pub struct ViaNic {
    id: ViaNicId,
    machine: Machine,
    costs: ViaNicCosts,
    jobs: Arc<SimQueue<NicJob>>,
    links: Mutex<BTreeMap<ViaNicId, Arc<Link<NicJob>>>>,
    vis: Mutex<BTreeMap<u32, Arc<Vi>>>,
    next_vi: AtomicU32,
    stats: Mutex<NicStats>,
    faults: Mutex<Option<Arc<NicFaults>>>,
    pub(crate) agent: KernelAgent,
}

impl ViaNic {
    /// Create a NIC on `machine`, register it in the machine's extension
    /// map, and start its engine.
    pub fn attach(machine: &Machine, id: ViaNicId, costs: ViaNicCosts) -> Arc<ViaNic> {
        let sim = machine.sim().clone();
        let nic = Arc::new(ViaNic {
            id,
            machine: machine.clone(),
            costs,
            jobs: SimQueue::new(&sim),
            links: Mutex::new(BTreeMap::new()),
            vis: Mutex::new(BTreeMap::new()),
            next_vi: AtomicU32::new(1),
            stats: Mutex::new(NicStats::default()),
            faults: Mutex::new(None),
            agent: KernelAgent::new(&sim),
        });
        machine.ext().insert::<ViaNic>(Arc::clone(&nic));
        let engine = Arc::clone(&nic);
        sim.spawn_daemon(format!("vianic-{}", id.0), move |ctx| {
            engine.run_engine(ctx);
        });
        nic
    }

    /// Fetch the NIC previously attached to a machine.
    pub fn of(machine: &Machine) -> Arc<ViaNic> {
        machine
            .ext()
            .get::<ViaNic>()
            .expect("no ViaNic attached to this machine")
    }

    /// Cross-wire two NICs with symmetric link parameters.
    pub fn connect_pair(a: &Arc<ViaNic>, b: &Arc<ViaNic>, params: LinkParams) {
        let sim = a.machine.sim();
        let ab = Arc::new(Link::new(sim, params, Arc::clone(&b.jobs)));
        let ba = Arc::new(Link::new(sim, params, Arc::clone(&a.jobs)));
        a.links.lock().insert(b.id, ab);
        b.links.lock().insert(a.id, ba);
    }

    /// This NIC's network address.
    pub fn id(&self) -> ViaNicId {
        self.id
    }

    /// The machine this NIC is attached to.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// NIC hardware cost parameters.
    pub fn costs(&self) -> &ViaNicCosts {
        &self.costs
    }

    /// Counter snapshot.
    pub fn stats(&self) -> NicStats {
        *self.stats.lock()
    }

    /// Install a fault plan on this NIC. An empty plan installs nothing
    /// (the engine keeps its exact fault-free code path) and returns a
    /// disabled handle.
    ///
    /// * Probabilistic drop/duplicate/reorder/delay apply to
    ///   arriving **data** frames, one seeded RNG draw per frame.
    ///   Management frames (the kernel-agent channel) stay reliable.
    /// * [`ScriptedFault::RxDescriptorError`]/[`ScriptedFault::TxDescriptorError`]
    ///   fail the nth receive/send descriptor the engine processes.
    /// * [`ScriptedFault::DisconnectAt`] forcibly breaks every VI
    ///   connected at that virtual time (measured from installation) and
    ///   notifies each peer.
    ///
    /// On a [`Reliability::ReliableDelivery`] VI a dropped frame
    /// breaks the connection on both ends (the model's stand-in for the
    /// hardware's delivery guarantee); on an unreliable VI it is a silent
    /// drop, as the VIA spec allows.
    pub fn install_faults(self: &Arc<Self>, plan: &FaultPlan) -> FaultHandle {
        let Some(lane) = FaultLane::new(plan) else {
            return FaultHandle::disabled();
        };
        let mut rx_desc_targets = Vec::new();
        let mut tx_desc_targets = Vec::new();
        for ev in &plan.scripted {
            match ev {
                ScriptedFault::RxDescriptorError { nth } => rx_desc_targets.push(*nth),
                ScriptedFault::TxDescriptorError { nth } => tx_desc_targets.push(*nth),
                ScriptedFault::DisconnectAt { at } => {
                    let nic = Arc::clone(self);
                    let lane = Arc::clone(&lane);
                    let tracer = self.machine.sim().tracer();
                    self.machine.sim().schedule_in(*at, move |now| {
                        let vis: Vec<Arc<Vi>> =
                            nic.vis_lock().values().cloned().collect();
                        for vi in vis {
                            if let Some((peer_nic, peer_vi)) = vi.peer() {
                                nic.send_mgmt(
                                    peer_nic,
                                    MgmtMsg::Disconnect { dst_vi: peer_vi },
                                );
                                vi.break_with(VipError::Disconnected);
                                lane.count_scripted(|s| s.forced_disconnects += 1);
                                tracer.instant(
                                    now,
                                    u64::MAX,
                                    dsim::TraceLayer::Nic,
                                    dsim::TraceKind::FaultDisconnect,
                                    dsim::TraceTag::on_conn(vi.id()),
                                );
                            }
                        }
                    });
                }
                ScriptedFault::AtFrame { .. } => {} // handled by the lane
            }
        }
        let handle = lane.handle();
        *self.faults.lock() = Some(Arc::new(NicFaults {
            lane,
            rx_desc_targets,
            tx_desc_targets,
            rx_desc_seen: Mutex::new(0),
            tx_desc_seen: Mutex::new(0),
        }));
        handle
    }

    /// Break `vi` with `err`, telling the connected peer (if any) first so
    /// both ends observe the failure. Peer capture must precede the break:
    /// `break_with` clears the connected state.
    fn break_and_notify(&self, vi: &Arc<Vi>, err: VipError) {
        if let Some((peer_nic, peer_vi)) = vi.peer() {
            self.send_mgmt(peer_nic, MgmtMsg::Disconnect { dst_vi: peer_vi });
        }
        vi.break_with(err);
    }

    /// `VipCreateVi`.
    pub fn create_vi(self: &Arc<Self>, attrs: ViAttributes) -> Arc<Vi> {
        let id = self.next_vi.fetch_add(1, Ordering::Relaxed);
        let jobs = Arc::clone(&self.jobs);
        let vi = Vi::new(
            self.machine.sim(),
            id,
            attrs,
            self.machine.costs().clone(),
            self.costs.max_transfer,
            Box::new(move |vi_id| {
                jobs.push(NicJob::Doorbell { vi_id });
            }),
        );
        self.vis.lock().insert(id, Arc::clone(&vi));
        vi
    }

    /// `VipDestroyVi`: remove the VI from the NIC's tables.
    pub fn destroy_vi(&self, vi: &Arc<Vi>) {
        self.vis.lock().remove(&vi.id());
    }

    fn link_to(&self, peer: ViaNicId) -> Arc<Link<NicJob>> {
        Arc::clone(
            self.links
                .lock()
                .get(&peer)
                .unwrap_or_else(|| panic!("{} has no link to {}", self.id, peer)),
        )
    }

    pub(crate) fn send_mgmt(&self, to: ViaNicId, msg: MgmtMsg) {
        self.link_to(to).transmit(NicJob::Rx(ViaFrame::Mgmt(msg)));
    }

    fn lookup_vi(&self, id: u32) -> Option<Arc<Vi>> {
        self.vis.lock().get(&id).cloned()
    }

    pub(crate) fn vis_lock(&self) -> parking_lot::MutexGuard<'_, BTreeMap<u32, Arc<Vi>>> {
        self.vis.lock()
    }

    // ----- the engine -------------------------------------------------

    fn run_engine(self: &Arc<Self>, ctx: &SimCtx) {
        while let Ok(job) = self.jobs.pop_idle(ctx) {
            match job {
                NicJob::Doorbell { vi_id } => self.process_tx(ctx, vi_id),
                NicJob::Rx(frame) => self.process_rx(ctx, frame),
            }
        }
    }

    fn process_tx(self: &Arc<Self>, ctx: &SimCtx, vi_id: u32) {
        let Some(vi) = self.lookup_vi(vi_id) else {
            return; // VI destroyed after the doorbell rang
        };
        let Some(desc) = vi.sq.pending.lock().pop_front() else {
            return; // stale doorbell
        };
        ctx.charge(
            dsim::TraceLayer::Nic,
            dsim::TraceKind::TxDesc,
            self.costs.tx_desc,
            dsim::TraceTag::on_conn(vi_id).value(desc.len as u64),
        );
        let (peer_nic, peer_vi) = match vi.state() {
            ViState::Connected { peer_nic, peer_vi } => (peer_nic, peer_vi),
            _ => {
                desc.fail(VipError::NotConnected);
                vi.sq.complete(desc, &vi.send_cq, vi.id(), WqKind::Send);
                return;
            }
        };
        let faults = self.faults.lock().clone();
        if let Some(f) = &faults {
            if f.take_tx_desc_error() {
                // Scripted "complete the next send descriptor in error":
                // the transfer never reaches the wire.
                f.lane.count_scripted(|s| s.descriptor_errors += 1);
                ctx.trace_instant(
                    dsim::TraceLayer::Nic,
                    dsim::TraceKind::FaultDescError,
                    dsim::TraceTag::on_conn(vi_id).value(desc.len as u64),
                );
                desc.fail(VipError::DescriptorError);
                vi.sq.complete(desc, &vi.send_cq, vi.id(), WqKind::Send);
                if vi.reliability == Reliability::ReliableDelivery {
                    self.break_and_notify(&vi, VipError::DescriptorError);
                }
                return;
            }
        }
        let link = self.link_to(peer_nic);
        // DMA the payload out of host memory and serialize it onto the
        // wire; the NIC is busy for the whole transfer (store-and-forward).
        let payload = Payload::new(desc.region.dma_read(desc.offset, desc.len));
        let busy_ns = self.costs.dma_ns_per_byte * desc.len as f64
            + link.params().ns_per_byte * (desc.len + VIA_FRAME_OVERHEAD) as f64;
        ctx.charge(
            dsim::TraceLayer::Nic,
            dsim::TraceKind::Dma,
            SimDuration::from_nanos_f64(busy_ns),
            dsim::TraceTag::on_conn(vi_id).value(desc.len as u64),
        );
        {
            let mut st = self.stats.lock();
            st.tx_frames += 1;
            st.tx_bytes += desc.len as u64;
        }
        let immediate = desc.immediate;
        desc.complete(desc.len, None);
        vi.sq.complete(desc, &vi.send_cq, vi.id(), WqKind::Send);
        link.transmit(NicJob::Rx(ViaFrame::Data {
            dst_vi: peer_vi,
            payload,
            immediate,
        }));
    }

    fn process_rx(self: &Arc<Self>, ctx: &SimCtx, frame: ViaFrame) {
        match frame {
            ViaFrame::Mgmt(msg) => {
                ctx.charge(
                    dsim::TraceLayer::Nic,
                    dsim::TraceKind::RxDesc,
                    self.costs.rx_desc,
                    dsim::TraceTag::default(),
                );
                KernelAgent::handle_mgmt(self, ctx, msg);
            }
            ViaFrame::Data {
                dst_vi,
                payload,
                immediate,
            } => {
                let faults = self.faults.lock().clone();
                if let Some(f) = &faults {
                    let action = f.lane.next_frame();
                    // `next_frame` just advanced the odometer; frames - 1
                    // is the 0-based index of the frame judged here.
                    if let Some(act) = action {
                        if ctx.trace_enabled() {
                            let frame_idx = f.lane.handle().stats().frames - 1;
                            let kind = match act {
                                FaultAction::Drop => dsim::TraceKind::FaultDrop,
                                FaultAction::Duplicate => dsim::TraceKind::FaultDuplicate,
                                FaultAction::Reorder => dsim::TraceKind::FaultReorder,
                            };
                            ctx.trace_instant(
                                dsim::TraceLayer::Nic,
                                kind,
                                dsim::TraceTag::on_conn(dst_vi)
                                    .msg(frame_idx)
                                    .value(payload.len() as u64),
                            );
                        }
                    }
                    match action {
                        None => {}
                        Some(FaultAction::Reorder) => {
                            // A frame overtaken by its successors violates a
                            // reliable-delivery VI's ordering guarantee, and
                            // the model has no NIC-level retransmission to
                            // repair the gap: tear the connection, as for
                            // wire loss. Unreliable VIs just see it late.
                            if let Some(vi) = self.lookup_vi(dst_vi) {
                                if vi.reliability == Reliability::ReliableDelivery
                                    && matches!(vi.state(), ViState::Connected { .. })
                                {
                                    ctx.sleep(self.costs.rx_desc);
                                    self.break_and_notify(&vi, VipError::Disconnected);
                                    return;
                                }
                            }
                            // Requeue behind everything that arrives within
                            // the hold-back window, then process normally
                            // (the requeued copy is judged afresh but the
                            // lane draw order stays frame-arrival order).
                            let jobs = Arc::clone(&self.jobs);
                            let mut slot = Some(NicJob::Rx(ViaFrame::Data {
                                dst_vi,
                                payload,
                                immediate,
                            }));
                            self.machine.sim().schedule_in(
                                f.lane.delay_extra(),
                                move |_| {
                                    if let Some(j) = slot.take() {
                                        jobs.push(j);
                                    }
                                },
                            );
                            return;
                        }
                        Some(FaultAction::Duplicate) => {
                            // Reliable delivery discards duplicates by
                            // sequence number; only unreliable VIs see the
                            // second copy (judged afresh when it re-arrives).
                            let reliable = self.lookup_vi(dst_vi).is_some_and(|vi| {
                                vi.reliability == Reliability::ReliableDelivery
                            });
                            if !reliable {
                                self.jobs.push(NicJob::Rx(ViaFrame::Data {
                                    dst_vi,
                                    payload: payload.clone(),
                                    immediate,
                                }));
                            }
                        }
                        Some(FaultAction::Drop) => {
                            // The frame died on the wire (or arrived with a
                            // bad CRC). Unreliable VIs lose it silently; a
                            // reliable-delivery VI's guarantee is broken,
                            // so the connection is torn on both ends.
                            ctx.sleep(self.costs.rx_desc);
                            if let Some(vi) = self.lookup_vi(dst_vi) {
                                if vi.reliability == Reliability::ReliableDelivery
                                    && matches!(vi.state(), ViState::Connected { .. })
                                {
                                    self.break_and_notify(&vi, VipError::Disconnected);
                                }
                            }
                            return;
                        }
                    }
                }
                ctx.charge(
                    dsim::TraceLayer::Nic,
                    dsim::TraceKind::RxDesc,
                    self.costs.rx_desc,
                    dsim::TraceTag::on_conn(dst_vi).value(payload.len() as u64),
                );
                let Some(vi) = self.lookup_vi(dst_vi) else {
                    self.stats.lock().rx_drops_bad_vi += 1;
                    return;
                };
                if !matches!(vi.state(), ViState::Connected { .. }) {
                    self.stats.lock().rx_drops_bad_vi += 1;
                    return;
                }
                if let Some(f) = &faults {
                    if f.take_rx_desc_error() {
                        // Scripted "complete the next receive descriptor in
                        // error". With nothing pre-posted the break below
                        // still surfaces the fault (reliable VIs).
                        f.lane.count_scripted(|s| s.descriptor_errors += 1);
                        ctx.trace_instant(
                            dsim::TraceLayer::Nic,
                            dsim::TraceKind::FaultDescError,
                            dsim::TraceTag::on_conn(dst_vi).value(payload.len() as u64),
                        );
                        if let Some(desc) = vi.rq.pending.lock().pop_front() {
                            desc.fail(VipError::DescriptorError);
                            vi.rq.complete(desc, &vi.recv_cq, vi.id(), WqKind::Recv);
                        }
                        if vi.reliability == Reliability::ReliableDelivery {
                            self.break_and_notify(&vi, VipError::DescriptorError);
                        }
                        return;
                    }
                }
                let maybe_desc = vi.rq.pending.lock().pop_front();
                let Some(desc) = maybe_desc else {
                    // The pre-posting constraint: no descriptor, no
                    // delivery.
                    self.stats.lock().rx_drops_no_descriptor += 1;
                    if vi.reliability == Reliability::ReliableDelivery {
                        vi.break_with(VipError::NoDescriptor);
                    }
                    return;
                };
                if payload.len() > desc.len {
                    desc.fail(VipError::BufferTooSmall);
                    vi.rq.complete(desc, &vi.recv_cq, vi.id(), WqKind::Recv);
                    if vi.reliability == Reliability::ReliableDelivery {
                        vi.break_with(VipError::BufferTooSmall);
                    }
                    return;
                }
                // DMA into the pre-posted buffer.
                ctx.charge(
                    dsim::TraceLayer::Nic,
                    dsim::TraceKind::Dma,
                    SimDuration::from_nanos_f64(
                        self.costs.dma_ns_per_byte * payload.len() as f64,
                    ),
                    dsim::TraceTag::on_conn(dst_vi).value(payload.len() as u64),
                );
                desc.region.dma_write(desc.offset, &payload);
                {
                    let mut st = self.stats.lock();
                    st.rx_frames += 1;
                    st.rx_bytes += payload.len() as u64;
                }
                desc.complete(payload.len(), immediate);
                vi.rq.complete(desc, &vi.recv_cq, vi.id(), WqKind::Recv);
            }
        }
    }

    /// Post a send descriptor on a VI of this NIC (thin convenience over
    /// [`Vi::post_send`] for symmetry with the VIPL naming).
    pub fn post_send(&self, ctx: &SimCtx, vi: &Arc<Vi>, desc: Arc<Descriptor>) -> Result<(), VipError> {
        vi.post_send(ctx, desc)
    }
}
