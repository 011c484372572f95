//! Virtual Interfaces: the communication endpoints of VIA.

use std::collections::VecDeque;
use std::convert::Infallible;
use std::sync::Arc;

use dsim::sync::SimCondvar;
use dsim::{Shutdown, SimCtx, SimHandle};
use parking_lot::Mutex;
use simos::HostCosts;

use crate::cq::{CompletionQueue, CqEntry, WaitMode, WqKind};
use crate::descriptor::{DescState, Descriptor};
use crate::error::{VipError, VipResult};
use crate::nic::ViaNicId;

/// VIA reliability levels (the subset the paper exercises).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reliability {
    /// Transfers can be silently lost if the receiver has not pre-posted a
    /// descriptor — the pre-posting constraint in its rawest form.
    Unreliable,
    /// The NIC guarantees delivery; an arrival finding no descriptor breaks
    /// the connection instead of dropping.
    ReliableDelivery,
}

/// Attributes fixed at VI creation.
#[derive(Clone, Default)]
pub struct ViAttributes {
    /// Reliability level (default: unreliable, per the VIA spec).
    pub reliability: Option<Reliability>,
    /// Completion queue receiving send-side completions.
    pub send_cq: Option<Arc<CompletionQueue>>,
    /// Completion queue receiving receive-side completions.
    pub recv_cq: Option<Arc<CompletionQueue>>,
}

/// Connection state of a VI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViState {
    /// Created, not connected.
    Idle,
    /// A connection request is outstanding.
    Connecting,
    /// Connected to a peer VI.
    Connected {
        /// NIC of the peer.
        peer_nic: ViaNicId,
        /// VI id on the peer NIC.
        peer_vi: u32,
    },
    /// Cleanly disconnected.
    Disconnected,
    /// Broken (reliability violation or peer loss).
    Error(VipError),
}

/// One work queue (send or receive side) of a VI.
pub(crate) struct WorkQueue {
    /// Posted descriptors the NIC has not completed yet, FIFO.
    pub(crate) pending: Mutex<VecDeque<Arc<Descriptor>>>,
    /// Completed descriptors not yet reaped by Done/Wait, FIFO.
    pub(crate) completed: Mutex<VecDeque<Arc<Descriptor>>>,
    pub(crate) cv: SimCondvar,
}

impl WorkQueue {
    fn new(sim: &SimHandle) -> WorkQueue {
        WorkQueue {
            pending: Mutex::new(VecDeque::new()),
            completed: Mutex::new(VecDeque::new()),
            cv: SimCondvar::new(sim),
        }
    }

    /// NIC side: move a descriptor to the completed list and notify.
    pub(crate) fn complete(
        &self,
        desc: Arc<Descriptor>,
        cq: &Option<Arc<CompletionQueue>>,
        vi_id: u32,
        kind: WqKind,
    ) {
        self.completed.lock().push_back(desc);
        self.cv.notify_all();
        if let Some(cq) = cq {
            cq.push(CqEntry { vi_id, kind });
        }
    }

    /// Fail every pending descriptor (connection breakage). Each failed
    /// descriptor also produces a completion-queue entry — a broken VI
    /// must be visible to CQ-driven consumers, exactly like a successful
    /// completion. Returns how many descriptors were failed.
    fn fail_all_pending(
        &self,
        err: VipError,
        cq: &Option<Arc<CompletionQueue>>,
        vi_id: u32,
        kind: WqKind,
    ) -> usize {
        let failed = {
            let mut pending = self.pending.lock();
            let mut completed = self.completed.lock();
            let n = pending.len();
            for d in pending.drain(..) {
                d.fail(err);
                completed.push_back(d);
            }
            n
        };
        self.cv.notify_all();
        if let Some(cq) = cq {
            for _ in 0..failed {
                cq.push(CqEntry { vi_id, kind });
            }
        }
        failed
    }
}

/// A Virtual Interface endpoint.
pub struct Vi {
    pub(crate) id: u32,
    pub(crate) reliability: Reliability,
    pub(crate) send_cq: Option<Arc<CompletionQueue>>,
    pub(crate) recv_cq: Option<Arc<CompletionQueue>>,
    pub(crate) state: Mutex<ViState>,
    pub(crate) sq: WorkQueue,
    pub(crate) rq: WorkQueue,
    pub(crate) costs: HostCosts,
    /// Doorbell: lets post_send enqueue a NIC job without a direct `ViaNic`
    /// reference (set at creation; breaks the module cycle).
    pub(crate) doorbell: Box<dyn Fn(u32) + Send + Sync>,
    pub(crate) max_transfer: usize,
}

impl Vi {
    pub(crate) fn new(
        sim: &SimHandle,
        id: u32,
        attrs: ViAttributes,
        costs: HostCosts,
        max_transfer: usize,
        doorbell: Box<dyn Fn(u32) + Send + Sync>,
    ) -> Arc<Vi> {
        Arc::new(Vi {
            id,
            reliability: attrs.reliability.unwrap_or(Reliability::Unreliable),
            send_cq: attrs.send_cq,
            recv_cq: attrs.recv_cq,
            state: Mutex::new(ViState::Idle),
            sq: WorkQueue::new(sim),
            rq: WorkQueue::new(sim),
            costs,
            doorbell,
            max_transfer,
        })
    }

    /// This VI's id on its NIC.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Current connection state.
    pub fn state(&self) -> ViState {
        *self.state.lock()
    }

    /// The peer, if connected.
    pub fn peer(&self) -> Option<(ViaNicId, u32)> {
        match *self.state.lock() {
            ViState::Connected { peer_nic, peer_vi } => Some((peer_nic, peer_vi)),
            _ => None,
        }
    }

    pub(crate) fn set_state(&self, s: ViState) {
        *self.state.lock() = s;
    }

    /// Break the VI: fail all pending descriptors and wake every waiter.
    pub(crate) fn break_with(&self, err: VipError) {
        self.set_state(ViState::Error(err));
        self.sq
            .fail_all_pending(err, &self.send_cq, self.id, WqKind::Send);
        let rq_failed = self
            .rq
            .fail_all_pending(err, &self.recv_cq, self.id, WqKind::Recv);
        // With nothing pending there is no failed descriptor to surface, so
        // push one sentinel entry: a CQ-driven layer (SOVIA's progress
        // engine) still gets woken, polls the VI, and observes the error
        // state. Consumers that find no completed descriptor behind an
        // entry already treat it as a spurious wake.
        if rq_failed == 0 {
            if let Some(cq) = &self.recv_cq {
                cq.push(CqEntry {
                    vi_id: self.id,
                    kind: WqKind::Recv,
                });
            }
        }
    }

    /// `VipPostSend`: queue a send descriptor and ring the doorbell.
    pub fn post_send(&self, ctx: &SimCtx, desc: Arc<Descriptor>) -> VipResult<()> {
        self.charge_post(ctx, &desc);
        self.post_send_uncharged(desc)
    }

    /// Charge posting `desc` and ringing the doorbell, and count it.
    fn charge_post(&self, ctx: &SimCtx, desc: &Descriptor) {
        let tag = dsim::TraceTag::on_conn(self.id);
        ctx.charge(
            dsim::TraceLayer::Via,
            dsim::TraceKind::DescriptorPost,
            self.costs.descriptor_post + self.costs.doorbell,
            tag.value(desc.len as u64),
        );
        ctx.trace_count(
            dsim::TraceLayer::Via,
            dsim::TraceKind::DescriptorsPosted,
            1,
            tag,
        );
    }

    /// `VipPostSend` without charging the posting cost. For layered
    /// protocols (SOVIA) that charge the cost *before* taking their own
    /// queue locks — in the virtual-time executor a lock must never be held
    /// across a time-advancing call, so cost charging and the atomic
    /// enqueue are split.
    pub fn post_send_uncharged(&self, desc: Arc<Descriptor>) -> VipResult<()> {
        if desc.len > self.max_transfer {
            return Err(VipError::TooLarge);
        }
        match *self.state.lock() {
            ViState::Connected { .. } => {}
            ViState::Error(e) => return Err(e),
            _ => return Err(VipError::NotConnected),
        }
        self.sq.pending.lock().push_back(desc);
        (self.doorbell)(self.id);
        Ok(())
    }

    /// `VipPostRecv`: pre-post a receive descriptor. Allowed in any
    /// non-error state (and *required* before the peer sends — the
    /// pre-posting constraint).
    pub fn post_recv(&self, ctx: &SimCtx, desc: Arc<Descriptor>) -> VipResult<()> {
        if let ViState::Error(e) = *self.state.lock() {
            return Err(e);
        }
        self.charge_post(ctx, &desc);
        self.rq.pending.lock().push_back(desc);
        Ok(())
    }

    /// Pop a completed send descriptor without charging a poll (layered
    /// protocols charge their own costs and need the pop to compose
    /// atomically with their bookkeeping locks).
    pub fn send_done_uncharged(&self) -> Option<Arc<Descriptor>> {
        self.sq.completed.lock().pop_front()
    }

    /// Pop a completed receive descriptor without charging a poll.
    pub fn recv_done_uncharged(&self) -> Option<Arc<Descriptor>> {
        self.rq.completed.lock().pop_front()
    }

    /// Park until *something* happens on the send queue (a completion or a
    /// connection-state change). Callers re-check their predicate in a
    /// loop; no cost is charged here.
    pub fn wait_send_event(&self, ctx: &SimCtx) {
        self.sq.cv.wait(ctx);
    }

    /// `VipSendWait`: block until a send descriptor completes.
    pub fn send_wait(&self, ctx: &SimCtx, mode: WaitMode) -> VipResult<Arc<Descriptor>> {
        let Ok(r) = self.wait_on(ctx, mode, &self.sq, |cv| {
            cv.wait(ctx);
            Ok::<_, Infallible>(())
        });
        r
    }

    /// `VipRecvWait`: block until a receive descriptor completes.
    pub fn recv_wait(&self, ctx: &SimCtx, mode: WaitMode) -> VipResult<Arc<Descriptor>> {
        let Ok(r) = self.wait_on(ctx, mode, &self.rq, |cv| {
            cv.wait(ctx);
            Ok::<_, Infallible>(())
        });
        r
    }

    /// [`Vi::recv_wait`] for a receive engine idle between frames (an idle
    /// wait, see `dsim::sync`): `Err(Shutdown)` at teardown.
    pub fn recv_wait_idle(
        &self,
        ctx: &SimCtx,
        mode: WaitMode,
    ) -> Result<VipResult<Arc<Descriptor>>, Shutdown> {
        self.wait_on(ctx, mode, &self.rq, |cv| cv.wait_idle(ctx))
    }

    /// Wait for the next completion on `wq`, blocking in `wait`.
    fn wait_on<E>(
        &self,
        ctx: &SimCtx,
        mode: WaitMode,
        wq: &WorkQueue,
        wait: impl Fn(&SimCondvar) -> Result<(), E>,
    ) -> Result<VipResult<Arc<Descriptor>>, E> {
        loop {
            if let Some(d) = wq.completed.lock().pop_front() {
                return Ok(match d.status().state {
                    DescState::Done => Ok(d),
                    DescState::Error(e) => Err(e),
                    DescState::Pending => unreachable!("pending descriptor in completed list"),
                });
            }
            if let ViState::Error(e) = *self.state.lock() {
                return Ok(Err(e));
            }
            wait(&wq.cv)?;
            match mode {
                WaitMode::Poll => {
                    ctx.charge(
                        dsim::TraceLayer::Via,
                        dsim::TraceKind::Poll,
                        self.costs.poll_check,
                        dsim::TraceTag::on_conn(self.id),
                    );
                }
                WaitMode::Block => {
                    ctx.charge(
                        dsim::TraceLayer::Via,
                        dsim::TraceKind::ContextSwitch,
                        self.costs.context_switch,
                        dsim::TraceTag::on_conn(self.id),
                    );
                }
            }
        }
    }

    /// Number of pre-posted (not yet consumed) receive descriptors.
    pub fn recv_pending(&self) -> usize {
        self.rq.pending.lock().len()
    }
}
