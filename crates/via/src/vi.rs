//! Virtual Interfaces: the communication endpoints of VIA.

use std::collections::VecDeque;
use std::convert::Infallible;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
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

/// Indices of the two work queues in a VI's arrays.
pub(crate) const SEND: usize = WqKind::Send as usize;
pub(crate) const RECV: usize = WqKind::Recv as usize;

/// A VI's connection state and both work queues' descriptors, under one
/// lock: a post checks the state and enqueues in one critical section.
struct Inner {
    state: ViState,
    /// Send queue, then receive queue.
    queues: [Queues; 2],
}

/// One work queue's descriptors, owned by value: a post moves one into
/// `pending`, the NIC moves it to `completed` with its status written in
/// place, and a Done/Wait call moves it out again.
#[derive(Default)]
struct Queues {
    /// Posted descriptors the NIC has not taken yet, FIFO: the sequence
    /// numbers `posted - pending.len() .. posted`.
    pending: VecDeque<Descriptor>,
    /// Completed descriptors not yet reaped by Done/Wait, FIFO.
    completed: VecDeque<Descriptor>,
    /// Descriptors ever posted: the sequence number of the next post.
    posted: u64,
    /// The descriptor the NIC has taken and not completed yet (the engine
    /// is serial, so there is at most one).
    in_nic: Option<u64>,
    /// Sequence numbers completed in error, with their error.
    failed: Vec<(Range<u64>, VipError)>,
}

impl Queues {
    /// Append `desc` to the pending FIFO; returns its sequence number.
    fn post(&mut self, mut desc: Descriptor) -> u64 {
        desc.reset();
        self.pending.push_back(desc);
        self.posted += 1;
        self.posted - 1
    }

    /// Fail every pending descriptor; returns how many were failed.
    fn fail_all(&mut self, err: VipError) -> usize {
        let n = self.pending.len();
        if n > 0 {
            self.failed.push((self.posted - n as u64..self.posted, err));
        }
        for mut d in self.pending.drain(..) {
            d.fail(err);
            self.completed.push_back(d);
        }
        n
    }
}

/// Whom one work queue tells of a completion: its waiters, and its
/// completion queue with this queue's entry.
struct Notifier {
    cv: SimCondvar,
    cq: Option<Arc<CompletionQueue>>,
    entry: CqEntry,
}

impl Notifier {
    /// Wake the waiters, and post `completions` entries to the CQ.
    fn notify(&self, completions: usize) {
        self.cv.notify_all();
        if let Some(cq) = &self.cq {
            for _ in 0..completions {
                cq.push(self.entry);
            }
        }
    }
}

/// A Virtual Interface endpoint.
pub struct Vi {
    pub(crate) id: u32,
    pub(crate) reliability: Reliability,
    inner: Mutex<Inner>,
    /// Whether `inner.state` is an error, readable without the lock: a
    /// post refuses a broken VI before it charges anything.
    broken: AtomicBool,
    /// Send queue, then receive queue.
    notifiers: [Notifier; 2],
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
        let notifier = |cq, kind| Notifier {
            cv: SimCondvar::new(sim),
            cq,
            entry: CqEntry { vi_id: id, kind },
        };
        Arc::new(Vi {
            id,
            reliability: attrs.reliability.unwrap_or(Reliability::Unreliable),
            inner: Mutex::new(Inner {
                state: ViState::Idle,
                queues: Default::default(),
            }),
            broken: AtomicBool::new(false),
            notifiers: [
                notifier(attrs.send_cq, WqKind::Send),
                notifier(attrs.recv_cq, WqKind::Recv),
            ],
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
        self.inner.lock().state
    }

    /// The error a broken VI is in, if it is broken. Reads the `broken`
    /// mirror first, so asking about a healthy VI takes no lock.
    pub fn error(&self) -> Option<VipError> {
        match self.broken.load(Ordering::Relaxed).then(|| self.state()) {
            Some(ViState::Error(e)) => Some(e),
            _ => None,
        }
    }

    /// The peer, if connected.
    pub fn peer(&self) -> Option<(ViaNicId, u32)> {
        match self.state() {
            ViState::Connected { peer_nic, peer_vi } => Some((peer_nic, peer_vi)),
            _ => None,
        }
    }

    pub(crate) fn set_state(&self, s: ViState) {
        let mut inner = self.inner.lock();
        inner.state = s;
        self.broken
            .store(matches!(s, ViState::Error(_)), Ordering::Relaxed);
    }

    /// NIC side: take the oldest pending descriptor of one queue to
    /// process.
    pub(crate) fn take(&self, wq: usize) -> Option<Descriptor> {
        let mut inner = self.inner.lock();
        let q = &mut inner.queues[wq];
        let desc = q.pending.pop_front()?;
        q.in_nic = Some(q.posted - q.pending.len() as u64 - 1);
        Some(desc)
    }

    /// NIC side: move the descriptor taken by [`Vi::take`], its status
    /// written, to the completed list and notify.
    pub(crate) fn complete(&self, wq: usize, desc: Descriptor) {
        {
            let mut inner = self.inner.lock();
            let q = &mut inner.queues[wq];
            if let (Some(seq), DescState::Error(e)) = (q.in_nic.take(), desc.status().state) {
                q.failed.push((seq..seq + 1, e));
            }
            q.completed.push_back(desc);
        }
        self.notifiers[wq].notify(1);
    }

    /// Break the VI: fail all pending descriptors and wake every waiter.
    /// Each failed descriptor also produces a completion-queue entry — a
    /// broken VI must be visible to CQ-driven consumers, exactly like a
    /// successful completion.
    pub(crate) fn break_with(&self, err: VipError) {
        let failed = {
            let mut inner = self.inner.lock();
            inner.state = ViState::Error(err);
            self.broken.store(true, Ordering::Relaxed);
            inner.queues.each_mut().map(|q| q.fail_all(err))
        };
        self.notifiers[SEND].notify(failed[SEND]);
        // With nothing pending there is no failed descriptor to surface, so
        // the receive side pushes one sentinel entry: a CQ-driven layer
        // (SOVIA's progress engine) still gets woken, polls the VI, and
        // observes the error state. Consumers that find no completed
        // descriptor behind an entry already treat it as a spurious wake.
        self.notifiers[RECV].notify(failed[RECV].max(1));
    }

    /// `VipPostSend`: queue a send descriptor and ring the doorbell.
    /// Returns the send's sequence number on this VI (see
    /// [`Vi::send_state`]).
    pub fn post_send(&self, ctx: &SimCtx, desc: Descriptor) -> VipResult<u64> {
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
    pub fn post_send_uncharged(&self, desc: Descriptor) -> VipResult<u64> {
        if desc.len > self.max_transfer {
            return Err(VipError::TooLarge);
        }
        let mut inner = self.inner.lock();
        let seq = match inner.state {
            ViState::Connected { .. } => inner.queues[SEND].post(desc),
            ViState::Error(e) => return Err(e),
            _ => return Err(VipError::NotConnected),
        };
        drop(inner);
        (self.doorbell)(self.id);
        Ok(seq)
    }

    /// `VipPostRecv`: pre-post a receive descriptor. Allowed in any
    /// non-error state (and *required* before the peer sends — the
    /// pre-posting constraint).
    pub fn post_recv(&self, ctx: &SimCtx, desc: Descriptor) -> VipResult<()> {
        // A VI broken already is not charged; one that breaks during the
        // charge must not get the descriptor behind `break_with`.
        if let Some(e) = self.error() {
            return Err(e);
        }
        self.charge_post(ctx, &desc);
        let mut inner = self.inner.lock();
        if let ViState::Error(e) = inner.state {
            return Err(e);
        }
        inner.queues[RECV].post(desc);
        Ok(())
    }

    /// Pre-post a receive ring on a VI that is still `Idle`: the
    /// pre-posting constraint puts every descriptor in place before the
    /// connection exists. The receive queue is reserved once for all of
    /// them, and each is charged and posted exactly as [`Vi::post_recv`]
    /// does. A VI in any other state is refused with
    /// [`VipError::InvalidState`] before anything is charged.
    pub fn prepost(
        &self,
        ctx: &SimCtx,
        mut descs: impl ExactSizeIterator<Item = Descriptor>,
    ) -> VipResult<()> {
        {
            let mut inner = self.inner.lock();
            if inner.state != ViState::Idle {
                return Err(VipError::InvalidState);
            }
            inner.queues[RECV].pending.reserve_exact(descs.len());
        }
        descs.try_for_each(|desc| self.post_recv(ctx, desc))
    }

    /// The state of the send posted with sequence number `seq`: `Pending`
    /// until the NIC completes it, then `Done` or `Error` — whether or not
    /// a Done/Wait call has reaped its descriptor since.
    pub fn send_state(&self, seq: u64) -> DescState {
        let inner = self.inner.lock();
        let q = &inner.queues[SEND];
        debug_assert!(seq < q.posted, "sequence number {seq} was never posted");
        if seq >= q.posted - q.pending.len() as u64 || q.in_nic == Some(seq) {
            return DescState::Pending;
        }
        q.failed
            .iter()
            .find(|(seqs, _)| seqs.contains(&seq))
            .map_or(DescState::Done, |&(_, e)| DescState::Error(e))
    }

    /// Pop a completed send descriptor without charging a poll (layered
    /// protocols charge their own costs and need the pop to compose
    /// atomically with their bookkeeping locks).
    pub fn send_done_uncharged(&self) -> Option<Descriptor> {
        self.inner.lock().queues[SEND].completed.pop_front()
    }

    /// Pop a completed receive descriptor without charging a poll.
    pub fn recv_done_uncharged(&self) -> Option<Descriptor> {
        self.inner.lock().queues[RECV].completed.pop_front()
    }

    /// Park until *something* happens on the send queue (a completion or a
    /// connection-state change). Callers re-check their predicate in a
    /// loop; no cost is charged here.
    pub fn wait_send_event(&self, ctx: &SimCtx) {
        self.notifiers[SEND].cv.wait(ctx);
    }

    /// `VipSendWait`: block until a send descriptor completes.
    pub fn send_wait(&self, ctx: &SimCtx, mode: WaitMode) -> VipResult<Descriptor> {
        self.wait_blocking(ctx, mode, SEND)
    }

    /// `VipRecvWait`: block until a receive descriptor completes.
    pub fn recv_wait(&self, ctx: &SimCtx, mode: WaitMode) -> VipResult<Descriptor> {
        self.wait_blocking(ctx, mode, RECV)
    }

    fn wait_blocking(&self, ctx: &SimCtx, mode: WaitMode, wq: usize) -> VipResult<Descriptor> {
        let Ok(r) = self.wait_on(ctx, mode, wq, |cv| {
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
    ) -> Result<VipResult<Descriptor>, Shutdown> {
        self.wait_on(ctx, mode, RECV, |cv| cv.wait_idle(ctx))
    }

    /// Wait for the next completion on work queue `wq`, blocking in `wait`.
    fn wait_on<E>(
        &self,
        ctx: &SimCtx,
        mode: WaitMode,
        wq: usize,
        wait: impl Fn(&SimCondvar) -> Result<(), E>,
    ) -> Result<VipResult<Descriptor>, E> {
        loop {
            {
                let mut inner = self.inner.lock();
                if let Some(d) = inner.queues[wq].completed.pop_front() {
                    return Ok(match d.status().state {
                        DescState::Done => Ok(d),
                        DescState::Error(e) => Err(e),
                        DescState::Pending => unreachable!("pending descriptor in completed list"),
                    });
                }
                if let ViState::Error(e) = inner.state {
                    return Ok(Err(e));
                }
            }
            wait(&self.notifiers[wq].cv)?;
            let (kind, cost) = match mode {
                WaitMode::Poll => (dsim::TraceKind::Poll, self.costs.poll_check),
                WaitMode::Block => (dsim::TraceKind::ContextSwitch, self.costs.context_switch),
            };
            let tag = dsim::TraceTag::on_conn(self.id);
            ctx.charge(dsim::TraceLayer::Via, kind, cost, tag);
        }
    }

    /// Number of pre-posted (not yet consumed) receive descriptors.
    pub fn recv_pending(&self) -> usize {
        self.inner.lock().queues[RECV].pending.len()
    }
}
