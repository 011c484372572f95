//! One established SOVIA connection: the protocol of Sections 3 and 4.
//!
//! Every connection owns a VI plus three pre-registered buffer pools
//! (receive bounce buffers, sender-side copy slots, control-packet slots)
//! and implements:
//!
//! * the two-way handshake satisfying the pre-posting constraint — DATA is
//!   sent only against *credits*, where one credit = one pre-posted
//!   descriptor at the receiver, returned via ACK packets;
//! * sliding-window flow control (`w` credits) or stop-and-wait (`w` = 1);
//! * delayed acknowledgments: up to `t` ACKs coalesced and piggybacked on
//!   reverse DATA in the immediate-data field;
//! * hybrid copy-vs-register: small sends are memcpy'd into pre-registered
//!   slots, large sends register the user buffer and go zero-copy;
//! * small-message combining with a 100 ms software timer;
//! * the DATA/ACK/WAKEUP/FIN/FINACK close handshake.
//!
//! Lock discipline (this matters in the virtual-time executor): **no lock
//! is ever held across a time-advancing call**. Costs are charged before
//! or after critical sections. Inside them, posting to VIA work queues
//! uses the `_uncharged` variants, and a combined send writes its slot
//! with an uncharged store whose COW faults are charged once the guard
//! drops. The locks:
//!
//! * `send_state`: the send side, that is the credits, the inflight FIFO
//!   paired with the VI's send queue, the pending combine buffer and the
//!   protocol counters. A combined send that finds room takes it once, to
//!   reap completions and append.
//! * `ingress`: serializes popping and applying receive completions.
//! * `rdata`: received DATA that `recv()` has not consumed yet.
//! * `dacks`: acknowledgments owed to the peer.
//! * `peer`, `fd_hint`: set while the connection is established.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use dsim::SimCtx;
use parking_lot::Mutex;
use simos::mem::{charge_cow_faults, VAddr};
use simos::{HostCosts, Process};
use sockets::{SockAddr, SockError, SockResult};
use via::{DescState, Descriptor, MemRegion, VipError, ViaNic, Vi};

use crate::buffers::SlotPool;
use crate::config::{SoviaConfig, CHUNK_SIZE, COMBINE_TIMER_COST};
use crate::library::SoviaLib;
use crate::packet::{decode, encode, PacketType, WakeupInfo};

/// Control-slot size (WAKEUP payload is 12 bytes; ACK/FIN are empty).
const CTRL_SLOT: usize = 64;
/// Control slots per connection (re-posted immediately after use).
const CTRL_SLOTS: usize = 8;

/// What a posted send descriptor was for (parallel FIFO with the VIA send
/// queue, so completions release the right resource).
enum InflightKind {
    /// A sender-side copy slot.
    DataSlot(usize),
    /// A control-pool slot.
    Ctrl(usize),
    /// A zero-copy registered user buffer (waiter deregisters it).
    ZeroCopy,
}

/// The send side of a connection, under one lock: a combined send takes
/// it once, to reap completions and append to the pending buffer.
struct SendState {
    /// Send credits: pre-posted descriptors available at the receiver.
    credits: u32,
    inflight: VecDeque<InflightKind>,
    /// The pending combine buffer, if any.
    combine: Option<Combine>,
    stats: ConnStats,
}

struct RecvItem {
    desc: Arc<Descriptor>,
    consumed: usize,
}

/// A pending combine buffer (the Nagle-like accumulation).
struct Combine {
    slot: usize,
    filled: usize,
    epoch: u64,
}

/// Per-connection protocol counters (tests and the harness read these).
#[derive(Debug, Clone, Copy, Default)]
pub struct ConnStats {
    /// DATA packets sent.
    pub data_sent: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// DATA packets received.
    pub data_rcvd: u64,
    /// Payload bytes received.
    pub bytes_rcvd: u64,
    /// Explicit ACK packets sent.
    pub acks_sent: u64,
    /// Acknowledgments piggybacked on outgoing DATA.
    pub acks_piggybacked: u64,
    /// Memory registrations performed for zero-copy sends.
    pub zero_copy_registrations: u64,
    /// Sends that were combined into a pending buffer.
    pub combined_sends: u64,
}

/// One SOVIA connection.
pub struct SovConn {
    pub(crate) vi: Arc<Vi>,
    nic: Arc<ViaNic>,
    process: Process,
    config: SoviaConfig,
    costs: HostCosts,

    local: SockAddr,
    peer: Mutex<Option<SockAddr>>,
    fd_hint: Mutex<i32>,

    recv_pool: Arc<SlotPool>,
    send_pool: Arc<SlotPool>,
    ctrl_pool: Arc<SlotPool>,
    /// Reusable staging buffer for zero-copy sends.
    staging: VAddr,

    /// Serializes pop+apply of receive completions so stream order is
    /// preserved even with several servicing threads.
    ingress: Mutex<()>,
    rdata: Mutex<VecDeque<RecvItem>>,
    dacks: Mutex<u32>,
    send_state: Mutex<SendState>,
    combine_epoch: AtomicU64,

    req_outstanding: AtomicBool,
    wakeup_rcvd: AtomicBool,
    fin_rcvd: AtomicBool,
    fin_sent: AtomicBool,
    finack_rcvd: AtomicBool,
    finalized: AtomicBool,
    local_closed: AtomicBool,
    reset: AtomicBool,
}

/// Follow-up work decided under the ingress lock, executed after it drops.
enum Action {
    Repost(Arc<Descriptor>),
    /// A REQ arrived: re-post and grant one transfer permission.
    Grant(Arc<Descriptor>),
    Data,
    Fin(Arc<Descriptor>),
    Reset,
}

impl SovConn {
    /// Build a connection over a fresh VI: allocate and register the pools
    /// and pre-post every receive descriptor (this *must* precede the VIA
    /// connection handshake — pre-posting constraint).
    pub(crate) fn new(
        ctx: &SimCtx,
        lib: &SoviaLib,
        vi: Arc<Vi>,
        local: SockAddr,
    ) -> Arc<SovConn> {
        let process = lib.process().clone();
        let config = lib.config().clone();
        let costs = process.costs().clone();
        let shared = config.use_shared_segments;
        let prepost = config.prepost_count();
        let recv_pool = SlotPool::new(ctx, &process, prepost, CHUNK_SIZE, shared);
        let send_pool = SlotPool::new(ctx, &process, config.window as usize, CHUNK_SIZE, shared);
        let ctrl_pool = SlotPool::new(ctx, &process, CTRL_SLOTS, CTRL_SLOT, shared);
        let staging = process.alloc(ctx, CHUNK_SIZE);

        let conn = Arc::new(SovConn {
            vi,
            nic: lib.nic().clone(),
            process,
            costs,
            local,
            peer: Mutex::new(None),
            fd_hint: Mutex::new(-1),
            recv_pool,
            send_pool,
            ctrl_pool,
            staging,
            ingress: Mutex::new(()),
            rdata: Mutex::new(VecDeque::new()),
            dacks: Mutex::new(0),
            send_state: Mutex::new(SendState {
                // The rejected REQ/ACK design starts with no permission at
                // all; otherwise one credit per pre-posted data slot.
                credits: if config.explicit_handshake {
                    0
                } else {
                    config.window
                },
                inflight: VecDeque::new(),
                combine: None,
                stats: ConnStats::default(),
            }),
            req_outstanding: AtomicBool::new(false),
            combine_epoch: AtomicU64::new(0),
            wakeup_rcvd: AtomicBool::new(false),
            fin_rcvd: AtomicBool::new(false),
            fin_sent: AtomicBool::new(false),
            finack_rcvd: AtomicBool::new(false),
            finalized: AtomicBool::new(false),
            local_closed: AtomicBool::new(false),
            reset: AtomicBool::new(false),
            config,
        });
        // Pre-post the full descriptor complement.
        for i in 0..prepost {
            let d = Descriptor::recv(
                Arc::clone(conn.recv_pool.region()),
                conn.recv_pool.offset_of(i),
                conn.recv_pool.slot_size(),
            );
            conn.vi
                .post_recv(ctx, d)
                // sovia-lint: allow(R5) -- invariant, not an error path: the VI was created above with a ring sized for exactly these pre-posts, so a failure is a library bug
                .expect("pre-posting on a fresh VI cannot fail");
        }
        conn
    }

    /// The VI id (the key in the library's connection table).
    pub fn vi_id(&self) -> u32 {
        self.vi.id()
    }

    /// Local address.
    pub fn local_addr(&self) -> SockAddr {
        self.local
    }

    /// Peer address (known after connect, or after WAKEUP on accept).
    pub fn peer_addr(&self) -> Option<SockAddr> {
        *self.peer.lock()
    }

    pub(crate) fn set_peer(&self, addr: SockAddr) {
        *self.peer.lock() = Some(addr);
    }

    pub(crate) fn set_fd_hint(&self, fd: i32) {
        *self.fd_hint.lock() = fd;
    }

    /// Whether the peer's WAKEUP has been processed.
    pub(crate) fn wakeup_received(&self) -> bool {
        self.wakeup_rcvd.load(Ordering::Relaxed)
    }

    /// True if the connection can no longer make progress: a reset was
    /// observed, or the VI itself sits in the error state.
    pub(crate) fn is_broken(&self) -> bool {
        self.reset.load(Ordering::Relaxed)
            || matches!(self.vi.state(), via::ViState::Error(_))
    }

    /// Protocol counters.
    pub fn stats(&self) -> ConnStats {
        self.send_state.lock().stats
    }

    /// Current send credits (diagnostics/tests).
    pub fn credits(&self) -> u32 {
        self.send_state.lock().credits
    }

    /// Whether the application closed this connection.
    pub(crate) fn is_closed(&self) -> bool {
        self.local_closed.load(Ordering::Relaxed)
    }

    fn check_open(&self) -> SockResult<()> {
        if self.local_closed.load(Ordering::Relaxed) || self.fin_sent.load(Ordering::Relaxed) {
            // Fully closed, or half-closed for writing.
            return Err(SockError::Closed);
        }
        if self.reset.load(Ordering::Relaxed) {
            return Err(SockError::ConnectionReset);
        }
        Ok(())
    }

    fn map_vip(e: VipError) -> SockError {
        match e {
            VipError::Disconnected => SockError::ConnectionReset,
            VipError::ConnectionRefused => SockError::ConnectionRefused,
            VipError::NotConnected => SockError::NotConnected,
            _ => SockError::ConnectionReset,
        }
    }

    // ----- send-side completion reaping ---------------------------------

    /// Pop one send completion, if there is one, and release the resource
    /// its inflight record names. With nothing in flight, the VI's queue is
    /// not looked at.
    fn reap_one(&self, ss: &mut SendState) -> bool {
        if ss.inflight.is_empty() || self.vi.send_done_uncharged().is_none() {
            return false;
        }
        match ss.inflight.pop_front() {
            Some(InflightKind::DataSlot(i)) => self.send_pool.release(i),
            Some(InflightKind::Ctrl(i)) => self.ctrl_pool.release(i),
            Some(InflightKind::ZeroCopy) | None => {}
        }
        true
    }

    /// Charge one poll of the send queue.
    fn charge_poll(&self, ctx: &SimCtx) {
        ctx.charge(
            dsim::TraceLayer::Sovia,
            dsim::TraceKind::Poll,
            self.costs.poll_check,
            dsim::TraceTag::on_conn(self.vi.id()),
        );
    }

    /// Block until at least one send completion is reaped.
    fn reap_one_blocking(&self, ctx: &SimCtx) -> SockResult<()> {
        loop {
            self.charge_poll(ctx);
            if self.reap_one(&mut self.send_state.lock()) {
                return Ok(());
            }
            if self.reset.load(Ordering::Relaxed) {
                return Err(SockError::ConnectionReset);
            }
            self.vi.wait_send_event(ctx);
        }
    }

    fn acquire_data_slot(&self, ctx: &SimCtx) -> SockResult<usize> {
        loop {
            if let Some(i) = self.send_pool.try_acquire() {
                return Ok(i);
            }
            self.reap_one_blocking(ctx)?;
        }
    }

    fn acquire_ctrl_slot(&self, ctx: &SimCtx) -> SockResult<usize> {
        loop {
            if let Some(i) = self.ctrl_pool.try_acquire() {
                return Ok(i);
            }
            self.reap_one_blocking(ctx)?;
        }
    }

    // ----- credits and acknowledgments ----------------------------------

    fn wait_credit(&self, ctx: &SimCtx, lib: &SoviaLib) -> SockResult<()> {
        loop {
            {
                let mut ss = self.send_state.lock();
                if ss.credits > 0 {
                    ss.credits -= 1;
                    self.req_outstanding.store(false, Ordering::Relaxed);
                    return Ok(());
                }
            }
            if self.reset.load(Ordering::Relaxed) {
                return Err(SockError::ConnectionReset);
            }
            // The VI itself may have broken (fault injection, forced
            // disconnect) without a completion to carry the news.
            if let via::ViState::Error(e) = self.vi.state() {
                self.reset.store(true, Ordering::Relaxed);
                return Err(Self::map_vip(e));
            }
            // The rejected three-way handshake: ask permission for the
            // next DATA and wait for the receiver's grant.
            if self.config.explicit_handshake
                && !self.req_outstanding.swap(true, Ordering::Relaxed)
            {
                self.post_control(ctx, lib, PacketType::Req, 0, &[])?;
            }
            lib.wait_progress(ctx);
        }
    }

    fn take_dacks(&self) -> u32 {
        std::mem::take(&mut *self.dacks.lock())
    }

    /// Called when the application consumed a DATA packet and its
    /// descriptor was re-posted: accumulate a delayed ACK, flushing per
    /// the configured policy.
    fn note_consumed(&self, ctx: &SimCtx, lib: &SoviaLib) {
        if self.config.explicit_handshake {
            // Grants are given only in answer to REQ packets.
            return;
        }
        let to_ack = {
            let mut d = self.dacks.lock();
            *d += 1;
            if *d >= self.config.ack_threshold {
                std::mem::take(&mut *d)
            } else {
                0
            }
        };
        if to_ack > 0 {
            // An unsendable ACK (peer torn down) is not the app's problem.
            let _ = self.post_control(ctx, lib, PacketType::Ack, to_ack, &[]);
            self.send_state.lock().stats.acks_sent += 1;
            // to_ack - 1 acknowledgments were coalesced into this one
            // explicit ACK packet.
            if to_ack > 1 {
                ctx.trace_count(
                    dsim::TraceLayer::Sovia,
                    dsim::TraceKind::AcksDelayed,
                    u64::from(to_ack - 1),
                    dsim::TraceTag::on_conn(self.vi.id()),
                );
            }
        }
    }

    // ----- posting -------------------------------------------------------

    fn post_control(
        &self,
        ctx: &SimCtx,
        _lib: &SoviaLib,
        ptype: PacketType,
        acks: u32,
        payload: &[u8],
    ) -> SockResult<()> {
        assert!(payload.len() <= CTRL_SLOT);
        let slot = self.acquire_ctrl_slot(ctx)?;
        if !payload.is_empty() {
            self.ctrl_pool.write_slot(ctx, slot, 0, payload);
            self.charge_copy(ctx, payload.len());
        }
        self.charge_post(ctx, 0, 0);
        if ctx.trace_enabled() {
            let mark = match ptype {
                PacketType::Req => Some(dsim::TraceKind::HandshakeReq),
                PacketType::Wakeup => Some(dsim::TraceKind::HandshakeWakeup),
                PacketType::Fin => Some(dsim::TraceKind::HandshakeFin),
                PacketType::FinAck => Some(dsim::TraceKind::HandshakeFinAck),
                PacketType::Data | PacketType::Ack => None,
            };
            if let Some(kind) = mark {
                ctx.trace_instant(
                    dsim::TraceLayer::Sovia,
                    kind,
                    dsim::TraceTag::on_conn(self.vi.id()).value(u64::from(acks)),
                );
            }
        }
        let desc = Descriptor::send(
            Arc::clone(self.ctrl_pool.region()),
            self.ctrl_pool.offset_of(slot),
            payload.len(),
            Some(encode(ptype, acks)),
        );
        let posted = {
            let mut ss = self.send_state.lock();
            (self.vi.post_send_uncharged(desc))
                .map(|()| ss.inflight.push_back(InflightKind::Ctrl(slot)))
        };
        posted.map_err(|e| {
            self.ctrl_pool.release(slot);
            Self::map_vip(e)
        })
    }

    /// Charge posting one descriptor and ringing the doorbell. `data_len`
    /// is the DATA payload (0 for a control packet), and `piggy` the
    /// acknowledgments riding on it.
    fn charge_post(&self, ctx: &SimCtx, data_len: usize, piggy: u32) {
        let tag = dsim::TraceTag::on_conn(self.vi.id());
        ctx.charge(
            dsim::TraceLayer::Sovia,
            dsim::TraceKind::DescriptorPost,
            self.costs.descriptor_post + self.costs.doorbell,
            tag.value(data_len as u64),
        );
        ctx.trace_count(
            dsim::TraceLayer::Sovia,
            dsim::TraceKind::DescriptorsPosted,
            1,
            tag,
        );
        if piggy > 0 {
            ctx.trace_count(
                dsim::TraceLayer::Sovia,
                dsim::TraceKind::AcksPiggybacked,
                u64::from(piggy),
                tag,
            );
        }
    }

    /// Post a DATA descriptor and record it in flight, with its counters.
    fn post_data(
        &self,
        desc: Arc<Descriptor>,
        kind: InflightKind,
        piggy: u32,
    ) -> Result<(), VipError> {
        let len = desc.len as u64;
        let mut ss = self.send_state.lock();
        self.vi.post_send_uncharged(desc)?;
        ss.inflight.push_back(kind);
        ss.stats.data_sent += 1;
        ss.stats.bytes_sent += len;
        ss.stats.acks_piggybacked += u64::from(piggy);
        Ok(())
    }

    /// Post a DATA packet from a sender-side slot (waits for a credit).
    fn post_data_slot(&self, ctx: &SimCtx, lib: &SoviaLib, slot: usize, len: usize) -> SockResult<()> {
        debug_assert!(len > 0);
        self.wait_credit(ctx, lib)?;
        let piggy = self.take_dacks();
        self.charge_post(ctx, len, piggy);
        let desc = Descriptor::send(
            Arc::clone(self.send_pool.region()),
            self.send_pool.offset_of(slot),
            len,
            Some(encode(PacketType::Data, piggy)),
        );
        self.post_data(desc, InflightKind::DataSlot(slot), piggy)
            .map_err(|e| {
                // Credit already consumed; on a dead conn that is moot.
                self.send_pool.release(slot);
                Self::map_vip(e)
            })
    }

    /// Send the WAKEUP packet after connection establishment.
    pub(crate) fn send_wakeup(&self, ctx: &SimCtx, lib: &SoviaLib) -> SockResult<()> {
        let info = WakeupInfo {
            sockdes: *self.fd_hint.lock(),
            host: self.local.host,
            port: self.local.port,
        };
        self.post_control(ctx, lib, PacketType::Wakeup, 0, &info.encode())
    }

    // ----- the sockets-facing operations ---------------------------------

    /// `send()` (Section 3.1/3.2 decision tree).
    pub fn send(&self, ctx: &SimCtx, lib: &SoviaLib, data: &[u8], nodelay: bool) -> SockResult<usize> {
        self.check_open()?;
        if data.is_empty() {
            return Ok(0);
        }
        // Poll for completed sends; the reap itself runs under the send lock
        // of the path that follows.
        self.charge_poll(ctx);
        if self.config.combine_small && !nodelay && data.len() < self.config.copy_threshold {
            return self.combine_send(ctx, lib, data);
        }
        while self.reap_one(&mut self.send_state.lock()) {}
        // Condition (3): a message above the threshold flushes the buffer
        // first, then goes out the normal way.
        self.flush_combine(ctx, lib)?;
        if data.len() <= self.config.copy_threshold {
            self.send_buffered(ctx, lib, data)
        } else {
            self.send_zero_copy(ctx, lib, data)
        }
    }

    fn send_buffered(&self, ctx: &SimCtx, lib: &SoviaLib, data: &[u8]) -> SockResult<usize> {
        let slot = self.acquire_data_slot(ctx)?;
        self.send_pool.write_slot(ctx, slot, 0, data);
        self.charge_copy(ctx, data.len());
        self.post_data_slot(ctx, lib, slot, data.len())?;
        Ok(data.len())
    }

    fn send_zero_copy(&self, ctx: &SimCtx, lib: &SoviaLib, data: &[u8]) -> SockResult<usize> {
        for chunk in data.chunks(CHUNK_SIZE) {
            // The bytes already exist in user memory; staging them into the
            // simulated buffer is a modeling artifact and charges nothing.
            self.process.write_mem(ctx, self.staging, chunk);
            // Zero-copy: pay one registration per transfer (Section 3.1).
            let region = MemRegion::register(ctx, &self.process, self.staging, chunk.len());
            self.send_state.lock().stats.zero_copy_registrations += 1;
            ctx.trace_count(
                dsim::TraceLayer::Sovia,
                dsim::TraceKind::BytesZeroCopy,
                chunk.len() as u64,
                dsim::TraceTag::on_conn(self.vi.id()),
            );
            self.wait_credit(ctx, lib)?;
            let piggy = self.take_dacks();
            self.charge_post(ctx, chunk.len(), piggy);
            let desc = Descriptor::send(
                Arc::clone(&region),
                0,
                chunk.len(),
                Some(encode(PacketType::Data, piggy)),
            );
            let posted = self.post_data(Arc::clone(&desc), InflightKind::ZeroCopy, piggy);
            if posted.is_err() {
                region.deregister(ctx);
                return Err(SockError::ConnectionReset);
            }
            // The user may reuse the buffer after send() returns, so wait
            // for the NIC to finish with it, then deregister.
            while !desc.is_done() {
                if let DescState::Error(_) = desc.status().state {
                    break;
                }
                self.reap_one_blocking(ctx)?;
            }
            region.deregister(ctx);
            if let DescState::Error(e) = desc.status().state {
                self.reset.store(true, Ordering::Relaxed);
                return Err(Self::map_vip(e));
            }
        }
        Ok(data.len())
    }

    /// Reap completed sends and append `data` to the combine buffer: with
    /// a pending buffer that has room, one send-lock round trip does both.
    fn combine_send(&self, ctx: &SimCtx, lib: &SoviaLib, data: &[u8]) -> SockResult<usize> {
        let mut ss = self.send_state.lock();
        while self.reap_one(&mut ss) {}
        loop {
            match ss.combine.as_mut() {
                Some(st) if st.filled + data.len() <= CHUNK_SIZE => {
                    // The store is uncharged; its COW faults are charged
                    // once the guard is gone.
                    let faults = self.send_pool.store_slot(st.slot, st.filled, data);
                    st.filled += data.len();
                    let full = st.filled >= CHUNK_SIZE;
                    ss.stats.combined_sends += 1;
                    drop(ss);
                    charge_cow_faults(ctx, &self.costs, faults);
                    self.charge_copy(ctx, data.len());
                    ctx.trace_count(
                        dsim::TraceLayer::Sovia,
                        dsim::TraceKind::CombinedSends,
                        1,
                        dsim::TraceTag::on_conn(self.vi.id()),
                    );
                    if full {
                        self.flush_combine(ctx, lib)?;
                    }
                    return Ok(data.len());
                }
                // Condition (2): flush when there is no room.
                Some(_) => {
                    drop(ss);
                    self.flush_combine(ctx, lib)?;
                }
                None => {
                    drop(ss);
                    self.start_combine(ctx, lib)?;
                }
            }
            ss = self.send_state.lock();
        }
    }

    /// Install a fresh combine buffer: take a slot, install it, then arm
    /// the timer for it.
    fn start_combine(&self, ctx: &SimCtx, lib: &SoviaLib) -> SockResult<()> {
        let slot = self.acquire_data_slot(ctx)?;
        // "the sender starts a timer": 1-2 us of software-timer
        // management (the COMBINE-vs-SINGLE latency gap in Fig 6a).
        ctx.charge(
            dsim::TraceLayer::Sovia,
            dsim::TraceKind::Timer,
            COMBINE_TIMER_COST,
            dsim::TraceTag::on_conn(self.vi.id()),
        );
        let mut ss = self.send_state.lock();
        if ss.combine.is_some() {
            // Another thread installed one while this one charged.
            drop(ss);
            self.send_pool.release(slot);
            return Ok(());
        }
        let epoch = self.combine_epoch.fetch_add(1, Ordering::Relaxed) + 1;
        ss.combine = Some(Combine {
            slot,
            filled: 0,
            epoch,
        });
        lib.mark_combining(self.vi_id(), true);
        drop(ss);
        lib.arm_combine_timer(self, epoch);
        Ok(())
    }

    /// Whether the combine buffer installed at `epoch` is still pending
    /// (no flush has taken it yet).
    pub(crate) fn holds_combine_epoch(&self, epoch: u64) -> bool {
        let ss = self.send_state.lock();
        ss.combine.as_ref().is_some_and(|st| st.epoch == epoch)
    }

    /// Charge a memcpy of `len` bytes.
    fn charge_copy(&self, ctx: &SimCtx, len: usize) {
        let tag = dsim::TraceTag::on_conn(self.vi.id());
        ctx.charge(
            dsim::TraceLayer::Sovia,
            dsim::TraceKind::Copy,
            self.costs.memcpy(len),
            tag.value(len as u64),
        );
        ctx.trace_count(
            dsim::TraceLayer::Sovia,
            dsim::TraceKind::BytesCopied,
            len as u64,
            tag,
        );
    }

    /// Flush the combine buffer if present (conditions (1)–(4)).
    pub fn flush_combine(&self, ctx: &SimCtx, lib: &SoviaLib) -> SockResult<()> {
        self.flush_if_epoch(ctx, lib, None)
    }

    /// Like [`SovConn::flush_combine`], but with `Some(epoch)` (the timer
    /// thread's path) only if that armed epoch is still current: another
    /// flush may run between the timer's expiry and the timer thread's
    /// turn. Taking the buffer drops this connection from the library's
    /// dirty list.
    pub(crate) fn flush_if_epoch(
        &self,
        ctx: &SimCtx,
        lib: &SoviaLib,
        epoch: Option<u64>,
    ) -> SockResult<()> {
        let armed = |st: &mut Combine| epoch.unwrap_or(st.epoch) == st.epoch;
        let Some(st) = self.send_state.lock().combine.take_if(armed) else {
            return Ok(());
        };
        lib.mark_combining(self.vi_id(), false);
        if st.filled == 0 {
            self.send_pool.release(st.slot);
            return Ok(());
        }
        self.post_data_slot(ctx, lib, st.slot, st.filled)
    }

    /// `recv()`: drain buffered stream data, re-posting descriptors as they
    /// are fully consumed.
    pub fn recv(&self, ctx: &SimCtx, lib: &SoviaLib, max: usize) -> SockResult<Vec<u8>> {
        if self.local_closed.load(Ordering::Relaxed) {
            return Err(SockError::Closed);
        }
        if max == 0 {
            return Ok(Vec::new());
        }
        // Condition (4): entering recv() flushes pending combined data.
        self.flush_combine(ctx, lib)?;
        loop {
            let mut finished_desc = None;
            let mut out = None;
            {
                let mut rd = self.rdata.lock();
                if let Some(item) = rd.front_mut() {
                    let xfer = item.desc.status().xfer_len;
                    let n = (xfer - item.consumed).min(max);
                    let bytes = item
                        .desc
                        .region
                        .dma_read(item.desc.offset + item.consumed, n);
                    item.consumed += n;
                    if item.consumed == xfer {
                        finished_desc = rd.pop_front().map(|i| i.desc);
                    }
                    out = Some(bytes);
                }
            }
            if let Some(bytes) = out {
                // The copy out of the bounce buffer into user memory — the
                // "intermediate buffering" cost of Section 3.1.
                self.charge_copy(ctx, bytes.len());
                if let Some(desc) = finished_desc {
                    self.repost(ctx, &desc);
                    self.note_consumed(ctx, lib);
                }
                self.send_state.lock().stats.bytes_rcvd += bytes.len() as u64;
                return Ok(bytes);
            }
            if self.reset.load(Ordering::Relaxed) {
                return Err(SockError::ConnectionReset);
            }
            if self.fin_rcvd.load(Ordering::Relaxed) {
                return Ok(Vec::new()); // EOF
            }
            // A broken VI with an empty receive queue produces no further
            // completions; surface the breakage instead of blocking.
            if let via::ViState::Error(e) = self.vi.state() {
                self.reset.store(true, Ordering::Relaxed);
                return Err(Self::map_vip(e));
            }
            lib.wait_progress(ctx);
        }
    }

    /// `shutdown(SHUT_WR)`: flush pending combined data and send FIN, but
    /// keep the receive direction open (half-close).
    pub fn shutdown_write(&self, ctx: &SimCtx, lib: &SoviaLib) -> SockResult<()> {
        if self.fin_sent.swap(true, Ordering::Relaxed) {
            return Ok(()); // already half- or fully closed
        }
        let _ = self.flush_combine(ctx, lib);
        let piggy = self.take_dacks();
        let _ = self.post_control(ctx, lib, PacketType::Fin, piggy, &[]);
        self.maybe_finalize(ctx, lib);
        Ok(())
    }

    /// `close()`: flush, send FIN, return immediately (Sockets semantics);
    /// the FINACK/FIN drainage continues on whichever thread services —
    /// the close thread, once the application holds no more sockets.
    pub fn close(&self, ctx: &SimCtx, lib: &SoviaLib) -> SockResult<()> {
        if self.local_closed.swap(true, Ordering::Relaxed) {
            return Ok(());
        }
        if !self.fin_sent.swap(true, Ordering::Relaxed) {
            let _ = self.flush_combine(ctx, lib);
            let piggy = self.take_dacks();
            let _ = self.post_control(ctx, lib, PacketType::Fin, piggy, &[]);
        }
        self.maybe_finalize(ctx, lib);
        Ok(())
    }

    // ----- ingress: processing one receive completion ---------------------

    /// Process one completed receive descriptor, if any. Returns true if
    /// one was processed.
    pub(crate) fn process_completion(&self, ctx: &SimCtx, lib: &SoviaLib) -> bool {
        let action = {
            let _g = self.ingress.lock();
            let Some(desc) = self.vi.recv_done_uncharged() else {
                return false;
            };
            let st = desc.status();
            match st.state {
                DescState::Error(_) => {
                    self.reset.store(true, Ordering::Relaxed);
                    Action::Reset
                }
                DescState::Pending => unreachable!("pending descriptor completed"),
                DescState::Done => match st.immediate.and_then(decode) {
                    // Garbage packet: drop, re-post.
                    None => Action::Repost(desc),
                    Some((ptype, acks)) => {
                        if acks > 0 {
                            self.send_state.lock().credits += acks;
                        }
                        match ptype {
                        PacketType::Data => {
                            self.send_state.lock().stats.data_rcvd += 1;
                            self.rdata.lock().push_back(RecvItem { desc, consumed: 0 });
                            Action::Data
                        }
                        PacketType::Ack => Action::Repost(desc),
                        PacketType::Req => Action::Grant(desc),
                        PacketType::Wakeup => {
                            let payload = desc.region.dma_read(desc.offset, st.xfer_len);
                            if let Some(info) = WakeupInfo::decode(&payload) {
                                let mut peer = self.peer.lock();
                                if peer.is_none() {
                                    *peer = Some(SockAddr::new(info.host, info.port));
                                }
                            }
                            self.wakeup_rcvd.store(true, Ordering::Relaxed);
                            Action::Repost(desc)
                        }
                        PacketType::Fin => {
                            self.fin_rcvd.store(true, Ordering::Relaxed);
                            Action::Fin(desc)
                        }
                        PacketType::FinAck => {
                            self.finack_rcvd.store(true, Ordering::Relaxed);
                            Action::Repost(desc)
                        }
                        }
                    }
                },
            }
        };
        match action {
            Action::Data => {}
            Action::Reset => {}
            Action::Repost(desc) => {
                self.repost(ctx, &desc);
                self.maybe_finalize(ctx, lib);
            }
            Action::Grant(desc) => {
                // "If the receiver becomes ready, it pre-posts two
                // descriptors on its RQ ... and replies to the sender with
                // an ACK" — our pool keeps the descriptors posted; the
                // grant is the ACK carrying one credit.
                self.repost(ctx, &desc);
                let _ = self.post_control(ctx, lib, PacketType::Ack, 1, &[]);
                self.send_state.lock().stats.acks_sent += 1;
            }
            Action::Fin(desc) => {
                self.repost(ctx, &desc);
                let _ = self.post_control(ctx, lib, PacketType::FinAck, 0, &[]);
                self.maybe_finalize(ctx, lib);
            }
        }
        lib.notify_progress();
        true
    }

    fn repost(&self, ctx: &SimCtx, done: &Arc<Descriptor>) {
        if self.finalized.load(Ordering::Relaxed) {
            return;
        }
        let fresh = Descriptor::recv(
            Arc::clone(&done.region),
            done.offset,
            self.recv_pool.slot_size(),
        );
        // A failed re-post (conn broken) is handled via the reset path.
        let _ = self.vi.post_recv(ctx, fresh);
    }

    fn maybe_finalize(&self, ctx: &SimCtx, lib: &SoviaLib) {
        let done = self.fin_sent.load(Ordering::Relaxed)
            && self.fin_rcvd.load(Ordering::Relaxed)
            && self.finack_rcvd.load(Ordering::Relaxed);
        if !done || self.finalized.swap(true, Ordering::Relaxed) {
            return;
        }
        // Both directions agreed: tear down.
        lib.remove_conn(self.vi.id());
        self.nic.destroy_vi(&self.vi);
        self.recv_pool.deregister(ctx);
        self.send_pool.deregister(ctx);
        self.ctrl_pool.deregister(ctx);
        self.process.free(self.staging, CHUNK_SIZE);
        lib.conn_finalized();
    }
}
