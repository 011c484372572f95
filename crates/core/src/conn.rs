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
//! Lock discipline (this matters in the virtual-time executor): a
//! connection keeps everything that changes in one [`ConnState`] under one
//! lock, and **no guard is ever held across a time-advancing call**.
//! Costs are charged before or after critical sections. Inside them,
//! posting to VIA work queues uses the `_uncharged` variants, and a
//! combined send writes its slot with an uncharged store whose COW faults
//! are charged once the guard drops. Helpers that work on the state
//! (`reap_one`, the credit take, the completion decode) take `&mut
//! ConnState` from their caller instead of locking on their own, so each
//! method locks once per critical section.

use std::collections::VecDeque;
use std::sync::Arc;

use dsim::SimCtx;
use parking_lot::{Mutex, MutexGuard};
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

/// Everything about a connection that changes, under its one lock.
#[derive(Default)]
struct ConnState {
    /// The peer's address: set on connect, or by its WAKEUP on accept.
    peer: Option<SockAddr>,
    /// Send credits: pre-posted descriptors available at the receiver.
    credits: u32,
    inflight: VecDeque<InflightKind>,
    /// The pending combine buffer, if any, and the newest one's epoch.
    combine: Option<Combine>,
    combine_epoch: u64,
    /// Received DATA that `recv()` has not consumed yet.
    rdata: VecDeque<RecvItem>,
    /// Acknowledgments owed to the peer.
    dacks: u32,
    stats: ConnStats,
    /// A REQ is out and its grant is not in (the rejected REQ/ACK design).
    req_outstanding: bool,
    wakeup_rcvd: bool,
    /// The close handshake: our FIN is out (`close()` or `SHUT_WR`), the
    /// peer's FIN and its FINACK of ours are in, the application closed,
    /// a reset was seen, and the connection was torn down.
    fin_sent: bool,
    fin_rcvd: bool,
    finack_rcvd: bool,
    local_closed: bool,
    reset: bool,
    finalized: bool,
}

impl ConnState {
    fn check_open(&self) -> SockResult<()> {
        if self.local_closed || self.fin_sent {
            // Fully closed, or half-closed for writing.
            return Err(SockError::Closed);
        }
        if self.reset {
            return Err(SockError::ConnectionReset);
        }
        Ok(())
    }

    /// Whether the connection is due for teardown, marking it finalized:
    /// both FINs and our FIN's FINACK are in, and the application either
    /// has read all received data or has closed the connection.
    fn take_finalize(&mut self) -> bool {
        let done = self.fin_sent
            && self.fin_rcvd
            && self.finack_rcvd
            && (self.rdata.is_empty() || self.local_closed);
        done && !std::mem::replace(&mut self.finalized, true)
    }
}

struct RecvItem {
    desc: Descriptor,
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

    recv_pool: Arc<SlotPool>,
    send_pool: Arc<SlotPool>,
    ctrl_pool: Arc<SlotPool>,
    /// Reusable staging buffer for zero-copy sends.
    staging: VAddr,

    inner: Mutex<ConnState>,
}

/// Follow-up work decided under the lock, executed after it drops.
enum Action {
    /// DATA queued for `recv()`, or a reset: nothing more to do.
    Nothing,
    Repost(Descriptor),
    /// A REQ arrived: re-post and grant one transfer permission.
    Grant(Descriptor),
    Fin(Descriptor),
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
            recv_pool,
            send_pool,
            ctrl_pool,
            staging,
            inner: Mutex::new(ConnState {
                // The rejected REQ/ACK design starts with no permission at
                // all; otherwise one credit per pre-posted data slot.
                credits: if config.explicit_handshake {
                    0
                } else {
                    config.window
                },
                ..ConnState::default()
            }),
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
        self.inner.lock().peer
    }

    pub(crate) fn set_peer(&self, addr: SockAddr) {
        self.inner.lock().peer = Some(addr);
    }

    /// Whether the peer's WAKEUP has been processed.
    pub(crate) fn wakeup_received(&self) -> bool {
        self.inner.lock().wakeup_rcvd
    }

    /// True if the connection can no longer make progress: a reset was
    /// observed, or the VI itself sits in the error state.
    pub(crate) fn is_broken(&self) -> bool {
        let reset = self.inner.lock().reset;
        reset || matches!(self.vi.state(), via::ViState::Error(_))
    }

    /// Protocol counters.
    pub fn stats(&self) -> ConnStats {
        self.inner.lock().stats
    }

    /// Whether the application closed this connection.
    pub(crate) fn is_closed(&self) -> bool {
        self.inner.lock().local_closed
    }

    fn map_vip(e: VipError) -> SockError {
        match e {
            VipError::ConnectionRefused => SockError::ConnectionRefused,
            VipError::NotConnected => SockError::NotConnected,
            _ => SockError::ConnectionReset,
        }
    }

    /// Enter the library through this connection: refuse a closed one,
    /// then flush the pending combine buffers of the other connections
    /// (all, with `flush_own`; none exist if the library never combines),
    /// the paper's flush condition (4). Returns the state, locked.
    fn enter(
        &self,
        ctx: &SimCtx,
        lib: &SoviaLib,
        flush_own: bool,
    ) -> SockResult<MutexGuard<'_, ConnState>> {
        let st = self.inner.lock();
        if st.local_closed {
            return Err(SockError::Closed);
        }
        let except = (!flush_own).then(|| self.vi_id());
        if !self.config.combine_small || !lib.holds_combines_except(except) {
            return Ok(st);
        }
        drop(st);
        lib.flush_combines_except(ctx, except);
        Ok(self.inner.lock())
    }

    // ----- send-side completion reaping ---------------------------------

    /// Pop one send completion, if there is one, and release the resource
    /// its inflight record names. With nothing in flight, the VI's queue is
    /// not looked at.
    fn reap_one(&self, st: &mut ConnState) -> bool {
        if st.inflight.is_empty() || self.vi.send_done_uncharged().is_none() {
            return false;
        }
        match st.inflight.pop_front() {
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
            {
                let mut st = self.inner.lock();
                if self.reap_one(&mut st) {
                    return Ok(());
                }
                if st.reset {
                    return Err(SockError::ConnectionReset);
                }
            }
            self.vi.wait_send_event(ctx);
        }
    }

    /// Take a free slot of `pool` (the send or control pool), reaping
    /// send completions until one is released.
    fn acquire_slot(&self, ctx: &SimCtx, pool: &SlotPool) -> SockResult<usize> {
        loop {
            if let Some(i) = pool.try_acquire() {
                return Ok(i);
            }
            self.reap_one_blocking(ctx)?;
        }
    }

    // ----- credits and acknowledgments ----------------------------------

    /// Take a send credit, waiting for one, and the acknowledgments owed
    /// to the peer: the DATA the credit pays for carries them.
    fn take_credit(&self, ctx: &SimCtx, lib: &SoviaLib) -> SockResult<u32> {
        loop {
            let ask = {
                let mut st = self.inner.lock();
                if st.credits > 0 {
                    st.credits -= 1;
                    st.req_outstanding = false;
                    return Ok(std::mem::take(&mut st.dacks));
                }
                if st.reset {
                    return Err(SockError::ConnectionReset);
                }
                // The VI itself may have broken (fault injection, forced
                // disconnect) without a completion to carry the news.
                if let via::ViState::Error(e) = self.vi.state() {
                    st.reset = true;
                    return Err(Self::map_vip(e));
                }
                // The rejected three-way handshake: ask permission for the
                // next DATA and wait for the receiver's grant.
                self.config.explicit_handshake && !std::mem::replace(&mut st.req_outstanding, true)
            };
            if ask {
                self.post_control(ctx, PacketType::Req, 0, &[])?;
            }
            lib.wait_progress(ctx);
        }
    }

    /// Called when the application consumed a DATA packet and its
    /// descriptor was re-posted: accumulate a delayed ACK, flushing per
    /// the configured policy.
    fn note_consumed(&self, ctx: &SimCtx) {
        if self.config.explicit_handshake {
            // Grants are given only in answer to REQ packets.
            return;
        }
        let to_ack = {
            let mut st = self.inner.lock();
            st.dacks += 1;
            if st.dacks < self.config.ack_threshold {
                return;
            }
            st.stats.acks_sent += 1;
            std::mem::take(&mut st.dacks)
        };
        // An unsendable ACK (peer torn down) is not the app's problem.
        let _ = self.post_control(ctx, PacketType::Ack, to_ack, &[]);
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

    // ----- posting -------------------------------------------------------

    fn post_control(
        &self,
        ctx: &SimCtx,
        ptype: PacketType,
        acks: u32,
        payload: &[u8],
    ) -> SockResult<()> {
        assert!(payload.len() <= CTRL_SLOT);
        let slot = self.acquire_slot(ctx, &self.ctrl_pool)?;
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
            let mut st = self.inner.lock();
            (self.vi.post_send_uncharged(desc))
                .map(|_| st.inflight.push_back(InflightKind::Ctrl(slot)))
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
    /// Returns the send's sequence number on the VI.
    fn post_data(
        &self,
        desc: Descriptor,
        kind: InflightKind,
        piggy: u32,
    ) -> Result<u64, VipError> {
        let len = desc.len as u64;
        let mut st = self.inner.lock();
        let seq = self.vi.post_send_uncharged(desc)?;
        st.inflight.push_back(kind);
        st.stats.data_sent += 1;
        st.stats.bytes_sent += len;
        st.stats.acks_piggybacked += u64::from(piggy);
        Ok(seq)
    }

    /// Post a DATA packet from a sender-side slot (waits for a credit).
    fn post_data_slot(&self, ctx: &SimCtx, lib: &SoviaLib, slot: usize, len: usize) -> SockResult<()> {
        debug_assert!(len > 0);
        let piggy = self.take_credit(ctx, lib)?;
        self.charge_post(ctx, len, piggy);
        let desc = Descriptor::send(
            Arc::clone(self.send_pool.region()),
            self.send_pool.offset_of(slot),
            len,
            Some(encode(PacketType::Data, piggy)),
        );
        self.post_data(desc, InflightKind::DataSlot(slot), piggy)
            .map(drop)
            .map_err(|e| {
                // Credit already consumed; on a dead conn that is moot.
                self.send_pool.release(slot);
                Self::map_vip(e)
            })
    }

    /// Send the WAKEUP packet after connection establishment, reporting
    /// the library-internal socket descriptor `sockdes`.
    pub(crate) fn send_wakeup(&self, ctx: &SimCtx, sockdes: i32) -> SockResult<()> {
        let info = WakeupInfo {
            sockdes,
            host: self.local.host,
            port: self.local.port,
        };
        self.post_control(ctx, PacketType::Wakeup, 0, &info.encode())
    }

    // ----- the sockets-facing operations ---------------------------------

    /// `send()` (Section 3.1/3.2 decision tree). `nodelay` reads the
    /// socket's `TCP_NODELAY` flag once the library-wide flush is done.
    pub fn send(
        &self,
        ctx: &SimCtx,
        lib: &SoviaLib,
        data: &[u8],
        nodelay: impl FnOnce() -> bool,
    ) -> SockResult<usize> {
        // Entering the library flushes other connections' combined data;
        // this connection's buffer follows its own combining rules.
        self.enter(ctx, lib, false)?.check_open()?;
        let nodelay = nodelay();
        if data.is_empty() {
            return Ok(0);
        }
        // Poll for completed sends; the reap itself runs under the lock of
        // the path that follows.
        self.charge_poll(ctx);
        if self.config.combine_small && !nodelay && data.len() < self.config.copy_threshold {
            return self.combine_send(ctx, lib, data);
        }
        // Condition (3): a message above the threshold flushes the buffer
        // first, then goes out the normal way.
        let pending = {
            let mut st = self.inner.lock();
            while self.reap_one(&mut st) {}
            st.combine.take()
        };
        self.post_combine(ctx, lib, pending)?;
        if data.len() <= self.config.copy_threshold {
            self.send_buffered(ctx, lib, data)
        } else {
            self.send_zero_copy(ctx, lib, data)
        }
    }

    fn send_buffered(&self, ctx: &SimCtx, lib: &SoviaLib, data: &[u8]) -> SockResult<usize> {
        let slot = self.acquire_slot(ctx, &self.send_pool)?;
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
            self.inner.lock().stats.zero_copy_registrations += 1;
            ctx.trace_count(
                dsim::TraceLayer::Sovia,
                dsim::TraceKind::BytesZeroCopy,
                chunk.len() as u64,
                dsim::TraceTag::on_conn(self.vi.id()),
            );
            let piggy = self.take_credit(ctx, lib)?;
            self.charge_post(ctx, chunk.len(), piggy);
            let desc = Descriptor::send(
                Arc::clone(&region),
                0,
                chunk.len(),
                Some(encode(PacketType::Data, piggy)),
            );
            let Ok(seq) = self.post_data(desc, InflightKind::ZeroCopy, piggy) else {
                region.deregister(ctx);
                return Err(SockError::ConnectionReset);
            };
            // The user may reuse the buffer after send() returns, so wait
            // for the NIC to finish with it, then deregister.
            while self.vi.send_state(seq) == DescState::Pending {
                self.reap_one_blocking(ctx)?;
            }
            region.deregister(ctx);
            if let DescState::Error(e) = self.vi.send_state(seq) {
                self.inner.lock().reset = true;
                return Err(Self::map_vip(e));
            }
        }
        Ok(data.len())
    }

    /// Reap completed sends and append `data` to the combine buffer: with
    /// a pending buffer that has room, one lock round trip does both.
    fn combine_send(&self, ctx: &SimCtx, lib: &SoviaLib, data: &[u8]) -> SockResult<usize> {
        let mut st = self.inner.lock();
        while self.reap_one(&mut st) {}
        loop {
            match st.combine.as_mut() {
                Some(c) if c.filled + data.len() <= CHUNK_SIZE => {
                    // The store is uncharged; its COW faults are charged
                    // once the guard is gone.
                    let faults = self.send_pool.store_slot(c.slot, c.filled, data);
                    c.filled += data.len();
                    let full = c.filled >= CHUNK_SIZE;
                    st.stats.combined_sends += 1;
                    drop(st);
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
                    let pending = st.combine.take();
                    drop(st);
                    self.post_combine(ctx, lib, pending)?;
                }
                None => {
                    drop(st);
                    self.start_combine(ctx, lib)?;
                }
            }
            st = self.inner.lock();
        }
    }

    /// Install a fresh combine buffer: take a slot, install it, then arm
    /// the timer for it.
    fn start_combine(&self, ctx: &SimCtx, lib: &SoviaLib) -> SockResult<()> {
        let slot = self.acquire_slot(ctx, &self.send_pool)?;
        // "the sender starts a timer": 1-2 us of software-timer
        // management (the COMBINE-vs-SINGLE latency gap in Fig 6a).
        ctx.charge(
            dsim::TraceLayer::Sovia,
            dsim::TraceKind::Timer,
            COMBINE_TIMER_COST,
            dsim::TraceTag::on_conn(self.vi.id()),
        );
        let epoch = {
            let mut st = self.inner.lock();
            if st.combine.is_some() {
                // Another thread installed one while this one charged.
                drop(st);
                self.send_pool.release(slot);
                return Ok(());
            }
            st.combine_epoch += 1;
            let epoch = st.combine_epoch;
            st.combine = Some(Combine {
                slot,
                filled: 0,
                epoch,
            });
            epoch
        };
        lib.combine_started(self.vi_id(), epoch);
        Ok(())
    }

    /// Whether the combine buffer installed at `epoch` is still pending
    /// (no flush has taken it yet).
    pub(crate) fn holds_combine_epoch(&self, epoch: u64) -> bool {
        let st = self.inner.lock();
        st.combine.as_ref().is_some_and(|c| c.epoch == epoch)
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
    /// turn.
    pub(crate) fn flush_if_epoch(
        &self,
        ctx: &SimCtx,
        lib: &SoviaLib,
        epoch: Option<u64>,
    ) -> SockResult<()> {
        let armed = |c: &mut Combine| epoch.unwrap_or(c.epoch) == c.epoch;
        let pending = self.inner.lock().combine.take_if(armed);
        self.post_combine(ctx, lib, pending)
    }

    /// Send a combine buffer just taken off this connection, if any (an
    /// empty one only returns its slot), and drop the connection from the
    /// library's dirty list.
    fn post_combine(&self, ctx: &SimCtx, lib: &SoviaLib, taken: Option<Combine>) -> SockResult<()> {
        let Some(c) = taken else {
            return Ok(());
        };
        lib.combine_taken(self.vi_id());
        if c.filled == 0 {
            self.send_pool.release(c.slot);
            return Ok(());
        }
        self.post_data_slot(ctx, lib, c.slot, c.filled)
    }

    /// `recv()`: drain buffered stream data, re-posting descriptors as they
    /// are fully consumed.
    pub fn recv(&self, ctx: &SimCtx, lib: &SoviaLib, max: usize) -> SockResult<Vec<u8>> {
        // Entering a blocking call flushes pending combined data on every
        // connection (flush condition 4, library-wide).
        let mut st = self.enter(ctx, lib, true)?;
        if st.local_closed {
            return Err(SockError::Closed);
        }
        if max == 0 {
            return Ok(Vec::new());
        }
        // Condition (4): entering recv() flushes pending combined data.
        if st.combine.is_some() {
            let pending = st.combine.take();
            drop(st);
            self.post_combine(ctx, lib, pending)?;
            st = self.inner.lock();
        }
        loop {
            if let Some(item) = st.rdata.front_mut() {
                let xfer = item.desc.status().xfer_len;
                let n = (xfer - item.consumed).min(max);
                let bytes = item
                    .desc
                    .region
                    .dma_read(item.desc.offset + item.consumed, n);
                item.consumed += n;
                let finished = if item.consumed == xfer {
                    st.rdata.pop_front().map(|i| i.desc)
                } else {
                    None
                };
                st.stats.bytes_rcvd += n as u64;
                // The peer's FIN is in and this was the last of its data.
                let drained = st.fin_rcvd && st.rdata.is_empty();
                drop(st);
                // The copy out of the bounce buffer into user memory — the
                // "intermediate buffering" cost of Section 3.1.
                self.charge_copy(ctx, n);
                if let Some(desc) = finished {
                    let finalized = self.inner.lock().finalized;
                    self.repost(ctx, finalized, desc);
                    self.note_consumed(ctx);
                    if drained {
                        self.maybe_finalize(ctx, lib);
                    }
                }
                return Ok(bytes);
            }
            if st.reset {
                return Err(SockError::ConnectionReset);
            }
            if st.fin_rcvd {
                return Ok(Vec::new()); // EOF
            }
            // A broken VI with an empty receive queue produces no further
            // completions; surface the breakage instead of blocking.
            if let via::ViState::Error(e) = self.vi.state() {
                st.reset = true;
                return Err(Self::map_vip(e));
            }
            drop(st);
            lib.wait_progress(ctx);
            st = self.inner.lock();
        }
    }

    /// `shutdown(SHUT_WR)`: flush pending combined data and send FIN, but
    /// keep the receive direction open (half-close).
    pub fn shutdown_write(&self, ctx: &SimCtx, lib: &SoviaLib) -> SockResult<()> {
        if std::mem::replace(&mut self.inner.lock().fin_sent, true) {
            return Ok(()); // already half- or fully closed
        }
        self.send_fin(ctx, lib);
        self.maybe_finalize(ctx, lib);
        Ok(())
    }

    /// `close()`: flush, send FIN, return immediately (Sockets semantics);
    /// the FINACK/FIN drainage continues on whichever thread services —
    /// the close thread, once the application holds no more sockets.
    pub fn close(&self, ctx: &SimCtx, lib: &SoviaLib) -> SockResult<()> {
        let fin_sent = {
            let mut st = self.inner.lock();
            if std::mem::replace(&mut st.local_closed, true) {
                return Ok(());
            }
            std::mem::replace(&mut st.fin_sent, true)
        };
        if !fin_sent {
            self.send_fin(ctx, lib);
        }
        self.maybe_finalize(ctx, lib);
        Ok(())
    }

    /// Flush pending combined data, then send our FIN with the owed
    /// acknowledgments (failures are the reset path's business).
    fn send_fin(&self, ctx: &SimCtx, lib: &SoviaLib) {
        let _ = self.flush_combine(ctx, lib);
        let piggy = std::mem::take(&mut self.inner.lock().dacks);
        let _ = self.post_control(ctx, PacketType::Fin, piggy, &[]);
    }

    // ----- ingress: processing one receive completion ---------------------

    /// Process one completed receive descriptor, if any. Returns true if
    /// one was processed.
    pub(crate) fn process_completion(&self, ctx: &SimCtx, lib: &SoviaLib) -> bool {
        let (action, finalized) = {
            let mut st = self.inner.lock();
            let Some(desc) = self.vi.recv_done_uncharged() else {
                return false;
            };
            (self.decode(&mut st, desc), st.finalized)
        };
        match action {
            Action::Nothing => {}
            Action::Repost(desc) => {
                self.repost(ctx, finalized, desc);
                self.maybe_finalize(ctx, lib);
            }
            Action::Grant(desc) => {
                // "If the receiver becomes ready, it pre-posts two
                // descriptors on its RQ ... and replies to the sender with
                // an ACK" — our pool keeps the descriptors posted; the
                // grant is the ACK carrying one credit.
                self.repost(ctx, finalized, desc);
                let _ = self.post_control(ctx, PacketType::Ack, 1, &[]);
            }
            Action::Fin(desc) => {
                self.repost(ctx, finalized, desc);
                let _ = self.post_control(ctx, PacketType::FinAck, 0, &[]);
                self.maybe_finalize(ctx, lib);
            }
        }
        lib.notify_progress();
        true
    }

    /// Apply one completed receive descriptor to the state and decide what
    /// follows once the lock drops.
    fn decode(&self, st: &mut ConnState, desc: Descriptor) -> Action {
        let status = desc.status();
        let (ptype, acks) = match status.state {
            DescState::Error(_) => {
                st.reset = true;
                return Action::Nothing;
            }
            DescState::Pending => unreachable!("pending descriptor completed"),
            DescState::Done => match status.immediate.and_then(decode) {
                Some(packet) => packet,
                // Garbage packet: drop, re-post.
                None => return Action::Repost(desc),
            },
        };
        st.credits += acks;
        match ptype {
            PacketType::Data => {
                st.stats.data_rcvd += 1;
                st.rdata.push_back(RecvItem { desc, consumed: 0 });
                Action::Nothing
            }
            PacketType::Ack => Action::Repost(desc),
            PacketType::Req => {
                st.stats.acks_sent += 1;
                Action::Grant(desc)
            }
            PacketType::Wakeup => {
                let payload = desc.region.dma_read(desc.offset, status.xfer_len);
                if let Some(info) = WakeupInfo::decode(&payload) {
                    st.peer.get_or_insert(SockAddr::new(info.host, info.port));
                }
                st.wakeup_rcvd = true;
                Action::Repost(desc)
            }
            PacketType::Fin => {
                st.fin_rcvd = true;
                Action::Fin(desc)
            }
            PacketType::FinAck => {
                st.finack_rcvd = true;
                Action::Repost(desc)
            }
        }
    }

    /// Re-post a consumed receive descriptor on its own slot, unless the
    /// connection was `finalized`.
    fn repost(&self, ctx: &SimCtx, finalized: bool, done: Descriptor) {
        if finalized {
            return;
        }
        // A failed re-post (conn broken) is handled via the reset path.
        let _ = self.vi.post_recv(ctx, done);
    }

    fn maybe_finalize(&self, ctx: &SimCtx, lib: &SoviaLib) {
        if !self.inner.lock().take_finalize() {
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
