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
//! [`SovConn`] holds only what never changes. Everything that changes,
//! the free slot lists included, is its [`ConnState`] in the library's
//! state, under the library's one lock, and **no guard is ever held
//! across a time-advancing call**. Costs are charged before or after
//! critical sections. Inside them, posting to VIA work queues uses the
//! `_uncharged` variants, and a combined send writes its slot with an
//! uncharged store whose COW faults are charged once the guard drops.
//! Helpers take `&mut ConnState` from a caller that holds the guard, and
//! a slot is taken under the guard the caller already holds.

use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

use dsim::{SimCtx, SimDuration, TraceKind, TraceLayer, TraceTag};
use parking_lot::MutexGuard;
use simos::mem::{charge_cow_faults, VAddr};
use simos::HostCosts;
use sockets::{SockAddr, SockError, SockResult};
use via::{DescState, Descriptor, MemRegion, Vi, VipError};

use crate::buffers::{FreeSlots, SlotPool};
use crate::config::{SoviaConfig, CHUNK_SIZE, COMBINE_TIMER_COST};
use crate::library::{LibState, SoviaLib};
use crate::packet::{decode, encode, PacketType, WakeupInfo};

/// Control-slot size (WAKEUP payload is 12 bytes; ACK/FIN are empty).
const CTRL_SLOT: usize = 64;
/// Control slots per connection (re-posted immediately after use).
const CTRL_SLOTS: usize = 8;
/// The sender-side copy pool and the control pool, as indices of
/// [`ConnState`]'s free lists and [`SovConn`]'s pools.
const SEND: usize = 0;
const CTRL: usize = 1;

/// Everything about a connection that changes. It lives beside the
/// connection's handle in its library's state, under the library's lock.
#[derive(Default)]
pub(crate) struct ConnState {
    /// The peer's address: set on connect, or by its WAKEUP on accept.
    peer: Option<SockAddr>,
    /// Send credits: pre-posted descriptors available at the receiver.
    credits: u32,
    /// Posted sends not reaped yet.
    in_flight: usize,
    /// The free slots of the copy pool and of the control pool.
    free: [FreeSlots; 2],
    /// The pending combine buffer, if any, and the newest one's epoch.
    combine: Option<Combine>,
    combine_epoch: u64,
    /// Received DATA that `recv()` has not consumed yet.
    rdata: VecDeque<RecvItem>,
    /// Acknowledgments owed to the peer.
    dacks: u32,
    pub(crate) stats: ConnStats,
    /// A REQ is out and its grant is not in (the rejected REQ/ACK design).
    req_outstanding: bool,
    wakeup_rcvd: bool,
    /// The close handshake: our FIN is out (`close()` or `SHUT_WR`), the
    /// peer's FIN and its FINACK of ours are in, the application closed,
    /// a reset was seen, and the connection was torn down.
    fin_sent: bool,
    fin_rcvd: bool,
    finack_rcvd: bool,
    pub(crate) local_closed: bool,
    reset: bool,
    pub(crate) finalized: bool,
}

impl ConnState {
    /// A fresh connection's state, with its `peer` if known: every slot
    /// free and, except in the rejected REQ/ACK design (no permission at
    /// all to start with), one credit per pre-posted data slot.
    pub(crate) fn new(config: &SoviaConfig, peer: Option<SockAddr>) -> ConnState {
        let window = config.window;
        ConnState {
            peer,
            credits: if config.explicit_handshake { 0 } else { window },
            free: [FreeSlots::new(window as usize), FreeSlots::new(CTRL_SLOTS)],
            ..ConnState::default()
        }
    }

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
    pub(crate) fn take_finalize(&mut self) -> bool {
        let done = self.fin_sent
            && self.fin_rcvd
            && self.finack_rcvd
            && (self.rdata.is_empty() || self.local_closed);
        done && !std::mem::replace(&mut self.finalized, true)
    }

    /// Whether the combine buffer installed at `epoch` is still pending
    /// (no flush has taken it yet).
    pub(crate) fn holds_combine(&self, epoch: u64) -> bool {
        self.combine.as_ref().is_some_and(|c| c.epoch == epoch)
    }

    /// Take the pending combine buffer; with `Some(epoch)`, only the one
    /// installed at that epoch.
    pub(crate) fn take_combine(&mut self, epoch: Option<u64>) -> Option<Combine> {
        self.combine.take_if(|c| epoch.is_none_or(|e| e == c.epoch))
    }

    /// Install a fresh combine buffer in copy slot `slot` and return its
    /// epoch. If another thread installed one while this one charged, free
    /// `slot` again and return `None`.
    pub(crate) fn install_combine(&mut self, slot: usize) -> Option<u64> {
        if self.combine.is_some() {
            self.free[SEND].put(slot);
            return None;
        }
        self.combine_epoch += 1;
        let epoch = self.combine_epoch;
        self.combine = Some(Combine { slot, filled: 0, epoch });
        Some(epoch)
    }

    /// Apply one completed receive descriptor and decide what follows once
    /// the lock drops.
    pub(crate) fn decode(&mut self, desc: Descriptor) -> Action {
        let status = desc.status();
        let (ptype, acks) = match status.state {
            DescState::Error(_) => {
                self.reset = true;
                return Action::Nothing;
            }
            DescState::Pending => unreachable!("pending descriptor completed"),
            DescState::Done => match status.immediate.and_then(decode) {
                Some(packet) => packet,
                // Garbage packet: drop, re-post.
                None => return Action::Repost(desc),
            },
        };
        self.credits += acks;
        match ptype {
            PacketType::Data => {
                self.stats.data_rcvd += 1;
                self.rdata.push_back(RecvItem { desc, consumed: 0 });
                Action::Nothing
            }
            PacketType::Ack => Action::Repost(desc),
            PacketType::Req => {
                self.stats.acks_sent += 1;
                Action::Grant(desc)
            }
            PacketType::Wakeup => {
                let payload = desc.region.dma_read(desc.offset, status.xfer_len);
                if let Some(info) = WakeupInfo::decode(&payload) {
                    self.peer.get_or_insert(SockAddr::new(info.host, info.port));
                }
                self.wakeup_rcvd = true;
                Action::Repost(desc)
            }
            PacketType::Fin => {
                self.fin_rcvd = true;
                Action::Fin(desc)
            }
            PacketType::FinAck => {
                self.finack_rcvd = true;
                Action::Repost(desc)
            }
        }
    }
}

struct RecvItem {
    desc: Descriptor,
    consumed: usize,
}

/// A pending combine buffer (the Nagle-like accumulation).
pub(crate) struct Combine {
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

/// One SOVIA connection: what never changes about it. What changes lives
/// in its library's state.
pub struct SovConn {
    pub(crate) vi: Arc<Vi>,
    config: SoviaConfig,
    costs: HostCosts,

    local: SockAddr,

    recv_pool: SlotPool,
    /// The copy pool and the control pool (`SEND`, `CTRL`).
    pools: [SlotPool; 2],
    /// Reusable staging buffer for zero-copy sends.
    staging: VAddr,
    /// The counters at the moment the library dropped the state.
    final_stats: OnceLock<ConnStats>,
}

/// Follow-up work decided under the lock, executed after it drops.
pub(crate) enum Action {
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
    /// connection handshake — pre-posting constraint). Its state comes
    /// with its registration in the library.
    pub(crate) fn new(ctx: &SimCtx, lib: &SoviaLib, vi: Arc<Vi>, local: SockAddr) -> Arc<SovConn> {
        let (process, config) = (lib.process(), lib.config().clone());
        let shared = config.use_shared_segments;
        let prepost = config.prepost_count();
        let pool = |count, size| SlotPool::new(ctx, process, count, size, shared);
        let recv_pool = pool(prepost, CHUNK_SIZE);
        let pools = [pool(config.window as usize, CHUNK_SIZE), pool(CTRL_SLOTS, CTRL_SLOT)];
        let staging = process.alloc(ctx, CHUNK_SIZE);
        let ring = (0..prepost).map(|i| {
            let region = Arc::clone(recv_pool.region());
            Descriptor::recv(region, recv_pool.offset_of(i), CHUNK_SIZE)
        });
        vi.prepost(ctx, ring)
            // sovia-lint: allow(R5) -- invariant, not an error path: the VI was created idle just before, so a failure is a library bug
            .expect("pre-posting on a fresh VI cannot fail");
        Arc::new(SovConn {
            vi,
            costs: process.costs().clone(),
            config,
            local,
            recv_pool,
            pools,
            staging,
            final_stats: OnceLock::new(),
        })
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
    pub(crate) fn peer_addr(&self, lib: &SoviaLib) -> Option<SockAddr> {
        lib.lock().conn(self.vi_id()).ok()?.peer
    }

    /// An accepted connection's peer once its WAKEUP is in: `Ok(None)`
    /// until then, an error if the connection broke first (a reset, or a
    /// VI in the error state).
    pub(crate) fn woken_peer(&self, lib: &SoviaLib) -> SockResult<Option<SockAddr>> {
        let mut g = lib.lock();
        let st = g.conn(self.vi_id())?;
        if st.wakeup_rcvd {
            return Ok(Some(st.peer.expect("WAKEUP carried no address")));
        }
        if st.reset || self.vi.error().is_some() {
            return Err(SockError::ConnectionReset);
        }
        Ok(None)
    }

    /// Protocol counters, also once the library has dropped the state.
    pub(crate) fn stats(&self, lib: &SoviaLib) -> ConnStats {
        match lib.lock().conn(self.vi_id()) {
            Ok(st) => st.stats,
            Err(_) => self.final_stats.get().copied().unwrap_or_default(),
        }
    }

    /// Keep `stats` as the counters of a connection whose state the
    /// library dropped.
    pub(crate) fn retire(&self, stats: ConnStats) {
        let _ = self.final_stats.set(stats);
    }

    /// Whether the application closed this connection.
    pub(crate) fn is_closed(&self, lib: &SoviaLib) -> bool {
        lib.lock().conn(self.vi_id()).map_or(true, |st| st.local_closed)
    }

    fn map_vip(e: VipError) -> SockError {
        match e {
            VipError::ConnectionRefused => SockError::ConnectionRefused,
            VipError::NotConnected => SockError::NotConnected,
            _ => SockError::ConnectionReset,
        }
    }

    /// Charge `cost` to SOVIA as `kind` on this connection, with `value`.
    fn charge(&self, ctx: &SimCtx, kind: TraceKind, cost: SimDuration, value: u64) {
        let tag = TraceTag::on_conn(self.vi.id()).value(value);
        ctx.charge(TraceLayer::Sovia, kind, cost, tag);
    }

    /// Count `n` of `kind` on this connection.
    fn count(&self, ctx: &SimCtx, kind: TraceKind, n: u64) {
        ctx.trace_count(TraceLayer::Sovia, kind, n, TraceTag::on_conn(self.vi.id()));
    }

    /// Enter the library through this connection: refuse a closed one,
    /// then flush the pending combine buffers of the other connections
    /// (all, with `flush_own`; none exist if the library never combines),
    /// the paper's flush condition (4), and `check` the state. Returns
    /// the library, locked.
    fn enter<'a>(
        &self,
        ctx: &SimCtx,
        lib: &'a SoviaLib,
        flush_own: bool,
        check: fn(&ConnState) -> SockResult<()>,
    ) -> SockResult<MutexGuard<'a, LibState>> {
        let except = (!flush_own).then(|| self.vi_id());
        let mut g = lib.lock();
        let flush = self.config.combine_small && g.holds_combines_except(except);
        let st = g.conn(self.vi_id())?;
        if st.local_closed {
            return Err(SockError::Closed);
        }
        if !flush {
            check(st)?;
            return Ok(g);
        }
        drop(g);
        lib.flush_combines_except(ctx, except);
        let mut g = lib.lock();
        check(g.conn(self.vi_id())?)?;
        Ok(g)
    }

    // ----- send-side completion reaping ---------------------------------

    /// Pop one send completion, if there is one, and free the slot its
    /// descriptor names (its region says which pool, its offset which
    /// slot). With nothing in flight, the VI's queue is not looked at.
    fn reap_one(&self, st: &mut ConnState) -> bool {
        if st.in_flight == 0 {
            return false;
        }
        let Some(done) = self.vi.send_done_uncharged() else {
            return false;
        };
        st.in_flight -= 1;
        let pool = (0..2).find(|&p| Arc::ptr_eq(&done.region, self.pools[p].region()));
        if let Some(p) = pool {
            st.free[p].put(done.offset / self.pools[p].slot_size());
        }
        true
    }

    /// Poll and reap send completions, one per poll, until `done` finds
    /// what it waits for in the state after a reap.
    fn reap_until<T>(
        &self,
        ctx: &SimCtx,
        lib: &SoviaLib,
        mut done: impl FnMut(&mut ConnState) -> Option<T>,
    ) -> SockResult<T> {
        loop {
            self.charge(ctx, TraceKind::Poll, self.costs.poll_check, 0);
            {
                let mut g = lib.lock();
                let st = g.conn(self.vi_id())?;
                if self.reap_one(st) {
                    match done(st) {
                        Some(t) => return Ok(t),
                        None => continue,
                    }
                }
                if st.reset {
                    return Err(SockError::ConnectionReset);
                }
            }
            self.vi.wait_send_event(ctx);
        }
    }

    /// A free slot of pool `pool`: `taken`, the caller's take under its
    /// own guard, or else the first one a reap frees.
    fn acquire_slot(
        &self,
        ctx: &SimCtx,
        lib: &SoviaLib,
        pool: usize,
        taken: Option<usize>,
    ) -> SockResult<usize> {
        match taken {
            Some(i) => Ok(i),
            None => self.reap_until(ctx, lib, |st| st.free[pool].take()),
        }
    }

    /// A free control slot, if any (the take of a caller that holds no
    /// guard).
    fn take_ctrl(&self, lib: &SoviaLib) -> Option<usize> {
        lib.lock().conn(self.vi_id()).ok()?.free[CTRL].take()
    }

    // ----- credits and acknowledgments ----------------------------------

    /// Take a send credit, waiting for one, and the acknowledgments owed
    /// to the peer: the DATA the credit pays for carries them.
    fn take_credit(&self, ctx: &SimCtx, lib: &SoviaLib) -> SockResult<u32> {
        loop {
            let ask = {
                let mut g = lib.lock();
                let st = g.conn(self.vi_id())?;
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
                if let Some(e) = self.vi.error() {
                    st.reset = true;
                    return Err(Self::map_vip(e));
                }
                // The rejected three-way handshake: ask permission for the
                // next DATA and wait for the receiver's grant.
                let ask = self.config.explicit_handshake
                    && !std::mem::replace(&mut st.req_outstanding, true);
                ask.then(|| st.free[CTRL].take())
            };
            if let Some(slot) = ask {
                self.post_control(ctx, lib, slot, PacketType::Req, 0, &[])?;
            }
            lib.wait_progress(ctx);
        }
    }

    /// Called when the application consumed a DATA packet and its
    /// descriptor was re-posted: accumulate a delayed ACK, flushing per
    /// the configured policy.
    fn note_consumed(&self, ctx: &SimCtx, lib: &SoviaLib) {
        if self.config.explicit_handshake {
            // Grants are given only in answer to REQ packets.
            return;
        }
        let (to_ack, slot) = {
            let mut g = lib.lock();
            let Ok(st) = g.conn(self.vi_id()) else {
                return;
            };
            st.dacks += 1;
            if st.dacks < self.config.ack_threshold {
                return;
            }
            st.stats.acks_sent += 1;
            (std::mem::take(&mut st.dacks), st.free[CTRL].take())
        };
        // An unsendable ACK (peer torn down) is not the app's problem.
        let _ = self.post_control(ctx, lib, slot, PacketType::Ack, to_ack, &[]);
        // to_ack - 1 acknowledgments were coalesced into this one
        // explicit ACK packet.
        if to_ack > 1 {
            self.count(ctx, TraceKind::AcksDelayed, u64::from(to_ack - 1));
        }
    }

    // ----- posting -------------------------------------------------------

    /// Post a control packet from a control slot (`taken`, if the caller
    /// got one).
    fn post_control(
        &self,
        ctx: &SimCtx,
        lib: &SoviaLib,
        taken: Option<usize>,
        ptype: PacketType,
        acks: u32,
        payload: &[u8],
    ) -> SockResult<()> {
        assert!(payload.len() <= CTRL_SLOT);
        let slot = self.acquire_slot(ctx, lib, CTRL, taken)?;
        let pool = &self.pools[CTRL];
        if !payload.is_empty() {
            pool.write_slot(ctx, slot, 0, payload);
            self.charge_copy(ctx, payload.len());
        }
        self.charge_post(ctx, 0, 0);
        let mark = match ptype {
            PacketType::Req => Some(TraceKind::HandshakeReq),
            PacketType::Wakeup => Some(TraceKind::HandshakeWakeup),
            PacketType::Fin => Some(TraceKind::HandshakeFin),
            PacketType::FinAck => Some(TraceKind::HandshakeFinAck),
            PacketType::Data | PacketType::Ack => None,
        };
        if let Some(kind) = mark.filter(|_| ctx.trace_enabled()) {
            let tag = TraceTag::on_conn(self.vi.id()).value(u64::from(acks));
            ctx.trace_instant(TraceLayer::Sovia, kind, tag);
        }
        let (offset, len) = (pool.offset_of(slot), payload.len());
        let desc = Descriptor::send(Arc::clone(pool.region()), offset, len, Some(encode(ptype, acks)));
        self.post(lib, desc, Some((CTRL, slot)), None).map(drop)
    }

    /// Charge posting one descriptor and ringing the doorbell. `data_len`
    /// is the DATA payload (0 for a control packet), and `piggy` the
    /// acknowledgments riding on it.
    fn charge_post(&self, ctx: &SimCtx, data_len: usize, piggy: u32) {
        let cost = self.costs.descriptor_post + self.costs.doorbell;
        self.charge(ctx, TraceKind::DescriptorPost, cost, data_len as u64);
        self.count(ctx, TraceKind::DescriptorsPosted, 1);
        if piggy > 0 {
            self.count(ctx, TraceKind::AcksPiggybacked, u64::from(piggy));
        }
    }

    /// Post a send descriptor from `slot` (a pool and a slot; `None` for
    /// a zero-copy buffer); a DATA packet (`data_piggy`: the
    /// acknowledgments it carries) also counts in the stats. On failure,
    /// the slot is freed again. Returns the send's sequence number.
    fn post(
        &self,
        lib: &SoviaLib,
        desc: Descriptor,
        slot: Option<(usize, usize)>,
        data_piggy: Option<u32>,
    ) -> SockResult<u64> {
        let len = desc.len as u64;
        let mut g = lib.lock();
        let st = g.conn(self.vi_id())?;
        let seq = self.vi.post_send_uncharged(desc).map_err(|e| {
            // A DATA packet's credit is already consumed; on a dead
            // connection that is moot.
            if let Some((pool, i)) = slot {
                st.free[pool].put(i);
            }
            Self::map_vip(e)
        })?;
        st.in_flight += 1;
        if let Some(piggy) = data_piggy {
            st.stats.data_sent += 1;
            st.stats.bytes_sent += len;
            st.stats.acks_piggybacked += u64::from(piggy);
        }
        Ok(seq)
    }

    /// Post a DATA packet from a copy slot (waits for a credit).
    fn post_data_slot(&self, ctx: &SimCtx, lib: &SoviaLib, slot: usize, len: usize) -> SockResult<()> {
        debug_assert!(len > 0);
        let piggy = self.take_credit(ctx, lib)?;
        self.charge_post(ctx, len, piggy);
        let pool = &self.pools[SEND];
        let imm = Some(encode(PacketType::Data, piggy));
        let desc = Descriptor::send(Arc::clone(pool.region()), pool.offset_of(slot), len, imm);
        self.post(lib, desc, Some((SEND, slot)), Some(piggy)).map(drop)
    }

    /// Send the WAKEUP packet after connection establishment, reporting
    /// the library-internal socket descriptor `sockdes`.
    pub(crate) fn send_wakeup(&self, ctx: &SimCtx, lib: &SoviaLib, sockdes: i32) -> SockResult<()> {
        let (host, port) = (self.local.host, self.local.port);
        let info = WakeupInfo { sockdes, host, port };
        let slot = self.take_ctrl(lib);
        self.post_control(ctx, lib, slot, PacketType::Wakeup, 0, &info.encode())
    }

    // ----- the sockets-facing operations ---------------------------------

    /// `send()` (Section 3.1/3.2 decision tree). `nodelay` reads the
    /// socket's `TCP_NODELAY` flag once the library-wide flush is done.
    pub fn send(
        &self,
        ctx: &SimCtx,
        lib: &Arc<SoviaLib>,
        data: &[u8],
        nodelay: impl FnOnce() -> bool,
    ) -> SockResult<usize> {
        let vi = self.vi_id();
        // Entering the library flushes other connections' combined data;
        // this connection's buffer follows its own combining rules.
        drop(self.enter(ctx, lib, false, ConnState::check_open)?);
        let nodelay = nodelay();
        if data.is_empty() {
            return Ok(0);
        }
        // Poll for completed sends; the reap itself runs under the lock of
        // the path that follows.
        self.charge(ctx, TraceKind::Poll, self.costs.poll_check, 0);
        if self.config.combine_small && !nodelay && data.len() < self.config.copy_threshold {
            return self.combine_send(ctx, lib, data);
        }
        // Condition (3): a message above the threshold flushes the buffer
        // first, then goes out the normal way.
        let mut g = lib.lock();
        while self.reap_one(g.conn(vi)?) {}
        if let Some(pending) = g.take_combine(vi, None) {
            drop(g);
            self.post_combine(ctx, lib, pending)?;
            g = lib.lock();
        }
        if data.len() > self.config.copy_threshold {
            drop(g);
            return self.send_zero_copy(ctx, lib, data);
        }
        let taken = g.conn(vi)?.free[SEND].take();
        drop(g);
        let slot = self.acquire_slot(ctx, lib, SEND, taken)?;
        self.pools[SEND].write_slot(ctx, slot, 0, data);
        self.charge_copy(ctx, data.len());
        self.post_data_slot(ctx, lib, slot, data.len())?;
        Ok(data.len())
    }

    fn send_zero_copy(&self, ctx: &SimCtx, lib: &SoviaLib, data: &[u8]) -> SockResult<usize> {
        let vi = self.vi_id();
        for chunk in data.chunks(CHUNK_SIZE) {
            // The bytes already exist in user memory; staging them into the
            // simulated buffer is a modeling artifact and charges nothing.
            lib.process().write_mem(ctx, self.staging, chunk);
            // Zero-copy: pay one registration per transfer (Section 3.1).
            let region = MemRegion::register(ctx, lib.process(), self.staging, chunk.len());
            lib.lock().conn(vi)?.stats.zero_copy_registrations += 1;
            self.count(ctx, TraceKind::BytesZeroCopy, chunk.len() as u64);
            let piggy = self.take_credit(ctx, lib)?;
            self.charge_post(ctx, chunk.len(), piggy);
            let imm = Some(encode(PacketType::Data, piggy));
            let desc = Descriptor::send(Arc::clone(&region), 0, chunk.len(), imm);
            let Ok(seq) = self.post(lib, desc, None, Some(piggy)) else {
                region.deregister(ctx);
                return Err(SockError::ConnectionReset);
            };
            // The user may reuse the buffer after send() returns, so wait
            // for the NIC to finish with it, then deregister.
            while self.vi.send_state(seq) == DescState::Pending {
                self.reap_until(ctx, lib, |_| Some(()))?;
            }
            region.deregister(ctx);
            if let DescState::Error(e) = self.vi.send_state(seq) {
                if let Ok(st) = lib.lock().conn(vi) {
                    st.reset = true;
                }
                return Err(Self::map_vip(e));
            }
        }
        Ok(data.len())
    }

    /// Reap completed sends and append `data` to the combine buffer: with
    /// a pending buffer that has room, one lock round trip does both.
    fn combine_send(&self, ctx: &SimCtx, lib: &Arc<SoviaLib>, data: &[u8]) -> SockResult<usize> {
        let vi = self.vi_id();
        let mut g = lib.lock();
        let mut st = g.conn(vi)?;
        while self.reap_one(st) {}
        loop {
            match st.combine.as_mut() {
                Some(c) if c.filled + data.len() <= CHUNK_SIZE => {
                    // The store is uncharged; its COW faults are charged
                    // once the guard is gone.
                    let faults = self.pools[SEND].store_slot(c.slot, c.filled, data);
                    c.filled += data.len();
                    let full = c.filled >= CHUNK_SIZE;
                    st.stats.combined_sends += 1;
                    drop(g);
                    charge_cow_faults(ctx, &self.costs, faults);
                    self.charge_copy(ctx, data.len());
                    self.count(ctx, TraceKind::CombinedSends, 1);
                    if full {
                        self.flush_combine(ctx, lib)?;
                    }
                    return Ok(data.len());
                }
                // Condition (2): flush when there is no room.
                Some(_) => {
                    let pending = g.take_combine(vi, None);
                    drop(g);
                    if let Some(c) = pending {
                        self.post_combine(ctx, lib, c)?;
                    }
                }
                // Install a fresh buffer, then arm the timer for it: "the
                // sender starts a timer", 1-2 us of software-timer
                // management (the COMBINE-vs-SINGLE latency gap in Fig 6a).
                None => {
                    let taken = st.free[SEND].take();
                    drop(g);
                    let slot = self.acquire_slot(ctx, lib, SEND, taken)?;
                    self.charge(ctx, TraceKind::Timer, COMBINE_TIMER_COST, 0);
                    let installed = lib.lock().install_combine(vi, slot)?;
                    if let Some(epoch) = installed {
                        lib.arm_combine_timer(vi, epoch);
                    }
                }
            }
            g = lib.lock();
            st = g.conn(vi)?;
        }
    }

    /// Charge a memcpy of `len` bytes.
    fn charge_copy(&self, ctx: &SimCtx, len: usize) {
        self.charge(ctx, TraceKind::Copy, self.costs.memcpy(len), len as u64);
        self.count(ctx, TraceKind::BytesCopied, len as u64);
    }

    /// Flush the combine buffer if present (conditions (1)–(4)).
    pub fn flush_combine(&self, ctx: &SimCtx, lib: &SoviaLib) -> SockResult<()> {
        let pending = lib.lock().take_combine(self.vi_id(), None);
        match pending {
            Some(c) => self.post_combine(ctx, lib, c),
            None => Ok(()),
        }
    }

    /// Send a combine buffer just taken off this connection (an empty one
    /// only frees its slot).
    pub(crate) fn post_combine(&self, ctx: &SimCtx, lib: &SoviaLib, c: Combine) -> SockResult<()> {
        if c.filled == 0 {
            lib.lock().conn(self.vi_id())?.free[SEND].put(c.slot);
            return Ok(());
        }
        self.post_data_slot(ctx, lib, c.slot, c.filled)
    }

    /// `recv()`: drain buffered stream data, re-posting descriptors as they
    /// are fully consumed.
    pub fn recv(&self, ctx: &SimCtx, lib: &SoviaLib, max: usize) -> SockResult<Vec<u8>> {
        let vi = self.vi_id();
        // Entering a blocking call flushes pending combined data on every
        // connection (flush condition 4, library-wide).
        let open = |st: &ConnState| match st.local_closed {
            true => Err(SockError::Closed),
            false => Ok(()),
        };
        let mut g = self.enter(ctx, lib, true, open)?;
        if max == 0 {
            return Ok(Vec::new());
        }
        // Condition (4): entering recv() flushes pending combined data.
        if let Some(pending) = g.take_combine(vi, None) {
            drop(g);
            self.post_combine(ctx, lib, pending)?;
            g = lib.lock();
        }
        loop {
            let st = g.conn(vi)?;
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
                drop(g);
                // The copy out of the bounce buffer into user memory — the
                // "intermediate buffering" cost of Section 3.1.
                self.charge_copy(ctx, n);
                if let Some(desc) = finished {
                    // Re-post on its own slot, unless torn down meanwhile.
                    let torn_down = lib.lock().conn(vi).map_or(true, |st| st.finalized);
                    if !torn_down {
                        let _ = self.vi.post_recv(ctx, desc);
                    }
                    self.note_consumed(ctx, lib);
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
            if let Some(e) = self.vi.error() {
                st.reset = true;
                return Err(Self::map_vip(e));
            }
            drop(g);
            lib.wait_progress(ctx);
            g = lib.lock();
        }
    }

    /// `shutdown(SHUT_WR)`: flush pending combined data and send FIN, but
    /// keep the receive direction open (half-close).
    pub fn shutdown_write(&self, ctx: &SimCtx, lib: &SoviaLib) -> SockResult<()> {
        if std::mem::replace(&mut lib.lock().conn(self.vi_id())?.fin_sent, true) {
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
        let vi = self.vi_id();
        let fin_sent = {
            let mut g = lib.lock();
            let Ok(st) = g.conn(vi) else {
                return Ok(()); // closed and torn down already
            };
            if std::mem::replace(&mut st.local_closed, true) {
                return Ok(());
            }
            let fin_sent = std::mem::replace(&mut st.fin_sent, true);
            if st.finalized {
                // Half-closed and torn down already: nothing needs the
                // state any more.
                g.drop_conn(vi);
            }
            fin_sent
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
        let owed = lib.lock().conn(self.vi_id()).map(|st| {
            (std::mem::take(&mut st.dacks), st.free[CTRL].take())
        });
        if let Ok((piggy, slot)) = owed {
            let _ = self.post_control(ctx, lib, slot, PacketType::Fin, piggy, &[]);
        }
    }

    // ----- ingress: after a receive completion is decoded -----------------

    /// Carry out what decoding a receive completion of this (not torn
    /// down) connection asked for: re-post the descriptor on its own slot
    /// (a failed re-post, on a broken connection, is the reset path's
    /// business), reply, and check for teardown.
    pub(crate) fn follow_up(&self, ctx: &SimCtx, lib: &SoviaLib, action: Action) {
        let (desc, reply) = match action {
            Action::Nothing => return,
            Action::Repost(desc) => (desc, None),
            // "If the receiver becomes ready, it pre-posts two descriptors
            // on its RQ ... and replies to the sender with an ACK" — our
            // pool keeps the descriptors posted; the grant is the ACK
            // carrying one credit.
            Action::Grant(desc) => (desc, Some((PacketType::Ack, 1))),
            Action::Fin(desc) => (desc, Some((PacketType::FinAck, 0))),
        };
        let _ = self.vi.post_recv(ctx, desc);
        if let Some((ptype, acks)) = reply {
            let slot = self.take_ctrl(lib);
            let _ = self.post_control(ctx, lib, slot, ptype, acks, &[]);
        }
        // A grant is no step of the close handshake.
        if !matches!(reply, Some((PacketType::Ack, _))) {
            self.maybe_finalize(ctx, lib);
        }
    }

    fn maybe_finalize(&self, ctx: &SimCtx, lib: &SoviaLib) {
        if !lib.lock().finalize(self.vi_id()) {
            return;
        }
        // Both directions agreed: tear down.
        lib.nic().destroy_vi(&self.vi);
        self.recv_pool.deregister(ctx);
        for pool in &self.pools {
            pool.deregister(ctx);
        }
        lib.process().free(self.staging, CHUNK_SIZE);
        lib.conn_finalized();
    }
}
