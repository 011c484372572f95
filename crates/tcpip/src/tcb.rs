//! The TCP control block: per-connection state machine, sliding window,
//! Nagle, delayed ACKs, congestion window, retransmission.
//!
//! Each connection has a *transmit engine* daemon that serializes all
//! outgoing segments (so sequence order is never violated by concurrent
//! senders) and charges the kernel's per-segment costs. The receive path
//! runs on the device's service thread (interrupt context). All that
//! changes sits in one `TcbState` under one lock, whose guard is never
//! held across a time-advancing call: work decided under it (a segment,
//! a timer, the close hook) runs once it drops, and helpers take the
//! state from a caller that holds the guard.

use std::collections::VecDeque;
use std::sync::{Arc, Weak};

use dsim::sync::{SimCondvar, SimQueue};
use dsim::{Payload, Shutdown, SimCtx, SimDuration, SimHandle};
use parking_lot::{Mutex, MutexGuard};
use simos::{HostCosts, KernelCpu};
use sockets::{SockAddr, SockError, SockResult};

use crate::costs::TcpCosts;
use crate::device::NetDevice;
use crate::packet::{PacketHeader, TcpFlags, IP_HDR, TCP_HDR};

/// Maximum segment size: device MTU minus the 40-byte header pair.
pub fn mss_for(mtu: usize) -> usize {
    mtu - IP_HDR - TCP_HDR
}

/// Default socket buffer size (Linux 2.2 default-ish).
pub const DEFAULT_SOCKBUF: usize = 65_535;

/// Consecutive retransmissions of the same data before the connection is
/// abandoned with a reset (Linux's `tcp_retries2`-style bound; keeps a
/// partitioned peer from retransmitting forever).
pub const MAX_RTO_RETRIES: u32 = 12;

/// Connection states (condensed: TIME_WAIT is skipped — the simulation
/// has no stray duplicate segments to guard against).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// SYN sent, awaiting SYN-ACK.
    SynSent,
    /// SYN received, SYN-ACK sent, awaiting the final ACK.
    SynRcvd,
    /// Data flows.
    Established,
    /// Fully closed (both FINs exchanged) or reset.
    Closed,
}

#[derive(Default)]
struct Snd {
    /// Oldest unacknowledged sequence number (= seq of `buf` front).
    una: u32,
    /// Next sequence number to transmit.
    nxt: u32,
    /// Highest sequence ever transmitted (+1). After a go-back-N rewind
    /// `nxt` drops below this; cumulative ACKs up to `high` are valid
    /// (old in-flight segments may still land after the rewind).
    high: u32,
    /// Unacknowledged + unsent bytes, front aligned with `una`.
    buf: VecDeque<u8>,
    /// Peer's advertised window.
    peer_wnd: u32,
    /// Congestion window (slow start; no loss handling needed on a
    /// reliable SAN, it just ramps and saturates).
    cwnd: u32,
    fin_queued: bool,
    fin_sent: bool,
    fin_acked: bool,
    rto_gen: u64,
    rto_armed: bool,
    /// Consecutive RTO firings without forward progress (an ACK advancing
    /// `una` clears it); `MAX_RTO_RETRIES` aborts the connection.
    rto_retries: u32,
    /// End sequence of the last sub-MSS segment sent (Minshall's Nagle
    /// variant: only hold small data while a *small* segment is unacked,
    /// so a full-segment stream's tail never trips the delayed-ACK stall).
    small_limit: u32,
}

impl Snd {
    fn new(cwnd: u32) -> Snd {
        let (una, peer_wnd) = (1, DEFAULT_SOCKBUF as u32);
        Snd { una, nxt: una, high: una, peer_wnd, cwnd, small_limit: una, ..Snd::default() }
    }

    /// Take a cumulative ACK of the data `local` sends `remote`: drop the
    /// acked bytes from `buf`, advance `una` (and a rewound `nxt`). False,
    /// changing nothing, if the ACK covers nothing new or more than was
    /// ever sent (judged against `high`, not a rewound `nxt`).
    fn take_ack(&mut self, ack: u32, (local, remote): (SockAddr, SockAddr)) -> bool {
        let acked = seq_diff(ack, self.una) as usize;
        if acked == 0 || acked > seq_diff(self.high, self.una) as usize {
            return false;
        }
        // The FIN is the one sequence number past the data. It counts as
        // acked even if an RTO rewound it (clearing `fin_sent`) after it
        // was sent, so the engine does not send it again.
        let fin_in_window = acked > self.buf.len();
        let data_acked = acked - usize::from(fin_in_window);
        assert!(
            data_acked <= self.buf.len(),
            "tcp {local}->{remote}: ACK {ack} covers {data_acked} data bytes, only {} are buffered",
            self.buf.len()
        );
        self.buf.drain(..data_acked);
        self.una = ack;
        // If the cumulative ACK overtook a rewound nxt, the covered data
        // needs no retransmission.
        if seq_diff(self.una, self.nxt) > 0 && seq_diff(self.una, self.nxt) < 1 << 31 {
            self.nxt = self.una;
        }
        self.fin_sent |= fin_in_window;
        self.fin_acked |= fin_in_window;
        true
    }
}

/// Append `buf[start..start + len]` to `out`: one slice copy per half of
/// the ring (`range(..).as_slices()` is unstable; `make_contiguous` would
/// rotate the ring).
pub(crate) fn extend_from_ring(out: &mut Vec<u8>, buf: &VecDeque<u8>, start: usize, len: usize) {
    let (a, b) = buf.as_slices();
    let end = start + len;
    if start < a.len() {
        out.extend_from_slice(&a[start..end.min(a.len())]);
    }
    if end > a.len() {
        out.extend_from_slice(&b[start.saturating_sub(a.len())..end - a.len()]);
    }
}

/// The receive-side socket buffer: a FIFO of payload *windows* rather
/// than flattened bytes. Arriving segments are queued as zero-copy slices
/// of the wire buffer; bytes are only materialized when `recv` assembles
/// the user's buffer (the copy whose `memcpy` cost is charged there).
#[derive(Default)]
struct SegQueue {
    segs: VecDeque<Payload>,
    len: usize,
}

impl SegQueue {
    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn push(&mut self, seg: Payload) {
        if !seg.is_empty() {
            self.len += seg.len();
            self.segs.push_back(seg);
        }
    }

    /// Remove up to `max` bytes from the front into an owned buffer (the
    /// kernel→user copy).
    fn pop_into_vec(&mut self, max: usize) -> Vec<u8> {
        let n = max.min(self.len);
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let seg = self.segs.pop_front().expect("len tracks queued segments");
            let take = (n - out.len()).min(seg.len());
            out.extend_from_slice(&seg[..take]);
            if take < seg.len() {
                self.segs.push_front(seg.slice(take..));
            }
        }
        self.len -= n;
        out
    }
}

#[derive(Default)]
struct Rcv {
    nxt: u32,
    buf: SegQueue,
    fin_rcvd: bool,
    /// Remaining arrivals to acknowledge immediately (Linux-style
    /// quickack while the peer's congestion window ramps; prevents the
    /// odd-parity delayed-ACK stall at connection start).
    quickack: u32,
    /// Segments received since the last ACK we sent.
    unacked_segments: u32,
    dack_gen: u64,
    /// The receive window was exhausted; the next read must advertise.
    window_was_closed: bool,
    /// A pure ACK should be sent at the next opportunity.
    ack_now: bool,
}

/// Timer events routed through the stack's timer thread.
pub(crate) enum TimerEvent {
    Rto(Arc<Tcb>, u64),
    DelayedAck(Arc<Tcb>, u64),
}

/// Everything about a connection that changes, under its one lock.
struct TcbState {
    state: TcpState,
    snd: Snd,
    rcv: Rcv,
    /// Nagle's algorithm is on (no `TCP_NODELAY`).
    nagle: bool,
    /// Send buffer size.
    snd_cap: usize,
    /// Receive buffer size (the advertised window).
    rcv_cap: usize,
    /// The connection was reset (RST received or sent, or the
    /// retransmissions ran out).
    reset: bool,
    /// Called once on full close so the stack can drop its table entry.
    on_closed: Option<Box<dyn FnOnce() + Send>>,
}

impl TcbState {
    fn advertised_window(&self) -> u32 {
        self.rcv_cap.saturating_sub(self.rcv.buf.len()) as u32
    }
}

impl Snd {
    /// Start a new retransmission timeout; returns its generation.
    fn arm_rto(&mut self) -> u64 {
        self.rto_gen += 1;
        self.rto_armed = true;
        self.rto_gen
    }
}

/// One TCP connection.
pub struct Tcb {
    pub(crate) local: SockAddr,
    pub(crate) remote: SockAddr,
    device: Arc<dyn NetDevice>,
    costs: TcpCosts,
    host_costs: HostCosts,
    /// The machine's kernel CPU: all protocol processing serializes here.
    kcpu: Arc<KernelCpu>,
    sim: SimHandle,
    timer_q: Arc<SimQueue<TimerEvent>>,
    mss: usize,

    inner: Mutex<TcbState>,

    /// Established / refused signal for `connect`.
    cv_est: SimCondvar,
    /// Send-buffer space.
    cv_send: SimCondvar,
    /// Receive data / EOF.
    cv_recv: SimCondvar,
    /// Work for the transmit engine.
    cv_tx: SimCondvar,

    /// Weak self-reference so timer closures can recover an `Arc`.
    self_ref: Weak<Tcb>,
}

fn seq_diff(a: u32, b: u32) -> u32 {
    a.wrapping_sub(b)
}

impl Tcb {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        sim: &SimHandle,
        local: SockAddr,
        remote: SockAddr,
        device: Arc<dyn NetDevice>,
        costs: TcpCosts,
        host_costs: HostCosts,
        kcpu: Arc<KernelCpu>,
        timer_q: Arc<SimQueue<TimerEvent>>,
        initial_state: TcpState,
    ) -> Arc<Tcb> {
        let mss = mss_for(device.mtu());
        let tcb = Arc::new_cyclic(|self_ref| Tcb {
            local,
            remote,
            device,
            costs,
            host_costs,
            kcpu,
            sim: sim.clone(),
            timer_q,
            mss,
            inner: Mutex::new(TcbState {
                state: initial_state,
                snd: Snd::new((4 * mss) as u32),
                rcv: Rcv {
                    nxt: 1,
                    quickack: 16,
                    ..Rcv::default()
                },
                nagle: true,
                snd_cap: DEFAULT_SOCKBUF,
                rcv_cap: DEFAULT_SOCKBUF,
                reset: false,
                on_closed: None,
            }),
            cv_est: SimCondvar::new(sim),
            cv_send: SimCondvar::new(sim),
            cv_recv: SimCondvar::new(sim),
            cv_tx: SimCondvar::new(sim),
            self_ref: self_ref.clone(),
        });
        // The transmit engine.
        let engine = Arc::clone(&tcb);
        sim.spawn_daemon(
            format!("tcp-tx-{}:{}", local.host, local.port),
            move |ctx| {
                let _ = engine.tx_engine(ctx);
            },
        );
        tcb
    }

    pub(crate) fn set_on_closed(&self, f: impl FnOnce() + Send + 'static) {
        self.inner.lock().on_closed = Some(Box::new(f));
    }

    /// Disable/enable Nagle (`TCP_NODELAY`).
    pub fn set_nodelay(&self, on: bool) {
        self.inner.lock().nagle = !on;
        if on {
            self.cv_tx.notify_all();
        }
    }

    /// Set socket buffer sizes.
    pub fn set_sndbuf(&self, n: usize) {
        self.inner.lock().snd_cap = n.max(self.mss);
    }

    /// Set the receive buffer (advertised window) size.
    pub fn set_rcvbuf(&self, n: usize) {
        self.inner.lock().rcv_cap = n.max(self.mss);
    }

    // ----- segment emission ------------------------------------------------

    /// The headers of a packet on this connection.
    fn header(&self, seq: u32, ack: u32, flags: TcpFlags, wnd: u32) -> PacketHeader {
        let (l, r) = (self.local, self.remote);
        let (src, dst, src_port, dst_port) = (l.host, r.host, l.port, r.port);
        PacketHeader { src, dst, src_port, dst_port, seq, ack, flags, wnd }
    }

    /// Send one segment, charging kernel costs. `wire` is a
    /// [`PacketHeader::wire_buf`] holding the payload; the headers are
    /// written into it here, since `ack` and `wnd` are only known now.
    /// Runs on the tx engine or (for control segments) the caller's thread.
    fn emit(&self, ctx: &SimCtx, seq: u32, flags: TcpFlags, wire: Vec<u8>) {
        let payload_len = wire.len() - IP_HDR - TCP_HDR;
        let (ack, wnd) = {
            let mut st = self.inner.lock();
            let rcv = &mut st.rcv;
            rcv.unacked_segments = 0;
            rcv.ack_now = false;
            rcv.dack_gen += 1; // cancel any pending delayed-ack
            (rcv.nxt, st.advertised_window())
        };
        let pure_ack = payload_len == 0 && !flags.contains(TcpFlags::SYN);
        let (kind, cost) = if pure_ack {
            (dsim::TraceKind::AckTx, self.costs.tx_ack)
        } else {
            (dsim::TraceKind::TxSegment, self.costs.tx_segment)
        };
        self.kcpu.charge(
            ctx,
            dsim::TraceLayer::Kernel,
            kind,
            cost + self.costs.ip + self.costs.checksum(payload_len),
            dsim::TraceTag::on_conn(self.local.port as u32)
                .msg(seq as u64)
                .value(payload_len as u64),
        );
        let hdr = self.header(seq, ack, flags | TcpFlags::ACK, wnd);
        self.device.send(ctx, self.remote.host, hdr.encode(wire));
    }

    /// Send the initial SYN (no ACK flag; nothing to acknowledge yet).
    pub(crate) fn send_syn(&self, ctx: &SimCtx) {
        self.kcpu.charge(
            ctx,
            dsim::TraceLayer::Kernel,
            dsim::TraceKind::TxSegment,
            self.costs.tx_segment + self.costs.ip,
            dsim::TraceTag::on_conn(self.local.port as u32),
        );
        ctx.trace_instant(
            dsim::TraceLayer::Kernel,
            dsim::TraceKind::HandshakeReq,
            dsim::TraceTag::on_conn(self.local.port as u32),
        );
        let wnd = self.inner.lock().rcv_cap as u32;
        let hdr = self.header(0, 0, TcpFlags::SYN, wnd);
        self.device.send(ctx, self.remote.host, hdr.encode(PacketHeader::wire_buf(0)));
        self.arm_rto();
    }

    pub(crate) fn send_syn_ack(&self, ctx: &SimCtx) {
        self.emit(ctx, 0, TcpFlags::SYN, PacketHeader::wire_buf(0));
    }

    // ----- the transmit engine ---------------------------------------------

    fn tx_engine(self: &Arc<Self>, ctx: &SimCtx) -> Result<(), Shutdown> {
        loop {
            enum Job {
                Data { seq: u32, wire: Vec<u8> },
                Fin { seq: u32 },
                PureAck { seq: u32 },
                Idle,
            }
            let job = {
                let mut st = self.inner.lock();
                let nagle = st.nagle;
                let (state, snd) = (st.state, &mut st.snd);
                if state == TcpState::Closed {
                    return Ok(());
                }
                if state != TcpState::Established {
                    Job::Idle
                } else {
                    // The FIN, once sent, occupies one sequence number
                    // beyond the data; exclude it from in-flight byte math.
                    let seq_used = seq_diff(snd.nxt, snd.una);
                    let fin_bit = u32::from(snd.fin_sent && seq_used > snd.buf.len() as u32);
                    let inflight = seq_used - fin_bit;
                    let avail = snd.buf.len() as u32 - inflight;
                    let wnd = snd.peer_wnd.min(snd.cwnd);
                    let can = wnd.saturating_sub(inflight);
                    let seg = avail.min(self.mss as u32).min(can);
                    let small_unacked = seq_diff(snd.small_limit, snd.una) > 0
                        && seq_diff(snd.small_limit, snd.una) <= seq_used;
                    let nagle_holds = nagle
                        && seg > 0
                        && (seg as usize) < self.mss
                        && small_unacked
                        && seg == avail; // only the true tail is held
                    if seg > 0 && !nagle_holds {
                        // One allocation and one host copy per segment:
                        // the bytes land right behind the header space.
                        let start = seq_diff(snd.nxt, snd.una) as usize;
                        let mut wire = PacketHeader::wire_buf(seg as usize);
                        extend_from_ring(&mut wire, &snd.buf, start, seg as usize);
                        let seq = snd.nxt;
                        snd.nxt = snd.nxt.wrapping_add(seg);
                        if seq_diff(snd.nxt, snd.high) < 1 << 31 && snd.nxt != snd.high {
                            snd.high = snd.nxt;
                        }
                        if (seg as usize) < self.mss {
                            snd.small_limit = snd.nxt;
                        }
                        Job::Data { seq, wire }
                    } else if snd.fin_queued
                        && !snd.fin_sent
                        && avail == 0
                        && seq_diff(snd.nxt, snd.una) == 0
                    {
                        let seq = snd.nxt;
                        snd.fin_sent = true;
                        snd.nxt = snd.nxt.wrapping_add(1);
                        if seq_diff(snd.nxt, snd.high) < 1 << 31 && snd.nxt != snd.high {
                            snd.high = snd.nxt;
                        }
                        Job::Fin { seq }
                    } else if st.rcv.ack_now {
                        Job::PureAck { seq: st.snd.nxt }
                    } else {
                        Job::Idle
                    }
                }
            };
            match job {
                Job::Data { seq, wire } => {
                    self.emit(ctx, seq, TcpFlags::PSH, wire);
                    self.arm_rto();
                }
                Job::Fin { seq } => {
                    self.emit(ctx, seq, TcpFlags::FIN, PacketHeader::wire_buf(0));
                    self.arm_rto();
                }
                Job::PureAck { seq } => {
                    self.emit(ctx, seq, TcpFlags::empty(), PacketHeader::wire_buf(0));
                }
                Job::Idle => self.cv_tx.wait_idle(ctx)?,
            }
        }
    }

    // ----- timers ------------------------------------------------------------

    fn arm_rto(&self) {
        let gen = self.inner.lock().snd.arm_rto();
        self.schedule(self.costs.rto, TimerEvent::Rto, gen);
    }

    /// Queue timer `event` of generation `gen` for the timer thread,
    /// `after` from now.
    fn schedule(&self, after: SimDuration, event: fn(Arc<Tcb>, u64) -> TimerEvent, gen: u64) {
        let (q, me) = (Arc::clone(&self.timer_q), self.self_arc());
        self.sim.schedule_in(after, move |_| q.push(event(me, gen)));
    }

    /// `Arc<Self>` recovery for timer closures. Timers are armed only from
    /// a method running on a live TCB, so the upgrade cannot fail.
    fn self_arc(&self) -> Arc<Tcb> {
        self.self_ref
            .upgrade()
            .expect("TCB armed a timer while being dropped")
    }

    pub(crate) fn handle_rto(self: &Arc<Self>, ctx: &SimCtx, gen: u64) {
        enum Rto {
            Stale,
            /// A lost SYN never shows up as rewindable data (the engine
            /// only runs once established): resend the handshake segment.
            Syn,
            Retransmit,
            GiveUp,
        }
        let action = {
            let mut st = self.inner.lock();
            let syn_sent = st.state == TcpState::SynSent;
            let snd = &mut st.snd;
            if snd.rto_gen != gen || !snd.rto_armed {
                Rto::Stale
            } else if syn_sent || seq_diff(snd.nxt, snd.una) > 0 {
                snd.rto_retries += 1;
                if snd.rto_retries > MAX_RTO_RETRIES {
                    Rto::GiveUp
                } else if syn_sent {
                    Rto::Syn
                } else {
                    // Go-back-N: rewind and let the engine resend.
                    snd.nxt = snd.una;
                    if snd.fin_sent && !snd.fin_acked {
                        snd.fin_sent = false;
                    }
                    Rto::Retransmit
                }
            } else {
                snd.rto_armed = false;
                Rto::Stale
            }
        };
        match action {
            Rto::Stale => {}
            Rto::Syn => self.send_syn(ctx), // re-arms the RTO
            Rto::Retransmit => {
                ctx.trace_count(
                    dsim::TraceLayer::Kernel,
                    dsim::TraceKind::Retransmits,
                    1,
                    dsim::TraceTag::on_conn(self.local.port as u32),
                );
                self.cv_tx.notify_all()
            }
            Rto::GiveUp => self.do_reset(),
        }
    }

    pub(crate) fn handle_delayed_ack(self: &Arc<Self>, ctx: &SimCtx, gen: u64) {
        let fire = {
            let rcv = &mut self.inner.lock().rcv;
            if rcv.dack_gen == gen && rcv.unacked_segments > 0 {
                rcv.ack_now = true;
                true
            } else {
                false
            }
        };
        if fire {
            ctx.trace_instant(
                dsim::TraceLayer::Kernel,
                dsim::TraceKind::DelayedAckFired,
                dsim::TraceTag::on_conn(self.local.port as u32),
            );
            ctx.trace_count(
                dsim::TraceLayer::Kernel,
                dsim::TraceKind::AcksDelayed,
                1,
                dsim::TraceTag::on_conn(self.local.port as u32),
            );
            self.cv_tx.notify_all();
        }
    }

    // ----- the receive path (device service thread) -------------------------

    pub(crate) fn on_segment(self: &Arc<Self>, ctx: &SimCtx, seg: PacketHeader, payload: Payload) {
        self.kcpu.charge(
            ctx,
            dsim::TraceLayer::Kernel,
            dsim::TraceKind::RxSegment,
            self.costs.rx_segment + self.costs.ip + self.costs.checksum(payload.len()),
            dsim::TraceTag::on_conn(self.local.port as u32)
                .msg(seg.seq as u64)
                .value(payload.len() as u64),
        );
        if seg.flags.contains(TcpFlags::RST) {
            self.do_reset();
            return;
        }
        let mut st = self.inner.lock();
        match st.state {
            TcpState::SynSent => {
                if seg.flags.contains(TcpFlags::SYN) && seg.flags.contains(TcpFlags::ACK) {
                    st.snd.peer_wnd = seg.wnd;
                    st.snd.rto_retries = 0;
                    st.snd.rto_armed = false;
                    st.state = TcpState::Established;
                    // The handshake ACK.
                    st.rcv.ack_now = true;
                    drop(st);
                    self.cv_est.notify_all();
                    self.cv_tx.notify_all();
                }
            }
            TcpState::SynRcvd => {
                if seg.flags.contains(TcpFlags::SYN) && !seg.flags.contains(TcpFlags::ACK) {
                    // Duplicate SYN: our SYN-ACK was lost and the client
                    // retransmitted. Answer again.
                    drop(st);
                    self.send_syn_ack(ctx);
                } else if seg.flags.contains(TcpFlags::ACK) && !seg.flags.contains(TcpFlags::SYN) {
                    st.snd.peer_wnd = seg.wnd;
                    st.state = TcpState::Established;
                    self.cv_est.notify_all();
                    // Fall through to normal processing of any payload.
                    self.process_established(ctx, st, seg, payload);
                }
            }
            TcpState::Established => self.process_established(ctx, st, seg, payload),
            TcpState::Closed => {}
        }
    }

    /// Take a segment on an established connection; `st` is its state,
    /// locked by the caller.
    fn process_established(
        self: &Arc<Self>,
        ctx: &SimCtx,
        mut st: MutexGuard<'_, TcbState>,
        seg: PacketHeader,
        payload: Payload,
    ) {
        let mut wake_send = false;
        let mut wake_recv = false;
        let mut check_closed = false;
        // Timers to arm once the lock drops, RTO first.
        let mut rto = None;
        let mut delayed_ack = None;
        // --- ACK side ---
        let snd = &mut st.snd;
        snd.peer_wnd = seg.wnd;
        let conn = (self.local, self.remote);
        if seg.flags.contains(TcpFlags::ACK) && snd.take_ack(seg.ack, conn) {
            // Once the FIN is acked, no later ACK is new.
            check_closed = snd.fin_acked;
            snd.rto_retries = 0;
            // Slow-start growth, capped generously (no losses on the
            // SAN; it simply ramps and saturates).
            snd.cwnd = (snd.cwnd + self.mss as u32).min(1 << 20);
            if seq_diff(snd.nxt, snd.una) > 0 {
                rto = Some(snd.arm_rto());
            } else {
                snd.rto_armed = false;
            }
            wake_send = true;
        }
        // --- data side ---
        let payload_len = payload.len();
        if payload_len > 0 {
            if seg.seq == st.rcv.nxt {
                let room = st.rcv_cap.saturating_sub(st.rcv.buf.len());
                let take = payload_len.min(room);
                let rcv = &mut st.rcv;
                // Queue a window of the wire bytes — no copy until recv().
                rcv.buf.push(payload.slice(..take));
                rcv.nxt = rcv.nxt.wrapping_add(take as u32);
                if take < payload_len {
                    rcv.window_was_closed = true;
                }
                rcv.unacked_segments += 1;
                if rcv.quickack > 0 {
                    rcv.quickack -= 1;
                    rcv.ack_now = true;
                } else if rcv.unacked_segments >= 2 {
                    rcv.ack_now = true;
                } else {
                    rcv.dack_gen += 1;
                    delayed_ack = Some(rcv.dack_gen);
                }
                wake_recv = true;
            } else {
                // Out of order / duplicate: dup-ACK so the sender rewinds.
                st.rcv.ack_now = true;
            }
        }
        // --- FIN ---
        if seg.flags.contains(TcpFlags::FIN) {
            let rcv = &mut st.rcv;
            let fin_seq = seg.seq.wrapping_add(payload_len as u32);
            if fin_seq == rcv.nxt && !rcv.fin_rcvd {
                rcv.fin_rcvd = true;
                rcv.nxt = rcv.nxt.wrapping_add(1);
                rcv.ack_now = true;
                wake_recv = true;
                check_closed = true;
            }
        }
        drop(st);
        if let Some(gen) = rto {
            self.schedule(self.costs.rto, TimerEvent::Rto, gen);
        }
        if let Some(gen) = delayed_ack {
            self.schedule(self.costs.delayed_ack, TimerEvent::DelayedAck, gen);
        }
        if check_closed {
            self.maybe_fully_closed(ctx);
        }
        if wake_send {
            self.cv_send.notify_all_after(self.host_costs.context_switch);
        }
        if wake_recv {
            self.cv_recv.notify_all_after(self.host_costs.context_switch);
        }
        // Window/ack news always interests the tx engine.
        self.cv_tx.notify_all();
    }

    fn maybe_fully_closed(self: &Arc<Self>, ctx: &SimCtx) {
        let final_ack = {
            let st = self.inner.lock();
            if !(st.snd.fin_acked && st.rcv.fin_rcvd) {
                return;
            }
            // LAST_ACK duty: the peer's FIN must be acknowledged before
            // this TCB disappears, or the peer retransmits it forever.
            st.rcv.ack_now.then_some(st.snd.nxt)
        };
        if let Some(seq) = final_ack {
            self.emit(ctx, seq, TcpFlags::empty(), PacketHeader::wire_buf(0));
        }
        let on_closed = {
            let mut st = self.inner.lock();
            if st.state == TcpState::Closed {
                return;
            }
            st.state = TcpState::Closed;
            st.on_closed.take()
        };
        if let Some(f) = on_closed {
            f();
        }
        self.cv_tx.notify_all();
        self.cv_recv.notify_all();
        self.cv_send.notify_all();
    }

    fn do_reset(self: &Arc<Self>) {
        let on_closed = {
            let mut st = self.inner.lock();
            st.reset = true;
            st.state = TcpState::Closed;
            st.on_closed.take()
        };
        if let Some(f) = on_closed {
            f();
        }
        self.cv_est.notify_all();
        self.cv_send.notify_all();
        self.cv_recv.notify_all();
        self.cv_tx.notify_all();
    }

    // ----- user-side operations ----------------------------------------------

    /// Block until the three-way handshake completes.
    pub(crate) fn wait_established(&self, ctx: &SimCtx) -> SockResult<()> {
        loop {
            {
                let st = self.inner.lock();
                if st.reset {
                    return Err(SockError::ConnectionRefused);
                }
                match st.state {
                    TcpState::Established => return Ok(()),
                    TcpState::Closed => return Err(SockError::ConnectionRefused),
                    _ => {}
                }
            }
            self.cv_est.wait(ctx);
            ctx.charge(
                dsim::TraceLayer::Kernel,
                dsim::TraceKind::ContextSwitch,
                self.host_costs.context_switch,
                dsim::TraceTag::on_conn(self.local.port as u32),
            );
        }
    }

    /// Copy into the socket buffer (blocking on space) and kick the engine.
    pub fn send(&self, ctx: &SimCtx, data: &[u8]) -> SockResult<usize> {
        if data.is_empty() {
            return Ok(0);
        }
        let mut written = 0;
        while written < data.len() {
            let took = {
                let mut st = self.inner.lock();
                if st.reset {
                    return Err(SockError::ConnectionReset);
                }
                if st.state == TcpState::Closed || st.snd.fin_queued {
                    return Err(SockError::Closed);
                }
                let room = st.snd_cap.saturating_sub(st.snd.buf.len());
                let n = room.min(data.len() - written);
                st.snd.buf.extend(&data[written..written + n]);
                n
            };
            if took > 0 {
                // The user→kernel copy.
                self.kcpu.charge(
                    ctx,
                    dsim::TraceLayer::Kernel,
                    dsim::TraceKind::Copy,
                    self.host_costs.memcpy(took),
                    dsim::TraceTag::on_conn(self.local.port as u32).value(took as u64),
                );
                ctx.trace_count(
                    dsim::TraceLayer::Kernel,
                    dsim::TraceKind::BytesCopied,
                    took as u64,
                    dsim::TraceTag::on_conn(self.local.port as u32),
                );
                written += took;
                self.cv_tx.notify_all();
            } else {
                self.cv_send.wait(ctx);
            }
        }
        Ok(written)
    }

    /// Drain up to `max` bytes; empty vec = orderly EOF.
    pub fn recv(&self, ctx: &SimCtx, max: usize) -> SockResult<Vec<u8>> {
        loop {
            let (out, reopened) = {
                let mut st = self.inner.lock();
                let rcv = &mut st.rcv;
                if !rcv.buf.is_empty() {
                    let out = rcv.buf.pop_into_vec(max);
                    let reopened = std::mem::take(&mut rcv.window_was_closed);
                    if reopened {
                        rcv.ack_now = true;
                    }
                    (out, reopened)
                } else if rcv.fin_rcvd {
                    return Ok(Vec::new());
                } else if st.reset {
                    return Err(SockError::ConnectionReset);
                } else if st.state == TcpState::Closed {
                    return Ok(Vec::new());
                } else {
                    drop(st);
                    self.cv_recv.wait(ctx);
                    continue;
                }
            };
            // The kernel→user copy.
            self.kcpu.charge(
                ctx,
                dsim::TraceLayer::Kernel,
                dsim::TraceKind::Copy,
                self.host_costs.memcpy(out.len()),
                dsim::TraceTag::on_conn(self.local.port as u32).value(out.len() as u64),
            );
            ctx.trace_count(
                dsim::TraceLayer::Kernel,
                dsim::TraceKind::BytesCopied,
                out.len() as u64,
                dsim::TraceTag::on_conn(self.local.port as u32),
            );
            if reopened {
                self.cv_tx.notify_all();
            }
            return Ok(out);
        }
    }

    /// Queue a FIN after all buffered data; returns immediately (the
    /// kernel keeps flushing in the background).
    pub fn close(&self, _ctx: &SimCtx) {
        if std::mem::replace(&mut self.inner.lock().snd.fin_queued, true) {
            return;
        }
        self.cv_tx.notify_all();
    }

    /// Full close (the `close()` syscall, as opposed to `SHUT_WR`): closing
    /// with unread received data aborts with RST — BSD semantics — so the
    /// peer sees a reset rather than a clean EOF it could mistake for
    /// complete delivery.
    pub fn close_full(self: &Arc<Self>, ctx: &SimCtx) {
        let abort = {
            let st = self.inner.lock();
            let unread = !st.rcv.buf.is_empty();
            (unread && !st.reset && st.state != TcpState::Closed).then_some(st.snd.nxt)
        };
        if let Some(seq) = abort {
            self.emit(
                ctx,
                seq,
                TcpFlags::RST.union(TcpFlags::ACK),
                PacketHeader::wire_buf(0),
            );
            self.do_reset();
            return;
        }
        self.close(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conn() -> (SockAddr, SockAddr) {
        (
            SockAddr::new(simos::HostId(1), 4000),
            SockAddr::new(simos::HostId(2), 21),
        )
    }

    /// 14 bytes in a 16-byte ring that wraps: pushed, drained from the
    /// front, pushed again.
    fn wrapped_ring() -> VecDeque<u8> {
        let mut ring = VecDeque::with_capacity(16);
        ring.extend(200..210u8);
        ring.drain(..8);
        ring.extend(0..12u8);
        let (a, b) = ring.as_slices();
        assert!(!a.is_empty() && !b.is_empty(), "the ring must wrap");
        ring
    }

    /// A sender whose buffer is `wrapped_ring()`, with `sent` bytes sent.
    fn sender(sent: u32) -> Snd {
        let mut snd = Snd::new(1 << 20);
        snd.buf = wrapped_ring();
        snd.nxt = snd.una + sent;
        snd.high = snd.nxt;
        snd
    }

    fn segment(snd: &Snd, len: usize) -> Vec<u8> {
        let mut out = Vec::new();
        extend_from_ring(&mut out, &snd.buf, seq_diff(snd.nxt, snd.una) as usize, len);
        out
    }

    #[test]
    fn ring_slices_match_byte_iteration_at_the_wrap_point() {
        let ring = wrapped_ring();
        for start in 0..=ring.len() {
            for len in 0..=ring.len() - start {
                let mut out = vec![0xAA];
                extend_from_ring(&mut out, &ring, start, len);
                let old: Vec<u8> = ring.iter().skip(start).take(len).copied().collect();
                assert_eq!(out[1..], old[..], "start {start} len {len}");
            }
        }
    }

    #[test]
    fn partial_ack_trims_only_the_acked_bytes() {
        let all: Vec<u8> = wrapped_ring().into();
        let mut snd = sender(10);
        assert!(snd.take_ack(snd.una + 4, conn()));
        assert_eq!((snd.una, snd.nxt), (5, 11));
        assert_eq!(Vec::from(snd.buf.clone()), all[4..]);
        assert_eq!(segment(&snd, 4), all[10..]);
        assert!(!snd.fin_acked);
    }

    #[test]
    fn stale_or_unsent_acks_change_nothing() {
        let mut snd = sender(10);
        assert!(!snd.take_ack(snd.una, conn()));
        assert!(!snd.take_ack(snd.high + 1, conn()));
        assert!(!snd.take_ack(snd.una.wrapping_sub(1), conn()));
        assert_eq!((snd.una, snd.buf.len()), (1, 14));
    }

    #[test]
    fn ack_covering_the_fin_trims_one_byte_less() {
        let mut snd = sender(15); // 14 data bytes and the FIN
        snd.fin_queued = true;
        snd.fin_sent = true;
        assert!(snd.take_ack(snd.high, conn()));
        assert!(snd.buf.is_empty() && snd.fin_acked);
        assert_eq!((snd.una, snd.nxt), (16, 16));
    }

    #[test]
    fn ack_of_a_fin_an_rto_rewound_still_acks_it() {
        let mut snd = Snd::new(1 << 20);
        snd.fin_queued = true;
        (snd.nxt, snd.high) = (1, 2); // the FIN went out, then the RTO rewound it
        assert!(snd.take_ack(2, conn()));
        assert!(
            snd.fin_acked && snd.fin_sent,
            "the engine must not send the FIN again"
        );
        assert_eq!((snd.una, snd.nxt), (2, 2));
    }

    #[test]
    fn ack_overtaking_a_rewound_nxt_moves_nxt_up() {
        let all: Vec<u8> = wrapped_ring().into();
        let mut snd = sender(14);
        snd.nxt = snd.una; // go-back-N rewind
        assert!(snd.take_ack(snd.una + 6, conn()));
        assert_eq!((snd.una, snd.nxt, snd.high), (7, 7, 15));
        assert_eq!(segment(&snd, 8), all[6..]);
    }

    #[test]
    #[should_panic(expected = "tcp host1:4000->host2:21: ACK 21 covers 19 data bytes, only 14")]
    fn ack_beyond_the_buffered_data_names_the_connection() {
        let mut snd = sender(20); // claims more sent than was ever buffered
        snd.take_ack(snd.high, conn());
    }
}
