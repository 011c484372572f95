//! The TCP control block: per-connection state machine, sliding window,
//! Nagle, delayed ACKs, congestion window, retransmission.
//!
//! Each connection has a *transmit engine* daemon that serializes all
//! outgoing segments (so sequence order is never violated by concurrent
//! senders) and charges the kernel's per-segment costs. The receive path
//! runs on the device's service thread (interrupt context). Every blocking
//! primitive follows the executor's rule: no lock held across a
//! time-advancing call.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use dsim::sync::{SimCondvar, SimQueue};
use dsim::{Payload, SimCtx, SimHandle};
use parking_lot::Mutex;
use simos::{HostCosts, KernelCpu};
use sockets::{SockAddr, SockError, SockResult};

use crate::costs::TcpCosts;
use crate::device::NetDevice;
use crate::packet::{IpPacket, TcpFlags, TcpSegment};

/// Maximum segment size: device MTU minus the 40-byte header pair.
pub fn mss_for(mtu: usize) -> usize {
    mtu - crate::packet::IP_HDR - crate::packet::TCP_HDR
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

    state: Mutex<TcpState>,
    snd: Mutex<Snd>,
    rcv: Mutex<Rcv>,

    /// Established / refused signal for `connect`.
    cv_est: SimCondvar,
    /// Send-buffer space.
    cv_send: SimCondvar,
    /// Receive data / EOF.
    cv_recv: SimCondvar,
    /// Work for the transmit engine.
    cv_tx: SimCondvar,

    nagle: AtomicBool,
    snd_cap: AtomicUsize,
    rcv_cap: AtomicUsize,
    reset: AtomicBool,
    /// Called once on full close so the stack can drop its table entry.
    on_closed: Mutex<Option<Box<dyn FnOnce() + Send>>>,
    /// Weak self-reference so timer closures can recover an `Arc`.
    self_ref: Mutex<Option<std::sync::Weak<Tcb>>>,
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
        let tcb = Arc::new(Tcb {
            local,
            remote,
            device,
            costs,
            host_costs,
            kcpu,
            sim: sim.clone(),
            timer_q,
            mss,
            state: Mutex::new(initial_state),
            snd: Mutex::new(Snd {
                una: 1,
                nxt: 1,
                high: 1,
                buf: VecDeque::new(),
                peer_wnd: DEFAULT_SOCKBUF as u32,
                cwnd: (4 * mss) as u32,
                fin_queued: false,
                fin_sent: false,
                fin_acked: false,
                rto_gen: 0,
                rto_armed: false,
                rto_retries: 0,
                small_limit: 1,
            }),
            rcv: Mutex::new(Rcv {
                nxt: 1,
                buf: SegQueue::default(),
                fin_rcvd: false,
                quickack: 16,
                unacked_segments: 0,
                dack_gen: 0,
                window_was_closed: false,
                ack_now: false,
            }),
            cv_est: SimCondvar::new(sim),
            cv_send: SimCondvar::new(sim),
            cv_recv: SimCondvar::new(sim),
            cv_tx: SimCondvar::new(sim),
            nagle: AtomicBool::new(true),
            snd_cap: AtomicUsize::new(DEFAULT_SOCKBUF),
            rcv_cap: AtomicUsize::new(DEFAULT_SOCKBUF),
            reset: AtomicBool::new(false),
            on_closed: Mutex::new(None),
            self_ref: Mutex::new(None),
        });
        Tcb::install_self_ref(&tcb);
        // The transmit engine.
        let engine = Arc::clone(&tcb);
        sim.spawn_daemon(
            format!("tcp-tx-{}:{}", local.host, local.port),
            move |ctx| engine.tx_engine(ctx),
        );
        tcb
    }

    pub(crate) fn set_on_closed(&self, f: impl FnOnce() + Send + 'static) {
        *self.on_closed.lock() = Some(Box::new(f));
    }

    /// Current state (diagnostics).
    pub fn state(&self) -> TcpState {
        *self.state.lock()
    }

    /// Disable/enable Nagle (`TCP_NODELAY`).
    pub fn set_nodelay(&self, on: bool) {
        self.nagle.store(!on, Ordering::Relaxed);
        if on {
            self.cv_tx.notify_all();
        }
    }

    /// Set socket buffer sizes.
    pub fn set_sndbuf(&self, n: usize) {
        self.snd_cap.store(n.max(self.mss), Ordering::Relaxed);
    }

    /// Set the receive buffer (advertised window) size.
    pub fn set_rcvbuf(&self, n: usize) {
        self.rcv_cap.store(n.max(self.mss), Ordering::Relaxed);
    }

    fn advertised_window(&self, rcv: &Rcv) -> u32 {
        (self.rcv_cap.load(Ordering::Relaxed).saturating_sub(rcv.buf.len())) as u32
    }

    // ----- segment emission ------------------------------------------------

    /// Build+send one segment, charging kernel costs. Runs on the tx
    /// engine or (for control segments) the caller's thread.
    fn emit(&self, ctx: &SimCtx, seq: u32, flags: TcpFlags, payload: Payload) {
        let (ack, wnd) = {
            let mut rcv = self.rcv.lock();
            rcv.unacked_segments = 0;
            rcv.ack_now = false;
            rcv.dack_gen += 1; // cancel any pending delayed-ack
            (rcv.nxt, self.advertised_window(&rcv))
        };
        let pure_ack = payload.is_empty() && !flags.contains(TcpFlags::SYN);
        let (kind, cost) = if pure_ack {
            (dsim::TraceKind::AckTx, self.costs.tx_ack)
        } else {
            (dsim::TraceKind::TxSegment, self.costs.tx_segment)
        };
        self.kcpu.charge(
            ctx,
            dsim::TraceLayer::Kernel,
            kind,
            cost + self.costs.ip + self.costs.checksum(payload.len()),
            dsim::TraceTag::on_conn(self.local.port as u32)
                .msg(seq as u64)
                .value(payload.len() as u64),
        );
        let packet = IpPacket {
            src: self.local.host,
            dst: self.remote.host,
            tcp: TcpSegment {
                src_port: self.local.port,
                dst_port: self.remote.port,
                seq,
                ack,
                flags: flags | TcpFlags::ACK,
                wnd,
                payload,
            },
        };
        self.device.send(ctx, self.remote.host, packet.encode());
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
        let packet = IpPacket {
            src: self.local.host,
            dst: self.remote.host,
            tcp: TcpSegment {
                src_port: self.local.port,
                dst_port: self.remote.port,
                seq: 0,
                ack: 0,
                flags: TcpFlags::SYN,
                wnd: self.rcv_cap.load(Ordering::Relaxed) as u32,
                payload: Payload::empty(),
            },
        };
        self.device.send(ctx, self.remote.host, packet.encode());
        self.arm_rto();
    }

    pub(crate) fn send_syn_ack(&self, ctx: &SimCtx) {
        self.emit(ctx, 0, TcpFlags::SYN, Payload::empty());
    }

    // ----- the transmit engine ---------------------------------------------

    fn tx_engine(self: &Arc<Self>, ctx: &SimCtx) {
        loop {
            if *self.state.lock() == TcpState::Closed {
                return;
            }
            enum Job {
                Data { seq: u32, payload: Payload },
                Fin { seq: u32 },
                PureAck,
                Idle,
            }
            let job = {
                let established = *self.state.lock() == TcpState::Established;
                let mut snd = self.snd.lock();
                if !established {
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
                    let nagle_holds = self.nagle.load(Ordering::Relaxed)
                        && seg > 0
                        && (seg as usize) < self.mss
                        && small_unacked
                        && seg == avail; // only the true tail is held
                    if seg > 0 && !nagle_holds {
                        let start = seq_diff(snd.nxt, snd.una) as usize;
                        // The one sender-side packet allocation: segment
                        // bytes leave the socket buffer into a shared
                        // Payload that no later layer copies.
                        let payload = Payload::new(
                            snd.buf.iter().skip(start).take(seg as usize).copied().collect(),
                        );
                        let seq = snd.nxt;
                        snd.nxt = snd.nxt.wrapping_add(seg);
                        if seq_diff(snd.nxt, snd.high) < 1 << 31 && snd.nxt != snd.high {
                            snd.high = snd.nxt;
                        }
                        if (seg as usize) < self.mss {
                            snd.small_limit = snd.nxt;
                        }
                        Job::Data { seq, payload }
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
                    } else if self.rcv.lock().ack_now {
                        Job::PureAck
                    } else {
                        Job::Idle
                    }
                }
            };
            match job {
                Job::Data { seq, payload } => {
                    self.emit(ctx, seq, TcpFlags::PSH, payload);
                    self.arm_rto();
                }
                Job::Fin { seq } => {
                    self.emit(ctx, seq, TcpFlags::FIN, Payload::empty());
                    self.arm_rto();
                }
                Job::PureAck => {
                    // Read nxt into a local: emit() advances virtual time
                    // and must never run under the snd lock.
                    let seq = self.snd.lock().nxt;
                    self.emit(ctx, seq, TcpFlags::empty(), Payload::empty());
                }
                Job::Idle => {
                    self.cv_tx.wait(ctx);
                }
            }
        }
    }

    // ----- timers ------------------------------------------------------------

    fn arm_rto(&self) {
        let gen = {
            let mut snd = self.snd.lock();
            snd.rto_gen += 1;
            snd.rto_armed = true;
            snd.rto_gen
        };
        let q = Arc::clone(&self.timer_q);
        let me = self.self_arc();
        self.sim.schedule_in(self.costs.rto, move |_| {
            q.push(TimerEvent::Rto(me, gen));
        });
    }

    /// `Arc<Self>` recovery for timer closures: the stack keeps connections
    /// in its table, and hands us a weak handle at creation time.
    fn self_arc(&self) -> Arc<Tcb> {
        self.self_ref
            .lock()
            .as_ref()
            .and_then(|w| w.upgrade())
            .expect("TCB self reference not set")
    }

    pub(crate) fn handle_rto(self: &Arc<Self>, ctx: &SimCtx, gen: u64) {
        // A lost SYN never shows up as rewindable data (the engine only
        // runs once established): retransmit the handshake segment itself.
        if *self.state.lock() == TcpState::SynSent {
            let give_up = {
                let mut snd = self.snd.lock();
                if snd.rto_gen != gen || !snd.rto_armed {
                    return;
                }
                snd.rto_retries += 1;
                snd.rto_retries > MAX_RTO_RETRIES
            };
            if give_up {
                self.do_reset();
            } else {
                self.send_syn(ctx); // re-arms the RTO
            }
            return;
        }
        enum Rto {
            Stale,
            Retransmit,
            GiveUp,
        }
        let action = {
            let mut snd = self.snd.lock();
            if snd.rto_gen != gen || !snd.rto_armed {
                Rto::Stale
            } else if seq_diff(snd.nxt, snd.una) > 0 {
                snd.rto_retries += 1;
                if snd.rto_retries > MAX_RTO_RETRIES {
                    Rto::GiveUp
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
            let mut rcv = self.rcv.lock();
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

    fn arm_delayed_ack(&self) {
        let gen = {
            let mut rcv = self.rcv.lock();
            rcv.dack_gen += 1;
            rcv.dack_gen
        };
        let q = Arc::clone(&self.timer_q);
        let me = self.self_arc();
        self.sim.schedule_in(self.costs.delayed_ack, move |_| {
            q.push(TimerEvent::DelayedAck(me, gen));
        });
    }

    // ----- the receive path (device service thread) -------------------------

    pub(crate) fn on_segment(self: &Arc<Self>, ctx: &SimCtx, seg: TcpSegment) {
        self.kcpu.charge(
            ctx,
            dsim::TraceLayer::Kernel,
            dsim::TraceKind::RxSegment,
            self.costs.rx_segment + self.costs.ip + self.costs.checksum(seg.payload.len()),
            dsim::TraceTag::on_conn(self.local.port as u32)
                .msg(seg.seq as u64)
                .value(seg.payload.len() as u64),
        );
        if seg.flags.contains(TcpFlags::RST) {
            self.do_reset();
            return;
        }
        let state = *self.state.lock();
        match state {
            TcpState::SynSent => {
                if seg.flags.contains(TcpFlags::SYN) && seg.flags.contains(TcpFlags::ACK) {
                    {
                        let mut snd = self.snd.lock();
                        snd.peer_wnd = seg.wnd;
                        snd.rto_retries = 0;
                        snd.rto_armed = false;
                    }
                    *self.state.lock() = TcpState::Established;
                    // The handshake ACK.
                    self.rcv.lock().ack_now = true;
                    self.cv_est.notify_all();
                    self.cv_tx.notify_all();
                }
            }
            TcpState::SynRcvd => {
                if seg.flags.contains(TcpFlags::SYN) && !seg.flags.contains(TcpFlags::ACK) {
                    // Duplicate SYN: our SYN-ACK was lost and the client
                    // retransmitted. Answer again.
                    self.send_syn_ack(ctx);
                } else if seg.flags.contains(TcpFlags::ACK) && !seg.flags.contains(TcpFlags::SYN) {
                    {
                        let mut snd = self.snd.lock();
                        snd.peer_wnd = seg.wnd;
                    }
                    *self.state.lock() = TcpState::Established;
                    self.cv_est.notify_all();
                    // Fall through to normal processing of any payload.
                    self.process_established(ctx, seg);
                }
            }
            TcpState::Established => self.process_established(ctx, seg),
            TcpState::Closed => {}
        }
    }

    fn process_established(self: &Arc<Self>, ctx: &SimCtx, seg: TcpSegment) {
        let mut wake_send = false;
        // Window/ack news always interests the tx engine.
        let wake_tx = true;
        let mut wake_recv = false;
        let mut check_closed = false;
        // --- ACK side ---
        {
            let mut snd = self.snd.lock();
            snd.peer_wnd = seg.wnd;
            if seg.flags.contains(TcpFlags::ACK) {
                let acked = seq_diff(seg.ack, snd.una);
                // Validity is judged against the highest sequence ever
                // sent, not the (possibly rewound) nxt.
                let outstanding = seq_diff(snd.high, snd.una);
                if acked > 0 && acked <= outstanding {
                    let fin_in_window = snd.fin_sent && seg.ack == snd.high;
                    let data_acked = if fin_in_window { acked - 1 } else { acked };
                    for _ in 0..data_acked {
                        snd.buf.pop_front();
                    }
                    snd.una = seg.ack;
                    // If the cumulative ACK overtook a rewound nxt, the
                    // covered data needs no retransmission.
                    if seq_diff(snd.una, snd.nxt) > 0 && seq_diff(snd.una, snd.nxt) < 1 << 31 {
                        snd.nxt = snd.una;
                    }
                    if fin_in_window {
                        snd.fin_acked = true;
                        check_closed = true;
                    }
                    snd.rto_retries = 0;
                    // Slow-start growth, capped generously (no losses on
                    // the SAN; it simply ramps and saturates).
                    snd.cwnd = (snd.cwnd + self.mss as u32).min(1 << 20);
                    if seq_diff(snd.nxt, snd.una) > 0 {
                        drop(snd);
                        self.arm_rto();
                    } else {
                        snd.rto_armed = false;
                        drop(snd);
                    }
                    wake_send = true;
                }
            }
        }
        // --- data side ---
        let payload_len = seg.payload.len();
        if payload_len > 0 {
            let mut rcv = self.rcv.lock();
            if seg.seq == rcv.nxt {
                let room = self
                    .rcv_cap
                    .load(Ordering::Relaxed)
                    .saturating_sub(rcv.buf.len());
                let take = payload_len.min(room);
                // Queue a window of the wire bytes — no copy until recv().
                rcv.buf.push(seg.payload.slice(..take));
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
                    drop(rcv);
                    self.arm_delayed_ack();
                }
                wake_recv = true;
            } else {
                // Out of order / duplicate: dup-ACK so the sender rewinds.
                rcv.ack_now = true;
            }
        }
        // --- FIN ---
        if seg.flags.contains(TcpFlags::FIN) {
            let mut rcv = self.rcv.lock();
            let fin_seq = seg.seq.wrapping_add(payload_len as u32);
            if fin_seq == rcv.nxt && !rcv.fin_rcvd {
                rcv.fin_rcvd = true;
                rcv.nxt = rcv.nxt.wrapping_add(1);
                rcv.ack_now = true;
                wake_recv = true;
                check_closed = true;
            }
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
        if wake_tx {
            self.cv_tx.notify_all();
        }
    }

    fn maybe_fully_closed(self: &Arc<Self>, ctx: &SimCtx) {
        let done = {
            let snd = self.snd.lock();
            let rcv = self.rcv.lock();
            snd.fin_acked && rcv.fin_rcvd
        };
        if done {
            // LAST_ACK duty: the peer's FIN must be acknowledged before
            // this TCB disappears, or the peer retransmits it forever.
            let need_final_ack = self.rcv.lock().ack_now;
            if need_final_ack {
                let seq = self.snd.lock().nxt;
                self.emit(ctx, seq, TcpFlags::empty(), Payload::empty());
            }
            let mut st = self.state.lock();
            if *st != TcpState::Closed {
                *st = TcpState::Closed;
                drop(st);
                if let Some(f) = self.on_closed.lock().take() {
                    f();
                }
                self.cv_tx.notify_all();
                self.cv_recv.notify_all();
                self.cv_send.notify_all();
            }
        }
    }

    fn do_reset(self: &Arc<Self>) {
        self.reset.store(true, Ordering::Relaxed);
        *self.state.lock() = TcpState::Closed;
        if let Some(f) = self.on_closed.lock().take() {
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
            if self.reset.load(Ordering::Relaxed) {
                return Err(SockError::ConnectionRefused);
            }
            match *self.state.lock() {
                TcpState::Established => return Ok(()),
                TcpState::Closed => return Err(SockError::ConnectionRefused),
                _ => {}
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
            if self.reset.load(Ordering::Relaxed) {
                return Err(SockError::ConnectionReset);
            }
            {
                let st = *self.state.lock();
                if st == TcpState::Closed {
                    return Err(SockError::Closed);
                }
            }
            let took = {
                let mut snd = self.snd.lock();
                if snd.fin_queued {
                    return Err(SockError::Closed);
                }
                let room = self
                    .snd_cap
                    .load(Ordering::Relaxed)
                    .saturating_sub(snd.buf.len());
                let n = room.min(data.len() - written);
                snd.buf.extend(&data[written..written + n]);
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
                let mut rcv = self.rcv.lock();
                if !rcv.buf.is_empty() {
                    let out = rcv.buf.pop_into_vec(max);
                    let reopened = std::mem::take(&mut rcv.window_was_closed);
                    if reopened {
                        rcv.ack_now = true;
                    }
                    (Some(out), reopened)
                } else if rcv.fin_rcvd {
                    return Ok(Vec::new());
                } else {
                    (None, false)
                }
            };
            if let Some(out) = out {
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
            if self.reset.load(Ordering::Relaxed) {
                return Err(SockError::ConnectionReset);
            }
            if *self.state.lock() == TcpState::Closed {
                return Ok(Vec::new());
            }
            self.cv_recv.wait(ctx);
        }
    }

    /// Queue a FIN after all buffered data; returns immediately (the
    /// kernel keeps flushing in the background).
    pub fn close(&self, _ctx: &SimCtx) {
        {
            let mut snd = self.snd.lock();
            if snd.fin_queued {
                return;
            }
            snd.fin_queued = true;
        }
        self.cv_tx.notify_all();
    }

    /// Full close (the `close()` syscall, as opposed to `SHUT_WR`): closing
    /// with unread received data aborts with RST — BSD semantics — so the
    /// peer sees a reset rather than a clean EOF it could mistake for
    /// complete delivery.
    pub fn close_full(self: &Arc<Self>, ctx: &SimCtx) {
        let unread = !self.rcv.lock().buf.is_empty();
        if unread
            && !self.reset.load(Ordering::Relaxed)
            && *self.state.lock() != TcpState::Closed
        {
            let seq = self.snd.lock().nxt;
            self.emit(ctx, seq, TcpFlags::RST.union(TcpFlags::ACK), Payload::empty());
            self.do_reset();
            return;
        }
        self.close(ctx);
    }
}

// Self-reference plumbing: the stack sets this right after creation so
// timer closures can recover an Arc.
impl Tcb {
    pub(crate) fn install_self_ref(me: &Arc<Tcb>) {
        *me.self_ref.lock() = Some(Arc::downgrade(me));
    }
}
