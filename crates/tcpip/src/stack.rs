//! The per-machine TCP/IP stack: demultiplexing, listeners, port
//! allocation, and the timer service.

use std::collections::BTreeMap;
use std::sync::Arc;

use dsim::sync::SimQueue;
use dsim::{Payload, SimCtx};
use parking_lot::Mutex;
use simos::{HostId, KernelCpu, Machine};
use sockets::{SockAddr, SockError, SockResult};

use crate::costs::TcpCosts;
use crate::device::{IpRxHandler, NetDevice};
use crate::packet::{IpPacket, PacketHeader, TcpFlags};
use crate::tcb::{Tcb, TcpState, TimerEvent};

type ConnKey = (u16, HostId, u16); // (local port, remote host, remote port)

struct Listener {
    backlog: Arc<SimQueue<Arc<Tcb>>>,
}

/// The TCP/IP stack of one machine, bound to one network device.
pub struct TcpStack {
    machine: Machine,
    device: Arc<dyn NetDevice>,
    costs: TcpCosts,
    inner: Mutex<StackState>,
    timer_q: Arc<SimQueue<TimerEvent>>,
}

/// Everything about the stack that changes, under its one lock.
struct StackState {
    conns: BTreeMap<ConnKey, Arc<Tcb>>,
    listeners: BTreeMap<u16, Arc<Listener>>,
    /// Ephemeral local port allocator.
    next_port: u16,
}

impl TcpStack {
    /// Install a stack on `machine` over `device` and start its service
    /// threads. Registers itself in the machine extension map.
    pub fn install(machine: &Machine, device: Arc<dyn NetDevice>, costs: TcpCosts) -> Arc<TcpStack> {
        let sim = machine.sim().clone();
        let stack = Arc::new(TcpStack {
            machine: machine.clone(),
            device: Arc::clone(&device),
            costs,
            inner: Mutex::new(StackState {
                conns: BTreeMap::new(),
                listeners: BTreeMap::new(),
                next_port: 32_768,
            }),
            timer_q: SimQueue::new(&sim),
        });
        machine.ext().insert::<TcpStack>(Arc::clone(&stack));
        // Wire the receive path.
        {
            let rx_stack = Arc::clone(&stack);
            let handler: IpRxHandler = Arc::new(move |ctx, bytes| {
                rx_stack.on_packet(ctx, bytes);
            });
            device.set_rx(handler);
        }
        // Teardown: cut the stack's cycles (device rx handler -> stack,
        // table -> Tcb -> close hook -> stack, timer queue <-> Tcb).
        {
            let weak = Arc::downgrade(&stack);
            sim.on_teardown(move || {
                if let Some(stack) = weak.upgrade() {
                    stack.device.set_rx(Arc::new(|_, _| {}));
                    stack.inner.lock().conns.clear();
                    while stack.timer_q.try_pop().is_some() {}
                }
            });
        }
        // Timer service thread.
        {
            let tstack = Arc::clone(&stack);
            sim.spawn_daemon(format!("tcp-timers-{}", machine.id()), move |ctx| {
                while let Ok(timer) = tstack.timer_q.pop_idle(ctx) {
                    match timer {
                        TimerEvent::Rto(tcb, gen) => tcb.handle_rto(ctx, gen),
                        TimerEvent::DelayedAck(tcb, gen) => tcb.handle_delayed_ack(ctx, gen),
                    }
                }
            });
        }
        stack
    }

    /// Fetch the stack installed on a machine.
    pub fn of(machine: &Machine) -> Arc<TcpStack> {
        machine
            .ext()
            .get::<TcpStack>()
            .expect("no TcpStack installed on this machine")
    }

    fn alloc_port(&self) -> u16 {
        let mut st = self.inner.lock();
        st.next_port = st.next_port.wrapping_add(1).max(32_768);
        st.next_port
    }

    fn new_tcb(&self, local: SockAddr, remote: SockAddr, state: TcpState) -> Arc<Tcb> {
        let tcb = Tcb::new(
            self.machine.sim(),
            local,
            remote,
            Arc::clone(&self.device),
            self.costs.clone(),
            self.machine.costs().clone(),
            KernelCpu::of(&self.machine),
            Arc::clone(&self.timer_q),
            state,
        );
        let key = (local.port, remote.host, remote.port);
        self.inner.lock().conns.insert(key, Arc::clone(&tcb));
        // Drop the table entry once the connection fully closes.
        {
            let stack = self
                .machine
                .ext()
                .get::<TcpStack>()
                .expect("stack registered");
            tcb.set_on_closed(move || {
                stack.inner.lock().conns.remove(&key);
            });
        }
        tcb
    }

    /// Open a listener on `port`. Errors if the port is taken.
    pub fn listen(&self, port: u16) -> SockResult<Arc<SimQueue<Arc<Tcb>>>> {
        let listeners = &mut self.inner.lock().listeners;
        if listeners.contains_key(&port) {
            return Err(SockError::AddrInUse);
        }
        let backlog = SimQueue::new(self.machine.sim());
        listeners.insert(
            port,
            Arc::new(Listener {
                backlog: Arc::clone(&backlog),
            }),
        );
        Ok(backlog)
    }

    /// Close a listener.
    pub fn unlisten(&self, port: u16) {
        self.inner.lock().listeners.remove(&port);
    }

    /// Active connection establishment: SYN → wait for SYN-ACK.
    pub fn connect(&self, ctx: &SimCtx, remote: SockAddr, local_port: Option<u16>) -> SockResult<Arc<Tcb>> {
        let local = SockAddr::new(self.machine.id(), local_port.unwrap_or_else(|| self.alloc_port()));
        let tcb = self.new_tcb(local, remote, TcpState::SynSent);
        tcb.send_syn(ctx);
        tcb.wait_established(ctx)?;
        Ok(tcb)
    }

    /// The device receive path (runs on the device's service thread).
    fn on_packet(self: &Arc<Self>, ctx: &SimCtx, bytes: Payload) {
        let Some(IpPacket { hdr: seg, payload }) = IpPacket::decode(&bytes) else {
            return;
        };
        if seg.dst != self.machine.id() {
            return;
        }
        let src_host = seg.src;
        let key = (seg.dst_port, src_host, seg.src_port);
        let existing = self.inner.lock().conns.get(&key).cloned();
        if let Some(tcb) = existing {
            tcb.on_segment(ctx, seg, payload);
            return;
        }
        // New connection?
        if seg.flags.contains(TcpFlags::SYN) && !seg.flags.contains(TcpFlags::ACK) {
            KernelCpu::of(&self.machine).charge(
                ctx,
                dsim::TraceLayer::Kernel,
                dsim::TraceKind::RxSegment,
                self.costs.rx_segment + self.costs.ip,
                dsim::TraceTag::on_conn(seg.dst_port as u32),
            );
            let listener = self.inner.lock().listeners.get(&seg.dst_port).cloned();
            match listener {
                Some(l) => {
                    let local = SockAddr::new(self.machine.id(), seg.dst_port);
                    let remote = SockAddr::new(src_host, seg.src_port);
                    let tcb = self.new_tcb(local, remote, TcpState::SynRcvd);
                    tcb.send_syn_ack(ctx);
                    // Queue for accept() right away; accept() waits for
                    // establishment before returning the connection.
                    l.backlog.push(tcb);
                }
                None => self.send_rst(ctx, src_host, &seg),
            }
            return;
        }
        // Segment for a dead/unknown connection: reset the sender so a
        // stranded peer learns promptly instead of retransmitting into a
        // void until its retry cap fires. Pure ACKs stay unanswered — the
        // final ACK of an orderly close routinely lands after the TCB has
        // been reaped, and answering it would be noise.
        let pure_ack = payload.is_empty()
            && !seg.flags.contains(TcpFlags::SYN)
            && !seg.flags.contains(TcpFlags::FIN)
            && !seg.flags.contains(TcpFlags::RST);
        if !seg.flags.contains(TcpFlags::RST) && !pure_ack {
            self.send_rst(ctx, src_host, &seg);
        }
    }

    fn send_rst(&self, ctx: &SimCtx, src_host: HostId, seg: &PacketHeader) {
        KernelCpu::of(&self.machine).charge(
            ctx,
            dsim::TraceLayer::Kernel,
            dsim::TraceKind::AckTx,
            self.costs.tx_ack + self.costs.ip,
            dsim::TraceTag::on_conn(seg.dst_port as u32),
        );
        let rst = PacketHeader {
            src: self.machine.id(),
            dst: src_host,
            src_port: seg.dst_port,
            dst_port: seg.src_port,
            seq: 0,
            ack: 0,
            flags: TcpFlags::RST,
            wnd: 0,
        };
        self.device.send(ctx, src_host, rst.encode(PacketHeader::wire_buf(0)));
    }
}
