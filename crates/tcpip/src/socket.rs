//! The `SOCK_STREAM` socket object over the kernel TCP stack.
//!
//! Every operation pays the syscall crossing — this is the kernel-resident
//! path whose overheads (Figure 2(a)/(b)) SOVIA exists to avoid.

use std::sync::Arc;

use dsim::SimCtx;
use parking_lot::Mutex;
use simos::{KernelCpu, Process};
use sockets::{Shutdown, SockAddr, SockError, SockOption, SockResult, Socket, SocketProvider};

use crate::stack::TcpStack;
use crate::tcb::Tcb;

enum State {
    Fresh,
    Bound(SockAddr),
    Listening {
        addr: SockAddr,
        backlog: Arc<dsim::sync::SimQueue<Arc<Tcb>>>,
    },
    Connected(Arc<Tcb>),
    Closed,
}

/// A TCP socket.
pub struct TcpSocket {
    stack: Arc<TcpStack>,
    process: Process,
    state: Mutex<State>,
    /// Options set before connect are applied to the TCB afterwards.
    pending_opts: Mutex<Vec<SockOption>>,
}

impl TcpSocket {
    fn syscall(&self, ctx: &SimCtx) {
        KernelCpu::of(self.process.machine()).charge(
            ctx,
            dsim::TraceLayer::Socket,
            dsim::TraceKind::Syscall,
            self.process.costs().syscall,
            dsim::TraceTag::default(),
        );
    }

    fn tcb(&self) -> SockResult<Arc<Tcb>> {
        match &*self.state.lock() {
            State::Connected(t) => Ok(Arc::clone(t)),
            State::Closed => Err(SockError::Closed),
            _ => Err(SockError::NotConnected),
        }
    }

    fn apply_opt(tcb: &Tcb, opt: SockOption) {
        match opt {
            SockOption::NoDelay(on) => tcb.set_nodelay(on),
            SockOption::SendBuf(n) => tcb.set_sndbuf(n),
            SockOption::RecvBuf(n) => tcb.set_rcvbuf(n),
        }
    }
}

impl Socket for TcpSocket {
    fn bind(&self, ctx: &SimCtx, addr: SockAddr) -> SockResult<()> {
        self.syscall(ctx);
        let mut st = self.state.lock();
        match &*st {
            State::Fresh => {
                *st = State::Bound(addr);
                Ok(())
            }
            _ => Err(SockError::InvalidState),
        }
    }

    fn listen(&self, ctx: &SimCtx, _backlog: usize) -> SockResult<()> {
        self.syscall(ctx);
        let mut st = self.state.lock();
        let addr = match &*st {
            State::Bound(a) => *a,
            _ => return Err(SockError::InvalidState),
        };
        let backlog = self.stack.listen(addr.port)?;
        *st = State::Listening { addr, backlog };
        Ok(())
    }

    fn accept(&self, ctx: &SimCtx) -> SockResult<(Arc<dyn Socket>, SockAddr)> {
        self.syscall(ctx);
        let backlog = match &*self.state.lock() {
            State::Listening { backlog, .. } => Arc::clone(backlog),
            State::Closed => return Err(SockError::Closed),
            _ => return Err(SockError::InvalidState),
        };
        let tcb = backlog.pop(ctx);
        ctx.charge(
            dsim::TraceLayer::Kernel,
            dsim::TraceKind::ContextSwitch,
            self.process.costs().context_switch,
            dsim::TraceTag::default(),
        );
        tcb.wait_established(ctx)?;
        let peer = tcb.remote;
        let sock: Arc<dyn Socket> = Arc::new(TcpSocket {
            stack: Arc::clone(&self.stack),
            process: self.process.clone(),
            state: Mutex::new(State::Connected(tcb)),
            pending_opts: Mutex::new(Vec::new()),
        });
        Ok((sock, peer))
    }

    fn connect(&self, ctx: &SimCtx, addr: SockAddr) -> SockResult<()> {
        self.syscall(ctx);
        {
            let st = self.state.lock();
            match &*st {
                State::Fresh | State::Bound(_) => {}
                _ => return Err(SockError::InvalidState),
            }
        }
        let local_port = match &*self.state.lock() {
            State::Bound(a) => Some(a.port),
            _ => None,
        };
        let tcb = self.stack.connect(ctx, addr, local_port)?;
        for opt in self.pending_opts.lock().drain(..) {
            Self::apply_opt(&tcb, opt);
        }
        *self.state.lock() = State::Connected(tcb);
        Ok(())
    }

    fn send(&self, ctx: &SimCtx, data: &[u8]) -> SockResult<usize> {
        self.syscall(ctx);
        self.tcb()?.send(ctx, data)
    }

    fn recv(&self, ctx: &SimCtx, max: usize) -> SockResult<Vec<u8>> {
        self.syscall(ctx);
        self.tcb()?.recv(ctx, max)
    }

    fn shutdown(&self, ctx: &SimCtx, how: Shutdown) -> SockResult<()> {
        self.syscall(ctx);
        match how {
            Shutdown::Write => {
                // Queue the FIN; the socket keeps receiving until the
                // peer's own FIN arrives.
                self.tcb()?.close(ctx);
                Ok(())
            }
        }
    }

    fn close(&self, ctx: &SimCtx) -> SockResult<()> {
        self.syscall(ctx);
        let prev = std::mem::replace(&mut *self.state.lock(), State::Closed);
        match prev {
            State::Connected(tcb) => {
                tcb.close_full(ctx);
                Ok(())
            }
            State::Listening { addr, .. } => {
                self.stack.unlisten(addr.port);
                Ok(())
            }
            _ => Ok(()),
        }
    }

    fn set_option(&self, ctx: &SimCtx, opt: SockOption) -> SockResult<()> {
        self.syscall(ctx);
        match &*self.state.lock() {
            State::Connected(tcb) => {
                Self::apply_opt(tcb, opt);
                Ok(())
            }
            State::Closed => Err(SockError::Closed),
            _ => {
                self.pending_opts.lock().push(opt);
                Ok(())
            }
        }
    }

    fn local_addr(&self) -> Option<SockAddr> {
        match &*self.state.lock() {
            State::Bound(a) => Some(*a),
            State::Listening { addr, .. } => Some(*addr),
            State::Connected(t) => Some(t.local),
            _ => None,
        }
    }

    fn peer_addr(&self) -> Option<SockAddr> {
        match &*self.state.lock() {
            State::Connected(t) => Some(t.remote),
            _ => None,
        }
    }

    fn as_any(self: Arc<Self>) -> Arc<dyn std::any::Any + Send + Sync> {
        self
    }
}

/// The `SOCK_STREAM` provider.
pub struct TcpProvider;

impl TcpProvider {
    /// Register the machine's installed [`TcpStack`] as the stream
    /// provider.
    pub fn register(machine: &simos::Machine) {
        sockets::ProviderRegistry::of(machine)
            .register(sockets::SockType::Stream, Arc::new(TcpProvider));
    }
}

impl SocketProvider for TcpProvider {
    fn create(&self, _ctx: &SimCtx, process: &Process) -> SockResult<Arc<dyn Socket>> {
        let stack = TcpStack::of(process.machine());
        Ok(Arc::new(TcpSocket {
            stack,
            process: process.clone(),
            state: Mutex::new(State::Fresh),
            pending_opts: Mutex::new(Vec::new()),
        }))
    }
}
