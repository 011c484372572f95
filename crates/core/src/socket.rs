//! The `SOCK_VIA` socket object and the connection thread.
//!
//! Maps the Sockets connection model onto VIA's (Section 4.1): `listen()`
//! spawns a *connection thread* that sits in `VipConnectWait`, accepts
//! each request (`VipConnectAccept`), builds the SOVIA connection, and
//! queues it for `accept()` — so a client's `connect()` completes even if
//! the server application has not reached `accept()` yet.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use dsim::sync::SimQueue;
use dsim::SimCtx;
use parking_lot::Mutex;
use simos::Process;
use sockets::{Shutdown, SockAddr, SockError, SockOption, SockResult, Socket, SocketProvider};
use via::{ViAttributes, ViaNicId};

use crate::config::SoviaConfig;
use crate::conn::{ConnStats, SovConn};
use crate::library::SoviaLib;

/// VIA connection discriminator namespace for SOVIA ports ("SV").
fn discriminator(port: u16) -> u64 {
    0x5356_0000_u64 | u64::from(port)
}

/// Host → NIC address convention used by the testbed builders: NIC `n` is
/// attached to host `n`.
pub fn nic_of_host(host: simos::HostId) -> ViaNicId {
    ViaNicId(host.0)
}

enum State {
    Fresh,
    Bound(SockAddr),
    Listening {
        addr: SockAddr,
        accept_q: Arc<SimQueue<Arc<SovConn>>>,
    },
    /// The connection itself sits in [`SovSocket::conn`].
    Connected,
    Closed,
}

/// A SOVIA socket (`SOCK_VIA`).
pub struct SovSocket {
    lib: Arc<SoviaLib>,
    state: Mutex<State>,
    /// Set once, when the socket connects or is accepted: `send` and
    /// `recv` reach the connection here without locking `state`.
    conn: OnceLock<Arc<SovConn>>,
    nodelay: AtomicBool,
}

impl SovSocket {
    fn new(lib: Arc<SoviaLib>) -> Arc<SovSocket> {
        lib.socket_opened();
        Arc::new(SovSocket {
            lib,
            state: Mutex::new(State::Fresh),
            conn: OnceLock::new(),
            nodelay: AtomicBool::new(false),
        })
    }

    fn connected(lib: Arc<SoviaLib>, conn: Arc<SovConn>) -> Arc<SovSocket> {
        lib.socket_opened();
        Arc::new(SovSocket {
            lib,
            state: Mutex::new(State::Connected),
            conn: OnceLock::from(conn),
            nodelay: AtomicBool::new(false),
        })
    }

    /// The connection of a connected socket that is still open. Closing
    /// the socket closes its connection first thing, so the connection's
    /// own flag answers for both.
    fn conn(&self) -> SockResult<&Arc<SovConn>> {
        match self.any_conn()? {
            c if c.is_closed(&self.lib) => Err(SockError::Closed),
            c => Ok(c),
        }
    }

    /// The connection of a connected socket, open or closed: `send` and
    /// `recv` leave the closed check to the connection.
    fn any_conn(&self) -> SockResult<&Arc<SovConn>> {
        match self.conn.get() {
            Some(c) => Ok(c),
            None => match *self.state.lock() {
                State::Closed => Err(SockError::Closed),
                _ => Err(SockError::NotConnected),
            },
        }
    }

    /// The underlying connection (tests/diagnostics).
    pub fn connection(&self) -> Option<Arc<SovConn>> {
        self.conn().ok().cloned()
    }

    /// The connection's protocol counters, also after the socket closed
    /// (tests/diagnostics).
    pub fn stats(&self) -> Option<ConnStats> {
        self.conn.get().map(|c| c.stats(&self.lib))
    }
}

impl Socket for SovSocket {
    fn bind(&self, _ctx: &SimCtx, addr: SockAddr) -> SockResult<()> {
        let mut st = self.state.lock();
        match &*st {
            State::Fresh => {
                *st = State::Bound(addr);
                Ok(())
            }
            _ => Err(SockError::InvalidState),
        }
    }

    fn listen(&self, _ctx: &SimCtx, _backlog: usize) -> SockResult<()> {
        let mut st = self.state.lock();
        let addr = match &*st {
            State::Bound(a) => *a,
            _ => return Err(SockError::InvalidState),
        };
        let accept_q: Arc<SimQueue<Arc<SovConn>>> = SimQueue::new(self.lib.sim());
        // Register the VIA listener *before* the connection thread runs so
        // an immediate client request is never refused. The thread pops
        // this queue directly; after unlisten() it idles until teardown.
        let Some(pending_q) = self.lib.nic().listen_exclusive(discriminator(addr.port)) else {
            return Err(SockError::AddrInUse);
        };
        {
            let lib = Arc::clone(&self.lib);
            let q = Arc::clone(&accept_q);
            // The connection thread of Figure 3(a).
            self.lib.sim().spawn_daemon(
                format!("{}:{}", lib.daemon_name("conn"), addr.port),
                move |tctx| {
                    connection_thread(&lib, tctx, addr, pending_q, q);
                },
            );
        }
        *st = State::Listening { addr, accept_q };
        Ok(())
    }

    fn accept(&self, ctx: &SimCtx) -> SockResult<(Arc<dyn Socket>, SockAddr)> {
        let accept_q = match &*self.state.lock() {
            State::Listening { accept_q, .. } => Arc::clone(accept_q),
            State::Closed => return Err(SockError::Closed),
            _ => return Err(SockError::InvalidState),
        };
        // Entering a blocking call flushes pending combined data on every
        // connection (flush condition 4, library-wide).
        self.lib.flush_combines_except(ctx, None);
        // Service the library while waiting (single-threaded mode keeps
        // all protocol progress on application threads).
        let conn = loop {
            match accept_q.try_pop() {
                Some(c) => break c,
                None => self.lib.wait_progress(ctx),
            }
        };
        // Wait for the peer's WAKEUP so the peer address is known. A
        // connection that breaks first (say, its WAKEUP was lost and the
        // reliable VI tore down) surfaces as a typed error, like BSD's
        // ECONNABORTED — the peer may believe it connected and never
        // retry, so silently waiting again would hang forever.
        let peer = loop {
            match conn.woken_peer(&self.lib) {
                Ok(Some(peer)) => break peer,
                Ok(None) => self.lib.wait_progress(ctx),
                Err(_) => {
                    self.lib.abandon_conn(conn.vi_id());
                    return Err(SockError::ConnectionReset);
                }
            }
        };
        let sock = SovSocket::connected(Arc::clone(&self.lib), conn);
        Ok((sock, peer))
    }

    fn connect(&self, ctx: &SimCtx, addr: SockAddr) -> SockResult<()> {
        {
            let st = self.state.lock();
            match &*st {
                State::Fresh | State::Bound(_) => {}
                _ => return Err(SockError::InvalidState),
            }
        }
        let lib = &self.lib;
        let local = SockAddr::new(lib.process().machine().id(), lib.alloc_port());
        // Reliable delivery (Section 4): SOVIA's credit scheme guarantees a
        // pre-posted descriptor for every arrival, and reliability makes
        // wire-level loss break the connection instead of silently stalling.
        let vi = lib.nic().create_vi(ViAttributes {
            reliability: Some(via::Reliability::ReliableDelivery),
            recv_cq: Some(Arc::clone(lib.cq())),
            ..Default::default()
        });
        let conn = SovConn::new(ctx, lib, Arc::clone(&vi), local);
        // Register before the request: the server's WAKEUP may arrive the
        // instant the accept completes.
        lib.insert_conn(Arc::clone(&conn), Some(addr));
        let (nic, disc) = (nic_of_host(addr.host), discriminator(addr.port));
        if let Err(e) = lib.nic().connect_request(ctx, &vi, nic, disc) {
            lib.abandon_conn(vi.id());
            return Err(match e {
                via::VipError::ConnectionRefused => SockError::ConnectionRefused,
                _ => SockError::ConnectionReset,
            });
        }
        conn.send_wakeup(ctx, lib, lib.alloc_sockdes())?;
        let _ = self.conn.set(conn);
        *self.state.lock() = State::Connected;
        Ok(())
    }

    fn send(&self, ctx: &SimCtx, data: &[u8]) -> SockResult<usize> {
        let nodelay = || self.nodelay.load(Ordering::Relaxed);
        self.any_conn()?.send(ctx, &self.lib, data, nodelay)
    }

    fn recv(&self, ctx: &SimCtx, max: usize) -> SockResult<Vec<u8>> {
        self.any_conn()?.recv(ctx, &self.lib, max)
    }

    fn shutdown(&self, ctx: &SimCtx, how: Shutdown) -> SockResult<()> {
        match how {
            Shutdown::Write => {
                let conn = self.conn()?;
                conn.shutdown_write(ctx, &self.lib)
            }
        }
    }

    fn close(&self, ctx: &SimCtx) -> SockResult<()> {
        let prev = {
            let mut st = self.state.lock();
            std::mem::replace(&mut *st, State::Closed)
        };
        match (prev, self.conn.get()) {
            (State::Connected, Some(conn)) => {
                let r = conn.close(ctx, &self.lib);
                self.lib.socket_closed();
                r
            }
            (State::Listening { addr, .. }, _) => {
                // Stop accepting; the parked connection thread is reaped at
                // simulation teardown.
                self.lib.nic().unlisten(discriminator(addr.port));
                self.lib.socket_closed();
                Ok(())
            }
            (State::Closed, _) => Ok(()),
            _ => {
                self.lib.socket_closed();
                Ok(())
            }
        }
    }

    fn set_option(&self, ctx: &SimCtx, opt: SockOption) -> SockResult<()> {
        match opt {
            SockOption::NoDelay(on) => {
                self.nodelay.store(on, Ordering::Relaxed);
                if on {
                    // Like TCP_NODELAY: flush anything already combined.
                    if let Ok(conn) = self.conn() {
                        conn.flush_combine(ctx, &self.lib)?;
                    }
                }
                Ok(())
            }
            // Buffer sizing is fixed by the window/chunk configuration.
            SockOption::SendBuf(_) | SockOption::RecvBuf(_) => Ok(()),
        }
    }

    fn local_addr(&self) -> Option<SockAddr> {
        match &*self.state.lock() {
            State::Bound(a) => Some(*a),
            State::Listening { addr, .. } => Some(*addr),
            State::Connected => self.conn.get().map(|c| c.local_addr()),
            _ => None,
        }
    }

    fn peer_addr(&self) -> Option<SockAddr> {
        self.conn().ok()?.peer_addr(&self.lib)
    }

    fn as_any(self: Arc<Self>) -> Arc<dyn std::any::Any + Send + Sync> {
        self
    }
}

/// The per-port connection thread: accept VIA requests behind the
/// application's back.
fn connection_thread(
    lib: &Arc<SoviaLib>,
    ctx: &SimCtx,
    addr: SockAddr,
    pending_q: Arc<SimQueue<via::PendingConn>>,
    accept_q: Arc<SimQueue<Arc<SovConn>>>,
) {
    // VipConnectWait: block for a request, pay the kernel wakeup.
    while let Ok(pending) = pending_q.pop_idle(ctx) {
        ctx.charge(
            dsim::TraceLayer::Sovia,
            dsim::TraceKind::ContextSwitch,
            lib.process().costs().context_switch,
            dsim::TraceTag::default(),
        );
        let vi = lib.nic().create_vi(ViAttributes {
            reliability: Some(via::Reliability::ReliableDelivery),
            recv_cq: Some(Arc::clone(lib.cq())),
            ..Default::default()
        });
        // Build first (pre-posts all descriptors), then accept.
        let conn = SovConn::new(ctx, lib, Arc::clone(&vi), addr);
        let sockdes = lib.alloc_sockdes();
        lib.insert_conn(Arc::clone(&conn), None);
        if lib.nic().connect_accept(ctx, &pending, &vi).is_err() {
            lib.abandon_conn(vi.id());
            continue;
        }
        if conn.send_wakeup(ctx, lib, sockdes).is_err() {
            continue;
        }
        accept_q.push(conn);
        lib.notify_progress();
    }
}

/// The `SOCK_VIA` provider registered on a machine.
pub struct SoviaProvider {
    config: SoviaConfig,
}

impl SoviaProvider {
    /// Create a provider with the given SOVIA configuration.
    pub fn new(config: SoviaConfig) -> Arc<SoviaProvider> {
        Arc::new(SoviaProvider { config })
    }
}

impl SocketProvider for SoviaProvider {
    fn create(&self, _ctx: &SimCtx, process: &Process) -> SockResult<Arc<dyn Socket>> {
        let lib = SoviaLib::init(process, self.config.clone())?;
        Ok(SovSocket::new(lib))
    }
}

/// Register SOVIA as the `SOCK_VIA` provider on `machine`.
pub fn register_sovia(machine: &simos::Machine, config: SoviaConfig) {
    sockets::ProviderRegistry::of(machine)
        .register(sockets::SockType::Via, SoviaProvider::new(config));
}
