//! An in-memory loopback transport.
//!
//! Zero-cost, same-machine sockets used by this crate's unit tests (in
//! `lib.rs`) to exercise the API dispatch without bringing up a NIC and a
//! protocol stack. Not registered by default.

use std::collections::BTreeMap;
use std::sync::Arc;

use dsim::sync::SimQueue;
use dsim::{Payload, SimCtx, SimHandle};
use parking_lot::Mutex;
use simos::Process;

use crate::provider::{Socket, SocketProvider};
use crate::types::{SockAddr, SockError, SockOption, SockResult, Shutdown};

/// One direction of a loopback connection. An empty chunk is the EOF
/// sentinel. Chunks are shared buffers: a send allocates once and the
/// receiver reads windows of that allocation.
struct HalfPipe {
    q: Arc<SimQueue<Payload>>,
}

impl HalfPipe {
    fn pair(sim: &SimHandle) -> (HalfPipe, HalfPipe) {
        let q = SimQueue::new(sim);
        (
            HalfPipe { q: Arc::clone(&q) },
            HalfPipe { q },
        )
    }
}

struct Conn {
    tx: Arc<SimQueue<Payload>>,
    rx: Arc<SimQueue<Payload>>,
    /// Unread tail of a chunk larger than the reader's buffer.
    rx_carry: Mutex<Payload>,
    eof: Mutex<bool>,
    peer: SockAddr,
    local: SockAddr,
}

enum Inner {
    Fresh,
    Listening {
        addr: SockAddr,
        backlog: Arc<SimQueue<(Arc<Conn>, SockAddr)>>,
    },
    Connected(Arc<Conn>),
    Closed,
}

/// A loopback socket.
pub struct LoopbackSocket {
    provider: Arc<LoopbackProvider>,
    inner: Mutex<Inner>,
}

/// A listener's backlog of established-but-unaccepted connections.
type Backlog = Arc<SimQueue<(Arc<Conn>, SockAddr)>>;

/// The loopback provider: a port table on one simulation.
pub struct LoopbackProvider {
    sim: SimHandle,
    ports: Mutex<BTreeMap<u16, Backlog>>,
    next_auto_port: Mutex<u16>,
}

impl LoopbackProvider {
    /// Create a provider.
    pub fn new(sim: &SimHandle) -> Arc<LoopbackProvider> {
        Arc::new(LoopbackProvider {
            sim: sim.clone(),
            ports: Mutex::new(BTreeMap::new()),
            next_auto_port: Mutex::new(40_000),
        })
    }
}

/// Provider handing out sockets that share a single port table.
pub struct SharedLoopback {
    inner: Arc<LoopbackProvider>,
}

impl SharedLoopback {
    /// Create a provider whose sockets share one port namespace.
    pub fn new(sim: &SimHandle) -> Arc<SharedLoopback> {
        Arc::new(SharedLoopback {
            inner: LoopbackProvider::new(sim),
        })
    }
}

impl SocketProvider for SharedLoopback {
    fn create(&self, _ctx: &SimCtx, _process: &Process) -> SockResult<Arc<dyn Socket>> {
        Ok(Arc::new(LoopbackSocket {
            provider: Arc::clone(&self.inner),
            inner: Mutex::new(Inner::Fresh),
        }))
    }
}

impl Socket for LoopbackSocket {
    fn bind(&self, _ctx: &SimCtx, addr: SockAddr) -> SockResult<()> {
        let mut inner = self.inner.lock();
        match &*inner {
            Inner::Fresh => {
                *inner = Inner::Listening {
                    addr,
                    backlog: SimQueue::new(&self.provider.sim),
                };
                Ok(())
            }
            _ => Err(SockError::InvalidState),
        }
    }

    fn listen(&self, _ctx: &SimCtx, _backlog: usize) -> SockResult<()> {
        let inner = self.inner.lock();
        match &*inner {
            Inner::Listening { addr, backlog } => {
                let mut ports = self.provider.ports.lock();
                if ports.contains_key(&addr.port) {
                    return Err(SockError::AddrInUse);
                }
                ports.insert(addr.port, Arc::clone(backlog));
                Ok(())
            }
            _ => Err(SockError::InvalidState),
        }
    }

    fn accept(&self, ctx: &SimCtx) -> SockResult<(Arc<dyn Socket>, SockAddr)> {
        let backlog = {
            let inner = self.inner.lock();
            match &*inner {
                Inner::Listening { backlog, .. } => Arc::clone(backlog),
                _ => return Err(SockError::InvalidState),
            }
        };
        let (conn, peer) = backlog.pop(ctx);
        let sock = Arc::new(LoopbackSocket {
            provider: Arc::clone(&self.provider),
            inner: Mutex::new(Inner::Connected(conn)),
        });
        Ok((sock, peer))
    }

    fn connect(&self, _ctx: &SimCtx, addr: SockAddr) -> SockResult<()> {
        let backlog = self
            .provider
            .ports
            .lock()
            .get(&addr.port)
            .cloned()
            .ok_or(SockError::ConnectionRefused)?;
        let (c2s_tx, c2s_rx) = HalfPipe::pair(&self.provider.sim);
        let (s2c_tx, s2c_rx) = HalfPipe::pair(&self.provider.sim);
        let local = {
            let mut p = self.provider.next_auto_port.lock();
            *p += 1;
            SockAddr::new(addr.host, *p)
        };
        let client_conn = Arc::new(Conn {
            tx: c2s_tx.q,
            rx: s2c_rx.q,
            rx_carry: Mutex::new(Payload::empty()),
            eof: Mutex::new(false),
            peer: addr,
            local,
        });
        let server_conn = Arc::new(Conn {
            tx: s2c_tx.q,
            rx: c2s_rx.q,
            rx_carry: Mutex::new(Payload::empty()),
            eof: Mutex::new(false),
            peer: local,
            local: addr,
        });
        backlog.push((server_conn, local));
        *self.inner.lock() = Inner::Connected(client_conn);
        Ok(())
    }

    fn send(&self, _ctx: &SimCtx, data: &[u8]) -> SockResult<usize> {
        let inner = self.inner.lock();
        match &*inner {
            Inner::Connected(c) => {
                if data.is_empty() {
                    return Ok(0);
                }
                // The one sender-side allocation; the receiver reads
                // windows of this buffer without further copies.
                c.tx.push(Payload::copy_from_slice(data));
                Ok(data.len())
            }
            Inner::Closed => Err(SockError::Closed),
            _ => Err(SockError::NotConnected),
        }
    }

    fn recv(&self, ctx: &SimCtx, max: usize) -> SockResult<Vec<u8>> {
        let conn = {
            let inner = self.inner.lock();
            match &*inner {
                Inner::Connected(c) => Arc::clone(c),
                Inner::Closed => return Err(SockError::Closed),
                _ => return Err(SockError::NotConnected),
            }
        };
        // Serve carry-over first.
        {
            let mut carry = conn.rx_carry.lock();
            if !carry.is_empty() {
                let n = max.min(carry.len());
                let out = carry.slice(..n).to_owned_vec();
                *carry = carry.slice(n..);
                return Ok(out);
            }
        }
        if *conn.eof.lock() {
            return Ok(Vec::new());
        }
        let chunk = conn.rx.pop(ctx);
        if chunk.is_empty() {
            *conn.eof.lock() = true;
            return Ok(Vec::new());
        }
        if chunk.len() <= max {
            // Unique full-buffer chunks move straight through.
            Ok(chunk.into_vec())
        } else {
            *conn.rx_carry.lock() = chunk.slice(max..);
            Ok(chunk.slice(..max).to_owned_vec())
        }
    }

    fn shutdown(&self, _ctx: &SimCtx, _how: Shutdown) -> SockResult<()> {
        match &*self.inner.lock() {
            Inner::Connected(c) => {
                c.tx.push(Payload::empty()); // EOF sentinel; receiving continues
                Ok(())
            }
            _ => Err(SockError::NotConnected),
        }
    }

    fn close(&self, _ctx: &SimCtx) -> SockResult<()> {
        let mut inner = self.inner.lock();
        match &*inner {
            Inner::Connected(c) => {
                c.tx.push(Payload::empty()); // EOF sentinel
                *inner = Inner::Closed;
                Ok(())
            }
            Inner::Listening { addr, .. } => {
                self.provider.ports.lock().remove(&addr.port);
                *inner = Inner::Closed;
                Ok(())
            }
            _ => {
                *inner = Inner::Closed;
                Ok(())
            }
        }
    }

    fn set_option(&self, _ctx: &SimCtx, _opt: SockOption) -> SockResult<()> {
        Ok(())
    }

    fn local_addr(&self) -> Option<SockAddr> {
        match &*self.inner.lock() {
            Inner::Listening { addr, .. } => Some(*addr),
            Inner::Connected(c) => Some(c.local),
            _ => None,
        }
    }

    fn peer_addr(&self) -> Option<SockAddr> {
        match &*self.inner.lock() {
            Inner::Connected(c) => Some(c.peer),
            _ => None,
        }
    }

    fn as_any(self: Arc<Self>) -> Arc<dyn std::any::Any + Send + Sync> {
        self
    }
}
