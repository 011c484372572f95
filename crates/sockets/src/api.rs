//! The Sockets API, dispatched per descriptor.
//!
//! This is the reproduction of the paper's Figure 4: `socket()` with
//! `SOCK_VIA` obtains a *dummy* kernel descriptor and records the SOVIA
//! socket in a per-process table indexed by that descriptor (`sockdes[s]`
//! in the paper), so every call finds its socket with one index; `write`,
//! `read` and `close` check the table first and fall through to the
//! ordinary file-descriptor path otherwise, so TCP sockets, SOVIA sockets,
//! files and pipes all coexist behind plain descriptor numbers.

use std::sync::Arc;

use dsim::SimCtx;
use parking_lot::Mutex;
use simos::{Fd, Process};

use crate::provider::{ProviderRegistry, Socket};
use crate::types::{SockAddr, SockError, SockOption, SockResult, SockType, Shutdown};

/// Per-process socket-descriptor table (the paper's `sockdes[]`): slot
/// `fd` holds the socket behind descriptor `fd`. `simos` hands out the
/// lowest free descriptor, so the table stays as dense as the process's
/// descriptor table and a lookup is one index.
#[derive(Default)]
pub struct SocketTable {
    slots: Mutex<Vec<Option<Arc<dyn Socket>>>>,
}

impl SocketTable {
    /// Fetch (or create) the table of a process.
    pub fn of(process: &Process) -> Arc<SocketTable> {
        process
            .ext()
            .get_or_init(|| Arc::new(SocketTable::default()))
    }

    fn insert(&self, fd: Fd, sock: Arc<dyn Socket>) {
        let i = usize::try_from(fd).expect("the OS hands out non-negative descriptors");
        let mut slots = self.slots.lock();
        if slots.len() <= i {
            slots.resize_with(i + 1, || None);
        }
        slots[i] = Some(sock);
    }

    /// Look up a socket by descriptor.
    pub fn get(&self, fd: Fd) -> Option<Arc<dyn Socket>> {
        self.slots.lock().get(usize::try_from(fd).ok()?)?.clone()
    }

    fn remove(&self, fd: Fd) -> Option<Arc<dyn Socket>> {
        self.slots.lock().get_mut(usize::try_from(fd).ok()?)?.take()
    }

    /// Number of live sockets in this process.
    pub fn len(&self) -> usize {
        self.slots.lock().iter().flatten().count()
    }

    /// Whether the process has no sockets.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// `socket(AF_INET, type, 0)`: create a socket of `stype`, backed by a
/// dummy kernel descriptor.
pub fn socket(ctx: &SimCtx, process: &Process, stype: SockType) -> SockResult<Fd> {
    let registry = ProviderRegistry::of(process.machine());
    let provider = registry.get(stype).ok_or(SockError::NoProvider)?;
    let sock = provider.create(ctx, process)?;
    let fd = process.open_dummy(ctx);
    SocketTable::of(process).insert(fd, sock);
    Ok(fd)
}

fn sock_of(process: &Process, fd: Fd) -> SockResult<Arc<dyn Socket>> {
    SocketTable::of(process).get(fd).ok_or(SockError::BadFd)
}

/// `bind(2)`.
pub fn bind(ctx: &SimCtx, process: &Process, fd: Fd, addr: SockAddr) -> SockResult<()> {
    sock_of(process, fd)?.bind(ctx, addr)
}

/// `listen(2)`.
pub fn listen(ctx: &SimCtx, process: &Process, fd: Fd, backlog: usize) -> SockResult<()> {
    sock_of(process, fd)?.listen(ctx, backlog)
}

/// `accept(2)`: returns a fresh descriptor for the accepted connection,
/// plus the peer address.
pub fn accept(ctx: &SimCtx, process: &Process, fd: Fd) -> SockResult<(Fd, SockAddr)> {
    let (conn, peer) = sock_of(process, fd)?.accept(ctx)?;
    let new_fd = process.open_dummy(ctx);
    SocketTable::of(process).insert(new_fd, conn);
    Ok((new_fd, peer))
}

/// `connect(2)`.
pub fn connect(ctx: &SimCtx, process: &Process, fd: Fd, addr: SockAddr) -> SockResult<()> {
    sock_of(process, fd)?.connect(ctx, addr)
}

/// `send(2)`.
pub fn send(ctx: &SimCtx, process: &Process, fd: Fd, data: &[u8]) -> SockResult<usize> {
    sock_of(process, fd)?.send(ctx, data)
}

/// `recv(2)`: empty vec = orderly EOF.
pub fn recv(ctx: &SimCtx, process: &Process, fd: Fd, max: usize) -> SockResult<Vec<u8>> {
    sock_of(process, fd)?.recv(ctx, max)
}

/// Receive exactly `len` bytes unless EOF interrupts (helper used by the
/// applications; loops over `recv`).
pub fn recv_exact(ctx: &SimCtx, process: &Process, fd: Fd, len: usize) -> SockResult<Vec<u8>> {
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let chunk = recv(ctx, process, fd, len - out.len())?;
        if chunk.is_empty() {
            break;
        }
        out.extend_from_slice(&chunk);
    }
    Ok(out)
}

/// Send the whole buffer (loops over `send`).
pub fn send_all(ctx: &SimCtx, process: &Process, fd: Fd, data: &[u8]) -> SockResult<()> {
    let mut sent = 0;
    while sent < data.len() {
        sent += send(ctx, process, fd, &data[sent..])?;
    }
    Ok(())
}

/// `shutdown(2)`.
pub fn shutdown(ctx: &SimCtx, process: &Process, fd: Fd, how: Shutdown) -> SockResult<()> {
    sock_of(process, fd)?.shutdown(ctx, how)
}

/// `setsockopt(2)`.
pub fn set_option(ctx: &SimCtx, process: &Process, fd: Fd, opt: SockOption) -> SockResult<()> {
    sock_of(process, fd)?.set_option(ctx, opt)
}

/// Peer address of a connected socket.
pub fn peer_addr(process: &Process, fd: Fd) -> SockResult<SockAddr> {
    sock_of(process, fd)?.peer_addr().ok_or(SockError::NotConnected)
}

/// Local address of a bound socket.
pub fn local_addr(process: &Process, fd: Fd) -> SockResult<SockAddr> {
    sock_of(process, fd)?.local_addr().ok_or(SockError::InvalidState)
}

/// `write(2)`: sockets go to the provider, everything else to the OS —
/// the interposition wrapper of Figure 4.
pub fn write(ctx: &SimCtx, process: &Process, fd: Fd, data: &[u8]) -> SockResult<usize> {
    match SocketTable::of(process).get(fd) {
        Some(sock) => sock.send(ctx, data),
        None => Ok(process.write(ctx, fd, data)?),
    }
}

/// `read(2)` with the same dispatch.
pub fn read(ctx: &SimCtx, process: &Process, fd: Fd, max: usize) -> SockResult<Vec<u8>> {
    match SocketTable::of(process).get(fd) {
        Some(sock) => sock.recv(ctx, max),
        None => Ok(process.read(ctx, fd, max)?),
    }
}

/// `close(2)` with the same dispatch: a socket close runs the provider's
/// FIN protocol *and* releases the dummy kernel descriptor.
pub fn close(ctx: &SimCtx, process: &Process, fd: Fd) -> SockResult<()> {
    match SocketTable::of(process).remove(fd) {
        Some(sock) => {
            let r = sock.close(ctx);
            let _ = process.close(ctx, fd);
            r
        }
        None => Ok(process.close(ctx, fd)?),
    }
}
