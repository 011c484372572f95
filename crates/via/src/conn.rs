//! VIA connection management: the kernel-agent side of
//! `VipConnectRequest` / `VipConnectWait` / `VipConnectAccept`.
//!
//! VIA's model differs from sockets in exactly the way Section 4.1 of the
//! paper discusses: the server must be *inside* `VipConnectWait` for a
//! request to be accepted, which is why SOVIA runs a dedicated connection
//! thread per listen port.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dsim::sync::{SimFlag, SimQueue};
use dsim::{SimCtx, SimHandle};
use parking_lot::Mutex;

use crate::error::{VipError, VipResult};
use crate::nic::{MgmtMsg, ViaNic, ViaNicId};
use crate::vi::{Vi, ViState};

/// An incoming connection request delivered to `connect_wait`.
#[derive(Debug, Clone)]
pub struct PendingConn {
    pub(crate) req_id: u64,
    /// The requesting NIC.
    pub from_nic: ViaNicId,
    /// The requesting VI id on that NIC.
    pub from_vi: u32,
    /// The discriminator ("port") the request targeted.
    pub discriminator: u64,
}

struct PendingRequest {
    vi: Arc<Vi>,
    flag: Arc<SimFlag>,
    result: Mutex<Option<VipResult<()>>>,
}

/// Per-NIC kernel agent state for connection management.
pub struct KernelAgent {
    sim: SimHandle,
    listeners: Mutex<HashMap<u64, Arc<SimQueue<PendingConn>>>>,
    pending: Mutex<HashMap<u64, Arc<PendingRequest>>>,
    next_req: AtomicU64,
}

impl KernelAgent {
    pub(crate) fn new(sim: &SimHandle) -> KernelAgent {
        KernelAgent {
            sim: sim.clone(),
            listeners: Mutex::new(HashMap::new()),
            pending: Mutex::new(HashMap::new()),
            next_req: AtomicU64::new(1),
        }
    }

    pub(crate) fn handle_mgmt(nic: &Arc<ViaNic>, _ctx: &SimCtx, msg: MgmtMsg) {
        let agent = &nic.agent;
        match msg {
            MgmtMsg::ConnReq {
                req_id,
                discriminator,
                from_nic,
                from_vi,
            } => {
                let listener = agent.listeners.lock().get(&discriminator).cloned();
                match listener {
                    Some(q) => q.push(PendingConn {
                        req_id,
                        from_nic,
                        from_vi,
                        discriminator,
                    }),
                    None => nic.send_mgmt(from_nic, MgmtMsg::ConnReject { req_id }),
                }
            }
            MgmtMsg::ConnAccept {
                req_id,
                peer_nic,
                peer_vi,
            } => {
                if let Some(req) = agent.pending.lock().remove(&req_id) {
                    req.vi.set_state(ViState::Connected { peer_nic, peer_vi });
                    *req.result.lock() = Some(Ok(()));
                    req.flag.set();
                }
            }
            MgmtMsg::ConnReject { req_id } => {
                if let Some(req) = agent.pending.lock().remove(&req_id) {
                    req.vi.set_state(ViState::Idle);
                    *req.result.lock() = Some(Err(VipError::ConnectionRefused));
                    req.flag.set();
                }
            }
            MgmtMsg::Disconnect { dst_vi } => {
                if let Some(vi) = nic.vi_by_id(dst_vi) {
                    vi.break_with(VipError::Disconnected);
                }
            }
        }
    }
}

impl ViaNic {
    pub(crate) fn vi_by_id(&self, id: u32) -> Option<Arc<Vi>> {
        self.vis_lock().get(&id).cloned()
    }

    /// `VipConnectRequest`: ask `remote` for a connection on
    /// `discriminator`, blocking until accepted or rejected.
    pub fn connect_request(
        self: &Arc<Self>,
        ctx: &SimCtx,
        vi: &Arc<Vi>,
        remote: ViaNicId,
        discriminator: u64,
    ) -> VipResult<()> {
        if vi.state() != ViState::Idle {
            return Err(VipError::InvalidState);
        }
        // Connection management goes through the kernel agent.
        ctx.charge(
            dsim::TraceLayer::Via,
            dsim::TraceKind::Syscall,
            self.machine().costs().syscall,
            dsim::TraceTag::on_conn(vi.id()),
        );
        ctx.trace_instant(
            dsim::TraceLayer::Via,
            dsim::TraceKind::HandshakeReq,
            dsim::TraceTag::on_conn(vi.id()).msg(discriminator),
        );
        vi.set_state(ViState::Connecting);
        let req_id = self.agent.next_req.fetch_add(1, Ordering::Relaxed);
        let req = Arc::new(PendingRequest {
            vi: Arc::clone(vi),
            flag: SimFlag::new(&self.agent.sim),
            result: Mutex::new(None),
        });
        self.agent.pending.lock().insert(req_id, Arc::clone(&req));
        self.send_mgmt(
            remote,
            MgmtMsg::ConnReq {
                req_id,
                discriminator,
                from_nic: self.id(),
                from_vi: vi.id(),
            },
        );
        req.flag.wait(ctx);
        // The requester's wake-up once its request is answered.
        ctx.charge(
            dsim::TraceLayer::Via,
            dsim::TraceKind::ContextSwitch,
            self.machine().costs().context_switch,
            dsim::TraceTag::on_conn(vi.id()),
        );
        let result = req.result.lock().take().expect("flag set without result");
        result
    }

    /// Register a listener for `discriminator` (backing `connect_wait`);
    /// idempotent.
    pub fn listen(&self, discriminator: u64) -> Arc<SimQueue<PendingConn>> {
        Arc::clone(
            self.agent
                .listeners
                .lock()
                .entry(discriminator)
                .or_insert_with(|| SimQueue::new(&self.agent.sim)),
        )
    }

    /// Register a listener only if the discriminator is free; `None` when
    /// someone is already listening (the sockets layer's `EADDRINUSE`).
    pub fn listen_exclusive(&self, discriminator: u64) -> Option<Arc<SimQueue<PendingConn>>> {
        let mut listeners = self.agent.listeners.lock();
        if listeners.contains_key(&discriminator) {
            return None;
        }
        let q = SimQueue::new(&self.agent.sim);
        listeners.insert(discriminator, Arc::clone(&q));
        Some(q)
    }

    /// Stop listening on `discriminator`; subsequent requests are rejected.
    pub fn unlisten(&self, discriminator: u64) {
        self.agent.listeners.lock().remove(&discriminator);
    }

    /// `VipConnectWait`: block until a connection request arrives on
    /// `discriminator`.
    pub fn connect_wait(self: &Arc<Self>, ctx: &SimCtx, discriminator: u64) -> PendingConn {
        let q = self.listen(discriminator);
        let conn = q.pop(ctx);
        ctx.sleep(self.machine().costs().context_switch);
        conn
    }

    /// `VipConnectAccept`: bind the pending request to a local VI and tell
    /// the requester.
    pub fn connect_accept(
        self: &Arc<Self>,
        ctx: &SimCtx,
        pending: &PendingConn,
        vi: &Arc<Vi>,
    ) -> VipResult<()> {
        if vi.state() != ViState::Idle {
            return Err(VipError::InvalidState);
        }
        ctx.charge(
            dsim::TraceLayer::Via,
            dsim::TraceKind::Syscall,
            self.machine().costs().syscall,
            dsim::TraceTag::on_conn(vi.id()),
        );
        ctx.trace_instant(
            dsim::TraceLayer::Via,
            dsim::TraceKind::HandshakeWakeup,
            dsim::TraceTag::on_conn(vi.id()).msg(pending.discriminator),
        );
        vi.set_state(ViState::Connected {
            peer_nic: pending.from_nic,
            peer_vi: pending.from_vi,
        });
        self.send_mgmt(
            pending.from_nic,
            MgmtMsg::ConnAccept {
                req_id: pending.req_id,
                peer_nic: self.id(),
                peer_vi: vi.id(),
            },
        );
        Ok(())
    }

    /// `VipDisconnect`: break the connection on both ends. Pending
    /// descriptors on each side complete in error.
    pub fn disconnect(self: &Arc<Self>, ctx: &SimCtx, vi: &Arc<Vi>) {
        ctx.charge(
            dsim::TraceLayer::Via,
            dsim::TraceKind::Syscall,
            self.machine().costs().syscall,
            dsim::TraceTag::on_conn(vi.id()),
        );
        if let Some((peer_nic, peer_vi)) = vi.peer() {
            self.send_mgmt(peer_nic, MgmtMsg::Disconnect { dst_vi: peer_vi });
        }
        vi.break_with(VipError::Disconnected);
        vi.set_state(ViState::Disconnected);
    }
}
