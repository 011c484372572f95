//! The per-process SOVIA library instance.
//!
//! Owns the shared completion queue, every connection's changing state,
//! the dirty list of connections that hold a combine buffer, and the
//! service machinery for both receive modes:
//!
//! * **single-threaded** (SOVIA's design): the application thread itself
//!   services completions inside `send()`/`recv()`/`accept()`, polling the
//!   CQ; a *close thread* takes over only when the application holds no
//!   more open sockets, to drain FIN/FINACK traffic (Section 4.1);
//! * **handler-thread** (the rejected design, kept for the Figure 6
//!   comparison): a dedicated thread blocks on the CQ and signals the
//!   application, paying `thread_wake` on every message.
//!
//! One lock covers everything SOVIA changes in a process: [`LibState`]
//! holds each connection's handle beside its [`ConnState`], so a receive
//! completion is looked up and decoded, and a combine buffer is taken
//! together with its dirty-list entry, in one critical section. Lock
//! order: the library, then a VI (posting and reaping under the guard),
//! then machine memory (a slot store); nothing takes them the other way.

use std::collections::{BTreeMap, BTreeSet};
use std::convert::Infallible;
use std::ops::Bound;
use std::sync::Arc;

use dsim::sync::{SimCondvar, SimQueue};
use dsim::{Shutdown, SimCtx, SimHandle};
use parking_lot::{Mutex, MutexGuard};
use simos::{HostCosts, Process};
use sockets::{SockAddr, SockError, SockResult};
use via::{CompletionQueue, ViaNic, WaitMode};

use crate::config::{ReceiveMode, SoviaConfig, COMBINE_TIMEOUT};
use crate::conn::{Combine, ConnState, SovConn};

/// The SOVIA library state of one process.
pub struct SoviaLib {
    process: Process,
    nic: Arc<ViaNic>,
    config: SoviaConfig,
    costs: HostCosts,
    sim: SimHandle,
    cq: Arc<CompletionQueue>,
    inner: Mutex<LibState>,
    /// Notified whenever anything that could unblock a waiter happened:
    /// a CQ push (single mode), a processed packet, an accept-queue push.
    progress_cv: SimCondvar,
    /// Gate for the close thread.
    activation_cv: SimCondvar,
    /// Combine-timer expirations (VI id, epoch) to be executed with a real
    /// context.
    timer_q: Arc<SimQueue<(u32, u64)>>,
}

/// Everything about the library that changes, under its one lock.
pub(crate) struct LibState {
    /// Each connection by VI id: its handle and its state. An entry stays
    /// until the connection is both torn down and closed by the
    /// application, so a half-closed connection still answers `recv`.
    conns: BTreeMap<u32, Entry>,
    /// The dirty list: VI ids of the connections that hold a combine
    /// buffer. It changes with the buffer, in the same critical section.
    combining: BTreeSet<u32>,
    /// Sockets the application has not closed yet.
    active_sockets: i64,
    /// Established connections not yet fully torn down.
    open_conns: i64,
    /// Ephemeral local port allocator.
    next_port: u16,
    /// Library-internal socket descriptor numbers (carried in WAKEUP).
    next_sockdes: i32,
}

struct Entry {
    conn: Arc<SovConn>,
    st: ConnState,
}

impl LibState {
    /// The state of connection `vi`; `Err(Closed)` once the library has
    /// dropped it (torn down and closed).
    pub(crate) fn conn(&mut self, vi: u32) -> SockResult<&mut ConnState> {
        self.conns.get_mut(&vi).map(|e| &mut e.st).ok_or(SockError::Closed)
    }

    /// Take connection `vi`'s combine buffer (with `Some(epoch)`, only the
    /// one installed at that epoch) off the connection and the dirty list.
    pub(crate) fn take_combine(&mut self, vi: u32, epoch: Option<u64>) -> Option<Combine> {
        let c = self.conns.get_mut(&vi)?.st.take_combine(epoch)?;
        self.combining.remove(&vi);
        Some(c)
    }

    /// Install a combine buffer in send slot `slot` on connection `vi` and
    /// put it on the dirty list. Returns the buffer's epoch, or `None`
    /// (the slot freed again) if another thread installed one first.
    pub(crate) fn install_combine(&mut self, vi: u32, slot: usize) -> SockResult<Option<u64>> {
        let epoch = self.conn(vi)?.install_combine(slot);
        self.combining.extend(epoch.map(|_| vi));
        Ok(epoch)
    }

    /// [`LibState::take_combine`], with the connection's handle.
    fn take_combine_of(&mut self, vi: u32, epoch: Option<u64>) -> Option<(Arc<SovConn>, Combine)> {
        let c = self.take_combine(vi, epoch)?;
        Some((Arc::clone(&self.conns[&vi].conn), c))
    }

    /// Whether a connection other than `except_vi` is on the dirty list.
    pub(crate) fn holds_combines_except(&self, except_vi: Option<u32>) -> bool {
        self.combining.iter().any(|&vi| Some(vi) != except_vi)
    }

    /// Mark connection `vi` torn down if it is due (see
    /// [`ConnState::take_finalize`]): it leaves the dirty list, and the
    /// library drops it if the application has closed it too.
    pub(crate) fn finalize(&mut self, vi: u32) -> bool {
        if !self.conn(vi).is_ok_and(ConnState::take_finalize) {
            return false;
        }
        self.combining.remove(&vi);
        if self.conns[&vi].st.local_closed {
            self.drop_conn(vi);
        }
        true
    }

    /// Drop connection `vi`, keeping its counters on its handle.
    pub(crate) fn drop_conn(&mut self, vi: u32) {
        if let Some(e) = self.conns.remove(&vi) {
            e.conn.retire(e.st.stats);
        }
        self.combining.remove(&vi);
    }
}

impl SoviaLib {
    /// Get or initialize the SOVIA library of `process` (spawning its
    /// service threads on first use). A configuration that fails
    /// validation surfaces as a socket error at `socket()` time rather
    /// than a panic inside the library.
    pub fn init(process: &Process, config: SoviaConfig) -> SockResult<Arc<SoviaLib>> {
        config.validate().map_err(|_| SockError::InvalidConfig)?;
        Ok(process.ext().get_or_init(|| {
            let machine = process.machine();
            let nic = ViaNic::of(machine);
            let sim = machine.sim().clone();
            let cq = CompletionQueue::new(&sim);
            let lib = Arc::new(SoviaLib {
                process: process.clone(),
                nic,
                costs: machine.costs().clone(),
                sim: sim.clone(),
                cq: Arc::clone(&cq),
                inner: Mutex::new(LibState {
                    conns: BTreeMap::new(),
                    combining: BTreeSet::new(),
                    active_sockets: 0,
                    open_conns: 0,
                    next_port: 32_768,
                    next_sockdes: 3,
                }),
                progress_cv: SimCondvar::new(&sim),
                activation_cv: SimCondvar::new(&sim),
                timer_q: SimQueue::new(&sim),
                config,
            });
            lib.start_threads();
            lib
        }))
    }

    /// The library of a process, if initialized.
    pub fn get(process: &Process) -> Option<Arc<SoviaLib>> {
        process.ext().get::<SoviaLib>()
    }

    /// The owning process.
    pub fn process(&self) -> &Process {
        &self.process
    }

    /// The VIA NIC in use.
    pub fn nic(&self) -> &Arc<ViaNic> {
        &self.nic
    }

    /// The configuration.
    pub fn config(&self) -> &SoviaConfig {
        &self.config
    }

    /// The shared recv completion queue (VIs attach to it at creation).
    pub fn cq(&self) -> &Arc<CompletionQueue> {
        &self.cq
    }

    /// Simulation handle.
    pub fn sim(&self) -> &SimHandle {
        &self.sim
    }

    /// The library's state, locked. Never hold the guard across a call
    /// that may park.
    pub(crate) fn lock(&self) -> MutexGuard<'_, LibState> {
        self.inner.lock()
    }

    /// Allocate a library-internal socket descriptor number (the WAKEUP
    /// packet reports it to the peer, as the paper's does).
    pub(crate) fn alloc_sockdes(&self) -> i32 {
        let mut st = self.inner.lock();
        st.next_sockdes += 1;
        st.next_sockdes
    }

    /// Allocate an ephemeral local port.
    pub(crate) fn alloc_port(&self) -> u16 {
        let mut st = self.inner.lock();
        st.next_port = st.next_port.wrapping_add(1).max(32_768);
        st.next_port
    }

    /// The name of this library's `role` daemon: `sovia-<role>-<host>/<pid>`,
    /// unique in a simulation (pids are per machine).
    pub(crate) fn daemon_name(&self, role: &str) -> String {
        let machine = self.process.machine().id();
        format!("sovia-{role}-{machine}/{}", self.process.pid())
    }

    fn start_threads(self: &Arc<Self>) {
        match self.config.mode {
            ReceiveMode::SingleThreaded => {
                // The CQ push hook wakes progress waiters (they poll).
                let cv_lib = Arc::downgrade(self);
                self.cq.set_notify(move || {
                    if let Some(lib) = cv_lib.upgrade() {
                        lib.progress_cv.notify_all();
                    }
                });
                // The close thread (Section 4.1, Figure 3).
                let lib = Arc::clone(self);
                self.sim
                    .spawn_daemon(self.daemon_name("close"), move |ctx| {
                        let Err(Shutdown) = lib.close_thread_main(ctx);
                    });
            }
            ReceiveMode::HandlerThread => {
                let lib = Arc::clone(self);
                self.sim
                    .spawn_daemon(self.daemon_name("handler"), move |ctx| {
                        lib.handler_thread_main(ctx);
                    });
            }
        }
        if self.config.combine_small {
            let lib = Arc::clone(self);
            self.sim
                .spawn_daemon(self.daemon_name("timer"), move |ctx| {
                    lib.timer_thread_main(ctx);
                });
        }
    }

    // ----- connection registry -------------------------------------------

    /// Register `conn` with a fresh state, knowing its `peer` if it is
    /// the connecting side.
    pub(crate) fn insert_conn(&self, conn: Arc<SovConn>, peer: Option<SockAddr>) {
        let mut st = self.inner.lock();
        let fresh = ConnState::new(&self.config, peer);
        st.conns.insert(conn.vi_id(), Entry { conn, st: fresh });
        st.open_conns += 1;
        drop(st);
        self.activation_cv.notify_all();
    }

    /// Drop connection `vi_id`, which never reached the application.
    pub(crate) fn abandon_conn(&self, vi_id: u32) {
        self.inner.lock().drop_conn(vi_id);
        self.conn_finalized();
    }

    /// Arm the combine timer for connection `vi_id`'s buffer of `epoch`
    /// (condition (1) of Section 3.2). A flush before the timeout
    /// supersedes the timer: it expires without waking the timer thread.
    pub(crate) fn arm_combine_timer(self: &Arc<Self>, vi_id: u32, epoch: u64) {
        let lib = Arc::clone(self);
        self.sim.schedule_in(COMBINE_TIMEOUT, move |_| {
            if lib.inner.lock().conn(vi_id).is_ok_and(|st| st.holds_combine(epoch)) {
                lib.timer_q.push((vi_id, epoch));
            }
        });
    }

    /// Whether connection `vi_id` is on the dirty list (diagnostics).
    pub fn holds_combine(&self, vi_id: u32) -> bool {
        self.inner.lock().combining.contains(&vi_id)
    }

    pub(crate) fn conn_finalized(&self) {
        self.inner.lock().open_conns -= 1;
        self.activation_cv.notify_all();
        self.notify_progress();
    }

    pub(crate) fn socket_opened(&self) {
        self.inner.lock().active_sockets += 1;
        self.activation_cv.notify_all();
    }

    pub(crate) fn socket_closed(&self) {
        let mut st = self.inner.lock();
        st.active_sockets -= 1;
        debug_assert!(st.active_sockets >= 0);
        drop(st);
        self.activation_cv.notify_all();
    }

    /// Number of connections not yet torn down (diagnostics).
    pub fn open_conn_count(&self) -> i64 {
        self.inner.lock().open_conns
    }

    // ----- servicing -------------------------------------------------------

    /// Flush every pending combine buffer but `except_vi`'s (a `send()`
    /// on that connection is mid-combine). The paper's flush condition
    /// (4) — "when the application calls recv() or close()" — applies to
    /// the application (re)entering the single-threaded library, not just
    /// the one socket: combined data must not linger while the
    /// application blocks on another descriptor. Walks the dirty list
    /// once, in ascending VI id, taking each buffer under the library
    /// lock.
    pub fn flush_combines_except(&self, ctx: &SimCtx, except_vi: Option<u32>) {
        let mut after = Bound::Unbounded;
        loop {
            let next = {
                let mut st = self.inner.lock();
                let mut dirty = st.combining.range((after, Bound::Unbounded));
                let vi = dirty.find(|&&vi| Some(vi) != except_vi).copied();
                vi.and_then(|vi| st.take_combine_of(vi, None))
            };
            let Some((conn, c)) = next else {
                return;
            };
            after = Bound::Excluded(conn.vi_id());
            let _ = conn.post_combine(ctx, self, c);
        }
    }

    /// Process at most one receive completion (non-blocking). Returns true
    /// if a CQ entry was consumed.
    pub(crate) fn service_one(&self, ctx: &SimCtx) -> bool {
        let Some(entry) = self.cq.poll(ctx, &self.costs) else {
            return false;
        };
        self.process_completion(ctx, entry.vi_id);
        true
    }

    /// Look up connection `vi_id`, pop one completed receive descriptor
    /// and decode it, all under the lock; then do what it asks for. A
    /// connection already torn down takes no completion.
    fn process_completion(&self, ctx: &SimCtx, vi_id: u32) {
        let decoded = {
            let mut st = self.inner.lock();
            let e = st.conns.get_mut(&vi_id).filter(|e| !e.st.finalized);
            e.and_then(|e| Some((Arc::clone(&e.conn), e.st.decode(e.conn.vi.recv_done_uncharged()?))))
        };
        if let Some((conn, action)) = decoded {
            conn.follow_up(ctx, self, action);
            self.notify_progress();
        }
    }

    /// Wake everything blocked on library progress. In handler mode the
    /// wake is delayed by the Linux thread-synchronization cost — the
    /// SOVIA_HANDLER penalty of Figure 6(a).
    pub(crate) fn notify_progress(&self) {
        match self.config.mode {
            ReceiveMode::SingleThreaded => self.progress_cv.notify_all(),
            ReceiveMode::HandlerThread => self
                .progress_cv
                .notify_all_after(self.costs.thread_wake),
        }
    }

    /// Block until progress might have been made; in single-threaded mode
    /// the caller itself services the completion queue.
    pub(crate) fn wait_progress(&self, ctx: &SimCtx) {
        let Ok(()) = self.wait_progress_with(ctx, |cv| {
            cv.wait(ctx);
            Ok::<_, Infallible>(())
        });
    }

    /// [`SoviaLib::wait_progress`], blocking on the progress condvar with
    /// `wait`.
    fn wait_progress_with<E>(
        &self,
        ctx: &SimCtx,
        wait: impl FnOnce(&SimCondvar) -> Result<(), E>,
    ) -> Result<(), E> {
        match self.config.mode {
            ReceiveMode::SingleThreaded => {
                if self.service_one(ctx) {
                    return Ok(());
                }
                wait(&self.progress_cv)?;
                ctx.charge(
                    dsim::TraceLayer::Sovia,
                    dsim::TraceKind::Poll,
                    self.costs.poll_check,
                    dsim::TraceTag::default(),
                );
            }
            ReceiveMode::HandlerThread => wait(&self.progress_cv)?,
        }
        Ok(())
    }

    // ----- service threads --------------------------------------------------

    fn close_thread_main(&self, ctx: &SimCtx) -> Result<Infallible, Shutdown> {
        loop {
            // Suspended while the application holds open sockets (a WAKEUP
            // means a live connection, so the close thread stands down).
            loop {
                let (active, open) = {
                    let st = self.inner.lock();
                    (st.active_sockets, st.open_conns)
                };
                if active == 0 && open > 0 {
                    break;
                }
                self.activation_cv.wait_idle(ctx)?;
            }
            // Drive the remaining FIN/FINACK exchanges.
            self.wait_progress_with(ctx, |cv| cv.wait_idle(ctx))?;
        }
    }

    fn handler_thread_main(&self, ctx: &SimCtx) {
        while let Ok(entry) = self.cq.wait(ctx, &self.costs, WaitMode::Block) {
            self.process_completion(ctx, entry.vi_id);
        }
    }

    fn timer_thread_main(&self, ctx: &SimCtx) {
        while let Ok((vi_id, epoch)) = self.timer_q.pop_idle(ctx) {
            let taken = self.inner.lock().take_combine_of(vi_id, Some(epoch));
            if let Some((conn, c)) = taken {
                let _ = conn.post_combine(ctx, self, c);
            }
        }
    }
}
