//! The per-process SOVIA library instance.
//!
//! Owns the shared completion queue, the VI→connection table, the dirty
//! list of connections that hold a combine buffer, and the service
//! machinery for both receive modes:
//!
//! * **single-threaded** (SOVIA's design): the application thread itself
//!   services completions inside `send()`/`recv()`/`accept()`, polling the
//!   CQ; a *close thread* takes over only when the application holds no
//!   more open sockets, to drain FIN/FINACK traffic (Section 4.1);
//! * **handler-thread** (the rejected design, kept for the Figure 6
//!   comparison): a dedicated thread blocks on the CQ and signals the
//!   application, paying `thread_wake` on every message.

use std::collections::{BTreeMap, BTreeSet};
use std::convert::Infallible;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dsim::sync::{SimCondvar, SimQueue};
use dsim::{Shutdown, SimCtx, SimHandle};
use parking_lot::Mutex;
use simos::{HostCosts, Process};
use sockets::{SockError, SockResult};
use via::{CompletionQueue, ViaNic, WaitMode};

use crate::config::{ReceiveMode, SoviaConfig, COMBINE_TIMEOUT};
use crate::conn::SovConn;

/// [`SoviaLib::lone_holder`] of an empty dirty list.
const NO_HOLDER: u64 = u64::MAX;
/// [`SoviaLib::lone_holder`] of a dirty list of two or more.
const MANY_HOLDERS: u64 = u64::MAX - 1;

/// The SOVIA library state of one process.
pub struct SoviaLib {
    process: Process,
    nic: Arc<ViaNic>,
    config: SoviaConfig,
    costs: HostCosts,
    sim: SimHandle,
    cq: Arc<CompletionQueue>,
    conns: Mutex<BTreeMap<u32, Arc<SovConn>>>,
    /// The dirty list: VI ids of the connections that hold a combine
    /// buffer (`SovConn` adds an id on install and removes it on take).
    combining: Mutex<BTreeSet<u32>>,
    /// The dirty list's lone member, readable without its lock, or
    /// [`NO_HOLDER`] / [`MANY_HOLDERS`].
    lone_holder: AtomicU64,
    /// Notified whenever anything that could unblock a waiter happened:
    /// a CQ push (single mode), a processed packet, an accept-queue push.
    progress_cv: SimCondvar,
    /// Sockets the application has not closed yet.
    active_sockets: Mutex<i64>,
    /// Established connections not yet fully torn down.
    open_conns: Mutex<i64>,
    /// Gate for the close thread.
    activation_cv: SimCondvar,
    /// Combine-timer expirations to be executed with a real context.
    timer_q: Arc<SimQueue<(Arc<SovConn>, u64)>>,
    /// Ephemeral local port allocator.
    next_port: Mutex<u16>,
    /// Library-internal socket descriptor numbers (carried in WAKEUP).
    next_sockdes: Mutex<i32>,
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
                conns: Mutex::new(BTreeMap::new()),
                combining: Mutex::new(BTreeSet::new()),
                lone_holder: AtomicU64::new(NO_HOLDER),
                progress_cv: SimCondvar::new(&sim),
                active_sockets: Mutex::new(0),
                open_conns: Mutex::new(0),
                activation_cv: SimCondvar::new(&sim),
                timer_q: SimQueue::new(&sim),
                next_port: Mutex::new(32_768),
                next_sockdes: Mutex::new(3),
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

    /// Allocate a library-internal socket descriptor number (the WAKEUP
    /// packet reports it to the peer, as the paper's does).
    pub(crate) fn alloc_sockdes(&self) -> i32 {
        let mut n = self.next_sockdes.lock();
        *n += 1;
        *n
    }

    /// Allocate an ephemeral local port.
    pub(crate) fn alloc_port(&self) -> u16 {
        let mut p = self.next_port.lock();
        *p = p.wrapping_add(1).max(32_768);
        *p
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

    pub(crate) fn insert_conn(&self, conn: Arc<SovConn>) {
        self.conns.lock().insert(conn.vi_id(), conn);
        *self.open_conns.lock() += 1;
        self.activation_cv.notify_all();
    }

    pub(crate) fn remove_conn(&self, vi_id: u32) {
        self.conns.lock().remove(&vi_id);
        self.mark_combining(vi_id, false);
    }

    /// Put connection `vi_id` on the dirty list (it installed a combine
    /// buffer) or take it off.
    pub(crate) fn mark_combining(&self, vi_id: u32, holds: bool) {
        let mut held = self.combining.lock();
        if holds {
            held.insert(vi_id);
        } else {
            held.remove(&vi_id);
        }
        let lone = match (held.len(), held.first()) {
            (0, _) => NO_HOLDER,
            (1, Some(&vi)) => u64::from(vi),
            _ => MANY_HOLDERS,
        };
        self.lone_holder.store(lone, Ordering::Relaxed);
    }

    /// Whether connection `vi_id` is on the dirty list (diagnostics).
    pub fn holds_combine(&self, vi_id: u32) -> bool {
        self.combining.lock().contains(&vi_id)
    }

    pub(crate) fn conn_finalized(&self) {
        *self.open_conns.lock() -= 1;
        self.activation_cv.notify_all();
        self.notify_progress();
    }

    pub(crate) fn socket_opened(&self) {
        *self.active_sockets.lock() += 1;
        self.activation_cv.notify_all();
    }

    pub(crate) fn socket_closed(&self) {
        let mut n = self.active_sockets.lock();
        *n -= 1;
        debug_assert!(*n >= 0);
        drop(n);
        self.activation_cv.notify_all();
    }

    /// Number of connections not yet torn down (diagnostics).
    pub fn open_conn_count(&self) -> i64 {
        *self.open_conns.lock()
    }

    // ----- servicing -------------------------------------------------------

    /// Flush every pending combine buffer but `except_vi`'s (a `send()`
    /// on that connection is mid-combine). The paper's flush condition
    /// (4) — "when the application calls recv() or close()" — applies to
    /// the application (re)entering the single-threaded library, not just
    /// the one socket: combined data must not linger while the
    /// application blocks on another descriptor. Walks the dirty list
    /// once, in ascending VI id; a `send()` that follows sends on the same
    /// connection, the only one holding a buffer, skips the walk.
    pub fn flush_combines_except(&self, ctx: &SimCtx, except_vi: Option<u32>) {
        let lone = self.lone_holder.load(Ordering::Relaxed);
        if lone == NO_HOLDER || except_vi.is_some_and(|vi| u64::from(vi) == lone) {
            return;
        }
        let mut after = Bound::Unbounded;
        while let Some(vi) = self.next_combining(after, except_vi) {
            after = Bound::Excluded(vi);
            let conn = self.conns.lock().get(&vi).cloned();
            if let Some(conn) = conn {
                let _ = conn.flush_combine(ctx, self);
            }
        }
    }

    fn next_combining(&self, after: Bound<u32>, except_vi: Option<u32>) -> Option<u32> {
        let held = self.combining.lock();
        let mut later = held.range((after, Bound::Unbounded)).copied();
        later.find(|&vi| Some(vi) != except_vi)
    }

    /// Process at most one receive completion (non-blocking). Returns true
    /// if a CQ entry was consumed.
    pub(crate) fn service_one(&self, ctx: &SimCtx) -> bool {
        let Some(entry) = self.cq.poll(ctx, &self.costs) else {
            return false;
        };
        let conn = self.conns.lock().get(&entry.vi_id).cloned();
        if let Some(conn) = conn {
            conn.process_completion(ctx, self);
        }
        true
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
                let active = *self.active_sockets.lock();
                let open = *self.open_conns.lock();
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
            let conn = self.conns.lock().get(&entry.vi_id).cloned();
            if let Some(conn) = conn {
                conn.process_completion(ctx, self);
            }
        }
    }

    fn timer_thread_main(self: &Arc<Self>, ctx: &SimCtx) {
        while let Ok((conn, epoch)) = self.timer_q.pop_idle(ctx) {
            let _ = conn.flush_if_epoch(ctx, self, Some(epoch));
        }
    }

    /// Arm the combine timer for the buffer `conn` installed at `epoch`
    /// (condition (1) of Section 3.2). A flush before the timeout supersedes
    /// the timer: it expires without waking the timer thread.
    pub(crate) fn arm_combine_timer(&self, conn: &SovConn, epoch: u64) {
        // Find our own Arc via the conns table to avoid an Arc<Self> param
        // threading through the send path.
        let conn = self
            .conns
            .lock()
            .get(&conn.vi_id())
            .cloned()
            .expect("arming timer for unregistered connection");
        let q = Arc::clone(&self.timer_q);
        self.sim.schedule_in(COMBINE_TIMEOUT, move |_| {
            if conn.holds_combine_epoch(epoch) {
                q.push((conn, epoch));
            }
        });
    }
}
