//! The discrete-event scheduler.
//!
//! # Execution model
//!
//! Simulation *processes* are stackful coroutines ([`crate::coro`]) that all
//! run on the OS thread that calls [`Simulation::run`]. That call is the
//! single dispatch loop: it pops events in `(time, sequence)` order, runs
//! `Call` events inline, and switches into the coroutine a `Wake` event
//! targets. The process runs until it parks, which switches back to the
//! loop. Exactly one process (or the loop) runs at any instant, so the
//! simulation is fully deterministic for a given program, while protocol
//! code is still written in a natural blocking style (`ctx.sleep(..)`,
//! `cv.wait(&ctx)`), exactly how the SOVIA paper's threads are written.
//!
//! The sequence number breaks ties in schedule order, so same-instant
//! events fire in a deterministic FIFO order.
//!
//! # Event queue
//!
//! The earliest queued event waits in a slot in front of a binary heap;
//! every heap entry is later in `(time, sequence)` order. A new event has
//! the largest sequence number so far, so it takes the slot (pushing the
//! old occupant into the heap) only if its time is strictly earlier than
//! the earliest queued event's; otherwise it goes into the heap. Popping
//! takes the slot first, so the pop order is the heap-only order, while a
//! self-wake due before anything else skips the heap's push and pop.
//!
//! A process gets its stack at its first dispatch, from [`crate::coro`],
//! which also takes it back when the process finishes: the scheduler
//! itself keeps no stacks.
//!
//! # Wake-up protocol
//!
//! Every process has an *epoch* counter. A parked process is woken by an
//! event that carries the epoch observed when the process parked; delivering
//! a wake bumps the epoch, so any other pending wake for the same park
//! would be stale and is dropped. No primitive in [`crate::sync`] queues a
//! second wake for one park; the check is a guard.
//! Blocking primitives therefore follow the usual condition-variable rule:
//! *mutate shared state first, then wake; waiters re-check predicates in a
//! loop*.
//!
//! # Teardown
//!
//! The end of `run` resumes every parked process with `Shutdown`. A daemon
//! in an idle wait ([`crate::sync`]) gets `Err(`[`Shutdown`]`)` and returns;
//! any other process, and one that parks again after `Shutdown` (it would
//! never be resumed), is unwound, silently. An unwind walks the stack
//! twice in the DWARF unwinder, so a clean run should have none
//! ([`Simulation::teardown_unwinds`]).

use std::collections::BinaryHeap;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::coro::{self, Coroutine, Resumed};
use crate::time::{SimDuration, SimTime};
use crate::trace::{
    TraceConfig, TraceData, TraceEvent, TraceKind, TraceLayer, TraceShared, TraceTag, Tracer,
};

/// Identifier of a simulation process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub(crate) u64);

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "proc#{}", self.0)
    }
}

/// Why a parked process resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeReason {
    /// The process's own `sleep` deadline arrived.
    Sleep,
    /// A notification was delivered (condvar/queue/semaphore).
    Notify,
    /// First scheduling of a newly spawned process.
    Start,
    /// The simulation is being torn down: an idle wait reports it as
    /// [`Shutdown`]; any other park unwinds the process.
    Shutdown,
}

/// The simulation is being torn down. Returned by the idle waits
/// ([`crate::sync::SimQueue::pop_idle`], [`crate::sync::SimCondvar::wait_idle`])
/// a daemon blocks in between jobs, so its loop ends by returning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shutdown;

impl WakeReason {
    /// Every reason, indexed by discriminant (how the dispatch loop passes
    /// a reason through a coroutine switch).
    const ALL: [WakeReason; 4] = [
        WakeReason::Sleep,
        WakeReason::Notify,
        WakeReason::Start,
        WakeReason::Shutdown,
    ];
}

/// Error raised by [`Simulation::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// No events remain but some processes are still parked.
    Deadlock {
        /// Virtual time at which the simulation wedged.
        at: SimTime,
        /// Names of the parked processes.
        parked: Vec<String>,
    },
    /// A simulation process panicked.
    ProcessPanicked {
        /// Name of the panicking process.
        name: String,
        /// Rendered panic payload.
        message: String,
    },
    /// The event-count budget given to [`Simulation::run_with_limit`] was
    /// exhausted (runaway-simulation guard).
    EventLimit {
        /// Virtual time when the budget ran out.
        at: SimTime,
        /// Events fully processed before the budget ran out (callers use
        /// this to tune the budget).
        processed: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { at, parked } => {
                write!(f, "simulation deadlocked at {at}: parked = {parked:?}")
            }
            SimError::ProcessPanicked { name, message } => {
                write!(f, "simulation process `{name}` panicked: {message}")
            }
            SimError::EventLimit { at, processed } => {
                write!(f, "event limit exhausted at {at} after {processed} events")
            }
        }
    }
}

impl std::error::Error for SimError {}

enum EventKind {
    Wake {
        pid: ProcId,
        epoch: u64,
        reason: WakeReason,
    },
    Call(Box<dyn FnOnce(SimTime) + Send>),
}

struct EventEntry {
    time: u64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for EventEntry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for EventEntry {}
impl PartialOrd for EventEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EventEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcState {
    /// Spawned but not yet started, or parked awaiting a wake event.
    Parked,
    /// Currently running (the only one).
    Running,
    /// Finished (returned or panicked).
    Done,
}

/// A process body that has not started yet.
type Body = Box<dyn FnOnce(&SimCtx) + Send>;

/// One process's scheduling slot.
struct ProcSlot {
    name: String,
    state: ProcState,
    epoch: u64,
    /// The body, until the process's first dispatch moves it onto a
    /// coroutine (teardown drops it unstarted).
    body: Option<Body>,
    /// Daemons (NIC engines, protocol handler loops) do not keep the
    /// simulation alive: it completes when all non-daemon processes finish.
    daemon: bool,
    /// Wake events delivered to this process (any reason except Shutdown).
    wakeups: u64,
    /// Accumulated virtual run time: a process only advances the clock
    /// while "running" its own charged costs, i.e. across `Sleep` parks,
    /// so run time is the sum of Sleep-reason park→wake intervals.
    runtime_ns: u64,
    /// Virtual time at which this process last parked.
    parked_at_ns: u64,
}

/// Former scheduler knob, kept so existing callers still compile.
///
/// There is a single dispatch path now (see the module docs), so the
/// configuration has no effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedConfig {
    /// Ignored. It used to select direct token handoff between OS threads
    /// instead of coordinator dispatch.
    pub direct_handoff: bool,
}

/// Counters describing how a simulation was executed (host-side only;
/// nothing here feeds back into virtual time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Heap entries popped (wakes, calls, stale wakes).
    pub events_processed: u64,
    /// Always 0: there is no handoff between processes any more; every
    /// wake is dispatched by the loop. Kept for report compatibility.
    pub direct_handoffs: u64,
    /// Wakes of the process that parked last, with no `Call` event run in
    /// between (the process resumes where it just left off).
    pub self_wakes: u64,
    /// All other wakes the dispatch loop delivered.
    pub coordinator_wakes: u64,
    /// Total wake deliveries across all processes (every reason except
    /// teardown); per-process detail is in [`Simulation::proc_stats`].
    pub wakeups: u64,
}

/// Per-process scheduling accounting (see [`Simulation::proc_stats`]).
///
/// "Run time" is virtual CPU time: the sum of this process's charged
/// cost-model sleeps. Handshake intervals between a wake and the next park
/// are zero virtual time by construction, so they contribute nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcStats {
    /// Process id (spawn order).
    pub pid: u64,
    /// Process name as given to `spawn`.
    pub name: String,
    /// Whether this is a daemon (engine loop).
    pub daemon: bool,
    /// Accumulated virtual run time (charged costs).
    pub runtime: SimDuration,
    /// Wake events delivered (all reasons except teardown).
    pub wakeups: u64,
}

#[derive(Default)]
struct SchedState {
    now: u64,
    seq: u64,
    /// The earliest queued event: every entry in `heap` is later in
    /// `(time, seq)` order. A self-wake goes in and out of here.
    next: Option<EventEntry>,
    heap: BinaryHeap<EventEntry>,
    /// Indexed by pid (pids are allocated densely in spawn order).
    procs: Vec<ProcSlot>,
    /// Number of processes not yet Done.
    live: usize,
    /// Panic captured from a process, reported by `run`.
    panic: Option<(String, String)>,
    /// Heap entries popped so far.
    events: u64,
    /// Event budget, set by `run` (`u64::MAX` when unlimited).
    max_events: u64,
    /// Execution counters (see [`SchedStats`]).
    stats: SchedStats,
}

pub(crate) struct SimCore {
    state: Mutex<SchedState>,
    /// Pid of the process the dispatch loop resumed last (the running one,
    /// while any process runs), with [`SHUT_DOWN`] set if that resume
    /// delivered `Shutdown`.
    running: AtomicU64,
    /// Event recorder; `None` (the default) makes every emission site a
    /// single predictable branch.
    pub(crate) trace: Option<Arc<TraceShared>>,
    /// Run by `Simulation`'s `Drop`, in registration order.
    teardown: Mutex<Vec<Box<dyn FnOnce() + Send>>>,
}

impl SchedState {
    /// Queue an event at virtual time `at`, after every event already
    /// queued for that instant.
    fn schedule(&mut self, at: u64, kind: EventKind) {
        let e = EventEntry {
            time: at,
            seq: self.seq,
            kind,
        };
        self.seq += 1;
        // `e` has the largest seq so far: it comes first only if strictly
        // earlier than the earliest queued event.
        let earliest = self.next.as_ref().or(self.heap.peek());
        if earliest.is_some_and(|n| n.time <= at) {
            self.heap.push(e);
        } else if let Some(old) = self.next.replace(e) {
            self.heap.push(old);
        }
    }

    /// Dequeue the earliest event.
    fn pop(&mut self) -> Option<EventEntry> {
        self.next.take().or_else(|| self.heap.pop())
    }
}

/// A cloneable handle onto a running (or not-yet-run) simulation.
///
/// Handles can schedule callbacks and construct synchronization primitives;
/// they do not allow blocking (only a [`SimCtx`], owned by a process, can
/// block).
#[derive(Clone)]
pub struct SimHandle {
    pub(crate) core: Arc<SimCore>,
}

impl SimHandle {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        SimTime(self.core.state.lock().now)
    }

    /// A cheap emission handle onto this simulation's trace recorder
    /// (disabled — every emit a no-op — unless the simulation was built
    /// with [`Simulation::with_trace`]).
    pub fn tracer(&self) -> Tracer {
        Tracer {
            shared: self.core.trace.clone(),
        }
    }

    /// Schedule `f` to run on the coordinator at `now + delay`.
    ///
    /// The callback must not block; it may mutate shared state and notify
    /// condition variables. It cannot be cancelled: a callback whose work
    /// may be overtaken checks, when it runs, whether the work is still
    /// due.
    pub fn schedule_in<F>(&self, delay: SimDuration, f: F)
    where
        F: FnOnce(SimTime) + Send + 'static,
    {
        let mut st = self.core.state.lock();
        let at = st.now + delay.as_nanos();
        st.schedule(at, EventKind::Call(Box::new(f)));
    }

    /// Register `f` to run when the [`Simulation`] is dropped, after its
    /// queued events and unstarted processes are gone. A hook must hold
    /// only weak references to what it clears, or it keeps that alive
    /// until the simulation is dropped.
    pub fn on_teardown(&self, f: impl FnOnce() + Send + 'static) {
        self.core.teardown.lock().push(Box::new(f));
    }

    /// Spawn a new simulation process; it first runs at `now` (after all
    /// already-queued same-instant events).
    pub fn spawn<F>(&self, name: impl Into<String>, f: F) -> ProcId
    where
        F: FnOnce(&SimCtx) + Send + 'static,
    {
        self.spawn_inner(name, SimDuration::ZERO, false, f)
    }

    /// Spawn a *daemon* process: an engine loop (NIC, protocol handler)
    /// that blocks forever when idle. Daemons do not keep the simulation
    /// alive; they are torn down when all regular processes finish.
    pub fn spawn_daemon<F>(&self, name: impl Into<String>, f: F) -> ProcId
    where
        F: FnOnce(&SimCtx) + Send + 'static,
    {
        self.spawn_inner(name, SimDuration::ZERO, true, f)
    }

    /// Spawn a new simulation process whose first instruction runs at
    /// `now + delay`.
    pub fn spawn_delayed<F>(&self, name: impl Into<String>, delay: SimDuration, f: F) -> ProcId
    where
        F: FnOnce(&SimCtx) + Send + 'static,
    {
        self.spawn_inner(name, delay, false, f)
    }

    fn spawn_inner<F>(
        &self,
        name: impl Into<String>,
        delay: SimDuration,
        daemon: bool,
        f: F,
    ) -> ProcId
    where
        F: FnOnce(&SimCtx) + Send + 'static,
    {
        let name = name.into();
        let mut st = self.core.state.lock();
        let pid = ProcId(st.procs.len() as u64);
        if let Some(tr) = &self.core.trace {
            tr.names.lock().push((pid.0, name.clone()));
        }
        let now = st.now;
        st.procs.push(ProcSlot {
            name,
            state: ProcState::Parked,
            epoch: 0,
            body: Some(Box::new(f)),
            daemon,
            wakeups: 0,
            runtime_ns: 0,
            parked_at_ns: now,
        });
        if !daemon {
            st.live += 1;
        }
        let at = st.now + delay.as_nanos();
        st.schedule(
            at,
            EventKind::Wake {
                pid,
                epoch: 0,
                reason: WakeReason::Start,
            },
        );
        pid
    }

    /// Record the modeled cost of a cross-thread signal: a Sched-layer
    /// `thread_wake` span covering `[now, now + delay]` on the *woken*
    /// process. Called by the sync primitives' delayed notifies.
    pub(crate) fn trace_thread_wake(&self, pid: ProcId, delay: SimDuration) {
        if self.core.trace.is_some() {
            let (layer, kind) = (TraceLayer::Sched, TraceKind::ThreadWake);
            let tag = TraceTag::default();
            self.tracer()
                .span_start(self.now(), pid.0, layer, kind, delay, tag);
        }
    }

    /// Schedule a wake for `pid` at `now + delay` targeting epoch `epoch`.
    /// Used by the synchronization primitives.
    pub(crate) fn schedule_wake(
        &self,
        pid: ProcId,
        epoch: u64,
        delay: SimDuration,
        reason: WakeReason,
    ) {
        let mut st = self.core.state.lock();
        let at = st.now + delay.as_nanos();
        st.schedule(at, EventKind::Wake { pid, epoch, reason });
    }

    /// The (pid, epoch) pair a primitive must record to wake `ctx` later.
    pub(crate) fn park_token(&self, ctx: &SimCtx) -> (ProcId, u64) {
        let st = self.core.state.lock();
        (ctx.pid, st.procs[ctx.pid.0 as usize].epoch)
    }

    /// Whether a recorded park token still refers to a parked process whose
    /// epoch has not advanced (i.e. waking it would not be stale).
    pub(crate) fn token_is_current(&self, token: (ProcId, u64)) -> bool {
        let st = self.core.state.lock();
        let slot = &st.procs[token.0 .0 as usize];
        slot.state == ProcState::Parked && slot.epoch == token.1
    }
}

/// Per-process context: the capability to block in virtual time.
///
/// A `SimCtx` must only be used from within the process it was created for.
#[derive(Clone)]
pub struct SimCtx {
    pub(crate) handle: SimHandle,
    pub(crate) pid: ProcId,
}

impl SimCtx {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.handle.now()
    }

    /// This process's id.
    pub fn pid(&self) -> ProcId {
        self.pid
    }

    /// A cloneable, non-blocking handle to the simulation.
    pub fn handle(&self) -> &SimHandle {
        &self.handle
    }

    /// Advance this process's virtual clock by `d`: an untraced charge (a
    /// cost that belongs in a trace goes through [`SimCtx::charge`]).
    pub fn sleep(&self, d: SimDuration) {
        if d.is_zero() {
            return;
        }
        let r = self.park_for(d);
        debug_assert_eq!(r, WakeReason::Sleep);
    }

    /// Whether this simulation is recording trace events. Instrumentation
    /// sites that need extra work to build a tag (e.g. counting bytes)
    /// should gate on this first.
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.handle.core.trace.is_some()
    }

    /// Charge a modeled cost and record it: [`SimCtx::sleep`] for `d`, then
    /// a span covering `[now - d, now]`. `d = 0` records a zero-width span
    /// without parking. With tracing off this is a sleep plus one branch.
    #[inline]
    pub fn charge(&self, layer: TraceLayer, kind: TraceKind, d: SimDuration, tag: TraceTag) {
        self.sleep(d);
        self.trace_push(d, layer, kind, tag);
    }

    /// Record an instant event at the current virtual time.
    #[inline]
    pub fn trace_instant(&self, layer: TraceLayer, kind: TraceKind, tag: TraceTag) {
        self.trace_push(SimDuration::ZERO, layer, kind, tag);
    }

    /// Record a counter increment of `delta` at the current virtual time.
    #[inline]
    pub fn trace_count(&self, layer: TraceLayer, kind: TraceKind, delta: u64, tag: TraceTag) {
        self.trace_push(
            SimDuration::ZERO,
            layer,
            kind,
            TraceTag {
                value: delta,
                ..tag
            },
        );
    }

    /// Record an event of this process lasting `dur` and ending now.
    #[inline]
    fn trace_push(&self, dur: SimDuration, layer: TraceLayer, kind: TraceKind, tag: TraceTag) {
        if let Some(tr) = &self.handle.core.trace {
            let now = self.handle.core.state.lock().now;
            let (pid, dur_ns) = (self.pid.0, dur.as_nanos());
            tr.push(TraceEvent {
                start_ns: now - dur_ns,
                dur_ns,
                pid,
                layer,
                kind,
                tag,
            });
        }
    }

    /// Yield to any other same-instant events/processes without advancing
    /// time (a deterministic `sched_yield`).
    pub fn yield_now(&self) {
        let _ = self.park_for(SimDuration::ZERO);
    }

    /// Park with a `Sleep` wake scheduled `d` from now.
    fn park_for(&self, d: SimDuration) -> WakeReason {
        {
            let mut st = self.handle.core.state.lock();
            let epoch = st.procs[self.pid.0 as usize].epoch;
            let at = st.now + d.as_nanos();
            let reason = WakeReason::Sleep;
            st.schedule(
                at,
                EventKind::Wake {
                    pid: self.pid,
                    epoch,
                    reason,
                },
            );
        }
        self.park()
    }

    /// Park until some event wakes us. Returns the delivered reason; a
    /// `Shutdown` wake unwinds the process instead.
    ///
    /// This is the low-level primitive behind the sync types; application
    /// code should prefer [`crate::sync`] primitives.
    pub(crate) fn park(&self) -> WakeReason {
        self.park_idle().unwrap_or_else(|Shutdown| unwind())
    }

    /// [`SimCtx::park`] for a process idle between jobs: a `Shutdown` wake
    /// comes back as `Err(Shutdown)`, for the caller to return on.
    pub(crate) fn park_idle(&self) -> Result<WakeReason, Shutdown> {
        let running = self.handle.core.running.load(Ordering::Relaxed);
        if running != self.pid.0 {
            self.refuse_park(running);
        }
        // The dispatch loop marks us Parked when the switch returns to it,
        // and passes the wake reason in when it switches back.
        match WakeReason::ALL[coro::suspend()] {
            WakeReason::Shutdown => Err(Shutdown),
            reason => Ok(reason),
        }
    }

    /// A park by a process other than the running one is a bug, unless it
    /// is one already handed `Shutdown`: that one is unwound on the spot.
    #[cold]
    fn refuse_park(&self, running: u64) -> ! {
        assert_eq!(
            running,
            self.pid.0 | SHUT_DOWN,
            "park() called from outside the running process"
        );
        unwind()
    }
}

/// Set in [`SimCore::running`] while teardown runs a process.
const SHUT_DOWN: u64 = 1 << 63;

/// Unwind the running process out of teardown. `resume_unwind` skips the
/// panic hook: teardown is silent.
pub(crate) fn unwind() -> ! {
    panic::resume_unwind(Box::new(ShutdownToken))
}

/// A whole simulation: owns the event queue, clock, and processes.
///
/// Teardown frees the simulated world in a fixed order. The end of `run`,
/// whatever its result, resumes every parked process with `Shutdown` (a
/// daemon in an idle wait returns; any other process is unwound; either
/// way its stack goes back to the thread's cache, see the `coro` module)
/// and drops the bodies of processes that never started. Dropping the
/// `Simulation` then drops the events still queued (with the one an
/// exhausted budget refused) and any unstarted bodies (a simulation that
/// never ran), outside the scheduler lock, and last runs the hooks
/// registered with [`SimHandle::on_teardown`], in registration order. Upper layers use
/// the hooks to cut the reference cycles that tie a host model to itself.
pub struct Simulation {
    handle: SimHandle,
    ran: bool,
    /// See [`Simulation::teardown_unwinds`].
    teardown_unwinds: u64,
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulation {
    /// Create an empty simulation at t = 0.
    pub fn new() -> Simulation {
        Simulation::with_trace(None)
    }

    /// Create an empty simulation, optionally recording trace events.
    /// Virtual-time results are identical either way — tracing observes,
    /// never perturbs.
    pub fn with_trace(trace: Option<TraceConfig>) -> Simulation {
        let core = Arc::new(SimCore {
            state: Mutex::new(SchedState::default()),
            running: AtomicU64::new(u64::MAX),
            trace: trace.map(|cfg| Arc::new(TraceShared::new(cfg))),
            teardown: Mutex::new(Vec::new()),
        });
        Simulation {
            handle: SimHandle { core },
            ran: false,
            teardown_unwinds: 0,
        }
    }

    /// [`Simulation::with_trace`]; the [`SchedConfig`] is ignored.
    pub fn with_config_and_trace(_config: SchedConfig, trace: Option<TraceConfig>) -> Simulation {
        Simulation::with_trace(trace)
    }

    /// Heap events processed so far (meaningful during and after `run`).
    pub fn events_processed(&self) -> u64 {
        self.handle.core.state.lock().events
    }

    /// Execution counters. Virtual-time results never depend on these; they
    /// exist for host-performance tracking.
    pub fn sched_stats(&self) -> SchedStats {
        let st = self.handle.core.state.lock();
        SchedStats {
            events_processed: st.events,
            ..st.stats
        }
    }

    /// Processes the end of `run` had to unwind: those parked anywhere but
    /// an idle wait (mid-charge, or a non-daemon left blocked by a
    /// `SimError`). A clean run has none.
    pub fn teardown_unwinds(&self) -> u64 {
        self.teardown_unwinds
    }

    /// Per-process run-time and wakeup accounting, ordered by pid
    /// (spawn order). Meaningful during and after `run`.
    pub fn proc_stats(&self) -> Vec<ProcStats> {
        let st = self.handle.core.state.lock();
        st.procs
            .iter()
            .enumerate()
            .map(|(pid, s)| ProcStats {
                pid: pid as u64,
                name: s.name.clone(),
                daemon: s.daemon,
                runtime: SimDuration(s.runtime_ns),
                wakeups: s.wakeups,
            })
            .collect()
    }

    /// Drain and return the recorded trace, or `None` if this simulation
    /// was built without tracing. Call after `run`.
    pub fn take_trace(&self) -> Option<TraceData> {
        self.handle.core.trace.as_deref().map(TraceData::drain_from)
    }

    /// A cloneable handle for scheduling and primitive construction.
    pub fn handle(&self) -> SimHandle {
        self.handle.clone()
    }

    /// Spawn a process (see [`SimHandle::spawn`]).
    pub fn spawn<F>(&self, name: impl Into<String>, f: F) -> ProcId
    where
        F: FnOnce(&SimCtx) + Send + 'static,
    {
        self.handle.spawn(name, f)
    }

    /// Spawn a daemon process (see [`SimHandle::spawn_daemon`]).
    pub fn spawn_daemon<F>(&self, name: impl Into<String>, f: F) -> ProcId
    where
        F: FnOnce(&SimCtx) + Send + 'static,
    {
        self.handle.spawn_daemon(name, f)
    }

    /// Run until all processes finish, returning the final virtual time.
    ///
    /// Takes `&mut self` so callers can query [`Simulation::events_processed`]
    /// and [`Simulation::sched_stats`] afterwards; a simulation still runs
    /// at most once.
    pub fn run(&mut self) -> Result<SimTime, SimError> {
        self.run_inner(u64::MAX)
    }

    /// Run with an explicit event budget.
    pub fn run_with_limit(&mut self, max_events: u64) -> Result<SimTime, SimError> {
        self.run_inner(max_events)
    }

    fn run_inner(&mut self, max_events: u64) -> Result<SimTime, SimError> {
        assert!(!self.ran, "Simulation::run called twice");
        self.ran = true;
        let core = Arc::clone(&self.handle.core);
        core.state.lock().max_events = max_events;
        let mut procs = Coroutines::default();
        // A panicking `Call` callback still gets the processes torn down
        // before the panic propagates.
        let result = panic::catch_unwind(AssertUnwindSafe(|| procs.dispatch(&core)));
        procs.teardown(&core);
        self.teardown_unwinds = procs.unwinds;
        result.unwrap_or_else(|payload| panic::resume_unwind(payload))
    }
}

impl Drop for Simulation {
    fn drop(&mut self) {
        let core = &self.handle.core;
        // Outside the lock: an event or body may own the last reference to
        // something whose drop uses the handle.
        let (next, heap, bodies) = {
            let mut st = core.state.lock();
            let bodies: Vec<Body> = st.procs.iter_mut().filter_map(|s| s.body.take()).collect();
            (st.next.take(), std::mem::take(&mut st.heap), bodies)
        };
        drop((next, heap, bodies));
        let hooks = std::mem::take(&mut *core.teardown.lock());
        for hook in hooks {
            hook();
        }
    }
}

/// What the dispatch loop does next, outside its lock.
enum Step {
    /// Run a `Call` event's callback at its time.
    Call(Box<dyn FnOnce(SimTime) + Send>, SimTime),
    /// Resume (or, with its body, start) a woken process.
    Run(ProcId, WakeReason, Option<Body>),
}

/// The dispatch loop's side of the processes: the coroutines of parked
/// processes, by pid, and how many of them teardown unwound.
#[derive(Default)]
struct Coroutines {
    parked: Vec<Option<Coroutine>>,
    unwinds: u64,
}

impl Coroutines {
    /// The dispatch loop: pop events in `(time, seq)` order until the
    /// simulation completes, wedges, panics or exhausts its budget.
    fn dispatch(&mut self, core: &Arc<SimCore>) -> Result<SimTime, SimError> {
        // The process that parked last, if no `Call` was popped since then
        // (its next wake counts as a self-wake).
        let mut last_parked: Option<ProcId> = None;
        // The process that parked during the previous step, still to be
        // marked Parked (done under the loop's lock, not in `park`).
        let mut suspended: Option<ProcId> = None;
        loop {
            // One lock per step: record the park, then pop until an event
            // needs running (stale wakes are dropped).
            let step = {
                let mut st = core.state.lock();
                let st = &mut *st;
                if let Some(pid) = suspended.take() {
                    let slot = &mut st.procs[pid.0 as usize];
                    slot.state = ProcState::Parked;
                    slot.parked_at_ns = st.now;
                }
                loop {
                    if let Some((name, message)) = st.panic.take() {
                        return Err(SimError::ProcessPanicked { name, message });
                    }
                    let Some(e) = st.pop() else {
                        if st.live == 0 {
                            return Ok(SimTime(st.now));
                        }
                        let parked = st
                            .procs
                            .iter()
                            .filter(|p| p.state == ProcState::Parked && !p.daemon)
                            .map(|p| p.name.clone())
                            .collect();
                        return Err(SimError::Deadlock {
                            at: SimTime(st.now),
                            parked,
                        });
                    };
                    st.now = e.time;
                    st.events += 1;
                    if st.events > st.max_events {
                        // Back in front (it is the earliest), so `Drop`
                        // frees it outside the lock.
                        st.next = Some(e);
                        return Err(SimError::EventLimit {
                            at: SimTime(st.now),
                            processed: st.events - 1,
                        });
                    }
                    match e.kind {
                        EventKind::Call(f) => {
                            last_parked = None;
                            break Step::Call(f, SimTime(e.time));
                        }
                        EventKind::Wake { pid, epoch, reason } => {
                            let slot = &mut st.procs[pid.0 as usize];
                            if slot.state != ProcState::Parked || slot.epoch != epoch {
                                continue; // stale wake
                            }
                            slot.epoch += 1;
                            slot.state = ProcState::Running;
                            slot.wakeups += 1;
                            if reason == WakeReason::Sleep {
                                slot.runtime_ns += e.time - slot.parked_at_ns;
                            }
                            let body = slot.body.take();
                            if last_parked == Some(pid) {
                                st.stats.self_wakes += 1;
                            } else {
                                st.stats.coordinator_wakes += 1;
                            }
                            st.stats.wakeups += 1;
                            break Step::Run(pid, reason, body);
                        }
                    }
                }
            };
            match step {
                Step::Call(f, now) => f(now),
                Step::Run(pid, reason, body) => {
                    let parked = self.run(core, pid, reason, body);
                    last_parked = parked.then_some(pid);
                    suspended = last_parked;
                }
            }
        }
    }

    /// Run process `pid`, woken for `reason`, until it parks (returns
    /// `true`) or finishes. `body` is `Some` at the process's first dispatch.
    fn run(
        &mut self,
        core: &Arc<SimCore>,
        pid: ProcId,
        reason: WakeReason,
        body: Option<Body>,
    ) -> bool {
        let i = pid.0 as usize;
        let shut_down = if reason == WakeReason::Shutdown {
            SHUT_DOWN
        } else {
            0
        };
        core.running.store(pid.0 | shut_down, Ordering::Relaxed);
        let co = match body {
            Some(body) => {
                let ctx = SimCtx {
                    handle: SimHandle {
                        core: Arc::clone(core),
                    },
                    pid,
                };
                match Coroutine::new(Box::new(move || body(&ctx))) {
                    Ok(co) => co,
                    Err(e) => {
                        let msg = format!("cannot map a process stack: {e}");
                        finish(core, pid, Err(Box::new(msg)));
                        return false;
                    }
                }
            }
            None => self.parked[i]
                .take()
                .expect("a started, parked process has a coroutine"),
        };
        match co.resume(reason as usize) {
            Resumed::Suspended(co) => {
                if self.parked.len() <= i {
                    self.parked.resize_with(i + 1, || None);
                }
                self.parked[i] = Some(co);
                true
            }
            Resumed::Finished(outcome) => {
                self.unwinds += u64::from(finish(core, pid, outcome));
                false
            }
            Resumed::Overflowed => {
                let msg = format!(
                    "stack overflow: the process overran its {} KiB stack (canary overwritten)",
                    coro::STACK_SIZE >> 10
                );
                finish(core, pid, Err(Box::new(msg)));
                false
            }
        }
    }

    /// Resume every parked process with `Shutdown`, and drop the bodies of
    /// processes that never started (they are never entered).
    fn teardown(&mut self, core: &Arc<SimCore>) {
        // Processes below `next` are Done: tear down in pid order.
        let mut next = 0;
        loop {
            let (pid, body) = {
                let mut st = core.state.lock();
                let Some(off) = st.procs[next..]
                    .iter()
                    .position(|s| s.state == ProcState::Parked)
                else {
                    break;
                };
                next += off;
                let slot = &mut st.procs[next];
                slot.state = ProcState::Running;
                slot.epoch += 1;
                (ProcId(next as u64), slot.body.take())
            };
            match body {
                Some(body) => {
                    drop(body);
                    finish(core, pid, Ok(()));
                }
                None => {
                    self.run(core, pid, WakeReason::Shutdown, None);
                }
            }
        }
    }
}

/// Mark `pid` Done. A panic becomes the run's error (the first one wins)
/// unless teardown was running the process. Returns whether teardown
/// unwound it.
fn finish(core: &SimCore, pid: ProcId, outcome: coro::Outcome) -> bool {
    let torn_down = core.running.load(Ordering::Relaxed) & SHUT_DOWN != 0;
    let mut st = core.state.lock();
    let st = &mut *st;
    let slot = &mut st.procs[pid.0 as usize];
    slot.state = ProcState::Done;
    if !slot.daemon {
        st.live -= 1;
    }
    let Err(payload) = outcome else {
        return false;
    };
    if payload.is::<ShutdownToken>() {
        return true;
    }
    if !torn_down && st.panic.is_none() {
        st.panic = Some((slot.name.clone(), panic_message(&*payload)));
    }
    false
}

/// Unwind payload used to silently tear a process down at end of simulation.
struct ShutdownToken;

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::SimQueue;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// The dispatch loop's hot layout, pinned: a field move or a size
    /// change (a compiler upgrade's reordering included) shows up here,
    /// not as noise in a host benchmark. Moving a field on purpose means
    /// measuring it, then updating these numbers.
    #[test]
    fn hot_scheduler_layout_is_pinned() {
        use std::mem::{offset_of, size_of};
        let got = [
            ("size_of EventEntry", size_of::<EventEntry>()),
            ("size_of SchedState", size_of::<SchedState>()),
            ("SchedState.next", offset_of!(SchedState, next)),
            ("SchedState.heap", offset_of!(SchedState, heap)),
            ("SchedState.now", offset_of!(SchedState, now)),
            ("SchedState.seq", offset_of!(SchedState, seq)),
            ("SimCore.running", offset_of!(SimCore, running)),
        ];
        let want = [40, 216, 96, 0, 136, 144, 256];
        for ((what, got), want) in got.into_iter().zip(want) {
            assert_eq!(got, want, "{what} moved");
        }
    }

    #[test]
    fn clobbered_stack_canary_is_a_typed_error() {
        let mut sim = Simulation::new();
        let sibling_done = Arc::new(AtomicU64::new(0));
        let done = Arc::clone(&sibling_done);
        sim.spawn("sibling", move |ctx| {
            ctx.sleep(SimDuration::from_micros(10));
            done.store(1, Ordering::Relaxed);
        });
        sim.spawn("overflow", |ctx| {
            crate::coro::clobber_canary();
            ctx.sleep(SimDuration::from_micros(1));
            unreachable!("a process with a clobbered canary must never resume");
        });
        match sim.run() {
            Err(SimError::ProcessPanicked { name, message }) => {
                assert_eq!(name, "overflow");
                assert!(message.contains("stack overflow"), "{message}");
            }
            other => panic!("expected a stack-overflow error, got {other:?}"),
        }
        // The parked sibling was unwound, not run to completion.
        assert_eq!(sibling_done.load(Ordering::Relaxed), 0);
        // The clobbered stack was unmapped, not cached: the next
        // simulation on this thread, which needs five stacks at once,
        // reuses only the sibling's and sees no false overflow.
        let (end, _, fresh) = run_program();
        assert_eq!(end.as_nanos(), 12_000);
        assert_eq!(fresh, 4);
    }

    /// A small simulation (five processes, all live at once, one of them a
    /// daemon that parks forever): its end time, counters and the stacks
    /// it mapped on this thread.
    fn run_program() -> (SimTime, SchedStats, u64) {
        let fresh = coro::fresh_maps();
        let mut sim = Simulation::new();
        let h = sim.handle();
        sim.spawn_daemon("idle", |ctx| {
            let _ = ctx.park();
        });
        sim.spawn("parent", move |ctx| {
            for i in 1..=3 {
                h.spawn(format!("child{i}"), move |ctx| {
                    ctx.sleep(SimDuration::from_micros(i * 4));
                });
            }
            ctx.sleep(SimDuration::from_micros(2));
        });
        let end = sim.run().expect("the program finishes");
        (end, sim.sched_stats(), coro::fresh_maps() - fresh)
    }

    #[test]
    fn back_to_back_simulations_reuse_their_stacks() {
        let first = std::thread::spawn(run_program).join().expect("fresh thread");
        let (end, stats, fresh) = first;
        assert_eq!(end.as_nanos(), 12_000);
        assert_eq!(fresh, 5, "one stack per process on a fresh thread");
        let (first, second) = std::thread::spawn(|| (run_program(), run_program()))
            .join()
            .expect("fresh thread");
        assert_eq!(first, (end, stats, fresh));
        assert_eq!(second, (end, stats, 0), "the second run mapped a stack");
    }

    #[test]
    fn drop_frees_the_core_and_runs_hooks_in_order() {
        let sim = Simulation::new();
        let core = Arc::downgrade(&sim.handle.core);
        // A queued callback and a never-started body, each owning a handle.
        let h = sim.handle();
        sim.handle()
            .schedule_in(SimDuration::from_micros(1), move |_| drop(h));
        let h = sim.handle();
        sim.spawn("never-run", move |_| drop(h));
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3 {
            let order = Arc::clone(&order);
            sim.handle().on_teardown(move || order.lock().push(i));
        }
        drop(sim);
        assert_eq!(*order.lock(), [0, 1, 2]);
        assert!(core.upgrade().is_none(), "the core outlived its simulation");
    }

    /// Owned by a queued callback: its drop reads the clock, which takes
    /// the scheduler lock (and so deadlocks if dropped under it).
    struct ReadsClockOnDrop(SimHandle, Arc<Mutex<Vec<String>>>);

    impl Drop for ReadsClockOnDrop {
        fn drop(&mut self) {
            let now = self.0.now().as_nanos();
            self.1.lock().push(format!("call dropped at {now}"));
        }
    }

    #[test]
    fn drop_frees_a_call_left_in_the_slot_before_the_hooks() {
        for run in [false, true] {
            let mut sim = Simulation::new();
            let order = Arc::new(Mutex::new(Vec::new()));
            let owned = ReadsClockOnDrop(sim.handle(), Arc::clone(&order));
            let call = move |_| drop(owned);
            let h = sim.handle();
            if run {
                // The budget of one event runs the process, which queues
                // the call and finishes; the call is the event refused.
                sim.spawn("queues", move |_| {
                    h.schedule_in(SimDuration::from_micros(5), call);
                });
                match sim.run_with_limit(1) {
                    Err(SimError::EventLimit { at, processed }) => {
                        assert_eq!((at.as_nanos(), processed), (5_000, 1));
                    }
                    other => panic!("expected EventLimit, got {other:?}"),
                }
            } else {
                h.schedule_in(SimDuration::from_micros(5), call);
            }
            {
                let st = sim.handle.core.state.lock();
                let in_slot = matches!(&st.next, Some(e) if matches!(e.kind, EventKind::Call(_)));
                assert!(
                    in_slot && st.heap.is_empty(),
                    "the call is not alone in the slot"
                );
            }
            let o = Arc::clone(&order);
            sim.handle()
                .on_teardown(move || o.lock().push("hook".into()));
            assert!(
                order.lock().is_empty(),
                "the call was dropped before the simulation"
            );
            drop(sim);
            let at = if run { 5_000 } else { 0 };
            assert_eq!(
                *order.lock(),
                [format!("call dropped at {at}"), "hook".into()]
            );
        }
    }

    #[test]
    fn daemons_do_not_block_completion() {
        let mut sim = Simulation::new();
        let served = Arc::new(AtomicU64::new(0));
        // A daemon that would loop forever.
        {
            let served = Arc::clone(&served);
            sim.spawn_daemon("engine", move |ctx| loop {
                ctx.sleep(SimDuration::from_micros(1));
                served.fetch_add(1, Ordering::Relaxed);
                // Park forever after two ticks (idle engine).
                if served.load(Ordering::Relaxed) == 2 {
                    let _ = ctx.park();
                    unreachable!("daemon should be shut down while parked");
                }
            });
        }
        sim.spawn("worker", |ctx| ctx.sleep(SimDuration::from_micros(10)));
        let end = sim.run().unwrap();
        assert_eq!(end.as_nanos(), 10_000);
        assert_eq!(served.load(Ordering::Relaxed), 2);
    }

    /// A daemon that serves `q` from an idle wait, counting the items it
    /// handled.
    fn spawn_engine(sim: &Simulation, q: &Arc<SimQueue<u32>>) -> Arc<AtomicU64> {
        let (q, handled) = (Arc::clone(q), Arc::new(AtomicU64::new(0)));
        let count = Arc::clone(&handled);
        sim.spawn_daemon("engine", move |ctx| {
            while q.pop_idle(ctx).is_ok() {
                count.fetch_add(1, Ordering::Relaxed);
            }
        });
        handled
    }

    #[test]
    fn a_daemon_woken_with_items_queued_returns_without_handling_them() {
        let mut sim = Simulation::new();
        let q = SimQueue::new(&sim.handle());
        let handled = spawn_engine(&sim, &q);
        let producer_q = Arc::clone(&q);
        sim.spawn("producer", move |_| {
            producer_q.push_wake_after(7, SimDuration::from_micros(10));
        });
        // Two starts; the engine's wake for the item is the event refused.
        match sim.run_with_limit(2) {
            Err(SimError::EventLimit { processed: 2, .. }) => {}
            other => panic!("expected EventLimit after 2 events, got {other:?}"),
        }
        assert_eq!(handled.load(Ordering::Relaxed), 0);
        assert_eq!(q.len(), 1, "teardown popped the queued item");
        assert_eq!(sim.teardown_unwinds(), 0);
    }

    thread_local! {
        static HOOK_CALLS: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    }

    #[test]
    fn a_non_daemon_blocked_in_a_plain_pop_is_unwound_silently() {
        // Count panic-hook calls on this thread (the simulation's only
        // one); other threads' panics go to the previous hook as before.
        let prev = Arc::new(panic::take_hook());
        let chained = Arc::clone(&prev);
        panic::set_hook(Box::new(move |info| {
            HOOK_CALLS.with(|n| n.set(n.get() + 1));
            chained(info);
        }));
        let mut sim = Simulation::new();
        let q = SimQueue::new(&sim.handle());
        spawn_engine(&sim, &q);
        let stuck_q = Arc::clone(&q);
        sim.spawn("stuck", move |ctx| {
            stuck_q.pop(ctx);
            unreachable!("nothing is ever pushed");
        });
        let r = sim.run();
        panic::set_hook(Box::new(move |info| prev(info)));
        match r {
            Err(SimError::Deadlock { parked, .. }) => assert_eq!(parked, ["stuck"]),
            other => panic!("expected deadlock, got {other:?}"),
        }
        // The engine returned; only the blocked worker was unwound.
        assert_eq!(sim.teardown_unwinds(), 1);
        assert_eq!(
            HOOK_CALLS.with(std::cell::Cell::get),
            0,
            "teardown ran the panic hook"
        );
    }

    /// Logs its drop.
    struct LogsDrop(Arc<Mutex<Vec<&'static str>>>);

    impl Drop for LogsDrop {
        fn drop(&mut self) {
            self.0.lock().push("daemon state dropped");
        }
    }

    #[test]
    fn a_returning_daemons_state_is_dropped_before_the_teardown_hooks() {
        let mut sim = Simulation::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let q = SimQueue::<u32>::new(&sim.handle());
        let state = LogsDrop(Arc::clone(&log));
        sim.spawn_daemon("engine", move |ctx| {
            let _state = state;
            while q.pop_idle(ctx).is_ok() {}
        });
        let hook_log = Arc::clone(&log);
        sim.handle()
            .on_teardown(move || hook_log.lock().push("hook"));
        sim.spawn("worker", |ctx| ctx.sleep(SimDuration::from_micros(1)));
        sim.run().expect("the worker finishes");
        assert_eq!(sim.teardown_unwinds(), 0);
        drop(sim);
        assert_eq!(*log.lock(), ["daemon state dropped", "hook"]);
    }

    #[test]
    fn a_park_after_shutdown_unwinds_on_the_spot() {
        let mut sim = Simulation::new();
        let q = SimQueue::<u32>::new(&sim.handle());
        let reached = Arc::new(AtomicU64::new(0));
        // One daemon sleeps after being told to shut down, one waits idle
        // again: neither may be suspended a second time.
        for name in ["sleeps", "waits-again"] {
            let (q, reached) = (Arc::clone(&q), Arc::clone(&reached));
            sim.spawn_daemon(name, move |ctx| {
                assert_eq!(q.pop_idle(ctx), Err(Shutdown));
                if name == "sleeps" {
                    ctx.sleep(SimDuration::from_micros(1));
                } else {
                    let _ = q.pop_idle(ctx);
                }
                reached.fetch_add(1, Ordering::Relaxed);
            });
        }
        sim.spawn("worker", |ctx| ctx.sleep(SimDuration::from_micros(1)));
        sim.run().expect("the worker finishes");
        assert_eq!(sim.teardown_unwinds(), 2);
        assert_eq!(reached.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn deadlock_reports_only_non_daemons() {
        let mut sim = Simulation::new();
        sim.spawn_daemon("idle-engine", |ctx| {
            let _ = ctx.park();
        });
        sim.spawn("stuck", |ctx| {
            let _ = ctx.park(); // nobody will wake us
        });
        match sim.run() {
            Err(SimError::Deadlock { parked, .. }) => {
                assert_eq!(parked, vec!["stuck".to_string()]);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }
}
