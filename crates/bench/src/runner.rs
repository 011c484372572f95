//! The one measurement path of the experiment suite: `run_point` runs
//! one experiment point in a fresh [`dsim::Simulation`] and collects what
//! it reports; [`par_map`] and [`par_grid`] run many such points on a
//! bounded pool of host threads.
//!
//! The experiment suite is embarrassingly parallel: every measurement
//! point runs in a **fresh** simulation (no cross-talk between points),
//! so points can execute concurrently on host threads without changing
//! anything simulated. [`par_map`] executes a slice of such jobs on a
//! bounded pool of `std::thread::scope` workers and writes each result
//! into its input-index slot, so the collected output is byte-identical
//! to the sequential loop regardless of thread count or completion
//! order. [`par_grid`] does the same for a rows × columns grid and hands
//! the results back as rows.
//!
//! The concurrency cap counts **jobs in flight** (simulations): each
//! `Simulation` runs all of its processes as coroutines on the worker
//! thread that runs it, so one job is one host thread.
//!
//! The cap is `--threads N` on a bench binary, else
//! `std::thread::available_parallelism()`. A cap of 1 degrades to the
//! exact sequential path — no worker threads are spawned at all.
//!
//! **Invariant (DESIGN.md §7):** parallelism is host-side only. Every
//! virtual-time number, event count, and rendered table byte is identical
//! at any thread count; the runner only changes host wall-clock.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use dsim::{ProcStats, SchedStats, Simulation, TraceConfig, TraceData};

/// Everything one measurement simulation reports.
///
/// `value` is what the point measures (µs for latency runs, Mb/s for
/// bandwidth runs, a [`crate::table1::Cell`] for an FTP transfer, …).
/// Tracing observes, never perturbs: `value`, `stats` and `procs` are
/// identical whether the run was traced or not.
#[derive(Debug, Clone)]
pub struct RunOutput<T = f64> {
    /// The measured value.
    pub value: T,
    /// Whole-simulation scheduler counters.
    pub stats: SchedStats,
    /// Per-process virtual run-time / wakeup accounting, pid order.
    pub procs: Vec<ProcStats>,
    /// The recorded trace, when tracing was enabled.
    pub trace: Option<TraceData>,
}

/// Where a measurement's processes report its value: set at most once;
/// a run that never sets it reports `T::default()`.
pub(crate) type Report<T> = Arc<OnceLock<T>>;

/// Run one experiment point in a fresh simulation, traced when `trace`
/// is `Some`.
///
/// `setup` builds the platform and spawns the workload on the new
/// simulation, handing its processes the [`Report`] slot. Whatever
/// `setup` returns comes back beside the output, to be read after the
/// run (the fault sweep reads its lossy lane's counters there).
///
/// # Panics
///
/// If the simulation fails (deadlock, a panicking process, …).
pub(crate) fn run_point<T, A>(
    trace: Option<TraceConfig>,
    setup: impl FnOnce(&Simulation, Report<T>) -> A,
) -> (RunOutput<T>, A)
where
    T: Clone + Default,
{
    let mut sim = Simulation::with_trace(trace);
    let report = Report::default();
    let after = setup(&sim, Arc::clone(&report));
    sim.run().expect("measurement simulation failed");
    let out = RunOutput {
        value: report.get().cloned().unwrap_or_default(),
        stats: sim.sched_stats(),
        procs: sim.proc_stats(),
        trace: sim.take_trace(),
    };
    (out, after)
}

/// Host parallelism as reported by the OS (1 when unknown).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resolve the cap from an optional explicit CLI value (`--threads N`),
/// falling back to [`available_threads`].
pub fn resolve_threads(cli: Option<usize>) -> usize {
    match cli {
        Some(n) if n >= 1 => n,
        _ => available_threads(),
    }
}

/// Jobs run outside every lock, so a panicking job poisons none.
const UNPOISONED: &str = "runner: lock poisoned outside a job";

/// Run `f` over every job on at most `threads` concurrent workers,
/// collecting results **in input order**.
///
/// * `threads <= 1` (or a single job) takes the exact sequential path:
///   the jobs run on the calling thread, in order, with no pool.
/// * Otherwise `min(threads, jobs.len())` scoped workers claim indices
///   from a shared counter and write each result into its index slot;
///   completion order never affects the output.
/// * If a job panics, the panic is re-raised on the caller once the
///   pool drains: remaining workers stop claiming new jobs (each
///   finishes at most its current one), so propagation never hangs.
pub fn par_map<T, R, F>(jobs: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if threads <= 1 || jobs.len() <= 1 {
        return jobs.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let workers = threads.min(jobs.len());
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let slots: Vec<Mutex<Option<R>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    let first_panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (next, abort, slots, first_panic, f) =
                (&next, &abort, &slots, &first_panic, &f);
            std::thread::Builder::new()
                .name(format!("bench-w{w}"))
                .spawn_scoped(scope, move || loop {
                    if abort.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs.len() {
                        break;
                    }
                    match panic::catch_unwind(AssertUnwindSafe(|| f(i, &jobs[i]))) {
                        Ok(r) => *slots[i].lock().expect(UNPOISONED) = Some(r),
                        Err(payload) => {
                            abort.store(true, Ordering::Relaxed);
                            let mut g = first_panic.lock().expect(UNPOISONED);
                            if g.is_none() {
                                *g = Some(payload);
                            }
                            break;
                        }
                    }
                })
                .expect("runner: failed to spawn worker thread");
        }
    });
    if let Some(payload) = first_panic.into_inner().expect(UNPOISONED) {
        panic::resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect(UNPOISONED)
                .expect("runner: job produced no result")
        })
        .collect()
}

/// Run `f` over every `(row, column)` pair of a `rows × columns` grid on
/// at most `threads` concurrent workers (row-major jobs, through
/// [`par_map`]), handing the results back as rows: `out[r][c]` is
/// `f(&rows[r], &cols[c])`.
pub fn par_grid<R, C, T, F>(rows: &[R], cols: &[C], threads: usize, f: F) -> Vec<Vec<T>>
where
    R: Sync,
    C: Sync,
    T: Send,
    F: Fn(&R, &C) -> T + Sync,
{
    let jobs: Vec<(&R, &C)> = rows
        .iter()
        .flat_map(|r| cols.iter().map(move |c| (r, c)))
        .collect();
    let mut flat = par_map(&jobs, threads, |_, &(r, c)| f(r, c)).into_iter();
    rows.iter()
        .map(|_| flat.by_ref().take(cols.len()).collect())
        .collect()
}
