//! Unit tests for the bounded parallel runner: the jobs-in-flight cap,
//! input-order preservation under adversarial completion order, the grid
//! helper's row layout, panic propagation, and the threads=1 sequential
//! path.

use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use bench::runner;

/// The pool never has more than `threads` jobs in flight.
#[test]
fn pool_honors_in_flight_cap() {
    let in_flight = AtomicUsize::new(0);
    let peak = AtomicUsize::new(0);
    let jobs: Vec<usize> = (0..32).collect();
    let results = runner::par_map(&jobs, 4, |_, &j| {
        let cur = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        peak.fetch_max(cur, Ordering::SeqCst);
        // Long enough that many claims overlap if the cap leaked.
        std::thread::sleep(Duration::from_millis(2));
        in_flight.fetch_sub(1, Ordering::SeqCst);
        j * 10
    });
    assert_eq!(results, (0..32).map(|j| j * 10).collect::<Vec<_>>());
    let peak = peak.load(Ordering::SeqCst);
    assert!(peak <= 4, "peak concurrency {peak} exceeded the cap of 4");
    assert!(peak >= 1);
}

/// Results land in input order even when later jobs finish long before
/// earlier ones.
#[test]
fn preserves_input_order_under_adversarial_delays() {
    let jobs: Vec<usize> = (0..16).collect();
    let results = runner::par_map(&jobs, 8, |i, &j| {
        assert_eq!(i, j);
        // Earlier jobs sleep longer: completion order is roughly the
        // reverse of input order.
        std::thread::sleep(Duration::from_millis((16 - j) as u64));
        format!("job-{j}")
    });
    let expected: Vec<String> = (0..16).map(|j| format!("job-{j}")).collect();
    assert_eq!(results, expected);
}

/// A panicking job re-raises on the caller and the pool drains promptly
/// instead of hanging the remaining workers.
#[test]
fn propagates_job_panic_without_hanging() {
    let jobs: Vec<usize> = (0..64).collect();
    let started = AtomicUsize::new(0);
    let t0 = Instant::now();
    let result = panic::catch_unwind(panic::AssertUnwindSafe(|| {
        runner::par_map(&jobs, 4, |_, &j| {
            started.fetch_add(1, Ordering::SeqCst);
            if j == 3 {
                panic!("job 3 exploded");
            }
            std::thread::sleep(Duration::from_millis(1));
            j
        })
    }));
    let payload = result.expect_err("panic should propagate to the caller");
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .map(str::to_string)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(msg.contains("job 3 exploded"), "unexpected payload {msg:?}");
    // The guarantee is prompt propagation, not early abort: workers stop
    // claiming once the panic lands, but on a loaded (or single-core)
    // host the other workers may drain the queue before the panicking
    // thread gets scheduled. Either way the call must return, never hang.
    assert!(started.load(Ordering::SeqCst) >= 1);
    assert!(t0.elapsed() < Duration::from_secs(10));
}

/// `threads = 1` degrades to the exact sequential path: every job runs
/// on the calling thread, in input order.
#[test]
fn threads_one_takes_sequential_path() {
    let caller = std::thread::current().id();
    let order = std::sync::Mutex::new(Vec::new());
    let jobs: Vec<usize> = (0..8).collect();
    let results = runner::par_map(&jobs, 1, |i, &j| {
        assert_eq!(std::thread::current().id(), caller, "job left the caller thread");
        order.lock().unwrap().push(i);
        j + 100
    });
    assert_eq!(results, (100..108).collect::<Vec<_>>());
    assert_eq!(order.into_inner().unwrap(), (0..8).collect::<Vec<_>>());
}

/// A single job never pays for a pool either, whatever the cap.
#[test]
fn single_job_runs_on_caller() {
    let caller = std::thread::current().id();
    let results = runner::par_map(&[42usize], 16, |i, &j| {
        assert_eq!(i, 0);
        assert_eq!(std::thread::current().id(), caller);
        j * 2
    });
    assert_eq!(results, vec![84]);
}

/// `par_grid` runs row-major jobs and hands back rows: `out[r][c]` is
/// `f(rows[r], cols[c])` however unevenly the jobs take their time.
#[test]
fn grid_returns_rows_in_row_major_order() {
    let rows: Vec<usize> = (0..5).collect();
    let cols: Vec<usize> = (0..3).collect();
    let grid = runner::par_grid(&rows, &cols, 4, |&r, &c| {
        // Ragged cost: some early jobs take far longer than later ones.
        std::thread::sleep(Duration::from_millis(((r * 7 + c * 3) % 5) as u64 * 2));
        (r, c)
    });
    let expected: Vec<Vec<(usize, usize)>> = rows
        .iter()
        .map(|&r| cols.iter().map(|&c| (r, c)).collect())
        .collect();
    assert_eq!(grid, expected);
    assert_eq!(runner::par_grid(&rows, &cols, 1, |&r, &c| (r, c)), expected);
    let no_cols: Vec<Vec<u8>> = runner::par_grid(&rows, &[] as &[u8], 4, |_, &c| c);
    assert_eq!(no_cols, vec![Vec::<u8>::new(); 5]);
}

/// Empty job lists are a no-op.
#[test]
fn empty_jobs() {
    let results: Vec<u32> = runner::par_map(&[] as &[u32], 8, |_, &j| j);
    assert!(results.is_empty());
}

/// Thread-count resolution: CLI beats env beats host parallelism.
#[test]
fn resolve_threads_precedence() {
    assert_eq!(runner::resolve_threads(Some(3)), 3);
    assert!(runner::resolve_threads(None) >= 1);
    assert!(runner::available_threads() >= 1);
}
