//! Ten thousand live processes: each gets a 2 MiB coroutine stack, but
//! the kernel commits only the pages a process touches, so the run stays
//! fast and small. (Alone in its test binary, so the process-wide peak RSS
//! it reads belongs to this test.)

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dsim::{SimDuration, Simulation};

const PROCS: u64 = 10_000;

/// A `kB` field of /proc/self/status.
fn status_kib(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find(|l| l.starts_with(field))
        .unwrap_or_else(|| panic!("no {field} in /proc/self/status"));
    line.split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("kB value")
}

#[test]
fn ten_thousand_sleeping_processes_commit_stacks_lazily() {
    let rss_before = status_kib("VmRSS:");
    let started = Instant::now();
    let finished = Arc::new(AtomicU64::new(0));
    let mut sim = Simulation::new();
    for i in 0..PROCS {
        let finished = Arc::clone(&finished);
        sim.spawn(format!("p{i}"), move |ctx| {
            ctx.sleep(SimDuration::from_micros(1 + i % 7));
            finished.fetch_add(1, Ordering::Relaxed);
        });
    }
    let end = sim.run().expect("all processes finish");
    let elapsed = started.elapsed();
    let peak_growth_kib = status_kib("VmHWM:").saturating_sub(rss_before);

    assert_eq!(end.as_nanos(), 7_000);
    assert_eq!(finished.load(Ordering::Relaxed), PROCS);
    assert_eq!(sim.events_processed(), 2 * PROCS);
    eprintln!("{PROCS} processes: {elapsed:?}, peak RSS growth {peak_growth_kib} KiB");
    assert!(elapsed.as_secs() < 10, "took {elapsed:?}");
    // Fully committed stacks would need 2 MiB each (20 GB in all).
    let per_proc = peak_growth_kib / PROCS;
    assert!(per_proc <= 32, "{per_proc} KiB of peak RSS per process");
}
