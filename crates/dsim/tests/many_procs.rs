//! Ten thousand live processes: each gets a 2 MiB coroutine stack, but
//! the kernel commits only the pages a process touches, so the run stays
//! fast and small. Finished processes' stacks are cached per OS thread,
//! up to a cap, and unmapped when the thread exits.
//!
//! The tests here read process-wide figures (peak RSS, the stacks mapped
//! in /proc/self/maps), so they run one at a time, each simulation on a
//! thread of its own that is joined before the next test starts.

use std::fs::{self, File};
use std::io::{Read, Seek, SeekFrom};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;

use dsim::{SimDuration, Simulation};

const PROCS: u64 = 10_000;
/// Stacks `dsim::coro` caches per OS thread.
const CACHE_CAP: usize = 64;
/// The word `dsim::coro` writes at the lowest usable address of every
/// stack it maps.
const CANARY: u64 = 0xC0DE_57AC_CA4A_A7E5;

/// Serializes the tests of this file.
static SERIAL: Mutex<()> = Mutex::new(());

/// A `kB` field of /proc/self/status.
fn status_kib(field: &str) -> u64 {
    let status = fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find(|l| l.starts_with(field))
        .unwrap_or_else(|| panic!("no {field} in /proc/self/status"));
    line.split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("kB value")
}

/// Coroutine stacks mapped in this process: a 4 KiB `---p` guard page
/// directly below 2 MiB of `rw-p` memory that starts with the canary.
/// (Thread stacks have the same layout but no canary.)
fn coroutine_stacks() -> usize {
    let maps = fs::read_to_string("/proc/self/maps").expect("procfs");
    let mut mem = File::open("/proc/self/mem").expect("procfs");
    let mut guard_end = None;
    let mut stacks = 0;
    for line in maps.lines() {
        let mut fields = line.split_whitespace();
        let range = fields.next().expect("address range");
        let perms = fields.next().expect("permissions");
        let (lo, hi) = range.split_once('-').expect("lo-hi");
        let lo = u64::from_str_radix(lo, 16).expect("hex address");
        let hi = u64::from_str_radix(hi, 16).expect("hex address");
        if perms == "rw-p" && hi - lo == 2 << 20 && guard_end == Some(lo) {
            let mut word = [0; 8];
            mem.seek(SeekFrom::Start(lo)).expect("seek");
            mem.read_exact(&mut word).expect("mapped memory");
            stacks += usize::from(u64::from_ne_bytes(word) == CANARY);
        }
        guard_end = (perms == "---p" && hi - lo == 4096).then_some(hi);
    }
    stacks
}

/// Run `f` on a new OS thread and join it (thread-local destructors
/// included).
fn on_new_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    thread::spawn(f).join().expect("thread panicked")
}

#[test]
fn ten_thousand_sleeping_processes_commit_stacks_lazily() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let baseline = coroutine_stacks();
    let (elapsed, peak_growth_kib, cached) = on_new_thread(move || {
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
        (elapsed, peak_growth_kib, coroutine_stacks() - baseline)
    });
    eprintln!("{PROCS} processes: {elapsed:?}, peak RSS growth {peak_growth_kib} KiB");
    assert!(elapsed.as_secs() < 10, "took {elapsed:?}");
    // Fully committed stacks would need 2 MiB each (20 GB in all).
    let per_proc = peak_growth_kib / PROCS;
    assert!(per_proc <= 32, "{per_proc} KiB of peak RSS per process");
    // All 10,000 were live at once; the thread kept only the cap's worth,
    // and gave those back when it exited.
    assert_eq!(cached, CACHE_CAP, "stacks cached after the run");
    assert_eq!(coroutine_stacks(), baseline, "stacks left after thread exit");
}

#[test]
fn exiting_threads_unmap_their_cached_stacks() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let baseline = coroutine_stacks();
    for procs in [3, 8, 5] {
        let cached = on_new_thread(move || {
            let mut sim = Simulation::new();
            for i in 0..procs {
                sim.spawn(format!("p{i}"), move |ctx| {
                    ctx.sleep(SimDuration::from_micros(1 + i));
                });
            }
            sim.run().expect("all processes finish");
            coroutine_stacks() - baseline
        });
        assert_eq!(cached, procs as usize, "stacks cached by the thread");
    }
    assert_eq!(coroutine_stacks(), baseline, "a thread's cache outlived it");
}
