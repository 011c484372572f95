//! Host-side counters of the benchmark process: a counting global
//! allocator, `getrusage`, and the host fingerprint printed with every
//! result.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The system allocator, counting every allocation and its bytes. The
/// counters are statistics that publish no other data, so `Relaxed`.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters only
// observe.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; see the impl comment.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; see the impl comment.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; see the impl comment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; see the impl comment.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// A snapshot of the process's host resource counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub user: Duration,
    pub sys: Duration,
    pub vol_csw: u64,
    pub invol_csw: u64,
    /// Peak resident set size so far, in KiB.
    pub max_rss_kib: u64,
}

impl Usage {
    /// Counters accumulated between `earlier` and `self`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            allocs: self.allocs - earlier.allocs,
            alloc_bytes: self.alloc_bytes - earlier.alloc_bytes,
            user: self.user.saturating_sub(earlier.user),
            sys: self.sys.saturating_sub(earlier.sys),
            vol_csw: self.vol_csw - earlier.vol_csw,
            invol_csw: self.invol_csw - earlier.invol_csw,
            max_rss_kib: self.max_rss_kib,
        }
    }
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    longs: [i64; 14],
}

const RUSAGE_SELF: i32 = 0;
const MAXRSS: usize = 0;
const NVCSW: usize = 12;
const NIVCSW: usize = 13;

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

fn timeval(tv: [i64; 2]) -> Duration {
    Duration::from_secs(tv[0] as u64) + Duration::from_micros(tv[1] as u64)
}

/// Read the counters now. `RUSAGE_SELF` sums every thread of the process,
/// including the exited threads of finished simulations.
pub fn usage() -> Usage {
    let mut ru = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        longs: [0; 14],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` of the 64-bit Linux
    // layout, which is all `getrusage` writes to.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    Usage {
        allocs: ALLOCS.load(Ordering::Relaxed),
        alloc_bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        user: timeval(ru.utime),
        sys: timeval(ru.stime),
        vol_csw: ru.longs[NVCSW] as u64,
        invol_csw: ru.longs[NIVCSW] as u64,
        max_rss_kib: ru.longs[MAXRSS] as u64,
    }
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// Host fingerprint: wall-clock figures compare only between results
/// with the same one.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_owned());
    format!(
        "nproc={nproc} rustc=\"{}\" cpu=\"{cpu}\" kernel={kernel} commit={}",
        first_line_of("rustc", &["-V"]),
        first_line_of("git", &["rev-parse", "--short=12", "HEAD"]),
    )
}
