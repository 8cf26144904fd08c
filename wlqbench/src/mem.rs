//! Memory measurement: a counting global allocator for per-layer resident
//! bytes, and the kernel's peak-RSS figures for end-to-end memory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// The system allocator, counting live heap bytes while enabled.
///
/// Counting is off on untraced runs, so end-to-end timings pay only one
/// relaxed load per allocation. The counters publish no other data, so
/// relaxed ordering suffices.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's layout and
// pointer unchanged; the counters only observe sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Ordering::Relaxed) {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        // SAFETY: forwarded unchanged; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Starts counting heap bytes. Frees of blocks allocated before this call
/// make the counter wrap, so only differences taken around one
/// allocation-owning call ([`resident_mb`]) mean anything.
pub fn enable_counting() {
    COUNTING.store(true, Ordering::Relaxed);
}

/// Heap bytes allocated minus freed since counting started (wrapping).
fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Runs `f` and returns its result with the net heap bytes it left live,
/// in MiB. Meaningful only after [`enable_counting`].
pub fn resident_mb<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let before = live_bytes();
    let r = f();
    let grown = live_bytes().wrapping_sub(before) as isize;
    (r, grown as f64 / (1024.0 * 1024.0))
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` from `<sys/resource.h>` on 64-bit Linux.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

/// Largest peak RSS of any waited-for child process, in MiB.
pub fn children_peak_rss_mb() -> f64 {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a valid, writable `struct rusage` for the call.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    usage.maxrss as f64 / 1024.0
}

/// Returns freed heap pages to the kernel, then resets this process's
/// peak-RSS mark to its current RSS, so that [`self_peak_rss_mb`] covers
/// only what follows. Returns whether the kernel accepted the reset.
pub fn reset_self_peak_rss() -> bool {
    // SAFETY: `malloc_trim` takes no pointers and only releases free pages.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// This process's peak RSS (`VmHWM`), in MiB.
pub fn self_peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
