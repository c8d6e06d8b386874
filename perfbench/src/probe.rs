//! Process-level probes: a counting allocator and per-thread CPU time
//! read from `/proc`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Counts allocations while [`enable_alloc_counting`] is on: process-wide
/// and per thread. Off, each allocation costs one relaxed load more.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards unchanged to `System`; the bookkeeping
// touches only atomics and a const-initialized thread-local `Cell`
// without a destructor, neither of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

/// Turns allocation counting on or off (traced runs only).
pub fn enable_alloc_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far, all threads.
pub fn allocs_total() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Allocations counted so far on the calling thread.
pub fn allocs_this_thread() -> u64 {
    THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// On-CPU nanoseconds of one thread (`/proc/.../schedstat`, field 1).
fn schedstat_ns(path: &str) -> Option<u64> {
    std::fs::read_to_string(path).ok()?.split_whitespace().next()?.parse().ok()
}

/// CPU time of every live thread of this process, in nanoseconds,
/// keyed by thread id, with the thread's name.
pub fn threads_cpu_ns() -> BTreeMap<u64, (String, u64)> {
    let mut out = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else { return out };
    for entry in dir.flatten() {
        let name = entry.file_name();
        let Some(tid) = name.to_str().and_then(|s| s.parse::<u64>().ok()) else { continue };
        let base = format!("/proc/self/task/{tid}");
        let comm = std::fs::read_to_string(format!("{base}/comm")).unwrap_or_default();
        if let Some(ns) = schedstat_ns(&format!("{base}/schedstat")) {
            out.insert(tid, (comm.trim().to_string(), ns));
        }
    }
    out
}

/// CPU nanoseconds each thread group spent between two
/// [`threads_cpu_ns`] snapshots. Threads born in between count from
/// zero; threads that exited in between are lost (only idle threads of
/// torn-down set-up clusters exit during a measurement).
pub fn cpu_delta_by(
    before: &BTreeMap<u64, (String, u64)>,
    after: &BTreeMap<u64, (String, u64)>,
    group: impl Fn(u64, &str) -> &'static str,
) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (tid, (name, ns)) in after {
        let start = before.get(tid).map_or(0, |(_, b)| *b);
        *out.entry(group(*tid, name)).or_insert(0) += ns.saturating_sub(start);
    }
    out
}

/// The calling thread's kernel thread id.
pub fn this_tid() -> u64 {
    std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name().and_then(|s| s.to_str()).and_then(|s| s.parse().ok()))
        .unwrap_or(0)
}
