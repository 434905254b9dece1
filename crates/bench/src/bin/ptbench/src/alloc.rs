//! The benchmark's counting global allocator: `System`, plus relaxed
//! atomic tallies of allocation calls, bytes requested and the
//! high-water mark of live bytes. The tallies are process-wide (the
//! `checkpoint_churn` workload allocates on two worker threads) and are
//! reset around each repetition's timed region.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// `System` with counters on every entry point.
pub struct CountingAllocator;

// Statistics only: nothing is published through these, so `Relaxed`.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
/// Live bytes at the last `reset`.
static BASE: AtomicU64 = AtomicU64::new(0);

fn grew(requested: usize, live_delta: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(requested as u64, Relaxed);
    let live = LIVE.fetch_add(live_delta as u64, Relaxed) + live_delta as u64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters never touch
// the memory being handed out.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: the caller's layout obligations pass straight to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size(), layout.size());
        System.alloc(layout)
    }

    // SAFETY: as `alloc`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size(), layout.size());
        System.alloc_zeroed(layout)
    }

    // SAFETY: `ptr` came from `System` through the methods above, with
    // this `layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        System.dealloc(ptr, layout)
    }

    // SAFETY: `ptr`/`layout` as for `dealloc`; `System` validates the
    // new size against the layout's alignment.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // One allocator call requesting `new_size` bytes; live bytes
        // move by the difference.
        if new_size >= layout.size() {
            grew(new_size, new_size - layout.size());
        } else {
            grew(new_size, 0);
            LIVE.fetch_sub((layout.size() - new_size) as u64, Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// What the allocator saw since the last [`reset`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// `alloc` + `alloc_zeroed` + `realloc` calls.
    pub allocs: u64,
    /// Bytes those calls requested.
    pub bytes: u64,
    /// High-water of live heap bytes above what was live at the reset:
    /// what the measured code itself held at its fullest, its inputs
    /// (and whatever else the process keeps) excluded.
    pub peak_growth: u64,
}

/// Start a measuring window: zero the call and byte tallies and restart
/// the high-water mark from what is live now.
pub fn reset() {
    ALLOCS.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    let live = LIVE.load(Relaxed);
    BASE.store(live, Relaxed);
    PEAK.store(live, Relaxed);
}

/// The tallies since the last [`reset`].
pub fn snapshot() -> AllocStats {
    AllocStats {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak_growth: PEAK.load(Relaxed).saturating_sub(BASE.load(Relaxed)),
    }
}
