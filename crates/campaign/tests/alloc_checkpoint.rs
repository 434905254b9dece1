//! Counting-allocator regression harness for the checkpoint driver's
//! warm workers: a checkpointed campaign may request what the plain run
//! requests plus a small multiple of the journal it writes — the record
//! buffers, the per-block folds and their merges — but not a fresh
//! simulator per worker per block, which is what every block paid when
//! `run_block` built its workers' state itself.
//!
//! The file contains exactly one `#[test]`: the counting allocator is
//! installed process-wide (`#[global_allocator]` is a program-level
//! choice), and the campaign's worker threads allocate too, so the
//! tally is process-wide as well and nothing else may run beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use pt_campaign::{run, run_checkpointed, CampaignConfig, CheckpointConfig};
use pt_topogen::{generate, InternetConfig};

/// `System`, tallying the bytes every allocation entry point requests.
struct CountingAllocator;

// A statistic: nothing is published through it, so `Relaxed`.
static REQUESTED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the tally never touches the
// memory being handed out.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: the caller's layout obligations pass straight to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size() as u64, Relaxed);
        System.alloc(layout)
    }

    // SAFETY: as `alloc`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size() as u64, Relaxed);
        System.alloc_zeroed(layout)
    }

    // SAFETY: `ptr` came from `System` through the methods above, with
    // this `layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: `ptr`/`layout` as for `dealloc`; `System` validates the
    // new size against the layout's alignment.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.fetch_add(new_size as u64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Bytes requested while `work` runs, and what it returned.
fn requested_by<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = REQUESTED.load(Relaxed);
    let out = work();
    (REQUESTED.load(Relaxed) - before, out)
}

#[test]
fn checkpointing_every_four_units_builds_no_simulator_per_block() {
    let net = generate(&InternetConfig::tiny(42));
    let config = CampaignConfig { rounds: 4, workers: 2, seed: 99, ..Default::default() };
    let mut path = std::env::temp_dir();
    path.push(format!("pt-alloc-checkpoint-{}.snap", std::process::id()));
    let ckpt =
        CheckpointConfig { path: path.clone(), every_units: 4, stop_after_checkpoints: None };

    // Once unmeasured, so that neither side pays for first-use setup.
    let _ = run(&net, &config);
    let (plain, _) = requested_by(|| run(&net, &config));
    let (checkpointed, result) = requested_by(|| run_checkpointed(&net, &config, &ckpt));
    result.expect("journal written").expect("runs to completion");
    let journal = std::fs::metadata(&path).expect("journal exists").len();
    let _ = std::fs::remove_file(&path);

    // Everything written to the journal — forty block records and a
    // fold rewrite each time they add up to the last one — is a few
    // times the file that is left, and each written byte stands for a
    // few requested ones: a record buffer, the block's fold, the
    // workers' folds it was merged from. Measured at 13 journals; a
    // simulator per worker per block made it 74.
    let allowance = 24 * journal;
    assert!(
        checkpointed <= plain + allowance,
        "40 blocks of 4 units requested {checkpointed} bytes, the plain run {plain}: \
         {} finished journals of {journal} bytes over",
        (checkpointed - plain) / journal
    );
}
