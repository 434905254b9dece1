//! Counting-allocator regression harness for the campaign engine at
//! scale. Four properties, one `#[test]`:
//!
//! * the checkpoint driver's warm workers: a checkpointed campaign may
//!   request what the plain run requests plus a small multiple of the
//!   journal it writes — each block's fold and the campaign fold it
//!   grows, the journal's write buffer — but not a fresh simulator per
//!   worker per block, which is what every block paid when `run_block`
//!   built its workers' state itself, nor worker folds regrown from
//!   empty and merges that copy their keys aside first;
//! * no journal record is held whole: resuming a finished journal
//!   holds fewer bytes at its fullest than the journal has;
//! * no allocation per unit or per destination: `run` and
//!   `run_multipath` over a net with four times the destinations make
//!   at most a logarithmic number of allocation calls more;
//! * no state per node beyond an index: a simulator over that net's
//!   topology requests at most 8 bytes more per node than one over the
//!   smaller net's, whatever its fixed part (the next-hop table, the
//!   arena) holds.
//!
//! The file contains exactly one `#[test]`: the counting allocator is
//! installed process-wide (`#[global_allocator]` is a program-level
//! choice), and the campaign's worker threads allocate too, so the
//! tallies are process-wide as well and nothing else may run beside
//! them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use pt_campaign::{
    run, run_checkpointed, run_multipath, run_resumed, CampaignConfig, CheckpointConfig,
    MultipathConfig,
};
use pt_netsim::Simulator;
use pt_topogen::{generate, InternetConfig, SyntheticInternet};

/// `System`, tallying every allocation entry point's calls and the
/// bytes they request, and the high-water of live bytes.
struct CountingAllocator;

// Statistics: nothing is published through them, so `Relaxed`.
static REQUESTED: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// One call requesting `bytes`, which makes `grown` more bytes live.
fn tally(bytes: usize, grown: usize) {
    REQUESTED.fetch_add(bytes as u64, Relaxed);
    CALLS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(grown as u64, Relaxed) + grown as u64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the tally never touches the
// memory being handed out.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: the caller's layout obligations pass straight to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size(), layout.size());
        System.alloc(layout)
    }

    // SAFETY: as `alloc`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size(), layout.size());
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
        tally(new_size, new_size.saturating_sub(layout.size()));
        LIVE.fetch_sub(layout.size().saturating_sub(new_size) as u64, Relaxed);
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

/// The most bytes live at once while `work` runs, above those live
/// when it starts, and what it returned.
fn peak_of<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let out = work();
    (PEAK.load(Relaxed) - before, out)
}

/// Allocation calls made while `work` runs.
fn calls_by(work: impl FnOnce()) -> u64 {
    let before = CALLS.load(Relaxed);
    work();
    CALLS.load(Relaxed) - before
}

#[test]
fn checkpointing_every_four_units_builds_no_simulator_per_block() {
    let tiny = InternetConfig::tiny(42);
    let net = generate(&tiny);
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
    // times the file that is left, and each written byte stands for
    // less than one requested: the block's fold, the campaign fold it
    // grows, and one write buffer the journal keeps. Measured at 0.8 to
    // 2.1 journals over 40 runs (two workers, so the split of work
    // varies). A write buffer per record made it 4.2 to 4.8, worker
    // folds built empty each block and a merge that listed its new keys
    // in a vector of their own 8.4 to 9.7, a record built whole in a
    // buffer before it was written 10.9 to 12.4, and a simulator per
    // worker per block 74.
    let allowance = 3 * journal;
    assert!(
        checkpointed <= plain + allowance,
        "40 blocks of 4 units requested {checkpointed} bytes, the plain run {plain}: \
         {} finished journals of {journal} bytes over",
        (checkpointed - plain) / journal
    );

    // Four times the destinations, and so the units. What may grow is
    // warm-up: each buffer that grows by doubling — the accumulators'
    // sets and maps, the multipath fold, the event queue, the pools and
    // lanes — may double a couple more times, and the larger net's
    // costliest unit may outgrow the smaller's, so the payload pool and
    // the MDA hop states reach further. That is 128 calls per doubling
    // of the destinations; measured, 92 side by side and 133 in
    // multipath. A cost per destination or per unit is 480 more units'
    // worth: a fresh delivery lane per destination host and an address
    // vector per route made it 2 310 calls side by side, and a capped
    // payload pool 1 134 in multipath. One worker, so that which worker
    // warms what is not the scheduler's choice.
    let large = generate(&InternetConfig { n_destinations: 4 * net.dests.len(), ..tiny });
    let slack = 128 * u64::from(4u32.ilog2());
    let pair = CampaignConfig { workers: 1, ..config };
    let multipath = MultipathConfig { rounds: 4, workers: 1, seed: 99, ..Default::default() };
    let calls = |net: &SyntheticInternet| {
        let side_by_side = calls_by(|| _ = run(net, &pair));
        [("run", side_by_side), ("run_multipath", calls_by(|| _ = run_multipath(net, &multipath)))]
    };
    for ((mode, small_calls), (_, large_calls)) in calls(&net).into_iter().zip(calls(&large)) {
        assert!(
            large_calls <= small_calls + slack,
            "{mode}: {} destinations made {small_calls} allocation calls, {} made {large_calls}: \
             over the {slack} that growing by doubling allows",
            net.dests.len(),
            large.dests.len()
        );
    }

    // A unit touches a few dozen nodes, so a simulator holds state for
    // those and one 4-byte index per node of the topology. A node state
    // and a delivery lane per node made it 64 bytes.
    let sim_bytes =
        |net: &SyntheticInternet| requested_by(|| Simulator::new(net.topology.clone(), 1)).0;
    let (small_nodes, large_nodes) = (net.topology.nodes.len(), large.topology.nodes.len());
    let (small_sim, large_sim) = (sim_bytes(&net), sim_bytes(&large));
    let extra_nodes = (large_nodes - small_nodes) as u64;
    assert!(
        large_sim <= small_sim + 8 * extra_nodes,
        "a simulator over {small_nodes} nodes requested {small_sim} bytes, over {large_nodes} \
         nodes {large_sim}: {} bytes per extra node, over 8",
        large_sim.saturating_sub(small_sim) / extra_nodes
    );

    // A finished journal over the larger net — a fold record and the
    // block records after it — resumes a record at a time: the fold,
    // parsed and merged, and one read buffer, measured at 0.59 of the
    // journal's bytes. Reading each record's body whole before parsing
    // it made 1.44.
    let ckpt = CheckpointConfig { every_units: 16, ..ckpt };
    run_checkpointed(&large, &pair, &ckpt).expect("journal written").expect("runs to completion");
    let journal = std::fs::metadata(&path).expect("journal exists").len();
    let (peak, resumed) = peak_of(|| run_resumed(&large, &pair, &ckpt));
    resumed.expect("journal read").expect("finalizes");
    let _ = std::fs::remove_file(&path);
    assert!(
        peak < journal,
        "resuming a finished journal of {journal} bytes held {peak} bytes at its fullest"
    );
}
