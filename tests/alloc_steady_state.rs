//! Counting-allocator regression harness: after warm-up, a full
//! campaign-style work unit — acquire a pooled simulator, run a Paris +
//! classic trace pair (probe construction included), release — performs
//! **zero heap allocations**. This pins what the performance notes used
//! to claim from bench eyeballing:
//!
//! * the event queue (a sorted deque) schedules and pops within the
//!   capacity its first units grew,
//! * in-flight packets live in the `PacketArena`,
//! * probe payloads circulate through `Transport::grab_payload` /
//!   `Transport::release`,
//! * per-trace bookkeeping (hop records, probe registry, per-hop
//!   progress counters) recycles through `TraceScratch`,
//! * inbox lanes and the ICMP scratch buffer keep their capacity across
//!   `Simulator::reset`,
//! * and all of the above hold in both tracer modes: the strictly
//!   sequential `window = 1` discipline and the windowed default, whose
//!   speculative probes and truncated hops must recycle too.
//!
//! The file contains exactly one `#[test]`: the counting allocator is
//! installed process-wide (`#[global_allocator]` is a program-level
//! choice), and this file existing solely for that hook keeps the
//! harness honest. The counter itself is per-thread — see
//! [`CountingAllocator`] — so neither sibling tests nor libtest's own
//! machinery can smear allocations into the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use paris_traceroute_repro::core::{trace_with, ClassicUdp, ParisUdp, TraceConfig, TraceScratch};
use paris_traceroute_repro::mda::{discover_with, MdaConfig, MdaScratch};
use paris_traceroute_repro::netsim::{scenarios, SimTransport, SimulatorPool};

/// `System`, but counting every allocation entry point. Deallocations
/// are free and uncounted: the property under test is "no allocator
/// traffic in steady state", and reallocs count as allocations.
///
/// The counter is **per-thread**: the work units under test are
/// single-threaded, and a process-global counter picks up libtest's
/// machinery — its main thread lazily initializes the mpmc channel
/// context for its result `recv` the first time that call actually
/// parks, which is scheduling-dependent and intermittently landed a
/// couple of harness allocations inside the measured window. A
/// const-initialized `Cell<u64>` with no destructor is allocator-safe:
/// first touch neither allocates nor registers a TLS destructor.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // `try_with` never fails for a const-init, non-Drop TLS value; the
    // guard is belt-and-braces for allocations during thread teardown.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System`, which upholds the
// `GlobalAlloc` contract; the thread-local counter never touches the
// memory.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: caller's layout obligations pass straight to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }

    // SAFETY: `ptr` was produced by `System` via the methods above.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: same forwarding; `System` validates the layout pair.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: direct delegation to `System::alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations made by *this* thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(|c| c.get())
}

#[test]
fn steady_state_trace_pair_allocates_nothing() {
    // The same shape as one campaign work unit, over the fig-1 style
    // scenario (a per-flow load-balanced diamond mid-path), so balanced
    // egress, ICMP quoting and terminal responses are all on the path.
    let sc = scenarios::fig1(paris_traceroute_repro::netsim::BalancerKind::PerFlow(
        paris_traceroute_repro::wire::FlowPolicy::FiveTuple,
    ));
    let mut pool = SimulatorPool::new(sc.topology.clone());
    let mut scratch = TraceScratch::new();

    let unit = |pool: &mut SimulatorPool, scratch: &mut TraceScratch, seed: u64| {
        // Alternate between the windowed default and the sequential
        // window so both drive loops are pinned allocation-free.
        let config = if seed.is_multiple_of(2) {
            TraceConfig::paper()
        } else {
            TraceConfig { window: 1, ..TraceConfig::paper() }
        };
        let sim = pool.acquire(seed);
        let mut tx = SimTransport::new(sim, sc.source);
        let mut paris = ParisUdp::new(41_000 + (seed as u16 & 0xff), 52_000);
        let route = trace_with(&mut tx, &mut paris, sc.destination, config, scratch);
        assert!(route.reached_destination(), "scenario must stay healthy (seed {seed})");
        scratch.recycle(route);
        let mut classic = ClassicUdp::new(seed as u16 & 0x7fff);
        let route = trace_with(&mut tx, &mut classic, sc.destination, config, scratch);
        assert!(route.reached_destination(), "scenario must stay healthy (seed {seed})");
        scratch.recycle(route);
        pool.release(tx.into_simulator());
    };

    // Warm-up: fill the arena, the event queue's deque, the payload
    // pool, the scratch pools and every lane/queue capacity.
    for seed in 0..5 {
        unit(&mut pool, &mut scratch, seed);
    }

    let before = allocations();
    for seed in 5..25 {
        unit(&mut pool, &mut scratch, seed);
    }
    let during = allocations() - before;

    assert_eq!(
        during, 0,
        "steady-state trace pairs must be allocation-free, saw {during} allocations \
         over 20 work units (probe construction included)"
    );

    // The same property for warm MDA multipath discovery: a full hop
    // enumeration — flow-varied probe construction, the windowed
    // registry, per-hop commit state, DAG link derivation, the inline
    // classification batch — recycles everything through `MdaScratch`
    // and the simulator pools. Runs inside this single #[test] so the
    // whole steady-state story lives under one measured harness.
    let sc6 = scenarios::fig6(paris_traceroute_repro::netsim::BalancerKind::PerFlow(
        paris_traceroute_repro::wire::FlowPolicy::FiveTuple,
    ));
    let mut mda_pool = SimulatorPool::new(sc6.topology.clone());
    let mut mda_scratch = MdaScratch::new();
    let mda_unit = |pool: &mut SimulatorPool, scratch: &mut MdaScratch, seed: u64| {
        // Alternate windowed and sequential walks so both drive loops
        // are pinned allocation-free. Campaign-grade alpha: at the
        // paper's 0.05 the stopping rule misses a branch on a few
        // percent of (hop, seed) combinations by design, and this test
        // asserts the full diamond on every seed.
        let base = MdaConfig { alpha: 0.01, ..MdaConfig::default() };
        let config = if seed.is_multiple_of(2) { base } else { MdaConfig { window: 1, ..base } };
        let sim = pool.acquire(seed);
        let mut tx = SimTransport::new(sim, sc6.source);
        let map = discover_with(&mut tx, sc6.destination, &config, scratch);
        assert!(map.reached, "fig6 must stay healthy (seed {seed})");
        assert_eq!(map.max_width(), 3, "the diamond must be enumerated (seed {seed})");
        scratch.recycle(map);
        pool.release(tx.into_simulator());
    };

    for seed in 0..5 {
        mda_unit(&mut mda_pool, &mut mda_scratch, seed);
    }
    let before = allocations();
    for seed in 5..15 {
        mda_unit(&mut mda_pool, &mut mda_scratch, seed);
    }
    let during = allocations() - before;

    assert_eq!(
        during, 0,
        "steady-state MDA hop enumeration must be allocation-free, saw {during} allocations \
         over 10 discovery walks (flow-varied probe construction included)"
    );
}
