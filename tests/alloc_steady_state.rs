//! Counting-allocator regression harness: after warm-up, a full
//! campaign-style work unit — acquire a pooled simulator, run a Paris +
//! classic trace pair (probe construction included), release — performs
//! **zero heap allocations**, whichever destination it probes. This
//! pins what the performance notes used to claim from bench eyeballing:
//!
//! * the event queue (a sorted deque) schedules and pops within the
//!   capacity its first units grew,
//! * in-flight packets live in the `PacketArena`,
//! * probe payloads circulate through `Transport::grab_payload` /
//!   `Transport::release`, and the probes a destination host kept
//!   rejoin the payload pool at `Simulator::reset`,
//! * per-trace bookkeeping (hop records, probe registry, per-hop
//!   progress counters) recycles through `TraceScratch`,
//! * `Simulator::reset` keeps the delivery lanes it drains as spares
//!   for whichever nodes receive next, and the ICMP scratch buffer,
//! * the accumulator's loop, cycle and triple analyses read one stack
//!   address view of each route,
//! * and all of the above hold in both tracer modes: the strictly
//!   sequential `window = 1` discipline and the windowed default, whose
//!   speculative probes and truncated hops must recycle too.
//!
//! A unit that schedules a route change, as a campaign's balancer flap
//! does, is the one exception, and a bounded one: it clones the route
//! it changes, and applying the change copies the node's routing table
//! into the simulator ([`MAX_ALLOCATIONS_PER_ROUTE_CHANGE`]).
//!
//! The file contains exactly one `#[test]`: the counting allocator is
//! installed process-wide (`#[global_allocator]` is a program-level
//! choice), and this file existing solely for that hook keeps the
//! harness honest. The counter itself is per-thread — see
//! [`CountingAllocator`] — so neither sibling tests nor libtest's own
//! machinery can smear allocations into the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use paris_traceroute_repro::anomaly::{for_each_cycle, for_each_loop, for_each_triple};
use paris_traceroute_repro::core::{trace_with, ClassicUdp, ParisUdp, TraceConfig, TraceScratch};
use paris_traceroute_repro::mda::{discover_with, MdaConfig, MdaScratch};
use paris_traceroute_repro::netsim::{
    scenarios, NextHop, SimDuration, SimTransport, SimulatorPool,
};
use paris_traceroute_repro::topogen::{generate, InternetConfig};

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

/// The most allocation calls one unit that schedules a balancer flap may
/// make. Every such unit on `tiny(42)` below makes 4: one for the cloned
/// egress list, and three for the copy of the balancer's routing table
/// that the simulator makes to apply the change.
const MAX_ALLOCATIONS_PER_ROUTE_CHANGE: u64 = 4;

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

    // The same property at campaign scale: units toward the distinct
    // destinations of a generated net, each a trace pair plus the §4
    // analyses the accumulator runs on both routes. Every destination
    // host takes a recycled delivery lane, the probes parked there come
    // back to the payload pool at reset, and loop and cycle detection
    // share a stack address view. The warm-up makes two passes over
    // every destination, so each pool has grown to the net's costliest
    // unit (a silent host's star run parks eight probes) and each pooled
    // payload buffer has served a classic probe, whose payload outgrows
    // a Paris one's; the measured pass probes every destination again,
    // through other flows. Every third unit toward a balanced
    // destination schedules a flap as the campaign's dynamics do — the
    // matched route with its egresses rotated, 80 ms in — and is the
    // only kind of unit allowed to allocate.
    let net = generate(&InternetConfig::tiny(42));
    let mut pool = SimulatorPool::new(net.topology.clone());
    let mut scratch = TraceScratch::new();
    let mut anomalies = 0usize;
    let mut net_unit = |pool: &mut SimulatorPool, scratch: &mut TraceScratch, seed: u16| {
        let config = if seed.is_multiple_of(2) {
            TraceConfig::paper()
        } else {
            TraceConfig { window: 1, ..TraceConfig::paper() }
        };
        let dest = &net.dests[usize::from(seed) % net.dests.len()];
        let addr = dest.addr;
        let mut tx = SimTransport::new(pool.acquire(u64::from(seed)), net.source);
        let sim = tx.simulator_mut();
        let flap = dest.chain.iter().filter(|_| seed.is_multiple_of(3)).find_map(|&node| {
            let Some((prefix, NextHop::Balanced { kind, egresses })) =
                sim.routing_of(node).lookup_entry(addr)
            else {
                return None;
            };
            let mut egresses = egresses.clone();
            egresses.rotate_left(1);
            Some((node, prefix, NextHop::Balanced { kind: *kind, egresses }))
        });
        let changed = flap.is_some();
        if let Some((node, prefix, next_hop)) = flap {
            let at = sim.now() + SimDuration::from_millis(80);
            sim.schedule_route_set(at, node, prefix, Some(next_hop));
        }
        let mut paris = ParisUdp::new(41_000 + seed, 52_000);
        let paris_route = trace_with(&mut tx, &mut paris, addr, config, scratch);
        let mut classic = ClassicUdp::new(seed);
        let classic_route = trace_with(&mut tx, &mut classic, addr, config, scratch);
        pool.release(tx.into_simulator());
        for route in [paris_route, classic_route] {
            for_each_loop(&route, |_| anomalies += 1);
            for_each_cycle(&route, |_| anomalies += 1);
            for_each_triple(&route, |_, _, _| anomalies += 1);
            scratch.recycle(route);
        }
        changed
    };

    let dests = net.dests.len() as u16;
    for seed in 0..2 * dests {
        net_unit(&mut pool, &mut scratch, seed);
    }
    let (mut steady, mut per_change) = (0, Vec::new());
    for seed in 2 * dests..3 * dests {
        let before = allocations();
        let changed = net_unit(&mut pool, &mut scratch, seed);
        let made = allocations() - before;
        if changed {
            per_change.push(made);
        } else {
            steady += made;
        }
    }

    assert!(anomalies > 0, "the analyses must have had something to find");
    assert_eq!(
        steady, 0,
        "trace pairs and their loop, cycle and triple analyses toward {dests} distinct \
         destinations must be allocation-free, saw {steady} allocations"
    );
    assert!(!per_change.is_empty(), "some measured units must schedule a route change");
    let most = per_change.iter().max().copied().unwrap_or(0);
    assert!(
        most > 0 && most <= MAX_ALLOCATIONS_PER_ROUTE_CHANGE,
        "a unit that schedules a route change made {most} allocations \
         (allowed {MAX_ALLOCATIONS_PER_ROUTE_CHANGE}); all: {per_change:?}"
    );
}
