//! The side-by-side campaign runner: a pool of workers over one list of
//! per-destination trace tasks.
//!
//! Execution is decomposed into `(destination, round)` work units — one
//! Paris + one classic trace over a pristine per-unit simulator — that
//! `workers` threads claim from a shared cursor, the way the study's 32
//! probing processes worked down one destination list. A worker claims
//! a destination's rounds together and runs them back to back, so the
//! routers, routes and accumulator buckets one round touched are still
//! warm for the next.
//! Every random draw a unit makes (probe ports, dynamics, the
//! simulator's own node RNGs) derives from `splitmix64` mixes of
//! `(campaign seed, destination index, round)`, never from the worker
//! that happens to claim the unit; accumulator merging is
//! order-insensitive and a unit's routes are folded at ingest, not kept
//! ([`replay_unit`] measures any unit's pair again). The result: the
//! campaign's entire [`ComparisonReport`] digest is byte-identical for
//! any worker count, and `workers` is a pure performance knob (the
//! property `tests/it/worker_invariance.rs` pins).

use std::collections::BTreeSet;
use std::net::Ipv4Addr;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pt_anomaly::{compare, CampaignAccumulator, ComparisonReport, ToolReport};
use pt_core::{
    trace_with, ClassicUdp, MeasuredRoute, ParisUdp, StrategyId, TraceConfig, TraceScratch,
};
use pt_mda::{discover_with, BalancerClass, MdaConfig, MdaScratch};
use pt_netsim::routing::NextHop;
use pt_netsim::time::{SimDuration, SimTime};
use pt_netsim::{splitmix64, NodeId, SimTransport, SimulatorPool};
use pt_topogen::{DestInfo, SyntheticInternet};

/// Routing-dynamics knobs: the §4 causes that are *events*, not topology.
#[derive(Debug, Clone, Copy)]
pub struct DynamicsConfig {
    /// Per-trace probability of a transient forwarding loop between two
    /// adjacent branch routers, active while the trace runs (→ genuine
    /// cycles, §4.2).
    pub forwarding_loop_prob: f64,
    /// Delay from trace start to loop activation (lets the trace get past
    /// the access network first). Tuned to the windowed tracer's pacing:
    /// with `TraceConfig::window` probes in flight a trace covers the
    /// access network in a few milliseconds of virtual time, not the
    /// tens a sequential trace took.
    pub forwarding_loop_delay: SimDuration,
    /// How long a transient forwarding loop lasts.
    pub forwarding_loop_window: SimDuration,
    /// Per-trace probability that a load balancer's egress mapping flips
    /// mid-trace, [`BALANCER_FLAP_AFTER`] after it starts (→ routing-change
    /// loops; the source of the paper's 0.25% Paris-only loops).
    pub balancer_flap_prob: f64,
}

/// Delay from trace start to a balancer flap: late enough that a
/// windowed trace is past the access network and probing the branch.
const BALANCER_FLAP_AFTER: SimDuration = SimDuration::from_millis(80);

impl Default for DynamicsConfig {
    fn default() -> Self {
        DynamicsConfig {
            forwarding_loop_prob: 0.0004,
            forwarding_loop_delay: SimDuration::from_millis(30),
            forwarding_loop_window: SimDuration::from_millis(500),
            balancer_flap_prob: 0.008,
        }
    }
}

impl DynamicsConfig {
    /// No routing dynamics at all.
    pub fn none() -> Self {
        DynamicsConfig {
            forwarding_loop_prob: 0.0,
            forwarding_loop_delay: SimDuration::ZERO,
            forwarding_loop_window: SimDuration::ZERO,
            balancer_flap_prob: 0.0,
        }
    }
}

/// Deterministic fault injection for the campaign engines' own
/// crash-safety machinery: force specific `(destination, round)` units
/// to panic or to run away, so quarantine and watchdog paths can be
/// exercised end to end without hoping for a real bug. Units are named
/// by id, `dest × rounds + round`.
#[derive(Debug, Clone, Default)]
pub struct InjectConfig {
    /// Units that panic mid-unit (after their Paris trace, before any
    /// of the unit's results are ingested — proving partial work is
    /// discarded).
    pub panic_units: BTreeSet<u32>,
    /// Units whose simulator gets a *permanent* forwarding loop
    /// installed toward the destination before probing starts: the
    /// trace never terminates organically and only a watchdog budget
    /// (or the max-TTL ceiling) ends it.
    pub runaway_units: BTreeSet<u32>,
}

impl InjectConfig {
    /// No injected faults (the default).
    pub fn none() -> Self {
        InjectConfig::default()
    }
}

/// One quarantined `(destination, round)` unit: the worker caught its
/// panic, discarded every partial result, rebuilt its simulator pool
/// and scratch, and recorded this instead of dying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedUnit {
    /// The unit id: `dest × rounds + round`.
    pub unit: u32,
    /// Destination index into [`SyntheticInternet::dests`].
    pub dest: usize,
    /// Round number.
    pub round: usize,
    /// The destination address the unit was probing.
    pub addr: Ipv4Addr,
    /// The unit's derived seed stream. [`replay_unit`] re-derives it
    /// from `(dest, round)` and runs the unit again in isolation, panic
    /// included.
    pub seed: u64,
    /// The panic payload, when it was a string (the common case);
    /// `"opaque panic payload"` otherwise.
    pub panic: String,
}

/// Campaign parameters (§3's setup).
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Measurement rounds (556 in the paper).
    pub rounds: usize,
    /// Worker threads claiming `(destination, round)` work units (the
    /// paper ran 32 parallel probing processes). Purely a performance
    /// knob: results are bit-identical for any value.
    pub workers: usize,
    /// Per-trace parameters; defaults to the paper's, with the windowed
    /// tracer's default `window` (3 probes in flight per trace — the
    /// virtual-time analogue of the paper's 32 parallel processes).
    /// `trace.window = 1` is the strictly sequential per-probe
    /// discipline; the default dynamics timings are tuned to windowed
    /// pacing (see [`DynamicsConfig::forwarding_loop_delay`]).
    pub trace: TraceConfig,
    /// Routing dynamics.
    pub dynamics: DynamicsConfig,
    /// Campaign-level seed (ports, dynamics draws).
    pub seed: u64,
    /// Deterministic fault injection (crash-safety testing).
    pub inject: InjectConfig,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            rounds: 25,
            workers: 8,
            trace: TraceConfig::paper(),
            dynamics: DynamicsConfig::default(),
            seed: 20061025, // the paper's publication date
            inject: InjectConfig::none(),
        }
    }
}

/// Campaign output: per-tool summaries plus the §4 attribution.
#[derive(Debug)]
pub struct CampaignResult {
    /// Classic traceroute accumulator (for further analysis).
    pub classic: CampaignAccumulator,
    /// Paris traceroute accumulator.
    pub paris: CampaignAccumulator,
    /// Classic summary.
    pub classic_report: ToolReport,
    /// Paris summary.
    pub paris_report: ToolReport,
    /// The classic-vs-Paris attribution.
    pub comparison: ComparisonReport,
    /// Mean virtual seconds of probing per destination: every healthy
    /// unit's clock at its end, summed as integer nanoseconds — so in
    /// any order — and divided once. The number the windowed tracer
    /// divides by roughly `trace.window`.
    pub mean_virtual_secs: f64,
    /// Units whose execution panicked, in unit order. Their partial
    /// results are fully discarded — nothing of a poisoned unit reaches
    /// the accumulators or the virtual-time total — so the healthy-unit
    /// digest is independent of *where* a panic struck and of the worker
    /// count.
    pub quarantined: Vec<QuarantinedUnit>,
}

/// A `(destination, round)` work unit, encoded destination-major as
/// `dest × rounds + round` ([`unit_coords`] decodes it): a destination's
/// rounds are consecutive ids, so a contiguous block of ids holds whole
/// destinations but for its two ends.
pub(crate) type UnitId = u32;

/// What a block of side-by-side units measured. Accumulator merging is
/// order-insensitive (integer counters, sets, and per-key u64 maps), so
/// producers can fold units in any order.
pub(crate) struct BlockOutput {
    pub(crate) classic: CampaignAccumulator,
    pub(crate) paris: CampaignAccumulator,
}

/// An order-insensitive fold of unit results, from that of no units
/// (its `Default`): what one worker accumulates, what a block's workers
/// merge into, and what the checkpoint engine merges blocks into.
pub(crate) trait Fold: Default + Send {
    /// Fold `other` in and leave it empty, this one in the order a
    /// checkpoint record writes it. An empty fold takes `other` whole:
    /// that is how a worker sorts its own fold at a block's end.
    fn absorb(&mut self, other: &mut Self);
    /// Make room, once, as a worker's emptied fold starts a block of
    /// `units` units: for each unit where the fold keeps one per unit,
    /// for as many keys as each set held last where it keeps sets.
    fn reserve(&mut self, _units: usize) {}
}

impl Default for BlockOutput {
    fn default() -> Self {
        BlockOutput {
            classic: CampaignAccumulator::new(StrategyId::ClassicUdp),
            paris: CampaignAccumulator::new(StrategyId::ParisUdp),
        }
    }
}

impl Fold for BlockOutput {
    fn absorb(&mut self, other: &mut BlockOutput) {
        self.classic.absorb(&mut other.classic);
        self.paris.absorb(&mut other.paris);
    }

    /// The sets' sizes at their last merge, whatever the block's units:
    /// a block holds about as many keys as the one before it.
    fn reserve(&mut self, _units: usize) {
        self.classic.reserve_for_refill();
        self.paris.reserve_for_refill();
    }
}

/// A mode's fold, and beside it what every unit yields whatever the
/// mode — its virtual time, or a quarantine record if it panicked —
/// which the engine folds, journals and finalizes itself.
#[derive(Default)]
pub(crate) struct Folded<F> {
    /// What the mode measured.
    pub(crate) measured: F,
    /// The healthy units' virtual times, summed. Each is a `u64` of
    /// nanoseconds and there are at most `u32::MAX`, so the sum cannot
    /// wrap; being of integers, it is the same in any order.
    pub(crate) virtual_ns: u128,
    /// The units that panicked, each with its panic's text.
    pub(crate) quarantined: Vec<(UnitId, String)>,
}

impl<F: Fold> Fold for Folded<F> {
    fn absorb(&mut self, other: &mut Self) {
        self.measured.absorb(&mut other.measured);
        self.virtual_ns += std::mem::take(&mut other.virtual_ns);
        self.quarantined.append(&mut other.quarantined);
        // Which worker or block met which panic is scheduling noise.
        self.quarantined.sort_unstable_by_key(|q| q.0);
    }
}

/// What the engine reads of a mode's configuration: the fields the two
/// config types hold alike, and the salt that keeps the two modes'
/// simulator seeds apart.
pub(crate) struct Common<'a> {
    pub(crate) rounds: usize,
    pub(crate) workers: usize,
    pub(crate) seed: u64,
    pub(crate) inject: &'a InjectConfig,
    pub(crate) sim_salt: u64,
}

/// A unit's coordinates: its id decoded, and the stream every draw it
/// makes derives from.
pub(crate) struct Coords {
    pub(crate) unit: UnitId,
    pub(crate) dest: usize,
    pub(crate) round: usize,
    pub(crate) stream: u64,
}

/// One campaign mode — side-by-side traces or multipath discovery — as
/// the block engine and the checkpoint driver see it: how to probe one
/// unit over the simulator the engine opened for it, how to commit it
/// to a fold, and how to turn the complete fold into the result. The
/// two config types implement it, so a mode *is* its configuration.
pub(crate) trait CampaignMode: Sync {
    /// Per-worker recycled buffers (hop records, probe registries).
    type Scratch: Default + Send;
    /// One unit's raw output, held back from the fold until the unit
    /// is known to have completed: quarantine semantics require that a
    /// panic anywhere in the unit contaminates nothing.
    type Unit;
    /// The order-insensitive fold of units.
    type Fold: Fold;
    /// The finalized campaign result.
    type Result;

    /// Check the mode's own invariants and return what the engine
    /// reads of its configuration.
    fn common(&self) -> Common<'_>;
    /// Probe the unit at `at` through `tx`, a pristine simulator the
    /// engine opened for it, with every draw derived from `at.stream`
    /// so the claiming worker is irrelevant. Must not touch shared
    /// state: the caller commits on success ([`CampaignMode::ingest`])
    /// or discards on panic.
    fn run_unit(
        &self,
        net: &SyntheticInternet,
        tx: &mut SimTransport,
        at: &Coords,
        scratch: &mut Self::Scratch,
    ) -> Self::Unit;
    /// Commit one completed unit to the fold — the only place a unit's
    /// measurements touch shared state.
    fn ingest(
        &self,
        at: &Coords,
        done: Self::Unit,
        scratch: &mut Self::Scratch,
        fold: &mut Self::Fold,
    );
    /// Assemble the final result from the fold of every unit, the mean
    /// virtual seconds per destination and the quarantined units in
    /// unit order. A pure function of its arguments — the reason worker
    /// count, block partitioning and kill points leave the digest as is.
    fn finalize(
        &self,
        net: &SyntheticInternet,
        fold: Self::Fold,
        mean_virtual_secs: f64,
        quarantined: Vec<QuarantinedUnit>,
    ) -> Self::Result;
}

/// Check the invariants every campaign shares; return its unit count.
pub(crate) fn n_units(net: &SyntheticInternet, common: &Common<'_>) -> u32 {
    assert!(common.workers >= 1 && common.rounds >= 1);
    u32::try_from(net.dests.len() * common.rounds).expect("campaign too large for u32 unit ids")
}

/// The result of a campaign's complete fold.
pub(crate) fn finish<M: CampaignMode>(
    net: &SyntheticInternet,
    mode: &M,
    fold: Folded<M::Fold>,
) -> M::Result {
    let n_dests = net.dests.len();
    let mean_virtual_secs = fold.virtual_ns as f64 / 1e9 / n_dests.max(1) as f64;
    let common = mode.common();
    let quarantined = fold.quarantined.into_iter().map(|(unit, panic)| {
        let at = unit_coords(unit, n_dests, &common);
        let addr = net.dests[at.dest].addr;
        QuarantinedUnit { unit, dest: at.dest, round: at.round, addr, seed: at.stream, panic }
    });
    mode.finalize(net, fold.measured, mean_virtual_secs, quarantined.collect())
}

/// One worker's warm state, which outlives a block: a checkpointed
/// campaign keeps one per worker from its first block to its last.
/// After the first unit, every acquire hands back the same simulator
/// (arena slots, payload buffers and event-queue capacity intact) reset
/// for the next destination, and the scratch's hop records and probe
/// registry recycle across every unit — so a block after the first
/// builds no simulator, and a warm unit allocates only when its dynamics
/// schedule a route change: a balancer flap clones the route it
/// rotates, and the simulator copies the node's routing table to apply
/// any change (`tests/alloc_steady_state.rs` bounds both). The worker's
/// fold outlives the block too: [`run_worker`] empties it at the
/// block's end, and it keeps only the sizes its sets reached, for the
/// next block's [`Fold::reserve`].
pub(crate) struct WorkerState<M: CampaignMode> {
    pool: SimulatorPool,
    scratch: M::Scratch,
    fold: Folded<M::Fold>,
    /// The block's fold, absorbed out of `fold` into this empty one at
    /// the block's end, for [`run_block`]'s join to take. It stays here,
    /// not in the thread's join packet, which would be a fold's size.
    sorted: Folded<M::Fold>,
}

impl<M: CampaignMode> WorkerState<M> {
    /// A cold state: the simulator is built by the first unit run over
    /// it, on the worker's own thread.
    fn new(net: &SyntheticInternet) -> Self {
        WorkerState {
            pool: SimulatorPool::new(net.topology.clone()),
            scratch: M::Scratch::default(),
            fold: Folded::default(),
            sorted: Folded::default(),
        }
    }
}

/// The states [`run_block`] runs `mode` over, one per worker thread.
pub(crate) fn worker_states<M: CampaignMode>(
    net: &SyntheticInternet,
    mode: &M,
) -> Vec<WorkerState<M>> {
    (0..mode.common().workers).map(|_| WorkerState::new(net)).collect()
}

/// Run a full side-by-side campaign over `net`.
pub fn run(net: &SyntheticInternet, config: &CampaignConfig) -> CampaignResult {
    run_whole(net, config)
}

/// Measure one `(destination, round)` unit of `config`'s campaign again,
/// alone: its Paris route, then its classic one, exactly as [`run`]
/// measured and folded them. A unit is a pure function of `(net, config,
/// dest, round)`, so the campaign keeps no route; this is how to see
/// one. The unit runs over a cold simulator and outside the quarantine
/// machinery: a unit that panicked in the campaign panics here, with
/// the text its [`QuarantinedUnit::panic`] recorded.
///
/// # Panics
/// Panics when `dest` or `round` is outside the campaign.
pub fn replay_unit(
    net: &SyntheticInternet,
    config: &CampaignConfig,
    dest: usize,
    round: usize,
) -> (MeasuredRoute, MeasuredRoute) {
    let n_dests = net.dests.len();
    let common = config.common();
    let unit = dest * common.rounds + round;
    assert!(
        round < common.rounds && unit < n_units(net, &common) as usize,
        "no unit (dest {dest}, round {round}) in this campaign"
    );
    let at = unit_coords(unit as UnitId, n_dests, &common);
    run_unit(net, config, &common, &at, &mut WorkerState::new(net)).0
}

/// A whole campaign as one block.
fn run_whole<M: CampaignMode>(net: &SyntheticInternet, mode: &M) -> M::Result {
    let n_units = n_units(net, &mode.common());
    // The states are dropped with this statement: finalizing holds the
    // fold, not the simulators beside it.
    let (fold, ()) = run_block(net, mode, 0..n_units, &mut worker_states(net, mode), || ());
    finish(net, mode, fold)
}

/// Execute one contiguous block of units, one thread per state of
/// `workers`, and run `beside` on the calling thread meanwhile — the
/// whole campaign for [`run`] / [`run_multipath`], with nothing beside
/// it, or one checkpoint block for the crash-safe engine in
/// [`crate::snapshot`], which passes the same states block after block
/// and journals the block before beside this one. Returns the block's
/// fold and what `beside` returned, once every worker has joined.
/// Results are independent of the block partitioning, of which worker
/// claims which unit and of what the states ran before, because every
/// unit's draws derive from `(seed, destination, round)` alone and the
/// fold is order-insensitive.
pub(crate) fn run_block<M: CampaignMode, R>(
    net: &SyntheticInternet,
    mode: &M,
    units: Range<UnitId>,
    workers: &mut [WorkerState<M>],
    beside: impl FnOnce() -> R,
) -> (Folded<M::Fold>, R) {
    let n_workers = workers.len().min(units.len());

    // One shared cursor over the block's *runs*: a run is one
    // destination's rounds in the block, and a worker claims the lowest
    // unclaimed run whole, then runs its units back to back — so the
    // simulator's next-hop table and the accumulators' buckets that one
    // round filled serve the next — and no worker idles while a run is
    // unclaimed. Run bounds are `u64`: the run holding a block's last
    // id may end past `u32::MAX`, and every exiting worker bumps the
    // cursor once past the last run. `Relaxed` suffices — the counter
    // publishes no data, and the scope's joins order the folds.
    let rounds = mode.common().rounds as u64;
    let (start, end) = (u64::from(units.start), u64::from(units.end));
    let first = start - start % rounds;
    let cursor = &AtomicUsize::new(0);
    let claimer = || {
        let mut run = 0..0;
        move || {
            if run.is_empty() {
                let lo = first + cursor.fetch_add(1, Ordering::Relaxed) as u64 * rounds;
                run = lo.max(start)..(lo + rounds).min(end);
            }
            // The run's ids are inside the block, so they fit a `UnitId`.
            run.next().map(|unit| unit as UnitId)
        }
    };

    // A worker's fair share of the block's units, which its fold
    // reserves room for where it keeps one entry per unit.
    let share = units.len().div_ceil(n_workers.max(1));
    let workers = &mut workers[..n_workers];
    let beside = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .iter_mut()
            .map(|state| {
                let claim = claimer();
                scope.spawn(move || run_worker(claim, share, net, mode, state))
            })
            .collect();
        let beside = beside();
        // A worker thread only dies if the quarantine machinery itself
        // panicked (unit panics are caught inside `run_worker`).
        for handle in handles {
            handle.join().expect("campaign worker died");
        }
        beside
    });

    // Each worker sorted its fold: what is left is merging runs, the
    // first taken whole.
    let mut merged = Folded::default();
    for state in workers {
        merged.absorb(&mut state.sorted);
    }
    (merged, beside)
}

/// Decode a unit id, `dest × rounds + round`, into its destination and
/// round — the one place that does — and derive its RNG stream. The two
/// independent mixes keep the campaign-level draws (ports, dynamics)
/// and the simulator's node seeds decorrelated. An id past the
/// campaign's last decodes as a round of a later pass over the
/// destinations, so every id names some destination's unit.
fn unit_coords(unit: UnitId, n_dests: usize, common: &Common<'_>) -> Coords {
    let (rounds, per_pass) = (common.rounds, n_dests * common.rounds);
    let (pass, id) = (unit as usize / per_pass, unit as usize % per_pass);
    let (dest, round) = (id / rounds, pass * rounds + id % rounds);
    let dest_stream = splitmix64(common.seed ^ splitmix64(dest as u64 + 1));
    Coords { unit, dest, round, stream: splitmix64(dest_stream ^ (round as u64 + 1)) }
}

/// One unit, opened and closed the one way for both modes and for
/// [`replay_unit`]: a pristine pooled simulator seeded from the unit's
/// stream under the mode's salt, the injected runaway, the mode's
/// probing. Yields its output and the clock's nanoseconds at its end.
fn run_unit<M: CampaignMode>(
    net: &SyntheticInternet,
    mode: &M,
    common: &Common<'_>,
    at: &Coords,
    state: &mut WorkerState<M>,
) -> (M::Unit, u64) {
    let sim = state.pool.acquire(splitmix64(at.stream ^ common.sim_salt));
    let mut tx = SimTransport::new(sim, net.source);
    // Injected runaway: a permanent forwarding loop toward the
    // destination, installed before probing starts and never lifted.
    // Consumes no RNG draws, so healthy units are unaffected.
    if common.inject.runaway_units.contains(&at.unit) {
        install_runaway_loop(&mut tx, &net.dests[at.dest], &net.topology);
    }
    let done = mode.run_unit(net, &mut tx, at, &mut state.scratch);
    let virtual_ns = tx.now().nanos();
    state.pool.release(tx.into_simulator());
    (done, virtual_ns)
}

/// Recover a human-readable message from a caught panic payload.
fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_owned(),
            Err(_) => "opaque panic payload".to_owned(),
        },
    }
}

/// One worker: fold every unit `claim` hands out into the state's
/// fold, until it hands out none, then absorb the fold into the state's
/// empty `sorted` one — so it is sorted on the worker's own thread,
/// beside the other workers. `claim` is the scheduler's whole freedom —
/// production passes [`run_block`]'s shared cursor; a test substitutes
/// any schedule. The fold, emptied at the last block's end, first
/// reserves room for the `expected` units ([`Fold::reserve`]).
fn run_worker<M: CampaignMode>(
    mut claim: impl FnMut() -> Option<UnitId>,
    expected: usize,
    net: &SyntheticInternet,
    mode: &M,
    state: &mut WorkerState<M>,
) {
    let common = mode.common();
    state.fold.measured.reserve(expected);
    while let Some(unit) = claim() {
        let at = unit_coords(unit, net.dests.len(), &common);
        // Unit isolation: a panicking unit is quarantined, not fatal.
        // `run_unit` mutates nothing outside itself — its results only
        // reach the fold via `ingest` after it returns — so catching
        // the unwind discards *all* of the unit's work.
        match catch_unwind(AssertUnwindSafe(|| run_unit(net, mode, &common, &at, state))) {
            Ok((done, virtual_ns)) => {
                mode.ingest(&at, done, &mut state.scratch, &mut state.fold.measured);
                state.fold.virtual_ns += u128::from(virtual_ns);
            }
            Err(payload) => {
                // The unwind may have left the pooled simulator (lost
                // with the dropped transport) and the scratch in
                // arbitrary states; rebuild both so nothing poisoned
                // leaks into later units. The fold holds only units
                // that returned, so it stays.
                state.pool = SimulatorPool::new(net.topology.clone());
                state.scratch = M::Scratch::default();
                state.fold.quarantined.push((unit, panic_text(payload)));
            }
        }
    }
    state.sorted.absorb(&mut state.fold);
}

impl CampaignMode for CampaignConfig {
    type Scratch = TraceScratch;
    /// The Paris route, then the classic one.
    type Unit = (MeasuredRoute, MeasuredRoute);
    type Fold = BlockOutput;
    type Result = CampaignResult;

    fn common(&self) -> Common<'_> {
        let CampaignConfig { rounds, workers, seed, ref inject, .. } = *self;
        Common { rounds, workers, seed, inject, sim_salt: 0x5157_ea11 }
    }

    /// A Paris + classic trace pair.
    fn run_unit(
        &self,
        net: &SyntheticInternet,
        tx: &mut SimTransport,
        at: &Coords,
        scratch: &mut TraceScratch,
    ) -> (MeasuredRoute, MeasuredRoute) {
        let dest = &net.dests[at.dest];
        let mut rng = StdRng::seed_from_u64(at.stream);

        // Routing events are exogenous: draw independently before each
        // trace of the pair.
        schedule_dynamics(&mut rng, tx, dest, &net.topology, self);

        // Paris traceroute first (§3 order), fixed random five-tuple.
        let sp = rng.gen_range(10_000..=60_000);
        let dp = rng.gen_range(10_000..=60_000);
        let mut paris = ParisUdp::new(sp, dp);
        let paris_route = trace_with(tx, &mut paris, dest.addr, self.trace, scratch);

        // Injected panic: after the Paris trace, so the quarantine tests
        // prove a half-done unit's results are discarded wholesale.
        if self.inject.panic_units.contains(&at.unit) {
            panic!("injected fault: unit {} (dest {}, round {})", at.unit, at.dest, at.round);
        }

        schedule_dynamics(&mut rng, tx, dest, &net.topology, self);

        // Then classic traceroute. Each trace is a fresh process in the
        // study, so the PID — and with it the source port — is new every
        // time; this is what lets classic explore different flow mappings
        // across rounds.
        let pid = rng.gen::<u16>() & 0x7fff;
        let mut classic = ClassicUdp::new(pid);
        let classic_route = trace_with(tx, &mut classic, dest.addr, self.trace, scratch);
        (paris_route, classic_route)
    }

    fn ingest(
        &self,
        at: &Coords,
        (paris, classic): (MeasuredRoute, MeasuredRoute),
        scratch: &mut TraceScratch,
        out: &mut BlockOutput,
    ) {
        out.paris.ingest(at.round, &paris);
        out.classic.ingest(at.round, &classic);
        scratch.recycle(paris);
        scratch.recycle(classic);
    }

    /// Compute the two reports and the comparison.
    fn finalize(
        &self,
        _net: &SyntheticInternet,
        BlockOutput { classic, paris }: BlockOutput,
        mean_virtual_secs: f64,
        quarantined: Vec<QuarantinedUnit>,
    ) -> CampaignResult {
        let classic_report = classic.report();
        let paris_report = paris.report();
        let comparison = compare(&classic, &paris);
        CampaignResult {
            classic,
            paris,
            classic_report,
            paris_report,
            comparison,
            mean_virtual_secs,
            quarantined,
        }
    }
}

/// Install a *permanent* two-router forwarding loop toward `dest` on
/// the first adjacent linked pair of its branch chain — the injected
/// runaway fault. Probes toward the destination ping-pong between the
/// pair forever (each transit still decrements TTL and draws a Time
/// Exceeded, so the trace burns its full probe allowance); only a
/// watchdog budget or the max-TTL ceiling ends the trace.
fn install_runaway_loop(tx: &mut SimTransport, dest: &DestInfo, topo: &pt_netsim::Topology) {
    let Some(w) = dest.chain.windows(2).find(|w| topo.iface_toward(w[0], w[1]).is_some()) else {
        panic!("runaway injection: destination {} has no linked adjacent chain pair", dest.addr)
    };
    let now = tx.now();
    schedule_two_router_loop(tx, topo, (w[0], w[1]), dest.addr, now, None);
}

/// Point the linked chain routers `x` and `y` at each other for `dest`
/// from `start` on, a two-router forwarding loop, and with an `end`
/// remove both routes again then. The caller proved x→y is linked; y→x
/// holding too is a topology invariant (links are bidirectional). If
/// either breaks, the panic names the pair: the quarantine layer
/// catches it and reports it instead of killing the worker.
fn schedule_two_router_loop(
    tx: &mut SimTransport,
    topo: &pt_netsim::Topology,
    (x, y): (NodeId, NodeId),
    dest: Ipv4Addr,
    start: SimTime,
    end: Option<SimTime>,
) {
    let dst_pfx = pt_netsim::Ipv4Prefix::host(dest);
    let sim = tx.simulator_mut();
    for (from, to) in [(x, y), (y, x)] {
        let iface = topo.iface_toward(from, to).unwrap_or_else(|| {
            panic!("forwarding loop: no interface from {from:?} toward {to:?} (dest {dest})")
        });
        sim.schedule_route_set(start, from, dst_pfx, Some(NextHop::Iface(iface)));
    }
    if let Some(end) = end {
        sim.schedule_route_set(end, x, dst_pfx, None);
        sim.schedule_route_set(end, y, dst_pfx, None);
    }
}

/// Maybe schedule a transient forwarding loop or a balancer flap covering
/// the upcoming pair of traces toward `dest`.
fn schedule_dynamics(
    rng: &mut StdRng,
    tx: &mut SimTransport,
    dest: &DestInfo,
    topo: &pt_netsim::Topology,
    config: &CampaignConfig,
) {
    let dyn_cfg = config.dynamics;
    let now = tx.now();
    if dyn_cfg.forwarding_loop_prob > 0.0
        && dest.chain.len() >= 2
        && rng.gen_bool(dyn_cfg.forwarding_loop_prob)
    {
        // Pick an adjacent, actually-linked pair along the chain: count
        // the candidates, then draw one's index. The RNG is only
        // consulted when a candidate exists: drawing on an empty
        // candidate list would silently shift every later draw and make
        // the campaign's randomness depend on topology quirks.
        let mut candidates =
            dest.chain.windows(2).filter(|w| topo.iface_toward(w[0], w[1]).is_some());
        let n = candidates.clone().count();
        if let Some(w) = (n > 0).then(|| rng.gen_range(0..n)).and_then(|k| candidates.nth(k)) {
            let start = now + dyn_cfg.forwarding_loop_delay;
            let end = start + dyn_cfg.forwarding_loop_window;
            schedule_two_router_loop(tx, topo, (w[0], w[1]), dest.addr, start, Some(end));
        }
    }
    if dyn_cfg.balancer_flap_prob > 0.0
        && (dest.truth.per_flow_lb || dest.truth.per_packet_lb)
        && rng.gen_bool(dyn_cfg.balancer_flap_prob)
    {
        // Find the balancer on this branch and rotate its egress list —
        // every flow rehashes to a (generally) different path mid-trace.
        // The rotated route must be reinstalled under the *prefix that
        // matched*: installing it under the default prefix would shadow a
        // more specific original route.
        for &node in &dest.chain {
            let current = tx
                .simulator()
                .routing_of(node)
                .lookup_entry(dest.addr)
                .map(|(prefix, nh)| (prefix, nh.clone()));
            if let Some((prefix, NextHop::Balanced { kind, mut egresses })) = current {
                egresses.rotate_left(1);
                let at = now + BALANCER_FLAP_AFTER;
                tx.simulator_mut().schedule_route_set(
                    at,
                    node,
                    prefix,
                    Some(NextHop::Balanced { kind, egresses }),
                );
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------
// The multipath campaign mode: MDA per destination over the same
// (destination, round) worker pool.
// ---------------------------------------------------------------------

/// Multipath-campaign parameters: run windowed MDA discovery toward
/// every destination, `rounds` times, over the worker pool. The same
/// determinism guarantee as the side-by-side campaign holds: every
/// draw derives from `(seed, destination, round)`, so the
/// [`crate::report::multipath_digest`] is byte-identical for any worker
/// count.
#[derive(Debug, Clone)]
pub struct MultipathConfig {
    /// Discovery rounds per destination (one is usually enough: the
    /// stopping rule bounds each test that ends a hop's enumeration by
    /// `mda.alpha`, which keeps a hop's misses rare but does not bound
    /// them by `alpha`).
    pub rounds: usize,
    /// Worker threads claiming `(destination, round)` units. Purely a
    /// performance knob: results are bit-identical for any value.
    pub workers: usize,
    /// Per-destination MDA parameters. The flow family's base source
    /// port and destination port (the study's [10000, 60000]
    /// discipline) and, under [`MultipathConfig::adaptive`], the jitter
    /// seed are drawn per unit from the campaign seed and override what
    /// is set here.
    pub mda: MdaConfig,
    /// Run every unit with the adaptive probing policies
    /// ([`MdaConfig::adaptive`]): backoff retries and pacing against
    /// ICMP rate limiters, a longer star run for MPLS interiors, and
    /// the mid-walk UDP → TCP fallback for filtered paths. The jitter
    /// seed is derived per unit, so results stay bit-identical for any
    /// worker count. Statistical knobs (`alpha`, flow budget, window)
    /// still come from `mda`.
    pub adaptive: bool,
    /// Campaign-level seed.
    pub seed: u64,
    /// Deterministic fault injection (crash-safety testing).
    pub inject: InjectConfig,
}

impl Default for MultipathConfig {
    fn default() -> Self {
        MultipathConfig {
            rounds: 1,
            workers: 8,
            // Campaign-grade confidence. Alpha bounds one stopping test
            // (k interfaces seen, a (k + 1)-th unseen); a width-K hop
            // passes K - 1 of them and a walk may cross several
            // balanced hops, so neither a hop's miss probability nor a
            // walk's is alpha. At the MDA paper's alpha = 0.05 an
            // interface goes missing at ~3-5% of balanced hops, which
            // compounds over a campaign's whole destination list.
            // alpha = 0.01 costs ~3 extra probes per hop and brings
            // full-recovery accuracy against planted ground truth above
            // the 95% acceptance floor.
            mda: MdaConfig { alpha: 0.01, ..MdaConfig::default() },
            adaptive: false,
            seed: 20061025,
            inject: InjectConfig::none(),
        }
    }
}

/// What one `(destination, round)` discovery unit found — the scalar
/// summary of its [`pt_mda::MultipathMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitDiscovery {
    /// Destination index into [`SyntheticInternet::dests`].
    pub dest: usize,
    /// Round number.
    pub round: usize,
    /// The probed address.
    pub addr: Ipv4Addr,
    /// Maximum confident (converged) hop width.
    pub width: usize,
    /// Maximum observed hop width, converged or not.
    pub observed_width: usize,
    /// Discovered branch-length delta.
    pub delta: u8,
    /// Aggregate balancer classification.
    pub class: BalancerClass,
    /// Hops walked.
    pub hops: usize,
    /// Directed DAG links discovered.
    pub links: usize,
    /// Committed stars across all hops.
    pub stars: usize,
    /// Hops whose stopping rule did not converge.
    pub unconverged_hops: usize,
    /// Probes spent.
    pub probes: usize,
    /// The destination itself answered.
    pub reached: bool,
    /// The watchdog budget ([`MdaConfig::probe_budget`]) cut the walk
    /// short: the DAG is a valid but incomplete prefix, and widths are
    /// lower bounds.
    pub degraded: bool,
}

/// Per-destination view merged across rounds: widths/deltas take the
/// maximum, classification takes the strongest evidence (per-packet
/// dominates per-flow dominates undetermined), probes accumulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DestMultipath {
    /// Destination index into [`SyntheticInternet::dests`].
    pub dest: usize,
    /// The probed address.
    pub addr: Ipv4Addr,
    /// Maximum confident width over rounds.
    pub width: usize,
    /// Maximum observed width over rounds.
    pub observed_width: usize,
    /// Maximum discovered delta over rounds.
    pub delta: u8,
    /// Merged classification.
    pub class: BalancerClass,
    /// Total probes over rounds.
    pub probes: usize,
    /// Reached in any round.
    pub reached: bool,
    /// Some round's walk was budget-degraded, so the merged view may
    /// undercount.
    pub degraded: bool,
}

/// Aggregate multipath-campaign statistics — the discovery counterpart
/// of the anomaly [`ToolReport`], rendered next to it by
/// [`crate::report::render_multipath_report`].
#[derive(Debug, Clone, PartialEq)]
pub struct MultipathReport {
    /// Destinations probed.
    pub destinations: usize,
    /// Rounds per destination.
    pub rounds: usize,
    /// Destinations with at least one balanced hop discovered.
    pub balanced_dests: usize,
    /// Destinations classified per-flow.
    pub per_flow_dests: usize,
    /// Destinations classified per-packet.
    pub per_packet_dests: usize,
    /// Balanced destinations whose classification stayed undetermined.
    pub undetermined_dests: usize,
    /// Destinations that answered a probe themselves.
    pub reached_dests: usize,
    /// Histogram of confident widths 2, 3 and ≥ 4 over destinations.
    pub width_hist: [usize; 3],
    /// Histogram of discovered deltas 0, 1 and ≥ 2 over *balanced*
    /// destinations.
    pub delta_hist: [usize; 3],
    /// Mean probes per destination (all rounds).
    pub mean_probes: f64,
    /// Units whose walk a watchdog budget degraded.
    pub degraded_units: usize,
}

/// Multipath campaign output.
#[derive(Debug, Clone)]
pub struct MultipathResult {
    /// Raw per-unit discoveries in `(round, destination)` order,
    /// regardless of worker count.
    pub units: Vec<UnitDiscovery>,
    /// Per-destination merged view, in destination order.
    pub per_dest: Vec<DestMultipath>,
    /// Aggregate statistics over `per_dest`.
    pub report: MultipathReport,
    /// Mean virtual probing seconds per destination, computed as
    /// [`CampaignResult::mean_virtual_secs`] is; the figure the windowed
    /// engine divides.
    pub mean_virtual_secs: f64,
    /// Units whose execution panicked, in unit order — quarantined with
    /// all partial results discarded, exactly like the side-by-side
    /// campaign's [`CampaignResult::quarantined`].
    pub quarantined: Vec<QuarantinedUnit>,
}

/// What a block of multipath units found. Once absorbed, in
/// `(destination, round)` order — which *is* unit order. A worker
/// claims a block's units in ascending order, so absorbing its fold
/// into an empty one sorts nothing.
impl Fold for Vec<UnitDiscovery> {
    fn reserve(&mut self, units: usize) {
        Vec::reserve(self, units);
    }

    fn absorb(&mut self, other: &mut Self) {
        let other = std::mem::take(other);
        let joint = self.len().saturating_sub(1);
        // A fold absorbed into an empty one — a worker's at its block's
        // end, the first at a join — is taken whole, not copied.
        if self.is_empty() {
            *self = other;
        } else {
            self.extend(other);
        }
        // A block's units follow the blocks' before it: past one block's
        // interleaving, look at the new ones only.
        if !self[joint..].is_sorted_by_key(|u| (u.dest, u.round)) {
            self.sort_unstable_by_key(|u| (u.dest, u.round));
        }
    }
}

/// Run a multipath-discovery campaign over `net`: windowed MDA toward
/// every destination, on the same seed-derived `(destination, round)`
/// worker pool as [`run`].
pub fn run_multipath(net: &SyntheticInternet, config: &MultipathConfig) -> MultipathResult {
    run_whole(net, config)
}

impl CampaignMode for MultipathConfig {
    type Scratch = MdaScratch;
    type Unit = UnitDiscovery;
    type Fold = Vec<UnitDiscovery>;
    type Result = MultipathResult;

    fn common(&self) -> Common<'_> {
        let MultipathConfig { rounds, workers, seed, ref inject, .. } = *self;
        // Validated here, not deep inside a worker thread: the per-unit
        // port draw needs room for every flow id above a base in the
        // study's [10000, 60000] range, and one walk's probes must fit the
        // 15-bit probe-id space.
        assert!(
            (1..=4096).contains(&self.mda.max_flows_per_hop),
            "MultipathConfig: max_flows_per_hop must be in 1..=4096, got {}",
            self.mda.max_flows_per_hop
        );
        Common { rounds, workers, seed, inject, sim_salt: 0x6d64_6121 }
    }

    /// A full MDA walk toward one destination.
    fn run_unit(
        &self,
        net: &SyntheticInternet,
        tx: &mut SimTransport,
        at: &Coords,
        scratch: &mut MdaScratch,
    ) -> UnitDiscovery {
        if self.inject.panic_units.contains(&at.unit) {
            panic!("injected fault: unit {} (dest {}, round {})", at.unit, at.dest, at.round);
        }
        let dest = &net.dests[at.dest];
        let mut rng = StdRng::seed_from_u64(at.stream);

        // The study's port discipline: draw the flow family's base source
        // port and the destination port uniformly, leaving room above the
        // base for every flow id.
        let max_flows = self.mda.max_flows_per_hop as u16;
        let base_src_port = rng.gen_range(10_000..=60_000u16.saturating_sub(max_flows));
        let dst_port = rng.gen_range(10_000..=60_000);
        // The adaptive policies' jitter seed comes from the unit stream,
        // so retry schedules are reproducible and worker-count
        // independent.
        let adaptive = self.adaptive.then(|| splitmix64(at.stream ^ 0x6164_7074));
        let mda = MdaConfig { base_src_port, dst_port, adaptive, ..self.mda };
        let map = discover_with(tx, dest.addr, &mda, scratch);

        let discovery = UnitDiscovery {
            dest: at.dest,
            round: at.round,
            addr: dest.addr,
            width: map.max_width(),
            observed_width: map.max_observed_width(),
            delta: map.discovered_delta(),
            class: map.classification(),
            hops: map.hops.len(),
            links: map.links.len(),
            stars: map.hops.iter().map(|h| h.stars).sum(),
            unconverged_hops: map.hops.iter().filter(|h| !h.converged).count(),
            probes: map.total_probes,
            reached: map.reached,
            degraded: map.degraded,
        };
        scratch.recycle(map);
        discovery
    }

    fn ingest(
        &self,
        _at: &Coords,
        done: UnitDiscovery,
        _scratch: &mut MdaScratch,
        out: &mut Vec<UnitDiscovery>,
    ) {
        out.push(done);
    }

    /// Merge rounds into the per-destination view; aggregate the report.
    fn finalize(
        &self,
        net: &SyntheticInternet,
        mut units: Vec<UnitDiscovery>,
        mean_virtual_secs: f64,
        quarantined: Vec<QuarantinedUnit>,
    ) -> MultipathResult {
        let n_dests = net.dests.len();
        // The fold is in unit order; the result lists a round's units
        // together. Merging a destination's rounds is order-free.
        units.sort_unstable_by_key(|u| (u.round, u.dest));
        let mut per_dest: Vec<DestMultipath> = net
            .dests
            .iter()
            .enumerate()
            .map(|(i, d)| DestMultipath {
                dest: i,
                addr: d.addr,
                width: 0,
                observed_width: 0,
                delta: 0,
                class: BalancerClass::NotBalanced,
                probes: 0,
                reached: false,
                degraded: false,
            })
            .collect();
        for u in &units {
            let d = &mut per_dest[u.dest];
            d.width = d.width.max(u.width);
            d.observed_width = d.observed_width.max(u.observed_width);
            d.delta = d.delta.max(u.delta);
            d.class = d.class.max(u.class);
            d.probes += u.probes;
            d.reached |= u.reached;
            d.degraded |= u.degraded;
        }

        let mut report = MultipathReport {
            destinations: n_dests,
            rounds: self.rounds,
            balanced_dests: 0,
            per_flow_dests: 0,
            per_packet_dests: 0,
            undetermined_dests: 0,
            reached_dests: 0,
            width_hist: [0; 3],
            delta_hist: [0; 3],
            mean_probes: 0.0,
            degraded_units: units.iter().filter(|u| u.degraded).count(),
        };
        let mut probes_total = 0usize;
        for d in &per_dest {
            probes_total += d.probes;
            report.reached_dests += usize::from(d.reached);
            match d.class {
                BalancerClass::NotBalanced => continue,
                BalancerClass::PerFlow => report.per_flow_dests += 1,
                BalancerClass::PerPacket => report.per_packet_dests += 1,
                BalancerClass::Undetermined => report.undetermined_dests += 1,
            }
            report.balanced_dests += 1;
            if d.width >= 2 {
                report.width_hist[(d.width - 2).min(2)] += 1;
            }
            report.delta_hist[usize::from(d.delta).min(2)] += 1;
        }
        report.mean_probes = probes_total as f64 / n_dests.max(1) as f64;

        MultipathResult { units, per_dest, report, mean_virtual_secs, quarantined }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_topogen::{generate, InternetConfig};

    fn quick_config(rounds: usize) -> CampaignConfig {
        CampaignConfig { rounds, workers: 4, seed: 99, ..CampaignConfig::default() }
    }

    #[test]
    fn campaign_runs_and_counts_everything() {
        let net = generate(&InternetConfig::tiny(42));
        let result = run(&net, &quick_config(3));
        assert_eq!(result.classic_report.rounds, 3);
        assert_eq!(result.classic_report.routes_total, 3 * 40);
        assert_eq!(result.paris_report.routes_total, 3 * 40);
        assert_eq!(result.classic_report.destinations, 40);
        assert!(result.classic_report.responses > 0);
        assert!(result.mean_virtual_secs > 0.0);
    }

    #[test]
    fn campaign_is_deterministic() {
        let net = generate(&InternetConfig::tiny(42));
        let a = run(&net, &quick_config(2));
        let b = run(&net, &quick_config(2));
        assert_eq!(a.classic_report, b.classic_report);
        assert_eq!(a.paris_report, b.paris_report);
        assert_eq!(a.comparison, b.comparison);
    }

    #[test]
    fn worker_count_is_a_pure_performance_knob() {
        let net = generate(&InternetConfig::tiny(42));
        let base = run(&net, &quick_config(2));
        // 1000 exceeds the 80 units and exercises the clamp.
        for workers in [1, 3, 16, 1000] {
            let cfg = CampaignConfig { rounds: 2, workers, seed: 99, ..CampaignConfig::default() };
            let result = run(&net, &cfg);
            assert_eq!(result.classic_report, base.classic_report, "workers = {workers}");
            assert_eq!(result.paris_report, base.paris_report, "workers = {workers}");
            assert_eq!(result.comparison, base.comparison, "workers = {workers}");
            assert_eq!(result.mean_virtual_secs, base.mean_virtual_secs, "workers = {workers}");
        }
    }

    #[test]
    fn windowed_campaign_measures_sequential_routes_in_less_virtual_time() {
        // On a deterministic network (no link loss, no per-packet
        // balancing, no dynamics) the windowed tracer must measure the
        // exact routes the sequential tracer measures — including
        // star-limit abandonment on firewalled destinations — while
        // spending a fraction of the virtual probing time.
        let config = InternetConfig {
            seed: 31,
            n_destinations: 60,
            per_flow_lb: 0.4,
            per_packet_lb: 0.0,
            zero_ttl: 0.1,
            broken: 0.05,
            nat: 0.0,
            firewalled_dest: 0.2,
            silent_router: 0.05,
            link_loss: 0.0,
            ..InternetConfig::default()
        };
        let net = generate(&config);
        let campaign = |window: u8| {
            let mut cc = quick_config(2);
            cc.dynamics = DynamicsConfig::none();
            cc.trace = TraceConfig { window, ..cc.trace };
            run(&net, &cc)
        };
        let sequential = campaign(1);
        let windowed = campaign(TraceConfig::default().window);
        assert_eq!(windowed.classic_report, sequential.classic_report);
        assert_eq!(windowed.paris_report, sequential.paris_report);
        assert_eq!(windowed.comparison, sequential.comparison);
        let speedup = sequential.mean_virtual_secs / windowed.mean_virtual_secs;
        assert!(
            speedup >= 2.0,
            "windowed probing must cut virtual time per destination >= 2x, got {speedup:.2}x \
             ({:.2}s -> {:.2}s)",
            sequential.mean_virtual_secs,
            windowed.mean_virtual_secs
        );
    }

    #[test]
    fn classic_sees_more_anomalies_than_paris() {
        // The headline result, at small scale: a network dominated by
        // per-flow load balancers gives classic traceroute loops and
        // diamonds that Paris does not see.
        let config = InternetConfig {
            seed: 7,
            n_destinations: 120,
            per_flow_lb: 0.6,
            lb_equal_weight: 0.3,
            lb_delta1_weight: 0.5,
            per_packet_lb: 0.0,
            zero_ttl: 0.0,
            broken: 0.0,
            nat: 0.0,
            firewalled_dest: 0.0,
            silent_router: 0.0,
            link_loss: 0.0,
            ..InternetConfig::default()
        };
        let net = generate(&config);
        let mut cc = quick_config(6);
        cc.dynamics = DynamicsConfig::none();
        let result = run(&net, &cc);
        assert!(
            result.classic_report.pct_routes_with_loop > 2.0,
            "classic loop rate too low: {}",
            result.classic_report.pct_routes_with_loop
        );
        assert!(
            result.paris_report.pct_routes_with_loop
                < result.classic_report.pct_routes_with_loop / 5.0,
            "paris {} vs classic {}",
            result.paris_report.pct_routes_with_loop,
            result.classic_report.pct_routes_with_loop
        );
        assert!(result.classic_report.diamonds_total > result.paris_report.diamonds_total);
        // And the attribution says per-flow LB dominates.
        let pf =
            result.comparison.loop_pct(pt_anomaly::stats::FinalLoopCause::PerFlowLoadBalancing);
        assert!(pf > 80.0, "per-flow share {pf}");
    }

    #[test]
    fn multipath_campaign_discovers_the_balancer_population() {
        let net = generate(&InternetConfig::tiny(42));
        let result = run_multipath(&net, &MultipathConfig { workers: 4, ..Default::default() });
        assert_eq!(result.per_dest.len(), 40);
        assert_eq!(result.units.len(), 40);
        let truth_balanced = net.dests.iter().filter(|d| d.truth.has_balancer()).count();
        assert!(truth_balanced > 0, "tiny(42) must plant balancers");
        assert!(
            result.report.balanced_dests >= truth_balanced * 9 / 10,
            "discovered {} of {truth_balanced} balancers",
            result.report.balanced_dests
        );
        assert!(result.report.per_flow_dests >= result.report.per_packet_dests);
        assert!(result.mean_virtual_secs > 0.0);
        assert!(result.report.mean_probes > 0.0);
    }

    #[test]
    fn multipath_worker_count_is_a_pure_performance_knob() {
        let net = generate(&InternetConfig::tiny(42));
        let digest = |workers: usize| {
            let config = MultipathConfig { rounds: 2, workers, seed: 7, ..Default::default() };
            crate::report::multipath_digest(&run_multipath(&net, &config))
        };
        let baseline = digest(1);
        for workers in [3, 16, 1000] {
            assert_eq!(digest(workers), baseline, "workers = {workers}");
        }
    }

    #[test]
    fn windowed_multipath_discovers_sequential_dags_in_less_virtual_time() {
        // On a deterministic network (no loss, no per-packet balancing)
        // the probing window is a pure virtual-time knob: every unit's
        // discovery — width, delta, class, hops, links, stars — must be
        // identical, while the probing time per destination collapses.
        let config = InternetConfig {
            seed: 31,
            n_destinations: 40,
            per_flow_lb: 0.5,
            lb_delta1_weight: 0.3,
            per_packet_lb: 0.0,
            zero_ttl: 0.05,
            broken: 0.05,
            nat: 0.05,
            firewalled_dest: 0.15,
            silent_router: 0.05,
            link_loss: 0.0,
            ..InternetConfig::default()
        };
        let net = generate(&config);
        let campaign = |window: u8| {
            let mut mc = MultipathConfig { workers: 4, seed: 3, ..Default::default() };
            mc.mda.window = window;
            run_multipath(&net, &mc)
        };
        let sequential = campaign(1);
        let windowed = campaign(MdaConfig::default().window);
        let dag = |r: &MultipathResult| {
            r.units
                .iter()
                .map(|u| {
                    // Everything but probe counts, which legitimately
                    // include window-dependent speculation.
                    (
                        u.dest,
                        u.width,
                        u.observed_width,
                        u.delta,
                        u.class,
                        u.hops,
                        u.links,
                        u.stars,
                        u.unconverged_hops,
                        u.reached,
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(dag(&windowed), dag(&sequential), "window changed a discovered DAG");
        let cut = sequential.mean_virtual_secs / windowed.mean_virtual_secs;
        assert!(
            cut >= 1.5,
            "windowed MDA must cut virtual secs/destination >= 1.5x, got {cut:.2}x \
             ({:.2}s -> {:.2}s)",
            sequential.mean_virtual_secs,
            windowed.mean_virtual_secs
        );
    }

    #[test]
    fn injected_panic_is_quarantined_without_contaminating_healthy_units() {
        let net = generate(&InternetConfig::tiny(42));
        let inject = |units: &[u32]| InjectConfig {
            panic_units: units.iter().copied().collect(),
            runaway_units: BTreeSet::new(),
        };
        let digest = |workers: usize| {
            let cfg = CampaignConfig {
                rounds: 2,
                workers,
                seed: 99,
                inject: inject(&[5, 41]),
                ..CampaignConfig::default()
            };
            let result = run(&net, &cfg);
            // Both poisoned units are reported, in unit order, with
            // their coordinates and the panic message.
            assert_eq!(
                result.quarantined.iter().map(|q| q.unit).collect::<Vec<_>>(),
                vec![5, 41],
                "workers = {workers}"
            );
            assert_eq!(result.quarantined[0].dest, 2);
            assert_eq!(result.quarantined[0].round, 1);
            assert_eq!(result.quarantined[1].dest, 20);
            assert_eq!(result.quarantined[1].round, 1);
            assert_eq!(result.quarantined[0].addr, net.dests[2].addr);
            assert!(result.quarantined[0].panic.contains("injected fault: unit 5"));
            // The poisoned units' routes are fully discarded: 80 units
            // minus 2 quarantined, two tools each.
            assert_eq!(result.classic_report.routes_total, 78);
            assert_eq!(result.paris_report.routes_total, 78);
            crate::report::report_digest(&result)
        };
        // Healthy-unit results are byte-identical whatever worker
        // claimed the poisoned units.
        let baseline = digest(1);
        for workers in [4, 8] {
            assert_eq!(digest(workers), baseline, "workers = {workers}");
        }
    }

    #[test]
    fn a_panic_in_one_block_leaves_the_warm_workers_clean_for_the_next() {
        // 80 units as five 16-unit blocks over one set of workers, the
        // way the checkpoint driver runs them. Unit 31 ends block 2.
        let net = generate(&InternetConfig::tiny(42));
        let cold = format!("{:?}", TraceScratch::default());
        // The five blocks' folds, and whether the first worker's scratch
        // was cold when block 2 returned.
        let blocks = |workers: usize, panic_units: &[u32]| {
            let cfg = CampaignConfig {
                rounds: 2,
                workers,
                seed: 99,
                inject: InjectConfig {
                    panic_units: panic_units.iter().copied().collect(),
                    runaway_units: BTreeSet::new(),
                },
                ..CampaignConfig::default()
            };
            let mut states = worker_states(&net, &cfg);
            let mut cold_after_second = false;
            let folds: Vec<Folded<BlockOutput>> = (0..5u32)
                .map(|block| {
                    let fold =
                        run_block(&net, &cfg, block * 16..(block + 1) * 16, &mut states, || ()).0;
                    if block == 1 {
                        cold_after_second = format!("{:?}", states[0].scratch) == cold;
                    }
                    fold
                })
                .collect();
            (folds, states, cold_after_second)
        };
        // A fold as a record's bytes: quarantined, total and accumulators.
        let text = |fold: &Folded<BlockOutput>| {
            let mut text = String::new();
            crate::snapshot::write_body::<CampaignConfig>(fold, &mut text);
            text
        };
        for workers in [1, 3] {
            let (clean, mut states, clean_cold) = blocks(workers, &[]);
            let (hit, _, hit_cold) = blocks(workers, &[31]);
            // The poisoned unit is quarantined and nothing of it is kept:
            // neither a route nor its virtual time, which is what the
            // clean run measures for unit 31 alone…
            assert_eq!(hit[1].quarantined.iter().map(|q| q.0).collect::<Vec<_>>(), vec![31]);
            assert_eq!(hit[1].measured.paris.report().routes_total, 15);
            assert_eq!(hit[1].measured.classic.report().routes_total, 15);
            let clean_config =
                CampaignConfig { rounds: 2, workers, seed: 99, ..Default::default() };
            let alone = run_block(&net, &clean_config, 31..32, &mut states, || ()).0;
            assert!(alone.virtual_ns > 0);
            assert_eq!(hit[1].virtual_ns, clean[1].virtual_ns - alone.virtual_ns);
            // …the state it unwound through was rebuilt (one worker
            // claims the block's last unit last, so nothing has warmed
            // the new state yet)…
            assert!(!clean_cold, "a worker's state stays warm from block to block");
            if workers == 1 {
                assert!(hit_cold, "the panicking worker's state was not rebuilt");
            }
            // …and every other block, the three after it above all,
            // holds exactly the units of a run in which nothing panicked.
            for block in [0, 2, 3, 4] {
                assert!(
                    text(&hit[block]) == text(&clean[block]),
                    "{workers} workers: block {} differs after the panic in block 2",
                    block + 1
                );
            }
        }
    }

    #[test]
    fn a_block_folds_the_same_on_warm_workers_as_on_fresh_ones() {
        // Workers keep their folds, emptied, from block to block, and
        // size them from the last one. Nothing of that may show: block
        // k's record is the same after blocks 0..k as on fresh workers.
        let net = generate(&InternetConfig::tiny(42));
        let text = |fold: &Folded<BlockOutput>| {
            let mut text = String::new();
            crate::snapshot::write_body::<CampaignConfig>(fold, &mut text);
            text
        };
        for workers in [1, 2, 3] {
            let cfg = CampaignConfig { rounds: 3, workers, seed: 99, ..Default::default() };
            let mut warm = worker_states(&net, &cfg);
            // Blocks of 24, 8, 40 and 24 units, so that a block meets
            // sets sized for a smaller one and for a larger one.
            for units in [0..24, 24..32, 32..72, 72..96] {
                let kept = run_block(&net, &cfg, units.clone(), &mut warm, || ()).0;
                let fresh =
                    run_block(&net, &cfg, units.clone(), &mut worker_states(&net, &cfg), || ()).0;
                assert!(kept.measured.paris.report().routes_total > 0);
                assert!(
                    text(&kept) == text(&fresh),
                    "{workers} workers: units {units:?} fold differently on warm workers"
                );
            }
        }
    }

    #[test]
    fn injected_runaway_unit_is_cut_by_the_watchdog_budget() {
        let net = generate(&InternetConfig::tiny(42));
        let config = |workers: usize, runaway: &[u32]| CampaignConfig {
            rounds: 2,
            workers,
            seed: 99,
            // Generous for any organic trace on tiny(42) (paper
            // settings probe one TTL each from 2..=39, so an organic
            // worst case is bounded by the star limit well short of
            // this), but far below what a trace stuck in a permanent
            // forwarding loop would burn running to the 39-hop ceiling.
            trace: TraceConfig { probe_budget: 30, ..TraceConfig::paper() },
            inject: InjectConfig {
                panic_units: BTreeSet::new(),
                runaway_units: runaway.iter().copied().collect(),
            },
            ..CampaignConfig::default()
        };
        let clean = run(&net, &config(4, &[]));
        assert_eq!(
            clean.classic_report.degraded_routes + clean.paris_report.degraded_routes,
            0,
            "budget must not trip on healthy units"
        );
        let digest = |workers: usize| {
            let result = run(&net, &config(workers, &[7]));
            // Both of unit 7's traces hit the watchdog and are marked
            // degraded instead of spinning to the TTL ceiling.
            assert_eq!(result.classic_report.degraded_routes, 1, "workers = {workers}");
            assert_eq!(result.paris_report.degraded_routes, 1, "workers = {workers}");
            assert!(result.quarantined.is_empty());
            crate::report::report_digest(&result)
        };
        let baseline = digest(1);
        for workers in [4, 8] {
            assert_eq!(digest(workers), baseline, "workers = {workers}");
        }
    }

    #[test]
    fn multipath_panic_and_runaway_units_are_isolated() {
        let net = generate(&InternetConfig::tiny(42));
        let config = |workers: usize| {
            let mut mc = MultipathConfig { rounds: 2, workers, seed: 7, ..Default::default() };
            // Ample for an organic walk on tiny(42) (the longest takes
            // 181 probes); a walk crawling a permanent forwarding loop
            // hop-by-hop to its TTL ceiling takes 314.
            mc.mda.probe_budget = 240;
            mc.inject.panic_units.insert(3);
            mc.inject.runaway_units.insert(9);
            mc
        };
        let digest = |workers: usize| {
            let result = run_multipath(&net, &config(workers));
            assert_eq!(
                result.quarantined.iter().map(|q| q.unit).collect::<Vec<_>>(),
                vec![3],
                "workers = {workers}"
            );
            assert!(result.quarantined[0].panic.contains("injected fault: unit 3"));
            // The quarantined unit contributes nothing.
            assert_eq!(result.units.len(), 79, "workers = {workers}");
            // The runaway walk is budget-degraded, not endless.
            let runaway = result.units.iter().find(|u| u.dest == 4 && u.round == 1).unwrap();
            assert!(runaway.degraded, "workers = {workers}");
            assert!(runaway.probes <= 240, "workers = {workers}");
            assert_eq!(result.report.degraded_units, 1, "workers = {workers}");
            assert!(result.per_dest[4].degraded);
            crate::report::multipath_digest(&result)
        };
        let baseline = digest(1);
        for workers in [4, 8] {
            assert_eq!(digest(workers), baseline, "workers = {workers}");
        }
    }

    #[test]
    fn dynamics_generate_forwarding_loop_cycles() {
        let config = InternetConfig {
            seed: 21,
            n_destinations: 80,
            per_flow_lb: 0.0,
            per_packet_lb: 0.0,
            zero_ttl: 0.0,
            broken: 0.0,
            nat: 0.0,
            firewalled_dest: 0.0,
            silent_router: 0.0,
            link_loss: 0.0,
            ..InternetConfig::default()
        };
        let net = generate(&config);
        let mut cc = quick_config(8);
        cc.dynamics = DynamicsConfig {
            forwarding_loop_prob: 0.2,
            // Early enough that even a windowed trace (which clears the
            // access network in a few virtual ms) is still probing the
            // branch when the loop forms.
            forwarding_loop_delay: SimDuration::from_millis(5),
            forwarding_loop_window: SimDuration::from_secs(3),
            balancer_flap_prob: 0.0,
        };
        let result = run(&net, &cc);
        assert!(
            result.classic.cycle_instance_count() > 0,
            "forced forwarding loops must produce cycles"
        );
        let fl = result.comparison.cycle_pct(pt_anomaly::stats::FinalCycleCause::ForwardingLoop);
        assert!(fl > 30.0, "forwarding-loop share of cycles: {fl}");
    }

    #[test]
    fn a_block_ending_at_the_last_unit_id_is_claimed_exactly_once() {
        // Every exiting worker bumps the cursor once past the block's
        // end. Counted in unit ids, that bump wraps to unit 0 here and
        // the workers start over on the whole id space — so the block
        // runs on a thread of its own and never finishing is the failure.
        // The cursor is the engine's; the multipath mode's fold names
        // the units it holds.
        let net = generate(&InternetConfig::tiny(42));
        let cfg = MultipathConfig { workers: 8, seed: 99, ..Default::default() };
        let block = (u32::MAX - 5)..u32::MAX;
        let (done, result) = std::sync::mpsc::channel();
        let units = block.clone();
        let runner = std::thread::spawn(move || {
            let out = run_block(&net, &cfg, units, &mut worker_states(&net, &cfg), || ()).0;
            let unit_of = |u: &UnitDiscovery| (u.round * net.dests.len() + u.dest) as UnitId;
            // The receiver is gone only if the wait below timed out.
            let _ = done.send(out.measured.iter().map(unit_of).collect::<Vec<_>>());
        });
        let folded = result
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("workers still claiming units past the block's end: the cursor wrapped");
        runner.join().expect("block runner panicked");
        assert_eq!(folded, block.collect::<Vec<_>>());
    }

    /// In-place Fisher–Yates (the `rand` stand-in has no `SliceRandom`).
    fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
        for i in (1..items.len()).rev() {
            items.swap(i, rng.gen_range(0..=i));
        }
    }

    /// Every unit of `mode` run once under a seeded schedule: a shuffled
    /// claim order cut into `k` workers' runs of random (possibly empty)
    /// lengths, each driven through `run_worker` in turn — no threads,
    /// and one state, warm from whatever the runs before left in it —
    /// and the folds absorbed in a shuffled order.
    fn run_scheduled<M: CampaignMode>(
        net: &SyntheticInternet,
        mode: &M,
        k: usize,
        rng: &mut StdRng,
    ) -> M::Result {
        let mut order: Vec<UnitId> = (0..n_units(net, &mode.common())).collect();
        shuffle(&mut order, rng);
        let mut cuts: Vec<usize> = (1..k).map(|_| rng.gen_range(0..=order.len())).collect();
        cuts.extend([0, order.len()]);
        cuts.sort_unstable();
        let state = &mut WorkerState::new(net);
        let mut folds: Vec<Folded<M::Fold>> = cuts
            .windows(2)
            .map(|cut| {
                let mut run = order[cut[0]..cut[1]].iter().copied();
                run_worker(|| run.next(), cut[1] - cut[0], net, mode, state);
                std::mem::take(&mut state.sorted)
            })
            .collect();
        shuffle(&mut folds, rng);
        let mut merged = Folded::default();
        for fold in &mut folds {
            merged.absorb(fold);
        }
        finish(net, mode, merged)
    }

    #[test]
    fn any_claim_schedule_folds_to_the_serial_result() {
        // The scheduler's only freedom is who claims which unit when,
        // and in what order the workers' folds meet. Enumerate that
        // freedom from a seed instead of hoping two threads find it.
        let net = generate(&InternetConfig::tiny(42));
        let panic_units = |units: [u32; 2]| InjectConfig {
            panic_units: BTreeSet::from(units),
            ..InjectConfig::none()
        };
        // Nothing a schedule can reorder reaches the result: the
        // virtual-time total is a sum of integers, order-free by
        // arithmetic; the multipath units and the quarantine list — two
        // units each, so that they have an order — are put in unit order
        // by the one sort the engine's `absorb` does.
        let traces = CampaignConfig {
            rounds: 2,
            workers: 1,
            seed: 99,
            inject: panic_units([5, 41]),
            ..CampaignConfig::default()
        };
        let walks = MultipathConfig {
            workers: 1,
            seed: 7,
            inject: panic_units([3, 17]),
            ..Default::default()
        };
        let serial_traces = run(&net, &traces);
        let serial_walks = run_multipath(&net, &walks);
        assert_eq!(serial_traces.quarantined.len(), 2);
        assert_eq!(serial_walks.quarantined.len(), 2);
        let traces_digest = crate::report::report_digest(&serial_traces);
        let walks_digest = crate::report::multipath_digest(&serial_walks);

        for seed in 0..32u64 {
            let k = [1, 2, 3, 7][seed as usize % 4];
            let rng = &mut StdRng::seed_from_u64(seed);

            let got = run_scheduled(&net, &traces, k, rng);
            assert_eq!(
                crate::report::report_digest(&got),
                traces_digest,
                "seed {seed}, {k} workers"
            );
            assert_eq!(
                got.mean_virtual_secs.to_bits(),
                serial_traces.mean_virtual_secs.to_bits(),
                "seed {seed}, {k} workers"
            );

            let got = run_scheduled(&net, &walks, k, rng);
            assert_eq!(
                crate::report::multipath_digest(&got),
                walks_digest,
                "seed {seed}, {k} workers"
            );
            assert_eq!(
                got.mean_virtual_secs.to_bits(),
                serial_walks.mean_virtual_secs.to_bits(),
                "seed {seed}, {k} workers"
            );
        }
    }
}
