//! The side-by-side campaign runner: a pool of workers over one list of
//! per-destination trace tasks.
//!
//! Execution is decomposed into `(destination, round)` work units — one
//! Paris + one classic trace over a pristine per-unit simulator — that
//! `workers` threads claim one at a time from a shared cursor, the way
//! the study's 32 probing processes worked down one destination list.
//! Every random draw a unit makes (probe ports, dynamics, the
//! simulator's own node RNGs) derives from `splitmix64` mixes of
//! `(campaign seed, destination index, round)`, never from the worker
//! that happens to claim the unit; accumulator merging is
//! order-insensitive and a unit's routes are folded at ingest, not kept
//! ([`replay_unit`] measures any unit's pair again). The result: the
//! campaign's entire [`ComparisonReport`] digest is byte-identical for
//! any worker count, and `workers` is a pure performance knob (the
//! property `tests/worker_invariance.rs` pins).

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
use pt_netsim::time::SimDuration;
use pt_netsim::{splitmix64, SimTransport, SimulatorPool};
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
    /// mid-trace (→ routing-change loops; the source of the paper's
    /// 0.25% Paris-only loops).
    pub balancer_flap_prob: f64,
    /// Delay from trace start to the flap.
    pub balancer_flap_after: SimDuration,
}

impl Default for DynamicsConfig {
    fn default() -> Self {
        DynamicsConfig {
            forwarding_loop_prob: 0.0004,
            forwarding_loop_delay: SimDuration::from_millis(30),
            forwarding_loop_window: SimDuration::from_millis(500),
            balancer_flap_prob: 0.008,
            balancer_flap_after: SimDuration::from_millis(80),
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
            balancer_flap_after: SimDuration::ZERO,
        }
    }
}

/// Deterministic fault injection for the campaign engines' own
/// crash-safety machinery: force specific `(destination, round)` units
/// to panic or to run away, so quarantine and watchdog paths can be
/// exercised end to end without hoping for a real bug.
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

    /// Whether any injection is configured.
    pub fn is_empty(&self) -> bool {
        self.panic_units.is_empty() && self.runaway_units.is_empty()
    }
}

/// One quarantined `(destination, round)` unit: the worker caught its
/// panic, discarded every partial result, rebuilt its simulator pool
/// and scratch, and recorded this instead of dying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedUnit {
    /// The unit id (round-major).
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
    /// Setting `trace.window = 1` reproduces the strictly sequential
    /// per-probe discipline, and with it the pre-windowed campaign
    /// digest byte for byte — provided [`CampaignConfig::dynamics`] is
    /// disabled or pinned to explicit values, since the *default*
    /// dynamics timings were retuned to windowed pacing in the same
    /// change (see [`DynamicsConfig::default`]).
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
    /// Mean virtual seconds of probing per destination (summed over all
    /// of a destination's rounds). Worker-count-independent, unlike the
    /// per-shard figure it replaces, and the number the windowed tracer
    /// divides by roughly `trace.window`.
    pub mean_virtual_secs: f64,
    /// Units whose execution panicked, in unit order. Their partial
    /// results are fully discarded — nothing of a poisoned unit reaches
    /// the accumulators or the virtual-time sums — so the healthy-unit
    /// digest is independent of *where* a panic struck and of the worker
    /// count.
    pub quarantined: Vec<QuarantinedUnit>,
}

/// A `(destination, round)` work unit, encoded round-major so unit order
/// matches the old serial iteration (`for round { for dest }`).
pub(crate) type UnitId = u32;

/// What a block of units accumulated — one worker's claim-order fold,
/// or several workers' folds merged, or several *blocks* merged by the
/// checkpoint engine. Accumulator merging is order-insensitive (integer
/// counters, sets, and per-key u64 maps), so producers can fold units
/// in any order; everything order-sensitive (virtual-time floats,
/// quarantine records) is tagged with its unit id and re-ordered
/// deterministically by [`CampaignMode::finalize`]. Once absorbed into
/// another, a fold holds its accumulators' sets and its virtual times
/// in the order a checkpoint record writes them.
pub(crate) struct BlockOutput {
    pub(crate) classic: CampaignAccumulator,
    pub(crate) paris: CampaignAccumulator,
    pub(crate) virtual_secs: Vec<(UnitId, f64)>,
    pub(crate) quarantined: Vec<QuarantinedUnit>,
}

/// An order-insensitive fold of unit results: what one worker
/// accumulates, what a block's workers merge into, and what the
/// checkpoint engine merges blocks into.
pub(crate) trait Fold: Send {
    /// The fold of no units.
    fn empty() -> Self;
    /// Fold another fold in. Order-insensitive, like everything that
    /// feeds it.
    fn absorb(&mut self, other: Self);
    /// Record a unit that panicked in place of its results.
    fn quarantine(&mut self, unit: QuarantinedUnit);
}

/// `into.extend(from)`, less the copy when `into` is empty: the first
/// fold absorbed — a one-worker block's only one — is taken whole while
/// the workers' simulators are still alive beside it.
fn append<T>(into: &mut Vec<T>, from: Vec<T>) {
    if into.is_empty() {
        *into = from;
    } else {
        into.extend(from);
    }
}

impl Fold for BlockOutput {
    fn empty() -> Self {
        BlockOutput {
            classic: CampaignAccumulator::new(StrategyId::ClassicUdp),
            paris: CampaignAccumulator::new(StrategyId::ParisUdp),
            virtual_secs: Vec::new(),
            quarantined: Vec::new(),
        }
    }

    fn absorb(&mut self, other: BlockOutput) {
        self.classic.merge(other.classic);
        self.paris.merge(other.paris);
        // Held in unit order, the order a record writes them in. A
        // worker claims ascending units and blocks arrive in order, so
        // past one block's interleaving the new times just follow the
        // old: look at them only, not at the whole campaign's again.
        let joint = self.virtual_secs.len().saturating_sub(1);
        append(&mut self.virtual_secs, other.virtual_secs);
        if !self.virtual_secs[joint..].windows(2).all(|pair| pair[0].0 < pair[1].0) {
            self.virtual_secs.sort_unstable_by_key(|(unit, _)| *unit);
        }
        append(&mut self.quarantined, other.quarantined);
    }

    fn quarantine(&mut self, unit: QuarantinedUnit) {
        self.quarantined.push(unit);
    }
}

/// One campaign mode — side-by-side traces or multipath discovery — as
/// the block engine and the checkpoint driver see it: how many units,
/// how to run one over a worker's warm state, how to commit it to a
/// fold, and how to turn the complete fold into the result. The two
/// config types implement it, so a mode *is* its configuration.
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

    /// Worker threads per block.
    fn workers(&self) -> usize;
    /// The campaign seed every unit stream derives from.
    fn seed(&self) -> u64;
    /// Check the campaign-wide invariants and return the unit count.
    fn n_units(&self, net: &SyntheticInternet) -> u32;
    /// Run one `(destination, round)` unit over a pristine pooled
    /// simulator, with every draw derived from `(seed, destination,
    /// round)` so the claiming worker is irrelevant. Must not touch
    /// shared state: the caller commits on success
    /// ([`CampaignMode::ingest`]) or discards on panic.
    fn run_unit(
        &self,
        unit: UnitId,
        net: &SyntheticInternet,
        pool: &mut SimulatorPool,
        scratch: &mut Self::Scratch,
    ) -> Self::Unit;
    /// Commit one completed unit to the fold — the only place a unit's
    /// measurements touch shared state.
    fn ingest(
        &self,
        unit: UnitId,
        done: Self::Unit,
        scratch: &mut Self::Scratch,
        fold: &mut Self::Fold,
    );
    /// Order-sensitive assembly of the final result from an (unordered)
    /// fold of every unit. A pure function of the fold's contents — the
    /// reason worker count, block partitioning, and kill/resume points
    /// all leave the digest byte-identical.
    fn finalize(&self, net: &SyntheticInternet, fold: Self::Fold) -> Self::Result;
}

/// One worker's warm state, which outlives a block: a checkpointed
/// campaign keeps one per worker from its first block to its last.
/// After the first unit, every acquire hands back the same simulator
/// (arena slots, payload buffers and event-queue capacity intact) reset
/// for the next destination, and the scratch's hop records and probe
/// registry recycle across every unit — so a worker's steady-state loop
/// performs no heap allocation at all, and a block after the first
/// builds no simulator.
pub(crate) struct WorkerState<S> {
    pool: SimulatorPool,
    scratch: S,
}

impl<S: Default> WorkerState<S> {
    /// A cold state: the simulator is built by the first unit run over
    /// it, on the worker's own thread.
    fn new(net: &SyntheticInternet) -> Self {
        WorkerState { pool: SimulatorPool::new(net.topology.clone()), scratch: S::default() }
    }
}

/// The states [`run_block`] runs `mode` over, one per worker thread.
pub(crate) fn worker_states<M: CampaignMode>(
    net: &SyntheticInternet,
    mode: &M,
) -> Vec<WorkerState<M::Scratch>> {
    (0..mode.workers().max(1)).map(|_| WorkerState::new(net)).collect()
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
    let unit = round * n_dests + dest;
    assert!(
        dest < n_dests && unit < config.n_units(net) as usize,
        "no unit (dest {dest}, round {round}) in this campaign"
    );
    let mut state = WorkerState::<TraceScratch>::new(net);
    let done = config.run_unit(unit as UnitId, net, &mut state.pool, &mut state.scratch);
    (done.paris, done.classic)
}

/// A whole campaign as one block.
fn run_whole<M: CampaignMode>(net: &SyntheticInternet, mode: &M) -> M::Result {
    let n_units = mode.n_units(net);
    // The states are dropped with this statement: finalizing holds the
    // fold, not the simulators beside it.
    let fold = run_block(net, mode, 0..n_units, &mut worker_states(net, mode));
    mode.finalize(net, fold)
}

/// Execute one contiguous block of units, one thread per state of
/// `workers` — the whole campaign for [`run`] / [`run_multipath`], one
/// checkpoint block for the crash-safe engine in [`crate::snapshot`],
/// which passes the same states block after block. Results are
/// independent of the block partitioning, of which worker claims which
/// unit and of what the states ran before, because every unit's draws
/// derive from `(seed, destination, round)` alone and the fold is
/// order-insensitive.
pub(crate) fn run_block<M: CampaignMode>(
    net: &SyntheticInternet,
    mode: &M,
    units: Range<UnitId>,
    workers: &mut [WorkerState<M::Scratch>],
) -> M::Fold {
    let n_block = units.len();
    if n_block == 0 {
        return M::Fold::empty();
    }
    let n_workers = workers.len().min(n_block);

    // One shared cursor: a worker's next unit is the lowest unclaimed
    // one, so no worker idles while a unit is unclaimed and stragglers
    // (expensive destinations, dynamics-heavy units) never serialize
    // the tail behind one queue. The cursor counts *offsets* into the
    // block in a `usize`: every exiting worker bumps it once past the
    // end, which a `UnitId` cursor would wrap back to unit 0 on a block
    // ending near `u32::MAX`. `Relaxed` suffices — the counter publishes
    // no data, and the scope's joins order the folds.
    let cursor = AtomicUsize::new(0);
    let claim = || {
        let offset = cursor.fetch_add(1, Ordering::Relaxed);
        (offset < n_block).then(|| units.start + offset as UnitId)
    };

    let outputs: Vec<M::Fold> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers[..n_workers]
            .iter_mut()
            .map(|state| scope.spawn(move || run_worker(claim, net, mode, state)))
            .collect();
        // A worker thread only dies if the quarantine machinery itself
        // panicked (unit panics are caught inside `run_worker`).
        handles.into_iter().map(|h| h.join().expect("campaign worker died")).collect()
    });

    let mut merged = M::Fold::empty();
    for out in outputs {
        merged.absorb(out);
    }
    merged
}

/// Decode a unit id into `(dest_idx, round)` and derive its RNG stream.
/// The two independent mixes keep the campaign-level draws (ports,
/// dynamics) and the simulator's node seeds decorrelated.
fn unit_coords(unit: UnitId, n_dests: usize, seed: u64) -> (usize, usize, u64) {
    let dest_idx = unit as usize % n_dests;
    let round = unit as usize / n_dests;
    let dest_stream = splitmix64(seed ^ splitmix64(dest_idx as u64 + 1));
    let unit_stream = splitmix64(dest_stream ^ (round as u64 + 1));
    (dest_idx, round, unit_stream)
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

/// One worker: fold every unit `claim` hands out, until it hands out
/// none. `claim` is the scheduler's whole freedom — production passes
/// [`run_block`]'s shared cursor; a test substitutes any schedule.
fn run_worker<M: CampaignMode>(
    mut claim: impl FnMut() -> Option<UnitId>,
    net: &SyntheticInternet,
    mode: &M,
    state: &mut WorkerState<M::Scratch>,
) -> M::Fold {
    let mut out = M::Fold::empty();
    while let Some(unit) = claim() {
        // Unit isolation: a panicking unit is quarantined, not fatal.
        // `run_unit` mutates nothing outside itself — its results only
        // reach the fold via `ingest` after it returns — so catching
        // the unwind discards *all* of the unit's work.
        let result = catch_unwind(AssertUnwindSafe(|| {
            mode.run_unit(unit, net, &mut state.pool, &mut state.scratch)
        }));
        match result {
            Ok(done) => mode.ingest(unit, done, &mut state.scratch, &mut out),
            Err(payload) => {
                // The unwind may have left the pooled simulator (lost
                // with the dropped transport) and the scratch in
                // arbitrary states; rebuild both so nothing poisoned
                // leaks into later units.
                *state = WorkerState::new(net);
                let (dest_idx, round, unit_stream) =
                    unit_coords(unit, net.dests.len(), mode.seed());
                out.quarantine(QuarantinedUnit {
                    unit,
                    dest: dest_idx,
                    round,
                    addr: net.dests[dest_idx].addr,
                    seed: unit_stream,
                    panic: panic_text(payload),
                });
            }
        }
    }
    out
}

/// One side-by-side unit's raw output: the measured pair, not yet
/// ingested.
pub(crate) struct UnitTrace {
    round: usize,
    paris: MeasuredRoute,
    classic: MeasuredRoute,
    virtual_secs: f64,
}

impl CampaignMode for CampaignConfig {
    type Scratch = TraceScratch;
    type Unit = UnitTrace;
    type Fold = BlockOutput;
    type Result = CampaignResult;

    fn workers(&self) -> usize {
        self.workers
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn n_units(&self, net: &SyntheticInternet) -> u32 {
        assert!(self.workers >= 1 && self.rounds >= 1);
        let n_units = net.dests.len() * self.rounds;
        assert!(u32::try_from(n_units).is_ok(), "campaign too large for u32 unit ids");
        n_units as u32
    }

    /// A Paris + classic trace pair.
    fn run_unit(
        &self,
        unit: UnitId,
        net: &SyntheticInternet,
        pool: &mut SimulatorPool,
        scratch: &mut TraceScratch,
    ) -> UnitTrace {
        let (dest_idx, round, unit_stream) = unit_coords(unit, net.dests.len(), self.seed);
        let dest = &net.dests[dest_idx];

        let mut rng = StdRng::seed_from_u64(unit_stream);
        let sim = pool.acquire(splitmix64(unit_stream ^ 0x5157_ea11));
        let mut tx = SimTransport::new(sim, net.source);

        // Injected runaway: a permanent forwarding loop toward the
        // destination, installed before probing starts and never lifted.
        // Consumes no RNG draws, so healthy units are unaffected.
        if self.inject.runaway_units.contains(&unit) {
            install_runaway_loop(&mut tx, dest, &net.topology);
        }

        // Routing events are exogenous: draw independently before each
        // trace of the pair.
        schedule_dynamics(&mut rng, &mut tx, dest, &net.topology, self);

        // Paris traceroute first (§3 order), fixed random five-tuple.
        let sp = rng.gen_range(10_000..=60_000);
        let dp = rng.gen_range(10_000..=60_000);
        let mut paris = ParisUdp::new(sp, dp);
        let paris_route = trace_with(&mut tx, &mut paris, dest.addr, self.trace, scratch);

        // Injected panic: after the Paris trace, so the quarantine tests
        // prove a half-done unit's results are discarded wholesale.
        if self.inject.panic_units.contains(&unit) {
            panic!("injected fault: unit {unit} (dest {dest_idx}, round {round})");
        }

        schedule_dynamics(&mut rng, &mut tx, dest, &net.topology, self);

        // Then classic traceroute. Each trace is a fresh process in the
        // study, so the PID — and with it the source port — is new every
        // time; this is what lets classic explore different flow mappings
        // across rounds.
        let pid = rng.gen::<u16>() & 0x7fff;
        let mut classic = ClassicUdp::new(pid);
        let classic_route = trace_with(&mut tx, &mut classic, dest.addr, self.trace, scratch);

        let virtual_secs = tx.now().as_secs_f64();
        pool.release(tx.into_simulator());
        UnitTrace { round, paris: paris_route, classic: classic_route, virtual_secs }
    }

    fn ingest(
        &self,
        unit: UnitId,
        done: UnitTrace,
        scratch: &mut TraceScratch,
        out: &mut BlockOutput,
    ) {
        let UnitTrace { round, paris, classic, virtual_secs } = done;
        out.paris.ingest(round, &paris);
        out.classic.ingest(round, &classic);
        scratch.recycle(paris);
        scratch.recycle(classic);
        out.virtual_secs.push((unit, virtual_secs));
    }

    /// Re-sort by unit id, sum the virtual-time floats in that fixed
    /// order, and compute the reports.
    fn finalize(&self, net: &SyntheticInternet, out: BlockOutput) -> CampaignResult {
        let BlockOutput { classic, paris, mut virtual_secs, mut quarantined } = out;
        // Which worker (or checkpoint block) ran which unit is scheduling
        // noise; re-ordering by unit id makes the float summation below a
        // pure function of the seed.
        virtual_secs.sort_by_key(|(unit, _)| *unit);
        quarantined.sort_by_key(|q| q.unit);
        let total_virtual: f64 = virtual_secs.iter().map(|(_, v)| v).sum();

        let classic_report = classic.report();
        let paris_report = paris.report();
        let comparison = compare(&classic, &paris);
        CampaignResult {
            classic,
            paris,
            classic_report,
            paris_report,
            comparison,
            mean_virtual_secs: total_virtual / net.dests.len().max(1) as f64,
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
    let pair = dest.chain.windows(2).find(|w| {
        topo.iface_toward(w[0], w[1]).is_some() && topo.iface_toward(w[1], w[0]).is_some()
    });
    let Some(&[x, y]) = pair else {
        panic!("runaway injection: destination {} has no linked adjacent chain pair", dest.addr)
    };
    let x_to_y = topo.iface_toward(x, y).expect("checked above");
    let y_to_x = topo.iface_toward(y, x).expect("checked above");
    let dst_pfx = pt_netsim::Ipv4Prefix::host(dest.addr);
    let now = tx.now();
    let sim = tx.simulator_mut();
    sim.schedule_route_set(now, x, dst_pfx, Some(NextHop::Iface(x_to_y)));
    sim.schedule_route_set(now, y, dst_pfx, Some(NextHop::Iface(y_to_x)));
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
        // Pick an adjacent, actually-linked pair along the chain. The RNG
        // is only consulted when a candidate exists: drawing on an empty
        // candidate list would silently shift every later draw and make
        // the campaign's randomness depend on topology quirks.
        let candidates: Vec<(pt_netsim::NodeId, pt_netsim::NodeId)> = dest
            .chain
            .windows(2)
            .filter(|w| topo.iface_toward(w[0], w[1]).is_some())
            .map(|w| (w[0], w[1]))
            .collect();
        if let Some(&(x, y)) =
            (!candidates.is_empty()).then(|| &candidates[rng.gen_range(0..candidates.len())])
        {
            let dst_pfx = pt_netsim::Ipv4Prefix::host(dest.addr);
            // The candidate filter proved x→y is linked; y→x holding too
            // is a topology invariant (links are bidirectional). If either
            // breaks, name the pair — the quarantine layer catches this
            // panic and reports it instead of killing the worker.
            let x_to_y = topo.iface_toward(x, y).unwrap_or_else(|| {
                panic!("dynamics: no interface from {x:?} toward {y:?} (dest {})", dest.addr)
            });
            let y_to_x = topo.iface_toward(y, x).unwrap_or_else(|| {
                panic!("dynamics: no interface from {y:?} toward {x:?} (dest {})", dest.addr)
            });
            let sim = tx.simulator_mut();
            let start = now + dyn_cfg.forwarding_loop_delay;
            sim.schedule_route_set(start, x, dst_pfx, Some(NextHop::Iface(x_to_y)));
            sim.schedule_route_set(start, y, dst_pfx, Some(NextHop::Iface(y_to_x)));
            let end = start + dyn_cfg.forwarding_loop_window;
            sim.schedule_route_set(end, x, dst_pfx, None);
            sim.schedule_route_set(end, y, dst_pfx, None);
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
        // more specific original route for the rest of the shard.
        for &node in &dest.chain {
            let current = tx
                .simulator()
                .routing_of(node)
                .lookup_entry(dest.addr)
                .map(|(prefix, nh)| (prefix, nh.clone()));
            if let Some((prefix, NextHop::Balanced { kind, mut egresses })) = current {
                egresses.rotate_left(1);
                let at = now + dyn_cfg.balancer_flap_after;
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
    /// Discovery rounds per destination (one is usually enough — the
    /// stopping rule already bounds the per-hop miss probability).
    pub rounds: usize,
    /// Worker threads claiming `(destination, round)` units. Purely a
    /// performance knob: results are bit-identical for any value.
    pub workers: usize,
    /// Per-destination MDA parameters. The flow family's base source
    /// port and destination port are drawn per unit from the campaign
    /// seed (the study's [10000, 60000] discipline) and override the
    /// ports set here.
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
            // Campaign-grade confidence: the per-hop stopping rule at
            // the MDA paper's alpha = 0.05 misses an interface at ~3-5%
            // of balanced hops by design (that *is* alpha), which
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
    /// A watchdog budget ([`MdaConfig::probe_budget`] /
    /// [`MdaConfig::time_budget`]) cut the walk short: the DAG is a
    /// valid but incomplete prefix, and widths are lower bounds.
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
    /// Raw per-unit discoveries, in round-major unit order regardless
    /// of worker count.
    pub units: Vec<UnitDiscovery>,
    /// Per-destination merged view, in destination order.
    pub per_dest: Vec<DestMultipath>,
    /// Aggregate statistics over `per_dest`.
    pub report: MultipathReport,
    /// Mean virtual probing seconds per destination (summed over its
    /// rounds); the figure the windowed engine divides.
    pub mean_virtual_secs: f64,
    /// Units whose execution panicked, in unit order — quarantined with
    /// all partial results discarded, exactly like the side-by-side
    /// campaign's [`CampaignResult::quarantined`].
    pub quarantined: Vec<QuarantinedUnit>,
}

fn stronger_class(a: BalancerClass, b: BalancerClass) -> BalancerClass {
    use BalancerClass::*;
    match (a, b) {
        (PerPacket, _) | (_, PerPacket) => PerPacket,
        (PerFlow, _) | (_, PerFlow) => PerFlow,
        (Undetermined, _) | (_, Undetermined) => Undetermined,
        _ => NotBalanced,
    }
}

/// One multipath unit's tagged output.
pub(crate) type TaggedUnit = (UnitId, UnitDiscovery, f64);

/// What a block of multipath units produced.
pub(crate) struct MultipathBlock {
    pub(crate) units: Vec<TaggedUnit>,
    pub(crate) quarantined: Vec<QuarantinedUnit>,
}

impl Fold for MultipathBlock {
    fn empty() -> Self {
        MultipathBlock { units: Vec::new(), quarantined: Vec::new() }
    }

    fn absorb(&mut self, other: MultipathBlock) {
        append(&mut self.units, other.units);
        append(&mut self.quarantined, other.quarantined);
    }

    fn quarantine(&mut self, unit: QuarantinedUnit) {
        self.quarantined.push(unit);
    }
}

/// Run a multipath-discovery campaign over `net`: windowed MDA toward
/// every destination, on the same seed-derived `(destination, round)`
/// worker pool as [`run`].
pub fn run_multipath(net: &SyntheticInternet, config: &MultipathConfig) -> MultipathResult {
    run_whole(net, config)
}

impl MultipathConfig {
    /// The walk parameters every unit of this campaign shares: `mda` as
    /// configured, with the adaptive preset's probing policies layered
    /// over its statistical knobs when `adaptive` is set. Units only
    /// draw the ports (and, adaptively, the jitter seed) on top — so
    /// this is also exactly what a checkpoint's fingerprint must cover.
    pub(crate) fn walk_template(&self) -> MdaConfig {
        if !self.adaptive {
            return self.mda;
        }
        let policy = MdaConfig::adaptive(0);
        MdaConfig {
            flow_retries: policy.flow_retries,
            max_consecutive_stars: policy.max_consecutive_stars,
            adaptive: policy.adaptive,
            ..self.mda
        }
    }
}

impl CampaignMode for MultipathConfig {
    type Scratch = MdaScratch;
    type Unit = TaggedUnit;
    type Fold = MultipathBlock;
    type Result = MultipathResult;

    fn workers(&self) -> usize {
        self.workers
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn n_units(&self, net: &SyntheticInternet) -> u32 {
        assert!(self.workers >= 1 && self.rounds >= 1);
        // Validated here, not deep inside a worker thread: the per-unit
        // port draw needs room for every flow id above a base in the
        // study's [10000, 60000] range, and one walk's probes must fit the
        // 15-bit probe-id space.
        assert!(
            (1..=4096).contains(&self.mda.max_flows_per_hop),
            "MultipathConfig: max_flows_per_hop must be in 1..=4096, got {}",
            self.mda.max_flows_per_hop
        );
        let n_units = net.dests.len() * self.rounds;
        assert!(u32::try_from(n_units).is_ok(), "campaign too large for u32 unit ids");
        n_units as u32
    }

    /// A full MDA walk toward one destination.
    fn run_unit(
        &self,
        unit: UnitId,
        net: &SyntheticInternet,
        pool: &mut SimulatorPool,
        scratch: &mut MdaScratch,
    ) -> TaggedUnit {
        let (dest_idx, round, unit_stream) = unit_coords(unit, net.dests.len(), self.seed);
        let dest = &net.dests[dest_idx];

        if self.inject.panic_units.contains(&unit) {
            panic!("injected fault: unit {unit} (dest {dest_idx}, round {round})");
        }

        let mut rng = StdRng::seed_from_u64(unit_stream);
        let sim = pool.acquire(splitmix64(unit_stream ^ 0x6d64_6121));
        let mut tx = SimTransport::new(sim, net.source);

        // Injected runaway: a permanent forwarding loop mid-branch — the
        // walk inches hop by hop to its TTL ceiling unless a watchdog
        // budget cuts it off first. No RNG draws consumed.
        if self.inject.runaway_units.contains(&unit) {
            install_runaway_loop(&mut tx, dest, &net.topology);
        }

        // The study's port discipline: draw the flow family's base source
        // port and the destination port uniformly, leaving room above the
        // base for every flow id.
        let template = self.walk_template();
        let max_flows = template.max_flows_per_hop as u16;
        let base_src_port = rng.gen_range(10_000..=60_000u16.saturating_sub(max_flows));
        let dst_port = rng.gen_range(10_000..=60_000);
        // The adaptive policies' jitter seed comes from the unit stream,
        // so retry schedules are reproducible and worker-count
        // independent.
        let adaptive = if self.adaptive {
            Some(splitmix64(unit_stream ^ 0x6164_7074))
        } else {
            template.adaptive
        };
        let mda = MdaConfig { base_src_port, dst_port, adaptive, ..template };
        let map = discover_with(&mut tx, dest.addr, &mda, scratch);

        let discovery = UnitDiscovery {
            dest: dest_idx,
            round,
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
        let virtual_secs = tx.now().as_secs_f64();
        pool.release(tx.into_simulator());
        (unit, discovery, virtual_secs)
    }

    fn ingest(
        &self,
        _unit: UnitId,
        done: TaggedUnit,
        _scratch: &mut MdaScratch,
        out: &mut MultipathBlock,
    ) {
        out.units.push(done);
    }

    fn finalize(&self, net: &SyntheticInternet, out: MultipathBlock) -> MultipathResult {
        finalize_multipath(net, self, out)
    }
}

/// Sort units round-major, merge rounds into the per-destination view,
/// and aggregate the report.
fn finalize_multipath(
    net: &SyntheticInternet,
    config: &MultipathConfig,
    out: MultipathBlock,
) -> MultipathResult {
    let MultipathBlock { mut units, mut quarantined } = out;
    let n_dests = net.dests.len();
    units.sort_by_key(|(unit, _, _)| *unit);
    quarantined.sort_by_key(|q| q.unit);
    let total_virtual: f64 = units.iter().map(|(_, _, v)| v).sum();
    let units: Vec<UnitDiscovery> = units.into_iter().map(|(_, u, _)| u).collect();

    // Merge rounds into the per-destination view (units are sorted
    // round-major, so iterating them folds rounds in round order).
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
        d.class = stronger_class(d.class, u.class);
        d.probes += u.probes;
        d.reached |= u.reached;
        d.degraded |= u.degraded;
    }

    let mut report = MultipathReport {
        destinations: n_dests,
        rounds: config.rounds,
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

    MultipathResult {
        units,
        per_dest,
        report,
        mean_virtual_secs: total_virtual / n_dests.max(1) as f64,
        quarantined,
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
            assert_eq!(result.quarantined[0].dest, 5);
            assert_eq!(result.quarantined[0].round, 0);
            assert_eq!(result.quarantined[1].dest, 1);
            assert_eq!(result.quarantined[1].round, 1);
            assert_eq!(result.quarantined[0].addr, net.dests[5].addr);
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
        use crate::snapshot::Checkpointed;
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
            let folds: Vec<BlockOutput> = (0..5u32)
                .map(|block| {
                    let fold = run_block(&net, &cfg, block * 16..(block + 1) * 16, &mut states);
                    if block == 1 {
                        cold_after_second = format!("{:?}", states[0].scratch) == cold;
                    }
                    fold
                })
                .collect();
            (folds, cold_after_second)
        };
        let text = |fold: &BlockOutput| {
            let mut text = String::new();
            CampaignConfig::write_fold(fold, &mut text);
            text
        };
        for workers in [1, 3] {
            let (clean, clean_cold) = blocks(workers, &[]);
            let (hit, hit_cold) = blocks(workers, &[31]);
            // The poisoned unit is quarantined and nothing of it is kept…
            assert_eq!(hit[1].quarantined.iter().map(|q| q.unit).collect::<Vec<_>>(), vec![31]);
            assert_eq!(hit[1].paris.report().routes_total, 15);
            assert_eq!(hit[1].classic.report().routes_total, 15);
            let spared: Vec<_> = clean[1].virtual_secs.iter().filter(|v| v.0 != 31).collect();
            assert_eq!(hit[1].virtual_secs.iter().collect::<Vec<_>>(), spared);
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
            let runaway = result.units.iter().find(|u| u.dest == 9 && u.round == 0).unwrap();
            assert!(runaway.degraded, "workers = {workers}");
            assert!(runaway.probes <= 240, "workers = {workers}");
            assert_eq!(result.report.degraded_units, 1, "workers = {workers}");
            assert!(result.per_dest[9].degraded);
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
            branch_len_min: 3,
            branch_len_max: 5,
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
            balancer_flap_after: SimDuration::ZERO,
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
        let net = generate(&InternetConfig::tiny(42));
        let cfg = CampaignConfig { workers: 8, seed: 99, ..CampaignConfig::default() };
        let block = (u32::MAX - 5)..u32::MAX;
        let (done, result) = std::sync::mpsc::channel();
        let units = block.clone();
        let runner = std::thread::spawn(move || {
            let out = run_block(&net, &cfg, units, &mut worker_states(&net, &cfg));
            // The receiver is gone only if the wait below timed out.
            let _ = done.send(out.virtual_secs.iter().map(|(unit, _)| *unit).collect::<Vec<_>>());
        });
        let mut folded = result
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("workers still claiming units past the block's end: the cursor wrapped");
        runner.join().expect("block runner panicked");
        folded.sort_unstable();
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
        let mut order: Vec<UnitId> = (0..mode.n_units(net)).collect();
        shuffle(&mut order, rng);
        let mut cuts: Vec<usize> = (1..k).map(|_| rng.gen_range(0..=order.len())).collect();
        cuts.extend([0, order.len()]);
        cuts.sort_unstable();
        let state = &mut WorkerState::new(net);
        let mut folds: Vec<M::Fold> = cuts
            .windows(2)
            .map(|cut| {
                let mut run = order[cut[0]..cut[1]].iter().copied();
                run_worker(|| run.next(), net, mode, state)
            })
            .collect();
        shuffle(&mut folds, rng);
        let mut merged = M::Fold::empty();
        for fold in folds {
            merged.absorb(fold);
        }
        mode.finalize(net, merged)
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
        // The virtual-time floats are summed in unit order; two
        // quarantined units make the quarantine list order-sensitive too.
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
        }
    }
}
