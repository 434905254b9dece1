//! The traced pass: the campaign's unit loop rebuilt from public calls
//! (`run_unit` is private), with a span at every layer boundary.
//!
//! One loop body serves both the traced run and its untraced twin: it
//! is generic over [`Tracing`], whose [`Untraced`] implementation
//! compiles every span call away and hands the engines a bare
//! `SimTransport`, while [`Recorder`] keeps spans in memory and wraps
//! the transport in a [`TimedTransport`]. Transport calls inside one
//! trace fold into one child record per call kind (count + total
//! time), which keeps a trace of a quarter-million probes bounded.

use std::io::{self, Write};
use std::net::Ipv4Addr;
use std::path::Path;
use std::time::Instant;

use pt_anomaly::{compare, CampaignAccumulator};
use pt_campaign::MultipathConfig;
use pt_core::{trace_with, ClassicUdp, ParisUdp, StrategyId, TraceConfig, TraceScratch, Transport};
use pt_mda::{discover_with, MdaConfig, MdaScratch};
use pt_netsim::{NodeId, SimStats, SimTime, SimTransport, Simulator, SimulatorPool};
use pt_topogen::SyntheticInternet;
use pt_wire::Packet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What a span covers. The discriminant indexes [`KindSums`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// The whole loop, reports included: the root every share is of.
    Loop,
    /// One `(destination, round)` unit.
    Unit,
    PoolAcquire,
    PoolRelease,
    TraceParis,
    TraceClassic,
    Discover,
    Ingest,
    Recycle,
    /// Folded `Transport::send` calls of one trace or walk.
    Send,
    /// Folded `Transport::recv_until` calls.
    RecvUntil,
    /// Folded `Transport::try_recv` calls.
    TryRecv,
    /// Merging the two half-campaign accumulators.
    Merge,
    /// `report()` of both tools and `compare()`.
    Report,
}

pub const KINDS: usize = SpanKind::Report as usize + 1;
const KIND_NAMES: [&str; KINDS] = [
    "loop",
    "unit",
    "pool.acquire",
    "pool.release",
    "trace.paris",
    "trace.classic",
    "mda.discover",
    "anomaly.ingest",
    "scratch.recycle",
    "transport.send",
    "transport.recv_until",
    "transport.try_recv",
    "anomaly.merge",
    "anomaly.report",
];

pub const NONE: u32 = u32::MAX;

/// One span: a layer boundary crossed, or one call kind folded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub kind: SpanKind,
    /// Nanoseconds since the recorder's origin. A folded span starts
    /// with its parent and lasts its calls' total time.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one ([`NONE`] for the root).
    pub parent: u32,
    /// The unit every span of one request shares ([`NONE`] outside).
    pub unit: u32,
    /// Calls folded into this span (1 for an ordinary span).
    pub count: u32,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Each span's self time: its duration minus the part its children
/// cover. Children never overlap one another here, so the part covered
/// is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur).collect();
    for span in spans {
        if span.parent != NONE {
            let parent = &mut own[span.parent as usize];
            *parent = parent.saturating_sub(span.dur());
        }
    }
    own
}

/// The largest relative gap, over units, between a unit span's
/// duration and the self times of everything recorded under it. Zero
/// unless a child outlasted its parent and a self time was clamped.
pub fn self_sum_error_max(spans: &[Span], own: &[u64]) -> f64 {
    let units = spans.iter().filter(|s| s.unit != NONE).map(|s| s.unit + 1).max().unwrap_or(0);
    let mut summed = vec![0u64; units as usize];
    let mut whole = vec![0u64; units as usize];
    for (span, &own) in spans.iter().zip(own) {
        if span.unit != NONE {
            summed[span.unit as usize] += own;
            if span.kind == SpanKind::Unit {
                whole[span.unit as usize] = span.dur();
            }
        }
    }
    summed
        .iter()
        .zip(&whole)
        .filter(|(_, &whole)| whole > 0)
        .map(|(&summed, &whole)| (summed as f64 - whole as f64).abs() / whole as f64)
        .fold(0.0, f64::max)
}

/// Per-kind totals of one traced pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindSums {
    pub dur: [u64; KINDS],
    pub own: [u64; KINDS],
    pub count: [u64; KINDS],
}

impl KindSums {
    pub fn of(spans: &[Span], own: &[u64]) -> KindSums {
        let mut sums = KindSums::default();
        for (span, &own) in spans.iter().zip(own) {
            let k = span.kind as usize;
            sums.dur[k] += span.dur();
            sums.own[k] += own;
            sums.count[k] += u64::from(span.count);
        }
        sums
    }

    pub fn dur_of(&self, kinds: &[SpanKind]) -> f64 {
        kinds.iter().map(|&k| self.dur[k as usize]).sum::<u64>() as f64
    }

    pub fn own_of(&self, kinds: &[SpanKind]) -> f64 {
        kinds.iter().map(|&k| self.own[k as usize]).sum::<u64>() as f64
    }

    pub fn count_of(&self, kinds: &[SpanKind]) -> f64 {
        kinds.iter().map(|&k| self.count[k as usize]).sum::<u64>() as f64
    }
}

pub const TRANSPORT: [SpanKind; 3] = [SpanKind::Send, SpanKind::RecvUntil, SpanKind::TryRecv];

/// Write the span dump: one line per span, tab-separated, in recording
/// order (a parent always precedes its children).
pub fn dump(spans: &[Span], path: &Path) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "index\tname\tparent\tunit\tstart_ns\tend_ns\tcalls")?;
    let id = |v: u32| if v == NONE { "-".to_owned() } else { v.to_string() };
    for (i, s) in spans.iter().enumerate() {
        writeln!(
            out,
            "{i}\t{}\t{}\t{}\t{}\t{}\t{}",
            KIND_NAMES[s.kind as usize],
            id(s.parent),
            id(s.unit),
            s.start_ns,
            s.end_ns,
            s.count
        )?;
    }
    out.flush()
}

/// Count and total time of one kind of transport call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Calls {
    count: u32,
    ns: u64,
}

/// The benchmark-owned transport wrapper: `SimTransport` with a timer
/// around `send`, `recv_until` and `try_recv` - everything `pt-netsim`
/// does on behalf of a trace. (`release` and `grab_payload` are a `Vec`
/// push and pop each and pass through untimed, as tracer self time.)
pub struct TimedTransport {
    inner: SimTransport,
    calls: [Calls; 3],
}

impl TimedTransport {
    fn tally(&mut self, slot: usize, since: Instant) {
        self.calls[slot].count += 1;
        self.calls[slot].ns += since.elapsed().as_nanos() as u64;
    }
}

impl Transport for TimedTransport {
    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn source_addr(&self) -> Ipv4Addr {
        self.inner.source_addr()
    }

    fn send(&mut self, packet: Packet) {
        let t = Instant::now();
        self.inner.send(packet);
        self.tally(0, t);
    }

    fn recv_until(&mut self, deadline: SimTime) -> Option<(SimTime, Packet)> {
        let t = Instant::now();
        let got = self.inner.recv_until(deadline);
        self.tally(1, t);
        got
    }

    fn try_recv(&mut self) -> Option<(SimTime, Packet)> {
        let t = Instant::now();
        let got = self.inner.try_recv();
        self.tally(2, t);
        got
    }

    fn release(&mut self, packet: Packet) {
        Transport::release(&mut self.inner, packet);
    }

    fn grab_payload(&mut self) -> Vec<u8> {
        Transport::grab_payload(&mut self.inner)
    }
}

/// What the unit loop needs from a transport beyond probing with it.
pub trait LoopTransport: Transport {
    fn wrap(sim: Simulator, source: NodeId) -> Self;
    fn sim(&self) -> &Simulator;
    fn unwrap(self) -> Simulator;
}

impl LoopTransport for SimTransport {
    fn wrap(sim: Simulator, source: NodeId) -> Self {
        SimTransport::new(sim, source)
    }
    fn sim(&self) -> &Simulator {
        self.simulator()
    }
    fn unwrap(self) -> Simulator {
        self.into_simulator()
    }
}

impl LoopTransport for TimedTransport {
    fn wrap(sim: Simulator, source: NodeId) -> Self {
        TimedTransport { inner: SimTransport::new(sim, source), calls: [Calls::default(); 3] }
    }
    fn sim(&self) -> &Simulator {
        self.inner.simulator()
    }
    fn unwrap(self) -> Simulator {
        self.inner.into_simulator()
    }
}

/// Whether, and how, the unit loop is observed.
pub trait Tracing {
    type Tx: LoopTransport;
    fn open(&mut self, kind: SpanKind, parent: u32, unit: u32) -> u32;
    fn close(&mut self, span: u32);
    /// Record the transport calls made under `parent` since the last
    /// fold, one span per call kind.
    fn fold_calls(&mut self, tx: &mut Self::Tx, parent: u32, unit: u32);
}

/// The untraced twin: no spans, no timers, the engines' own transport.
pub struct Untraced;

impl Tracing for Untraced {
    type Tx = SimTransport;
    fn open(&mut self, _: SpanKind, _: u32, _: u32) -> u32 {
        NONE
    }
    fn close(&mut self, _: u32) {}
    fn fold_calls(&mut self, _: &mut SimTransport, _: u32, _: u32) {}
}

/// Spans kept in memory until the pass ends.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn with_capacity(spans: usize) -> Recorder {
        Recorder { origin: Instant::now(), spans: Vec::with_capacity(spans) }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

impl Tracing for Recorder {
    type Tx = TimedTransport;

    fn open(&mut self, kind: SpanKind, parent: u32, unit: u32) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span { kind, start_ns, end_ns: start_ns, parent, unit, count: 1 });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, span: u32) {
        self.spans[span as usize].end_ns = self.now_ns();
    }

    fn fold_calls(&mut self, tx: &mut TimedTransport, parent: u32, unit: u32) {
        let start_ns = self.spans[parent as usize].start_ns;
        for (calls, kind) in std::mem::take(&mut tx.calls).into_iter().zip(TRANSPORT) {
            if calls.count > 0 {
                self.spans.push(Span {
                    kind,
                    start_ns,
                    end_ns: start_ns + calls.ns,
                    parent,
                    unit,
                    count: calls.count,
                });
            }
        }
    }
}

/// Deterministic totals of one pass over the unit loop. The traced run
/// and its twin must agree on every field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub units: u64,
    /// Traces (two per pair unit) or MDA walks.
    pub traces: u64,
    pub probes: u64,
    pub stars: u64,
    pub reached: u64,
    /// MDA: hops walked, and those whose stopping rule did not converge.
    pub hops: u64,
    pub unconverged_hops: u64,
    /// From `SimStats`, read before each simulator goes back to the pool.
    pub forwarded: u64,
    pub responses: u64,
    pub dropped: u64,
    pub arena_slots_high_water: u64,
}

impl Totals {
    fn absorb_sim(&mut self, sim: &Simulator) {
        let SimStats {
            forwarded,
            time_exceeded_sent,
            dest_unreachable_sent,
            echo_replies_sent,
            tcp_responses_sent,
            dropped_loss,
            dropped_silent,
            dropped_rate_limited,
            dropped_mpls_hidden,
            dropped_filtered,
            dropped_no_route,
            dropped_blackhole,
            dropped_host_mute,
            nat_rewrites: _,
            delivered: _,
        } = sim.stats();
        self.forwarded += forwarded;
        self.responses +=
            time_exceeded_sent + dest_unreachable_sent + echo_replies_sent + tcp_responses_sent;
        self.dropped += dropped_loss
            + dropped_silent
            + dropped_rate_limited
            + dropped_mpls_hidden
            + dropped_filtered
            + dropped_no_route
            + dropped_blackhole
            + dropped_host_mute;
        self.arena_slots_high_water = self.arena_slots_high_water.max(sim.arena_slots() as u64);
    }
}

/// Which slice of a campaign a loop walks: the first `dests`
/// destinations, `rounds` times, round-major like the runner.
#[derive(Debug, Clone, Copy)]
pub struct LoopSpec {
    pub dests: usize,
    pub rounds: usize,
    pub seed: u64,
}

impl LoopSpec {
    pub fn units(&self) -> usize {
        self.dests * self.rounds
    }

    /// Every draw of a unit comes from `(seed, unit)`, as in the runner.
    fn unit_rng(&self, unit: u32) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ (u64::from(unit) + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }
}

/// The pair loop's product: totals and the merged accumulators.
pub struct PairLoop {
    pub totals: Totals,
    pub classic: CampaignAccumulator,
    pub paris: CampaignAccumulator,
}

/// The side-by-side campaign's unit loop, through public calls, in the
/// runner's order: acquire, Paris trace, classic trace, ingest both,
/// recycle both, release; then merge, report and compare. Units fold
/// into two accumulator pairs by parity, the way two workers' deques
/// split them. No routing dynamics (`schedule_dynamics` is private).
pub fn pair_loop<M: Tracing>(
    net: &SyntheticInternet,
    spec: LoopSpec,
    config: TraceConfig,
    m: &mut M,
) -> PairLoop {
    let root = m.open(SpanKind::Loop, NONE, NONE);
    let mut pool = SimulatorPool::new(net.topology.clone());
    let mut scratch = TraceScratch::new();
    let mut totals = Totals::default();
    let halves = |tool| [CampaignAccumulator::new(tool), CampaignAccumulator::new(tool)];
    let mut paris_acc = halves(StrategyId::ParisUdp);
    let mut classic_acc = halves(StrategyId::ClassicUdp);

    for unit in 0..spec.units() as u32 {
        let dest = &net.dests[unit as usize % spec.dests];
        let round = unit as usize / spec.dests;
        let half = unit as usize % 2;
        let u = m.open(SpanKind::Unit, root, unit);
        let mut rng = spec.unit_rng(unit);

        let s = m.open(SpanKind::PoolAcquire, u, unit);
        let sim = pool.acquire(rng.gen());
        m.close(s);
        let mut tx = M::Tx::wrap(sim, net.source);

        let mut paris =
            ParisUdp::new(rng.gen_range(10_000..=60_000), rng.gen_range(10_000..=60_000));
        let s = m.open(SpanKind::TraceParis, u, unit);
        let paris_route = trace_with(&mut tx, &mut paris, dest.addr, config, &mut scratch);
        m.close(s);
        m.fold_calls(&mut tx, s, unit);

        let mut classic = ClassicUdp::new(rng.gen::<u16>() & 0x7fff);
        let s = m.open(SpanKind::TraceClassic, u, unit);
        let classic_route = trace_with(&mut tx, &mut classic, dest.addr, config, &mut scratch);
        m.close(s);
        m.fold_calls(&mut tx, s, unit);

        let s = m.open(SpanKind::Ingest, u, unit);
        paris_acc[half].ingest(round, &paris_route);
        classic_acc[half].ingest(round, &classic_route);
        m.close(s);

        totals.units += 1;
        for route in [&paris_route, &classic_route] {
            totals.traces += 1;
            totals.probes += route.probes_sent() as u64;
            totals.stars += route.stars() as u64;
            totals.reached += u64::from(route.reached_destination());
        }
        totals.absorb_sim(tx.sim());

        let s = m.open(SpanKind::Recycle, u, unit);
        scratch.recycle(paris_route);
        scratch.recycle(classic_route);
        m.close(s);

        let s = m.open(SpanKind::PoolRelease, u, unit);
        pool.release(tx.unwrap());
        m.close(s);
        m.close(u);
    }

    let s = m.open(SpanKind::Merge, root, NONE);
    let [mut paris, paris_other] = paris_acc;
    paris.merge(paris_other);
    let [mut classic, classic_other] = classic_acc;
    classic.merge(classic_other);
    m.close(s);

    let s = m.open(SpanKind::Report, root, NONE);
    std::hint::black_box((classic.report(), paris.report(), compare(&classic, &paris)));
    m.close(s);
    m.close(root);
    PairLoop { totals, classic, paris }
}

/// The multipath campaign's unit loop: acquire, one MDA walk (with the
/// runner's port discipline and, when `config.adaptive`, its adaptive
/// overlay), summarize the map, recycle, release.
pub fn mda_loop<M: Tracing>(
    net: &SyntheticInternet,
    spec: LoopSpec,
    config: &MultipathConfig,
    m: &mut M,
) -> Totals {
    let root = m.open(SpanKind::Loop, NONE, NONE);
    let mut pool = SimulatorPool::new(net.topology.clone());
    let mut scratch = MdaScratch::new();
    let mut totals = Totals::default();
    let max_flows = config.mda.max_flows_per_hop as u16;

    for unit in 0..spec.units() as u32 {
        let dest = &net.dests[unit as usize % spec.dests];
        let u = m.open(SpanKind::Unit, root, unit);
        let mut rng = spec.unit_rng(unit);

        let s = m.open(SpanKind::PoolAcquire, u, unit);
        let sim = pool.acquire(rng.gen());
        m.close(s);
        let mut tx = M::Tx::wrap(sim, net.source);

        let base_src_port = rng.gen_range(10_000..=60_000u16.saturating_sub(max_flows));
        let dst_port = rng.gen_range(10_000..=60_000);
        let policy = if config.adaptive { MdaConfig::adaptive(rng.gen()) } else { config.mda };
        // The runner's overlay: probing policy from the adaptive
        // preset, statistical knobs from the campaign.
        let mda = MdaConfig {
            alpha: config.mda.alpha,
            max_flows_per_hop: config.mda.max_flows_per_hop,
            window: config.mda.window,
            base_src_port,
            dst_port,
            ..policy
        };

        let s = m.open(SpanKind::Discover, u, unit);
        let map = discover_with(&mut tx, dest.addr, &mda, &mut scratch);
        m.close(s);
        m.fold_calls(&mut tx, s, unit);

        // The runner's per-unit summary of the map.
        std::hint::black_box((
            map.max_width(),
            map.max_observed_width(),
            map.discovered_delta(),
            map.classification(),
        ));
        totals.units += 1;
        totals.traces += 1;
        totals.probes += map.total_probes as u64;
        totals.stars += map.hops.iter().map(|h| h.stars as u64).sum::<u64>();
        totals.reached += u64::from(map.reached);
        totals.hops += map.hops.len() as u64;
        totals.unconverged_hops += map.hops.iter().filter(|h| !h.converged).count() as u64;
        totals.absorb_sim(tx.sim());

        let s = m.open(SpanKind::Recycle, u, unit);
        scratch.recycle(map);
        m.close(s);

        let s = m.open(SpanKind::PoolRelease, u, unit);
        pool.release(tx.unwrap());
        m.close(s);
        m.close(u);
    }
    m.close(root);
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, start_ns: u64, end_ns: u64, parent: u32, unit: u32) -> Span {
        Span { kind, start_ns, end_ns, parent, unit, count: 1 }
    }

    #[test]
    fn self_time_subtracts_nested_and_folded_children() {
        use SpanKind::*;
        let spans = [
            span(Loop, 0, 1000, NONE, NONE),
            span(Unit, 100, 900, 0, 7),
            span(PoolAcquire, 110, 150, 1, 7),
            span(TraceParis, 200, 700, 1, 7),
            // Folded: start with the parent, last the calls' total.
            Span { kind: Send, start_ns: 200, end_ns: 260, parent: 3, unit: 7, count: 12 },
            Span { kind: RecvUntil, start_ns: 200, end_ns: 500, parent: 3, unit: 7, count: 9 },
            span(Ingest, 710, 760, 1, 7),
        ];
        let own = self_times(&spans);
        assert_eq!(own, [200, 800 - 40 - 500 - 50, 40, 500 - 60 - 300, 60, 300, 50]);
        // Every nanosecond of the unit is attributed exactly once.
        assert_eq!(own[1..].iter().sum::<u64>(), spans[1].dur());
        assert_eq!(self_sum_error_max(&spans, &own), 0.0);

        let sums = KindSums::of(&spans, &own);
        assert_eq!(sums.dur_of(&TRANSPORT), 360.0);
        assert_eq!(sums.count_of(&TRANSPORT), 21.0);
        assert_eq!(sums.own_of(&[TraceParis, TraceClassic]), 140.0);
        assert_eq!(sums.dur_of(&[Loop]), 1000.0);
    }

    #[test]
    fn a_child_outlasting_its_parent_clamps_and_shows_as_error() {
        use SpanKind::*;
        let spans = [
            span(Unit, 0, 100, NONE, 0),
            span(TraceParis, 10, 60, 0, 0),
            Span { kind: Send, start_ns: 10, end_ns: 80, parent: 1, unit: 0, count: 3 },
        ];
        let own = self_times(&spans);
        assert_eq!(own, [50, 0, 70]);
        assert!((self_sum_error_max(&spans, &own) - 0.2).abs() < 1e-12);
    }
}
