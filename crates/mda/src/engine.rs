//! The windowed multipath-discovery engine.
//!
//! [`discover_with`] walks TTL by TTL toward a destination, varying the
//! *flow identifier* (UDP source port — a genuine five-tuple field)
//! across probes at each TTL until the MDA stopping rule
//! ([`crate::probes_to_rule_out`]) says every interface at that hop has
//! been seen with high probability. Flow identifiers are **reused
//! across TTLs**: the interface flow `f` revealed at hop `h` and the
//! one it revealed at `h + 1` are endpoints of a directed link, so the
//! walk recovers the interface-level DAG — including unequal-length
//! diamonds, whose merge interface surfaces at several TTLs (the
//! [`crate::MultipathMap::discovered_delta`] convergence signal) —
//! rather than flat per-hop sets.
//!
//! # Probes
//!
//! A walk's probes are `pt-core`'s Paris probes: flow `f` is the
//! [`ParisUdp`] trace (after the adaptive walk's fallback, the
//! [`ParisTcp`] trace) from source port `base_src_port + f`, and the
//! probe id rides in the strategy's per-probe identifier. The same
//! strategy's `match_flows` credits each reply to its probe, so only
//! `pt-core` knows where a probe's identity sits in a reply.
//!
//! # Windowing
//!
//! Up to [`MdaConfig::window`] probes stay in flight at once, in the
//! [`pt_core::ProbeWindow`] the tracer drives too (registry, wait and
//! attribution by probe id are documented there; an expired probe is
//! dropped from it, because its retry carries a new id): probes launch
//! in a deterministic `(TTL, flow, retry)` priority order, and every
//! stopping decision is taken over a hop's *committed prefix* — its
//! flow results folded strictly in flow order. Results a wider window
//! speculatively gathered past the point where the stopping rule fires
//! are discarded, as are hops speculated past the terminal hop or the
//! consecutive-star limit, so on deterministic networks a windowed walk
//! discovers the byte-identical DAG a sequential (`window = 1`) walk
//! discovers — only faster in virtual time.
//!
//! # Classification
//!
//! The moment a hop's enumeration finishes with two or more
//! interfaces — converged or not; a starred balanced hop still holds a
//! real balancer worth classifying — the engine launches a fixed-flow
//! re-probe batch at that TTL *inline* (it rides the same window as
//! ongoing enumeration of deeper hops): a per-flow balancer pins the
//! responder, a per-packet balancer scatters it ([`BalancerClass`]).
//!
//! # Non-responses
//!
//! A flow whose probe times out is retried — [`FLOW_RETRIES`] times, or
//! up to [`ADAPTIVE_FLOW_RETRIES`] at a hop of an adaptive walk that
//! has answered — before being committed as a *star*. Stars are
//! first-class: they are counted per hop, they do not feed the
//! stopping rule's "nothing new" streak (a non-answer is
//! not evidence that the seen set is complete), and any star in the
//! committed prefix marks the hop as *not converged* — a silent router
//! inside a balanced hop is visible as non-convergence instead of
//! silently under-counting the hop's width.

use std::net::Ipv4Addr;

use pt_core::{ParisTcp, ParisUdp, ProbeStrategy, ProbeWindow, Transport, MAX_TTL, PROBE_TIMEOUT};
use pt_netsim::splitmix64;
use pt_netsim::time::{SimDuration, SimTime};
use pt_wire::{IcmpMessage, Packet, Transport as Wire};

use crate::map::{BalancerClass, DagLink, HopInterfaces, MultipathMap};
use crate::rule::RuleTable;

/// Probe protocol for a walk. Every walk starts on UDP; TCP is the
/// fallback the adaptive walk switches to mid-trace when a run of
/// all-star hops suggests a UDP filter on the path. Either way flow `f`
/// is the Paris strategy's trace from source port `base_src_port + f`,
/// and that strategy's `match_flows` credits the replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MdaProtocol {
    /// [`ParisUdp`]: datagrams to `MdaConfig::dst_port`, probe id in the
    /// pinned checksum.
    Udp,
    /// [`ParisTcp`]: SYNs to the HTTP port (as tcptraceroute sends, the
    /// one port filtering middleboxes most reliably pass), probe id in
    /// the Sequence Number.
    Tcp,
}

/// Times a silent flow is re-probed before it is committed as a star
/// (loss robustness; a genuinely silent interface still stars after
/// every retry). It is also the adaptive walk's clamp at a hop that has
/// never answered: backoff chains are for routers that demonstrably
/// respond (rate limiting), not for black holes.
const FLOW_RETRIES: u8 = 2;

/// The adaptive walk's retry budget per flow at a hop that has answered.
const ADAPTIVE_FLOW_RETRIES: u8 = 5;

/// Consecutive all-star hops after which the fixed-rate walk gives up.
pub(crate) const STAR_LIMIT: u8 = 3;

/// The adaptive walk's longer star run, so that MPLS interiors that hide
/// several hops do not truncate the walk.
const ADAPTIVE_STAR_LIMIT: u8 = 5;

/// Size of the fixed-flow re-probe batch that classifies a balanced
/// hop as per-flow vs per-packet.
const CLASSIFY_REPEATS: usize = 8;

/// Base delay before the adaptive walk re-probes a timed-out flow at a
/// hop that has already answered (rate-limit evidence). Doubles per
/// retry, with deterministic jitter drawn from [`MdaConfig::adaptive`].
const RETRY_BACKOFF: SimDuration = SimDuration::from_millis(750);

/// Once a hop shows rate-limit evidence (a timeout after an answer) the
/// adaptive walk enumerates it one probe at a time with at least this
/// gap between launches, doubling per further starved interval up to
/// [`PACE_CAP`] — past the hostile nets' 5 s refill interval.
const PACE_INITIAL: SimDuration = SimDuration::from_millis(1_500);
const PACE_CAP: SimDuration = SimDuration::from_secs(8);

/// The adaptive walk's flow budget for an all-star hop before giving up
/// on it (the fixed-rate walk uses the stopping rule's own scale,
/// `rule.get(1)`): against a hop that answers *nothing*, flow diversity
/// buys no information (filters and MPLS interiors are
/// flow-independent), and the walk crosses more silent hops, so per-hop
/// thrift keeps the fault-free overhead bounded.
const DEAD_HOP_FLOWS: usize = 4;

/// Consecutive all-star hops right after answering hops that make the
/// adaptive walk fall back from UDP to TCP (a UDP filter, not a dead
/// path).
const FALLBACK_AFTER_STARS: u8 = 2;
const _: () = assert!(FALLBACK_AFTER_STARS < ADAPTIVE_STAR_LIMIT, "abandonment would win");

/// MDA parameters.
#[derive(Debug, Clone, Copy)]
pub struct MdaConfig {
    /// Miss probability bound per hop (the stopping rule's confidence
    /// is `1 - alpha`).
    pub alpha: f64,
    /// Hard cap on flows tried per hop.
    pub max_flows_per_hop: usize,
    /// Probes kept in flight at once. `1` reproduces the strictly
    /// sequential send→wait→timeout walk; wider windows overlap probes
    /// within and across hops and cut virtual probing time while
    /// discovering the identical DAG on deterministic networks.
    pub window: u8,
    /// Source port of flow 0; flow `f` probes from `base_src_port + f`.
    pub base_src_port: u16,
    /// Fixed destination port (the five-tuple's other half).
    pub dst_port: u16,
    /// `Some(jitter seed)` arms the hostile-network probing policies
    /// ([`MdaConfig::adaptive`]): a deeper retry budget, backoff retries
    /// with jitter drawn from the seed, per-hop pacing, a thriftier
    /// dead-hop flow budget, a longer star run and the mid-walk UDP →
    /// TCP fallback. `None` is the fixed-rate walk. Derive the seed
    /// from the unit seed so campaigns stay reproducible for any worker
    /// count.
    pub adaptive: Option<u64>,
    /// Watchdog: hard ceiling on probes one walk may send (`0` =
    /// unlimited; the 15-bit id space still caps every walk). When it
    /// trips with enumeration still wanting probes, the walk winds
    /// down and the resulting map is marked
    /// [`MultipathMap::degraded`]. Each probe waits at most
    /// [`PROBE_TIMEOUT`] plus one capped backoff or pacing gate, so the
    /// budget bounds the walk's virtual time too.
    pub probe_budget: u32,
}

impl Default for MdaConfig {
    fn default() -> Self {
        MdaConfig {
            alpha: 0.05,
            max_flows_per_hop: 64,
            window: 8,
            base_src_port: 40_000,
            dst_port: 33_435,
            adaptive: None,
            probe_budget: 0,
        }
    }
}

impl MdaConfig {
    /// The hostile-network preset: a deeper retry budget with
    /// exponential backoff and seeded jitter at hops that answer then
    /// go silent (token-bucket rate limiters), per-hop probe pacing
    /// that widens to ride out the refill interval, a longer star run
    /// before abandonment, and a mid-walk UDP → TCP fallback for
    /// filtered paths. On fault-free paths none of these engage and
    /// the walk behaves like the default configuration plus a deeper
    /// (but clamped at hops that never answered) retry budget.
    pub fn adaptive(jitter_seed: u64) -> Self {
        MdaConfig { adaptive: Some(jitter_seed), ..MdaConfig::default() }
    }

    /// Times a silent flow is re-probed before it is committed as a star.
    fn flow_retries(&self) -> u8 {
        if self.adaptive.is_some() {
            ADAPTIVE_FLOW_RETRIES
        } else {
            FLOW_RETRIES
        }
    }

    /// Consecutive all-star hops that end the walk.
    fn star_limit(&self) -> u8 {
        if self.adaptive.is_some() {
            ADAPTIVE_STAR_LIMIT
        } else {
            STAR_LIMIT
        }
    }
}

/// Probe ids stay below this bound: one walk never issues more than
/// this many probes (enforced as a launch gate), so an id is never live
/// twice and responses cannot mis-attribute, and [`ParisUdp`]'s checksum
/// tag `0x8000 + id` never wraps to zero.
const ID_SPACE: u16 = 0x7fff;

/// Flow budget for a hop with no interface yet: the adaptive walk's
/// dead-hop budget, or the stopping rule's own scale.
fn dead_hop_budget(rule: &mut RuleTable, config: &MdaConfig) -> usize {
    if config.adaptive.is_some() {
        DEAD_HOP_FLOWS
    } else {
        rule.get(1)
    }
}

/// Exponential backoff with deterministic jitter for the `attempt`-th
/// retry of `flow` at `ttl`: `RETRY_BACKOFF * 2^attempt`, plus up to
/// half that again drawn from the walk's jitter seed — reproducible,
/// and no two flows thunder back in lockstep. The fixed-rate walk
/// retries immediately.
fn backoff_delay(config: &MdaConfig, ttl: u8, flow: u16, attempt: u8) -> SimDuration {
    let Some(jitter_seed) = config.adaptive else {
        return SimDuration::ZERO;
    };
    let base = RETRY_BACKOFF.nanos().saturating_mul(1u64 << u32::from(attempt.min(6)));
    let key = (u64::from(ttl) << 32) | (u64::from(flow) << 16) | u64::from(attempt);
    let jitter = splitmix64(jitter_seed ^ key) % (base / 2 + 1);
    SimDuration::from_nanos(base.saturating_add(jitter))
}

fn is_terminal(dst: Ipv4Addr, response: &Packet) -> bool {
    response.ip.src == dst
        || matches!(&response.transport, Wire::Icmp(IcmpMessage::DestUnreachable { .. }))
}

/// One flow's probing state at one hop.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// A probe for this flow is in flight; `retries_left` more probes
    /// may follow if it times out.
    InFlight { retries_left: u8 },
    /// The last probe timed out but retries remain; the launcher will
    /// re-probe this flow before opening new ones, but no earlier than
    /// `not_before` (the adaptive walk's exponential backoff; the
    /// classic walk sets it to the expiry instant, i.e. immediately).
    AwaitingRetry { retries_left: u8, not_before: SimTime },
    /// The flow got an answer.
    Answered { addr: Ipv4Addr, terminal: bool },
    /// The flow never answered, retries included.
    Star,
}

/// Per-hop walk state. Lives in [`MdaScratch`] and is reused (inner
/// vectors keep their capacity) across walks.
#[derive(Debug, Default)]
struct HopState {
    ttl: u8,
    slots: Vec<Slot>,
    /// Leading slots folded into the rule state, strictly in flow order.
    committed: usize,
    /// Distinct committed interfaces, in first-seen order.
    interfaces: Vec<Ipv4Addr>,
    /// Committed `(flow, responder)` evidence.
    flows: Vec<(u16, Ipv4Addr)>,
    stars: usize,
    answered: usize,
    terminals: usize,
    probes_sent: usize,
    enum_done: bool,
    converged: bool,
    classify_target: usize,
    class_launched: usize,
    class_resolved: usize,
    class_answered: usize,
    class_addrs: Vec<Ipv4Addr>,
    /// Rate-limit evidence seen: the hop answered, then starved. While
    /// paced, the hop takes one probe at a time, gated on `gate`.
    paced: bool,
    /// Current pacing gap; doubles per starved interval up to the cap.
    pace: SimDuration,
    /// No probe launches at a paced hop before this instant.
    gate: SimTime,
    /// Last instant the pacing gap was escalated, so one sweep that
    /// expires a whole window of probes at once escalates it once.
    pace_bumped_at: SimTime,
    /// Starved intervals (distinct expiry instants after an answer)
    /// seen at this hop. Pacing engages on the second one: a single
    /// timeout is indistinguishable from ordinary link loss, while a
    /// token-bucket limiter starves every interval after its burst.
    starves: u8,
}

/// `v`, emptied, leaving an empty `Vec` in its place: its capacity
/// moves with it.
fn emptied<T>(v: &mut Vec<T>) -> Vec<T> {
    let mut v = std::mem::take(v);
    v.clear();
    v
}

impl HopState {
    /// A fresh state for `ttl` that keeps its vectors' capacity.
    fn reset(&mut self, ttl: u8) {
        *self = HopState {
            ttl,
            slots: emptied(&mut self.slots),
            interfaces: emptied(&mut self.interfaces),
            flows: emptied(&mut self.flows),
            class_addrs: emptied(&mut self.class_addrs),
            ..HopState::default()
        };
    }

    /// Any answer at this hop, committed or not — evidence the router
    /// responds at all, i.e. that silence is rate limiting rather than
    /// a black hole, and retrying with backoff is worth the wait.
    fn lively(&self) -> bool {
        self.answered > 0 || self.slots.iter().any(|s| matches!(s, Slot::Answered { .. }))
    }

    /// Probes of this hop currently in flight (enumeration and
    /// classification) — what a paced hop holds to at most one.
    fn outstanding(&self) -> usize {
        self.slots.iter().filter(|s| matches!(s, Slot::InFlight { .. })).count()
            + (self.class_launched - self.class_resolved)
    }

    /// Flows this hop's enumeration wants launched in total, given the
    /// committed evidence so far: enough that — if every pending probe
    /// lands on the seen set — the stopping rule fires exactly at the
    /// last one. Grows when new interfaces (or stars, which carry no
    /// evidence) commit; never shrinks below what was already launched.
    fn target(&self, rule: &mut RuleTable, config: &MdaConfig) -> usize {
        if self.enum_done {
            return self.slots.len();
        }
        let k = self.interfaces.len();
        let t = if k == 0 {
            // No interface yet: an all-silent hop is abandoned after as
            // many flows as would rule out a *second* interface had one
            // answered — the rule's own scale, not the full flow budget
            // (or the adaptive walk's smaller `DEAD_HOP_FLOWS` budget).
            dead_hop_budget(rule, config)
        } else {
            // The rule bounds *answered* probes at the hop (the MDA
            // table's n_k is a total, discovery probes included); a
            // lost probe observes nothing, so each committed star
            // widens the send budget by exactly one — the
            // loss-adjusted rule. Loss can only widen, never narrow,
            // the hop hypothesis.
            rule.get_lossy(k, self.stars)
        };
        t.min(config.max_flows_per_hop)
    }

    /// Fold resolved leading slots into the rule state and take the
    /// stopping decision. Called whenever a slot resolves.
    fn commit(&mut self, rule: &mut RuleTable, config: &MdaConfig) {
        while !self.enum_done && self.committed < self.slots.len() {
            match self.slots[self.committed] {
                Slot::Answered { addr, terminal } => {
                    self.flows.push((self.committed as u16, addr));
                    if !self.interfaces.contains(&addr) {
                        self.interfaces.push(addr);
                    }
                    self.answered += 1;
                    if terminal {
                        self.terminals += 1;
                    }
                }
                Slot::Star => self.stars += 1,
                Slot::InFlight { .. } | Slot::AwaitingRetry { .. } => break,
            }
            self.committed += 1;
            let k = self.interfaces.len();
            // The loss-adjusted stopping point: `answered + stars`
            // committed flows against the base requirement plus the
            // observed loss — i.e. the rule still demands its full
            // count of *answered* probes, and every star defers it.
            if k >= 1 && self.committed >= rule.get_lossy(k, self.stars) {
                self.enum_done = true;
                self.converged = self.stars == 0;
            } else if k == 0 && self.committed >= dead_hop_budget(rule, config) {
                self.enum_done = true; // all-star hop: give up early
            } else if self.committed >= config.max_flows_per_hop {
                self.enum_done = true; // flow budget exhausted
            }
        }
        if self.enum_done && self.classify_target == 0 && self.interfaces.len() >= 2 {
            self.classify_target = CLASSIFY_REPEATS;
        }
    }

    /// Every committed answer was terminal (and there was at least
    /// one): this hop is the end of the walk.
    fn terminal_complete(&self) -> bool {
        self.answered > 0 && self.terminals == self.answered
    }

    /// Enumeration and the inline classification batch are both done;
    /// the hop can be finalized in TTL order. Speculative enumeration
    /// probes past the committed prefix may still be in flight — their
    /// answers are discarded, so they need not be waited for.
    fn finalized(&self) -> bool {
        self.enum_done
            && self.class_launched == self.classify_target
            && self.class_resolved == self.classify_target
    }

    fn class(&self) -> BalancerClass {
        if self.interfaces.len() < 2 {
            BalancerClass::NotBalanced
        } else if self.class_answered < 2 {
            BalancerClass::Undetermined
        } else if self.class_addrs.len() > 1 {
            BalancerClass::PerPacket
        } else {
            BalancerClass::PerFlow
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum ProbeKind {
    Enumerate { flow: u16 },
    Classify,
}

/// What the window remembers of a probe: its hop state and its role.
#[derive(Debug, Clone, Copy)]
struct Probe {
    hop: usize,
    kind: ProbeKind,
}

/// A probe's deadline passed unanswered: a star once its retries are
/// spent, a (possibly backed-off) retry otherwise, and — at a hop that
/// has answered before — rate-limit evidence for the pacing policy.
fn expire(
    st: &mut HopState,
    kind: ProbeKind,
    now: SimTime,
    rule: &mut RuleTable,
    config: &MdaConfig,
) {
    let ProbeKind::Enumerate { flow } = kind else {
        st.class_resolved += 1;
        return;
    };
    let fi = usize::from(flow);
    if st.enum_done && fi >= st.committed {
        return; // speculative leftover
    }
    let Slot::InFlight { retries_left } = st.slots[fi] else {
        return;
    };
    let lively = st.lively();
    // Timeouts at a hop that has answered are rate-limit evidence — but
    // only repeated ones. Count one starve per sweep instant (one
    // starved window is one signal) and engage or widen pacing from the
    // second on; a lone timeout is ordinary link loss and costs only
    // its backoff.
    if lively && config.adaptive.is_some() && st.pace_bumped_at != now {
        st.pace_bumped_at = now;
        st.starves = st.starves.saturating_add(1);
        if st.starves >= 2 {
            st.paced = true;
            st.pace = if st.pace == SimDuration::ZERO {
                PACE_INITIAL
            } else {
                (st.pace + st.pace).min(PACE_CAP)
            };
        }
    }
    let spent = config.flow_retries().saturating_sub(retries_left);
    let exhausted =
        retries_left == 0 || (config.adaptive.is_some() && !lively && spent >= FLOW_RETRIES);
    st.slots[fi] = if exhausted {
        Slot::Star
    } else {
        // First retry fires immediately (right for isolated loss, and
        // exactly the classic walk); repeats back off — by then the
        // silence is a pattern.
        let not_before = if lively && spent >= 1 {
            now + backoff_delay(config, st.ttl, flow, spent - 1)
        } else {
            now
        };
        Slot::AwaitingRetry { retries_left: retries_left - 1, not_before }
    };
    st.commit(rule, config);
}

/// What the launch scan decided to send next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Launch {
    Retry { hop: usize, flow: u16 },
    NewFlow { hop: usize },
    Classify { hop: usize },
    OpenHop,
}

const RECORD_POOL_CAP: usize = 64;

/// Reusable per-walk bookkeeping: the probe window, the
/// per-hop walk states, the stopping-rule memo, and pools of result
/// vectors harvested from finished maps. A caller that keeps one
/// `MdaScratch` across walks — recycling each consumed
/// [`MultipathMap`] back into it — runs [`discover_with`] with zero
/// steady-state heap allocation.
#[derive(Debug, Default)]
pub struct MdaScratch {
    window: ProbeWindow<Probe>,
    states: Vec<HopState>,
    rule: RuleTable,
    record_pool: Vec<HopInterfaces>,
    hops_pool: Vec<Vec<HopInterfaces>>,
    links_pool: Vec<Vec<DagLink>>,
}

impl MdaScratch {
    /// Empty scratch; warms up over the first walk.
    pub fn new() -> Self {
        Self::default()
    }

    /// Harvest a finished map's vectors for reuse by later walks. Call
    /// this instead of dropping maps you have finished reading.
    pub fn recycle(&mut self, map: MultipathMap) {
        let mut hops = map.hops;
        for hop in hops.drain(..) {
            if self.record_pool.len() < RECORD_POOL_CAP {
                self.record_pool.push(hop);
            }
        }
        if self.hops_pool.len() < 4 {
            self.hops_pool.push(hops);
        }
        if self.links_pool.len() < 4 {
            let mut links = map.links;
            links.clear();
            self.links_pool.push(links);
        }
    }
}

/// Discover the multipath DAG toward `destination`, allocating fresh
/// bookkeeping. Prefer [`discover_with`] in loops.
pub fn discover<T: Transport>(
    transport: &mut T,
    destination: Ipv4Addr,
    config: &MdaConfig,
) -> MultipathMap {
    discover_with(transport, destination, config, &mut MdaScratch::new())
}

/// Discover the multipath DAG toward `destination`, reusing `scratch`
/// for all per-walk bookkeeping. With a warm scratch and a pooling
/// transport, the whole probe→response cycle performs no heap
/// allocation.
///
/// Up to [`MdaConfig::window`] probes stay in flight at once (see the
/// module docs for the windowed semantics); `window = 1` reproduces
/// the strictly sequential walk, and both discover the identical DAG
/// on deterministic networks.
pub fn discover_with<T: Transport>(
    transport: &mut T,
    destination: Ipv4Addr,
    config: &MdaConfig,
    scratch: &mut MdaScratch,
) -> MultipathMap {
    assert!(
        config.max_flows_per_hop >= 1
            && config.max_flows_per_hop <= usize::from(u16::MAX - config.base_src_port),
        "flow ids must fit the source-port space above base_src_port"
    );
    let source = transport.source_addr();
    let window = usize::from(config.window).max(1);
    // Flow `f` is the strategy's trace from `base_src_port + f`.
    let udp = ParisUdp::new(config.base_src_port, config.dst_port);
    let tcp = ParisTcp::new(config.base_src_port);
    let flows = config.max_flows_per_hop as u16;
    scratch.rule.reset(config.alpha);
    scratch.window.clear();

    let mut opened = 0usize; // states[..opened] are live this walk
    let mut frontier = 0usize; // first hop not yet finalized
    let mut consecutive_stars = 0u8;
    let mut next_id: u16 = 0;
    let mut total_probes = 0usize;
    let mut proto = MdaProtocol::Udp;
    let kept: usize;

    // The watchdog: the probe gate folds the configured ceiling into
    // the id-space cap. `budget_hit` records that a closed gate cut off
    // launches the walk still wanted, which marks the map degraded.
    let probe_gate = match config.probe_budget {
        0 => usize::from(ID_SPACE),
        budget => usize::from(ID_SPACE).min(budget as usize),
    };
    let mut budget_hit = false;

    'drive: loop {
        // 1. Finalize complete hops in TTL order. Everything the map
        //    reports — which hops exist, where the walk stops — is
        //    decided here, so speculative probes cannot change it.
        while frontier < opened && scratch.states[frontier].finalized() {
            let h = &scratch.states[frontier];
            if h.terminal_complete() {
                kept = frontier + 1;
                break 'drive;
            }
            if h.interfaces.is_empty() {
                consecutive_stars += 1;
                if proto == MdaProtocol::Udp
                    && config.adaptive.is_some()
                    && consecutive_stars >= FALLBACK_AFTER_STARS
                {
                    // A run of all-star hops right behind answering
                    // hops smells like a UDP filter, not a dead path:
                    // roll the starred run back and re-enumerate it
                    // over TCP. Outstanding probes at the rolled-back
                    // hops are forgotten (their late answers no longer
                    // match the protocol in force); hops before the
                    // run keep their committed UDP evidence.
                    let first = frontier + 1 - usize::from(consecutive_stars);
                    scratch.window.forget(|p| p.hop >= first);
                    opened = first;
                    frontier = first;
                    consecutive_stars = 0;
                    proto = MdaProtocol::Tcp;
                    continue 'drive;
                }
                if consecutive_stars >= config.star_limit() {
                    kept = frontier + 1;
                    break 'drive;
                }
            } else {
                consecutive_stars = 0;
            }
            frontier += 1;
        }

        // 2. Top up the probe window in deterministic priority order:
        //    lowest unfinished hop first; within a hop, retries before
        //    new flows before the classification batch; a new hop opens
        //    only when no existing hop wants a probe. The 15-bit probe
        //    id space is a hard launch gate: a (degenerate) walk that
        //    exhausts it winds down with partial, unconverged hops
        //    rather than recycling ids into mis-attribution.
        let now = transport.now();
        let mut wake: Option<SimTime> = None;
        while scratch.window.in_flight() < window {
            if total_probes >= probe_gate {
                // The watchdog (or the id space) closed the launch gate.
                // Leaving `wake` unset lets the walk wind down: once
                // the window drains, nothing reopens it. The map is
                // degraded only if enumeration still wanted probes —
                // a walk that was already done keeps a clean bill.
                if !budget_hit {
                    let (launch, next_ready) = next_launch(
                        &scratch.states[..opened],
                        &mut scratch.rule,
                        config,
                        frontier,
                        now,
                    );
                    budget_hit = launch.is_some() || next_ready.is_some();
                }
                break;
            }
            let (launch, next_ready) =
                next_launch(&scratch.states[..opened], &mut scratch.rule, config, frontier, now);
            wake = next_ready;
            let Some(launch) = launch else {
                break;
            };
            let (hop_idx, flow, retries_left, kind) = match launch {
                Launch::Retry { hop, flow } => {
                    let Slot::AwaitingRetry { retries_left, .. } =
                        scratch.states[hop].slots[usize::from(flow)]
                    else {
                        unreachable!("retry launch on a non-retry slot")
                    };
                    (hop, flow, retries_left, ProbeKind::Enumerate { flow })
                }
                Launch::NewFlow { hop } => {
                    let flow = scratch.states[hop].slots.len() as u16;
                    (hop, flow, config.flow_retries(), ProbeKind::Enumerate { flow })
                }
                Launch::Classify { hop } => {
                    // Re-probe with the first flow that answered — a
                    // committed, deterministic choice that avoids
                    // pinning the batch to a silent branch.
                    let flow = scratch.states[hop]
                        .flows
                        .first()
                        .map(|&(f, _)| f)
                        .expect("classification only runs on hops with answers");
                    (hop, flow, 0, ProbeKind::Classify)
                }
                Launch::OpenHop => {
                    if opened == scratch.states.len() {
                        scratch.states.push(HopState::default());
                    }
                    let ttl = opened as u8 + 1;
                    scratch.states[opened].reset(ttl);
                    opened += 1;
                    continue; // the next scan launches its first flow
                }
            };
            let st = &mut scratch.states[hop_idx];
            match kind {
                ProbeKind::Enumerate { .. } => {
                    let slot = Slot::InFlight { retries_left };
                    if usize::from(flow) == st.slots.len() {
                        st.slots.push(slot);
                    } else {
                        st.slots[usize::from(flow)] = slot;
                    }
                }
                ProbeKind::Classify => st.class_launched += 1,
            }
            if st.paced {
                st.gate = now + st.pace;
            }
            st.probes_sent += 1;
            total_probes += 1;
            let (ttl, id) = (st.ttl, u64::from(next_id));
            let src_port = config.base_src_port + flow;
            let (mut u, mut t) = (ParisUdp { src_port, ..udp }, ParisTcp { src_port, ..tcp });
            let strategy: &mut dyn ProbeStrategy = match proto {
                MdaProtocol::Udp => &mut u,
                MdaProtocol::Tcp => &mut t,
            };
            let payload = transport.grab_payload();
            let packet = strategy.build_probe_with(source, destination, ttl, id, payload);
            let sent = transport.now();
            let probe = Probe { hop: hop_idx, kind };
            scratch.window.launch(id, sent, PROBE_TIMEOUT, probe);
            next_id = next_id.wrapping_add(1) & ID_SPACE;
            transport.send(packet);
        }

        if scratch.window.in_flight() == 0 && wake.is_none() {
            // Nothing in flight and nothing launchable: every opened
            // hop is finalized and the TTL ceiling stops new ones.
            kept = opened;
            break;
        }

        // 3. Resolve whichever in-flight probe settles first, waking
        //    no later than the next deferred launch (a backoff retry
        //    or a paced hop's gate; with nothing in flight this just
        //    idles the clock to it). An expired probe leaves the
        //    window: its retry carries a new id, so a late answer is a
        //    stray.
        let Some(reply) = scratch.window.settle(
            transport,
            wake,
            |resp| match proto {
                MdaProtocol::Udp => udp.match_flows(destination, resp, flows),
                MdaProtocol::Tcp => tcp.match_flows(destination, resp, flows),
            },
            |probe, now| {
                let st = &mut scratch.states[probe.hop];
                expire(st, probe.kind, now, &mut scratch.rule, config);
                false
            },
        ) else {
            continue; // stray, duplicate, expiry or wake-up: look again
        };
        let (probe, resp) = (reply.probe, reply.packet);
        let from = resp.ip.src;
        let terminal = is_terminal(destination, &resp);
        transport.release(resp);
        let st = &mut scratch.states[probe.hop];
        match probe.kind {
            ProbeKind::Enumerate { flow } => {
                let fi = usize::from(flow);
                if st.enum_done && fi >= st.committed {
                    continue; // speculative result past the stopping point
                }
                debug_assert!(matches!(st.slots[fi], Slot::InFlight { .. }));
                st.slots[fi] = Slot::Answered { addr: from, terminal };
                st.commit(&mut scratch.rule, config);
            }
            ProbeKind::Classify => {
                st.class_resolved += 1;
                st.class_answered += 1;
                if !st.class_addrs.contains(&from) {
                    st.class_addrs.push(from);
                }
            }
        }
    }

    // Convert the kept walk states into the result map. Interfaces are
    // copied (not moved) out of the states so the states keep their
    // warm capacity for the next walk.
    let mut hops: Vec<HopInterfaces> = scratch.hops_pool.pop().unwrap_or_default();
    hops.clear();
    for st in &scratch.states[..kept] {
        let pooled = scratch.record_pool.pop().map(|rec| (rec.interfaces, rec.flows));
        let (mut interfaces, mut flows) = pooled.unwrap_or_default();
        interfaces.clone_from(&st.interfaces);
        interfaces.sort_unstable();
        flows.clone_from(&st.flows);
        hops.push(HopInterfaces {
            ttl: st.ttl,
            interfaces,
            flows,
            probes_sent: st.probes_sent,
            stars: st.stars,
            converged: st.converged,
            class: st.class(),
        });
    }
    let mut links: Vec<DagLink> = scratch.links_pool.pop().unwrap_or_default();
    links.clear();
    for i in 1..hops.len() {
        let (a, b) = (&hops[i - 1], &hops[i]);
        // Merge-join on flow id (both lists are in flow order).
        let (mut x, mut y) = (0, 0);
        while x < a.flows.len() && y < b.flows.len() {
            match a.flows[x].0.cmp(&b.flows[y].0) {
                std::cmp::Ordering::Less => x += 1,
                std::cmp::Ordering::Greater => y += 1,
                std::cmp::Ordering::Equal => {
                    links.push(DagLink { from_ttl: a.ttl, from: a.flows[x].1, to: b.flows[y].1 });
                    x += 1;
                    y += 1;
                }
            }
        }
    }
    links.sort_unstable();
    links.dedup();
    let reached = hops.iter().any(|h| h.interfaces.contains(&destination));
    MultipathMap { destination, hops, links, total_probes, reached, degraded: budget_hit }
}

/// Deterministic launch priority: scan hops from the finalization
/// frontier; the first hop still enumerating takes retries (lowest
/// flow first), then new flows up to its current target; a converged
/// balanced hop takes its classification batch; only when no open hop
/// wants a probe does a new hop open — and never past a hop already
/// known to be terminal, nor past the TTL ceiling.
///
/// Adaptive deferrals ride alongside: a backoff retry whose
/// `not_before` is still ahead, or a paced hop whose gate has not
/// opened (or that already holds its one allowed probe), is skipped
/// for now and its due time folded into the returned wake-up instant —
/// the drive loop idles the clock to the earlier of that instant and
/// the next probe deadline, so deferred launches fire exactly on time
/// and deeper hops keep walking meanwhile.
fn next_launch(
    states: &[HopState],
    rule: &mut RuleTable,
    config: &MdaConfig,
    frontier: usize,
    now: SimTime,
) -> (Option<Launch>, Option<SimTime>) {
    fn defer(wake: &mut Option<SimTime>, at: SimTime) {
        *wake = Some(wake.map_or(at, |w| w.min(at)));
    }
    let mut wake: Option<SimTime> = None;
    let mut terminal_known = false;
    for (i, st) in states.iter().enumerate().skip(frontier) {
        // A paced hop (rate-limit evidence) launches one probe at a
        // time, no earlier than its gate.
        let gated = st.paced && (st.outstanding() > 0 || st.gate > now);
        if !st.enum_done {
            if gated {
                if st.outstanding() == 0 {
                    defer(&mut wake, st.gate);
                }
            } else {
                let mut ready = None;
                for (fi, s) in st.slots.iter().enumerate() {
                    if let Slot::AwaitingRetry { not_before, .. } = s {
                        if *not_before <= now {
                            ready = Some(fi);
                            break;
                        }
                        defer(&mut wake, *not_before);
                    }
                }
                if let Some(fi) = ready {
                    return (Some(Launch::Retry { hop: i, flow: fi as u16 }), wake);
                }
                if st.slots.len() < st.target(rule, config) {
                    return (Some(Launch::NewFlow { hop: i }), wake);
                }
            }
        } else if st.class_launched < st.classify_target {
            if gated {
                if st.outstanding() == 0 {
                    defer(&mut wake, st.gate);
                }
            } else {
                return (Some(Launch::Classify { hop: i }), wake);
            }
        }
        terminal_known |= st.enum_done && st.terminal_complete();
    }
    if !terminal_known && states.len() < usize::from(MAX_TTL) {
        return (Some(Launch::OpenHop), wake);
    }
    (None, wake)
}
