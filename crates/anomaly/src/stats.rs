//! Campaign-level statistics (§4.1.2, §4.2.2, §4.3.2): accumulate
//! anomalies across rounds and tools, then difference classic against
//! Paris to attribute causes the way the paper does.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use pt_core::{HaltReason, MeasuredRoute, StrategyId};

use crate::codec::{push_field, push_key_lines, read_key_lines, tagged, tok, LineSource, Sink};
use crate::cycle::{for_each_cycle, CycleCause};
use crate::diamond::for_each_triple;
use crate::keyset::{groups, Key, KeySet};
use crate::r#loop::{for_each_loop, LoopCause};

/// A loop or cycle signature: `(looping address, destination)` — §4's
/// definition. Diamonds use `(destination, head, tail)` internally.
pub type Signature = (Ipv4Addr, Ipv4Addr);

/// The loop causes, at the numbers an instance key gives them: their
/// declaration order, which is also their `Ord`.
const LOOP_CAUSES: [LoopCause; 4] = [
    LoopCause::Unreachability,
    LoopCause::ZeroTtlForwarding,
    LoopCause::AddressRewriting,
    LoopCause::Unexplained,
];

/// The cycle causes, numbered as [`LOOP_CAUSES`] numbers the loop causes.
const CYCLE_CAUSES: [CycleCause; 3] =
    [CycleCause::ForwardingLoop, CycleCause::Unreachability, CycleCause::Unexplained];

/// The paper's final attribution of a classic-traceroute loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FinalLoopCause {
    /// Signature vanished under Paris: per-flow load balancing (87%).
    PerFlowLoadBalancing,
    /// Probe-TTL 0→1 signature (6.9%).
    ZeroTtlForwarding,
    /// `!H`/`!N` follow-up (1.2%).
    Unreachability,
    /// NAT/gateway source rewriting (2.8%).
    AddressRewriting,
    /// The residue, suspected per-packet load balancing (2.5%).
    PerPacketSuspected,
}

/// The paper's final attribution of a classic-traceroute cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FinalCycleCause {
    /// Signature vanished under Paris (78%).
    PerFlowLoadBalancing,
    /// Genuine routing convergence loop (20%).
    ForwardingLoop,
    /// Unreachability message from an already-seen router (1.2%).
    Unreachability,
    /// Fake addresses / per-packet load balancing residue (1.1%).
    Other,
}

/// The `[destination, head, tail]` of every diamond among `triples`:
/// the groups with two or more middles, in order.
fn diamonds(triples: &[Key<4>]) -> impl Iterator<Item = Key<3>> + '_ {
    groups(triples, 3).filter(|middles| middles.len() >= 2).map(|m| [m[0][0], m[0][1], m[0][2]])
}

/// The signatures of `[address, destination, round]` keys.
fn signatures(sig_rounds: &[Key<3>]) -> BTreeSet<Signature> {
    groups(sig_rounds, 2).map(|rounds| (rounds[0][0].into(), rounds[0][1].into())).collect()
}

/// The one-field sets' record sections, in
/// `CampaignAccumulator::addr_sets` order: rounds, destinations and
/// responding addresses.
const ADDR_SETS: [&str; 3] = ["rounds", "dests", "addrs_seen"];
const ROUNDS: usize = 0;
const DESTS: usize = 1;
const ADDRS: usize = 2;

/// An accumulator's counters: the `counts` line of its record, in
/// [`Counts::all`]'s order.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    routes_total: u64,
    /// Routes with at least one loop (or cycle). Not a function of the
    /// signature keys: one `(destination, round)` may hold several
    /// routes.
    routes_with_loop: u64,
    routes_with_cycle: u64,
    /// Responses are the probes sent less the stars.
    probes_sent: u64,
    stars: u64,
    mid_route_stars: u64,
    reached: u64,
    degraded_routes: u64,
}

impl Counts {
    /// Every counter, in record order.
    fn all(&mut self) -> [&mut u64; 8] {
        [
            &mut self.routes_total,
            &mut self.routes_with_loop,
            &mut self.routes_with_cycle,
            &mut self.probes_sent,
            &mut self.stars,
            &mut self.mid_route_stars,
            &mut self.reached,
            &mut self.degraded_routes,
        ]
    }
}

/// Accumulates one tool's observations across a whole campaign. Each
/// fact is held once: what a report needs beyond these fields it
/// derives from them.
#[derive(Debug, Clone)]
pub struct CampaignAccumulator {
    /// Which tool produced these routes.
    pub tool: StrategyId,
    counts: Counts,
    /// Indexed by [`ROUNDS`], [`DESTS`] and [`ADDRS`].
    addr_sets: [KeySet<1>; 3],
    /// `[looping address, destination, round]`: a signature's rounds,
    /// and, projected, the addresses and destinations that showed one.
    loop_sig_rounds: KeySet<3>,
    cycle_sig_rounds: KeySet<3>,
    loop_instances: BTreeMap<(Signature, LoopCause), u64>,
    cycle_instances: BTreeMap<(Signature, CycleCause), u64>,
    /// `[destination, head, tail, middle]`: every destination's route
    /// graph in one set; a diamond is a group of two or more middles.
    triples: KeySet<4>,
}

impl CampaignAccumulator {
    /// Fresh accumulator for one tool.
    pub fn new(tool: StrategyId) -> Self {
        CampaignAccumulator {
            tool,
            counts: Counts::default(),
            addr_sets: Default::default(),
            loop_sig_rounds: KeySet::default(),
            cycle_sig_rounds: KeySet::default(),
            loop_instances: BTreeMap::new(),
            cycle_instances: BTreeMap::new(),
            triples: KeySet::default(),
        }
    }

    /// Fold in one measured route observed during `round`.
    ///
    /// # Panics
    /// Panics on a round past `u32::MAX` — campaign unit ids, which
    /// bound the rounds, are 32-bit too.
    pub fn ingest(&mut self, round: usize, route: &MeasuredRoute) {
        let round = u32::try_from(round).expect("rounds fit the 32-bit unit id space");
        self.addr_sets[ROUNDS].insert([round]);
        self.counts.routes_total += 1;
        let d = u32::from(route.destination);
        self.addr_sets[DESTS].insert([d]);
        for a in route.hops.iter().filter_map(|h| h.probe.addr) {
            self.addr_sets[ADDRS].insert([a.into()]);
        }
        let c = &mut self.counts;
        c.probes_sent += route.probes_sent() as u64;
        c.stars += route.stars() as u64;
        c.mid_route_stars += route.mid_route_stars() as u64;
        c.reached += u64::from(route.reached_destination());
        c.degraded_routes += u64::from(route.halt == HaltReason::Budget);

        let mut looped = false;
        for_each_loop(route, |l| {
            looped = true;
            self.loop_sig_rounds.insert([l.addr.into(), d, round]);
            let key = ((l.addr, route.destination), l.cause);
            *self.loop_instances.entry(key).or_insert(0) += 1;
        });
        self.counts.routes_with_loop += u64::from(looped);
        let mut cycled = false;
        for_each_cycle(route, |c| {
            cycled = true;
            self.cycle_sig_rounds.insert([c.addr.into(), d, round]);
            let key = ((c.addr, route.destination), c.cause);
            *self.cycle_instances.entry(key).or_insert(0) += 1;
        });
        self.counts.routes_with_cycle += u64::from(cycled);

        for_each_triple(route, |h, r, t| self.triples.insert([d, h.into(), t.into(), r.into()]));
    }

    /// Merge another accumulator (e.g. from a parallel shard) into this
    /// one, leaving every set of this one a single sorted run: what a
    /// later merge or snapshot then reads without sorting or copying.
    /// Tool ids must match.
    ///
    /// # Panics
    /// Panics when merging accumulators of different tools.
    pub fn merge(&mut self, mut other: CampaignAccumulator) {
        self.absorb(&mut other);
    }

    /// [`CampaignAccumulator::merge`], leaving `other` as empty as
    /// [`CampaignAccumulator::new`] makes it but for the size of each
    /// set, which [`CampaignAccumulator::reserve_for_refill`] reads.
    /// Into an empty accumulator, `other`'s sorted runs and instance maps
    /// move whole: a campaign worker sorts its own block this way, and a
    /// journal's first record is folded without a copy.
    ///
    /// # Panics
    /// Panics when merging accumulators of different tools.
    pub fn absorb(&mut self, other: &mut CampaignAccumulator) {
        assert_eq!(self.tool, other.tool, "cannot merge different tools");
        for (mine, theirs) in self.addr_sets.iter_mut().zip(&mut other.addr_sets) {
            mine.absorb(theirs);
        }
        self.loop_sig_rounds.absorb(&mut other.loop_sig_rounds);
        self.cycle_sig_rounds.absorb(&mut other.cycle_sig_rounds);
        self.triples.absorb(&mut other.triples);
        add_instances(&mut self.loop_instances, &mut other.loop_instances);
        add_instances(&mut self.cycle_instances, &mut other.cycle_instances);
        for (mine, theirs) in self.counts.all().into_iter().zip(other.counts.all()) {
            *mine += std::mem::take(theirs);
        }
    }

    /// Make room in each set for as many keys as it held when an
    /// [`CampaignAccumulator::absorb`] last emptied it. An accumulator
    /// emptied and refilled over and over, as a campaign worker's is
    /// block after block, then allocates each set's hash table once per
    /// refill instead of doubling it from empty.
    pub fn reserve_for_refill(&mut self) {
        for set in &mut self.addr_sets {
            set.reserve();
        }
        self.loop_sig_rounds.reserve();
        self.cycle_sig_rounds.reserve();
        self.triples.reserve();
    }

    /// Every responding address discovered across the campaign, in
    /// address order.
    pub fn addresses_seen(&self) -> Vec<Ipv4Addr> {
        self.addr_sets[ADDRS].keys().iter().map(|&[a]| Ipv4Addr::from(a)).collect()
    }

    /// Loop signatures observed (for differencing). Ordered so that
    /// every downstream iteration is deterministic by construction.
    pub fn loop_signatures(&self) -> BTreeSet<Signature> {
        signatures(&self.loop_sig_rounds.keys())
    }

    /// Cycle signatures observed.
    pub fn cycle_signatures(&self) -> BTreeSet<Signature> {
        signatures(&self.cycle_sig_rounds.keys())
    }

    /// Diamond signatures per destination: `(destination, head, tail)`.
    pub fn diamond_signatures(&self) -> BTreeSet<(Ipv4Addr, Ipv4Addr, Ipv4Addr)> {
        diamonds(&self.triples.keys()).map(|[d, h, t]| (d.into(), h.into(), t.into())).collect()
    }

    /// Destinations toward which some route held a loop that
    /// [`crate::find_loops`] diagnosed as `cause`.
    pub fn loop_dests(&self, cause: LoopCause) -> BTreeSet<Ipv4Addr> {
        let with_cause = self.loop_instances.keys().filter(|(_, c)| *c == cause);
        with_cause.map(|((_, dest), _)| *dest).collect()
    }

    /// Total loop instances.
    pub fn loop_instance_count(&self) -> u64 {
        self.loop_instances.values().sum()
    }

    /// Total cycle instances.
    pub fn cycle_instance_count(&self) -> u64 {
        self.cycle_instances.values().sum()
    }

    /// Summarize this tool's campaign.
    pub fn report(&self) -> ToolReport {
        let pct = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 * 100.0 };
        // From `[address, destination, round]` keys: the signatures, those
        // seen in one round only, and the addresses and destinations the
        // signatures name.
        let tally = |sig_rounds: &[Key<3>]| {
            let (sigs, single) = groups(sig_rounds, 2)
                .fold((0u64, 0u64), |(sigs, single), rounds| {
                    (sigs + 1, single + u64::from(rounds.len() == 1))
                });
            let mut dests: Vec<u32> = sig_rounds.iter().map(|key| key[1]).collect();
            dests.sort_unstable();
            dests.dedup();
            (sigs, single, groups(sig_rounds, 1).count() as u64, dests.len() as u64)
        };
        let (loop_sigs, loop_sigs_single_round, addrs_in_loop, dests_with_loop) =
            tally(&self.loop_sig_rounds.keys());
        let (cycle_sigs, cycle_sigs_single_round, addrs_in_cycle, dests_with_cycle) =
            tally(&self.cycle_sig_rounds.keys());
        let cycle_sig_mean_rounds = if cycle_sigs == 0 {
            0.0
        } else {
            self.cycle_sig_rounds.len() as f64 / cycle_sigs as f64
        };
        // One destination per diamond, in order; then one per destination.
        let mut dests_with_diamond: Vec<u32> =
            diamonds(&self.triples.keys()).map(|[d, _, _]| d).collect();
        let diamonds_total = dests_with_diamond.len() as u64;
        dests_with_diamond.dedup();
        let len = |set: usize| self.addr_sets[set].len() as u64;
        let (dests, addrs) = (len(DESTS), len(ADDRS));
        let c = self.counts;
        ToolReport {
            tool: self.tool,
            rounds: len(ROUNDS),
            routes_total: c.routes_total,
            destinations: dests,
            addresses_discovered: addrs,
            probes_sent: c.probes_sent,
            responses: c.probes_sent - c.stars,
            stars: c.stars,
            mid_route_stars: c.mid_route_stars,
            degraded_routes: c.degraded_routes,
            pct_routes_reaching_destination: pct(c.reached, c.routes_total),
            pct_routes_with_loop: pct(c.routes_with_loop, c.routes_total),
            pct_dests_with_loop: pct(dests_with_loop, dests),
            pct_addrs_in_loop: pct(addrs_in_loop, addrs),
            loop_signatures: loop_sigs,
            pct_loop_sigs_single_round: pct(loop_sigs_single_round, loop_sigs),
            pct_routes_with_cycle: pct(c.routes_with_cycle, c.routes_total),
            pct_dests_with_cycle: pct(dests_with_cycle, dests),
            pct_addrs_in_cycle: pct(addrs_in_cycle, addrs),
            cycle_signatures: cycle_sigs,
            pct_cycle_sigs_single_round: pct(cycle_sigs_single_round, cycle_sigs),
            cycle_sig_mean_rounds,
            diamonds_total,
            pct_dests_with_diamond: pct(dests_with_diamond.len() as u64, dests),
        }
    }

    /// Serialize this accumulator into the campaign checkpoint's line
    /// format (the grammar is in `docs/ROBUSTNESS.md`). Every set and
    /// map is emitted in sorted order, so two accumulators with equal
    /// *contents* — however the campaign was sharded across workers and
    /// merged — produce identical bytes; after a
    /// [`CampaignAccumulator::merge`] that order is the one the sets
    /// are held in, and writing sorts and copies nothing. `out` may be
    /// a `String` or a stream: nothing here looks back at what it wrote.
    pub fn snapshot_write(&self, out: &mut impl Sink) {
        out.put("acc ");
        out.put(self.tool.name());
        out.put("\ncounts");
        let mut counts = self.counts;
        for count in counts.all() {
            push_field(out, *count);
        }
        out.put("\n");
        for (name, set) in ADDR_SETS.into_iter().zip(&self.addr_sets) {
            push_key_set(out, name, set);
        }
        push_key_set(out, "loop_rounds", &self.loop_sig_rounds);
        push_key_set(out, "cycle_rounds", &self.cycle_sig_rounds);
        push_instances(out, "loop_instances", &self.loop_instances, &LOOP_CAUSES);
        push_instances(out, "cycle_instances", &self.cycle_instances, &CYCLE_CAUSES);
        push_key_set(out, "triples", &self.triples);
        out.put("end_acc\n");
    }

    /// Parse one accumulator back out of the checkpoint line stream —
    /// the inverse of [`CampaignAccumulator::snapshot_write`], from a
    /// text's lines or a stream alike.
    pub fn snapshot_read(lines: &mut impl LineSource) -> Result<CampaignAccumulator, String> {
        let mut t = tagged(lines, "acc")?;
        let tool_name = t.next().ok_or("acc: missing tool")?;
        let tool = StrategyId::from_name(tool_name)
            .ok_or_else(|| format!("unknown tool {tool_name:?}"))?;
        let mut acc = CampaignAccumulator::new(tool);

        let mut t = tagged(lines, "counts")?;
        for count in acc.counts.all() {
            *count = tok(&mut t, "count")?;
        }
        let Counts { stars, probes_sent, .. } = acc.counts;
        if stars > probes_sent {
            return Err(format!("{stars} stars of {probes_sent} probes"));
        }

        for (name, set) in ADDR_SETS.into_iter().zip(&mut acc.addr_sets) {
            *set = read_key_set(lines, name)?;
        }
        acc.loop_sig_rounds = read_key_set(lines, "loop_rounds")?;
        acc.cycle_sig_rounds = read_key_set(lines, "cycle_rounds")?;
        acc.loop_instances = read_instances(lines, "loop_instances", &LOOP_CAUSES)?;
        acc.cycle_instances = read_instances(lines, "cycle_instances", &CYCLE_CAUSES)?;
        acc.triples = read_key_set(lines, "triples")?;
        tagged(lines, "end_acc").map(|_| acc)
    }
}

/// Add the totals of `theirs` into `mine` and leave `theirs` empty. The
/// larger map is kept and the smaller added into it, so an empty `mine`
/// takes `theirs` whole.
fn add_instances<K: Ord>(mine: &mut BTreeMap<K, u64>, theirs: &mut BTreeMap<K, u64>) {
    if mine.len() < theirs.len() {
        std::mem::swap(mine, theirs);
    }
    for (k, n) in std::mem::take(theirs) {
        *mine.entry(k).or_insert(0) += n;
    }
}

/// `keys <name> <n>`, then the section's `n` key lines.
fn push_key_section<const N: usize>(
    out: &mut impl Sink,
    name: &str,
    n: usize,
    keys: impl IntoIterator<Item = Key<N>>,
) {
    out.put("keys ");
    out.put(name);
    push_field(out, n as u64);
    out.put("\n");
    push_key_lines(out, keys);
}

fn push_key_set<const N: usize>(out: &mut impl Sink, name: &str, set: &KeySet<N>) {
    let keys = set.keys();
    push_key_section(out, name, keys.len(), keys.iter().copied());
}

/// The key lines of the section [`push_key_section`] wrote as `name`,
/// each mapped through `item`.
fn read_key_section<const N: usize, T>(
    lines: &mut impl LineSource,
    name: &str,
    item: impl FnMut(Key<N>) -> T,
) -> Result<Vec<T>, String> {
    let mut t = tagged(lines, "keys")?;
    if t.next() != Some(name) {
        return Err(format!("expected the {name:?} keys"));
    }
    let n = tok(&mut t, "key count")?;
    read_key_lines(lines, n, item)
}

fn read_key_set<const N: usize>(
    lines: &mut impl LineSource,
    name: &str,
) -> Result<KeySet<N>, String> {
    read_key_section(lines, name, |key| key).map(KeySet::from_run)
}

/// One key per `(signature, cause)`: looping address, destination, the
/// cause's index in `causes`, and the total's high and low 32 bits.
fn push_instances<C: Copy + PartialEq>(
    out: &mut impl Sink,
    name: &str,
    instances: &BTreeMap<(Signature, C), u64>,
    causes: &[C],
) {
    let keys = instances.iter().map(|(&((addr, dest), cause), &total)| {
        let cause = causes.iter().position(|&c| c == cause).expect("every cause is numbered");
        [addr.into(), dest.into(), cause as u32, (total >> 32) as u32, total as u32]
    });
    push_key_section(out, name, instances.len(), keys);
}

fn read_instances<C: Copy + Ord>(
    lines: &mut impl LineSource,
    name: &str,
    causes: &[C],
) -> Result<BTreeMap<(Signature, C), u64>, String> {
    let entries = read_key_section(lines, name, |[addr, dest, cause, high, low]: Key<5>| {
        let cause =
            causes.get(cause as usize).ok_or_else(|| format!("{name}: unknown cause {cause}"))?;
        let signature = (Ipv4Addr::from(addr), Ipv4Addr::from(dest));
        Ok(((signature, *cause), u64::from(high) << 32 | u64::from(low)))
    })?;
    let n = entries.len();
    let instances: BTreeMap<_, _> = entries.into_iter().collect::<Result<_, String>>()?;
    // The keys ascend, so a repeat is a signature and cause named twice.
    if instances.len() < n {
        return Err(format!("{name}: a signature and cause named twice"));
    }
    Ok(instances)
}

/// One tool's campaign summary — the §3/§4 numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct ToolReport {
    /// The tool.
    pub tool: StrategyId,
    /// Rounds ingested (556 in the paper).
    pub rounds: u64,
    /// Total measured routes.
    pub routes_total: u64,
    /// Distinct destinations probed (5,000 in the paper).
    pub destinations: u64,
    /// Distinct addresses discovered.
    pub addresses_discovered: u64,
    /// Probes sent.
    pub probes_sent: u64,
    /// Responses received (~90 M in the paper).
    pub responses: u64,
    /// Probes with no response.
    pub stars: u64,
    /// Stars appearing before the last responding hop (2.6 M in the paper).
    pub mid_route_stars: u64,
    /// Routes a watchdog budget cut short ([`HaltReason::Budget`]) —
    /// counted but still ingested, so a runaway unit degrades gracefully
    /// instead of poisoning the campaign's totals silently.
    pub degraded_routes: u64,
    /// Share of routes whose destination answered.
    pub pct_routes_reaching_destination: f64,
    /// §4.1.2: 5.3% for classic traceroute.
    pub pct_routes_with_loop: f64,
    /// §4.1.2: 18%.
    pub pct_dests_with_loop: f64,
    /// §4.1.2: 6.3%.
    pub pct_addrs_in_loop: f64,
    /// Distinct loop signatures.
    pub loop_signatures: u64,
    /// §4.1.2: 18% of loop signatures seen in only one round.
    pub pct_loop_sigs_single_round: f64,
    /// §4.2.2: 0.84%.
    pub pct_routes_with_cycle: f64,
    /// §4.2.2: 11%.
    pub pct_dests_with_cycle: f64,
    /// §4.2.2: 3.6%.
    pub pct_addrs_in_cycle: f64,
    /// Distinct cycle signatures.
    pub cycle_signatures: u64,
    /// §4.2.2: 30%.
    pub pct_cycle_sigs_single_round: f64,
    /// §4.2.2: 6.8 rounds on average.
    pub cycle_sig_mean_rounds: f64,
    /// §4.3.2: 16,385 for classic traceroute.
    pub diamonds_total: u64,
    /// §4.3.2: 79%.
    pub pct_dests_with_diamond: f64,
}

/// The classic-vs-Paris attribution (§4's headline numbers).
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonReport {
    /// Loop-cause shares over all classic loop instances, in percent.
    pub loop_causes: BTreeMap<FinalLoopCause, f64>,
    /// Cycle-cause shares over all classic cycle instances, in percent.
    pub cycle_causes: BTreeMap<FinalCycleCause, f64>,
    /// §4.3.2: share of classic diamonds absent under Paris (64%).
    pub diamond_per_flow_pct: f64,
    /// §4.1.2: loops seen *only* by Paris, as a share of classic loops
    /// (0.25% in the paper) — routing-dynamics noise.
    pub loops_only_in_paris_pct: f64,
}

/// Difference a classic campaign against a Paris campaign, reproducing
/// the paper's attribution method: a route-local cause wins when present;
/// otherwise a signature absent under Paris is per-flow load balancing;
/// the residue is suspected per-packet balancing.
pub fn compare(classic: &CampaignAccumulator, paris: &CampaignAccumulator) -> ComparisonReport {
    let paris_loop_sigs = paris.loop_signatures();
    let paris_cycle_sigs = paris.cycle_signatures();

    let mut loop_causes: BTreeMap<FinalLoopCause, u64> = BTreeMap::new();
    for ((sig, cause), n) in &classic.loop_instances {
        let final_cause = match cause {
            LoopCause::Unreachability => FinalLoopCause::Unreachability,
            LoopCause::ZeroTtlForwarding => FinalLoopCause::ZeroTtlForwarding,
            LoopCause::AddressRewriting => FinalLoopCause::AddressRewriting,
            LoopCause::Unexplained => {
                if paris_loop_sigs.contains(sig) {
                    FinalLoopCause::PerPacketSuspected
                } else {
                    FinalLoopCause::PerFlowLoadBalancing
                }
            }
        };
        *loop_causes.entry(final_cause).or_insert(0) += n;
    }
    let loop_total: u64 = loop_causes.values().sum();

    let mut cycle_causes: BTreeMap<FinalCycleCause, u64> = BTreeMap::new();
    for ((sig, cause), n) in &classic.cycle_instances {
        let final_cause = match cause {
            CycleCause::Unreachability => FinalCycleCause::Unreachability,
            CycleCause::ForwardingLoop => FinalCycleCause::ForwardingLoop,
            CycleCause::Unexplained => {
                if paris_cycle_sigs.contains(sig) {
                    FinalCycleCause::Other
                } else {
                    FinalCycleCause::PerFlowLoadBalancing
                }
            }
        };
        *cycle_causes.entry(final_cause).or_insert(0) += n;
    }
    let cycle_total: u64 = cycle_causes.values().sum();

    let classic_diamonds = classic.diamond_signatures();
    let paris_diamonds = paris.diamond_signatures();
    let absent = classic_diamonds.difference(&paris_diamonds).count() as f64;
    let diamond_per_flow_pct = if classic_diamonds.is_empty() {
        0.0
    } else {
        absent / classic_diamonds.len() as f64 * 100.0
    };

    let classic_loop_sigs = classic.loop_signatures();
    let paris_only: u64 = paris
        .loop_instances
        .iter()
        .filter(|((sig, _), _)| !classic_loop_sigs.contains(sig))
        .map(|(_, n)| *n)
        .sum();
    let loops_only_in_paris_pct =
        if loop_total == 0 { 0.0 } else { paris_only as f64 / loop_total as f64 * 100.0 };

    fn to_pct<C: Ord>(counts: BTreeMap<C, u64>, total: u64) -> BTreeMap<C, f64> {
        let pct = |n| if total == 0 { 0.0 } else { n as f64 / total as f64 * 100.0 };
        counts.into_iter().map(|(cause, n)| (cause, pct(n))).collect()
    }

    ComparisonReport {
        loop_causes: to_pct(loop_causes, loop_total),
        cycle_causes: to_pct(cycle_causes, cycle_total),
        diamond_per_flow_pct,
        loops_only_in_paris_pct,
    }
}

impl ComparisonReport {
    /// Share (percent) for a loop cause, zero if never seen.
    pub fn loop_pct(&self, cause: FinalLoopCause) -> f64 {
        self.loop_causes.get(&cause).copied().unwrap_or(0.0)
    }

    /// Share (percent) for a cycle cause, zero if never seen.
    pub fn cycle_pct(&self, cause: FinalCycleCause) -> f64 {
        self.cycle_causes.get(&cause).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keyset::tests::run_at;
    use pt_core::{HaltReason, Hop, ProbeResult, ResponseKind};
    use pt_netsim::time::SimDuration;

    fn addr(x: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, x)
    }

    fn probe(a: Option<u8>) -> ProbeResult {
        match a {
            None => ProbeResult::STAR,
            Some(x) => ProbeResult {
                addr: Some(addr(x)),
                rtt: Some(SimDuration::from_millis(1)),
                kind: Some(ResponseKind::TimeExceeded),
                probe_ttl: Some(1),
                response_ttl: Some(250),
                ip_id: Some(0),
            },
        }
    }

    fn route(tool: StrategyId, dest: u8, hops: Vec<Option<u8>>) -> MeasuredRoute {
        MeasuredRoute {
            strategy: tool,
            source: addr(1),
            destination: addr(dest),
            min_ttl: 1,
            hops: hops
                .into_iter()
                .enumerate()
                .map(|(i, p)| Hop { ttl: (i + 1) as u8, probe: probe(p) })
                .collect(),
            halt: HaltReason::MaxTtl,
        }
    }

    #[test]
    fn accumulator_counts_basic_quantities() {
        let mut acc = CampaignAccumulator::new(StrategyId::ClassicUdp);
        acc.ingest(0, &route(StrategyId::ClassicUdp, 100, vec![Some(2), Some(3), Some(3)]));
        acc.ingest(0, &route(StrategyId::ClassicUdp, 101, vec![Some(2), Some(4), None]));
        acc.ingest(1, &route(StrategyId::ClassicUdp, 100, vec![Some(2), Some(3), Some(3)]));
        let r = acc.report();
        assert_eq!(r.rounds, 2);
        assert_eq!(r.routes_total, 3);
        assert_eq!(r.destinations, 2);
        assert!((r.pct_routes_with_loop - 2.0 / 3.0 * 100.0).abs() < 1e-9);
        assert!((r.pct_dests_with_loop - 50.0).abs() < 1e-9);
        assert_eq!(r.loop_signatures, 1);
        assert_eq!(acc.loop_instance_count(), 2);
        assert_eq!(r.stars, 1);
    }

    #[test]
    fn per_flow_attribution_by_absence_under_paris() {
        // Classic sees the loop on (3, 100); Paris never does.
        let mut classic = CampaignAccumulator::new(StrategyId::ClassicUdp);
        let mut paris = CampaignAccumulator::new(StrategyId::ParisUdp);
        for round in 0..5 {
            classic.ingest(
                round,
                &route(StrategyId::ClassicUdp, 100, vec![Some(2), Some(3), Some(3)]),
            );
            paris.ingest(round, &route(StrategyId::ParisUdp, 100, vec![Some(2), Some(3), Some(5)]));
        }
        let cmp = compare(&classic, &paris);
        assert!((cmp.loop_pct(FinalLoopCause::PerFlowLoadBalancing) - 100.0).abs() < 1e-9);
        assert_eq!(cmp.loops_only_in_paris_pct, 0.0);
    }

    #[test]
    fn shared_signature_becomes_per_packet_suspect() {
        let mut classic = CampaignAccumulator::new(StrategyId::ClassicUdp);
        let mut paris = CampaignAccumulator::new(StrategyId::ParisUdp);
        classic.ingest(0, &route(StrategyId::ClassicUdp, 100, vec![Some(2), Some(3), Some(3)]));
        paris.ingest(0, &route(StrategyId::ParisUdp, 100, vec![Some(2), Some(3), Some(3)]));
        let cmp = compare(&classic, &paris);
        assert!((cmp.loop_pct(FinalLoopCause::PerPacketSuspected) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn route_local_causes_beat_differencing() {
        // A zero-TTL loop: classic sees it, Paris ALSO sees it (it is not
        // flow-dependent), but even if Paris missed it the route-local
        // cause must win.
        let mut classic = CampaignAccumulator::new(StrategyId::ClassicUdp);
        let paris = CampaignAccumulator::new(StrategyId::ParisUdp);
        let mut r = route(StrategyId::ClassicUdp, 100, vec![Some(2), Some(3), Some(3)]);
        r.hops[1].probe.probe_ttl = Some(0);
        classic.ingest(0, &r);
        let cmp = compare(&classic, &paris);
        assert!((cmp.loop_pct(FinalLoopCause::ZeroTtlForwarding) - 100.0).abs() < 1e-9);
        assert_eq!(cmp.loop_pct(FinalLoopCause::PerFlowLoadBalancing), 0.0);
    }

    #[test]
    fn diamond_differencing() {
        let mut classic = CampaignAccumulator::new(StrategyId::ClassicUdp);
        let mut paris = CampaignAccumulator::new(StrategyId::ParisUdp);
        // Classic: two diamonds toward dests 100 and 101.
        classic.ingest(0, &route(StrategyId::ClassicUdp, 100, vec![Some(5), Some(6), Some(8)]));
        classic.ingest(1, &route(StrategyId::ClassicUdp, 100, vec![Some(5), Some(7), Some(8)]));
        classic.ingest(0, &route(StrategyId::ClassicUdp, 101, vec![Some(5), Some(6), Some(8)]));
        classic.ingest(1, &route(StrategyId::ClassicUdp, 101, vec![Some(5), Some(7), Some(8)]));
        // Paris: the dest-101 diamond persists (true per-packet topology),
        // the dest-100 one vanishes.
        paris.ingest(0, &route(StrategyId::ParisUdp, 100, vec![Some(5), Some(6), Some(8)]));
        paris.ingest(1, &route(StrategyId::ParisUdp, 100, vec![Some(5), Some(6), Some(8)]));
        paris.ingest(0, &route(StrategyId::ParisUdp, 101, vec![Some(5), Some(6), Some(8)]));
        paris.ingest(1, &route(StrategyId::ParisUdp, 101, vec![Some(5), Some(7), Some(8)]));
        let cmp = compare(&classic, &paris);
        assert!((cmp.diamond_per_flow_pct - 50.0).abs() < 1e-9);
    }

    #[test]
    fn paris_only_loops_are_reported() {
        let mut classic = CampaignAccumulator::new(StrategyId::ClassicUdp);
        let mut paris = CampaignAccumulator::new(StrategyId::ParisUdp);
        // Classic: 4 loop instances on one signature.
        for round in 0..4 {
            classic.ingest(
                round,
                &route(StrategyId::ClassicUdp, 100, vec![Some(2), Some(3), Some(3)]),
            );
        }
        // Paris: 1 loop on a signature classic never saw.
        paris.ingest(0, &route(StrategyId::ParisUdp, 100, vec![Some(2), Some(9), Some(9)]));
        let cmp = compare(&classic, &paris);
        assert!((cmp.loops_only_in_paris_pct - 25.0).abs() < 1e-9, "1 paris-only / 4 classic");
    }

    #[test]
    fn snapshot_round_trips_and_is_canonical() {
        let mut acc = CampaignAccumulator::new(StrategyId::ClassicUdp);
        // Loops, cycles, diamonds, stars, and a zero-TTL route-local
        // cause — every snapshot section gets populated.
        acc.ingest(0, &route(StrategyId::ClassicUdp, 100, vec![Some(2), Some(3), Some(3)]));
        acc.ingest(1, &route(StrategyId::ClassicUdp, 100, vec![Some(2), Some(4), None]));
        acc.ingest(0, &route(StrategyId::ClassicUdp, 101, vec![Some(5), Some(6), Some(8)]));
        acc.ingest(1, &route(StrategyId::ClassicUdp, 101, vec![Some(5), Some(7), Some(8)]));
        acc.ingest(2, &route(StrategyId::ClassicUdp, 102, vec![Some(2), Some(9), Some(2)]));
        let mut zero = route(StrategyId::ClassicUdp, 103, vec![Some(2), Some(3), Some(3)]);
        zero.hops[1].probe.probe_ttl = Some(0);
        acc.ingest(2, &zero);
        let mut degraded = route(StrategyId::ClassicUdp, 104, vec![Some(2), Some(3)]);
        degraded.halt = HaltReason::Budget;
        acc.ingest(2, &degraded);

        let mut bytes = String::new();
        acc.snapshot_write(&mut bytes);
        let restored = CampaignAccumulator::snapshot_read(&mut bytes.lines())
            .expect("snapshot must parse back");
        assert_eq!(restored.report(), acc.report());
        assert_eq!(restored.loop_signatures(), acc.loop_signatures());
        assert_eq!(restored.cycle_signatures(), acc.cycle_signatures());
        assert_eq!(restored.diamond_signatures(), acc.diamond_signatures());
        assert_eq!(restored.report().degraded_routes, 1);

        // Canonical: re-serializing the restored accumulator is
        // byte-identical, regardless of hash-map iteration order.
        let mut again = String::new();
        restored.snapshot_write(&mut again);
        assert_eq!(again, bytes);

        // A shard-merged accumulator with the same contents serializes
        // to the same bytes too — the property checkpoint/resume needs.
        let mut shard_a = CampaignAccumulator::new(StrategyId::ClassicUdp);
        let mut shard_b = CampaignAccumulator::new(StrategyId::ClassicUdp);
        shard_b.ingest(0, &route(StrategyId::ClassicUdp, 100, vec![Some(2), Some(3), Some(3)]));
        shard_a.ingest(1, &route(StrategyId::ClassicUdp, 100, vec![Some(2), Some(4), None]));
        shard_b.ingest(0, &route(StrategyId::ClassicUdp, 101, vec![Some(5), Some(6), Some(8)]));
        shard_a.ingest(1, &route(StrategyId::ClassicUdp, 101, vec![Some(5), Some(7), Some(8)]));
        shard_b.ingest(2, &route(StrategyId::ClassicUdp, 102, vec![Some(2), Some(9), Some(2)]));
        shard_a.ingest(2, &zero);
        shard_b.ingest(2, &degraded);
        shard_a.merge(shard_b);
        let mut merged = String::new();
        shard_a.snapshot_write(&mut merged);
        assert_eq!(merged, bytes, "sharding must not leak into snapshot bytes");
    }

    #[test]
    fn an_absorbed_accumulator_is_empty_and_refills_as_a_fresh_one() {
        let tool = StrategyId::ClassicUdp;
        let text = |acc: &CampaignAccumulator| {
            let mut text = String::new();
            acc.snapshot_write(&mut text);
            text
        };
        let empty = text(&CampaignAccumulator::new(tool));
        let mut kept = CampaignAccumulator::new(tool);
        kept.ingest(0, &route(tool, 100, vec![Some(2), Some(3), Some(3)]));
        kept.ingest(1, &route(tool, 101, vec![Some(2), Some(9), Some(2)]));
        let mut total = CampaignAccumulator::new(tool);
        total.absorb(&mut kept);
        assert_eq!(text(&kept), empty);
        assert_ne!(text(&total), empty);

        kept.reserve_for_refill();
        let mut fresh = CampaignAccumulator::new(tool);
        for acc in [&mut kept, &mut fresh] {
            acc.ingest(2, &route(tool, 102, vec![Some(5), Some(7), Some(5)]));
            acc.ingest(3, &route(tool, 100, vec![Some(2), Some(4), None]));
        }
        assert_eq!(text(&kept), text(&fresh));
    }

    #[test]
    fn sealed_shards_merge_into_what_unsealed_ones_do() {
        // A block's join: each worker seals its own shard by absorbing
        // it into an empty accumulator, then the sealed shards are
        // absorbed in turn.
        let tool = StrategyId::ClassicUdp;
        let shards = || {
            let mut shards = [(); 3].map(|()| CampaignAccumulator::new(tool));
            for (i, dest) in (100..106).enumerate() {
                let hops = vec![Some(2), Some(3 + i as u8 % 2), Some(3), None];
                shards[i % 3].ingest(i % 2, &route(tool, dest, hops));
            }
            shards
        };
        let text = |acc: &CampaignAccumulator| {
            let mut text = String::new();
            acc.snapshot_write(&mut text);
            text
        };
        let mut plain = CampaignAccumulator::new(tool);
        for mut shard in shards() {
            plain.absorb(&mut shard);
        }
        let sealed = shards().map(|mut shard| {
            let mut sealed = CampaignAccumulator::new(tool);
            sealed.absorb(&mut shard);
            sealed
        });
        let mut joined = CampaignAccumulator::new(tool);
        for mut shard in sealed {
            joined.absorb(&mut shard);
        }
        assert_eq!(text(&joined), text(&plain));
    }

    #[test]
    fn an_empty_accumulator_takes_what_it_absorbs_whole() {
        // A replayed journal's first record, absorbed into the empty
        // fold: its runs move, and no copy of them is made beside it.
        let tool = StrategyId::ClassicUdp;
        let text = |acc: &CampaignAccumulator| {
            let mut text = String::new();
            acc.snapshot_write(&mut text);
            text
        };
        let mut block = CampaignAccumulator::new(tool);
        block.ingest(0, &route(tool, 100, vec![Some(2), Some(3), Some(3)]));
        block.ingest(0, &route(tool, 101, vec![Some(5), Some(6), Some(8)]));
        block.ingest(1, &route(tool, 101, vec![Some(5), Some(7), Some(8)]));
        block.ingest(1, &route(tool, 102, vec![Some(2), Some(9), Some(2)]));
        let record = text(&block);
        let mut parsed = CampaignAccumulator::snapshot_read(&mut record.lines()).expect("parses");
        let runs = |acc: &CampaignAccumulator| {
            let mut runs: Vec<_> = acc.addr_sets.iter().map(run_at).collect();
            runs.extend([run_at(&acc.loop_sig_rounds), run_at(&acc.cycle_sig_rounds)]);
            runs.push(run_at(&acc.triples));
            runs
        };
        let held = runs(&parsed);
        assert!(held.iter().all(|&(_, capacity)| capacity > 0), "{held:?}");
        let mut fold = CampaignAccumulator::new(tool);
        fold.absorb(&mut parsed);
        assert_eq!(runs(&fold), held, "a run was copied");
        assert_eq!(text(&fold), record);
        assert_eq!(text(&parsed), text(&CampaignAccumulator::new(tool)));
    }

    #[test]
    fn instance_keys_round_trip_and_bad_records_are_refused() {
        let mut acc = CampaignAccumulator::new(StrategyId::ClassicUdp);
        acc.ingest(0, &route(StrategyId::ClassicUdp, 100, vec![Some(2), Some(3), Some(3)]));
        acc.ingest(0, &route(StrategyId::ClassicUdp, 101, vec![Some(2), Some(9), Some(2)]));
        // A total past `u32::MAX` travels as two fields.
        let big = ((addr(7), addr(101)), LoopCause::ZeroTtlForwarding);
        acc.loop_instances.insert(big, u64::from(u32::MAX) + 5);
        let mut text = String::new();
        acc.snapshot_write(&mut text);
        let unexplained_loop = "0a000003 0a000064 00000003 00000000 00000001\n";
        let big_line = "0a000007 0a000065 00000001 00000001 00000004\n";
        let unexplained_cycle = "0a000002 0a000065 00000002 00000000 00000001\n";
        let read = CampaignAccumulator::snapshot_read(&mut text.lines()).expect("parses back");
        assert_eq!(read.loop_instances, acc.loop_instances);
        assert_eq!(read.loop_instance_count(), u64::from(u32::MAX) + 6);

        // Each line replaced is one the record holds.
        for (from, to, why) in [
            // Past the end of each cause table; 3 is a loop cause.
            (unexplained_loop, "0a000003 0a000064 00000004 00000000 00000001\n", "unknown cause 4"),
            (
                unexplained_cycle,
                "0a000002 0a000065 00000003 00000000 00000001\n",
                "unknown cause 3",
            ),
            // One signature and cause twice, the totals ascending.
            (big_line, "0a000003 0a000064 00000003 00000000 00000002\n", "named twice"),
            // The responses, probes less stars, would be negative.
            ("counts 2 1 1 6 0 ", "counts 2 1 1 6 7 ", "7 stars of 6 probes"),
        ] {
            assert!(text.contains(from), "{from:?} in {text}");
            let bad = text.replace(from, to);
            let err = CampaignAccumulator::snapshot_read(&mut bad.lines()).expect_err(to);
            assert!(err.contains(why), "{to:?}: {err}");
        }
    }

    #[test]
    fn single_round_signature_rarity() {
        let mut acc = CampaignAccumulator::new(StrategyId::ClassicUdp);
        // Signature A in rounds 0 and 1; signature B only in round 0.
        acc.ingest(0, &route(StrategyId::ClassicUdp, 100, vec![Some(3), Some(3)]));
        acc.ingest(1, &route(StrategyId::ClassicUdp, 100, vec![Some(3), Some(3)]));
        acc.ingest(0, &route(StrategyId::ClassicUdp, 101, vec![Some(4), Some(4)]));
        let r = acc.report();
        assert_eq!(r.loop_signatures, 2);
        assert!((r.pct_loop_sigs_single_round - 50.0).abs() < 1e-9);
    }
}
