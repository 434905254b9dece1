//! Differential test of [`CampaignAccumulator`] against a model that is
//! obviously correct because it is the textbook shape: one ordered set
//! per signature, one ordered set of middles per `(destination, head,
//! tail)`, one [`DestinationGraph`] per destination. The model lives
//! here only. The accumulator holds the same facts as flat sorted runs
//! of fixed-width keys and derives signatures, single-round shares and
//! diamonds by grouping adjacent keys, so this is where a wrong group
//! boundary, a merge that keeps a duplicate, or an order that depends
//! on how the routes were sharded would show.
//!
//! Random routes (stars, several probes per hop, repeated addresses, a
//! few destinations and rounds) are ingested whole into the model, and
//! into the accumulator split over one to four parts that are merged in
//! a random order — optionally with half of each part ingested *after*
//! a merge, onto an accumulator that already holds a sorted run.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use proptest::prelude::*;
use pt_anomaly::stats::{
    compare, ComparisonReport, FinalCycleCause, FinalLoopCause, Signature, ToolReport,
};
use pt_anomaly::{
    find_cycles, find_loops, CampaignAccumulator, CycleCause, DestinationGraph, LoopCause,
};
use pt_core::{HaltReason, Hop, MeasuredRoute, ProbeResult, ResponseKind, StrategyId};
use pt_netsim::time::SimDuration;
use pt_wire::UnreachableCode;

fn addr(x: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, x / 4, x)
}

/// The old shape of the accumulator, fed whole routes in one piece.
struct Model {
    tool: StrategyId,
    rounds: BTreeSet<usize>,
    routes_total: u64,
    routes_with_loop: u64,
    routes_with_cycle: u64,
    dests: BTreeSet<Ipv4Addr>,
    dests_with_loop: BTreeSet<Ipv4Addr>,
    dests_with_cycle: BTreeSet<Ipv4Addr>,
    addrs_seen: BTreeSet<Ipv4Addr>,
    addrs_in_loop: BTreeSet<Ipv4Addr>,
    addrs_in_cycle: BTreeSet<Ipv4Addr>,
    loop_sig_rounds: BTreeMap<Signature, BTreeSet<usize>>,
    cycle_sig_rounds: BTreeMap<Signature, BTreeSet<usize>>,
    loop_instances: BTreeMap<(Signature, LoopCause), u64>,
    cycle_instances: BTreeMap<(Signature, CycleCause), u64>,
    middles: BTreeMap<(Ipv4Addr, Ipv4Addr, Ipv4Addr), BTreeSet<Ipv4Addr>>,
    graphs: BTreeMap<Ipv4Addr, DestinationGraph>,
    probes_sent: u64,
    stars: u64,
    mid_route_stars: u64,
    reached: u64,
    degraded_routes: u64,
}

impl Model {
    fn new(tool: StrategyId) -> Self {
        Model {
            tool,
            rounds: BTreeSet::new(),
            routes_total: 0,
            routes_with_loop: 0,
            routes_with_cycle: 0,
            dests: BTreeSet::new(),
            dests_with_loop: BTreeSet::new(),
            dests_with_cycle: BTreeSet::new(),
            addrs_seen: BTreeSet::new(),
            addrs_in_loop: BTreeSet::new(),
            addrs_in_cycle: BTreeSet::new(),
            loop_sig_rounds: BTreeMap::new(),
            cycle_sig_rounds: BTreeMap::new(),
            loop_instances: BTreeMap::new(),
            cycle_instances: BTreeMap::new(),
            middles: BTreeMap::new(),
            graphs: BTreeMap::new(),
            probes_sent: 0,
            stars: 0,
            mid_route_stars: 0,
            reached: 0,
            degraded_routes: 0,
        }
    }

    fn ingest(&mut self, round: usize, route: &MeasuredRoute) {
        let d = route.destination;
        self.rounds.insert(round);
        self.routes_total += 1;
        self.dests.insert(d);
        self.addrs_seen.extend(route.hops.iter().filter_map(|h| h.probe.addr));
        self.probes_sent += route.probes_sent() as u64;
        self.stars += route.stars() as u64;
        self.mid_route_stars += route.mid_route_stars() as u64;
        self.reached += u64::from(route.reached_destination());
        self.degraded_routes += u64::from(route.halt == HaltReason::Budget);
        let loops = find_loops(route);
        if !loops.is_empty() {
            self.routes_with_loop += 1;
            self.dests_with_loop.insert(d);
        }
        for l in loops {
            self.addrs_in_loop.insert(l.addr);
            self.loop_sig_rounds.entry((l.addr, d)).or_default().insert(round);
            *self.loop_instances.entry(((l.addr, d), l.cause)).or_insert(0) += 1;
        }
        let cycles = find_cycles(route);
        if !cycles.is_empty() {
            self.routes_with_cycle += 1;
            self.dests_with_cycle.insert(d);
        }
        for c in cycles {
            self.addrs_in_cycle.insert(c.addr);
            self.cycle_sig_rounds.entry((c.addr, d)).or_default().insert(round);
            *self.cycle_instances.entry(((c.addr, d), c.cause)).or_insert(0) += 1;
        }
        for w in route.hops.windows(3) {
            if let [Some(h), Some(r), Some(t)] = [w[0].probe.addr, w[1].probe.addr, w[2].probe.addr]
            {
                self.middles.entry((d, h, t)).or_default().insert(r);
            }
        }
        self.graphs.entry(d).or_default().ingest(route);
    }

    fn loop_signatures(&self) -> BTreeSet<Signature> {
        self.loop_sig_rounds.keys().copied().collect()
    }

    fn cycle_signatures(&self) -> BTreeSet<Signature> {
        self.cycle_sig_rounds.keys().copied().collect()
    }

    /// From the middle sets, where [`Model::report`] counts diamonds
    /// from the per-destination graphs: two derivations, one answer.
    fn diamond_signatures(&self) -> BTreeSet<(Ipv4Addr, Ipv4Addr, Ipv4Addr)> {
        self.middles.iter().filter(|(_, m)| m.len() >= 2).map(|(key, _)| *key).collect()
    }

    fn report(&self) -> ToolReport {
        let pct = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 * 100.0 };
        let single = |m: &BTreeMap<Signature, BTreeSet<usize>>| {
            m.values().filter(|rounds| rounds.len() == 1).count() as u64
        };
        let cycle_sigs = self.cycle_sig_rounds.len() as u64;
        let cycle_rounds: usize = self.cycle_sig_rounds.values().map(BTreeSet::len).sum();
        let diamonds_total: usize = self.graphs.values().map(|g| g.diamonds().len()).sum();
        let dests_with_diamond = self.graphs.values().filter(|g| !g.diamonds().is_empty()).count();
        let (dests, addrs) = (self.dests.len() as u64, self.addrs_seen.len() as u64);
        ToolReport {
            tool: self.tool,
            rounds: self.rounds.len() as u64,
            routes_total: self.routes_total,
            destinations: dests,
            addresses_discovered: addrs,
            probes_sent: self.probes_sent,
            responses: self.probes_sent - self.stars,
            stars: self.stars,
            mid_route_stars: self.mid_route_stars,
            degraded_routes: self.degraded_routes,
            pct_routes_reaching_destination: pct(self.reached, self.routes_total),
            pct_routes_with_loop: pct(self.routes_with_loop, self.routes_total),
            pct_dests_with_loop: pct(self.dests_with_loop.len() as u64, dests),
            pct_addrs_in_loop: pct(self.addrs_in_loop.len() as u64, addrs),
            loop_signatures: self.loop_sig_rounds.len() as u64,
            pct_loop_sigs_single_round: pct(
                single(&self.loop_sig_rounds),
                self.loop_sig_rounds.len() as u64,
            ),
            pct_routes_with_cycle: pct(self.routes_with_cycle, self.routes_total),
            pct_dests_with_cycle: pct(self.dests_with_cycle.len() as u64, dests),
            pct_addrs_in_cycle: pct(self.addrs_in_cycle.len() as u64, addrs),
            cycle_signatures: cycle_sigs,
            pct_cycle_sigs_single_round: pct(single(&self.cycle_sig_rounds), cycle_sigs),
            cycle_sig_mean_rounds: if cycle_sigs == 0 {
                0.0
            } else {
                cycle_rounds as f64 / cycle_sigs as f64
            },
            diamonds_total: diamonds_total as u64,
            pct_dests_with_diamond: pct(dests_with_diamond as u64, self.graphs.len() as u64),
        }
    }
}

/// §4's attribution, over two models.
fn model_compare(classic: &Model, paris: &Model) -> ComparisonReport {
    fn shares<C: Ord>(counts: BTreeMap<C, u64>) -> BTreeMap<C, f64> {
        let total: u64 = counts.values().sum();
        counts.into_iter().map(|(cause, n)| (cause, n as f64 / total as f64 * 100.0)).collect()
    }
    let mut loops: BTreeMap<FinalLoopCause, u64> = BTreeMap::new();
    for ((sig, cause), n) in &classic.loop_instances {
        let cause = match cause {
            LoopCause::Unreachability => FinalLoopCause::Unreachability,
            LoopCause::ZeroTtlForwarding => FinalLoopCause::ZeroTtlForwarding,
            LoopCause::AddressRewriting => FinalLoopCause::AddressRewriting,
            LoopCause::Unexplained if paris.loop_sig_rounds.contains_key(sig) => {
                FinalLoopCause::PerPacketSuspected
            }
            LoopCause::Unexplained => FinalLoopCause::PerFlowLoadBalancing,
        };
        *loops.entry(cause).or_insert(0) += n;
    }
    let mut cycles: BTreeMap<FinalCycleCause, u64> = BTreeMap::new();
    for ((sig, cause), n) in &classic.cycle_instances {
        let cause = match cause {
            CycleCause::Unreachability => FinalCycleCause::Unreachability,
            CycleCause::ForwardingLoop => FinalCycleCause::ForwardingLoop,
            CycleCause::Unexplained if paris.cycle_sig_rounds.contains_key(sig) => {
                FinalCycleCause::Other
            }
            CycleCause::Unexplained => FinalCycleCause::PerFlowLoadBalancing,
        };
        *cycles.entry(cause).or_insert(0) += n;
    }
    let loop_total: u64 = loops.values().sum();
    let (classic_diamonds, paris_diamonds) =
        (classic.diamond_signatures(), paris.diamond_signatures());
    let paris_only: u64 = paris
        .loop_instances
        .iter()
        .filter(|((sig, _), _)| !classic.loop_sig_rounds.contains_key(sig))
        .map(|(_, n)| n)
        .sum();
    ComparisonReport {
        loop_causes: shares(loops),
        cycle_causes: shares(cycles),
        diamond_per_flow_pct: if classic_diamonds.is_empty() {
            0.0
        } else {
            classic_diamonds.difference(&paris_diamonds).count() as f64
                / classic_diamonds.len() as f64
                * 100.0
        },
        loops_only_in_paris_pct: if loop_total == 0 {
            0.0
        } else {
            paris_only as f64 / loop_total as f64 * 100.0
        },
    }
}

/// One generated probe: `None` a star, else an address and a flavour
/// byte that picks the side information the cause classifiers read.
type RawProbe = Option<(u8, u8)>;

/// One generated route: destination, round, hops, whether a budget cut
/// it, and the part it is ingested into.
type RawRoute = (u8, usize, Vec<RawProbe>, bool, usize);

fn probe(raw: RawProbe, destination: Ipv4Addr) -> ProbeResult {
    let Some((x, flavour)) = raw else { return ProbeResult::STAR };
    let last = flavour == 7;
    ProbeResult {
        addr: Some(if last { destination } else { addr(x) }),
        rtt: Some(SimDuration::from_millis(1)),
        kind: Some(match flavour {
            7 => ResponseKind::EchoReply,
            f if f & 2 != 0 => ResponseKind::Unreachable(UnreachableCode::Host),
            _ => ResponseKind::TimeExceeded,
        }),
        probe_ttl: Some(flavour & 1),
        response_ttl: Some(250 - (flavour >> 2)),
        ip_id: Some(u16::from(x) * 7),
    }
}

fn route(tool: StrategyId, raw: &RawRoute) -> MeasuredRoute {
    let (dest, _, hops, degraded, _) = raw;
    let destination = addr(200 + dest);
    MeasuredRoute {
        strategy: tool,
        source: addr(1),
        destination,
        min_ttl: 1,
        hops: hops
            .iter()
            .enumerate()
            .map(|(i, p)| Hop { ttl: (i + 1) as u8, probe: probe(*p, destination) })
            .collect(),
        halt: if *degraded { HaltReason::Budget } else { HaltReason::MaxTtl },
    }
}

fn arb_routes() -> impl Strategy<Value = Vec<RawRoute>> {
    let probe = proptest::option::weighted(0.85, (2u8..9, 0u8..8));
    let hops = proptest::collection::vec(probe, 0..9);
    proptest::collection::vec((0u8..3, 0usize..4, hops, any::<bool>(), 0usize..4), 0..14)
}

/// The routes in one accumulator, nothing merged: every set unsealed.
fn whole(tool: StrategyId, routes: &[RawRoute]) -> CampaignAccumulator {
    let mut acc = CampaignAccumulator::new(tool);
    for raw in routes {
        acc.ingest(raw.1, &route(tool, raw));
    }
    acc
}

/// The routes over `parts` accumulators, merged in an order `order`
/// picks. With `late`, the second half of every part's routes is
/// ingested after a merge, onto sets that hold a sorted run already.
fn sharded(
    tool: StrategyId,
    routes: &[RawRoute],
    parts: usize,
    order: u64,
    late: bool,
) -> CampaignAccumulator {
    let mut shards: Vec<CampaignAccumulator> = (0..parts)
        .map(|part| {
            let mine: Vec<&RawRoute> = routes.iter().filter(|raw| raw.4 % parts == part).collect();
            let (early, after) = mine.split_at(if late { mine.len() / 2 } else { mine.len() });
            let mut first = CampaignAccumulator::new(tool);
            for raw in early {
                first.ingest(raw.1, &route(tool, raw));
            }
            let mut acc = CampaignAccumulator::new(tool);
            acc.merge(first);
            for raw in after {
                acc.ingest(raw.1, &route(tool, raw));
            }
            acc
        })
        .collect();
    let mut order = order;
    let mut merged = shards.swap_remove(order as usize % shards.len());
    while !shards.is_empty() {
        order /= 4;
        let next = shards.swap_remove(order as usize % shards.len());
        // Either side may be the one merged into.
        if order & 1 << 32 != 0 {
            merged.merge(next);
        } else {
            let mut into = next;
            into.merge(merged);
            merged = into;
        }
        order = order.rotate_left(7);
    }
    merged
}

fn snapshot(acc: &CampaignAccumulator) -> String {
    let mut text = String::new();
    acc.snapshot_write(&mut text);
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn accumulator_matches_the_model_however_it_is_sharded(
        classic_routes in arb_routes(),
        paris_routes in arb_routes(),
        parts in 1usize..5,
        order in any::<u64>(),
        late in any::<bool>(),
    ) {
        let mut models = [Model::new(StrategyId::ClassicUdp), Model::new(StrategyId::ParisUdp)];
        let routes = [&classic_routes, &paris_routes];
        for (model, routes) in models.iter_mut().zip(routes) {
            for raw in routes.iter() {
                model.ingest(raw.1, &route(model.tool, raw));
            }
        }
        let accs: Vec<CampaignAccumulator> = models
            .iter()
            .zip(routes)
            .map(|(model, routes)| sharded(model.tool, routes, parts, order, late))
            .collect();

        for ((model, routes), acc) in models.iter().zip(routes).zip(&accs) {
            prop_assert_eq!(acc.report(), model.report());
            prop_assert_eq!(acc.loop_signatures(), model.loop_signatures());
            prop_assert_eq!(acc.cycle_signatures(), model.cycle_signatures());
            prop_assert_eq!(acc.diamond_signatures(), model.diamond_signatures());
            prop_assert_eq!(
                acc.addresses_seen(),
                model.addrs_seen.iter().copied().collect::<Vec<_>>()
            );
            prop_assert_eq!(acc.loop_instance_count(), model.loop_instances.values().sum::<u64>());
            prop_assert_eq!(acc.cycle_instance_count(), model.cycle_instances.values().sum::<u64>());

            // Canonical: the bytes do not know how the routes were
            // sharded, nor whether anything was ever merged.
            let unsealed = whole(model.tool, routes);
            prop_assert_eq!(unsealed.report(), model.report());
            let text = snapshot(acc);
            prop_assert_eq!(&snapshot(&unsealed), &text);

            // Reading is writing's inverse, from either state.
            let read = CampaignAccumulator::snapshot_read(&mut text.lines()).expect("parses back");
            prop_assert_eq!(&snapshot(&read), &text);
            prop_assert_eq!(read.report(), model.report());
            prop_assert_eq!(read.diamond_signatures(), model.diamond_signatures());
        }
        prop_assert_eq!(compare(&accs[0], &accs[1]), model_compare(&models[0], &models[1]));
    }
}
