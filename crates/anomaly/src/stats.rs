//! Campaign-level statistics (§4.1.2, §4.2.2, §4.3.2): accumulate
//! anomalies across rounds and tools, then difference classic against
//! Paris to attribute causes the way the paper does.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::net::Ipv4Addr;

use pt_core::{HaltReason, MeasuredRoute, StrategyId};
use pt_netsim::routing::AddrHashBuilder;

use crate::codec::{push_addr, push_uint};
use crate::cycle::{find_cycles, CycleCause};
use crate::diamond::DestinationGraph;
use crate::r#loop::{find_loops, LoopCause};

/// Accumulator maps run once per ingested route — the campaign hot
/// loop — so they use the deterministic multiply-mix hasher instead of
/// SipHash. Nothing downstream depends on iteration order (the digest
/// pipeline is order-insensitive, which `tests/determinism.rs` pins
/// across differing hash states).
type FastMap<K, V> = HashMap<K, V, AddrHashBuilder>;
type FastSet<T> = HashSet<T, AddrHashBuilder>;

/// A loop or cycle signature: `(looping address, destination)` — §4's
/// definition. Diamonds use `(destination, head, tail)` internally.
pub type Signature = (Ipv4Addr, Ipv4Addr);

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

/// Accumulates one tool's observations across a whole campaign.
#[derive(Debug, Clone)]
pub struct CampaignAccumulator {
    /// Which tool produced these routes.
    pub tool: StrategyId,
    rounds_seen: BTreeSet<usize>,
    routes_total: u64,
    routes_with_loop: u64,
    routes_with_cycle: u64,
    dests: FastSet<Ipv4Addr>,
    dests_with_loop: FastSet<Ipv4Addr>,
    dests_with_cycle: FastSet<Ipv4Addr>,
    addrs_seen: FastSet<Ipv4Addr>,
    addrs_in_loop: FastSet<Ipv4Addr>,
    addrs_in_cycle: FastSet<Ipv4Addr>,
    loop_sig_rounds: FastMap<Signature, BTreeSet<usize>>,
    cycle_sig_rounds: FastMap<Signature, BTreeSet<usize>>,
    loop_instances: FastMap<(Signature, LoopCause), u64>,
    cycle_instances: FastMap<(Signature, CycleCause), u64>,
    graphs: FastMap<Ipv4Addr, DestinationGraph>,
    probes_sent: u64,
    responses: u64,
    stars: u64,
    mid_route_stars: u64,
    reached: u64,
    degraded_routes: u64,
}

impl CampaignAccumulator {
    /// Fresh accumulator for one tool.
    pub fn new(tool: StrategyId) -> Self {
        CampaignAccumulator {
            tool,
            rounds_seen: BTreeSet::new(),
            routes_total: 0,
            routes_with_loop: 0,
            routes_with_cycle: 0,
            dests: FastSet::default(),
            dests_with_loop: FastSet::default(),
            dests_with_cycle: FastSet::default(),
            addrs_seen: FastSet::default(),
            addrs_in_loop: FastSet::default(),
            addrs_in_cycle: FastSet::default(),
            loop_sig_rounds: FastMap::default(),
            cycle_sig_rounds: FastMap::default(),
            loop_instances: FastMap::default(),
            cycle_instances: FastMap::default(),
            graphs: FastMap::default(),
            probes_sent: 0,
            responses: 0,
            stars: 0,
            mid_route_stars: 0,
            reached: 0,
            degraded_routes: 0,
        }
    }

    /// Fold in one measured route observed during `round`.
    pub fn ingest(&mut self, round: usize, route: &MeasuredRoute) {
        self.rounds_seen.insert(round);
        self.routes_total += 1;
        let d = route.destination;
        self.dests.insert(d);
        for hop in &route.hops {
            // Straight off the probes: `Hop::addrs` would allocate a
            // Vec per hop, and the set dedups anyway.
            for a in hop.probes.iter().filter_map(|p| p.addr) {
                self.addrs_seen.insert(a);
            }
        }
        self.probes_sent += route.probes_sent() as u64;
        self.stars += route.stars() as u64;
        self.mid_route_stars += route.mid_route_stars() as u64;
        self.responses += (route.probes_sent() - route.stars()) as u64;
        if route.reached_destination() {
            self.reached += 1;
        }
        if route.halt == HaltReason::Budget {
            self.degraded_routes += 1;
        }

        let loops = find_loops(route);
        if !loops.is_empty() {
            self.routes_with_loop += 1;
            self.dests_with_loop.insert(d);
        }
        for l in loops {
            self.addrs_in_loop.insert(l.addr);
            let sig = (l.addr, d);
            self.loop_sig_rounds.entry(sig).or_default().insert(round);
            *self.loop_instances.entry((sig, l.cause)).or_insert(0) += 1;
        }

        let cycles = find_cycles(route);
        if !cycles.is_empty() {
            self.routes_with_cycle += 1;
            self.dests_with_cycle.insert(d);
        }
        for c in cycles {
            self.addrs_in_cycle.insert(c.addr);
            let sig = (c.addr, d);
            self.cycle_sig_rounds.entry(sig).or_default().insert(round);
            *self.cycle_instances.entry((sig, c.cause)).or_insert(0) += 1;
        }

        self.graphs.entry(d).or_default().ingest(route);
    }

    /// Merge another accumulator (e.g. from a parallel shard) into this
    /// one. Tool ids must match.
    ///
    /// # Panics
    /// Panics when merging accumulators of different tools.
    pub fn merge(&mut self, other: CampaignAccumulator) {
        assert_eq!(self.tool, other.tool, "cannot merge different tools");
        self.rounds_seen.extend(other.rounds_seen);
        self.routes_total += other.routes_total;
        self.routes_with_loop += other.routes_with_loop;
        self.routes_with_cycle += other.routes_with_cycle;
        self.dests.extend(other.dests);
        self.dests_with_loop.extend(other.dests_with_loop);
        self.dests_with_cycle.extend(other.dests_with_cycle);
        self.addrs_seen.extend(other.addrs_seen);
        self.addrs_in_loop.extend(other.addrs_in_loop);
        self.addrs_in_cycle.extend(other.addrs_in_cycle);
        for (sig, rounds) in other.loop_sig_rounds {
            self.loop_sig_rounds.entry(sig).or_default().extend(rounds);
        }
        for (sig, rounds) in other.cycle_sig_rounds {
            self.cycle_sig_rounds.entry(sig).or_default().extend(rounds);
        }
        for (k, n) in other.loop_instances {
            *self.loop_instances.entry(k).or_insert(0) += n;
        }
        for (k, n) in other.cycle_instances {
            *self.cycle_instances.entry(k).or_insert(0) += n;
        }
        for (d, g) in other.graphs {
            self.graphs.entry(d).or_default().absorb(g);
        }
        self.probes_sent += other.probes_sent;
        self.responses += other.responses;
        self.stars += other.stars;
        self.mid_route_stars += other.mid_route_stars;
        self.reached += other.reached;
        self.degraded_routes += other.degraded_routes;
    }

    /// Every responding address discovered across the campaign.
    pub fn addresses_seen(&self) -> impl Iterator<Item = &Ipv4Addr> {
        self.addrs_seen.iter()
    }

    /// Loop signatures observed (for differencing). Ordered so that
    /// every downstream iteration is deterministic by construction.
    pub fn loop_signatures(&self) -> BTreeSet<Signature> {
        self.loop_sig_rounds.keys().copied().collect()
    }

    /// Cycle signatures observed.
    pub fn cycle_signatures(&self) -> BTreeSet<Signature> {
        self.cycle_sig_rounds.keys().copied().collect()
    }

    /// Diamond signatures per destination: `(destination, head, tail)`.
    pub fn diamond_signatures(&self) -> BTreeSet<(Ipv4Addr, Ipv4Addr, Ipv4Addr)> {
        self.graphs
            .iter()
            .flat_map(|(d, g)| g.diamond_signatures().into_iter().map(move |(h, t)| (*d, h, t)))
            .collect()
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
        let loop_sigs = self.loop_sig_rounds.len() as u64;
        let loop_sigs_single_round =
            self.loop_sig_rounds.values().filter(|r| r.len() == 1).count() as u64;
        let cycle_sigs = self.cycle_sig_rounds.len() as u64;
        let cycle_sigs_single_round =
            self.cycle_sig_rounds.values().filter(|r| r.len() == 1).count() as u64;
        let cycle_sig_mean_rounds = if cycle_sigs == 0 {
            0.0
        } else {
            self.cycle_sig_rounds.values().map(|r| r.len() as f64).sum::<f64>() / cycle_sigs as f64
        };
        let dests_with_diamond =
            self.graphs.values().filter(|g| !g.diamonds().is_empty()).count() as u64;
        let diamonds_total: u64 = self.graphs.values().map(|g| g.diamonds().len() as u64).sum();
        ToolReport {
            tool: self.tool,
            rounds: self.rounds_seen.len() as u64,
            routes_total: self.routes_total,
            destinations: self.dests.len() as u64,
            addresses_discovered: self.addrs_seen.len() as u64,
            probes_sent: self.probes_sent,
            responses: self.responses,
            stars: self.stars,
            mid_route_stars: self.mid_route_stars,
            degraded_routes: self.degraded_routes,
            pct_routes_reaching_destination: pct(self.reached, self.routes_total),
            pct_routes_with_loop: pct(self.routes_with_loop, self.routes_total),
            pct_dests_with_loop: pct(self.dests_with_loop.len() as u64, self.dests.len() as u64),
            pct_addrs_in_loop: pct(self.addrs_in_loop.len() as u64, self.addrs_seen.len() as u64),
            loop_signatures: loop_sigs,
            pct_loop_sigs_single_round: pct(loop_sigs_single_round, loop_sigs),
            pct_routes_with_cycle: pct(self.routes_with_cycle, self.routes_total),
            pct_dests_with_cycle: pct(self.dests_with_cycle.len() as u64, self.dests.len() as u64),
            pct_addrs_in_cycle: pct(self.addrs_in_cycle.len() as u64, self.addrs_seen.len() as u64),
            cycle_signatures: cycle_sigs,
            pct_cycle_sigs_single_round: pct(cycle_sigs_single_round, cycle_sigs),
            cycle_sig_mean_rounds,
            diamonds_total,
            pct_dests_with_diamond: pct(dests_with_diamond, self.graphs.len() as u64),
        }
    }

    /// Serialize this accumulator into the campaign checkpoint's line
    /// format. Every set and map is emitted in sorted order, so two
    /// accumulators with equal *contents* — however the campaign was
    /// sharded across workers and merged — produce identical bytes.
    pub fn snapshot_write(&self, out: &mut String) {
        out.push_str("acc ");
        out.push_str(self.tool.name());
        out.push_str("\nrounds ");
        push_uint(out, self.rounds_seen.len() as u64);
        push_rounds(out, &self.rounds_seen);
        out.push_str("\ncounts");
        for count in [
            self.routes_total,
            self.routes_with_loop,
            self.routes_with_cycle,
            self.probes_sent,
            self.responses,
            self.stars,
            self.mid_route_stars,
            self.reached,
            self.degraded_routes,
        ] {
            out.push(' ');
            push_uint(out, count);
        }
        out.push('\n');
        // Addresses sort as their big-endian integers, so sorting the
        // integers is the same canonical order at a fraction of the
        // comparisons' cost.
        let mut addrs: Vec<u32> = Vec::new();
        for (name, set) in [
            ("dests", &self.dests),
            ("dests_with_loop", &self.dests_with_loop),
            ("dests_with_cycle", &self.dests_with_cycle),
            ("addrs_seen", &self.addrs_seen),
            ("addrs_in_loop", &self.addrs_in_loop),
            ("addrs_in_cycle", &self.addrs_in_cycle),
        ] {
            addrs.clear();
            addrs.extend(set.iter().map(|a| u32::from(*a)));
            addrs.sort_unstable();
            out.push_str("set ");
            out.push_str(name);
            out.push(' ');
            push_uint(out, addrs.len() as u64);
            for &a in &addrs {
                out.push(' ');
                push_addr(out, Ipv4Addr::from(a));
            }
            out.push('\n');
        }
        for (name, map) in [("loop", &self.loop_sig_rounds), ("cycle", &self.cycle_sig_rounds)] {
            let mut sigs: Vec<_> = map.iter().collect();
            sigs.sort_unstable_by_key(|(sig, _)| **sig);
            out.push_str("sig_rounds ");
            out.push_str(name);
            out.push(' ');
            push_uint(out, sigs.len() as u64);
            out.push('\n');
            for (sig, rounds) in sigs {
                out.push_str("sr ");
                push_signature(out, *sig);
                out.push(' ');
                push_uint(out, rounds.len() as u64);
                push_rounds(out, rounds);
                out.push('\n');
            }
        }
        let mut li: Vec<((Signature, LoopCause), u64)> =
            self.loop_instances.iter().map(|(k, v)| (*k, *v)).collect();
        li.sort_unstable_by_key(|((sig, cause), _)| (*sig, loop_cause_rank(*cause)));
        out.push_str("instances loop ");
        push_uint(out, li.len() as u64);
        out.push('\n');
        for ((sig, cause), n) in li {
            push_instance(out, sig, loop_cause_tag(cause), n);
        }
        let mut ci: Vec<((Signature, CycleCause), u64)> =
            self.cycle_instances.iter().map(|(k, v)| (*k, *v)).collect();
        ci.sort_unstable_by_key(|((sig, cause), _)| (*sig, cycle_cause_rank(*cause)));
        out.push_str("instances cycle ");
        push_uint(out, ci.len() as u64);
        out.push('\n');
        for ((sig, cause), n) in ci {
            push_instance(out, sig, cycle_cause_tag(cause), n);
        }
        let mut graphs: Vec<_> = self.graphs.iter().collect();
        graphs.sort_unstable_by_key(|(dest, _)| **dest);
        out.push_str("graphs ");
        push_uint(out, graphs.len() as u64);
        out.push('\n');
        for (dest, graph) in graphs {
            out.push_str("dest ");
            push_addr(out, *dest);
            out.push('\n');
            graph.snapshot_write(out);
        }
        out.push_str("end_acc\n");
    }

    /// Parse one accumulator back out of the checkpoint line stream —
    /// the inverse of [`CampaignAccumulator::snapshot_write`].
    pub fn snapshot_read<'a>(
        lines: &mut impl Iterator<Item = &'a str>,
    ) -> Result<CampaignAccumulator, String> {
        fn take<'b>(
            lines: &mut impl Iterator<Item = &'b str>,
            what: &str,
        ) -> Result<&'b str, String> {
            lines.next().ok_or_else(|| format!("snapshot truncated at {what}"))
        }
        fn tok<T: std::str::FromStr>(
            t: &mut std::str::SplitAsciiWhitespace<'_>,
            what: &str,
        ) -> Result<T, String>
        where
            T::Err: std::fmt::Display,
        {
            t.next()
                .ok_or_else(|| format!("missing {what}"))?
                .parse()
                .map_err(|e| format!("{what}: {e}"))
        }
        fn expect_tag(t: &mut std::str::SplitAsciiWhitespace<'_>, tag: &str) -> Result<(), String> {
            match t.next() {
                Some(got) if got == tag => Ok(()),
                got => Err(format!("expected {tag:?}, got {got:?}")),
            }
        }

        let mut t = take(lines, "acc header")?.split_ascii_whitespace();
        expect_tag(&mut t, "acc")?;
        let tool_name = t.next().ok_or("acc: missing tool")?;
        let tool = StrategyId::from_name(tool_name)
            .ok_or_else(|| format!("unknown tool {tool_name:?}"))?;
        let mut acc = CampaignAccumulator::new(tool);

        let mut t = take(lines, "rounds")?.split_ascii_whitespace();
        expect_tag(&mut t, "rounds")?;
        let n: usize = tok(&mut t, "round count")?;
        for _ in 0..n {
            acc.rounds_seen.insert(tok(&mut t, "round")?);
        }

        let mut t = take(lines, "counts")?.split_ascii_whitespace();
        expect_tag(&mut t, "counts")?;
        acc.routes_total = tok(&mut t, "routes_total")?;
        acc.routes_with_loop = tok(&mut t, "routes_with_loop")?;
        acc.routes_with_cycle = tok(&mut t, "routes_with_cycle")?;
        acc.probes_sent = tok(&mut t, "probes_sent")?;
        acc.responses = tok(&mut t, "responses")?;
        acc.stars = tok(&mut t, "stars")?;
        acc.mid_route_stars = tok(&mut t, "mid_route_stars")?;
        acc.reached = tok(&mut t, "reached")?;
        acc.degraded_routes = tok(&mut t, "degraded_routes")?;

        for name in [
            "dests",
            "dests_with_loop",
            "dests_with_cycle",
            "addrs_seen",
            "addrs_in_loop",
            "addrs_in_cycle",
        ] {
            let mut t = take(lines, name)?.split_ascii_whitespace();
            expect_tag(&mut t, "set")?;
            expect_tag(&mut t, name)?;
            let n: usize = tok(&mut t, "set size")?;
            let set = match name {
                "dests" => &mut acc.dests,
                "dests_with_loop" => &mut acc.dests_with_loop,
                "dests_with_cycle" => &mut acc.dests_with_cycle,
                "addrs_seen" => &mut acc.addrs_seen,
                "addrs_in_loop" => &mut acc.addrs_in_loop,
                _ => &mut acc.addrs_in_cycle,
            };
            for _ in 0..n {
                set.insert(tok(&mut t, "set addr")?);
            }
        }

        for name in ["loop", "cycle"] {
            let mut t = take(lines, "sig_rounds")?.split_ascii_whitespace();
            expect_tag(&mut t, "sig_rounds")?;
            expect_tag(&mut t, name)?;
            let n: usize = tok(&mut t, "signature count")?;
            for _ in 0..n {
                let mut t = take(lines, "sr")?.split_ascii_whitespace();
                expect_tag(&mut t, "sr")?;
                let sig: Signature = (tok(&mut t, "sig addr")?, tok(&mut t, "sig dest")?);
                let k: usize = tok(&mut t, "round count")?;
                let map = if name == "loop" {
                    &mut acc.loop_sig_rounds
                } else {
                    &mut acc.cycle_sig_rounds
                };
                let rounds = map.entry(sig).or_default();
                for _ in 0..k {
                    rounds.insert(tok(&mut t, "round")?);
                }
            }
        }

        let mut t = take(lines, "instances loop")?.split_ascii_whitespace();
        expect_tag(&mut t, "instances")?;
        expect_tag(&mut t, "loop")?;
        let n: usize = tok(&mut t, "instance count")?;
        for _ in 0..n {
            let mut t = take(lines, "in")?.split_ascii_whitespace();
            expect_tag(&mut t, "in")?;
            let sig: Signature = (tok(&mut t, "sig addr")?, tok(&mut t, "sig dest")?);
            let cause = loop_cause_from_tag(t.next().ok_or("in: missing cause")?)?;
            acc.loop_instances.insert((sig, cause), tok(&mut t, "instance total")?);
        }
        let mut t = take(lines, "instances cycle")?.split_ascii_whitespace();
        expect_tag(&mut t, "instances")?;
        expect_tag(&mut t, "cycle")?;
        let n: usize = tok(&mut t, "instance count")?;
        for _ in 0..n {
            let mut t = take(lines, "in")?.split_ascii_whitespace();
            expect_tag(&mut t, "in")?;
            let sig: Signature = (tok(&mut t, "sig addr")?, tok(&mut t, "sig dest")?);
            let cause = cycle_cause_from_tag(t.next().ok_or("in: missing cause")?)?;
            acc.cycle_instances.insert((sig, cause), tok(&mut t, "instance total")?);
        }

        let mut t = take(lines, "graphs")?.split_ascii_whitespace();
        expect_tag(&mut t, "graphs")?;
        let n: usize = tok(&mut t, "graph count")?;
        for _ in 0..n {
            let mut t = take(lines, "dest")?.split_ascii_whitespace();
            expect_tag(&mut t, "dest")?;
            let d: Ipv4Addr = tok(&mut t, "graph dest")?;
            acc.graphs.insert(d, DestinationGraph::snapshot_read(lines)?);
        }
        let mut t = take(lines, "end_acc")?.split_ascii_whitespace();
        expect_tag(&mut t, "end_acc")?;
        Ok(acc)
    }
}

/// ` <round>` for every round of a set, in order.
fn push_rounds(out: &mut String, rounds: &BTreeSet<usize>) {
    for &r in rounds {
        out.push(' ');
        push_uint(out, r as u64);
    }
}

/// `<looping address> <destination>`.
fn push_signature(out: &mut String, sig: Signature) {
    push_addr(out, sig.0);
    out.push(' ');
    push_addr(out, sig.1);
}

/// One `in <signature> <cause> <count>` line.
fn push_instance(out: &mut String, sig: Signature, cause: &str, n: u64) {
    out.push_str("in ");
    push_signature(out, sig);
    out.push(' ');
    out.push_str(cause);
    out.push(' ');
    push_uint(out, n);
    out.push('\n');
}

/// Stable sort rank for loop causes in snapshot output.
fn loop_cause_rank(c: LoopCause) -> u8 {
    match c {
        LoopCause::Unreachability => 0,
        LoopCause::ZeroTtlForwarding => 1,
        LoopCause::AddressRewriting => 2,
        LoopCause::Unexplained => 3,
    }
}

/// Stable sort rank for cycle causes in snapshot output.
fn cycle_cause_rank(c: CycleCause) -> u8 {
    match c {
        CycleCause::ForwardingLoop => 0,
        CycleCause::Unreachability => 1,
        CycleCause::Unexplained => 2,
    }
}

fn loop_cause_tag(c: LoopCause) -> &'static str {
    match c {
        LoopCause::Unreachability => "Unreachability",
        LoopCause::ZeroTtlForwarding => "ZeroTtlForwarding",
        LoopCause::AddressRewriting => "AddressRewriting",
        LoopCause::Unexplained => "Unexplained",
    }
}

fn cycle_cause_tag(c: CycleCause) -> &'static str {
    match c {
        CycleCause::ForwardingLoop => "ForwardingLoop",
        CycleCause::Unreachability => "Unreachability",
        CycleCause::Unexplained => "Unexplained",
    }
}

fn loop_cause_from_tag(s: &str) -> Result<LoopCause, String> {
    Ok(match s {
        "Unreachability" => LoopCause::Unreachability,
        "ZeroTtlForwarding" => LoopCause::ZeroTtlForwarding,
        "AddressRewriting" => LoopCause::AddressRewriting,
        "Unexplained" => LoopCause::Unexplained,
        _ => return Err(format!("unknown loop cause {s:?}")),
    })
}

fn cycle_cause_from_tag(s: &str) -> Result<CycleCause, String> {
    Ok(match s {
        "ForwardingLoop" => CycleCause::ForwardingLoop,
        "Unreachability" => CycleCause::Unreachability,
        "Unexplained" => CycleCause::Unexplained,
        _ => return Err(format!("unknown cycle cause {s:?}")),
    })
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

    let to_pct = |m: BTreeMap<FinalLoopCause, u64>, total: u64| {
        m.into_iter()
            .map(|(k, v)| (k, if total == 0 { 0.0 } else { v as f64 / total as f64 * 100.0 }))
            .collect()
    };
    let to_pct_c = |m: BTreeMap<FinalCycleCause, u64>, total: u64| {
        m.into_iter()
            .map(|(k, v)| (k, if total == 0 { 0.0 } else { v as f64 / total as f64 * 100.0 }))
            .collect()
    };

    ComparisonReport {
        loop_causes: to_pct(loop_causes, loop_total),
        cycle_causes: to_pct_c(cycle_causes, cycle_total),
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
                .map(|(i, p)| Hop { ttl: (i + 1) as u8, probes: vec![probe(p)] })
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
        r.hops[1].probes[0].probe_ttl = Some(0);
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
        zero.hops[1].probes[0].probe_ttl = Some(0);
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
