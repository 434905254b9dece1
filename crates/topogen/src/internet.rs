//! The synthetic-Internet generator.
//!
//! ```text
//! S ── a1 ── a2 ── core[0] ═╦═ core[1..n]   (full mesh)
//!                           ╚═ ...
//! core[owner(d)] ── branch(d) ── dest d     (one branch per destination)
//! ```
//!
//! A branch is a chain of transit routers into which the generator
//! splices, with configured probabilities: a load-balanced diamond
//! (per-flow or per-packet; equal-length branches make diamonds,
//! length-difference 1 makes loops, ≥ 2 makes cycles), a zero-TTL
//! forwarder, a broken-forwarding router, a NAT'd stub, and silent
//! routers. All randomness derives from [`InternetConfig::seed`].

use std::fmt::Display;
use std::net::Ipv4Addr;
use std::ops::RangeInclusive;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pt_netsim::addr::Ipv4Prefix;
use pt_netsim::node::{BalancerKind, HostConfig, RouterConfig};
use pt_netsim::time::SimDuration;
use pt_netsim::topology::{NodeId, Topology};
use pt_netsim::TopologyBuilder;
use pt_wire::{FlowPolicy, UnreachableCode};

/// One-way delay of every generated link. §4's anomalies come from hop
/// counts, not round-trip times, so one value serves every link.
const LINK_DELAY: SimDuration = SimDuration::from_millis(1);

/// Extra return delay on a branch planted asymmetric: RTTs skew, hop counts stay.
const ASYM_EXTRA_DELAY: SimDuration = SimDuration::from_millis(5);

/// Plain transit routers per branch, before any feature is spliced in.
const BRANCH_LEN: RangeInclusive<usize> = 2..=5;

/// Given a balancer, the probability it spreads over three paths, not two.
const LB_THREE_WAY: f64 = 0.25;

/// What per-flow balancers hash: the five-tuple, whose ports classic
/// traceroute varies and Paris traceroute holds constant (§2).
const FLOW_POLICY: FlowPolicy = FlowPolicy::FiveTuple;

// A planted ICMP rate limiter mints one token every 5 s into a bucket of
// one: the first probe of a burst is answered, the rest draw stars.
const RATE_LIMIT_INTERVAL: SimDuration = SimDuration::from_secs(5);
const RATE_LIMIT_BURST: u32 = 1;

/// Interior (hidden) routers per planted MPLS tunnel.
const MPLS_RUN_LEN: usize = 3;

/// Knobs for the synthetic Internet. Defaults are calibrated so a classic
/// traceroute campaign reproduces the *shape* of the paper's §4 numbers.
#[derive(Debug, Clone)]
pub struct InternetConfig {
    /// Master seed; everything else is derived.
    pub seed: u64,
    /// Number of destinations (the study used 5,000).
    pub n_destinations: usize,
    /// Core (tier-1-like) routers, fully meshed. At least 2.
    pub n_core: usize,
    /// Probability a destination's branch contains a load balancer that
    /// hashes flows (the dominant anomaly source).
    pub per_flow_lb: f64,
    /// Probability of a per-packet (random) balancer instead.
    pub per_packet_lb: f64,
    /// Given a balancer, probability its parallel paths have equal
    /// length (diamonds only).
    pub lb_equal_weight: f64,
    /// Given a balancer, probability of a length difference of exactly 1
    /// (loops). The remainder gets a difference of 2 (cycles).
    pub lb_delta1_weight: f64,
    /// Probability a branch contains a zero-TTL forwarder (Fig. 4).
    pub zero_ttl: f64,
    /// Probability the branch ends in a broken-forwarding router (`!H`).
    pub broken: f64,
    /// Probability the destination sits in a NAT'd stub (Fig. 5).
    pub nat: f64,
    /// Probability each individual chain router is silent.
    pub silent_router: f64,
    /// Probability the destination is firewalled (no UDP/TCP answers).
    pub firewalled_dest: f64,
    /// Per-traversal packet loss on branch links (mid-route stars).
    pub link_loss: f64,
    /// Probability each chain router rate-limits the ICMP it sources
    /// (token bucket; the dominant modern star cause). This and the
    /// three hostile knobs below consume RNG draws only when non-zero,
    /// so fault-free configs generate byte-identical networks to older
    /// seeds.
    pub rate_limited_router: f64,
    /// Probability a branch routes through an MPLS tunnel whose
    /// interior routers decrement TTL without sourcing Time Exceeded.
    pub mpls_tunnel: f64,
    /// Probability a branch carries a firewall that silently drops UDP
    /// transit while passing TCP and ICMP.
    pub udp_filter: f64,
    /// Probability a branch's links get a skewed (slower) return path.
    pub asym_return: f64,
}

impl Default for InternetConfig {
    fn default() -> Self {
        InternetConfig {
            seed: 2006,
            n_destinations: 500,
            n_core: 6,
            per_flow_lb: 0.65,
            per_packet_lb: 0.03,
            lb_equal_weight: 0.62,
            lb_delta1_weight: 0.24,
            zero_ttl: 0.0025,
            broken: 0.0012,
            nat: 0.0015,
            silent_router: 0.02,
            firewalled_dest: 0.05,
            link_loss: 0.0005,
            rate_limited_router: 0.0,
            mpls_tunnel: 0.0,
            udp_filter: 0.0,
            asym_return: 0.0,
        }
    }
}

impl InternetConfig {
    /// A small instance for unit tests.
    pub fn tiny(seed: u64) -> Self {
        InternetConfig { seed, n_destinations: 40, n_core: 3, ..Self::default() }
    }

    /// A tiny instance with all four hostile-network knobs on: ICMP
    /// token-bucket rate limiters, MPLS hop hiding, UDP firewalls and
    /// asymmetric return paths — the adaptive-tracer proving ground.
    pub fn hostile(seed: u64) -> Self {
        InternetConfig {
            rate_limited_router: 0.22,
            mpls_tunnel: 0.15,
            udp_filter: 0.15,
            asym_return: 0.25,
            ..Self::tiny(seed)
        }
    }
}

/// Ground truth about one destination's branch.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DestTruth {
    /// A per-flow load balancer sits on the path.
    pub per_flow_lb: bool,
    /// A per-packet load balancer sits on the path.
    pub per_packet_lb: bool,
    /// Length difference between the balancer's branches (0 = equal).
    pub lb_delta: u8,
    /// Number of parallel paths at the balancer (0 = none).
    pub lb_width: u8,
    /// A zero-TTL forwarder sits on the path.
    pub zero_ttl: bool,
    /// The branch ends in a broken-forwarding router.
    pub broken: bool,
    /// The destination sits behind a NAT gateway.
    pub nat: bool,
    /// Number of silent routers on the path.
    pub silent_routers: u8,
    /// The destination ignores UDP/TCP probes.
    pub firewalled: bool,
    /// Number of token-bucket ICMP rate limiters on the path.
    pub rate_limited_routers: u8,
    /// Number of MPLS-hidden (no Time Exceeded) hops on the path.
    pub mpls_hops: u8,
    /// A firewall on the path silently drops UDP transit.
    pub udp_filtered: bool,
    /// The branch's return path carries extra (asymmetric) delay.
    pub asym_return: bool,
}

impl DestTruth {
    /// Whether any load balancer (per-flow or per-packet) sits on this
    /// branch — the population multipath discovery must enumerate.
    pub fn has_balancer(&self) -> bool {
        self.per_flow_lb || self.per_packet_lb
    }

    /// The planted balancer's `(width, branch-length delta, is
    /// per-packet)`, or `None` on plain branches — the ground truth a
    /// multipath campaign is validated against.
    pub fn balancer(&self) -> Option<(u8, u8, bool)> {
        self.has_balancer().then_some((self.lb_width, self.lb_delta, self.per_packet_lb))
    }

    /// Whether any hostile fault (rate limiter, MPLS hiding, UDP filter,
    /// asymmetric return) was planted here — the population the adaptive
    /// walker must recover.
    pub fn any_hostile_fault(&self) -> bool {
        self.rate_limited_routers > 0 || self.mpls_hops > 0 || self.udp_filtered || self.asym_return
    }
}

/// One destination: its address, host node, ground truth, and the branch
/// routers in path order (for scheduling routing dynamics).
#[derive(Debug, Clone)]
pub struct DestInfo {
    /// The probed address.
    pub addr: Ipv4Addr,
    /// The destination host node.
    pub host: NodeId,
    /// What the generator put on this branch.
    pub truth: DestTruth,
    /// Branch routers in path order (chain part only — usable for
    /// forwarding-loop scheduling between adjacent pairs).
    pub chain: Vec<NodeId>,
}

/// The generated network plus its metadata.
#[derive(Debug, Clone)]
pub struct SyntheticInternet {
    /// The immutable network graph.
    pub topology: Arc<Topology>,
    /// The traceroute source host.
    pub source: NodeId,
    /// Per-destination records, in generation order.
    pub dests: Vec<DestInfo>,
    /// The configuration that produced this network.
    pub config: InternetConfig,
}

/// Generate a synthetic Internet from `config`.
///
/// # Panics
/// Panics if `n_core < 2` or `n_destinations == 0`.
pub fn generate(config: &InternetConfig) -> SyntheticInternet {
    assert!(config.n_core >= 2, "need at least two core routers");
    assert!(config.n_destinations > 0, "need at least one destination");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut b = TopologyBuilder::new();

    // --- Access network: S — a1 — a2 (the hops min_ttl=2 skips). ---
    let source = b.host("S", HostConfig::default());
    let a1 = b.router("a1", RouterConfig::default().with_fixed_responder());
    let a2 = b.router("a2", RouterConfig::default().with_fixed_responder());
    b.link(source, a1, LINK_DELAY, 0.0);
    b.link(a1, a2, LINK_DELAY, 0.0);
    let s_prefix = b.subnet_of(source);
    b.default_via(source, a1);
    b.default_via(a1, a2);
    b.route_via(a1, s_prefix, source);

    // --- Core mesh. ---
    let core: Vec<NodeId> = (0..config.n_core)
        .map(|i| b.router(&format!("core{i}"), RouterConfig::default().with_fixed_responder()))
        .collect();
    b.link(a2, core[0], LINK_DELAY, 0.0);
    for i in 0..core.len() {
        for j in i + 1..core.len() {
            b.link(core[i], core[j], LINK_DELAY, 0.0);
        }
    }
    b.default_via(a2, core[0]);
    b.route_via(a2, s_prefix, a1);
    b.route_via(core[0], s_prefix, a2);
    for &c in &core[1..] {
        b.route_via(c, s_prefix, core[0]);
    }

    // --- Branches. ---
    let mut dests = Vec::with_capacity(config.n_destinations);
    for di in 0..config.n_destinations {
        let owner = core[rng.gen_range(0..core.len())];
        let branch = Branch {
            b: &mut b,
            rng: &mut rng,
            config,
            di,
            owner,
            s_prefix,
            back: LINK_DELAY,
            prev: owner,
            truth: DestTruth::default(),
            chain: Vec::new(),
        };
        let info = branch.build();
        // Core routing: every core router reaches this destination via the
        // owner; the owner hands off to the branch head.
        let dest_route = Ipv4Prefix::host(info.addr);
        for &c in &core {
            b.route_via(c, dest_route, if c == owner { info.chain[0] } else { owner });
        }
        dests.push(info);
    }

    SyntheticInternet { topology: Arc::new(b.build()), source, dests, config: config.clone() }
}

/// One destination's branch while it is built: the generator's state,
/// the router the next splice hangs behind, and what was planted so far.
struct Branch<'a> {
    b: &'a mut TopologyBuilder,
    rng: &'a mut StdRng,
    config: &'a InternetConfig,
    di: usize,
    /// The core router the branch hangs off; it reaches the branch by a
    /// host route, not a default.
    owner: NodeId,
    s_prefix: Ipv4Prefix,
    /// Return-direction delay of every link on the branch.
    back: SimDuration,
    prev: NodeId,
    truth: DestTruth,
    chain: Vec<NodeId>,
}

impl Branch<'_> {
    /// `true` with probability `p`, drawing nothing when `p == 0`: the
    /// hostile knobs are off by default, and this is why fault-free
    /// configs generate byte-identical networks to older seeds.
    fn roll(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.gen_bool(p)
    }

    /// A branch router named `d<di>-<part>`: silent, or else perhaps
    /// ICMP-rate-limited (drawn here so `truth` keeps count).
    fn router(&mut self, part: impl Display, silent: bool) -> NodeId {
        let cfg = if silent {
            self.truth.silent_routers += 1;
            RouterConfig::silent()
        } else if self.roll(self.config.rate_limited_router) {
            self.truth.rate_limited_routers += 1;
            RouterConfig::rate_limited(RATE_LIMIT_INTERVAL, RATE_LIMIT_BURST).with_fixed_responder()
        } else {
            RouterConfig::default().with_fixed_responder()
        };
        self.router_with(part, cfg)
    }

    /// A branch node named `d<di>-<part>` with its own behaviour.
    fn router_with(&mut self, part: impl Display, cfg: RouterConfig) -> NodeId {
        self.b.router(&format!("d{}-{part}", self.di), cfg)
    }

    /// Link `r` behind `from`; `r` routes the source back through it.
    fn link(&mut self, from: NodeId, r: NodeId) {
        self.b.link_asym(from, r, LINK_DELAY, self.back, self.config.link_loss);
        self.b.route_via(r, self.s_prefix, from);
    }

    /// Append `r` to the chain: linked behind the last router, which
    /// forwards to it by default.
    fn splice(&mut self, r: NodeId) {
        self.link(self.prev, r);
        if self.prev != self.owner {
            self.b.default_via(self.prev, r);
        }
        self.chain.push(r);
        self.prev = r;
    }

    /// Build the branch in path order and hang its destination off the
    /// end.
    fn build(mut self) -> DestInfo {
        let config = self.config;
        // Per-branch asymmetric return path: every link on the branch
        // gets extra reverse-direction delay, skewing RTTs without
        // touching hop counts.
        if self.roll(config.asym_return) {
            self.truth.asym_return = true;
            self.back = LINK_DELAY + ASYM_EXTRA_DELAY;
        }

        // Plain chain part.
        for i in 0..self.rng.gen_range(BRANCH_LEN) {
            let silent = self.rng.gen_bool(config.silent_router);
            let r = self.router(format_args!("t{i}"), silent);
            self.splice(r);
        }

        // Optional MPLS tunnel: a run of interior routers that decrement
        // TTL without sourcing Time Exceeded. Spliced *before* the diamond
        // so a walker that abandons inside the tunnel never sees what lies
        // beyond — the recovery the adaptive walker must make.
        if self.roll(config.mpls_tunnel) {
            self.truth.mpls_hops = MPLS_RUN_LEN as u8;
            for s in 0..MPLS_RUN_LEN {
                let r = self.router_with(format_args!("m{s}"), RouterConfig::mpls_interior());
                self.splice(r);
            }
        }

        // Optional UDP-dropping firewall, also ahead of the diamond: a
        // UDP-only walker dies here with trailing stars; TCP/ICMP pass.
        if self.roll(config.udp_filter) {
            self.truth.udp_filtered = true;
            let f = self.router_with("W", RouterConfig::udp_filter().with_fixed_responder());
            self.splice(f);
        }

        // Optional load-balanced diamond.
        let lb_roll: f64 = self.rng.gen();
        let lb_kind = if lb_roll < config.per_flow_lb {
            self.truth.per_flow_lb = true;
            Some(BalancerKind::PerFlow(FLOW_POLICY))
        } else if lb_roll < config.per_flow_lb + config.per_packet_lb {
            self.truth.per_packet_lb = true;
            Some(BalancerKind::PerPacket)
        } else {
            None
        };
        if let Some(kind) = lb_kind {
            self.diamond(kind);
        }

        // Optional zero-TTL forwarder followed by a normal router (so the
        // "loop" address exists downstream).
        if self.rng.gen_bool(config.zero_ttl) {
            self.truth.zero_ttl = true;
            let f = self.router_with("F", RouterConfig::zero_ttl_forwarder());
            self.splice(f);
            let after = self.router("Fa", false);
            self.splice(after);
        }

        // Optional broken-forwarding router: the trace never passes it.
        if self.rng.gen_bool(config.broken) {
            self.truth.broken = true;
            let u = self.router_with("U", RouterConfig::broken_forwarding(UnreachableCode::Host));
            self.splice(u);
        }

        // Destination, possibly behind a NAT stub.
        self.truth.firewalled = self.rng.gen_bool(config.firewalled_dest);
        let host_cfg =
            if self.truth.firewalled { HostConfig::firewalled() } else { HostConfig::responsive() };
        let dest = self.b.host(&format!("dest{}", self.di), host_cfg);
        self.truth.nat = self.rng.gen_bool(config.nat);
        let last = if self.truth.nat { self.nat_stub(dest) } else { self.prev };
        self.b.link_asym(last, dest, LINK_DELAY, self.back, config.link_loss);
        self.b.default_via(last, dest);
        self.b.default_via(dest, last);

        let addr = self.b.addr_of(dest);
        DestInfo { addr, host: dest, truth: self.truth, chain: self.chain }
    }

    /// A balancer `L` spreading over parallel paths that rejoin at a
    /// merge router `M`. The first path has one router, the second
    /// `1 + delta`, a third (if drawn) one.
    fn diamond(&mut self, kind: BalancerKind) {
        let shape: f64 = self.rng.gen();
        let delta: usize = if shape < self.config.lb_equal_weight {
            0
        } else if shape < self.config.lb_equal_weight + self.config.lb_delta1_weight {
            1
        } else {
            2
        };
        self.truth.lb_delta = delta as u8;
        let width = if self.rng.gen_bool(LB_THREE_WAY) { 3 } else { 2 };
        self.truth.lb_width = width as u8;
        let l = self.router("L", false);
        self.splice(l);
        let merge = self.router("M", false);
        let mut heads = Vec::new();
        for w in 0..width {
            let len = if w == 1 { 1 + delta } else { 1 };
            let mut p = l;
            for s in 0..len {
                let r = self.router(format_args!("b{w}x{s}"), false);
                self.link(p, r);
                if p == l {
                    heads.push(r);
                } else {
                    self.b.default_via(p, r);
                }
                p = r;
            }
            // The merge router routes the source back over the first path.
            if w == 0 {
                self.link(p, merge);
            } else {
                self.b.link_asym(p, merge, LINK_DELAY, self.back, self.config.link_loss);
            }
            self.b.default_via(p, merge);
        }
        self.b.balanced_route(l, Ipv4Prefix::DEFAULT, kind, &heads);
        self.chain.push(merge);
        self.prev = merge;
    }

    /// A NAT gateway `N` in front of one to three inner routers and
    /// `dest`, rewriting everything that leaves the stub to its public
    /// (upstream) address. Returns the router `dest` hangs off.
    fn nat_stub(&mut self, dest: NodeId) -> NodeId {
        let n = self.router_with("N", RouterConfig::default());
        self.splice(n);
        let inner_count = self.rng.gen_range(1..=3);
        let mut inner_prefixes = vec![self.b.subnet_of(dest)];
        let mut p = n;
        for s in 0..inner_count {
            let r = self.router(format_args!("n{s}"), false);
            inner_prefixes.push(self.b.subnet_of(r));
            self.link(p, r);
            self.b.default_via(p, r);
            p = r;
        }
        // N's public face is its upstream interface.
        let public = self.b.iface_addr(n, 0);
        let cfg = RouterConfig::nat_gateway(public, inner_prefixes).with_fixed_responder();
        self.b.set_router_config(n, cfg);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&InternetConfig::tiny(7));
        let b = generate(&InternetConfig::tiny(7));
        assert_eq!(a.topology.len(), b.topology.len());
        let addrs = |net: &SyntheticInternet| net.dests.iter().map(|d| d.addr).collect::<Vec<_>>();
        assert_eq!(addrs(&a), addrs(&b));
        let ta: Vec<_> = a.dests.iter().map(|d| d.truth).collect();
        let tb: Vec<_> = b.dests.iter().map(|d| d.truth).collect();
        assert_eq!(ta, tb);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&InternetConfig::tiny(7));
        let b = generate(&InternetConfig::tiny(8));
        let ta: Vec<_> = a.dests.iter().map(|d| d.truth).collect();
        let tb: Vec<_> = b.dests.iter().map(|d| d.truth).collect();
        assert_ne!(ta, tb, "seeds must matter");
    }

    #[test]
    fn every_destination_has_a_unique_address() {
        let net = generate(&InternetConfig::tiny(3));
        let list: Vec<_> = net.dests.iter().map(|d| d.addr).collect();
        let set: std::collections::BTreeSet<_> = list.iter().collect();
        assert_eq!(set.len(), list.len());
        assert_eq!(list.len(), 40);
    }

    #[test]
    fn truth_prevalence_tracks_config() {
        let config = InternetConfig {
            n_destinations: 2000,
            per_flow_lb: 0.5,
            per_packet_lb: 0.0,
            zero_ttl: 0.0,
            broken: 0.0,
            nat: 0.0,
            firewalled_dest: 0.0,
            silent_router: 0.0,
            ..InternetConfig::default()
        };
        let net = generate(&config);
        let with_lb = net.dests.iter().filter(|d| d.truth.per_flow_lb).count();
        let frac = with_lb as f64 / 2000.0;
        assert!((frac - 0.5).abs() < 0.05, "per-flow prevalence {frac} far from 0.5");
        assert!(net.dests.iter().all(|d| !d.truth.nat && !d.truth.broken && !d.truth.zero_ttl));
    }

    #[test]
    fn hostile_knobs_plant_all_four_faults_and_defaults_stay_clean() {
        let clean = generate(&InternetConfig::tiny(42));
        assert!(
            clean.dests.iter().all(|d| !d.truth.any_hostile_fault()),
            "fault-free configs must plant no hostile faults"
        );
        let hostile = generate(&InternetConfig::hostile(42));
        let rate = hostile.dests.iter().filter(|d| d.truth.rate_limited_routers > 0).count();
        let mpls = hostile.dests.iter().filter(|d| d.truth.mpls_hops > 0).count();
        let filt = hostile.dests.iter().filter(|d| d.truth.udp_filtered).count();
        let asym = hostile.dests.iter().filter(|d| d.truth.asym_return).count();
        assert!(rate > 0, "no rate limiters planted");
        assert!(mpls > 0, "no MPLS tunnels planted");
        assert!(filt > 0, "no UDP filters planted");
        assert!(asym > 0, "no asymmetric returns planted");
        // Determinism holds with the hostile knobs on.
        let again = generate(&InternetConfig::hostile(42));
        let ta: Vec<_> = hostile.dests.iter().map(|d| d.truth).collect();
        let tb: Vec<_> = again.dests.iter().map(|d| d.truth).collect();
        assert_eq!(ta, tb);
    }

    #[test]
    fn hostile_branches_still_terminate_traces() {
        // Every fault on at once: traces must still halt (terminal,
        // star limit, or max TTL) — the simulator must never hang.
        let config = InternetConfig {
            seed: 23,
            rate_limited_router: 0.5,
            mpls_tunnel: 0.5,
            udp_filter: 0.5,
            asym_return: 0.5,
            ..InternetConfig::tiny(23)
        };
        let net = generate(&config);
        let mut tx = pt_netsim::SimTransport::new(
            pt_netsim::Simulator::new(net.topology.clone(), 5),
            net.source,
        );
        for (i, d) in net.dests.iter().enumerate() {
            let mut strat = pt_core::ParisUdp::new(41000 + i as u16, 50000);
            let route =
                pt_core::trace(&mut tx, &mut strat, d.addr, pt_core::TraceConfig::default());
            assert!(!route.hops.is_empty(), "destination {i}");
        }
    }

    #[test]
    fn probes_reach_every_plain_destination() {
        // With all anomalies off, every destination must be cleanly
        // traceable — validating branch wiring and routing end to end.
        let config = InternetConfig {
            seed: 11,
            n_destinations: 30,
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
        let mut tx = pt_netsim::SimTransport::new(
            pt_netsim::Simulator::new(net.topology.clone(), 5),
            net.source,
        );
        for (i, d) in net.dests.iter().enumerate() {
            let mut strat = pt_core::ParisUdp::new(40000 + i as u16, 50000);
            let route =
                pt_core::trace(&mut tx, &mut strat, d.addr, pt_core::TraceConfig::default());
            assert!(
                route.reached_destination(),
                "destination {i} ({}) unreachable: {:?}",
                d.addr,
                route.addresses()
            );
        }
    }

    #[test]
    fn anomalous_branches_still_terminate_traces() {
        // With every anomaly cranked up, traces must still halt (terminal,
        // star limit, or max TTL) — no infinite loops in the simulator.
        let config = InternetConfig {
            seed: 13,
            n_destinations: 60,
            per_flow_lb: 0.5,
            per_packet_lb: 0.2,
            zero_ttl: 0.2,
            broken: 0.2,
            nat: 0.2,
            firewalled_dest: 0.3,
            silent_router: 0.1,
            ..InternetConfig::default()
        };
        let net = generate(&config);
        let mut tx = pt_netsim::SimTransport::new(
            pt_netsim::Simulator::new(net.topology.clone(), 5),
            net.source,
        );
        for (i, d) in net.dests.iter().enumerate() {
            let mut strat = pt_core::ClassicUdp::new(i as u16);
            let route =
                pt_core::trace(&mut tx, &mut strat, d.addr, pt_core::TraceConfig::default());
            assert!(!route.hops.is_empty(), "destination {i}");
        }
    }

    #[test]
    fn nat_branches_rewrite_sources() {
        let config = InternetConfig {
            seed: 17,
            n_destinations: 30,
            per_flow_lb: 0.0,
            per_packet_lb: 0.0,
            zero_ttl: 0.0,
            broken: 0.0,
            nat: 1.0,
            firewalled_dest: 0.0,
            silent_router: 0.0,
            link_loss: 0.0,
            ..InternetConfig::default()
        };
        let net = generate(&config);
        assert!(net.dests.iter().all(|d| d.truth.nat));
        let mut tx = pt_netsim::SimTransport::new(
            pt_netsim::Simulator::new(net.topology.clone(), 5),
            net.source,
        );
        // Each NAT'd destination yields a trailing loop on the gateway's
        // public address.
        let mut loops = 0;
        for (i, d) in net.dests.iter().enumerate() {
            let mut strat = pt_core::ParisUdp::new(40000 + i as u16, 50000);
            let route =
                pt_core::trace(&mut tx, &mut strat, d.addr, pt_core::TraceConfig::default());
            let addrs = route.addresses();
            let repeated = addrs.windows(2).any(|w| w[0].is_some() && w[0] == w[1]);
            if repeated {
                loops += 1;
            }
        }
        assert_eq!(loops, 30, "every NAT stub must produce an address-rewriting loop");
    }
}
