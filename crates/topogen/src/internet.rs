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

use std::net::Ipv4Addr;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pt_netsim::addr::Ipv4Prefix;
use pt_netsim::node::{BalancerKind, HostConfig, RouterConfig};
use pt_netsim::time::SimDuration;
use pt_netsim::topology::{NodeId, Topology};
use pt_netsim::TopologyBuilder;
use pt_wire::{FlowPolicy, UnreachableCode};

use crate::aslabel::{AsMap, AsTier, Asn};

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
    /// Transit routers per branch before feature insertion: uniform in
    /// `branch_len_min..=branch_len_max`.
    pub branch_len_min: usize,
    /// Upper bound of the plain chain length.
    pub branch_len_max: usize,
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
    /// Probability the balancer spreads over 3 paths instead of 2.
    pub lb_three_way: f64,
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
    /// One-way link delay.
    pub link_delay: SimDuration,
    /// Flow-hash policy installed on per-flow balancers.
    pub flow_policy: FlowPolicy,
    /// Probability each chain router rate-limits the ICMP it sources
    /// (token bucket; the dominant modern star cause). New hostile
    /// knobs consume RNG draws only when non-zero, so fault-free
    /// configs generate byte-identical networks to older seeds.
    pub rate_limited_router: f64,
    /// Planted limiter: time to mint one token (1 / rate).
    pub rate_limit_interval: SimDuration,
    /// Planted limiter: bucket capacity (back-to-back ICMP budget).
    pub rate_limit_burst: u32,
    /// Probability a branch routes through an MPLS tunnel whose
    /// interior routers decrement TTL without sourcing Time Exceeded.
    pub mpls_tunnel: f64,
    /// Interior (hidden) routers per planted tunnel.
    pub mpls_run_len: usize,
    /// Probability a branch carries a firewall that silently drops UDP
    /// transit while passing TCP and ICMP.
    pub udp_filter: f64,
    /// Probability a branch's links get a skewed (slower) return path.
    pub asym_return: f64,
    /// Extra return-direction delay on planted asymmetric branches.
    pub asym_extra_delay: SimDuration,
}

impl Default for InternetConfig {
    fn default() -> Self {
        InternetConfig {
            seed: 2006,
            n_destinations: 500,
            n_core: 6,
            branch_len_min: 2,
            branch_len_max: 5,
            per_flow_lb: 0.65,
            per_packet_lb: 0.03,
            lb_equal_weight: 0.62,
            lb_delta1_weight: 0.24,
            lb_three_way: 0.25,
            zero_ttl: 0.0025,
            broken: 0.0012,
            nat: 0.0015,
            silent_router: 0.02,
            firewalled_dest: 0.05,
            link_loss: 0.0005,
            link_delay: SimDuration::from_millis(1),
            flow_policy: FlowPolicy::FiveTuple,
            rate_limited_router: 0.0,
            rate_limit_interval: SimDuration::from_secs(5),
            rate_limit_burst: 1,
            mpls_tunnel: 0.0,
            mpls_run_len: 3,
            udp_filter: 0.0,
            asym_return: 0.0,
            asym_extra_delay: SimDuration::from_millis(5),
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

    /// Whether any of the PR-6 hostile faults (rate limiter, MPLS
    /// hiding, UDP filter, asymmetric return) was planted here — the
    /// population the adaptive walker must recover.
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
    /// Ground-truth prefix→AS map (§3's AS-level coverage substitute).
    pub as_map: AsMap,
    /// The configuration that produced this network.
    pub config: InternetConfig,
}

impl SyntheticInternet {
    /// All destination addresses (the study's "destination list").
    pub fn destination_list(&self) -> Vec<Ipv4Addr> {
        self.dests.iter().map(|d| d.addr).collect()
    }
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
    let mut as_map = AsMap::new();
    let delay = config.link_delay;

    // --- Access network: S — a1 — a2 (the hops min_ttl=2 skips). ---
    let source = b.host("S", HostConfig::default());
    let a1 = b.router("a1", RouterConfig::default().with_fixed_responder());
    let a2 = b.router("a2", RouterConfig::default().with_fixed_responder());
    b.link(source, a1, delay, 0.0);
    b.link(a1, a2, delay, 0.0);
    let s_prefix = b.subnet_of(source);
    b.default_via(source, a1);
    b.default_via(a1, a2);
    b.route_via(a1, s_prefix, source);
    for node in [source, a1, a2] {
        for pfx in b.subnets_of(node) {
            as_map.insert(*pfx, Asn(1), AsTier::Source);
        }
    }

    // --- Core mesh. ---
    let core: Vec<NodeId> = (0..config.n_core)
        .map(|i| b.router(&format!("core{i}"), RouterConfig::default().with_fixed_responder()))
        .collect();
    b.link(a2, core[0], delay, 0.0);
    for i in 0..core.len() {
        for j in i + 1..core.len() {
            b.link(core[i], core[j], delay, 0.0);
        }
    }
    b.default_via(a2, core[0]);
    b.route_via(a2, s_prefix, a1);
    b.route_via(core[0], s_prefix, a2);
    for &c in &core[1..] {
        b.route_via(c, s_prefix, core[0]);
    }
    // One tier-1 AS per core router (the study crossed all nine tier-1s).
    for (i, &c) in core.iter().enumerate() {
        for pfx in b.subnets_of(c) {
            as_map.insert(*pfx, Asn(100 + i as u32), AsTier::Tier1);
        }
    }

    // --- Branches. ---
    let mut dests = Vec::with_capacity(config.n_destinations);
    for di in 0..config.n_destinations {
        let owner = core[rng.gen_range(0..core.len())];
        let first_node = b.node_count();
        let (info, head) = build_branch(&mut b, &mut rng, config, di, owner, s_prefix, delay);
        // Every node the branch created belongs to this stub AS.
        let stub_asn = Asn(1000 + di as u32);
        for node_idx in first_node..b.node_count() {
            for pfx in b.subnets_of(pt_netsim::topology::NodeId(node_idx)) {
                as_map.insert(*pfx, stub_asn, AsTier::Stub);
            }
        }
        // Core routing: every core router reaches this destination via the
        // owner; the owner hands off to the branch head.
        let dest_route = Ipv4Prefix::host(info.addr);
        for &c in &core {
            if c == owner {
                b.route_via(c, dest_route, head);
            } else {
                b.route_via(c, dest_route, owner);
            }
        }
        dests.push(info);
    }

    SyntheticInternet {
        topology: Arc::new(b.build()),
        source,
        dests,
        as_map,
        config: config.clone(),
    }
}

/// Build one destination branch hanging off `owner`. Returns the
/// destination info and the branch head node (the owner's next hop).
#[allow(clippy::too_many_arguments, reason = "the generator's state, one call per branch")]
fn build_branch(
    b: &mut TopologyBuilder,
    rng: &mut StdRng,
    config: &InternetConfig,
    di: usize,
    owner: NodeId,
    s_prefix: Ipv4Prefix,
    delay: SimDuration,
) -> (DestInfo, NodeId) {
    let mut truth = DestTruth::default();
    let mut chain: Vec<NodeId> = Vec::new();
    let loss = config.link_loss;

    // Per-branch asymmetric return path: every link on the branch gets
    // extra reverse-direction delay, skewing RTTs without touching hop
    // counts. Drawn only when the knob is on, so fault-free configs
    // spend no RNG state and generate byte-identical networks.
    if config.asym_return > 0.0 && rng.gen_bool(config.asym_return) {
        truth.asym_return = true;
    }
    let back = if truth.asym_return {
        SimDuration::from_nanos(delay.nanos() + config.asym_extra_delay.nanos())
    } else {
        delay
    };

    // A branch router, possibly silent, possibly ICMP-rate-limited
    // (the latter drawn here so `truth` keeps count).
    fn plant_router(
        b: &mut TopologyBuilder,
        rng: &mut StdRng,
        config: &InternetConfig,
        truth: &mut DestTruth,
        name: String,
        silent: bool,
    ) -> NodeId {
        let cfg = if silent {
            RouterConfig::silent()
        } else if config.rate_limited_router > 0.0 && rng.gen_bool(config.rate_limited_router) {
            truth.rate_limited_routers += 1;
            RouterConfig::rate_limited(config.rate_limit_interval, config.rate_limit_burst)
                .with_fixed_responder()
        } else {
            RouterConfig::default().with_fixed_responder()
        };
        b.router(&name, cfg)
    }

    // Plain chain part.
    let chain_len = rng.gen_range(config.branch_len_min..=config.branch_len_max);
    let mut prev = owner;
    for i in 0..chain_len {
        let silent = rng.gen_bool(config.silent_router);
        if silent {
            truth.silent_routers += 1;
        }
        let r = plant_router(b, rng, config, &mut truth, format!("d{di}-t{i}"), silent);
        b.link_asym(prev, r, delay, back, loss);
        b.route_via(r, s_prefix, prev);
        if prev != owner {
            b.default_via(prev, r);
        }
        chain.push(r);
        prev = r;
    }
    let head = chain[0];

    // Optional MPLS tunnel: a run of interior routers that decrement
    // TTL without sourcing Time Exceeded. Spliced *before* the diamond
    // so a walker that abandons inside the tunnel never sees what lies
    // beyond — the recovery the adaptive walker must make.
    if config.mpls_tunnel > 0.0 && rng.gen_bool(config.mpls_tunnel) {
        truth.mpls_hops = config.mpls_run_len as u8;
        for s in 0..config.mpls_run_len {
            let r = b.router(&format!("d{di}-m{s}"), RouterConfig::mpls_interior());
            b.link_asym(prev, r, delay, back, loss);
            b.route_via(r, s_prefix, prev);
            if prev != owner {
                b.default_via(prev, r);
            }
            chain.push(r);
            prev = r;
        }
    }

    // Optional UDP-dropping firewall, also ahead of the diamond: a
    // UDP-only walker dies here with trailing stars; TCP/ICMP pass.
    if config.udp_filter > 0.0 && rng.gen_bool(config.udp_filter) {
        truth.udp_filtered = true;
        let f = b.router(&format!("d{di}-W"), RouterConfig::udp_filter().with_fixed_responder());
        b.link_asym(prev, f, delay, back, loss);
        b.route_via(f, s_prefix, prev);
        if prev != owner {
            b.default_via(prev, f);
        }
        chain.push(f);
        prev = f;
    }

    // Optional load-balanced diamond.
    let lb_roll: f64 = rng.gen();
    let lb_kind = if lb_roll < config.per_flow_lb {
        truth.per_flow_lb = true;
        Some(BalancerKind::PerFlow(config.flow_policy))
    } else if lb_roll < config.per_flow_lb + config.per_packet_lb {
        truth.per_packet_lb = true;
        Some(BalancerKind::PerPacket)
    } else {
        None
    };
    if let Some(kind) = lb_kind {
        let shape: f64 = rng.gen();
        let delta: usize = if shape < config.lb_equal_weight {
            0
        } else if shape < config.lb_equal_weight + config.lb_delta1_weight {
            1
        } else {
            2
        };
        truth.lb_delta = delta as u8;
        let width = if rng.gen_bool(config.lb_three_way) { 3 } else { 2 };
        truth.lb_width = width as u8;
        // L balances over `width` parallel paths; the first path has one
        // router, the others one or (first alternate) 1 + delta.
        let l = plant_router(b, rng, config, &mut truth, format!("d{di}-L"), false);
        b.link_asym(prev, l, delay, back, loss);
        b.route_via(l, s_prefix, prev);
        if prev != owner {
            b.default_via(prev, l);
        }
        chain.push(l);
        let merge = plant_router(b, rng, config, &mut truth, format!("d{di}-M"), false);
        let mut heads = Vec::new();
        for w in 0..width {
            let len = if w == 1 { 1 + delta } else { 1 };
            let mut p = l;
            for s in 0..len {
                let r = plant_router(b, rng, config, &mut truth, format!("d{di}-b{w}x{s}"), false);
                b.link_asym(p, r, delay, back, loss);
                b.route_via(r, s_prefix, p);
                if p != l {
                    b.default_via(p, r);
                }
                if p == l {
                    heads.push(r);
                }
                p = r;
            }
            b.link_asym(p, merge, delay, back, loss);
            b.default_via(p, merge);
            if w == 0 {
                b.route_via(merge, s_prefix, p);
            }
        }
        b.balanced_route(l, Ipv4Prefix::DEFAULT, kind, &heads);
        chain.push(merge);
        prev = merge;
    }

    // Optional zero-TTL forwarder followed by a normal router (so the
    // "loop" address exists downstream).
    if rng.gen_bool(config.zero_ttl) {
        truth.zero_ttl = true;
        let f = b.router(&format!("d{di}-F"), RouterConfig::zero_ttl_forwarder());
        b.link_asym(prev, f, delay, back, loss);
        b.route_via(f, s_prefix, prev);
        if prev != owner {
            b.default_via(prev, f);
        }
        chain.push(f);
        prev = f;
        let after = plant_router(b, rng, config, &mut truth, format!("d{di}-Fa"), false);
        b.link_asym(prev, after, delay, back, loss);
        b.route_via(after, s_prefix, prev);
        b.default_via(prev, after);
        chain.push(after);
        prev = after;
    }

    // Optional broken-forwarding router: the trace never passes it.
    if rng.gen_bool(config.broken) {
        truth.broken = true;
        let u =
            b.router(&format!("d{di}-U"), RouterConfig::broken_forwarding(UnreachableCode::Host));
        b.link_asym(prev, u, delay, back, loss);
        b.route_via(u, s_prefix, prev);
        if prev != owner {
            b.default_via(prev, u);
        }
        chain.push(u);
        prev = u;
    }

    // Destination, possibly behind a NAT stub.
    let host_cfg = if rng.gen_bool(config.firewalled_dest) {
        truth.firewalled = true;
        HostConfig::firewalled()
    } else {
        HostConfig::responsive()
    };
    let dest = b.host(&format!("dest{di}"), host_cfg);
    if rng.gen_bool(config.nat) {
        truth.nat = true;
        let n = b.router(&format!("d{di}-N"), RouterConfig::default());
        b.link_asym(prev, n, delay, back, loss);
        b.route_via(n, s_prefix, prev);
        if prev != owner {
            b.default_via(prev, n);
        }
        chain.push(n);
        let inner_count = rng.gen_range(1..=3);
        let mut inner_prefixes = vec![b.subnet_of(dest)];
        let mut p = n;
        for s in 0..inner_count {
            let r = plant_router(b, rng, config, &mut truth, format!("d{di}-n{s}"), false);
            inner_prefixes.push(b.subnet_of(r));
            b.link_asym(p, r, delay, back, loss);
            b.route_via(r, s_prefix, p);
            b.default_via(p, r);
            p = r;
        }
        b.link_asym(p, dest, delay, back, loss);
        b.default_via(p, dest);
        b.default_via(dest, p);
        // N's public face is its upstream interface.
        let public = b.iface_addr(n, 0);
        let mut cfg = RouterConfig::nat_gateway(public, inner_prefixes);
        cfg.responder = pt_netsim::node::ResponderAddr::Fixed;
        b.set_router_config(n, cfg);
    } else {
        b.link_asym(prev, dest, delay, back, loss);
        b.default_via(prev, dest);
        b.default_via(dest, prev);
    }

    let addr = b.addr_of(dest);
    (DestInfo { addr, host: dest, truth, chain }, head)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&InternetConfig::tiny(7));
        let b = generate(&InternetConfig::tiny(7));
        assert_eq!(a.topology.len(), b.topology.len());
        assert_eq!(a.destination_list(), b.destination_list());
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
        let list = net.destination_list();
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
    fn as_map_labels_every_interface() {
        use crate::aslabel::AsTier;
        let net = generate(&InternetConfig::tiny(19));
        // Every interface address in the topology maps to some AS, and
        // the tiers come out right: source for S-side, tier-1 for cores,
        // stub for destinations.
        for node in &net.topology.nodes {
            for iface in &node.ifaces {
                let asn = net.as_map.lookup(iface.addr);
                assert!(asn.is_some(), "unmapped interface {} on {}", iface.addr, node.name);
            }
        }
        let s_addr = net.topology.node(net.source).primary_addr();
        let s_asn = net.as_map.lookup(s_addr).unwrap();
        assert_eq!(net.as_map.tier(s_asn), Some(AsTier::Source));
        for d in &net.dests {
            let asn = net.as_map.lookup(d.addr).unwrap();
            assert_eq!(net.as_map.tier(asn), Some(AsTier::Stub), "dest {}", d.addr);
        }
        // One tier-1 per core router.
        assert_eq!(net.as_map.tier1s().len(), net.config.n_core);
        // Distinct stubs have distinct AS numbers.
        let stub_asns: std::collections::BTreeSet<_> =
            net.dests.iter().map(|d| net.as_map.lookup(d.addr).unwrap()).collect();
        assert_eq!(stub_asns.len(), net.dests.len());
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
