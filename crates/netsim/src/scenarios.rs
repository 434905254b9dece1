//! The paper's figure topologies, reconstructed node for node.
//!
//! Every scenario places the interesting routers at the same hop numbers
//! as the paper (the load balancer `L` and NAT `N` at hop 6) by prefixing
//! five healthy routers, and returns handles for asserting which
//! interface answered at which hop.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

use pt_wire::UnreachableCode;

use crate::addr::Ipv4Prefix;
use crate::builder::TopologyBuilder;
use crate::node::{BalancerKind, HostConfig, RouterConfig};
use crate::time::SimDuration;
use crate::topology::{NodeId, Topology};

/// A built scenario: topology plus the handles tests need.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The network.
    pub topology: Arc<Topology>,
    /// The traceroute source host.
    pub source: NodeId,
    /// The traceroute destination address.
    pub destination: Ipv4Addr,
    /// Address of each named router's *S-facing* interface — the address
    /// traceroute discovers for it.
    pub addr: BTreeMap<&'static str, Ipv4Addr>,
}

impl Scenario {
    /// The discovered-address handle for router `name`.
    ///
    /// # Panics
    /// Panics if the scenario has no router by that name.
    pub fn a(&self, name: &str) -> Ipv4Addr {
        *self.addr.get(name).unwrap_or_else(|| panic!("no router named {name}"))
    }
}

const LINK: SimDuration = SimDuration::from_millis(1);

/// Shared scaffolding: S plus a chain of healthy routers `r1..r{n}`,
/// fully routed in both directions. Returns the builder, source, the last
/// chain router, and S's prefix for reverse routes.
struct Spine {
    b: TopologyBuilder,
    source: NodeId,
    last: NodeId,
    s_prefix: Ipv4Prefix,
}

fn spine(hops_before: usize) -> Spine {
    let mut b = TopologyBuilder::new();
    let source = b.host("S", HostConfig::default());
    let mut chain = Vec::new();
    let mut prev = source;
    for i in 1..=hops_before {
        let r = b.router(&format!("r{i}"), RouterConfig::default());
        b.link(prev, r, LINK, 0.0);
        chain.push(r);
        prev = r;
    }
    let s_prefix = b.subnet_of(source);
    // Forward default routes S → r1 → ... ; reverse routes for S's prefix.
    b.default_via(source, chain[0]);
    for w in chain.windows(2) {
        b.default_via(w[0], w[1]);
        b.route_via(w[1], s_prefix, w[0]);
    }
    b.route_via(chain[0], s_prefix, source);
    Spine { b, source, last: prev, s_prefix }
}

fn finish(
    b: TopologyBuilder,
    source: NodeId,
    destination: Ipv4Addr,
    named: &[(&'static str, NodeId)],
) -> Scenario {
    // The S-facing interface of every router in these scenarios is its
    // first interface (links are created parent-first).
    let addr: BTreeMap<&'static str, Ipv4Addr> =
        named.iter().map(|(name, id)| (*name, b.iface_addr(*id, 0))).collect();
    Scenario { topology: Arc::new(b.build()), source, destination, addr }
}

/// **Fig. 1** — missing nodes and false links.
///
/// ```text
///            ┌─ A ── C ─┐            (B and C silent)
/// S ─r1..r5─ L          E ── D
///            └─ B ── D* ┘     (D* is the responding router "D")
/// hop:        6    7    8    9
/// ```
/// `L` balances over the two parallel paths with `kind`. Classic
/// traceroute infers the false link `A0 → D0` and misses `B0`/`C0`.
pub fn fig1(kind: BalancerKind) -> Scenario {
    let mut s = spine(5);
    let l = s.b.router("L", RouterConfig::default().with_fixed_responder());
    let a = s.b.router("A", RouterConfig::default().with_fixed_responder());
    let bb = s.b.router("B", RouterConfig::silent());
    let c = s.b.router("C", RouterConfig::silent());
    let dd = s.b.router("D", RouterConfig::default().with_fixed_responder());
    let e = s.b.router("E", RouterConfig::default().with_fixed_responder());
    let dest = s.b.host("dest", HostConfig::default());
    s.b.link(s.last, l, LINK, 0.0);
    s.b.link(l, a, LINK, 0.0);
    s.b.link(l, bb, LINK, 0.0);
    s.b.link(a, c, LINK, 0.0);
    s.b.link(bb, dd, LINK, 0.0);
    s.b.link(c, e, LINK, 0.0);
    s.b.link(dd, e, LINK, 0.0);
    s.b.link(e, dest, LINK, 0.0);
    s.b.default_via(s.last, l);
    s.b.balanced_route(l, Ipv4Prefix::DEFAULT, kind, &[a, bb]);
    s.b.default_via(a, c);
    s.b.default_via(bb, dd);
    s.b.default_via(c, e);
    s.b.default_via(dd, e);
    s.b.default_via(e, dest);
    s.b.default_via(dest, e);
    // Reverse routes for S.
    s.b.route_via(l, s.s_prefix, s.last);
    s.b.route_via(a, s.s_prefix, l);
    s.b.route_via(bb, s.s_prefix, l);
    s.b.route_via(c, s.s_prefix, a);
    s.b.route_via(dd, s.s_prefix, bb);
    s.b.route_via(e, s.s_prefix, c);
    let destination = s.b.addr_of(dest);
    finish(
        s.b,
        s.source,
        destination,
        &[("L", l), ("A", a), ("B", bb), ("C", c), ("D", dd), ("E", e)],
    )
}

/// **Fig. 3** — a loop caused by load balancing over unequal-length paths.
///
/// ```text
///            ┌─ A ────────┐
/// S ─r1..r5─ L            E ── D
///            └─ B ── C ───┘
/// hop:        6   7   8   8/9
/// ```
/// Probes hashed to the short path see `E` at hop 8; probes hashed to the
/// long path see `E` at hop 9 — classic traceroute can report `E, E`.
pub fn fig3(kind: BalancerKind) -> Scenario {
    let mut s = spine(5);
    let l = s.b.router("L", RouterConfig::default().with_fixed_responder());
    let a = s.b.router("A", RouterConfig::default().with_fixed_responder());
    let bb = s.b.router("B", RouterConfig::default().with_fixed_responder());
    let c = s.b.router("C", RouterConfig::default().with_fixed_responder());
    let e = s.b.router("E", RouterConfig::default().with_fixed_responder());
    let dest = s.b.host("dest", HostConfig::default());
    s.b.link(s.last, l, LINK, 0.0);
    s.b.link(l, a, LINK, 0.0);
    s.b.link(l, bb, LINK, 0.0);
    s.b.link(a, e, LINK, 0.0);
    s.b.link(bb, c, LINK, 0.0);
    s.b.link(c, e, LINK, 0.0);
    s.b.link(e, dest, LINK, 0.0);
    s.b.default_via(s.last, l);
    s.b.balanced_route(l, Ipv4Prefix::DEFAULT, kind, &[a, bb]);
    s.b.default_via(a, e);
    s.b.default_via(bb, c);
    s.b.default_via(c, e);
    s.b.default_via(e, dest);
    s.b.default_via(dest, e);
    s.b.route_via(l, s.s_prefix, s.last);
    s.b.route_via(a, s.s_prefix, l);
    s.b.route_via(bb, s.s_prefix, l);
    s.b.route_via(c, s.s_prefix, bb);
    s.b.route_via(e, s.s_prefix, a);
    let destination = s.b.addr_of(dest);
    finish(s.b, s.source, destination, &[("L", l), ("A", a), ("B", bb), ("C", c), ("E", e)])
}

/// **Fig. 4** — a loop caused by zero-TTL forwarding.
///
/// ```text
/// S ─r1..r5─ L ── F ── A ── B ── D      (F forwards TTL-0 packets)
/// hop:        6    7    8    9
/// ```
/// The probe that should expire at `F` is forwarded and expires at `A`
/// with probe TTL 0; the next probe expires at `A` normally. Traceroute
/// reports `A, A` and never discovers `F`.
pub fn fig4() -> Scenario {
    let mut s = spine(5);
    let l = s.b.router("L", RouterConfig::default());
    let f = s.b.router("F", RouterConfig::zero_ttl_forwarder());
    let a = s.b.router("A", RouterConfig::default());
    let bb = s.b.router("B", RouterConfig::default());
    let dest = s.b.host("dest", HostConfig::default());
    s.b.link(s.last, l, LINK, 0.0);
    s.b.link(l, f, LINK, 0.0);
    s.b.link(f, a, LINK, 0.0);
    s.b.link(a, bb, LINK, 0.0);
    s.b.link(bb, dest, LINK, 0.0);
    s.b.default_via(s.last, l);
    s.b.default_via(l, f);
    s.b.default_via(f, a);
    s.b.default_via(a, bb);
    s.b.default_via(bb, dest);
    s.b.default_via(dest, bb);
    s.b.route_via(l, s.s_prefix, s.last);
    s.b.route_via(f, s.s_prefix, l);
    s.b.route_via(a, s.s_prefix, f);
    s.b.route_via(bb, s.s_prefix, a);
    let destination = s.b.addr_of(dest);
    finish(s.b, s.source, destination, &[("L", l), ("F", f), ("A", a), ("B", bb)])
}

/// **Fig. 5** — a loop caused by NAT address rewriting.
///
/// ```text
/// S ─r1..r5─ N ── A ── B ── C ── D     (A, B, C, D inside the NAT)
/// hop:        6    7    8    9
/// ```
/// Responses from `A`, `B`, `C` are rewritten to `N0`; only the response
/// TTL (250, 249, 248, 247 at the paper's hop numbering) and the IP-ID
/// streams betray distinct routers.
pub fn fig5() -> Scenario {
    let mut s = spine(5);
    let n = s.b.router("N", RouterConfig::default());
    let a = s.b.router("A", RouterConfig::default());
    let bb = s.b.router("B", RouterConfig::default());
    let c = s.b.router("C", RouterConfig::default());
    let dest = s.b.host("dest", HostConfig::default());
    s.b.link(s.last, n, LINK, 0.0);
    s.b.link(n, a, LINK, 0.0);
    s.b.link(a, bb, LINK, 0.0);
    s.b.link(bb, c, LINK, 0.0);
    s.b.link(c, dest, LINK, 0.0);
    // N's public face is its S-side interface; everything in the stub
    // (A, B, C, dest) is inside.
    let public = s.b.iface_addr(n, 0);
    let inside = vec![
        s.b.subnet_of(a),
        s.b.subnet_of(bb),
        s.b.subnet_of(c),
        s.b.subnet_of(dest),
        s.b.subnet_of(n), // N's inner interface also hides
    ];
    let mut nat_cfg = RouterConfig::nat_gateway(public, inside);
    // Keep N answering from its public face.
    nat_cfg.icmp_initial_ttl = 255;
    s.b.set_router_config(n, nat_cfg);
    s.b.default_via(s.last, n);
    s.b.default_via(n, a);
    s.b.default_via(a, bb);
    s.b.default_via(bb, c);
    s.b.default_via(c, dest);
    s.b.default_via(dest, c);
    s.b.route_via(n, s.s_prefix, s.last);
    s.b.route_via(a, s.s_prefix, n);
    s.b.route_via(bb, s.s_prefix, a);
    s.b.route_via(c, s.s_prefix, bb);
    let destination = s.b.addr_of(dest);
    finish(s.b, s.source, destination, &[("N", n), ("A", a), ("B", bb), ("C", c)])
}

/// **Fig. 6** — several diamonds from a three-way load balancer.
///
/// ```text
///            ┌─ A ─┐─ D ─┐
/// S ─r1..r5─ L─ B ─┤     G ── dest
///            └─ C ─┘─ E ─┘      (C reaches D only)
/// hop:        6   7    8    9
/// ```
/// Edges: `A→{D,E}`, `B→{D,E}`, `C→D`, `D→G`, `E→G`. Over many routes the
/// per-destination graphs contain the diamond signatures
/// `(L0,D0), (L0,E0), (A0,G0), (B0,G0)` — but not `(C0,G0)`.
pub fn fig6(kind: BalancerKind) -> Scenario {
    let mut s = spine(5);
    let l = s.b.router("L", RouterConfig::default().with_fixed_responder());
    let a = s.b.router("A", RouterConfig::default().with_fixed_responder());
    let bb = s.b.router("B", RouterConfig::default().with_fixed_responder());
    let c = s.b.router("C", RouterConfig::default().with_fixed_responder());
    let dd = s.b.router("D", RouterConfig::default().with_fixed_responder());
    let e = s.b.router("E", RouterConfig::default().with_fixed_responder());
    let g = s.b.router("G", RouterConfig::default().with_fixed_responder());
    let dest = s.b.host("dest", HostConfig::default());
    s.b.link(s.last, l, LINK, 0.0);
    s.b.link(l, a, LINK, 0.0);
    s.b.link(l, bb, LINK, 0.0);
    s.b.link(l, c, LINK, 0.0);
    s.b.link(a, dd, LINK, 0.0);
    s.b.link(a, e, LINK, 0.0);
    s.b.link(bb, dd, LINK, 0.0);
    s.b.link(bb, e, LINK, 0.0);
    s.b.link(c, dd, LINK, 0.0);
    s.b.link(dd, g, LINK, 0.0);
    s.b.link(e, g, LINK, 0.0);
    s.b.link(g, dest, LINK, 0.0);
    s.b.default_via(s.last, l);
    s.b.balanced_route(l, Ipv4Prefix::DEFAULT, kind, &[a, bb, c]);
    s.b.balanced_route(a, Ipv4Prefix::DEFAULT, kind, &[dd, e]);
    s.b.balanced_route(bb, Ipv4Prefix::DEFAULT, kind, &[dd, e]);
    s.b.default_via(c, dd);
    s.b.default_via(dd, g);
    s.b.default_via(e, g);
    s.b.default_via(g, dest);
    s.b.default_via(dest, g);
    s.b.route_via(l, s.s_prefix, s.last);
    s.b.route_via(a, s.s_prefix, l);
    s.b.route_via(bb, s.s_prefix, l);
    s.b.route_via(c, s.s_prefix, l);
    s.b.route_via(dd, s.s_prefix, a);
    s.b.route_via(e, s.s_prefix, a);
    s.b.route_via(g, s.s_prefix, dd);
    let destination = s.b.addr_of(dest);
    finish(
        s.b,
        s.source,
        destination,
        &[("L", l), ("A", a), ("B", bb), ("C", c), ("D", dd), ("E", e), ("G", g)],
    )
}

/// **§4.1 "Unreachability message"** — a loop at the end of a route: the
/// hop-6 router `U` expires the first probe normally but cannot forward
/// the next one and answers `!H`.
pub fn unreachability_loop() -> Scenario {
    let mut s = spine(5);
    let u = s.b.router("U", RouterConfig::broken_forwarding(UnreachableCode::Host));
    let dest = s.b.host("dest", HostConfig::default());
    s.b.link(s.last, u, LINK, 0.0);
    s.b.link(u, dest, LINK, 0.0);
    s.b.default_via(s.last, u);
    s.b.default_via(u, dest);
    s.b.default_via(dest, u);
    s.b.route_via(u, s.s_prefix, s.last);
    let destination = s.b.addr_of(dest);
    finish(s.b, s.source, destination, &[("U", u)])
}

/// A plain healthy chain of `n_routers` routers ending at a host —
/// the control case where classic and Paris agree perfectly.
pub fn linear(n_routers: usize) -> Scenario {
    let mut s = spine(n_routers);
    let dest = s.b.host("dest", HostConfig::default());
    s.b.link(s.last, dest, LINK, 0.0);
    s.b.default_via(s.last, dest);
    s.b.default_via(dest, s.last);
    let destination = s.b.addr_of(dest);
    let named: Vec<(&'static str, NodeId)> = Vec::new();
    let mut sc = finish(s.b, s.source, destination, &named);
    // Record chain router addresses under synthetic handles is not
    // possible with &'static str names; callers use the topology instead.
    sc.addr = BTreeMap::new();
    sc
}

/// A chain with a transient forwarding loop: between `loop_start` and
/// `loop_end` (virtual time), routers `x` (hop 6) and `y` (hop 7) point
/// at each other for the destination prefix — the §4.2 "packets caught in
/// a forwarding loop during routing convergence" cause for cycles.
///
/// The caller gets the scenario plus the two node ids to schedule the
/// route flips with [`crate::sim::Simulator::schedule_route_set`].
pub fn forwarding_loop_chain() -> (Scenario, NodeId, NodeId) {
    let mut s = spine(5);
    let x = s.b.router("X", RouterConfig::default().with_fixed_responder());
    let y = s.b.router("Y", RouterConfig::default().with_fixed_responder());
    let z = s.b.router("Z", RouterConfig::default().with_fixed_responder());
    let dest = s.b.host("dest", HostConfig::default());
    s.b.link(s.last, x, LINK, 0.0);
    s.b.link(x, y, LINK, 0.0);
    s.b.link(y, z, LINK, 0.0);
    s.b.link(z, dest, LINK, 0.0);
    s.b.default_via(s.last, x);
    s.b.default_via(x, y);
    s.b.default_via(y, z);
    s.b.default_via(z, dest);
    s.b.default_via(dest, z);
    s.b.route_via(x, s.s_prefix, s.last);
    s.b.route_via(y, s.s_prefix, x);
    s.b.route_via(z, s.s_prefix, y);
    let destination = s.b.addr_of(dest);
    let sc = finish(s.b, s.source, destination, &[("X", x), ("Y", y), ("Z", z)]);
    (sc, x, y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use crate::time::SimTime;
    use pt_wire::ipv4::{protocol, Ipv4Header};
    use pt_wire::FlowPolicy;
    use pt_wire::{IcmpMessage, Packet, Transport, UdpDatagram};

    fn probe(sc: &Scenario, ttl: u8, dst_port: u16) -> Packet {
        let src = sc.topology.node(sc.source).primary_addr();
        let ip = Ipv4Header::new(src, sc.destination, protocol::UDP, ttl);
        Packet::new(ip, Transport::Udp(UdpDatagram::new(40123, dst_port, vec![0; 8])))
    }

    /// Everything delivered to `node` so far, oldest first.
    fn drain(sim: &mut Simulator, node: NodeId) -> Vec<(SimTime, Packet)> {
        std::iter::from_fn(|| sim.pop_delivery(node)).collect()
    }

    fn responder(sc: &Scenario, sim: &mut Simulator, ttl: u8, dst_port: u16) -> Option<Ipv4Addr> {
        sim.inject(sc.source, probe(sc, ttl, dst_port));
        sim.run_to_quiescence();
        drain(sim, sc.source).pop().map(|(_, p)| p.ip.src)
    }

    #[test]
    fn fig1_constant_flow_sees_one_consistent_path() {
        let sc = fig1(BalancerKind::PerFlow(FlowPolicy::FiveTuple));
        let mut sim = Simulator::new(sc.topology.clone(), 21);
        // Constant flow identifier: whatever path the flow hashes to, the
        // sequence of hops 6..9 is one of the two true paths.
        let hops: Vec<Option<Ipv4Addr>> =
            (6..=9).map(|ttl| responder(&sc, &mut sim, ttl, 33435)).collect();
        assert_eq!(hops[0], Some(sc.a("L")));
        let top = [Some(sc.a("A")), None, Some(sc.a("E"))];
        let bottom = [None, Some(sc.a("D")), Some(sc.a("E"))];
        let tail = [hops[1], hops[2], hops[3]];
        assert!(tail == top || tail == bottom, "flow must stay on one physical path, got {tail:?}");
    }

    #[test]
    fn fig1_varying_flow_can_infer_the_false_link() {
        let sc = fig1(BalancerKind::PerFlow(FlowPolicy::FiveTuple));
        let mut sim = Simulator::new(sc.topology.clone(), 21);
        // Classic traceroute behaviour: a different destination port per
        // probe. Collect what each hop shows across many port choices.
        let mut hop7 = std::collections::BTreeSet::new();
        let mut hop8 = std::collections::BTreeSet::new();
        for i in 0..24 {
            if let Some(a) = responder(&sc, &mut sim, 7, 33435 + i) {
                hop7.insert(a);
            }
            if let Some(a) = responder(&sc, &mut sim, 8, 34435 + i) {
                hop8.insert(a);
            }
        }
        // A answers at hop 7 (B is silent); D answers at hop 8 (C is
        // silent): adjacency suggests the false link A0→D0.
        assert_eq!(hop7, std::collections::BTreeSet::from([sc.a("A")]));
        assert_eq!(hop8, std::collections::BTreeSet::from([sc.a("D")]));
    }

    #[test]
    fn fig3_unequal_lengths_show_e_twice_for_straddling_flows() {
        let sc = fig3(BalancerKind::PerFlow(FlowPolicy::FiveTuple));
        let mut sim = Simulator::new(sc.topology.clone(), 5);
        // Find a port whose flow goes short (E at hop 8) and one that
        // goes long (E at hop 9): a classic trace that changes flow
        // between TTL 8 and 9 sees E twice in a row.
        let mut short_port = None;
        let mut long_port = None;
        for i in 0..64 {
            let port = 33435 + i;
            let at8 = responder(&sc, &mut sim, 8, port);
            if at8 == Some(sc.a("E")) && short_port.is_none() {
                short_port = Some(port);
            }
            if at8 == Some(sc.a("C")) && long_port.is_none() {
                long_port = Some(port);
            }
        }
        let (sp, lp) =
            (short_port.expect("some flow goes short"), long_port.expect("some flow goes long"));
        // The straddling trace: TTL 8 with the short flow shows E; TTL 9
        // with the long flow shows E again → loop (E, E).
        assert_eq!(responder(&sc, &mut sim, 8, sp), Some(sc.a("E")));
        assert_eq!(responder(&sc, &mut sim, 9, lp), Some(sc.a("E")));
    }

    #[test]
    fn fig4_zero_ttl_forwarding_duplicates_a() {
        let sc = fig4();
        let mut sim = Simulator::new(sc.topology.clone(), 3);
        assert_eq!(responder(&sc, &mut sim, 7, 33435), Some(sc.a("A")), "F's hop shows A");
        assert_eq!(responder(&sc, &mut sim, 8, 33436), Some(sc.a("A")), "A's own hop");
        assert_eq!(responder(&sc, &mut sim, 9, 33437), Some(sc.a("B")));
    }

    #[test]
    fn fig5_nat_rewrites_three_hops_to_n0_with_decreasing_response_ttl() {
        let sc = fig5();
        let mut sim = Simulator::new(sc.topology.clone(), 8);
        let mut addrs = Vec::new();
        let mut resp_ttls = Vec::new();
        for ttl in 6..=9 {
            sim.inject(sc.source, probe(&sc, ttl, 33435));
            sim.run_to_quiescence();
            let (_, p) = drain(&mut sim, sc.source).pop().unwrap();
            addrs.push(p.ip.src);
            resp_ttls.push(p.ip.ttl);
        }
        assert!(addrs.iter().all(|a| *a == sc.a("N")), "all four hops show N0: {addrs:?}");
        assert_eq!(resp_ttls, vec![250, 249, 248, 247], "paper's exact response TTLs");
    }

    #[test]
    fn fig6_probes_reach_dest_and_diamond_interfaces_exist() {
        let sc = fig6(BalancerKind::PerFlow(FlowPolicy::FiveTuple));
        let mut sim = Simulator::new(sc.topology.clone(), 13);
        let mut hop7 = std::collections::BTreeSet::new();
        let mut hop8 = std::collections::BTreeSet::new();
        for i in 0..96 {
            if let Some(a) = responder(&sc, &mut sim, 7, 33435 + i) {
                hop7.insert(a);
            }
            if let Some(a) = responder(&sc, &mut sim, 8, 34435 + i) {
                hop8.insert(a);
            }
        }
        assert_eq!(
            hop7,
            std::collections::BTreeSet::from([sc.a("A"), sc.a("B"), sc.a("C")]),
            "all three hop-7 interfaces discoverable"
        );
        assert_eq!(
            hop8,
            std::collections::BTreeSet::from([sc.a("D"), sc.a("E")]),
            "both hop-8 interfaces discoverable"
        );
    }

    #[test]
    fn unreachability_loop_shows_same_address_then_host_unreachable() {
        let sc = unreachability_loop();
        let mut sim = Simulator::new(sc.topology.clone(), 2);
        sim.inject(sc.source, probe(&sc, 6, 33435));
        sim.run_to_quiescence();
        let (_, first) = drain(&mut sim, sc.source).pop().unwrap();
        sim.inject(sc.source, probe(&sc, 7, 33436));
        sim.run_to_quiescence();
        let (_, second) = drain(&mut sim, sc.source).pop().unwrap();
        assert_eq!(first.ip.src, sc.a("U"));
        assert_eq!(second.ip.src, sc.a("U"), "the loop");
        assert!(matches!(first.transport, Transport::Icmp(IcmpMessage::TimeExceeded { .. })));
        assert!(matches!(
            second.transport,
            Transport::Icmp(IcmpMessage::DestUnreachable {
                code: pt_wire::UnreachableCode::Host,
                ..
            })
        ));
    }

    #[test]
    fn forwarding_loop_cycles_packets_until_ttl_death() {
        let (sc, x, y) = forwarding_loop_chain();
        let mut sim = Simulator::new(sc.topology.clone(), 6);
        // Make X and Y point at each other for the destination.
        let dst_pfx = Ipv4Prefix::host(sc.destination);
        let x_to_y = sc.topology.iface_toward(x, y).unwrap();
        let y_to_x = sc.topology.iface_toward(y, x).unwrap();
        sim.schedule_route_set(
            crate::time::SimTime::ZERO,
            x,
            dst_pfx,
            Some(crate::routing::NextHop::Iface(x_to_y)),
        );
        sim.schedule_route_set(
            crate::time::SimTime::ZERO,
            y,
            dst_pfx,
            Some(crate::routing::NextHop::Iface(y_to_x)),
        );
        // A high-TTL probe bounces X↔Y: hops 6,7,8,9... alternate X,Y,X,Y.
        let h6 = {
            sim.inject(sc.source, probe(&sc, 6, 33435));
            sim.run_to_quiescence();
            drain(&mut sim, sc.source).pop().unwrap().1.ip.src
        };
        let h8 = {
            sim.inject(sc.source, probe(&sc, 8, 33436));
            sim.run_to_quiescence();
            drain(&mut sim, sc.source).pop().unwrap().1.ip.src
        };
        let h7 = {
            sim.inject(sc.source, probe(&sc, 7, 33437));
            sim.run_to_quiescence();
            drain(&mut sim, sc.source).pop().unwrap().1.ip.src
        };
        assert_eq!(h6, sc.a("X"));
        assert_eq!(h7, sc.a("Y"));
        assert_eq!(h8, sc.a("X"), "the cycle: X reappears at hop 8");
    }

    #[test]
    fn linear_chain_is_anomaly_free() {
        let sc = linear(7);
        let mut sim = Simulator::new(sc.topology.clone(), 1);
        let mut seen = Vec::new();
        for ttl in 1..=8 {
            let a = responder(&sc, &mut sim, ttl, 33435 + u16::from(ttl));
            seen.push(a.expect("every hop answers"));
        }
        let unique: std::collections::BTreeSet<_> = seen.iter().collect();
        assert_eq!(unique.len(), seen.len(), "no repeats on a healthy chain");
        assert_eq!(seen[7], sc.destination, "hop 8 is the destination");
    }
}
