//! # pt-mda — windowed multipath discovery
//!
//! The paper's §6 future work: "algorithms to automatically find all
//! interfaces of a given load balancer, and to differentiate per-flow
//! from per-packet load balancers" — realized a year later as the
//! Multipath Detection Algorithm (MDA). This crate implements it as a
//! campaign-grade engine over the same [`pt_core::Transport`] the
//! tracer uses:
//!
//! * [`discover`] / [`discover_with`] walk the TTL ladder varying the
//!   *flow identifier* (UDP source port) per probe until the exact
//!   published stopping rule ([`probes_to_rule_out`]) says every
//!   interface at a hop has been seen with high probability — keeping
//!   up to [`MdaConfig::window`] probes outstanding, reusing flow ids
//!   across TTLs to recover the directed interface-level **DAG**
//!   ([`MultipathMap::links`]), resolving unequal-length diamonds via
//!   the merge interface's TTL spread
//!   ([`MultipathMap::discovered_delta`]), and classifying every
//!   balanced hop per-flow vs per-packet inline with a fixed-flow
//!   re-probe batch;
//! * non-responses are first-class: a silent interface inside a
//!   balanced hop surfaces as per-hop stars and non-convergence
//!   ([`HopInterfaces::stars`]) instead of silently shrinking the
//!   hop's width.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

mod engine;
mod map;
mod rule;

pub use engine::{discover, discover_with, MdaConfig, MdaProtocol, MdaScratch};
pub use map::{BalancerClass, DagLink, HopInterfaces, MultipathMap};
pub use rule::{probes_to_rule_out, probes_to_rule_out_lossy};

#[cfg(test)]
mod tests {
    use super::*;
    use pt_netsim::node::BalancerKind;
    use pt_netsim::time::SimDuration;
    use pt_netsim::{scenarios, SimTransport, Simulator};
    use pt_wire::FlowPolicy;

    fn transport(sc: &scenarios::Scenario, seed: u64) -> SimTransport {
        SimTransport::new(Simulator::new(sc.topology.clone(), seed), sc.source)
    }

    /// `S - r - D` with a `first_link_ms` one-way delay on `S - r`:
    /// the topology, the source node and the destination address.
    fn chain(
        first_link_ms: u64,
        dest: pt_netsim::HostConfig,
    ) -> (std::sync::Arc<pt_netsim::Topology>, pt_netsim::NodeId, std::net::Ipv4Addr) {
        let mut b = pt_netsim::TopologyBuilder::new();
        let s = b.host("S", pt_netsim::HostConfig::default());
        let r = b.router("r", pt_netsim::node::RouterConfig::default());
        let d = b.host("D", dest);
        b.link(s, r, SimDuration::from_millis(first_link_ms), 0.0);
        b.link(r, d, SimDuration::from_millis(1), 0.0);
        b.default_via(s, r);
        b.default_via(r, d);
        b.default_via(d, r);
        let s_pfx = b.subnet_of(s);
        b.route_via(r, s_pfx, s);
        let dst = b.addr_of(d);
        (std::sync::Arc::new(b.build()), s, dst)
    }

    #[test]
    fn enumerates_fig6_widths_and_links() {
        let sc = scenarios::fig6(BalancerKind::PerFlow(FlowPolicy::FiveTuple));
        let mut tx = transport(&sc, 5);
        let map = discover(&mut tx, sc.destination, &MdaConfig::default());
        // Hop 7: A, B, C; hop 8: D, E (the diamond's two layers).
        assert_eq!(map.hops[6].interfaces, vec![sc.a("A"), sc.a("B"), sc.a("C")]);
        assert_eq!(map.hops[7].interfaces, vec![sc.a("D"), sc.a("E")]);
        assert_eq!(map.max_width(), 3);
        assert_eq!(map.balanced_hops().count(), 2);
        assert!(map.hops.iter().all(|h| h.converged), "stopping rule satisfied everywhere");
        assert!(map.hops.iter().all(|h| h.stars == 0), "healthy scenario has no loss");
        assert!(map.reached);
        // The DAG, not just hop sets: C feeds only D; G is fed by both.
        let c_succ: Vec<_> = map.successors(7, sc.a("C")).collect();
        assert_eq!(c_succ, vec![sc.a("D")], "C reaches D only");
        let g_pred: Vec<_> =
            map.links.iter().filter(|l| l.to == sc.a("G")).map(|l| l.from).collect();
        assert!(g_pred.contains(&sc.a("D")) && g_pred.contains(&sc.a("E")), "{g_pred:?}");
        // Equal-length branches: no convergence spread.
        assert_eq!(map.discovered_delta(), 0);
        // Both balanced hops classified per-flow inline.
        for hop in map.balanced_hops() {
            assert_eq!(hop.class, BalancerClass::PerFlow, "ttl {}", hop.ttl);
        }
        assert_eq!(map.classification(), BalancerClass::PerFlow);
    }

    #[test]
    fn fig6_per_packet_is_classified_inline() {
        let sc = scenarios::fig6(BalancerKind::PerPacket);
        let mut tx = transport(&sc, 5);
        let map = discover(&mut tx, sc.destination, &MdaConfig::default());
        assert_eq!(map.classification(), BalancerClass::PerPacket);
        assert!(map.max_observed_width() >= 2);
    }

    #[test]
    fn fig1_silent_balancer_member_blocks_convergence() {
        // Fig. 1's hop 7 balances over A (responding) and B (silent):
        // only A is discoverable, and the old behavior — confidently
        // reporting width 1 after the rule fired on A alone — is the
        // "drops non-responses on the floor" bug. Stars must be
        // recorded and the hop must *not* converge.
        let sc = scenarios::fig1(BalancerKind::PerFlow(FlowPolicy::FiveTuple));
        let mut tx = transport(&sc, 31);
        let map = discover(&mut tx, sc.destination, &MdaConfig::default());
        let hop7 = &map.hops[6];
        assert_eq!(hop7.interfaces, vec![sc.a("A")]);
        assert!(hop7.stars > 0, "flows hashed to silent B must be visible as stars");
        assert!(!hop7.converged, "a hop with stars never converges");
        // Same at hop 8: D responds, C (feeding E) is silent upstream →
        // flows on the A-side path star at hop 8.
        let hop8 = &map.hops[7];
        assert_eq!(hop8.interfaces, vec![sc.a("D")]);
        assert!(!hop8.converged);
        // max_width only trusts converged hops.
        let widest_converged = map.max_width();
        assert!(
            map.hops.iter().filter(|h| !h.converged).all(|h| h.width() <= 1),
            "unconverged widths are lower bounds"
        );
        assert_eq!(widest_converged, 1, "nothing wider than 1 was *confidently* enumerated");
    }

    #[test]
    fn fig3_unequal_diamond_recovers_delta_one() {
        // Fig. 3: L balances over A (short) and B→C (long); E merges.
        // Flows hashed short see E at hop 8, long at hop 9 — the
        // convergence spread recovers delta = 1.
        let sc = scenarios::fig3(BalancerKind::PerFlow(FlowPolicy::FiveTuple));
        let mut tx = transport(&sc, 9);
        let map = discover(&mut tx, sc.destination, &MdaConfig::default());
        assert_eq!(map.hops[6].interfaces, vec![sc.a("A"), sc.a("B")]);
        assert_eq!(map.discovered_delta(), 1, "unequal branch lengths");
        assert_eq!(map.classification(), BalancerClass::PerFlow);
        assert!(map.reached);
    }

    #[test]
    fn linear_chain_is_unbalanced_and_cheap() {
        let sc = scenarios::linear(5);
        let mut tx = transport(&sc, 2);
        let config = MdaConfig::default();
        let map = discover(&mut tx, sc.destination, &config);
        assert_eq!(map.max_width(), 1);
        assert_eq!(map.balanced_hops().count(), 0);
        assert_eq!(map.classification(), BalancerClass::NotBalanced);
        assert_eq!(map.discovered_delta(), 0);
        // Every hop: 1 interface, ruled out a second with the k = 1
        // stopping point.
        let per_hop = probes_to_rule_out(1, config.alpha);
        for h in &map.hops {
            assert!(h.probes_sent <= per_hop, "hop {} used {}", h.ttl, h.probes_sent);
            assert!(h.converged);
        }
        // The chain DAG is a path: one link out of every non-last hop.
        for pair in map.hops.windows(2) {
            assert_eq!(map.successors(pair[0].ttl, pair[0].interfaces[0]).count(), 1);
        }
    }

    #[test]
    fn windowed_walk_discovers_the_sequential_dag() {
        // On deterministic scenarios the probing window is a pure
        // virtual-time knob: the discovered DAG must be byte-identical
        // at every width.
        let scenarios: Vec<(&str, scenarios::Scenario)> = vec![
            ("fig6", scenarios::fig6(BalancerKind::PerFlow(FlowPolicy::FiveTuple))),
            ("fig3", scenarios::fig3(BalancerKind::PerFlow(FlowPolicy::FiveTuple))),
            ("fig1", scenarios::fig1(BalancerKind::PerFlow(FlowPolicy::FiveTuple))),
            ("linear", scenarios::linear(6)),
        ];
        for (name, sc) in &scenarios {
            let walk = |window: u8| {
                let mut tx = transport(sc, 77);
                let config = MdaConfig { window, ..MdaConfig::default() };
                discover(&mut tx, sc.destination, &config).dag_digest()
            };
            let sequential = walk(1);
            for window in [2, 4, 8, 32] {
                assert_eq!(
                    walk(window),
                    sequential,
                    "{name}: window {window} changed the discovered DAG"
                );
            }
        }
    }

    #[test]
    fn windowed_walk_cuts_virtual_time() {
        let sc = scenarios::fig6(BalancerKind::PerFlow(FlowPolicy::FiveTuple));
        let time = |window: u8| {
            let mut tx = transport(&sc, 3);
            let config = MdaConfig { window, ..MdaConfig::default() };
            let map = discover(&mut tx, sc.destination, &config);
            assert!(map.reached);
            tx.now().as_secs_f64()
        };
        let sequential = time(1);
        let windowed = time(MdaConfig::default().window);
        assert!(
            windowed * 1.5 <= sequential,
            "window must cut virtual probing time >= 1.5x: {sequential:.3}s -> {windowed:.3}s"
        );
    }

    #[test]
    fn scratch_reuse_discovers_the_same_map() {
        let sc = scenarios::fig6(BalancerKind::PerFlow(FlowPolicy::FiveTuple));
        let config = MdaConfig::default();
        let mut scratch = MdaScratch::new();
        let mut digests = Vec::new();
        for _ in 0..3 {
            let mut tx = transport(&sc, 5);
            let map = discover_with(&mut tx, sc.destination, &config, &mut scratch);
            digests.push(map.dag_digest());
            scratch.recycle(map);
        }
        assert_eq!(digests[0], digests[1]);
        assert_eq!(digests[1], digests[2]);
    }

    #[test]
    fn probe_budget_degrades_a_walk_deterministically() {
        let sc = scenarios::fig6(BalancerKind::PerFlow(FlowPolicy::FiveTuple));
        let walk = |budget: usize| {
            let mut tx = transport(&sc, 5);
            let config = MdaConfig { probe_budget: budget, ..MdaConfig::default() };
            discover(&mut tx, sc.destination, &config)
        };
        let full = walk(0);
        assert!(!full.degraded, "an unbudgeted walk is never degraded");

        // A budget below the walk's appetite cuts enumeration short:
        // the map is flagged, its probe spend respects the ceiling, and
        // a rerun produces the identical degraded prefix.
        let cut = walk(10);
        assert!(cut.degraded, "the gate closed with enumeration still hungry");
        assert!(cut.total_probes <= 10, "{}", cut.total_probes);
        assert!(cut.hops.len() < full.hops.len());
        assert_eq!(cut.dag_digest(), walk(10).dag_digest());

        // A budget at or above the walk's appetite never trips.
        let roomy = walk(full.total_probes);
        assert!(!roomy.degraded);
        assert_eq!(roomy.dag_digest(), full.dag_digest());
    }

    #[test]
    fn time_budget_degrades_a_walk() {
        let sc = scenarios::fig6(BalancerKind::PerFlow(FlowPolicy::FiveTuple));
        let mut tx = transport(&sc, 5);
        let config = MdaConfig {
            time_budget: SimDuration::from_millis(40),
            ..MdaConfig::default().sequential()
        };
        let map = discover(&mut tx, sc.destination, &config);
        assert!(map.degraded, "a 40 ms ceiling cannot cover the whole sequential walk");
        let full = discover(&mut transport(&sc, 5), sc.destination, &MdaConfig::default());
        assert!(map.hops.len() <= full.hops.len());
    }

    #[test]
    fn late_answers_are_strays_and_the_walk_ends_at_the_star_limit() {
        // S -(100 ms)- r - D against a 50 ms timeout: every reply lands
        // after its probe expired, while that flow's retry (a new id) or
        // a later flow is in flight. An expired probe has left the
        // window, so the late reply credits nothing — in particular not
        // the retry now occupying its flow's slot.
        let (topo, s, dst) = chain(100, pt_netsim::HostConfig::default());
        let walk = |window: u8| {
            let mut tx = SimTransport::new(Simulator::new(topo.clone(), 1), s);
            let cfg = MdaConfig {
                timeout: SimDuration::from_millis(50),
                flow_retries: 1,
                window,
                ..MdaConfig::default()
            };
            let map = discover(&mut tx, dst, &cfg);
            assert!(!map.reached, "window {window}");
            assert_eq!(map.hops.len(), usize::from(cfg.max_consecutive_stars), "window {window}");
            for h in &map.hops {
                assert!(h.interfaces.is_empty() && h.stars > 0 && !h.converged, "window {window}");
            }
            map.dag_digest()
        };
        assert_eq!(walk(1), walk(8));
    }

    #[test]
    fn firewalled_destination_abandons_at_the_star_limit() {
        let (topo, s, dst) = chain(1, pt_netsim::HostConfig::firewalled());
        for window in [1u8, 8] {
            let mut tx = SimTransport::new(Simulator::new(topo.clone(), 1), s);
            let cfg =
                MdaConfig { timeout: SimDuration::from_millis(50), window, ..MdaConfig::default() };
            let map = discover(&mut tx, dst, &cfg);
            assert!(!map.reached, "window {window}");
            // One answered hop (r) + exactly max_consecutive_stars
            // all-star hops, then abandonment.
            assert_eq!(
                map.hops.len(),
                1 + usize::from(cfg.max_consecutive_stars),
                "window {window}"
            );
            assert!(map.hops[1..].iter().all(|h| h.all_stars() && !h.converged));
        }
    }
}
