//! Cross-crate property tests: invariants that must hold for *any*
//! generated network, seed and tool.

use proptest::prelude::*;

use paris_traceroute_repro::anomaly::{find_cycles, find_loops};
use paris_traceroute_repro::core::{trace, ClassicUdp, ParisUdp, TraceConfig};
use paris_traceroute_repro::netsim::{SimTransport, Simulator};
use paris_traceroute_repro::topogen::{generate, InternetConfig};

fn tiny_net_config(seed: u64) -> InternetConfig {
    InternetConfig { seed, n_destinations: 12, n_core: 3, ..InternetConfig::default() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every trace terminates with a consistent structure, whatever the
    /// network throws at it.
    #[test]
    fn traces_always_terminate_well_formed(seed in 0u64..5000, sim_seed in 0u64..1000) {
        let net = generate(&tiny_net_config(seed));
        let mut tx = SimTransport::new(Simulator::new(net.topology.clone(), sim_seed), net.source);
        for (i, d) in net.dests.iter().enumerate() {
            let mut s = ClassicUdp::new(i as u16);
            let r = trace(&mut tx, &mut s, d.addr, TraceConfig::default());
            prop_assert!(!r.hops.is_empty());
            prop_assert!(r.hops.len() <= 39);
            // Hop TTLs are consecutive from min_ttl.
            for (k, hop) in r.hops.iter().enumerate() {
                prop_assert_eq!(hop.ttl as usize, r.min_ttl as usize + k);
                prop_assert_eq!(hop.probes.len(), 1);
            }
            // Responses carry metadata; stars carry none.
            for p in r.hops.iter().flat_map(|h| &h.probes) {
                if p.addr.is_some() {
                    prop_assert!(p.rtt.is_some());
                    prop_assert!(p.kind.is_some());
                    prop_assert!(p.response_ttl.is_some());
                    prop_assert!(p.ip_id.is_some());
                } else {
                    prop_assert!(p.rtt.is_none());
                    prop_assert!(p.kind.is_none());
                }
            }
        }
    }

    /// Loops and cycles never overlap by definition: a loop position is
    /// never also reported as a cycle pair (adjacent repeats are loops).
    #[test]
    fn loops_and_cycles_are_disjoint(seed in 0u64..5000) {
        let net = generate(&tiny_net_config(seed));
        let mut tx = SimTransport::new(Simulator::new(net.topology.clone(), 7), net.source);
        for (i, d) in net.dests.iter().enumerate() {
            let mut s = ClassicUdp::new(i as u16);
            let r = trace(&mut tx, &mut s, d.addr, TraceConfig::default());
            for c in find_cycles(&r) {
                prop_assert!(c.second > c.first + 1, "cycle {c:?} is adjacent — that is a loop");
            }
            for l in find_loops(&r) {
                prop_assert!(l.len >= 2);
            }
        }
    }

    /// Determinism: identical seeds produce identical measured routes.
    #[test]
    fn identical_seeds_identical_routes(seed in 0u64..3000) {
        let run_once = || {
            let net = generate(&tiny_net_config(seed));
            let mut tx =
                SimTransport::new(Simulator::new(net.topology.clone(), 99), net.source);
            net.dests
                .iter()
                .map(|d| {
                    let mut s = ParisUdp::new(40_000, 50_000);
                    trace(&mut tx, &mut s, d.addr, TraceConfig::default()).addresses()
                })
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run_once(), run_once());
    }

    /// A Paris trace toward a loss-free, anomaly-free network is always
    /// clean: no stars, no repeats, destination reached.
    #[test]
    fn clean_networks_give_clean_routes(seed in 0u64..5000) {
        let config = InternetConfig {
            seed,
            n_destinations: 10,
            n_core: 3,
            per_flow_lb: 0.0,
            per_packet_lb: 0.0,
            zero_ttl: 0.0,
            broken: 0.0,
            nat: 0.0,
            silent_router: 0.0,
            firewalled_dest: 0.0,
            link_loss: 0.0,
            ..InternetConfig::default()
        };
        let net = generate(&config);
        let mut tx = SimTransport::new(Simulator::new(net.topology.clone(), 1), net.source);
        for d in &net.dests {
            let mut s = ParisUdp::new(40_000, 50_000);
            let r = trace(&mut tx, &mut s, d.addr, TraceConfig::default());
            prop_assert!(r.reached_destination());
            prop_assert_eq!(r.stars(), 0);
            prop_assert!(find_loops(&r).is_empty());
            prop_assert!(find_cycles(&r).is_empty());
            // All addresses distinct.
            let addrs: Vec<_> = r.addresses().into_iter().flatten().collect();
            let set: std::collections::BTreeSet<_> = addrs.iter().collect();
            prop_assert_eq!(set.len(), addrs.len());
        }
    }

    /// The Paris invariant under arbitrary per-flow networks: a Paris
    /// UDP trace never shows a loop unless a non-flow anomaly source
    /// (zero-TTL, NAT, broken router, per-packet LB) is on the branch.
    #[test]
    fn paris_loops_only_with_non_flow_causes(seed in 0u64..4000) {
        let config = InternetConfig {
            seed,
            n_destinations: 12,
            n_core: 3,
            per_flow_lb: 0.8,
            per_packet_lb: 0.0,
            zero_ttl: 0.0,
            broken: 0.0,
            nat: 0.0,
            silent_router: 0.0,
            firewalled_dest: 0.0,
            link_loss: 0.0,
            ..InternetConfig::default()
        };
        let net = generate(&config);
        let mut tx = SimTransport::new(Simulator::new(net.topology.clone(), 3), net.source);
        for (i, d) in net.dests.iter().enumerate() {
            let mut s = ParisUdp::new(40_000 + i as u16, 50_000);
            let r = trace(&mut tx, &mut s, d.addr, TraceConfig::default());
            prop_assert!(
                find_loops(&r).is_empty(),
                "paris loop with only per-flow LB on branch: {:?}",
                r.addresses()
            );
        }
    }
}
