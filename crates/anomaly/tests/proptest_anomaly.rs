//! Property tests for the anomaly detectors over arbitrary synthetic
//! measured routes: the formal §4 definitions, checked against naive
//! reference implementations.

use proptest::prelude::*;
use pt_anomaly::{find_cycles, find_loops, DestinationGraph};
use pt_core::{HaltReason, Hop, MeasuredRoute, ProbeResult, ResponseKind, StrategyId};
use pt_netsim::time::SimDuration;
use std::net::Ipv4Addr;

fn addr(x: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, x)
}

fn probe(slot: Option<u8>) -> ProbeResult {
    match slot {
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

fn route_of(hops: &[Option<u8>]) -> MeasuredRoute {
    MeasuredRoute {
        strategy: StrategyId::ClassicUdp,
        source: addr(1),
        destination: addr(250),
        min_ttl: 1,
        hops: hops
            .iter()
            .enumerate()
            .map(|(i, p)| Hop { ttl: (i + 1) as u8, probe: probe(*p) })
            .collect(),
        halt: HaltReason::MaxTtl,
    }
}

/// Naive reference: does the address sequence contain an adjacent repeat?
fn has_adjacent_repeat(hops: &[Option<u8>]) -> bool {
    hops.windows(2).any(|w| w[0].is_some() && w[0] == w[1])
}

/// Naive reference: does address `a` recur with a different address
/// strictly between two consecutive occurrences?
fn has_cycle_on(hops: &[Option<u8>], a: u8) -> bool {
    let positions: Vec<usize> =
        hops.iter().enumerate().filter(|(_, h)| **h == Some(a)).map(|(i, _)| i).collect();
    positions
        .windows(2)
        .any(|w| hops[w[0] + 1..w[1]].iter().any(|x| matches!(x, Some(b) if *b != a)))
}

fn arb_hops() -> impl Strategy<Value = Vec<Option<u8>>> {
    proptest::collection::vec(proptest::option::weighted(0.85, 2u8..10), 0..24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn loop_detection_matches_reference(hops in arb_hops()) {
        let r = route_of(&hops);
        let loops = find_loops(&r);
        prop_assert_eq!(!loops.is_empty(), has_adjacent_repeat(&hops), "{:?}", hops);
        // Every reported loop really is an adjacent run of one address.
        for l in &loops {
            prop_assert!(l.len >= 2);
            for h in &hops[l.start..l.start + l.len] {
                prop_assert_eq!(*h, Some(l.addr.octets()[3]));
            }
        }
    }

    #[test]
    fn cycle_detection_matches_reference(hops in arb_hops()) {
        let r = route_of(&hops);
        let cycles = find_cycles(&r);
        for a in 2u8..10 {
            let expected = has_cycle_on(&hops, a);
            let found = cycles.iter().any(|c| c.addr == addr(a));
            prop_assert_eq!(found, expected, "address {} in {:?}", a, hops);
        }
        // Structural sanity of each instance.
        for c in &cycles {
            prop_assert!(c.second > c.first + 1);
            prop_assert_eq!(hops[c.first], hops[c.second]);
        }
    }

    #[test]
    fn loops_never_contain_stars(hops in arb_hops()) {
        let r = route_of(&hops);
        for l in find_loops(&r) {
            for h in &hops[l.start..l.start + l.len] {
                prop_assert!(h.is_some());
            }
        }
    }

    #[test]
    fn diamond_graph_is_monotone_under_more_routes(
        a in arb_hops(),
        b in arb_hops(),
    ) {
        // Adding routes can only add diamonds, never remove them.
        let mut g1 = DestinationGraph::new();
        g1.ingest(&route_of(&a));
        let d1 = g1.diamond_signatures();
        let mut g2 = DestinationGraph::new();
        g2.ingest(&route_of(&a));
        g2.ingest(&route_of(&b));
        let d2 = g2.diamond_signatures();
        prop_assert!(d1.is_subset(&d2), "{:?} ⊄ {:?}", d1, d2);
    }

    #[test]
    fn diamonds_require_consecutive_triples(hops in arb_hops()) {
        // A single route can form a diamond only via multi-probe hops,
        // which these single-probe routes never have... unless the same
        // (h, t) pair appears twice with different middles.
        let r = route_of(&hops);
        let mut g = DestinationGraph::new();
        g.ingest(&r);
        for d in g.diamonds() {
            // Verify each middle truly appears between head and tail.
            for mid in &d.middles {
                let found = hops.windows(3).any(|w| {
                    w[0].map(addr) == Some(d.head)
                        && w[1].map(addr) == Some(*mid)
                        && w[2].map(addr) == Some(d.tail)
                });
                prop_assert!(found, "diamond {:?} has phantom middle {}", d, mid);
            }
        }
    }

    #[test]
    fn accumulator_percentages_stay_in_range(routes in proptest::collection::vec(arb_hops(), 1..20)) {
        use pt_anomaly::CampaignAccumulator;
        let mut acc = CampaignAccumulator::new(StrategyId::ClassicUdp);
        for (i, hops) in routes.iter().enumerate() {
            acc.ingest(i % 3, &route_of(hops));
        }
        let rep = acc.report();
        for pct in [
            rep.pct_routes_with_loop,
            rep.pct_dests_with_loop,
            rep.pct_addrs_in_loop,
            rep.pct_routes_with_cycle,
            rep.pct_dests_with_cycle,
            rep.pct_addrs_in_cycle,
            rep.pct_loop_sigs_single_round,
            rep.pct_cycle_sigs_single_round,
            rep.pct_dests_with_diamond,
        ] {
            prop_assert!((0.0..=100.0).contains(&pct), "{pct}");
        }
        prop_assert_eq!(rep.routes_total as usize, routes.len());
    }
}
