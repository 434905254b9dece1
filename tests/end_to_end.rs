//! End-to-end integration: wire → simulator → tracer → anomaly analysis,
//! exercised through the umbrella crate's re-exports.

use paris_traceroute_repro::anomaly::{find_cycles, find_loops, DestinationGraph, LoopCause};
use paris_traceroute_repro::core::{trace, ClassicUdp, ParisIcmp, ParisTcp, ParisUdp, TraceConfig};
use paris_traceroute_repro::netsim::node::BalancerKind;
use paris_traceroute_repro::netsim::{scenarios, SimTransport, Simulator};
use paris_traceroute_repro::wire::FlowPolicy;

fn tx_for(sc: &scenarios::Scenario, seed: u64) -> SimTransport {
    SimTransport::new(Simulator::new(sc.topology.clone(), seed), sc.source)
}

#[test]
fn the_headline_claim_fig1() {
    // Classic traceroute infers a false link through the Fig. 1 topology;
    // Paris traceroute never does, across many seeds and flows.
    let sc = scenarios::fig1(BalancerKind::PerFlow(FlowPolicy::FiveTuple));
    let mut tx = tx_for(&sc, 1);
    let mut classic_false = 0;
    for pid in 0..128u16 {
        let mut s = ClassicUdp::new(pid);
        let r = trace(&mut tx, &mut s, sc.destination, TraceConfig::default());
        let a = r.addresses();
        if a[6] == Some(sc.a("A")) && a[7] == Some(sc.a("D")) {
            classic_false += 1;
        }
    }
    assert!(classic_false > 0, "classic must sometimes infer the false link");
    for i in 0..128u16 {
        let mut s = ParisUdp::new(41_000 + i, 52_000 + (i % 100));
        let r = trace(&mut tx, &mut s, sc.destination, TraceConfig::default());
        let a = r.addresses();
        assert!(
            !(a[6] == Some(sc.a("A")) && a[7] == Some(sc.a("D"))),
            "paris inferred the false link at flow {i}"
        );
    }
}

#[test]
fn every_paris_mode_is_loop_free_on_every_figure() {
    // UDP, ICMP and TCP Paris modes across fig1/fig3/fig6 (the per-flow
    // load-balancing figures), each under every hash policy a balancer
    // may use: no loops, no cycles, ever.
    for policy in FlowPolicy::ALL {
        let kind = BalancerKind::PerFlow(policy);
        let figs = [
            ("fig1", scenarios::fig1(kind)),
            ("fig3", scenarios::fig3(kind)),
            ("fig6", scenarios::fig6(kind)),
        ];
        for (fig, sc) in &figs {
            let mut tx = tx_for(sc, 5);
            for rep in 0..8u16 {
                let mut strategies: Vec<Box<dyn paris_traceroute_repro::core::ProbeStrategy>> = vec![
                    Box::new(ParisUdp::new(41_000 + rep, 52_000)),
                    Box::new(ParisIcmp::new(0x1000 + rep)),
                    Box::new(ParisTcp::new(55_000 + rep)),
                ];
                for s in &mut strategies {
                    let r = trace(&mut tx, s.as_mut(), sc.destination, TraceConfig::default());
                    assert!(
                        find_loops(&r).is_empty(),
                        "{fig} under {policy:?}, {} rep {rep}: loops {:?}",
                        s.id(),
                        r.addresses()
                    );
                    assert!(
                        find_cycles(&r).is_empty(),
                        "{fig} under {policy:?}, {} rep {rep}",
                        s.id()
                    );
                }
            }
        }
    }
}

#[test]
fn classic_loop_rate_matches_the_two_path_math() {
    // Fig. 3's unequal 2-way split: the loop (E, E) needs the hop-8 probe
    // on the short path and the hop-9 probe on the long path → 1/4.
    let sc = scenarios::fig3(BalancerKind::PerFlow(FlowPolicy::FiveTuple));
    let mut tx = tx_for(&sc, 77);
    let n = 400;
    let mut loops = 0;
    for pid in 0..n {
        let mut s = ClassicUdp::new(pid);
        let r = trace(&mut tx, &mut s, sc.destination, TraceConfig::default());
        if find_loops(&r).iter().any(|l| l.addr == sc.a("E")) {
            loops += 1;
        }
    }
    let frac = f64::from(loops) / f64::from(n);
    assert!(
        (frac - 0.25).abs() < 0.08,
        "loop fraction {frac} should be near 0.25 (binomial, n={n})"
    );
}

#[test]
fn diamond_pipeline_classic_vs_paris() {
    let sc = scenarios::fig6(BalancerKind::PerFlow(FlowPolicy::FiveTuple));
    let mut tx = tx_for(&sc, 3);
    let mut classic_g = DestinationGraph::new();
    let mut paris_g = DestinationGraph::new();
    for i in 0..96u16 {
        let mut cs = ClassicUdp::new(i);
        classic_g.ingest(&trace(&mut tx, &mut cs, sc.destination, TraceConfig::default()));
        let mut ps = ParisUdp::new(42_000 + i, 52_100 + i);
        paris_g.ingest(&trace(&mut tx, &mut ps, sc.destination, TraceConfig::default()));
    }
    // Paris graphs contain only true diamonds; classic ⊇ paris.
    let paris_sigs = paris_g.diamond_signatures();
    let classic_sigs = classic_g.diamond_signatures();
    assert!(paris_sigs.is_subset(&classic_sigs));
    assert!(classic_sigs.len() > paris_sigs.len(), "classic fabricates extra diamonds");
    assert!(!paris_g.is_diamond(sc.a("C"), sc.a("G")));
    assert!(classic_g.is_diamond(sc.a("C"), sc.a("G")), "classic fabricates (C, G)");
    // Measured, not reconstructed: Paris sees exactly the paper's four.
    let papers_four =
        [("L", "D"), ("L", "E"), ("A", "G"), ("B", "G")].map(|(h, t)| (sc.a(h), sc.a(t)));
    assert_eq!(paris_sigs, papers_four.into_iter().collect());
}

#[test]
fn fig4_zero_ttl_loop_is_found_and_classified() {
    // Fig. 4 end to end: F forwards the probe it should have answered,
    // so A answers twice (probe TTL 0, then 1) and F is never seen.
    let sc = scenarios::fig4();
    let mut tx = tx_for(&sc, 3);
    let mut s = ParisUdp::new(41_000, 52_000);
    let r = trace(&mut tx, &mut s, sc.destination, TraceConfig::default());
    let loops = find_loops(&r);
    assert_eq!(loops.len(), 1, "exactly the (A, A) loop: {loops:?}");
    let l = &loops[0];
    assert_eq!(l.addr, sc.a("A"));
    assert_eq!(l.cause, LoopCause::ZeroTtlForwarding);
    assert_eq!(r.hops[l.start].probe.probe_ttl, Some(0));
    assert!(!r.addresses().contains(&Some(sc.a("F"))), "F answered: {:?}", r.addresses());
}

#[test]
fn fig5_nat_loop_is_found_and_classified() {
    // Fig. 5 end to end: one address at four distances (response TTLs
    // 250, 249, 248, 247) is a rewriting loop, and it ends the route.
    let sc = scenarios::fig5();
    let mut tx = tx_for(&sc, 5);
    let mut s = ParisUdp::new(41_000, 52_000);
    let r = trace(&mut tx, &mut s, sc.destination, TraceConfig::default());
    let ttls: Vec<_> = r.hops[5..9].iter().map(|h| h.probe.response_ttl).collect();
    assert_eq!(ttls, [Some(250), Some(249), Some(248), Some(247)]);
    let loops = find_loops(&r);
    assert_eq!(loops.len(), 1, "{loops:?}");
    assert_eq!(loops[0].addr, sc.a("N"));
    assert_eq!(loops[0].cause, LoopCause::AddressRewriting);
    assert!(loops[0].at_route_end, "rewriting loops live at the end of routes");
}

#[test]
fn section_2_1_probe_arithmetic_is_exact() {
    // §2.1: three probes per hop through a random two-way balancer at
    // hops 7 and 8. Each of the six probes meets device 0 or 1, so the
    // 2^6 outcomes are equally likely: one bit per probe, hop 7 in the
    // low three.
    let both_devices_seen = |hop: u32| hop != 0b000 && hop != 0b111;
    let (mut undiscovered, mut ambiguous) = (0, 0);
    for outcome in 0..64u32 {
        let (hop7, hop8) = (outcome & 0b111, outcome >> 3);
        undiscovered += u32::from(!both_devices_seen(hop7));
        ambiguous += u32::from(both_devices_seen(hop7) || both_devices_seen(hop8));
    }
    assert_eq!(undiscovered, 16, "P(a hop-7 device undiscovered) = 0.25");
    assert_eq!(ambiguous, 60, "P(two devices at hop 7 or hop 8: link ambiguity) = 0.9375");
}

#[test]
fn per_packet_balancing_defeats_both_tools() {
    // The paper concedes Paris cannot fix per-packet balancing; verify
    // both tools see loops through a per-packet Fig. 3.
    let sc = scenarios::fig3(BalancerKind::PerPacket);
    let mut tx = tx_for(&sc, 13);
    let mut classic_loops = 0;
    let mut paris_loops = 0;
    for i in 0..64u16 {
        let mut cs = ClassicUdp::new(i);
        let r = trace(&mut tx, &mut cs, sc.destination, TraceConfig::default());
        classic_loops += usize::from(!find_loops(&r).is_empty());
        let mut ps = ParisUdp::new(41_000 + i, 52_000);
        let r = trace(&mut tx, &mut ps, sc.destination, TraceConfig::default());
        paris_loops += usize::from(!find_loops(&r).is_empty());
    }
    assert!(classic_loops > 0);
    assert!(paris_loops > 0, "per-packet balancing must defeat Paris too");
}

#[test]
fn umbrella_reexports_compose() {
    // The re-exported paths work together: wire packet through netsim
    // transport matched by a core strategy.
    use paris_traceroute_repro::core::ProbeStrategy;
    let sc = scenarios::linear(3);
    let mut tx = tx_for(&sc, 1);
    let mut s = ParisUdp::new(40_001, 50_001);
    let probe = s.build_probe(tx.source_addr(), sc.destination, 1, 0);
    let emitted = probe.emit();
    let parsed = paris_traceroute_repro::wire::Packet::parse(&emitted).unwrap();
    // Byte-identical on re-emit (struct equality is too strict: parsing
    // fills in the wire checksum and clears the pinned flag).
    assert_eq!(parsed.emit(), emitted);
    let r = trace(&mut tx, &mut s, sc.destination, TraceConfig::default());
    assert!(r.reached_destination());
}
