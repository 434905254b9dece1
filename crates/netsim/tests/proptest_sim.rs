//! Property tests for the simulator: conservation, determinism, and
//! TTL-bounded termination on randomly generated topologies.

use proptest::prelude::*;
use pt_netsim::addr::Ipv4Prefix;
use pt_netsim::node::{BalancerKind, HostConfig, RouterConfig};
use pt_netsim::time::{SimDuration, SimTime};
use pt_netsim::{NodeId, SimTransport, Simulator, Topology, TopologyBuilder};
use pt_wire::ipv4::{protocol, Ipv4Header};
use pt_wire::{FlowPolicy, Packet, Transport, UdpDatagram};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Everything delivered to `node` so far, oldest first.
fn drain(sim: &mut Simulator, node: NodeId) -> Vec<(SimTime, Packet)> {
    std::iter::from_fn(|| sim.pop_delivery(node)).collect()
}

/// A random linear chain with optional balanced middle and random loss.
fn build_random(
    n_chain: usize,
    balanced: bool,
    per_packet: bool,
    loss_milli: u16,
) -> (Arc<Topology>, NodeId, Ipv4Addr) {
    let loss = f64::from(loss_milli % 200) / 1000.0; // 0..0.2
    let delay = SimDuration::from_millis(1);
    let mut b = TopologyBuilder::new();
    let s = b.host("S", HostConfig::default());
    let mut prev = s;
    let s_pfx = b.subnet_of(s);
    let mut chain = Vec::new();
    for i in 0..n_chain {
        let r = b.router(&format!("r{i}"), RouterConfig::default());
        b.link(prev, r, delay, loss);
        b.route_via(r, s_pfx, prev);
        chain.push(r);
        prev = r;
    }
    b.default_via(s, chain[0]);
    for w in chain.windows(2) {
        b.default_via(w[0], w[1]);
    }
    let tail = if balanced {
        let l = b.router("L", RouterConfig::default().with_fixed_responder());
        let x = b.router("X", RouterConfig::default().with_fixed_responder());
        let y = b.router("Y", RouterConfig::default().with_fixed_responder());
        let m = b.router("M", RouterConfig::default().with_fixed_responder());
        b.link(prev, l, delay, loss);
        b.link(l, x, delay, loss);
        b.link(l, y, delay, loss);
        b.link(x, m, delay, loss);
        b.link(y, m, delay, loss);
        b.default_via(prev, l);
        let kind = if per_packet {
            BalancerKind::PerPacket
        } else {
            BalancerKind::PerFlow(FlowPolicy::FiveTuple)
        };
        b.balanced_route(l, Ipv4Prefix::DEFAULT, kind, &[x, y]);
        b.default_via(x, m);
        b.default_via(y, m);
        b.route_via(l, s_pfx, prev);
        b.route_via(x, s_pfx, l);
        b.route_via(y, s_pfx, l);
        b.route_via(m, s_pfx, x);
        m
    } else {
        prev
    };
    let d = b.host("D", HostConfig::default());
    b.link(tail, d, delay, loss);
    b.default_via(tail, d);
    b.default_via(d, tail);
    let dst = b.addr_of(d);
    (Arc::new(b.build()), s, dst)
}

fn probe(src: Ipv4Addr, dst: Ipv4Addr, ttl: u8, port: u16) -> Packet {
    let ip = Ipv4Header::new(src, dst, protocol::UDP, ttl);
    Packet::new(ip, Transport::Udp(UdpDatagram::new(40_000, port, vec![0; 8])))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The event queue always drains: every injected packet dies by TTL,
    /// delivery, or drop — the simulator cannot run forever.
    #[test]
    fn simulator_always_quiesces(
        n_chain in 1usize..8,
        balanced in any::<bool>(),
        per_packet in any::<bool>(),
        loss in 0u16..1000,
        seed in any::<u64>(),
        ttl in 1u8..64,
    ) {
        let (topo, s, dst) = build_random(n_chain, balanced, per_packet, loss);
        let mut sim = Simulator::new(topo.clone(), seed);
        let src = topo.node(s).primary_addr();
        for i in 0..10u16 {
            sim.inject(s, probe(src, dst, ttl, 33_435 + i));
        }
        sim.run_to_quiescence();
        // Conservation: every probe is accounted for as a delivery, an
        // expiry answered, or a drop of some kind.
        let st = sim.stats();
        prop_assert!(st.delivered + st.time_exceeded_sent + st.dest_unreachable_sent
            + st.dropped_loss + st.dropped_silent + st.dropped_no_route
            + st.dropped_blackhole + st.dropped_host_mute + st.dropped_rate_limited > 0);
    }

    /// Two simulators with the same seed process the same injections to
    /// byte-identical deliveries.
    #[test]
    fn same_seed_same_deliveries(
        n_chain in 1usize..6,
        balanced in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (topo, s, dst) = build_random(n_chain, balanced, false, 100);
        let run = || {
            let mut sim = Simulator::new(topo.clone(), seed);
            let src = topo.node(s).primary_addr();
            for ttl in 1..10u8 {
                sim.inject(s, probe(src, dst, ttl, 33_000 + u16::from(ttl)));
            }
            sim.run_to_quiescence();
            drain(&mut sim, s)
                .into_iter()
                .map(|(t, p)| (t, p.emit()))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }

    /// Per-flow balancing is a pure function of the packet: identical
    /// packets always take identical paths (observed via the responder).
    #[test]
    fn per_flow_choice_is_stable(seed in any::<u64>(), port in 1024u16..65000) {
        let (topo, s, dst) = build_random(2, true, false, 0);
        let mut sim = Simulator::new(topo.clone(), seed);
        let src = topo.node(s).primary_addr();
        // The balancer sits at hop 3; its next hops at hop 4.
        let mut responders = std::collections::HashSet::new();
        for _ in 0..6 {
            sim.inject(s, probe(src, dst, 4, port));
            sim.run_to_quiescence();
            for (_, p) in drain(&mut sim, s) {
                responders.insert(p.ip.src);
            }
        }
        prop_assert!(responders.len() <= 1, "one flow took {} paths", responders.len());
    }

    /// Responses to distinct probes from one router carry strictly
    /// increasing (wrapping) IP IDs — the counter the paper's alias and
    /// NAT analyses rely on.
    #[test]
    fn ip_id_counter_is_monotonic(seed in any::<u64>()) {
        let (topo, s, dst) = build_random(3, false, false, 0);
        let mut sim = Simulator::new(topo.clone(), seed);
        let src = topo.node(s).primary_addr();
        let mut ids = Vec::new();
        for i in 0..5u16 {
            sim.inject(s, probe(src, dst, 1, 33_435 + i));
            sim.run_to_quiescence();
            for (_, p) in drain(&mut sim, s) {
                ids.push(p.ip.identification);
            }
        }
        prop_assert_eq!(ids.len(), 5);
        for w in ids.windows(2) {
            prop_assert_eq!(w[1], w[0].wrapping_add(1));
        }
    }

    /// A SimTransport deadline is always honoured: the clock never passes
    /// the deadline when nothing arrives.
    #[test]
    fn transport_deadline_is_exact(seed in any::<u64>(), wait_ms in 1u64..5_000) {
        let (topo, s, _dst) = build_random(2, false, false, 0);
        let mut tx = SimTransport::new(Simulator::new(topo, seed), s);
        let deadline = tx.now() + SimDuration::from_millis(wait_ms);
        // Nothing was sent; nothing can arrive.
        prop_assert!(tx.recv_until(deadline).is_none());
        prop_assert_eq!(tx.now(), deadline);
    }
}
