//! `Topology::owner_of` is the simulator's local-delivery check — made
//! when a unit first resolves a hop (the next-hop table's fill) and when
//! a packet is injected — so the index behind it must give the answer a
//! scan of every node's interfaces gives, on every topology the repo can
//! build.

use std::net::Ipv4Addr;

use pt_netsim::node::BalancerKind;
use pt_netsim::{scenarios, NodeId, Topology};
use pt_topogen::{generate, InternetConfig};
use pt_wire::FlowPolicy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The oracle: what `Node::owns_addr` used to answer, asked of every node.
fn scan(topo: &Topology, addr: Ipv4Addr) -> Option<NodeId> {
    topo.nodes.iter().position(|n| n.ifaces.iter().any(|i| i.addr == addr)).map(NodeId)
}

fn check(name: &str, topo: &Topology) {
    let mut rng = StdRng::seed_from_u64(topo.len() as u64);
    for (i, node) in topo.nodes.iter().enumerate() {
        for iface in &node.ifaces {
            assert_eq!(topo.owner_of(iface.addr), Some(NodeId(i)), "{name}: {}", iface.addr);
            // The neighbouring addresses: most sit on the far end of the
            // same link, some on no interface at all.
            let a = u32::from(iface.addr);
            for near in [a.wrapping_sub(1), a.wrapping_add(1)].map(Ipv4Addr::from) {
                assert_eq!(topo.owner_of(near), scan(topo, near), "{name}: {near}");
            }
        }
    }
    for _ in 0..2_000 {
        let addr = Ipv4Addr::from(rng.gen::<u32>());
        assert_eq!(topo.owner_of(addr), scan(topo, addr), "{name}: {addr}");
    }
}

#[test]
fn owner_of_equals_the_interface_scan_on_generated_internets() {
    for seed in [1, 77, 2006] {
        for (name, cfg) in [
            ("default", InternetConfig { seed, ..InternetConfig::default() }),
            ("tiny", InternetConfig::tiny(seed)),
            ("hostile", InternetConfig::hostile(seed)),
        ] {
            check(&format!("{name}/{seed}"), &generate(&cfg).topology);
        }
    }
}

#[test]
fn owner_of_equals_the_interface_scan_on_every_scenario() {
    let per_flow = BalancerKind::PerFlow(FlowPolicy::FiveTuple);
    let all = [
        ("fig1", scenarios::fig1(per_flow)),
        ("fig3", scenarios::fig3(per_flow)),
        ("fig4", scenarios::fig4()),
        ("fig5", scenarios::fig5()),
        ("fig6", scenarios::fig6(BalancerKind::PerPacket)),
        ("unreachability_loop", scenarios::unreachability_loop()),
        ("linear", scenarios::linear(32)),
        ("forwarding_loop_chain", scenarios::forwarding_loop_chain().0),
    ];
    for (name, sc) in all {
        check(name, &sc.topology);
    }
}

#[test]
fn the_empty_topology_owns_nothing() {
    let topo = Topology::default();
    assert!(topo.is_empty());
    assert_eq!(topo.owner_of(Ipv4Addr::new(10, 0, 0, 1)), None);
}
