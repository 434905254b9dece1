//! Pins the generated network itself, not only what a campaign reads off
//! it: every node's name, addresses and behaviour, each node's next hop
//! toward every destination and the source, every link, and every
//! `DestInfo`, hashed for the three presets. A change to the generator
//! that moves a node id, an address, a route or an RNG draw fails here
//! before any campaign digest has to notice.

use std::collections::BTreeMap;
use std::fmt::Write;

use pt_netsim::node::NodeKind;
use pt_topogen::{InternetConfig, SyntheticInternet};

use crate::generated;

/// FNV-1a, 64 bits: a fixed function of the bytes, on every platform.
fn fnv(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The projection, one line per fact, in node / link / destination order.
fn project(net: &SyntheticInternet) -> String {
    let topo = &net.topology;
    let mut targets: Vec<_> = net.dests.iter().map(|d| d.addr).collect();
    targets.push(topo.node(net.source).primary_addr());
    let mut out = String::new();
    for node in &topo.nodes {
        let addrs: Vec<_> = node.ifaces.iter().map(|i| i.addr).collect();
        let ttl = node.kind.icmp_initial_ttl();
        let behaviour = match &node.kind {
            NodeKind::Router(r) => format!(
                "router zttl={} broken={:?} silent={} nat={:?} rl={:?} mpls={} udpf={} resp={:?}",
                r.zero_ttl_forwarding,
                r.broken,
                r.silent,
                r.nat,
                r.icmp_rate_limit,
                r.mpls_hidden,
                r.filter_udp,
                r.responder
            ),
            NodeKind::Host(h) => format!(
                "host udp={} tcp_ports={:?} rst={}",
                h.udp_responds, h.open_tcp_ports, h.tcp_responds
            ),
        };
        let _ = writeln!(out, "{} {addrs:?} ttl={ttl} {behaviour}", node.name);
        for &t in &targets {
            let _ = writeln!(out, "  {t} -> {:?}", node.routing.lookup(t));
        }
    }
    for link in &topo.links {
        let _ = writeln!(
            out,
            "link {:?} {:?} {} {} {:x}",
            link.endpoints[0],
            link.endpoints[1],
            link.delay.nanos(),
            link.delay_back.nanos(),
            link.loss.to_bits()
        );
    }
    for d in &net.dests {
        let _ = writeln!(out, "dest {} {:?} {:?} {:?}", d.addr, d.host, d.truth, d.chain);
    }
    out
}

fn pin(name: &str, config: &InternetConfig, nodes: usize, links: usize, hash: u64) {
    let net = generated(config);
    let got = fnv(&project(net));
    assert_eq!(
        (net.topology.nodes.len(), net.topology.links.len(), got),
        (nodes, links, hash),
        "{name}: the generated network moved (got {got:#018x})"
    );
}

#[test]
fn the_default_net_is_pinned() {
    pin("default", &InternetConfig::default(), 3890, 4324, 0x858e_5a33_7734_e85b);
}

#[test]
fn the_tiny_net_is_pinned() {
    pin("tiny(42)", &InternetConfig::tiny(42), 312, 343, 0x9469_501e_a79a_def8);
}

#[test]
fn the_hostile_net_is_pinned() {
    pin("hostile(7)", &InternetConfig::hostile(7), 382, 426, 0x87fb_6aa6_b1ca_b5cd);
}

/// Each node's interfaces are drawn from /24s no other node draws on, so
/// no two nodes share an address, and every destination is the address
/// of a host of its own.
#[test]
fn every_node_addresses_from_subnets_of_its_own() {
    for (name, config) in [
        ("default", InternetConfig::default()),
        ("tiny(42)", InternetConfig::tiny(42)),
        ("hostile(7)", InternetConfig::hostile(7)),
    ] {
        let net = generated(&config);
        let topo = &net.topology;
        let mut pools = BTreeMap::new();
        for (i, node) in topo.nodes.iter().enumerate() {
            for iface in &node.ifaces {
                let owner = *pools.entry(u32::from(iface.addr) >> 8).or_insert(i);
                assert_eq!(owner, i, "{name}: {} shares a /24 with node {owner}", iface.addr);
            }
        }
        let mut hosts = BTreeMap::new();
        for (di, d) in net.dests.iter().enumerate() {
            let host = topo.owner_of(d.addr).expect("a destination is some node's address");
            assert!(matches!(topo.node(host).kind, NodeKind::Host(_)), "{name}: dest {di}");
            assert_eq!(hosts.insert(host.0, di), None, "{name}: dest {di} shares its host");
        }
    }
}
