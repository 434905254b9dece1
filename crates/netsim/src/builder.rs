//! Ergonomic construction of topologies: nodes, links, routes.
//!
//! The builder allocates interface addresses automatically (each node gets
//! addresses from its own /24, so interfaces of one router are recognizable
//! in traces) and lets routes be expressed in terms of *neighbor nodes*
//! rather than raw interface indices.

use std::net::Ipv4Addr;

use crate::addr::{AddrAllocator, Ipv4Prefix};
use crate::node::{BalancerKind, HostConfig, NodeKind, RouterConfig};
use crate::routing::{NextHop, RoutingTable};
use crate::time::SimDuration;
use crate::topology::{Endpoint, Interface, Link, LinkId, Node, NodeId, Topology};

/// Builds a [`Topology`] incrementally.
#[derive(Debug)]
pub struct TopologyBuilder {
    nodes: Vec<Node>,
    links: Vec<Link>,
    alloc: AddrAllocator,
    /// Each node's address pools; a new /24 is appended when a node grows
    /// past ~250 interfaces (core routers in large topologies do).
    node_subnets: Vec<Vec<Ipv4Prefix>>,
    /// Per-node routing tables under construction; frozen into shared
    /// `Arc`s by [`TopologyBuilder::build`].
    tables: Vec<RoutingTable>,
}

impl Default for TopologyBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TopologyBuilder {
    /// A fresh builder allocating addresses out of `10.0.0.0/8`.
    pub fn new() -> Self {
        TopologyBuilder {
            nodes: Vec::new(),
            links: Vec::new(),
            alloc: AddrAllocator::new(Ipv4Addr::new(10, 0, 0, 0)),
            node_subnets: Vec::new(),
            tables: Vec::new(),
        }
    }

    fn add_node(&mut self, name: &str, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len());
        let subnet = self.alloc.next_subnet();
        self.node_subnets.push(vec![subnet]);
        self.tables.push(RoutingTable::new());
        self.nodes.push(Node {
            name: name.to_string(),
            kind,
            ifaces: Vec::new(),
            routing: std::sync::Arc::new(RoutingTable::new()),
        });
        id
    }

    /// Add a router.
    pub fn router(&mut self, name: &str, config: RouterConfig) -> NodeId {
        self.add_node(name, NodeKind::Router(config))
    }

    /// Add a host.
    pub fn host(&mut self, name: &str, config: HostConfig) -> NodeId {
        self.add_node(name, NodeKind::Host(config))
    }

    /// The primary subnet from which `node`'s interface addresses are
    /// drawn (overflow subnets exist only for very high-degree nodes).
    pub fn subnet_of(&self, node: NodeId) -> Ipv4Prefix {
        self.node_subnets[node.0][0]
    }

    /// Give `node` an extra interface with a caller-chosen address that is
    /// not attached to any link (e.g. a NAT public address or loopback).
    pub fn loopback(&mut self, node: NodeId, addr: Ipv4Addr) {
        self.nodes[node.0].ifaces.push(Interface { addr, link: None });
    }

    fn fresh_iface(&mut self, node: NodeId) -> (usize, Ipv4Addr) {
        const PER_SUBNET: usize = 250;
        let idx = self.nodes[node.0].ifaces.len();
        let pool = idx / PER_SUBNET;
        let within = (idx % PER_SUBNET) as u32 + 1;
        while self.node_subnets[node.0].len() <= pool {
            let extra = self.alloc.next_subnet();
            self.node_subnets[node.0].push(extra);
        }
        // Interface i of node n gets a stable, readable, unique address
        // from the node's pool(s).
        let addr = self.node_subnets[node.0][pool].nth(within);
        self.nodes[node.0].ifaces.push(Interface { addr, link: None });
        (idx, addr)
    }

    /// Connect two nodes with a symmetric link of the given delay and
    /// loss, allocating one new interface on each. Returns the link id.
    pub fn link(&mut self, a: NodeId, b: NodeId, delay: SimDuration, loss: f64) -> LinkId {
        self.link_asym(a, b, delay, delay, loss)
    }

    /// Connect two nodes with per-direction delays: `delay` applies
    /// `a → b`, `delay_back` applies `b → a`. An asymmetric return
    /// path skews RTTs (the hostile-network knob) without changing
    /// topology or hop counts.
    pub fn link_asym(
        &mut self,
        a: NodeId,
        b: NodeId,
        delay: SimDuration,
        delay_back: SimDuration,
        loss: f64,
    ) -> LinkId {
        assert!((0.0..=1.0).contains(&loss), "loss must be a probability");
        let (ia, _) = self.fresh_iface(a);
        let (ib, _) = self.fresh_iface(b);
        let id = LinkId(self.links.len());
        self.links.push(Link {
            endpoints: [Endpoint { node: a, iface: ia }, Endpoint { node: b, iface: ib }],
            delay,
            delay_back,
            loss,
        });
        self.nodes[a.0].ifaces[ia].link = Some(id);
        self.nodes[b.0].ifaces[ib].link = Some(id);
        id
    }

    fn iface_toward(&self, node: NodeId, neighbor: NodeId) -> usize {
        self.nodes[node.0]
            .ifaces
            .iter()
            .position(|iface| {
                iface.link.is_some_and(|l| {
                    let link = &self.links[l.0];
                    link.endpoints.iter().any(|e| e.node == neighbor)
                        && link.endpoints.iter().any(|e| e.node == node)
                })
            })
            .unwrap_or_else(|| {
                panic!(
                    "no link between {} and {}",
                    self.nodes[node.0].name, self.nodes[neighbor.0].name
                )
            })
    }

    /// Route `prefix` at `node` via the directly-connected `neighbor`.
    ///
    /// # Panics
    /// Panics if the nodes are not linked.
    pub fn route_via(&mut self, node: NodeId, prefix: Ipv4Prefix, neighbor: NodeId) {
        let iface = self.iface_toward(node, neighbor);
        self.tables[node.0].set(prefix, NextHop::Iface(iface));
    }

    /// Default-route `node` via `neighbor`.
    pub fn default_via(&mut self, node: NodeId, neighbor: NodeId) {
        self.route_via(node, Ipv4Prefix::DEFAULT, neighbor);
    }

    /// Install a load-balanced route at `node` spreading `prefix` over the
    /// directly-connected `neighbors`.
    pub fn balanced_route(
        &mut self,
        node: NodeId,
        prefix: Ipv4Prefix,
        kind: BalancerKind,
        neighbors: &[NodeId],
    ) {
        assert!(neighbors.len() >= 2, "a balancer needs at least two egresses");
        let egresses: Vec<usize> = neighbors.iter().map(|n| self.iface_toward(node, *n)).collect();
        self.tables[node.0].set(prefix, NextHop::Balanced { kind, egresses });
    }

    /// Blackhole `prefix` at `node`.
    pub fn blackhole(&mut self, node: NodeId, prefix: Ipv4Prefix) {
        self.tables[node.0].set(prefix, NextHop::Blackhole);
    }

    /// Replace a router's behaviour config. Useful when the config needs
    /// values only known after linking (e.g. a NAT public address).
    ///
    /// # Panics
    /// Panics if `node` is a host.
    pub fn set_router_config(&mut self, node: NodeId, config: RouterConfig) {
        match &mut self.nodes[node.0].kind {
            NodeKind::Router(c) => *c = config,
            NodeKind::Host(_) => panic!("{} is a host, not a router", self.nodes[node.0].name),
        }
    }

    /// The address of `node`'s first interface (panics if it has none yet).
    pub fn addr_of(&self, node: NodeId) -> Ipv4Addr {
        self.nodes[node.0].ifaces.first().expect("node has no interfaces yet — link it first").addr
    }

    /// Address of interface `idx` on `node`.
    pub fn iface_addr(&self, node: NodeId, idx: usize) -> Ipv4Addr {
        self.nodes[node.0].ifaces[idx].addr
    }

    /// Finish, producing the immutable topology. Each node's routing
    /// table is frozen into a shared `Arc` that every simulator over this
    /// topology borrows instead of copying.
    pub fn build(mut self) -> Topology {
        let mut addr_owner = crate::routing::AddrMap::default();
        for (i, node) in self.nodes.iter().enumerate() {
            for iface in &node.ifaces {
                let prev = addr_owner.insert(iface.addr, NodeId(i));
                assert!(prev.is_none(), "duplicate interface address {}", iface.addr);
            }
        }
        for (node, table) in self.nodes.iter_mut().zip(self.tables) {
            node.routing = std::sync::Arc::new(table);
        }
        Topology { nodes: self.nodes, links: self.links, addr_owner }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_wire::FlowPolicy;

    #[test]
    fn linking_allocates_distinct_addresses() {
        let mut b = TopologyBuilder::new();
        let r1 = b.router("r1", RouterConfig::default());
        let r2 = b.router("r2", RouterConfig::default());
        let r3 = b.router("r3", RouterConfig::default());
        b.link(r1, r2, SimDuration::from_millis(1), 0.0);
        b.link(r1, r3, SimDuration::from_millis(1), 0.0);
        let topo = b.build();
        assert_eq!(topo.node(r1).ifaces.len(), 2);
        assert_ne!(topo.node(r1).ifaces[0].addr, topo.node(r1).ifaces[1].addr);
    }

    #[test]
    fn node_interfaces_share_a_subnet() {
        let mut b = TopologyBuilder::new();
        let r1 = b.router("r1", RouterConfig::default());
        let r2 = b.router("r2", RouterConfig::default());
        let r3 = b.router("r3", RouterConfig::default());
        b.link(r1, r2, SimDuration::from_millis(1), 0.0);
        b.link(r1, r3, SimDuration::from_millis(1), 0.0);
        let subnet = b.subnet_of(r1);
        let topo = b.build();
        for iface in &topo.node(r1).ifaces {
            assert!(subnet.contains(iface.addr));
        }
    }

    #[test]
    fn route_via_targets_the_right_interface() {
        let mut b = TopologyBuilder::new();
        let r1 = b.router("r1", RouterConfig::default());
        let r2 = b.router("r2", RouterConfig::default());
        let r3 = b.router("r3", RouterConfig::default());
        b.link(r1, r2, SimDuration::from_millis(1), 0.0);
        b.link(r1, r3, SimDuration::from_millis(1), 0.0);
        b.route_via(r1, Ipv4Prefix::DEFAULT, r3);
        let topo = b.build();
        match topo.node(r1).routing.lookup(Ipv4Addr::new(8, 8, 8, 8)) {
            Some(NextHop::Iface(i)) => {
                assert_eq!(topo.iface_toward(r1, r3), Some(*i));
            }
            other => panic!("unexpected next hop {other:?}"),
        }
    }

    #[test]
    fn balanced_route_collects_all_egresses() {
        let mut b = TopologyBuilder::new();
        let l = b.router("l", RouterConfig::default());
        let a = b.router("a", RouterConfig::default());
        let c = b.router("c", RouterConfig::default());
        b.link(l, a, SimDuration::from_millis(1), 0.0);
        b.link(l, c, SimDuration::from_millis(1), 0.0);
        b.balanced_route(
            l,
            Ipv4Prefix::DEFAULT,
            BalancerKind::PerFlow(FlowPolicy::FiveTuple),
            &[a, c],
        );
        let topo = b.build();
        match topo.node(l).routing.lookup(Ipv4Addr::new(9, 9, 9, 9)) {
            Some(NextHop::Balanced { egresses, .. }) => assert_eq!(egresses.len(), 2),
            other => panic!("unexpected next hop {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "no link between")]
    fn route_via_unlinked_panics() {
        let mut b = TopologyBuilder::new();
        let r1 = b.router("r1", RouterConfig::default());
        let r2 = b.router("r2", RouterConfig::default());
        b.route_via(r1, Ipv4Prefix::DEFAULT, r2);
    }

    #[test]
    #[should_panic(expected = "duplicate interface address")]
    fn duplicate_loopback_addresses_rejected() {
        let mut b = TopologyBuilder::new();
        let r1 = b.router("r1", RouterConfig::default());
        let r2 = b.router("r2", RouterConfig::default());
        let a = Ipv4Addr::new(203, 0, 113, 1);
        b.loopback(r1, a);
        b.loopback(r2, a);
        let _ = b.build();
    }
}
