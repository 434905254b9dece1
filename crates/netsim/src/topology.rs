//! The static network graph: nodes with addressed interfaces, links with
//! delay and loss, and initial routing tables.
//!
//! A [`Topology`] is immutable once built (see [`crate::builder`]); a
//! simulator owns only small per-node runtime state (IP-ID counter,
//! rate-limiter fill, and a copy of the node's routing table once a
//! route change lands there) layered over it, so several simulators can
//! share one topology across threads and spin up without copying any
//! routing table.

use std::net::Ipv4Addr;
use std::sync::Arc;

use crate::node::NodeKind;
use crate::routing::{AddrMap, RoutingTable};
use crate::time::SimDuration;

/// Identifies a node within a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Identifies a link within a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(pub usize);

/// One end of a link: a node and an interface index on that node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Endpoint {
    /// The node.
    pub node: NodeId,
    /// Index into the node's interface list.
    pub iface: usize,
}

/// A network interface: an address, attached to at most one link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interface {
    /// The interface's IPv4 address (what traceroute discovers).
    pub addr: Ipv4Addr,
    /// The link this interface is plugged into.
    pub link: Option<LinkId>,
}

/// A point-to-point link with per-direction delay and loss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// The two attached endpoints.
    pub endpoints: [Endpoint; 2],
    /// Propagation delay `endpoints[0] → endpoints[1]`.
    pub delay: SimDuration,
    /// Propagation delay `endpoints[1] → endpoints[0]`. Equal to
    /// `delay` for the common symmetric link; an asymmetric return
    /// path (planted via [`crate::builder::TopologyBuilder::link_asym`])
    /// skews RTTs without changing hop counts.
    pub delay_back: SimDuration,
    /// Probability in `[0, 1]` that a traversal silently drops the packet.
    pub loss: f64,
}

impl Link {
    /// The endpoint opposite `node` on this link.
    pub fn other_end(&self, node: NodeId) -> Endpoint {
        if self.endpoints[0].node == node {
            self.endpoints[1]
        } else {
            self.endpoints[0]
        }
    }

    /// The traversal delay for a packet leaving `node` over this link.
    pub fn delay_from(&self, node: NodeId) -> SimDuration {
        if self.endpoints[0].node == node {
            self.delay
        } else {
            self.delay_back
        }
    }
}

/// A node: behaviour, interfaces, and its boot-time routing table.
#[derive(Debug, Clone)]
pub struct Node {
    /// Debug name ("L", "core-3", "dst-1742"...).
    pub name: String,
    /// Router or host behaviour.
    pub kind: NodeKind,
    /// Interfaces, indexed by position.
    pub ifaces: Vec<Interface>,
    /// Boot-time routing table, shared immutably with every simulator.
    /// A simulator copies it only at the first route change applied at
    /// this node, so constructing a simulator is O(1) per node however
    /// many routes the node carries.
    pub routing: Arc<RoutingTable>,
}

impl Node {
    /// The node's primary (first-interface) address.
    pub fn primary_addr(&self) -> Ipv4Addr {
        self.ifaces.first().map(|i| i.addr).unwrap_or(Ipv4Addr::UNSPECIFIED)
    }
}

/// The immutable network graph.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    /// All nodes; `NodeId` indexes this vector.
    pub nodes: Vec<Node>,
    /// All links; `LinkId` indexes this vector.
    pub links: Vec<Link>,
    /// Address → owning node: the simulator's local-delivery check,
    /// consulted when a unit first resolves a hop (the next-hop table's
    /// fill) and when a packet is injected. Written only by
    /// [`crate::builder::TopologyBuilder::build`], which asserts it
    /// duplicate-free, so it cannot disagree with `nodes`. Keyed with
    /// the deterministic [`AddrMap`] hasher so iteration never depends
    /// on `RandomState`.
    pub(crate) addr_owner: AddrMap<NodeId>,
}

impl Topology {
    /// Node accessor.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Link accessor.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0]
    }

    /// Which node owns `addr`, if any.
    pub fn owner_of(&self, addr: Ipv4Addr) -> Option<NodeId> {
        self.addr_owner.get(&addr).copied()
    }

    /// Find a node by its debug name.
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.name == name).map(NodeId)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The interface index on `node` whose link leads to `neighbor`,
    /// if the two are directly connected.
    pub fn iface_toward(&self, node: NodeId, neighbor: NodeId) -> Option<usize> {
        self.node(node).ifaces.iter().enumerate().find_map(|(idx, iface)| {
            let link = iface.link?;
            (self.link(link).other_end(node).node == neighbor).then_some(idx)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TopologyBuilder;
    use crate::node::{HostConfig, RouterConfig};

    #[test]
    fn iface_toward_finds_the_connecting_interface() {
        let mut b = TopologyBuilder::new();
        let a = b.router("a", RouterConfig::default());
        let c = b.router("c", RouterConfig::default());
        let h = b.host("h", HostConfig::default());
        b.link(a, c, SimDuration::from_millis(1), 0.0);
        b.link(c, h, SimDuration::from_millis(1), 0.0);
        let topo = b.build();
        let i = topo.iface_toward(a, c).unwrap();
        let link = topo.node(a).ifaces[i].link.unwrap();
        assert_eq!(topo.link(link).other_end(a).node, c);
        assert!(topo.iface_toward(a, h).is_none(), "a and h are not adjacent");
    }

    #[test]
    fn addr_owner_maps_every_interface() {
        let mut b = TopologyBuilder::new();
        let a = b.router("a", RouterConfig::default());
        let c = b.router("c", RouterConfig::default());
        b.link(a, c, SimDuration::from_millis(1), 0.0);
        let topo = b.build();
        for node in [a, c] {
            for iface in &topo.node(node).ifaces {
                assert_eq!(topo.owner_of(iface.addr), Some(node));
            }
        }
    }

    #[test]
    fn find_by_name() {
        let mut b = TopologyBuilder::new();
        let a = b.router("alpha", RouterConfig::default());
        let topo = b.build();
        assert_eq!(topo.find("alpha"), Some(a));
        assert_eq!(topo.find("beta"), None);
    }
}
