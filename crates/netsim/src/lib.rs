//! # pt-netsim — a deterministic packet-level network simulator
//!
//! The substrate that stands in for the Internet of the paper's study.
//! It is a discrete-event simulator over a graph of nodes (routers and
//! hosts) connected by links with delay and loss. Packets are the real
//! wire-format packets from [`pt_wire`]; routers decrement TTL, expire
//! packets with ICMP Time Exceeded (quoting the IP header plus eight
//! transport octets, exactly as RFC 792 prescribes), stamp responses from
//! a per-router 16-bit IP-ID counter, and balance load per-flow,
//! per-packet or per-destination.
//!
//! Everything the paper blames for traceroute anomalies is a node
//! attribute here:
//!
//! * per-flow load balancers hashing real header bytes ([`pt_wire::FlowPolicy`]),
//! * per-packet load balancers, a seeded draw per packet and router,
//! * routers that forward TTL-zero packets instead of expiring them,
//! * routers whose forwarding is broken and answer Destination Unreachable,
//! * NAT gateways that rewrite the source of everything leaving a stub,
//! * silent routers and lossy links (stars),
//! * token-bucket ICMP rate limiters (rate *and* burst — the dominant
//!   modern star cause),
//! * MPLS-LSP interiors that decrement TTL without sourcing ICMP,
//! * firewalls that drop UDP transit while passing TCP and ICMP,
//! * asymmetric return paths (per-direction link delays skewing RTTs),
//! * scheduled routing-table changes and transient forwarding loops.
//!
//! The simulator is fully deterministic given a seed: events pop in
//! `(time, birth)` order, a packet keeping the stamp it got when it
//! entered, and the random decisions (link loss, per-packet balancing)
//! are hashes of `(seed, node, birth, TTL)` — see [`sim`].

#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

pub mod addr;
pub mod arena;
pub mod builder;
pub mod node;
pub mod routing;
pub mod scenarios;
pub mod sim;
pub mod time;
pub mod topology;
pub mod transport;
pub mod wheel;

pub use addr::Ipv4Prefix;
pub use arena::{PacketArena, PacketRef};
pub use builder::TopologyBuilder;
pub use node::{BalancerKind, HostConfig, IcmpRateLimit, NatConfig, NodeKind, RouterConfig};
pub use routing::{NextHop, NodeRouting, RouteDelta, RoutingTable};
pub use sim::{splitmix64, SimStats, Simulator, SimulatorPool};
pub use time::{SimDuration, SimTime};
pub use topology::{LinkId, NodeId, Topology};
pub use transport::SimTransport;
pub use wheel::EventWheel;
