//! Node behaviour configuration: routers (with every misbehaviour the
//! paper documents) and hosts.

use std::net::Ipv4Addr;

use pt_wire::{FlowPolicy, UnreachableCode};

use crate::addr::Ipv4Prefix;

/// How a load-balanced next hop spreads packets over its egress set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalancerKind {
    /// Hash the fields selected by the policy; equal keys, equal path.
    PerFlow(FlowPolicy),
    /// Uniform random egress per packet: a hash of the simulator seed,
    /// the router, the packet's birth stamp and its TTL.
    PerPacket,
    /// Hash the destination address only — indistinguishable from classic
    /// routing to a measurement tool, per the paper.
    PerDestination,
}

/// NAT / firewall-gateway source rewriting (§4.1, "Address rewriting").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NatConfig {
    /// The single public address stamped onto everything leaving the stub.
    pub public: Ipv4Addr,
    /// Packets whose source lies inside any of these prefixes get
    /// rewritten when the gateway forwards them.
    pub inside: Vec<Ipv4Prefix>,
}

impl NatConfig {
    /// Whether `addr` belongs to the NAT'd stub.
    fn is_inside(&self, addr: Ipv4Addr) -> bool {
        self.inside.iter().any(|p| p.contains(addr))
    }

    /// Whether the gateway stamps its public address over source `src`.
    pub(crate) fn rewrites(&self, src: Ipv4Addr) -> bool {
        src != self.public && self.is_inside(src)
    }
}

/// Token-bucket ICMP rate limiting — the dominant modern cause of
/// mid-route stars. The bucket holds up to `burst` tokens, refills one
/// token every `interval`, and each ICMP error the router sources (Time
/// Exceeded, or a broken router's Destination Unreachable) spends one
/// token; an empty bucket suppresses the ICMP. `burst == 1` is a plain
/// minimum interval between ICMPs; a larger burst lets the first few
/// back-to-back probes through before the limiter bites — exactly the
/// "resolves on retry at a lower rate" signature adaptive tracers
/// exploit.
///
/// All arithmetic is integer nanoseconds, so the limiter is a pure
/// function of probe arrival times and stays deterministic under the
/// fixed-seed discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IcmpRateLimit {
    /// Time to mint one token (1 / rate).
    pub interval: crate::time::SimDuration,
    /// Bucket capacity: ICMPs the router will source back-to-back.
    pub burst: u32,
}

/// Which source address a router stamps on the ICMP it originates.
///
/// Real deployments mix both: answering from the interface the offending
/// packet arrived on is the textbook behaviour, but many routers answer
/// from a fixed (loopback) address. The paper's figures assume the latter
/// when they show one `E0` answering via two different upstream paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResponderAddr {
    /// Answer from the interface the packet arrived on.
    #[default]
    IncomingIface,
    /// Answer from the router's first (primary/loopback) address.
    Fixed,
}

/// Initial TTL of the ICMP a router originates. Most routers use 255;
/// the paper's response-TTL heuristics rely on it being constant per
/// router.
pub(crate) const ROUTER_ICMP_TTL: u8 = 255;

/// Initial TTL of the packets a host originates.
const HOST_TTL: u8 = 64;

/// Router behaviour knobs. Defaults model a healthy router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterConfig {
    /// The Fig. 4 misconfiguration: forward packets whose TTL has reached
    /// zero instead of discarding them.
    pub zero_ttl_forwarding: bool,
    /// When set, the router cannot forward: probes that would be forwarded
    /// (TTL permitting) draw a Destination Unreachable with this code
    /// instead (§4.1, "Unreachability message").
    pub broken: Option<UnreachableCode>,
    /// Never send any ICMP (missing nodes; mid-route stars).
    pub silent: bool,
    /// Rewrite the source address of packets leaving a NAT'd stub.
    pub nat: Option<NatConfig>,
    /// Token-bucket ICMP rate limiting (rate *and* burst): mid-route
    /// stars on real routers.
    pub icmp_rate_limit: Option<IcmpRateLimit>,
    /// MPLS-tunnel interior: label-switch transit traffic (decrement
    /// TTL and forward as usual) but never source Time Exceeded —
    /// expired packets vanish inside the LSP. Direct probes to the
    /// router's own addresses still answer, unlike `silent`.
    pub mpls_hidden: bool,
    /// Firewall filter: silently drop UDP *transit* packets while
    /// letting TCP and ICMP through (the classic reason traceroute -U
    /// dies mid-path where TCP/ICMP variants get through).
    pub filter_udp: bool,
    /// Source-address selection for originated ICMP.
    pub responder: ResponderAddr,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            zero_ttl_forwarding: false,
            broken: None,
            silent: false,
            nat: None,
            icmp_rate_limit: None,
            mpls_hidden: false,
            filter_udp: false,
            responder: ResponderAddr::IncomingIface,
        }
    }
}

impl RouterConfig {
    /// A router that forwards TTL-zero packets (Fig. 4's `F`).
    pub fn zero_ttl_forwarder() -> Self {
        RouterConfig { zero_ttl_forwarding: true, ..Self::default() }
    }

    /// A router that cannot forward and answers `!H`/`!N`.
    pub fn broken_forwarding(code: UnreachableCode) -> Self {
        RouterConfig { broken: Some(code), ..Self::default() }
    }

    /// A router that never answers (probes through it still forward).
    pub fn silent() -> Self {
        RouterConfig { silent: true, ..Self::default() }
    }

    /// A NAT gateway (Fig. 5's `N`).
    pub fn nat_gateway(public: Ipv4Addr, inside: Vec<Ipv4Prefix>) -> Self {
        RouterConfig { nat: Some(NatConfig { public, inside }), ..Self::default() }
    }

    /// This router, answering from its primary address instead of the
    /// incoming interface.
    pub fn with_fixed_responder(mut self) -> Self {
        self.responder = ResponderAddr::Fixed;
        self
    }

    /// A router that rate-limits originated ICMP with a token bucket.
    pub fn rate_limited(interval: crate::time::SimDuration, burst: u32) -> Self {
        RouterConfig { icmp_rate_limit: Some(IcmpRateLimit { interval, burst }), ..Self::default() }
    }

    /// An MPLS-LSP interior router: forwards (and decrements TTL) but
    /// never sources Time Exceeded.
    pub fn mpls_interior() -> Self {
        RouterConfig { mpls_hidden: true, ..Self::default() }
    }

    /// A firewall that silently drops UDP transit while passing
    /// TCP and ICMP.
    pub fn udp_filter() -> Self {
        RouterConfig { filter_udp: true, ..Self::default() }
    }
}

/// Host behaviour knobs. Every host answers ICMP Echo Requests: the
/// study only targets pingable destinations, to avoid inflating anomaly
/// counts (§3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostConfig {
    /// Sends ICMP Port Unreachable for UDP to a closed port — the normal
    /// end-of-trace signal. A firewalled host stays mute (trailing stars).
    pub udp_responds: bool,
    /// TCP ports that answer SYN with SYN-ACK; everything else gets RST
    /// when `tcp_responds`.
    pub open_tcp_ports: Vec<u16>,
    /// Whether closed TCP ports send RST at all.
    pub tcp_responds: bool,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig { udp_responds: true, open_tcp_ports: vec![80], tcp_responds: true }
    }
}

impl HostConfig {
    /// A destination that answers everything (the common case in the
    /// study's pingable destination list).
    pub fn responsive() -> Self {
        Self::default()
    }

    /// A host behind a strict firewall: pingable (it made the destination
    /// list) but mute to UDP and TCP probes — produces trailing stars.
    pub fn firewalled() -> Self {
        HostConfig { udp_responds: false, open_tcp_ports: Vec::new(), tcp_responds: false }
    }
}

/// What a node is.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// A packet-forwarding router.
    Router(RouterConfig),
    /// An end host (traceroute source or destination).
    Host(HostConfig),
}

impl NodeKind {
    /// The router config, if this is a router.
    pub fn as_router(&self) -> Option<&RouterConfig> {
        match self {
            NodeKind::Router(r) => Some(r),
            NodeKind::Host(_) => None,
        }
    }

    /// The host config, if this is a host.
    pub fn as_host(&self) -> Option<&HostConfig> {
        match self {
            NodeKind::Host(h) => Some(h),
            NodeKind::Router(_) => None,
        }
    }

    /// Initial TTL for ICMP this node originates.
    pub fn icmp_initial_ttl(&self) -> u8 {
        match self {
            NodeKind::Router(_) => ROUTER_ICMP_TTL,
            NodeKind::Host(_) => HOST_TTL,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_router_is_healthy() {
        let r = RouterConfig::default();
        assert!(!r.zero_ttl_forwarding);
        assert!(r.broken.is_none());
        assert!(!r.silent);
        assert!(r.nat.is_none());
    }

    #[test]
    fn constructors_set_their_flag() {
        assert!(RouterConfig::zero_ttl_forwarder().zero_ttl_forwarding);
        assert_eq!(
            RouterConfig::broken_forwarding(UnreachableCode::Host).broken,
            Some(UnreachableCode::Host)
        );
        assert!(RouterConfig::silent().silent);
        let nat = RouterConfig::nat_gateway(
            Ipv4Addr::new(198, 51, 100, 1),
            vec![Ipv4Prefix::new(Ipv4Addr::new(10, 99, 0, 0), 16)],
        );
        let cfg = nat.nat.as_ref().unwrap();
        assert!(cfg.is_inside(Ipv4Addr::new(10, 99, 3, 4)));
        assert!(!cfg.is_inside(Ipv4Addr::new(10, 98, 3, 4)));
    }

    #[test]
    fn fault_constructors_set_their_knob() {
        use crate::time::SimDuration;
        let rl = RouterConfig::rate_limited(SimDuration::from_millis(10), 3);
        assert_eq!(
            rl.icmp_rate_limit,
            Some(IcmpRateLimit { interval: SimDuration::from_millis(10), burst: 3 })
        );
        assert!(RouterConfig::mpls_interior().mpls_hidden);
        assert!(!RouterConfig::mpls_interior().silent, "MPLS hiding is not plain silence");
        assert!(RouterConfig::udp_filter().filter_udp);
    }

    #[test]
    fn firewalled_host_is_pingable_but_mute() {
        let h = HostConfig::firewalled();
        assert!(!h.udp_responds);
        assert!(!h.tcp_responds);
        assert!(h.open_tcp_ports.is_empty());
    }

    #[test]
    fn kind_accessors() {
        let r = NodeKind::Router(RouterConfig::default());
        let h = NodeKind::Host(HostConfig::default());
        assert!(r.as_router().is_some());
        assert!(r.as_host().is_none());
        assert!(h.as_host().is_some());
        assert_eq!(r.icmp_initial_ttl(), 255);
        assert_eq!(h.icmp_initial_ttl(), 64);
    }
}
