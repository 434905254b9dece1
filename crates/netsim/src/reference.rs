//! A deliberately naive simulator: the independent reference the
//! engine's tests hold it to. It is written from `sim.rs`'s module docs
//! and §2–§3 of the paper, not from the engine, and is built to be
//! obviously correct rather than fast:
//!
//! * every hop is an event, in a `BinaryHeap` keyed by `(time, birth)`,
//!   and each event owns its packet;
//! * every hop looks its route up afresh (longest prefix match) in the
//!   node's own copy of its routing table, and ownership of an address
//!   is a scan of the node's interfaces;
//! * every node's IP-ID counter, token bucket, routing table and
//!   delivery queue is held for the whole run, one entry per node.
//!
//! It restates the engine's keyed draws (a node's seed, a balancer's
//! salt, the draw per packet and the IP-ID a node starts from) instead
//! of calling them, so each formula is written twice, and shares only
//! the splitmix64 finalizer with the engine.

use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};
use std::net::Ipv4Addr;
use std::sync::Arc;

use pt_wire::icmp::{IcmpMessage, Quotation};
use pt_wire::ipv4::Ipv4Header;
use pt_wire::tcp::{flags, TcpSegment};
use pt_wire::{Packet, Transport, UnreachableCode};

use crate::addr::Ipv4Prefix;
use crate::node::{BalancerKind, NodeKind, ResponderAddr, RouterConfig, ROUTER_ICMP_TTL};
use crate::routing::{NextHop, RoutingTable};
use crate::splitmix64;
use crate::time::{SimDuration, SimTime};
use crate::topology::{Node, NodeId, Topology};

/// What happened, by kind: the engine's counters under the same names.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub forwarded: u64,
    pub time_exceeded_sent: u64,
    pub dest_unreachable_sent: u64,
    pub echo_replies_sent: u64,
    pub tcp_responses_sent: u64,
    pub dropped_loss: u64,
    pub dropped_silent: u64,
    pub dropped_rate_limited: u64,
    pub dropped_mpls_hidden: u64,
    pub dropped_filtered: u64,
    pub dropped_no_route: u64,
    pub dropped_blackhole: u64,
    pub dropped_host_mute: u64,
    pub nat_rewrites: u64,
    pub delivered: u64,
}

/// Something due at a node.
enum What {
    /// `packet` reaches `node` over interface `iface`, or, with `None`,
    /// `node` itself sends it.
    Hop { node: NodeId, iface: Option<usize>, packet: Packet },
    /// `node`'s route for `prefix` becomes `next_hop` (`None` removes it).
    Route { node: NodeId, prefix: Ipv4Prefix, next_hop: Option<NextHop> },
}

/// An event, ordered by `(at, birth)` alone.
struct Event {
    at: SimTime,
    /// The stamp of the packet (one per packet that enters the network
    /// or that a node originates) or of the route change.
    birth: u64,
    what: What,
}

impl PartialEq for Event {
    fn eq(&self, other: &Event) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Event) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Event) -> Ordering {
        (self.at, self.birth).cmp(&(other.at, other.birth))
    }
}

/// The ICMP error a router answers a packet it cannot pass on with.
#[derive(Clone, Copy)]
enum IcmpError {
    TimeExceeded,
    Unreachable(UnreachableCode),
}

/// The reference simulator over one topology and seed.
pub struct Reference {
    topo: Arc<Topology>,
    seed: u64,
    clock: SimTime,
    births: u64,
    queue: BinaryHeap<Reverse<Event>>,
    /// Every node's routing table, copied at the start.
    routes: Vec<RoutingTable>,
    /// Every node's IP-ID counter.
    ip_ids: Vec<u16>,
    /// Every router's token bucket: tokens, and when they were counted;
    /// `None` until its first ICMP, when it starts full.
    buckets: Vec<Option<(u32, SimTime)>>,
    /// Every node's deliveries, oldest first.
    inbox: Vec<VecDeque<(SimTime, Packet)>>,
    pub counters: Counters,
}

/// The root of everything `node` derives from the simulator's seed.
fn node_seed(seed: u64, node: NodeId) -> u64 {
    splitmix64(seed ^ splitmix64(node.0 as u64 + 1))
}

/// The random word the node whose seed is `node_seed` draws for the
/// packet born `birth` that leaves it with `ttl`, for `purpose` (1: a
/// per-packet balancer's egress, 2: the link's loss).
fn keyed_draw(node_seed: u64, birth: u64, ttl: u8, purpose: u64) -> u64 {
    splitmix64(node_seed ^ splitmix64((birth << 16) | (u64::from(ttl) << 8) | purpose))
}

/// Whether `node` owns `addr`.
fn owns(node: &Node, addr: Ipv4Addr) -> bool {
    node.ifaces.iter().any(|iface| iface.addr == addr)
}

impl Reference {
    pub fn new(topo: Arc<Topology>, seed: u64) -> Reference {
        let n = topo.len();
        Reference {
            routes: topo.nodes.iter().map(|node| node.routing.clone()).collect(),
            ip_ids: (0..n).map(|i| (node_seed(seed, NodeId(i)) >> 32) as u16).collect(),
            buckets: vec![None; n],
            inbox: vec![VecDeque::new(); n],
            topo,
            seed,
            clock: SimTime::ZERO,
            births: 0,
            queue: BinaryHeap::new(),
            counters: Counters::default(),
        }
    }

    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Packets on their way somewhere.
    pub fn in_flight(&self) -> usize {
        self.queue.iter().filter(|event| matches!(event.0.what, What::Hop { .. })).count()
    }

    /// The oldest packet delivered to `node`, if any.
    pub fn take_delivery(&mut self, node: NodeId) -> Option<(SimTime, Packet)> {
        self.inbox[node.0].pop_front()
    }

    /// `node` sends `packet`, now.
    pub fn inject(&mut self, node: NodeId, packet: Packet) {
        let birth = self.birth();
        let what = What::Hop { node, iface: None, packet };
        self.queue.push(Reverse(Event { at: self.clock, birth, what }));
    }

    pub fn schedule_route_set(
        &mut self,
        at: SimTime,
        node: NodeId,
        prefix: Ipv4Prefix,
        next_hop: Option<NextHop>,
    ) {
        let birth = self.birth();
        let what = What::Route { node, prefix, next_hop };
        self.queue.push(Reverse(Event { at, birth, what }));
    }

    /// Run every event due by `t`, and leave the clock at `t`.
    pub fn run_until(&mut self, t: SimTime) {
        while self.step_due(t) {}
        self.clock = self.clock.max(t);
    }

    pub fn run_to_quiescence(&mut self) {
        while self.step_due(SimTime(u64::MAX)) {}
    }

    fn step_due(&mut self, t: SimTime) -> bool {
        let Some(due) = self.queue.peek_mut().filter(|event| event.0.at <= t) else { return false };
        let Reverse(Event { at, birth, what }) = PeekMut::pop(due);
        self.clock = at;
        match what {
            What::Hop { node, iface, packet } => self.arrive(node, iface, packet, birth),
            What::Route { node, prefix, next_hop } => match next_hop {
                Some(next_hop) => self.routes[node.0].set(prefix, next_hop),
                None => _ = self.routes[node.0].remove(prefix),
            },
        }
        true
    }

    fn birth(&mut self) -> u64 {
        self.births += 1;
        self.births - 1
    }

    /// `packet` reaches `node`: delivered if `node` owns its
    /// destination; otherwise a host drops what it did not send, and a
    /// router expires it (TTL 1, or 0 past a zero-TTL forwarder),
    /// decrements it, filters UDP, answers it as broken, or sends it on.
    fn arrive(&mut self, node: NodeId, iface: Option<usize>, mut packet: Packet, birth: u64) {
        let topo = Arc::clone(&self.topo);
        if iface.is_some() {
            self.counters.forwarded += 1;
        }
        if owns(topo.node(node), packet.ip.dst) {
            return self.deliver(node, packet);
        }
        let cfg = match &topo.node(node).kind {
            NodeKind::Host(_) if iface.is_some() => {
                self.counters.dropped_no_route += 1;
                return;
            }
            NodeKind::Host(_) => return self.send(node, packet, birth),
            NodeKind::Router(cfg) => cfg,
        };
        if iface.is_some() {
            let ttl = packet.ip.ttl;
            if ttl == 0 || (ttl == 1 && !cfg.zero_ttl_forwarding) {
                if cfg.mpls_hidden {
                    self.counters.dropped_mpls_hidden += 1;
                } else {
                    self.answer_error(node, cfg, iface, &packet, IcmpError::TimeExceeded);
                }
                return;
            }
            packet.ip.ttl -= 1;
            if cfg.filter_udp && matches!(packet.transport, Transport::Udp(_)) {
                self.counters.dropped_filtered += 1;
                return;
            }
        }
        match cfg.broken {
            Some(code) => {
                self.answer_error(node, cfg, iface, &packet, IcmpError::Unreachable(code))
            }
            None => self.send(node, packet, birth),
        }
    }

    /// `node` sends `packet` out, now: a NAT gateway stamps its public
    /// address over an inside source, the route is looked up (a
    /// balancer picks an egress by flow, by packet or by destination),
    /// and the link may lose it.
    fn send(&mut self, node: NodeId, mut packet: Packet, birth: u64) {
        let topo = Arc::clone(&self.topo);
        if let NodeKind::Router(RouterConfig { nat: Some(nat), .. }) = &topo.node(node).kind {
            if nat.rewrites(packet.ip.src) {
                packet.ip.src = nat.public;
                self.counters.nat_rewrites += 1;
            }
        }
        let seed = node_seed(self.seed, node);
        let (dst, ttl) = (packet.ip.dst, packet.ip.ttl);
        let iface = match self.routes[node.0].lookup(dst) {
            None => {
                self.counters.dropped_no_route += 1;
                return;
            }
            Some(NextHop::Blackhole) => {
                self.counters.dropped_blackhole += 1;
                return;
            }
            Some(NextHop::Iface(iface)) => *iface,
            Some(NextHop::Balanced { kind, egresses }) => {
                let salt = splitmix64(seed ^ 0xabcd_ef01);
                let word = match kind {
                    BalancerKind::PerFlow(policy) => splitmix64(policy.flow_key(&packet).0 ^ salt),
                    BalancerKind::PerPacket => keyed_draw(seed, birth, ttl, 1),
                    BalancerKind::PerDestination => splitmix64(u64::from(u32::from(dst)) ^ salt),
                };
                egresses[(word % egresses.len() as u64) as usize]
            }
        };
        let Some(link) = topo.node(node).ifaces[iface].link else {
            self.counters.dropped_no_route += 1;
            return;
        };
        let link = topo.link(link);
        let uniform = (keyed_draw(seed, birth, ttl, 2) >> 11) as f64 / (1u64 << 53) as f64;
        if link.loss > 0.0 && uniform < link.loss {
            self.counters.dropped_loss += 1;
            return;
        }
        let to = link.other_end(node);
        let what = What::Hop { node: to.node, iface: Some(to.iface), packet };
        self.queue.push(Reverse(Event { at: self.clock + link.delay_from(node), birth, what }));
    }

    /// `packet`, addressed to `node`, is delivered there, and `node`
    /// answers what it answers, from the address probed.
    fn deliver(&mut self, node: NodeId, packet: Packet) {
        self.counters.delivered += 1;
        let answer = self.answer_local(node, &packet);
        let (probed, to, ttl) =
            (packet.ip.dst, packet.ip.src, self.topo.node(node).kind.icmp_initial_ttl());
        self.inbox[node.0].push_back((self.clock, packet));
        if let Some(answer) = answer {
            self.originate(node, probed, to, ttl, answer);
        }
    }

    /// `node`'s answer to a packet addressed to it: Port Unreachable to
    /// UDP, an Echo Reply to an Echo Request, and to a TCP SYN a SYN-ACK
    /// from an open port or an RST from a closed one. A router's ports
    /// are all closed, and it answers nothing if silent; a host answers
    /// what its config lets through.
    fn answer_local(&mut self, node: NodeId, packet: &Packet) -> Option<Transport> {
        let topo = Arc::clone(&self.topo);
        let (udp, open, rst): (bool, &[u16], bool) = match &topo.node(node).kind {
            NodeKind::Router(cfg) if cfg.silent => {
                self.counters.dropped_silent += 1;
                return None;
            }
            NodeKind::Router(_) => (true, &[], true),
            NodeKind::Host(host) => (host.udp_responds, &host.open_tcp_ports, host.tcp_responds),
        };
        Some(match &packet.transport {
            Transport::Icmp(IcmpMessage::EchoRequest { identifier, seq, payload }) => {
                self.counters.echo_replies_sent += 1;
                let (identifier, seq, payload) = (*identifier, *seq, payload.clone());
                Transport::Icmp(IcmpMessage::EchoReply { identifier, seq, payload })
            }
            Transport::Icmp(_) => return None,
            Transport::Tcp(seg) if seg.control & flags::SYN == 0 => return None,
            Transport::Udp(_) if udp => {
                self.icmp(packet, IcmpError::Unreachable(UnreachableCode::Port))
            }
            Transport::Tcp(seg) if rst || open.contains(&seg.dst_port) => {
                self.counters.tcp_responses_sent += 1;
                let mut answer = TcpSegment::syn_probe(seg.dst_port, seg.src_port, 0);
                answer.ack = seg.seq.wrapping_add(1);
                answer.control = if open.contains(&seg.dst_port) {
                    flags::SYN | flags::ACK
                } else {
                    flags::RST | flags::ACK
                };
                Transport::Tcp(answer)
            }
            _ => {
                self.counters.dropped_host_mute += 1;
                return None;
            }
        })
    }

    /// Router `node` answers `packet`, which it does not pass on, with
    /// an ICMP error, from the interface it arrived on (or its primary
    /// address) — unless it is silent or its token bucket is empty.
    fn answer_error(
        &mut self,
        node: NodeId,
        cfg: &RouterConfig,
        iface: Option<usize>,
        packet: &Packet,
        error: IcmpError,
    ) {
        if cfg.silent {
            self.counters.dropped_silent += 1;
            return;
        }
        if self.rate_limited(node, cfg) {
            self.counters.dropped_rate_limited += 1;
            return;
        }
        let topo = Arc::clone(&self.topo);
        let src = match iface {
            Some(i) if cfg.responder == ResponderAddr::IncomingIface => {
                topo.node(node).ifaces[i].addr
            }
            _ => topo.node(node).primary_addr(),
        };
        let answer = self.icmp(packet, error);
        self.originate(node, src, packet.ip.src, ROUTER_ICMP_TTL, answer);
    }

    /// Whether router `node`'s bucket is empty now; if not, the ICMP
    /// takes a token. The bucket starts full at the router's first ICMP
    /// and gains a token per whole `interval`, up to `burst`.
    fn rate_limited(&mut self, node: NodeId, cfg: &RouterConfig) -> bool {
        let Some(limit) = cfg.icmp_rate_limit else { return false };
        let now = self.clock;
        let (tokens, since) = match self.buckets[node.0] {
            None => (limit.burst, now),
            Some((tokens, since)) => {
                let interval = limit.interval.nanos().max(1);
                let minted = now.since(since).nanos() / interval;
                if minted == 0 {
                    (tokens, since)
                } else if u64::from(tokens).saturating_add(minted) >= u64::from(limit.burst) {
                    (limit.burst, now)
                } else {
                    (tokens + minted as u32, since + SimDuration::from_nanos(minted * interval))
                }
            }
        };
        self.buckets[node.0] = Some((tokens.saturating_sub(1), since));
        tokens == 0
    }

    /// The ICMP `error` about `offending`, quoting its IP header as
    /// received and its first eight transport octets.
    fn icmp(&mut self, offending: &Packet, error: IcmpError) -> Transport {
        let quotation =
            Quotation { ip: offending.ip, transport_prefix: offending.transport_prefix() };
        Transport::Icmp(match error {
            IcmpError::TimeExceeded => {
                self.counters.time_exceeded_sent += 1;
                IcmpMessage::TimeExceeded { quotation }
            }
            IcmpError::Unreachable(code) => {
                self.counters.dest_unreachable_sent += 1;
                IcmpMessage::DestUnreachable { code, quotation }
            }
        })
    }

    /// `node` sends a packet of its own, stamped with its next IP-ID: a
    /// new birth, routed out at once.
    fn originate(&mut self, node: NodeId, src: Ipv4Addr, dst: Ipv4Addr, ttl: u8, t: Transport) {
        let mut ip = Ipv4Header::new(src, dst, t.protocol(), ttl);
        ip.identification = self.ip_ids[node.0];
        self.ip_ids[node.0] = self.ip_ids[node.0].wrapping_add(1);
        let birth = self.birth();
        self.send(node, Packet::new(ip, t), birth);
    }
}
