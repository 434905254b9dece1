//! The discrete-event engine: packet forwarding, TTL expiry, ICMP
//! generation, load balancing, NAT rewriting and routing dynamics.
//!
//! **Order and draws.** Events pop in `(time, birth)` order: a packet is
//! stamped once, when it enters the simulator or a node originates it,
//! and keeps that birth across every hop; a route change is stamped when
//! scheduled. The two random decisions — link loss and per-packet
//! balancing — are each one hash of `(seed, node, birth, TTL, purpose)`
//! ([`draw`]), never a stream some node advances. So what a router does
//! to a packet it only passes on depends on the packet and the routing
//! tables, not on which other packets came by first.
//!
//! **Walks.** Those hops are therefore not run as events. Leaving a
//! node, a packet *walks* ([`SimState::walk`]) across every router that
//! would merely decrement its TTL and forward it, and one [`Arrival`] is
//! scheduled where something else happens: expiry, delivery, a host, a
//! filter, a fault, a NAT rewrite, a drop, or the instant of the next
//! pending route change. The walk reads the packet and the next-hop
//! table and writes only the queue (and the table, on a miss); the TTL
//! it owes and the `forwarded` count are settled when that arrival pops,
//! and a route change scheduled under a walk in progress cuts it back
//! ([`Simulator::schedule_route_set`]). A router crossed costs one table
//! probe, a test of its class against the TTL (the packet itself only at
//! a filter or NAT gateway) and, on a lossy link, one draw.
//!
//! **The next-hop table.** Everything a walk reads about a hop — the
//! neighbour and the interface it lands on, the link's delay and loss,
//! the leaving node's draw seed, and the neighbour's [`Class`]: whether
//! it owns the destination, and if not, whether it passes packets on —
//! is a function of `(routing tables, node, ip.dst)`, and every probe of
//! a trace crosses the routers its predecessor crossed, answers included
//! (§2.1). [`SimState::resolve`] finds it by the longest-prefix lookup
//! and the address index when a unit first needs it and keeps it in a
//! direct-mapped table of [`HOP_SLOTS`] entries keyed by `(node, dst)`,
//! so a probe's hop and its answer's hop through one router are both
//! resident; [`SimState::hop`] reads it there. An entry holds while its stamp is the simulator's, which
//! [`Simulator::reset`] and every *applied* route change bump: a change
//! scheduled but not applied already stops walks at its instant. The
//! table is never swept. It stores single-interface routes and
//! per-destination balancing (a function of `(seed, node, dst)`);
//! per-flow and per-packet balancing, blackholes, missing routes and
//! unattached interfaces are resolved every time. A lossy link's draw is
//! the packet's own, taken after the entry is read.
//!
//! A run is a pure function of `(topology, seed, injected packets,
//! scheduled route changes)` — and the same function whether walks are
//! fused or cut after every hop and whether hops come from the table,
//! which the tests below check with a hop limit and a table switch only
//! they can set. The schedule is a deque kept sorted by the
//! key ([`crate::wheel::EventWheel`]): each in-flight packet is one
//! pending stateful arrival, a tracer's window a dozen or so, and no
//! event allocates.
//!
//! In-flight packets are arena-resident ([`crate::arena::PacketArena`]):
//! events move 4-byte [`PacketRef`] handles, stateful arrivals mutate
//! TTL/NAT fields in place, and both slots and payload buffers are
//! recycled, so steady-state forwarding performs no per-event heap
//! allocation. Node state is *epoch-lazy*: [`Simulator::reset`] bumps an
//! epoch instead of touching every node, and a node's IP-ID counter,
//! rate-limiter fill and routing delta are re-derived from the seed on
//! first use after a reset. That makes reset O(in-flight + delivered),
//! which is what lets the campaign runner afford a pristine simulator
//! per `(destination, round)` work unit ([`SimulatorPool`]).

use std::collections::VecDeque;
use std::net::Ipv4Addr;
use std::sync::Arc;

use pt_wire::icmp::{IcmpMessage, Quotation};
use pt_wire::ipv4::Ipv4Header;
use pt_wire::tcp::{flags as tcp_flags, TcpSegment};
use pt_wire::{Packet, Transport, UnreachableCode};

use crate::addr::Ipv4Prefix;
use crate::arena::{PacketArena, PacketRef};
use crate::node::{BalancerKind, HostConfig, NodeKind, RouterConfig};
use crate::routing::{NextHop, NodeRouting, RouteDelta};
use crate::time::{SimDuration, SimTime};
use crate::topology::{Endpoint, NodeId, Topology};
use crate::wheel::EventWheel;

/// Counters describing everything the simulator did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Packets forwarded router-to-router (per traversal), counted when
    /// the walk that made the traversals ends: at quiescence it is every
    /// link crossed, mid-flight it trails by the walks in progress.
    pub forwarded: u64,
    /// ICMP Time Exceeded messages generated.
    pub time_exceeded_sent: u64,
    /// ICMP Destination Unreachable messages generated.
    pub dest_unreachable_sent: u64,
    /// ICMP Echo Replies generated.
    pub echo_replies_sent: u64,
    /// TCP SYN-ACK / RST responses generated.
    pub tcp_responses_sent: u64,
    /// Packets lost on links.
    pub dropped_loss: u64,
    /// Packets a silent router expired without answering.
    pub dropped_silent: u64,
    /// ICMP suppressed by rate limiting.
    pub dropped_rate_limited: u64,
    /// Packets that expired inside an MPLS tunnel (no Time Exceeded).
    pub dropped_mpls_hidden: u64,
    /// UDP transit packets dropped by protocol filters.
    pub dropped_filtered: u64,
    /// Packets dropped for lack of a route.
    pub dropped_no_route: u64,
    /// Packets swallowed by blackhole routes.
    pub dropped_blackhole: u64,
    /// Packets a host refused to answer (firewalled destination).
    pub dropped_host_mute: u64,
    /// Source-address rewrites performed by NAT gateways.
    pub nat_rewrites: u64,
    /// Packets delivered into node inboxes.
    pub delivered: u64,
}

#[derive(Debug)]
enum EventKind {
    /// A packet reaches the next node that does more than pass it on.
    Arrival(Arrival),
    /// Install (`Some`) or remove (`None`) a route at `node` — the
    /// routing-dynamics hook.
    RouteSet { node: NodeId, prefix: Ipv4Prefix, next_hop: Option<NextHop> },
}

/// A packet's next stateful arrival: where its walk ends, and what it
/// takes to settle the walk (or walk it again). The packet itself stays
/// parked in the arena, untouched since it left `from`: the event (and
/// every queue insert that shifts it) carries only the 4-byte handle.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    node: NodeId,
    /// `None` for a packet `node` itself injects.
    iface_in: Option<usize>,
    packet: PacketRef,
    /// Routers the walk crossed without stopping — the TTL the packet
    /// owes when it arrives.
    transits: u8,
    /// Whether `node` owns the packet's destination (delivered there).
    local: bool,
    /// The node the walk left, and when: the last place the packet
    /// changed any state, so the walk can be taken again from there.
    from: (NodeId, SimTime),
    /// When the packet reaches the last of those routers (`from`'s time
    /// when there is none).
    last_transit: SimTime,
}

#[derive(Debug, Clone)]
struct NodeState {
    /// Copy-on-write routing changes over the topology's shared base
    /// table (borrowed at lookup time, never copied). A pristine delta
    /// is one null word; only routes changed by dynamics occupy memory.
    routing: RouteDelta,
    /// The router's internal 16-bit counter stamped into the IP
    /// Identification of packets it originates.
    ip_id: u16,
    /// Last time this node generated an ICMP (for rate limiting).
    last_icmp: Option<SimTime>,
    /// Token-bucket rate-limiter fill. `u32::MAX` is the untouched
    /// sentinel (the bucket starts full on first use); the capacity
    /// lives in the router's immutable config, so the slot stays a
    /// pure function of `(seed, idx)`.
    icmp_tokens: u32,
    /// When `icmp_tokens` was last settled (whole-token boundaries
    /// only, so fractional refill credit carries forward exactly).
    icmp_tokens_at: SimTime,
    /// Whether this node is already listed in `SimState::dirty_inboxes`
    /// for the current epoch (keeps that list O(distinct nodes), not
    /// O(deliveries)).
    inbox_dirty: bool,
    /// Which simulator epoch this slot was derived for. A slot whose
    /// epoch trails the simulator's is *stale*: its contents are
    /// leftovers from before the last [`Simulator::reset`] and must be
    /// re-derived before use ([`SimState::freshen`]).
    epoch: u64,
}

impl NodeState {
    /// Derive node `idx`'s state for `epoch` from the simulator seed —
    /// a pure function of `(seed, idx)`, so it does not matter *when*
    /// (or in what order) stale slots get re-derived.
    fn fresh(seed: u64, idx: usize, epoch: u64) -> NodeState {
        NodeState {
            // O(1) and allocation-free: the base table stays in the
            // topology, the delta starts empty.
            routing: RouteDelta::new(),
            ip_id: (node_seed(seed, NodeId(idx)) >> 32) as u16,
            last_icmp: None,
            icmp_tokens: u32::MAX,
            icmp_tokens_at: SimTime::ZERO,
            inbox_dirty: false,
            epoch,
        }
    }
}

/// The simulator: owns runtime state over a shared immutable topology.
#[derive(Debug)]
pub struct Simulator {
    topo: Arc<Topology>,
    state: SimState,
}

/// Everything a simulator mutates. Held apart from `topo` so the event
/// methods below borrow the topology and the state as disjoint fields:
/// they take `&Topology` and never see the `Arc`, so no event touches
/// the reference count worker threads share.
#[derive(Debug)]
struct SimState {
    clock: SimTime,
    /// The next birth stamp ([`SimState::stamp`]).
    next_seq: u64,
    /// Pending events, popped in exact `(time, birth)` order — a sorted
    /// deque a handful of entries long, so `schedule`/`step` touch a few
    /// entries and allocate nothing per event (see [`crate::wheel`]).
    queue: EventWheel<EventKind>,
    /// When the earliest pending `RouteSet` applies ([`NEVER`] if none
    /// is pending). No walk crosses a router at or after it.
    route_horizon: SimTime,
    /// Links a walk may cross before it must schedule an arrival. The
    /// tests' reference engine: at 1 every hop is an event again.
    #[cfg(test)]
    hop_limit: u32,
    /// The next-hop table ([`SimState::hop`]), direct-mapped on
    /// `(node, dst)`.
    hops: Box<[Hop; HOP_SLOTS]>,
    /// The stamp an entry must carry to be read: bumped by
    /// [`Simulator::reset`] and by every route change applied.
    hop_stamp: u64,
    /// `false` stores nothing in the table, so every hop is resolved
    /// afresh: the tests' reference engine.
    #[cfg(test)]
    table: bool,
    /// Longest-prefix lookups made: the tests' layer number.
    #[cfg(test)]
    lookups: u64,
    nodes: Vec<NodeState>,
    /// Delivery lanes, one per node, indexed by `NodeId` — no hashing
    /// anywhere on the delivery or drain path.
    inbox: Vec<VecDeque<(SimTime, Packet)>>,
    /// Nodes whose lane went non-empty since the last reset, so reset
    /// drains O(touched) lanes instead of sweeping every node.
    dirty_inboxes: Vec<NodeId>,
    stats: SimStats,
    /// Recycled buffer for quoting offending packets into ICMP, so the
    /// response path performs no per-packet allocation.
    scratch: Vec<u8>,
    /// Slab holding every in-flight packet; events carry [`PacketRef`]s.
    arena: PacketArena,
    /// Seed all node state derives from (current epoch's).
    seed: u64,
    /// Bumped by [`Simulator::reset`]; node slots lazily re-derive when
    /// their recorded epoch trails this.
    epoch: u64,
}

/// Later than any event.
const NEVER: SimTime = SimTime(u64::MAX);

/// The splitmix64 finalizer: the one seed-chain hash every engine crate
/// derives its per-node, per-unit and per-retry draws from. Digests
/// depend on its exact output.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The root of everything node `node` derives from the simulator seed.
fn node_seed(seed: u64, node: NodeId) -> u64 {
    splitmix64(seed ^ splitmix64(node.0 as u64 + 1))
}

/// Stable salt mixed into a node's per-flow/per-destination hashes, from
/// its [`node_seed`], so distinct routers do not all pick the same
/// egress index for the same flow. Derived where a balanced hop needs
/// it, not stored.
fn balancer_salt(node_seed: u64) -> u64 {
    splitmix64(node_seed ^ 0xabcd_ef01)
}

/// What a keyed draw decides; part of the key, so one packet's balancer
/// draw and loss draw at one node are independent.
#[derive(Debug, Clone, Copy)]
enum Draw {
    Egress = 1,
    Loss = 2,
}

/// The random word a node, whose [`node_seed`] is `node_seed`, draws for
/// the packet born `birth` as it leaves with `ttl`: a pure function of
/// the key. The TTL is there because a looping packet crosses a node
/// more than once; the birth (not the packet's bytes) so a retried
/// probe draws afresh.
fn draw(node_seed: u64, birth: u64, ttl: u8, purpose: Draw) -> u64 {
    let packet = (birth << 16) | (u64::from(ttl) << 8) | purpose as u64;
    splitmix64(node_seed ^ splitmix64(packet))
}

/// Entries in the next-hop table (24 KiB of [`Hop`]s). A campaign unit
/// stores at most 41 distinct `(node, dst)` pairs on any `ptbench`
/// workload (p99 31–35, mean 22; `docs/PERFORMANCE.md`), so 512 slots
/// hold a unit at under 8 % load, and collisions cost 0.9–2.0 % of hops
/// a second lookup (1024 slots halve that at twice the memory; 256
/// double it).
const HOP_SLOTS: usize = 512;

/// What the node at a hop's far end does with a packet addressed to
/// the hop's destination — what decides whether a walk ends there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Class {
    /// It owns the destination: the packet is delivered there.
    Dest,
    /// A host or a broken router: it passes nothing on.
    #[default]
    Stops,
    /// A router that passes on what does not expire there (TTL > 1).
    Plain,
    /// A zero-TTL forwarder: passes TTL 1 on as 0 (TTL > 0).
    ZeroTtl,
    /// A UDP filter or a NAT gateway: whether it passes a packet on
    /// depends on the packet, so the whole check is made each time.
    Checks,
}

impl Class {
    /// The class of `node` for packets addressed to `dst`. The builder's
    /// address index, not a scan of the node's interfaces: core routers
    /// carry hundreds.
    fn of(topo: &Topology, node: NodeId, dst: Ipv4Addr) -> Class {
        if topo.owner_of(dst) == Some(node) {
            return Class::Dest;
        }
        match &topo.node(node).kind {
            NodeKind::Host(_) => Class::Stops,
            NodeKind::Router(cfg) if cfg.broken.is_some() => Class::Stops,
            NodeKind::Router(cfg) if cfg.filter_udp || cfg.nat.is_some() => Class::Checks,
            NodeKind::Router(cfg) if cfg.zero_ttl_forwarding => Class::ZeroTtl,
            NodeKind::Router(_) => Class::Plain,
        }
    }
}

/// Where a packet leaving a node lands: what the walk reads of a hop.
#[derive(Debug, Clone, Copy)]
struct Next {
    to: Endpoint,
    delay: SimDuration,
    class: Class,
}

impl Next {
    /// Whether `packet`, reaching `self.to` with `ttl`, is only
    /// decremented and passed on there: a router at which it does not
    /// expire, that neither filters it nor is broken nor rewrites its
    /// source. (`process_arrival` is what happens otherwise.)
    fn passes(&self, topo: &Topology, arena: &PacketArena, packet: PacketRef, ttl: u8) -> bool {
        match self.class {
            Class::Dest | Class::Stops => false,
            Class::Plain => ttl > 1,
            Class::ZeroTtl => ttl > 0,
            Class::Checks => match &topo.node(self.to.node).kind {
                NodeKind::Router(cfg) => {
                    let packet = arena.get(packet);
                    !(expires_at(cfg, ttl)
                        || (cfg.filter_udp && matches!(packet.transport, Transport::Udp(_)))
                        || cfg.nat.as_ref().is_some_and(|nat| nat.rewrites(packet.ip.src)))
                }
                NodeKind::Host(_) => false,
            },
        }
    }
}

/// A next-hop table entry: `node`'s hop toward `dst` under the tables of
/// `stamp`, and what the leaving packet's loss draw needs, in 48 bytes:
/// node ids and the interface index are narrowed, and a hop whose ids
/// do not fit is resolved every time instead of stored. The default is
/// vacant: stamps start at 1.
#[derive(Debug, Clone, Copy, Default)]
struct Hop {
    stamp: u64,
    /// `node`'s [`node_seed`].
    seed: u64,
    loss: f64,
    delay: SimDuration,
    node: u32,
    dst: u32,
    to: u32,
    iface: u16,
    class: Class,
}

/// `(node, dst)`'s slot: the top bits of a Fibonacci hash of the pair.
fn hop_slot(node: NodeId, dst: Ipv4Addr) -> usize {
    let key = ((node.0 as u64) << 32) | u64::from(u32::from(dst));
    (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - HOP_SLOTS.trailing_zeros())) as usize
}

impl Simulator {
    /// Build a simulator over `topology`, deriving all randomness from
    /// `seed`.
    pub fn new(topology: Arc<Topology>, seed: u64) -> Self {
        // Node slots start stale (epoch 0 < 1) and derive themselves
        // from `seed` on first touch, so construction clones one cheap
        // template per node instead of deriving every slot up front.
        let template = NodeState {
            routing: RouteDelta::new(),
            ip_id: 0,
            last_icmp: None,
            icmp_tokens: u32::MAX,
            icmp_tokens_at: SimTime::ZERO,
            inbox_dirty: false,
            epoch: 0,
        };
        let state = SimState {
            nodes: vec![template; topology.nodes.len()],
            inbox: (0..topology.nodes.len()).map(|_| VecDeque::new()).collect(),
            clock: SimTime::ZERO,
            next_seq: 0,
            queue: EventWheel::new(),
            route_horizon: NEVER,
            #[cfg(test)]
            hop_limit: u32::MAX,
            hops: Box::new([Hop::default(); HOP_SLOTS]),
            hop_stamp: 1,
            #[cfg(test)]
            table: true,
            #[cfg(test)]
            lookups: 0,
            dirty_inboxes: Vec::new(),
            stats: SimStats::default(),
            scratch: Vec::new(),
            arena: PacketArena::new(),
            seed,
            epoch: 1,
        };
        Simulator { topo: topology, state }
    }

    /// Rewind to the state `Simulator::new(topology, seed)` would
    /// produce, while keeping every allocation warm: the event queue's
    /// capacity, the arena's slots and payload-buffer pool, the inbox
    /// deques and the ICMP scratch buffer all survive. Node state is
    /// epoch-lazy, so the cost is O(in-flight + undelivered packets),
    /// *not* O(nodes) — cheap enough to call once per `(destination,
    /// round)` campaign work unit.
    pub fn reset(&mut self, seed: u64) {
        let st = &mut self.state;
        // clear() keeps the queue's capacity warm.
        let arena = &mut st.arena;
        st.queue.clear(|kind| {
            if let EventKind::Arrival(arrival) = kind {
                arena.release(arrival.packet);
            }
        });
        st.route_horizon = NEVER;
        for node in st.dirty_inboxes.drain(..) {
            for (_, packet) in st.inbox[node.0].drain(..) {
                st.arena.recycle_packet(packet);
            }
        }
        debug_assert!(st.arena.is_empty(), "in-flight packet leaked across reset");
        st.clock = SimTime::ZERO;
        st.next_seq = 0;
        st.stats = SimStats::default();
        st.seed = seed;
        st.epoch += 1;
        st.hop_stamp += 1;
    }

    /// The shared topology.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.state.clock
    }

    /// Activity counters so far.
    pub fn stats(&self) -> SimStats {
        self.state.stats
    }

    /// Inject a packet originated by `node` at the current time. A host
    /// routes its own packet out at once — the packet's first event is
    /// where its walk ends. A packet addressed to `node` itself, one a
    /// router originates, and any packet injected at the instant of a
    /// route change still pending are an arrival at `node`, now.
    pub fn inject(&mut self, node: NodeId, packet: Packet) {
        let st = &mut self.state;
        let local = self.topo.owner_of(packet.ip.dst) == Some(node);
        let routed_out =
            self.topo.node(node).kind.as_host().is_some() && !local && st.clock < st.route_horizon;
        let packet = st.arena.alloc(packet);
        let birth = st.stamp();
        if routed_out {
            st.forward(&self.topo, node, packet, birth);
        } else {
            let origin = Arrival {
                node,
                iface_in: None,
                packet,
                transits: 0,
                local,
                from: (node, st.clock),
                last_transit: st.clock,
            };
            st.queue.schedule(st.clock, birth, EventKind::Arrival(origin));
        }
    }

    /// Hand a packet that already left the simulator (a consumed inbox
    /// delivery) back, so its payload buffer rejoins the recycling pool.
    pub fn recycle(&mut self, packet: Packet) {
        self.state.arena.recycle_packet(packet);
    }

    /// Number of packets currently in flight (arena-resident).
    pub fn in_flight(&self) -> usize {
        self.state.arena.live()
    }

    /// Total arena slots ever created. Bounded in-flight traffic stops
    /// growing this after warm-up — the zero-allocation evidence the
    /// tests check and `ptbench` reports.
    pub fn arena_slots(&self) -> usize {
        self.state.arena.slot_count()
    }

    /// Install (`Some`) or remove (`None`) a route at `node` at time `at`
    /// — the hook for routing changes and transient forwarding loops.
    ///
    /// A walk already scheduled may have run ahead of this change: it
    /// crosses a router at or after `at`. No route change has applied
    /// since such a walk was taken — one pending then would have stopped
    /// it short of `at`, which is not in the past — so the tables it
    /// read are the tables now, and taking it again from where it
    /// started gives the same hops, this time stopping at `at`. A walk
    /// whose routers are all crossed before `at` stands as it is (and
    /// must: the tables it read may have changed since).
    pub fn schedule_route_set(
        &mut self,
        at: SimTime,
        node: NodeId,
        prefix: Ipv4Prefix,
        next_hop: Option<NextHop>,
    ) {
        let st = &mut self.state;
        let stamp = st.stamp();
        st.queue.schedule(at, stamp, EventKind::RouteSet { node, prefix, next_hop });
        st.route_horizon = st.route_horizon.min(at);
        let ran_ahead = |kind: &EventKind| match kind {
            EventKind::Arrival(a) if a.transits > 0 && a.last_transit >= at => Some(*a),
            _ => None,
        };
        // Once per pending event at most: taken again, a walk stops by `at`.
        for _ in 0..st.queue.len() {
            let Some((birth, arrival)) = st.queue.take_first(ran_ahead) else { break };
            let (from, left_at) = arrival.from;
            st.walk(&self.topo, from, left_at, arrival.packet, birth);
        }
    }

    /// Process a single event — a packet's next stateful arrival or a
    /// route change — advancing the clock to it: the clock does not stop
    /// at the routers a packet merely crosses. Returns `false` when the
    /// queue is empty.
    pub fn step(&mut self) -> bool {
        self.step_due(NEVER)
    }

    /// Process the next event if it is scheduled at or before `t`,
    /// advancing the clock to it — one queue query decides both. Returns
    /// `false`, leaving the clock alone, when nothing is due by `t`.
    pub fn step_due(&mut self, t: SimTime) -> bool {
        let st = &mut self.state;
        let Some((time, birth, kind)) = st.queue.pop_due(t) else { return false };
        debug_assert!(time >= st.clock, "event from the past");
        st.clock = time;
        match kind {
            EventKind::Arrival(Arrival { node, iface_in, packet, transits, local, .. }) => {
                // Settle the walk: one link into `node` (unless `node`
                // injected the packet), one more and one TTL for every
                // router crossed on the way.
                st.stats.forwarded += u64::from(transits) + u64::from(iface_in.is_some());
                st.arena.get_mut(packet).ip.ttl -= transits;
                if local {
                    st.deliver_local(&self.topo, node, packet);
                } else {
                    st.process_arrival(&self.topo, node, iface_in, packet, birth);
                }
            }
            EventKind::RouteSet { node, prefix, next_hop } => {
                st.freshen(node);
                let routing = &mut st.nodes[node.0].routing;
                match next_hop {
                    Some(nh) => routing.set(prefix, nh),
                    None => routing.remove(&self.topo.node(node).routing, prefix),
                }
                // Every hop resolved so far read the tables before this.
                st.hop_stamp += 1;
                st.route_horizon = st
                    .queue
                    .iter()
                    .find_map(|(at, kind)| matches!(kind, EventKind::RouteSet { .. }).then_some(at))
                    .unwrap_or(NEVER);
            }
        }
        true
    }

    /// Process every event scheduled at or before `t`; the clock finishes
    /// at exactly `t`.
    pub fn run_until(&mut self, t: SimTime) {
        while self.step_due(t) {}
        if self.state.clock < t {
            self.state.clock = t;
        }
    }

    /// Drain every pending event (packets die by TTL, so this terminates).
    pub fn run_to_quiescence(&mut self) {
        while self.step() {}
    }

    /// Pop the oldest delivery to `node`, if any.
    pub fn pop_delivery(&mut self, node: NodeId) -> Option<(SimTime, Packet)> {
        self.state.inbox[node.0].pop_front()
    }

    /// A cleared payload buffer from the arena's recycling pool (fresh
    /// when the pool is empty). Probe builders grab buffers here — via
    /// the tracer-side `Transport::grab_payload` hook — so the payloads
    /// of released responses circulate back into new probes and the
    /// probe→response cycle stops allocating after warm-up.
    pub fn grab_payload(&mut self) -> Vec<u8> {
        self.state.arena.grab_payload()
    }

    /// Read `node`'s live routing state (tests and dynamics helpers):
    /// the shared base table merged with this simulator's delta. A node
    /// not yet touched since the last reset shows a pristine delta.
    pub fn routing_of(&self, node: NodeId) -> NodeRouting<'_> {
        self.state.routing(&self.topo, node)
    }
}

impl SimState {
    /// Re-derive `node`'s state if it is stale (first touch after a
    /// reset). Every path that reads or writes mutable node state goes
    /// through here first.
    #[inline]
    fn freshen(&mut self, node: NodeId) {
        let st = &mut self.nodes[node.0];
        if st.epoch != self.epoch {
            *st = NodeState::fresh(self.seed, node.0, self.epoch);
        }
    }

    /// The next birth stamp: one per packet entering or originated in
    /// the simulator, one per scheduled route change.
    fn stamp(&mut self) -> u64 {
        let stamp = self.next_seq;
        self.next_seq += 1;
        stamp
    }

    // ------------------------------------------------------------------
    // Packet processing
    // ------------------------------------------------------------------

    /// A packet not addressed to `node` arrives there. Node config is
    /// *borrowed* from `topo` for the whole arrival — the hot path clones
    /// no NodeKind/config, and the packet itself stays parked in the
    /// arena.
    fn process_arrival(
        &mut self,
        topo: &Topology,
        node: NodeId,
        iface_in: Option<usize>,
        packet: PacketRef,
        birth: u64,
    ) {
        match &topo.node(node).kind {
            NodeKind::Host(_) => {
                if iface_in.is_none() {
                    // Hosts route only their own packets (via gateway).
                    self.forward(topo, node, packet, birth);
                } else {
                    // A host never forwards transit traffic.
                    self.stats.dropped_no_route += 1;
                    self.arena.release(packet);
                }
            }
            NodeKind::Router(cfg) => {
                if iface_in.is_some() {
                    if expires_at(cfg, self.arena.get(packet).ip.ttl) {
                        if cfg.mpls_hidden {
                            // LSP interior: the expired packet vanishes
                            // inside the tunnel — no Time Exceeded.
                            self.stats.dropped_mpls_hidden += 1;
                            self.arena.release(packet);
                            return;
                        }
                        // Expired: quote the packet exactly as received —
                        // probe TTL 1 normally, 0 past a zero-TTL forwarder.
                        self.expire(topo, node, iface_in, cfg, packet);
                        return;
                    }
                    // Normal decrement; the Fig. 4 misconfiguration sends
                    // TTL 1 onward as TTL 0.
                    self.arena.get_mut(packet).ip.ttl -= 1;
                    if cfg.filter_udp
                        && matches!(self.arena.get(packet).transport, Transport::Udp(_))
                    {
                        // Firewall: UDP transit dies here, silently;
                        // TCP and ICMP pass (and probes addressed to
                        // the filter itself answered above).
                        self.stats.dropped_filtered += 1;
                        self.arena.release(packet);
                        return;
                    }
                }
                if let Some(code) = cfg.broken {
                    self.respond_unreachable(topo, node, iface_in, cfg, packet, code);
                    return;
                }
                self.forward(topo, node, packet, birth);
            }
        }
    }

    fn deliver_local(&mut self, topo: &Topology, node: NodeId, packet: PacketRef) {
        self.stats.delivered += 1;
        let packet = self.arena.take(packet);
        let probed_addr = packet.ip.dst;
        let response = match &topo.node(node).kind {
            NodeKind::Host(h) => self.host_response(node, h, probed_addr, &packet),
            NodeKind::Router(r) => self.router_local_response(node, r, probed_addr, &packet),
        };
        self.freshen(node);
        let st = &mut self.nodes[node.0];
        if !st.inbox_dirty {
            st.inbox_dirty = true;
            self.dirty_inboxes.push(node);
        }
        self.inbox[node.0].push_back((self.clock, packet));
        if let Some(resp) = response {
            self.originate(topo, node, resp);
        }
    }

    fn host_response(
        &mut self,
        node: NodeId,
        cfg: &HostConfig,
        probed_addr: Ipv4Addr,
        packet: &Packet,
    ) -> Option<Packet> {
        match &packet.transport {
            Transport::Udp(_) => {
                if !cfg.udp_responds {
                    self.stats.dropped_host_mute += 1;
                    return None;
                }
                self.stats.dest_unreachable_sent += 1;
                Some(self.icmp_response(
                    node,
                    probed_addr,
                    cfg.initial_ttl,
                    packet,
                    IcmpKind::Unreachable(UnreachableCode::Port),
                ))
            }
            Transport::Icmp(IcmpMessage::EchoRequest { identifier, seq, payload }) => {
                if !cfg.pingable {
                    self.stats.dropped_host_mute += 1;
                    return None;
                }
                self.stats.echo_replies_sent += 1;
                // Echo the payload through a pooled buffer: once the
                // pool is warm the reply path allocates nothing.
                let mut echoed = self.arena.grab_payload();
                echoed.extend_from_slice(payload);
                let reply =
                    IcmpMessage::EchoReply { identifier: *identifier, seq: *seq, payload: echoed };
                Some(self.build_response(
                    node,
                    probed_addr,
                    packet.ip.src,
                    cfg.initial_ttl,
                    Transport::Icmp(reply),
                ))
            }
            Transport::Tcp(seg) if seg.control & tcp_flags::SYN != 0 => {
                let open = cfg.open_tcp_ports.contains(&seg.dst_port);
                if !open && !cfg.tcp_responds {
                    self.stats.dropped_host_mute += 1;
                    return None;
                }
                self.stats.tcp_responses_sent += 1;
                let mut resp = TcpSegment::syn_probe(seg.dst_port, seg.src_port, 0);
                resp.ack = seg.seq.wrapping_add(1);
                resp.control = if open {
                    tcp_flags::SYN | tcp_flags::ACK
                } else {
                    tcp_flags::RST | tcp_flags::ACK
                };
                Some(self.build_response(
                    node,
                    probed_addr,
                    packet.ip.src,
                    cfg.initial_ttl,
                    Transport::Tcp(resp),
                ))
            }
            // Echo replies, errors, non-SYN TCP: consumed silently.
            _ => None,
        }
    }

    fn router_local_response(
        &mut self,
        node: NodeId,
        cfg: &RouterConfig,
        probed_addr: Ipv4Addr,
        packet: &Packet,
    ) -> Option<Packet> {
        if cfg.silent {
            self.stats.dropped_silent += 1;
            return None;
        }
        match &packet.transport {
            Transport::Udp(_) => {
                self.stats.dest_unreachable_sent += 1;
                Some(self.icmp_response(
                    node,
                    probed_addr,
                    cfg.icmp_initial_ttl,
                    packet,
                    IcmpKind::Unreachable(UnreachableCode::Port),
                ))
            }
            Transport::Icmp(IcmpMessage::EchoRequest { identifier, seq, payload }) => {
                self.stats.echo_replies_sent += 1;
                // Same pooled-buffer echo as the host path.
                let mut echoed = self.arena.grab_payload();
                echoed.extend_from_slice(payload);
                let reply =
                    IcmpMessage::EchoReply { identifier: *identifier, seq: *seq, payload: echoed };
                Some(self.build_response(
                    node,
                    probed_addr,
                    packet.ip.src,
                    cfg.icmp_initial_ttl,
                    Transport::Icmp(reply),
                ))
            }
            Transport::Tcp(seg) if seg.control & tcp_flags::SYN != 0 => {
                self.stats.tcp_responses_sent += 1;
                let mut resp = TcpSegment::syn_probe(seg.dst_port, seg.src_port, 0);
                resp.ack = seg.seq.wrapping_add(1);
                resp.control = tcp_flags::RST | tcp_flags::ACK;
                Some(self.build_response(
                    node,
                    probed_addr,
                    packet.ip.src,
                    cfg.icmp_initial_ttl,
                    Transport::Tcp(resp),
                ))
            }
            _ => None,
        }
    }

    fn expire(
        &mut self,
        topo: &Topology,
        node: NodeId,
        iface_in: Option<usize>,
        cfg: &RouterConfig,
        packet: PacketRef,
    ) {
        if cfg.silent {
            self.stats.dropped_silent += 1;
            self.arena.release(packet);
            return;
        }
        if self.rate_limited(node, cfg) {
            self.stats.dropped_rate_limited += 1;
            self.arena.release(packet);
            return;
        }
        // The probe is consumed here: move it out, quote it, then hand
        // its payload buffer back to the pool.
        let packet = self.arena.take(packet);
        let src_addr = Self::responding_addr(topo, node, iface_in);
        self.stats.time_exceeded_sent += 1;
        let resp = self.icmp_response(
            node,
            src_addr,
            cfg.icmp_initial_ttl,
            &packet,
            IcmpKind::TimeExceeded,
        );
        self.arena.recycle_packet(packet);
        self.originate(topo, node, resp);
    }

    fn respond_unreachable(
        &mut self,
        topo: &Topology,
        node: NodeId,
        iface_in: Option<usize>,
        cfg: &RouterConfig,
        packet: PacketRef,
        code: UnreachableCode,
    ) {
        if cfg.silent {
            self.stats.dropped_silent += 1;
            self.arena.release(packet);
            return;
        }
        if self.rate_limited(node, cfg) {
            self.stats.dropped_rate_limited += 1;
            self.arena.release(packet);
            return;
        }
        let packet = self.arena.take(packet);
        let src_addr = Self::responding_addr(topo, node, iface_in);
        self.stats.dest_unreachable_sent += 1;
        let resp = self.icmp_response(
            node,
            src_addr,
            cfg.icmp_initial_ttl,
            &packet,
            IcmpKind::Unreachable(code),
        );
        self.arena.recycle_packet(packet);
        self.originate(topo, node, resp);
    }

    fn rate_limited(&mut self, node: NodeId, cfg: &RouterConfig) -> bool {
        if cfg.icmp_min_interval.is_none() && cfg.icmp_rate_limit.is_none() {
            return false;
        }
        self.freshen(node);
        let state = &mut self.nodes[node.0];
        if let Some(min) = cfg.icmp_min_interval {
            if let Some(last) = state.last_icmp {
                if self.clock.since(last) < min {
                    return true;
                }
            }
        }
        if let Some(tb) = cfg.icmp_rate_limit {
            if state.icmp_tokens == u32::MAX {
                // First touch after (re-)derivation: the bucket starts
                // full. The sentinel keeps `NodeState::fresh` a pure
                // function of `(seed, idx)` without knowing `burst`.
                state.icmp_tokens = tb.burst;
                state.icmp_tokens_at = self.clock;
            } else {
                let interval = tb.interval.nanos().max(1);
                let minted = self.clock.since(state.icmp_tokens_at).nanos() / interval;
                if minted > 0 {
                    let fill = u64::from(state.icmp_tokens).saturating_add(minted);
                    if fill >= u64::from(tb.burst) {
                        state.icmp_tokens = tb.burst;
                        // A full bucket stops accruing credit.
                        state.icmp_tokens_at = self.clock;
                    } else {
                        state.icmp_tokens = fill as u32;
                        // Advance by whole tokens only, so fractional
                        // refill credit carries to the next ICMP.
                        state.icmp_tokens_at += SimDuration::from_nanos(minted * interval);
                    }
                }
            }
            if state.icmp_tokens == 0 {
                return true;
            }
            state.icmp_tokens -= 1;
        }
        state.last_icmp = Some(self.clock);
        false
    }

    /// The address a router answers from: by default the interface the
    /// offending packet arrived on (the address classic traceroute
    /// reports), or the primary address for fixed-responder routers.
    fn responding_addr(topo: &Topology, node: NodeId, iface_in: Option<usize>) -> Ipv4Addr {
        let n = topo.node(node);
        let fixed = matches!(
            n.kind.as_router().map(|r| r.responder),
            Some(crate::node::ResponderAddr::Fixed)
        );
        match iface_in {
            Some(i) if !fixed => n.ifaces[i].addr,
            _ => n.primary_addr(),
        }
    }

    fn icmp_response(
        &mut self,
        node: NodeId,
        src: Ipv4Addr,
        initial_ttl: u8,
        offending: &Packet,
        kind: IcmpKind,
    ) -> Packet {
        // Quote the offending packet exactly as received: header with the
        // TTL at reception, plus the first eight transport octets. The
        // scratch buffer is recycled across responses, so quoting does not
        // allocate.
        let mut scratch = std::mem::take(&mut self.scratch);
        offending.emit_transport_into(&mut scratch);
        let quotation = Quotation::from_probe(offending.ip, &scratch);
        self.scratch = scratch;
        let msg = match kind {
            IcmpKind::TimeExceeded => IcmpMessage::TimeExceeded { quotation },
            IcmpKind::Unreachable(code) => IcmpMessage::DestUnreachable { code, quotation },
        };
        self.build_response(node, src, offending.ip.src, initial_ttl, Transport::Icmp(msg))
    }

    fn build_response(
        &mut self,
        node: NodeId,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        initial_ttl: u8,
        transport: Transport,
    ) -> Packet {
        self.freshen(node);
        let state = &mut self.nodes[node.0];
        let mut ip = Ipv4Header::new(src, dst, transport.protocol(), initial_ttl);
        ip.identification = state.ip_id;
        state.ip_id = state.ip_id.wrapping_add(1);
        Packet::new(ip, transport)
    }

    /// Send `packet` from `node` without TTL processing (the node is the
    /// packet's origin).
    fn originate(&mut self, topo: &Topology, node: NodeId, packet: Packet) {
        let packet = self.arena.alloc(packet);
        let birth = self.stamp();
        self.forward(topo, node, packet, birth);
    }

    /// Route `packet` out of `node`: NAT rewrite, then the walk.
    fn forward(&mut self, topo: &Topology, node: NodeId, packet: PacketRef, birth: u64) {
        // NAT: rewrite the source of anything leaving the stub.
        if let NodeKind::Router(RouterConfig { nat: Some(nat), .. }) = &topo.node(node).kind {
            let p = self.arena.get_mut(packet);
            if nat.rewrites(p.ip.src) {
                p.ip.src = nat.public;
                self.stats.nat_rewrites += 1;
            }
        }
        self.walk(topo, node, self.clock, packet, birth);
    }

    /// Carry `packet`, which left `from` at `left_at`, to its next
    /// stateful arrival and schedule that: across every router that
    /// would only decrement the TTL and pass it on ([`Next::passes`])
    /// and that it reaches before the next pending route change. A
    /// packet `from` itself cannot send on is dropped here and now; one
    /// a later router cannot send on arrives there, to be dropped at its
    /// own time. Nothing but the queue (and the next-hop table) is
    /// written: the packet keeps the TTL it left `from` with until the
    /// arrival pops.
    fn walk(
        &mut self,
        topo: &Topology,
        from: NodeId,
        left_at: SimTime,
        packet: PacketRef,
        birth: u64,
    ) {
        let p = self.arena.get(packet);
        let (dst, mut ttl) = (p.ip.dst, p.ip.ttl);
        let mut next = match self.hop(topo, from, dst, packet, birth, ttl) {
            Ok(next) => next,
            Err(why) => {
                match why {
                    Lost::NoRoute => self.stats.dropped_no_route += 1,
                    Lost::Blackhole => self.stats.dropped_blackhole += 1,
                    Lost::OnLink => self.stats.dropped_loss += 1,
                }
                self.arena.release(packet);
                return;
            }
        };
        let (mut at, mut last_transit, mut transits) = (left_at, left_at, 0u8);
        loop {
            at += next.delay;
            let fused = at < self.route_horizon;
            #[cfg(test)]
            let fused = fused && u32::from(transits) + 1 < self.hop_limit;
            if !fused || !next.passes(topo, &self.arena, packet, ttl) {
                break;
            }
            let Ok(after) = self.hop(topo, next.to.node, dst, packet, birth, ttl - 1) else {
                break;
            };
            last_transit = at;
            transits += 1;
            ttl -= 1;
            next = after;
        }
        let arrival = Arrival {
            node: next.to.node,
            iface_in: Some(next.to.iface),
            packet,
            transits,
            local: next.class == Class::Dest,
            from: (from, left_at),
            last_transit,
        };
        self.queue.schedule(at, birth, EventKind::Arrival(arrival));
    }

    /// `node`'s live routing: the shared base table under this
    /// simulator's delta, which is pristine for a slot not touched since
    /// the last reset.
    fn routing<'a>(&'a self, topo: &'a Topology, node: NodeId) -> NodeRouting<'a> {
        let st = &self.nodes[node.0];
        let delta = if st.epoch == self.epoch { &st.routing } else { RouteDelta::pristine_ref() };
        NodeRouting::new(&topo.node(node).routing, delta)
    }

    /// Where `packet` (addressed to `dst`, born `birth`) lands when it
    /// leaves `node` with `ttl`: the next-hop table's entry for `(node,
    /// dst)` when it holds one under the current stamp, else what
    /// [`SimState::resolve`] finds; then the link's loss, drawn for this
    /// packet. Always inlined into the walk, so a hop from the table
    /// stays in registers: out of line, its result went through the
    /// stack, and builds differing by one dead term read `mda_fanout`
    /// 25–40 % apart (`docs/PERFORMANCE.md`, PR 25).
    #[inline(always)]
    fn hop(
        &mut self,
        topo: &Topology,
        node: NodeId,
        dst: Ipv4Addr,
        packet: PacketRef,
        birth: u64,
        ttl: u8,
    ) -> Result<Next, Lost> {
        let held = &self.hops[hop_slot(node, dst)];
        let (next, seed, loss) = if held.stamp == self.hop_stamp
            && held.node as usize == node.0
            && held.dst == u32::from(dst)
        {
            let to = Endpoint { node: NodeId(held.to as usize), iface: held.iface.into() };
            (Next { to, delay: held.delay, class: held.class }, held.seed, held.loss)
        } else {
            self.resolve(topo, node, dst, packet, birth, ttl)?
        };
        // The top 53 bits as a uniform fraction in [0, 1).
        if loss > 0.0
            && ((draw(seed, birth, ttl, Draw::Loss) >> 11) as f64 / (1u64 << 53) as f64) < loss
        {
            return Err(Lost::OnLink);
        }
        Ok(next)
    }

    /// The hop [`SimState::hop`] did not find in the table: the
    /// longest-prefix lookup, the balancer's choice, the link and the
    /// class of its far end, with the leaving node's seed and the link's
    /// loss; stored when they are a function of `(tables, node, dst)`
    /// alone. Kept out of line, so the walk stays small.
    #[inline(never)]
    fn resolve(
        &mut self,
        topo: &Topology,
        node: NodeId,
        dst: Ipv4Addr,
        packet: PacketRef,
        birth: u64,
        ttl: u8,
    ) -> Result<(Next, u64, f64), Lost> {
        #[cfg(test)]
        {
            self.lookups += 1;
        }
        let seed = node_seed(self.seed, node);
        let routing = self.routing(topo, node);
        let (iface, stored) = match routing.lookup(dst).ok_or(Lost::NoRoute)? {
            NextHop::Iface(i) => (*i, true),
            NextHop::Blackhole => return Err(Lost::Blackhole),
            NextHop::Balanced { kind, egresses } => {
                let salted = |key: u64| splitmix64(key ^ balancer_salt(seed));
                let (word, stored) = match kind {
                    BalancerKind::PerFlow(policy) => {
                        (salted(policy.flow_key(self.arena.get(packet)).0), false)
                    }
                    BalancerKind::PerPacket => (draw(seed, birth, ttl, Draw::Egress), false),
                    BalancerKind::PerDestination => (salted(u64::from(u32::from(dst))), true),
                };
                (egresses[(word % egresses.len() as u64) as usize], stored)
            }
        };
        // Loopback/unattached interface: nowhere to go.
        let link = topo.link(topo.node(node).ifaces[iface].link.ok_or(Lost::NoRoute)?);
        let to = link.other_end(node);
        let next = Next { to, delay: link.delay_from(node), class: Class::of(topo, to.node, dst) };
        #[cfg(test)]
        let stored = stored && self.table;
        let slot = hop_slot(node, dst);
        let ids = (u32::try_from(node.0), u32::try_from(to.node.0), u16::try_from(to.iface));
        if let (true, (Ok(node), Ok(to), Ok(iface))) = (stored, ids) {
            self.hops[slot] = Hop {
                stamp: self.hop_stamp,
                seed,
                loss: link.loss,
                delay: next.delay,
                node,
                dst: dst.into(),
                to,
                iface,
                class: next.class,
            };
        }
        Ok((next, seed, link.loss))
    }
}

/// Whether a packet reaching router `cfg` with `ttl` expires there: TTL
/// 1 normally, 0 past a zero-TTL forwarder (which sends 1 on as 0).
fn expires_at(cfg: &RouterConfig, ttl: u8) -> bool {
    ttl == 0 || (ttl == 1 && !cfg.zero_ttl_forwarding)
}

/// Why a packet leaving a node reaches no neighbour.
#[derive(Debug, Clone, Copy)]
enum Lost {
    /// No matching route, or an egress interface with no link.
    NoRoute,
    /// A blackhole route.
    Blackhole,
    /// Dropped by the link's loss.
    OnLink,
}

/// A pool of reusable [`Simulator`]s over one shared topology.
///
/// [`SimulatorPool::acquire`] hands out a simulator reset to the given
/// seed — behaviorally identical to `Simulator::new(topology, seed)`,
/// but with its event queue, arena slots, payload buffers and inbox
/// deques already warm when a previously released simulator was
/// available. Campaign workers keep one pool each, so per-destination
/// trace tasks pay no construction or steady-state allocation cost
/// after their first work unit.
#[derive(Debug)]
pub struct SimulatorPool {
    topo: Arc<Topology>,
    idle: Vec<Simulator>,
}

impl SimulatorPool {
    /// An empty pool over `topology`.
    pub fn new(topology: Arc<Topology>) -> Self {
        SimulatorPool { topo: topology, idle: Vec::new() }
    }

    /// A simulator over the pool's topology, reset to `seed`.
    pub fn acquire(&mut self, seed: u64) -> Simulator {
        match self.idle.pop() {
            Some(mut sim) => {
                sim.reset(seed);
                sim
            }
            None => Simulator::new(Arc::clone(&self.topo), seed),
        }
    }

    /// Return a simulator for later reuse. Must have been built over
    /// the pool's topology.
    pub fn release(&mut self, sim: Simulator) {
        debug_assert!(
            Arc::ptr_eq(sim.topology(), &self.topo),
            "released simulator belongs to a different topology"
        );
        self.idle.push(sim);
    }
}

#[derive(Debug, Clone, Copy)]
enum IcmpKind {
    TimeExceeded,
    Unreachable(UnreachableCode),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TopologyBuilder;
    use crate::node::{HostConfig, RouterConfig};
    use crate::time::SimDuration;
    use pt_wire::ipv4::protocol;
    use pt_wire::UdpDatagram;

    /// S — r1 — r2 — D, 1 ms per link.
    fn chain() -> (Arc<Topology>, NodeId, NodeId, Ipv4Addr) {
        let mut b = TopologyBuilder::new();
        let s = b.host("S", HostConfig::default());
        let r1 = b.router("r1", RouterConfig::default());
        let r2 = b.router("r2", RouterConfig::default());
        let d = b.host("D", HostConfig::default());
        b.link(s, r1, SimDuration::from_millis(1), 0.0);
        b.link(r1, r2, SimDuration::from_millis(1), 0.0);
        b.link(r2, d, SimDuration::from_millis(1), 0.0);
        b.default_via(s, r1);
        b.default_via(r1, r2);
        b.default_via(r2, d);
        b.default_via(d, r2);
        // Return routes toward S.
        let s_pfx = b.subnet_of(s);
        b.route_via(r2, s_pfx, r1);
        b.route_via(r1, s_pfx, s);
        let dst = b.addr_of(d);
        (Arc::new(b.build()), s, d, dst)
    }

    fn udp_probe(src: Ipv4Addr, dst: Ipv4Addr, ttl: u8, dst_port: u16) -> Packet {
        let ip = Ipv4Header::new(src, dst, protocol::UDP, ttl);
        Packet::new(ip, Transport::Udp(UdpDatagram::new(33768, dst_port, vec![0; 8])))
    }

    fn src_addr(topo: &Topology, s: NodeId) -> Ipv4Addr {
        topo.node(s).primary_addr()
    }

    /// Everything delivered to `node` so far, oldest first.
    fn drain(sim: &mut Simulator, node: NodeId) -> Vec<(SimTime, Packet)> {
        std::iter::from_fn(|| sim.pop_delivery(node)).collect()
    }

    #[test]
    fn ttl_expiry_generates_time_exceeded_with_probe_ttl_one() {
        let (topo, s, _d, dst) = chain();
        let mut sim = Simulator::new(topo.clone(), 1);
        let probe = udp_probe(src_addr(&topo, s), dst, 1, 33435);
        sim.inject(s, probe);
        sim.run_to_quiescence();
        let deliveries = drain(&mut sim, s);
        assert_eq!(deliveries.len(), 1);
        let (_, resp) = &deliveries[0];
        // Response comes from r1's S-facing interface.
        assert_eq!(resp.ip.src, topo.node(topo.find("r1").unwrap()).ifaces[0].addr);
        match &resp.transport {
            Transport::Icmp(IcmpMessage::TimeExceeded { quotation }) => {
                assert_eq!(quotation.ip.ttl, 1, "normal probe TTL is one");
                assert_eq!(quotation.ip.dst, dst);
            }
            other => panic!("expected Time Exceeded, got {other:?}"),
        }
        assert_eq!(sim.stats().time_exceeded_sent, 1);
    }

    #[test]
    fn probe_reaching_destination_draws_port_unreachable() {
        let (topo, s, _d, dst) = chain();
        let mut sim = Simulator::new(topo.clone(), 1);
        let probe = udp_probe(src_addr(&topo, s), dst, 30, 34567);
        sim.inject(s, probe);
        sim.run_to_quiescence();
        let deliveries = drain(&mut sim, s);
        assert_eq!(deliveries.len(), 1);
        match &deliveries[0].1.transport {
            Transport::Icmp(IcmpMessage::DestUnreachable { code, quotation }) => {
                assert_eq!(*code, UnreachableCode::Port);
                assert_eq!(quotation.ip.dst, dst);
            }
            other => panic!("expected Port Unreachable, got {other:?}"),
        }
    }

    #[test]
    fn echo_request_draws_echo_reply() {
        let (topo, s, _d, dst) = chain();
        let mut sim = Simulator::new(topo.clone(), 1);
        let ip = Ipv4Header::new(src_addr(&topo, s), dst, protocol::ICMP, 30);
        let probe = Packet::new(ip, Transport::Icmp(IcmpMessage::echo_probe_classic(77, 3)));
        sim.inject(s, probe);
        sim.run_to_quiescence();
        let deliveries = drain(&mut sim, s);
        assert_eq!(deliveries.len(), 1);
        match &deliveries[0].1.transport {
            Transport::Icmp(IcmpMessage::EchoReply { identifier, seq, .. }) => {
                assert_eq!((*identifier, *seq), (77, 3));
            }
            other => panic!("expected Echo Reply, got {other:?}"),
        }
        assert_eq!(deliveries[0].1.ip.src, dst, "reply comes from the probed address");
    }

    #[test]
    fn response_ttl_reflects_return_path_length() {
        let (topo, s, _d, dst) = chain();
        let mut sim = Simulator::new(topo.clone(), 1);
        // Expire at r2 (hop 2): response crosses r2→r1→S, decremented
        // once at r1. 255 - 1 = 254 on arrival.
        let probe = udp_probe(src_addr(&topo, s), dst, 2, 33435);
        sim.inject(s, probe);
        sim.run_to_quiescence();
        let deliveries = drain(&mut sim, s);
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].1.ip.ttl, 254);
    }

    #[test]
    fn rtt_grows_with_hop_distance() {
        let (topo, s, _d, dst) = chain();
        let mut sim = Simulator::new(topo.clone(), 1);
        let t0 = sim.now();
        sim.inject(s, udp_probe(src_addr(&topo, s), dst, 1, 33435));
        sim.run_to_quiescence();
        let rtt1 = drain(&mut sim, s)[0].0.since(t0);
        let t1 = sim.now();
        sim.inject(s, udp_probe(src_addr(&topo, s), dst, 2, 33436));
        sim.run_to_quiescence();
        let rtt2 = drain(&mut sim, s)[0].0.since(t1);
        assert_eq!(rtt1, SimDuration::from_millis(2), "hop 1: 1ms out + 1ms back");
        assert_eq!(rtt2, SimDuration::from_millis(4), "hop 2: 2ms out + 2ms back");
    }

    #[test]
    fn ip_ids_from_one_router_increment() {
        let (topo, s, _d, dst) = chain();
        let mut sim = Simulator::new(topo.clone(), 1);
        let mut ids = Vec::new();
        for i in 0..3 {
            sim.inject(s, udp_probe(src_addr(&topo, s), dst, 1, 33435 + i));
            sim.run_to_quiescence();
            ids.push(drain(&mut sim, s)[0].1.ip.identification);
        }
        assert_eq!(ids[1], ids[0].wrapping_add(1));
        assert_eq!(ids[2], ids[1].wrapping_add(1));
    }

    #[test]
    fn silent_router_swallows_probes() {
        let mut b = TopologyBuilder::new();
        let s = b.host("S", HostConfig::default());
        let r1 = b.router("r1", RouterConfig::silent());
        let d = b.host("D", HostConfig::default());
        b.link(s, r1, SimDuration::from_millis(1), 0.0);
        b.link(r1, d, SimDuration::from_millis(1), 0.0);
        b.default_via(s, r1);
        b.default_via(r1, d);
        b.default_via(d, r1);
        let s_pfx = b.subnet_of(s);
        b.route_via(r1, s_pfx, s);
        let dst = b.addr_of(d);
        let topo = Arc::new(b.build());
        let mut sim = Simulator::new(topo.clone(), 3);
        sim.inject(s, udp_probe(src_addr(&topo, s), dst, 1, 33435));
        sim.run_to_quiescence();
        assert!(drain(&mut sim, s).is_empty(), "silent router must not answer");
        assert_eq!(sim.stats().dropped_silent, 1);
        // But probes pass through it fine.
        sim.inject(s, udp_probe(src_addr(&topo, s), dst, 5, 33436));
        sim.run_to_quiescence();
        assert_eq!(drain(&mut sim, s).len(), 1, "transit still works");
    }

    #[test]
    fn zero_ttl_forwarder_produces_probe_ttl_zero_at_next_hop() {
        let mut b = TopologyBuilder::new();
        let s = b.host("S", HostConfig::default());
        let f = b.router("F", RouterConfig::zero_ttl_forwarder());
        let a = b.router("A", RouterConfig::default());
        let d = b.host("D", HostConfig::default());
        b.link(s, f, SimDuration::from_millis(1), 0.0);
        b.link(f, a, SimDuration::from_millis(1), 0.0);
        b.link(a, d, SimDuration::from_millis(1), 0.0);
        b.default_via(s, f);
        b.default_via(f, a);
        b.default_via(a, d);
        b.default_via(d, a);
        let s_pfx = b.subnet_of(s);
        b.route_via(a, s_pfx, f);
        b.route_via(f, s_pfx, s);
        let dst = b.addr_of(d);
        let topo = Arc::new(b.build());
        let mut sim = Simulator::new(topo.clone(), 9);
        // TTL 1 should expire at F, but F forwards it as TTL 0; A answers
        // with probe TTL 0.
        sim.inject(s, udp_probe(src_addr(&topo, s), dst, 1, 33435));
        sim.run_to_quiescence();
        let deliveries = drain(&mut sim, s);
        assert_eq!(deliveries.len(), 1);
        let a_id = topo.find("A").unwrap();
        assert_eq!(deliveries[0].1.ip.src, topo.node(a_id).ifaces[0].addr);
        match &deliveries[0].1.transport {
            Transport::Icmp(IcmpMessage::TimeExceeded { quotation }) => {
                assert_eq!(quotation.ip.ttl, 0, "zero-TTL forwarding signature");
            }
            other => panic!("expected Time Exceeded, got {other:?}"),
        }
        // TTL 2 reaches A as TTL 1 and expires normally: probe TTL 1,
        // same responding interface — the Fig. 4 loop.
        sim.inject(s, udp_probe(src_addr(&topo, s), dst, 2, 33436));
        sim.run_to_quiescence();
        let deliveries = drain(&mut sim, s);
        match &deliveries[0].1.transport {
            Transport::Icmp(IcmpMessage::TimeExceeded { quotation }) => {
                assert_eq!(quotation.ip.ttl, 1);
            }
            other => panic!("expected Time Exceeded, got {other:?}"),
        }
    }

    #[test]
    fn broken_router_sends_unreachable_for_forwardable_probes() {
        let mut b = TopologyBuilder::new();
        let s = b.host("S", HostConfig::default());
        let r = b.router("r", RouterConfig::broken_forwarding(UnreachableCode::Host));
        let d = b.host("D", HostConfig::default());
        b.link(s, r, SimDuration::from_millis(1), 0.0);
        b.link(r, d, SimDuration::from_millis(1), 0.0);
        b.default_via(s, r);
        b.default_via(r, d);
        let s_pfx = b.subnet_of(s);
        b.route_via(r, s_pfx, s);
        let dst = b.addr_of(d);
        let topo = Arc::new(b.build());
        let mut sim = Simulator::new(topo.clone(), 5);
        let src = src_addr(&topo, s);
        // TTL 1 expires normally: Time Exceeded.
        sim.inject(s, udp_probe(src, dst, 1, 33435));
        sim.run_to_quiescence();
        let first = drain(&mut sim, s);
        assert!(matches!(&first[0].1.transport, Transport::Icmp(IcmpMessage::TimeExceeded { .. })));
        // TTL 2 would be forwarded, but forwarding is broken: !H, same
        // address — the unreachability loop.
        sim.inject(s, udp_probe(src, dst, 2, 33436));
        sim.run_to_quiescence();
        let second = drain(&mut sim, s);
        match &second[0].1.transport {
            Transport::Icmp(IcmpMessage::DestUnreachable { code, .. }) => {
                assert_eq!(*code, UnreachableCode::Host);
            }
            other => panic!("expected !H, got {other:?}"),
        }
        assert_eq!(first[0].1.ip.src, second[0].1.ip.src, "loop signature");
    }

    #[test]
    fn lossy_link_drops_deterministically_per_seed() {
        let mut b = TopologyBuilder::new();
        let s = b.host("S", HostConfig::default());
        let r = b.router("r", RouterConfig::default());
        let d = b.host("D", HostConfig::default());
        b.link(s, r, SimDuration::from_millis(1), 0.0);
        b.link(r, d, SimDuration::from_millis(1), 0.9);
        b.default_via(s, r);
        b.default_via(r, d);
        b.default_via(d, r);
        let s_pfx = b.subnet_of(s);
        b.route_via(r, s_pfx, s);
        let dst = b.addr_of(d);
        let topo = Arc::new(b.build());
        let run = |seed: u64| {
            let mut sim = Simulator::new(topo.clone(), seed);
            let mut got = 0;
            for i in 0..20 {
                sim.inject(s, udp_probe(src_addr(&topo, s), dst, 5, 34000 + i));
                sim.run_to_quiescence();
                got += drain(&mut sim, s).len();
            }
            (got, sim.stats().dropped_loss)
        };
        let (got_a, lost_a) = run(42);
        let (got_b, lost_b) = run(42);
        assert_eq!((got_a, lost_a), (got_b, lost_b), "same seed, same outcome");
        assert!(lost_a > 0, "90% loss must drop something across 20 probes");
        assert!(got_a < 20);
    }

    #[test]
    fn route_set_event_changes_forwarding_at_the_scheduled_time() {
        let mut b = TopologyBuilder::new();
        let s = b.host("S", HostConfig::default());
        let r = b.router("r", RouterConfig::default());
        let d1 = b.host("D1", HostConfig::default());
        let d2 = b.host("D2", HostConfig::default());
        b.link(s, r, SimDuration::from_millis(1), 0.0);
        b.link(r, d1, SimDuration::from_millis(1), 0.0);
        b.link(r, d2, SimDuration::from_millis(1), 0.0);
        b.default_via(s, r);
        b.default_via(r, d1);
        b.default_via(d1, r);
        b.default_via(d2, r);
        let s_pfx = b.subnet_of(s);
        b.route_via(r, s_pfx, s);
        let dst = b.addr_of(d1);
        let topo = Arc::new(b.build());
        let mut sim = Simulator::new(topo.clone(), 1);
        // After 10ms, r loses its route for everything (default removed).
        sim.schedule_route_set(
            SimTime::ZERO + SimDuration::from_millis(10),
            r,
            Ipv4Prefix::DEFAULT,
            None,
        );
        sim.inject(s, udp_probe(src_addr(&topo, s), dst, 5, 33435));
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(9));
        assert_eq!(drain(&mut sim, s).len(), 1, "before the change, reachable");
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(11));
        sim.inject(s, udp_probe(src_addr(&topo, s), dst, 5, 33436));
        sim.run_to_quiescence();
        // The probe dies at r for lack of a route (s_pfx route remains,
        // but dst no longer matches anything).
        assert!(drain(&mut sim, s).is_empty());
        assert!(sim.stats().dropped_no_route >= 1);
    }

    #[test]
    fn per_flow_balancer_sends_one_flow_one_way() {
        use pt_wire::FlowPolicy;
        let mut b = TopologyBuilder::new();
        let s = b.host("S", HostConfig::default());
        let l = b.router("L", RouterConfig::default());
        let a = b.router("A", RouterConfig::default());
        let c = b.router("C", RouterConfig::default());
        let m = b.router("M", RouterConfig::default());
        let d = b.host("D", HostConfig::default());
        b.link(s, l, SimDuration::from_millis(1), 0.0);
        b.link(l, a, SimDuration::from_millis(1), 0.0);
        b.link(l, c, SimDuration::from_millis(1), 0.0);
        b.link(a, m, SimDuration::from_millis(1), 0.0);
        b.link(c, m, SimDuration::from_millis(1), 0.0);
        b.link(m, d, SimDuration::from_millis(1), 0.0);
        b.default_via(s, l);
        b.balanced_route(
            l,
            Ipv4Prefix::DEFAULT,
            BalancerKind::PerFlow(FlowPolicy::FiveTuple),
            &[a, c],
        );
        b.default_via(a, m);
        b.default_via(c, m);
        b.default_via(m, d);
        b.default_via(d, m);
        let s_pfx = b.subnet_of(s);
        b.route_via(m, s_pfx, a);
        b.route_via(a, s_pfx, l);
        b.route_via(c, s_pfx, l);
        b.route_via(l, s_pfx, s);
        let dst = b.addr_of(d);
        let topo = Arc::new(b.build());
        let mut sim = Simulator::new(topo.clone(), 7);
        let src = src_addr(&topo, s);
        // Same flow (same ports) at TTL 2 always hits the same router.
        let mut addrs_same_flow = std::collections::BTreeSet::new();
        for _ in 0..8 {
            sim.inject(s, udp_probe(src, dst, 2, 33435));
            sim.run_to_quiescence();
            addrs_same_flow.insert(drain(&mut sim, s)[0].1.ip.src);
        }
        assert_eq!(addrs_same_flow.len(), 1, "one flow, one path");
        // Varying ports across enough probes hits both routers.
        let mut addrs_varying = std::collections::BTreeSet::new();
        for i in 0..32 {
            sim.inject(s, udp_probe(src, dst, 2, 33435 + i));
            sim.run_to_quiescence();
            addrs_varying.insert(drain(&mut sim, s)[0].1.ip.src);
        }
        assert_eq!(addrs_varying.len(), 2, "varying flows explore both paths");
    }

    #[test]
    fn per_packet_balancer_splits_even_a_single_flow() {
        let mut b = TopologyBuilder::new();
        let s = b.host("S", HostConfig::default());
        let l = b.router("L", RouterConfig::default());
        let a = b.router("A", RouterConfig::default());
        let c = b.router("C", RouterConfig::default());
        let d = b.host("D", HostConfig::default());
        b.link(s, l, SimDuration::from_millis(1), 0.0);
        b.link(l, a, SimDuration::from_millis(1), 0.0);
        b.link(l, c, SimDuration::from_millis(1), 0.0);
        b.link(a, d, SimDuration::from_millis(1), 0.0);
        b.link(c, d, SimDuration::from_millis(1), 0.0);
        b.default_via(s, l);
        b.balanced_route(l, Ipv4Prefix::DEFAULT, BalancerKind::PerPacket, &[a, c]);
        b.default_via(a, d);
        b.default_via(c, d);
        b.default_via(d, a);
        let s_pfx = b.subnet_of(s);
        b.route_via(a, s_pfx, l);
        b.route_via(c, s_pfx, l);
        b.route_via(l, s_pfx, s);
        b.route_via(d, s_pfx, a);
        let dst = b.addr_of(d);
        let topo = Arc::new(b.build());
        let mut sim = Simulator::new(topo.clone(), 11);
        let src = src_addr(&topo, s);
        let mut addrs = std::collections::BTreeSet::new();
        for _ in 0..32 {
            sim.inject(s, udp_probe(src, dst, 2, 33435)); // identical flow
            sim.run_to_quiescence();
            addrs.insert(drain(&mut sim, s)[0].1.ip.src);
        }
        assert_eq!(addrs.len(), 2, "per-packet balancing ignores the flow");
    }

    #[test]
    fn nat_gateway_rewrites_inside_sources() {
        let mut b = TopologyBuilder::new();
        let s = b.host("S", HostConfig::default());
        let n = b.router("N", RouterConfig::default());
        let inner = b.router("B", RouterConfig::default());
        let d = b.host("D", HostConfig::default());
        b.link(s, n, SimDuration::from_millis(1), 0.0);
        b.link(n, inner, SimDuration::from_millis(1), 0.0);
        b.link(inner, d, SimDuration::from_millis(1), 0.0);
        // N's public face is its S-side interface address.
        let public = b.iface_addr(n, 0);
        let inside = vec![b.subnet_of(inner), b.subnet_of(d)];
        // Patch N's config to be a NAT gateway now that we know the prefixes.
        b.set_router_config(n, RouterConfig::nat_gateway(public, inside));
        b.default_via(s, n);
        b.default_via(n, inner);
        b.default_via(inner, d);
        b.default_via(d, inner);
        let s_pfx = b.subnet_of(s);
        b.route_via(inner, s_pfx, n);
        b.route_via(n, s_pfx, s);
        let dst = b.addr_of(d);
        let topo = Arc::new(b.build());
        let mut sim = Simulator::new(topo.clone(), 2);
        let src = src_addr(&topo, s);
        // Expire at the inner router (hop 2): its Time Exceeded crosses N
        // and gets rewritten to the public address.
        sim.inject(s, udp_probe(src, dst, 2, 33435));
        sim.run_to_quiescence();
        let deliveries = drain(&mut sim, s);
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].1.ip.src, public, "SNAT applied");
        assert!(sim.stats().nat_rewrites >= 1);
        // Hop 1 (N itself) answers from its own address untouched.
        sim.inject(s, udp_probe(src, dst, 1, 33436));
        sim.run_to_quiescence();
        assert_eq!(drain(&mut sim, s)[0].1.ip.src, public);
    }

    #[test]
    fn reset_matches_fresh_construction() {
        // Loss draws hang on the seed and on each packet's birth stamp,
        // the answers on per-node IP-ID counters: if reset failed to
        // rewind (or re-derive) any of them, drop patterns, deliveries
        // and stats would diverge from a fresh simulator.
        let mut b = TopologyBuilder::new();
        let s = b.host("S", HostConfig::default());
        let r = b.router("r", RouterConfig::default());
        let d = b.host("D", HostConfig::default());
        b.link(s, r, SimDuration::from_millis(1), 0.0);
        b.link(r, d, SimDuration::from_millis(1), 0.4);
        b.default_via(s, r);
        b.default_via(r, d);
        b.default_via(d, r);
        let s_pfx = b.subnet_of(s);
        b.route_via(r, s_pfx, s);
        let dst = b.addr_of(d);
        let topo = Arc::new(b.build());
        let src = src_addr(&topo, s);
        let run = |sim: &mut Simulator| {
            for i in 0..12 {
                sim.inject(s, udp_probe(src, dst, 5, 34000 + i));
                sim.run_to_quiescence();
            }
            (drain(sim, s), sim.stats())
        };
        let mut fresh = Simulator::new(topo.clone(), 42);
        let expected = run(&mut fresh);
        // Dirty a second simulator under a different seed, then reset it
        // to 42: results must be bit-identical to the fresh build.
        let mut reused = Simulator::new(topo.clone(), 7);
        let _ = run(&mut reused);
        reused.reset(42);
        let got = run(&mut reused);
        assert_eq!(got, expected, "reset(seed) must equal new(topo, seed)");
    }

    #[test]
    fn reset_reverts_routing_dynamics() {
        let (topo, s, _d, dst) = chain();
        let r1 = topo.find("r1").unwrap();
        let mut sim = Simulator::new(topo.clone(), 1);
        sim.schedule_route_set(SimTime::ZERO, r1, Ipv4Prefix::DEFAULT, None);
        sim.run_to_quiescence();
        assert!(sim.routing_of(r1).lookup(dst).is_none(), "default route masked");
        sim.reset(1);
        assert!(sim.routing_of(r1).lookup(dst).is_some(), "reset restores the base table");
        // And the sim still works end to end after the reset.
        sim.inject(s, udp_probe(src_addr(&topo, s), dst, 30, 34567));
        sim.run_to_quiescence();
        assert_eq!(drain(&mut sim, s).len(), 1);
    }

    #[test]
    fn arena_slots_stop_growing_after_warmup() {
        let (topo, s, _d, dst) = chain();
        let mut sim = Simulator::new(topo.clone(), 1);
        let src = src_addr(&topo, s);
        for i in 0..3 {
            sim.inject(s, udp_probe(src, dst, 30, 34000 + i));
            sim.run_to_quiescence();
        }
        assert_eq!(sim.in_flight(), 0, "quiescence leaves nothing in flight");
        let warm = sim.arena_slots();
        for i in 0..40 {
            sim.inject(s, udp_probe(src, dst, 30, 35000 + i));
            sim.run_to_quiescence();
            drain(&mut sim, s);
        }
        assert_eq!(
            sim.arena_slots(),
            warm,
            "steady-state forwarding must recycle slots, not allocate new ones"
        );
    }

    #[test]
    fn icmp_rate_limit_suppresses_back_to_back_probes() {
        let mut b = TopologyBuilder::new();
        let s = b.host("S", HostConfig::default());
        let cfg = RouterConfig {
            icmp_min_interval: Some(SimDuration::from_millis(100)),
            ..RouterConfig::default()
        };
        let r = b.router("r", cfg);
        let d = b.host("D", HostConfig::default());
        b.link(s, r, SimDuration::from_millis(1), 0.0);
        b.link(r, d, SimDuration::from_millis(1), 0.0);
        b.default_via(s, r);
        b.default_via(r, d);
        b.default_via(d, r);
        let s_pfx = b.subnet_of(s);
        b.route_via(r, s_pfx, s);
        let dst = b.addr_of(d);
        let topo = Arc::new(b.build());
        let mut sim = Simulator::new(topo.clone(), 4);
        let src = src_addr(&topo, s);
        sim.inject(s, udp_probe(src, dst, 1, 33435));
        sim.inject(s, udp_probe(src, dst, 1, 33436));
        sim.run_to_quiescence();
        assert_eq!(drain(&mut sim, s).len(), 1, "second ICMP rate-limited");
        assert_eq!(sim.stats().dropped_rate_limited, 1);
    }

    /// S — r — D with a caller-chosen config on r.
    fn chain_with_router(cfg: RouterConfig) -> (Arc<Topology>, NodeId, Ipv4Addr) {
        let mut b = TopologyBuilder::new();
        let s = b.host("S", HostConfig::default());
        let r = b.router("r", cfg);
        let d = b.host("D", HostConfig::default());
        b.link(s, r, SimDuration::from_millis(1), 0.0);
        b.link(r, d, SimDuration::from_millis(1), 0.0);
        b.default_via(s, r);
        b.default_via(r, d);
        b.default_via(d, r);
        let s_pfx = b.subnet_of(s);
        b.route_via(r, s_pfx, s);
        let dst = b.addr_of(d);
        (Arc::new(b.build()), s, dst)
    }

    #[test]
    fn token_bucket_allows_burst_then_throttles_to_rate() {
        use crate::node::IcmpRateLimit;
        let cfg = RouterConfig {
            icmp_rate_limit: Some(IcmpRateLimit {
                interval: SimDuration::from_millis(100),
                burst: 3,
            }),
            ..RouterConfig::default()
        };
        let (topo, s, dst) = chain_with_router(cfg);
        let mut sim = Simulator::new(topo.clone(), 4);
        let src = src_addr(&topo, s);
        // Five back-to-back probes: the first three ride the burst, the
        // rest find an empty bucket.
        for i in 0..5 {
            sim.inject(s, udp_probe(src, dst, 1, 33435 + i));
        }
        sim.run_to_quiescence();
        assert_eq!(drain(&mut sim, s).len(), 3, "burst admits exactly `burst` ICMPs");
        assert_eq!(sim.stats().dropped_rate_limited, 2);
        // After one refill interval a single token is back: a retry at
        // lower rate resolves where the back-to-back probe starred.
        sim.run_until(sim.now() + SimDuration::from_millis(100));
        sim.inject(s, udp_probe(src, dst, 1, 33440));
        sim.inject(s, udp_probe(src, dst, 1, 33441));
        sim.run_to_quiescence();
        assert_eq!(drain(&mut sim, s).len(), 1, "one minted token, one answer");
    }

    #[test]
    fn token_bucket_is_deterministic_across_reset() {
        use crate::node::IcmpRateLimit;
        let cfg = RouterConfig {
            icmp_rate_limit: Some(IcmpRateLimit {
                interval: SimDuration::from_millis(50),
                burst: 2,
            }),
            ..RouterConfig::default()
        };
        let (topo, s, dst) = chain_with_router(cfg);
        let run = |sim: &mut Simulator| {
            let src = src_addr(sim.topology(), s);
            for i in 0..4 {
                sim.inject(s, udp_probe(src, dst, 1, 34000 + i));
            }
            sim.run_to_quiescence();
            (drain(sim, s).len(), sim.stats().dropped_rate_limited)
        };
        let mut fresh = Simulator::new(topo.clone(), 42);
        let expected = run(&mut fresh);
        let mut reused = Simulator::new(topo.clone(), 7);
        let _ = run(&mut reused);
        reused.reset(42);
        assert_eq!(run(&mut reused), expected, "bucket state must re-derive after reset");
    }

    #[test]
    fn mpls_interior_hides_expiry_but_forwards_and_answers_direct_probes() {
        let (topo, s, dst) = chain_with_router(RouterConfig::mpls_interior());
        let mut sim = Simulator::new(topo.clone(), 6);
        let src = src_addr(&topo, s);
        // TTL 1 expires inside the "tunnel": no Time Exceeded, ever.
        sim.inject(s, udp_probe(src, dst, 1, 33435));
        sim.run_to_quiescence();
        assert!(drain(&mut sim, s).is_empty(), "LSP interior sources no ICMP");
        assert_eq!(sim.stats().dropped_mpls_hidden, 1);
        // Transit is label-switched through just fine.
        sim.inject(s, udp_probe(src, dst, 5, 33436));
        sim.run_to_quiescence();
        assert_eq!(drain(&mut sim, s).len(), 1, "transit unaffected");
        // And unlike `silent`, a probe addressed *to* the router answers.
        let r_addr = topo.node(topo.find("r").unwrap()).ifaces[0].addr;
        sim.inject(s, udp_probe(src, r_addr, 5, 33437));
        sim.run_to_quiescence();
        assert_eq!(drain(&mut sim, s).len(), 1, "direct probe still answered");
    }

    #[test]
    fn udp_filter_drops_udp_transit_but_passes_tcp_and_icmp() {
        let (topo, s, dst) = chain_with_router(RouterConfig::udp_filter());
        let mut sim = Simulator::new(topo.clone(), 8);
        let src = src_addr(&topo, s);
        // UDP toward the destination dies at the firewall.
        sim.inject(s, udp_probe(src, dst, 5, 33435));
        sim.run_to_quiescence();
        assert!(drain(&mut sim, s).is_empty(), "UDP transit filtered");
        assert_eq!(sim.stats().dropped_filtered, 1);
        // The firewall itself still answers expiring probes (TTL 1).
        sim.inject(s, udp_probe(src, dst, 1, 33436));
        sim.run_to_quiescence();
        assert_eq!(drain(&mut sim, s).len(), 1, "expiry at the filter answers");
        // ICMP echo passes the filter and draws a reply.
        let ip = Ipv4Header::new(src, dst, protocol::ICMP, 30);
        sim.inject(s, Packet::new(ip, Transport::Icmp(IcmpMessage::echo_probe_classic(5, 1))));
        sim.run_to_quiescence();
        assert_eq!(drain(&mut sim, s).len(), 1, "ICMP passes");
        // TCP SYN passes and draws a SYN-ACK/RST.
        let ip = Ipv4Header::new(src, dst, protocol::TCP, 30);
        let syn = TcpSegment::syn_probe(33000, 80, 7);
        sim.inject(s, Packet::new(ip, Transport::Tcp(syn)));
        sim.run_to_quiescence();
        assert_eq!(drain(&mut sim, s).len(), 1, "TCP passes");
    }

    #[test]
    fn asymmetric_link_delay_skews_the_return_direction() {
        let mut b = TopologyBuilder::new();
        let s = b.host("S", HostConfig::default());
        let r = b.router("r", RouterConfig::default());
        let d = b.host("D", HostConfig::default());
        b.link(s, r, SimDuration::from_millis(1), 0.0);
        // Forward r→D costs 1 ms, return D→r costs 9 ms.
        b.link_asym(r, d, SimDuration::from_millis(1), SimDuration::from_millis(9), 0.0);
        b.default_via(s, r);
        b.default_via(r, d);
        b.default_via(d, r);
        let s_pfx = b.subnet_of(s);
        b.route_via(r, s_pfx, s);
        let dst = b.addr_of(d);
        let topo = Arc::new(b.build());
        let mut sim = Simulator::new(topo.clone(), 2);
        let t0 = sim.now();
        sim.inject(s, udp_probe(src_addr(&topo, s), dst, 30, 34567));
        sim.run_to_quiescence();
        let rtt = drain(&mut sim, s)[0].0.since(t0);
        // 1 + 1 out, 9 + 1 back.
        assert_eq!(rtt, SimDuration::from_millis(12), "reverse path dominates the RTT");
    }

    // ------------------------------------------------------------------
    // Keyed draws
    // ------------------------------------------------------------------

    #[test]
    fn loss_is_a_fair_draw_per_packet_whatever_order_packets_arrive_in() {
        // Two sources, three hops and one hop from a router whose link
        // to D loses one packet in ten. Packet `i` carries `i` as its
        // destination port, so D's inbox says which ones got through.
        let ms = SimDuration::from_millis(1);
        let mut b = TopologyBuilder::new();
        let far = b.host("far", HostConfig::default());
        let near = b.host("near", HostConfig::default());
        let a1 = b.router("a1", RouterConfig::default());
        let a2 = b.router("a2", RouterConfig::default());
        let r = b.router("r", RouterConfig::default());
        let d = b.host("D", HostConfig { udp_responds: false, ..HostConfig::default() });
        b.link(far, a1, ms, 0.0);
        b.link(a1, a2, ms, 0.0);
        b.link(a2, r, ms, 0.0);
        b.link(near, r, ms, 0.0);
        b.link(r, d, ms, 0.1);
        b.default_via(far, a1);
        b.default_via(a1, a2);
        b.default_via(a2, r);
        b.default_via(near, r);
        b.default_via(r, d);
        let dst = b.addr_of(d);
        let topo = Arc::new(b.build());
        const N: u16 = 20_000;
        let lost = |all_at_once: bool| {
            let mut sim = Simulator::new(topo.clone(), 2006);
            for i in 0..N {
                let from = if i % 2 == 0 { far } else { near };
                sim.inject(from, udp_probe(src_addr(&topo, from), dst, 9, i));
                if !all_at_once {
                    sim.run_to_quiescence();
                }
            }
            sim.run_to_quiescence();
            let got: std::collections::BTreeSet<u16> = drain(&mut sim, d)
                .iter()
                .map(|(_, p)| match &p.transport {
                    Transport::Udp(u) => u.dst_port,
                    other => panic!("D got {other:?}"),
                })
                .collect();
            assert_eq!(sim.stats().dropped_loss as usize, usize::from(N) - got.len());
            (0..N).filter(|i| !got.contains(i)).collect::<Vec<u16>>()
        };
        // One at a time, packets reach `r` in the order they were born;
        // all at once, every packet from `near` gets there first. A
        // stream of draws advanced per arrival would lose different ones.
        let in_birth_order = lost(false);
        assert_eq!(
            lost(true),
            in_birth_order,
            "a packet's loss must not depend on who arrived first"
        );
        // Binomial(20 000, 0.1): mean 2 000, standard deviation 42.4. Five
        // of them either way is a band a fair draw leaves once in 1.7
        // million seeds.
        assert!(
            (1788..=2212).contains(&in_birth_order.len()),
            "{} of {N} lost on a 10 % link",
            in_birth_order.len()
        );
    }

    #[test]
    fn a_looping_packet_draws_afresh_at_every_pass() {
        // S — x ⇄ y: each sends D's traffic to the other, over a link
        // that loses one packet in five. A draw keyed without the TTL
        // would repeat at every lap: a packet would die on its first
        // crossing in either direction or never.
        let ms = SimDuration::from_millis(1);
        let mut b = TopologyBuilder::new();
        let s = b.host("S", HostConfig::default());
        let x = b.router("x", RouterConfig::default());
        let y = b.router("y", RouterConfig::default());
        b.link(s, x, ms, 0.0);
        b.link(x, y, ms, 0.2);
        b.default_via(s, x);
        b.default_via(x, y);
        b.default_via(y, x);
        let s_pfx = b.subnet_of(s);
        b.route_via(x, s_pfx, s);
        b.route_via(y, s_pfx, x);
        let topo = Arc::new(b.build());
        let mut sim = Simulator::new(topo.clone(), 5);
        let nowhere = Ipv4Addr::new(203, 0, 113, 9);
        let mut lost_after_a_lap = 0;
        for i in 0..200 {
            let before = sim.stats();
            sim.inject(s, udp_probe(src_addr(&topo, s), nowhere, 40, 33435 + i));
            sim.run_to_quiescence();
            let crossed = sim.stats().forwarded - before.forwarded;
            let lost = sim.stats().dropped_loss > before.dropped_loss;
            // S→x, x→y, y→x survived: the next loss is at a router that
            // let this packet through once already.
            if lost && crossed >= 3 {
                lost_after_a_lap += 1;
            }
            drain(&mut sim, s);
        }
        // 0.8 x 0.8 of them get that far, and 39 crossings at one in
        // five lose nearly all of those.
        assert!(lost_after_a_lap > 100, "only {lost_after_a_lap} of 200 were lost on a later lap");
    }

    // ------------------------------------------------------------------
    // The next-hop table
    // ------------------------------------------------------------------

    /// The probes a `TraceConfig::paper()` Paris UDP trace sends toward
    /// `sc`'s destination — one flow, TTL 2 to 11, the last one past the
    /// destination (`tests/event_count.rs` runs the trace itself) — one
    /// at a time, with or without the next-hop table: the longest-prefix
    /// lookups made and the links crossed.
    fn paris_trace_lookups(sc: &crate::scenarios::Scenario, table: bool) -> (u64, u64) {
        let mut sim = Simulator::new(sc.topology.clone(), 21);
        sim.state.table = table;
        let src = src_addr(&sc.topology, sc.source);
        for ttl in 2..=11 {
            let ip = Ipv4Header::new(src, sc.destination, protocol::UDP, ttl);
            let udp = UdpDatagram::new(41_000, 52_000, vec![0; 2]);
            sim.inject(sc.source, Packet::new(ip, Transport::Udp(udp)));
            sim.run_to_quiescence();
        }
        (sim.state.lookups, sim.stats().forwarded)
    }

    /// The layer number, held exactly: a hop is looked up once per unit.
    /// If a change makes the walk resolve every hop again, these counts
    /// go back to one per link crossed before any wall clock notices.
    #[test]
    fn a_paris_trace_looks_each_hop_up_once() {
        use crate::scenarios::fig1;
        use pt_wire::FlowPolicy;
        // Per-destination balancing at L is a function of (seed, L, dst)
        // and is stored. The flow takes L → B → D → E. Probes leave S,
        // r1–r5, L, B, D and E toward the destination: 10 pairs. Answers
        // come from r2–r5, L, D (B is silent), E and the destination
        // twice, and go back by E → C → A → L (C is silent) or D → B → L:
        // r1–r5, L, A, B, C, D, E and the destination leave toward S, 12
        // pairs. 22 lookups; the parent made one per link crossed, 121.
        let per_destination = fig1(BalancerKind::PerDestination);
        assert_eq!(paris_trace_lookups(&per_destination, true), (22, 121));
        // Without the table (the proptest's reference) every link
        // crossed is a lookup again.
        assert_eq!(paris_trace_lookups(&per_destination, false), (121, 121));
        // tests/event_count.rs's trace: per-flow balancing at L, the flow
        // takes L → A → C → E, and the answers come back the same way: 10
        // pairs out and 10 back. L's per-flow hop is resolved every time,
        // so the 5 probes that leave it (TTL 7 to 11) look it up 5 times:
        // 24 lookups, where the parent made 120.
        let per_flow = fig1(BalancerKind::PerFlow(FlowPolicy::FiveTuple));
        assert_eq!(paris_trace_lookups(&per_flow, true), (24, 120));
    }

    // ------------------------------------------------------------------
    // Fused walks against the per-hop engine
    // ------------------------------------------------------------------

    /// A simulator whose walks stop after `hop_limit` links: 1 is the
    /// reference, one event per hop and every hop resolved afresh by the
    /// longest-prefix lookup and the address index, with no next-hop
    /// table; `u32::MAX` is the engine that ships.
    fn sim_cut_at(topo: &Arc<Topology>, seed: u64, hop_limit: u32) -> Simulator {
        let mut sim = Simulator::new(topo.clone(), seed);
        sim.state.hop_limit = hop_limit;
        sim.state.table = hop_limit > 1;
        sim
    }

    const HOP_LIMITS: [u32; 4] = [1, 2, 3, u32::MAX];

    #[test]
    fn a_route_change_scheduled_under_a_walk_is_obeyed() {
        // S — r1 … r5 — {a, b} — D; r5 sends D's traffic to a. A TTL-6
        // probe leaves at 0 and would expire at a, 6 ms on. A change
        // scheduled after it left, for 3 ms, turns r5 (reached at 5 ms)
        // toward b: the Time Exceeded must come from b.
        let ms = SimDuration::from_millis(1);
        let mut b = TopologyBuilder::new();
        let s = b.host("S", HostConfig::default());
        let s_pfx = b.subnet_of(s);
        let mut prev = s;
        for i in 1..=5 {
            let r = b.router(&format!("r{i}"), RouterConfig::default());
            b.link(prev, r, ms, 0.0);
            b.default_via(prev, r);
            b.route_via(r, s_pfx, prev);
            prev = r;
        }
        let r5 = prev;
        let d = b.host("D", HostConfig::default());
        let mut via = Vec::new();
        for name in ["a", "b"] {
            let r = b.router(name, RouterConfig::default());
            b.link(r5, r, ms, 0.0);
            b.link(r, d, ms, 0.0);
            b.route_via(r, s_pfx, r5);
            b.default_via(r, d);
            via.push(r);
        }
        b.default_via(r5, via[0]);
        b.default_via(d, via[0]);
        let dst = b.addr_of(d);
        let topo = Arc::new(b.build());
        let toward_b = topo.iface_toward(r5, via[1]).unwrap();
        let b_addr = topo.node(via[1]).ifaces[0].addr;
        for limit in HOP_LIMITS {
            let mut sim = sim_cut_at(&topo, 1, limit);
            sim.inject(s, udp_probe(src_addr(&topo, s), dst, 6, 33435));
            sim.schedule_route_set(
                SimTime::ZERO + SimDuration::from_millis(3),
                r5,
                Ipv4Prefix::DEFAULT,
                Some(NextHop::Iface(toward_b)),
            );
            sim.run_to_quiescence();
            let got = drain(&mut sim, s);
            assert_eq!(got.len(), 1, "hop limit {limit}");
            assert_eq!(got[0].1.ip.src, b_addr, "hop limit {limit}: the probe took the old route");
            assert_eq!(got[0].0, SimTime::ZERO + SimDuration::from_millis(12), "hop limit {limit}");
        }
    }

    /// A splitmix64 stream: the script generator's dice.
    struct Dice(u64);

    impl Dice {
        /// Uniform in `0..n`.
        fn roll(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            splitmix64(self.0) % n
        }

        fn pick<T: Clone>(&mut self, from: &[T]) -> T {
            from[self.roll(from.len() as u64) as usize].clone()
        }
    }

    fn random_balancer(dice: &mut Dice) -> BalancerKind {
        use pt_wire::FlowPolicy;
        dice.pick(&[
            BalancerKind::PerFlow(FlowPolicy::FiveTuple),
            BalancerKind::PerFlow(FlowPolicy::FirstFourOctets),
            BalancerKind::PerPacket,
            BalancerKind::PerPacket,
            BalancerKind::PerDestination,
        ])
    }

    /// Healthy half the time, otherwise one of everything a router can
    /// do to a packet besides passing it on.
    fn random_router(dice: &mut Dice) -> RouterConfig {
        use crate::node::IcmpRateLimit;
        let base = RouterConfig::default();
        match dice.roll(16) {
            0 => RouterConfig::zero_ttl_forwarder(),
            1 => RouterConfig::silent(),
            2 => RouterConfig::mpls_interior(),
            3 => RouterConfig::udp_filter(),
            4 => RouterConfig::broken_forwarding(UnreachableCode::Host),
            5 => RouterConfig::rate_limited(SimDuration::from_millis(5), 2),
            6 => RouterConfig {
                icmp_rate_limit: Some(IcmpRateLimit {
                    interval: SimDuration::from_millis(2),
                    burst: 1,
                }),
                icmp_min_interval: Some(SimDuration::from_millis(3)),
                ..base
            },
            7 => base.with_fixed_responder(),
            _ => base,
        }
    }

    /// A link of mixed delay — zero included, so arrivals tie with each
    /// other and with route changes — sometimes asymmetric, sometimes
    /// lossy.
    fn random_link(b: &mut TopologyBuilder, dice: &mut Dice, from: NodeId, to: NodeId) {
        let delays = [0, 250, 1_000, 1_000, 1_000, 3_000].map(SimDuration::from_micros);
        let out = dice.pick(&delays);
        let back = if dice.roll(4) == 0 { dice.pick(&delays) } else { out };
        b.link_asym(from, to, out, back, dice.pick(&[0.0, 0.0, 0.0005, 0.05, 0.3]));
    }

    /// A net to run a script on: where probes start, what they may be
    /// addressed to, and the routers whose routes may change.
    struct Net {
        topo: Arc<Topology>,
        source: NodeId,
        targets: Vec<Ipv4Addr>,
        routers: Vec<NodeId>,
    }

    impl Net {
        fn of(sc: crate::scenarios::Scenario) -> Net {
            let topo = sc.topology;
            let routers: Vec<NodeId> = (0..topo.len())
                .map(NodeId)
                .filter(|&n| topo.node(n).kind.as_router().is_some())
                .collect();
            let targets = vec![
                sc.destination,
                sc.destination,
                topo.node(routers[routers.len() / 2]).primary_addr(),
                topo.node(sc.source).primary_addr(),
                Ipv4Addr::new(203, 0, 113, 99),
            ];
            Net { topo, source: sc.source, targets, routers }
        }

        /// S, then two to six stages — each a router, every third one
        /// the head of a diamond of two or three branches, one or two
        /// routers long, that rejoin — then D. One router in three nets
        /// is turned into a NAT gateway for everything behind it.
        fn random(dice: &mut Dice) -> Net {
            let mut b = TopologyBuilder::new();
            let source = b.host("S", HostConfig::default());
            let s_pfx = b.subnet_of(source);
            let mut spine = Vec::new();
            let mut prev = source;
            for i in 0..2 + dice.roll(5) {
                let head = b.router(&format!("r{i}"), random_router(dice));
                random_link(&mut b, dice, prev, head);
                b.default_via(prev, head);
                b.route_via(head, s_pfx, prev);
                spine.push(head);
                prev = head;
                if dice.roll(3) > 0 {
                    continue;
                }
                let tail = b.router(&format!("m{i}"), random_router(dice));
                let mut firsts = Vec::new();
                for j in 0..2 + dice.roll(2) {
                    let mut at = head;
                    for k in 0..1 + dice.roll(2) {
                        let x = b.router(&format!("x{i}.{j}.{k}"), random_router(dice));
                        random_link(&mut b, dice, at, x);
                        b.route_via(x, s_pfx, at);
                        if at == head {
                            firsts.push(x);
                        } else {
                            b.default_via(at, x);
                        }
                        at = x;
                    }
                    random_link(&mut b, dice, at, tail);
                    b.default_via(at, tail);
                    if j == 0 {
                        b.route_via(tail, s_pfx, at);
                    }
                }
                b.balanced_route(head, Ipv4Prefix::DEFAULT, random_balancer(dice), &firsts);
                spine.push(tail);
                prev = tail;
            }
            let host =
                if dice.roll(4) == 0 { HostConfig::firewalled() } else { HostConfig::default() };
            let d = b.host("D", host);
            random_link(&mut b, dice, prev, d);
            b.default_via(prev, d);
            b.default_via(d, prev);
            if dice.roll(3) == 0 {
                let gateway = dice.pick(&spine);
                let inside: Vec<Ipv4Prefix> = (gateway.0 + 1..b.node_count())
                    .flat_map(|n| b.subnets_of(NodeId(n)).to_vec())
                    .collect();
                let public = b.iface_addr(gateway, 0);
                b.set_router_config(gateway, RouterConfig::nat_gateway(public, inside));
            }
            let destination = b.addr_of(d);
            Net::of(crate::scenarios::Scenario {
                topology: Arc::new(b.build()),
                source,
                destination,
                addr: std::collections::BTreeMap::new(),
            })
        }
    }

    /// What a script does next.
    #[derive(Debug, Clone)]
    enum Op {
        Inject(Packet),
        RouteSet { after: SimDuration, node: NodeId, prefix: Ipv4Prefix, next_hop: Option<NextHop> },
        RunFor(SimDuration),
    }

    /// One probe in the shape of any of the six strategies: UDP with
    /// moving ports, UDP with fixed ports, ICMP echo classic and Paris,
    /// TCP SYN with a moving and a fixed port pair.
    fn random_probe(dice: &mut Dice, src: Ipv4Addr, dst: Ipv4Addr, nth: u16) -> Packet {
        let ttl = dice.roll(41) as u8;
        let transport = match dice.roll(6) {
            0 => Transport::Udp(UdpDatagram::new(33_768, 33_435 + nth, vec![0; 8])),
            1 => Transport::Udp(UdpDatagram::new(10_007, 20_011, nth.to_be_bytes().to_vec())),
            2 => Transport::Icmp(IcmpMessage::echo_probe_classic(77, nth)),
            3 => Transport::Icmp(IcmpMessage::echo_probe_paris(0x1234, nth)),
            4 => Transport::Tcp(TcpSegment::syn_probe(30_000 + nth, 80, 7)),
            _ => Transport::Tcp(TcpSegment::syn_probe(30_000, 80, u32::from(nth))),
        };
        Packet::new(Ipv4Header::new(src, dst, transport.protocol(), ttl), transport)
    }

    fn random_script(dice: &mut Dice, net: &Net) -> Vec<Op> {
        let src = net.topo.node(net.source).primary_addr();
        let quarter_ms = |n: u64| SimDuration::from_micros(250 * n);
        (0..8 + dice.roll(40) as u16)
            .map(|nth| match dice.roll(8) {
                0 | 1 => Op::RunFor(quarter_ms(dice.roll(24))),
                2 => {
                    let node = dice.pick(&net.routers);
                    let ifaces = net.topo.node(node).ifaces.len() as u64;
                    let iface = |dice: &mut Dice| dice.roll(ifaces) as usize;
                    let next_hop = match dice.roll(5) {
                        0 => None,
                        1 => Some(NextHop::Blackhole),
                        2 => Some(NextHop::Balanced {
                            kind: BalancerKind::PerPacket,
                            egresses: vec![iface(dice), iface(dice)],
                        }),
                        _ => Some(NextHop::Iface(iface(dice))),
                    };
                    let prefix = dice.pick(&[
                        Ipv4Prefix::DEFAULT,
                        Ipv4Prefix::host(net.targets[0]),
                        Ipv4Prefix::host(src),
                    ]);
                    Op::RouteSet { after: quarter_ms(dice.roll(32)), node, prefix, next_hop }
                }
                _ => {
                    let dst = dice.pick(&net.targets);
                    Op::Inject(random_probe(dice, src, dst, nth))
                }
            })
            .collect()
    }

    /// Everything an observer outside the engine can see of a run: after
    /// each `RunFor` and once more at quiescence, the clock, the packets
    /// in flight, the counters (`forwarded` only at the end: mid-flight
    /// it trails by the walks in progress) and every node's deliveries.
    fn observe(net: &Net, seed: u64, script: &[Op], hop_limit: u32) -> Vec<String> {
        let mut sim = sim_cut_at(&net.topo, seed, hop_limit);
        let mut seen = Vec::new();
        let mut look = |sim: &mut Simulator, quiescent: bool| {
            let mut stats = sim.stats();
            if !quiescent {
                stats.forwarded = 0;
            }
            seen.push(format!("{:?} in flight {} {stats:?}", sim.now(), sim.in_flight()));
            for node in (0..net.topo.len()).map(NodeId) {
                for delivery in drain(sim, node) {
                    seen.push(format!("{node:?} {delivery:?}"));
                }
            }
        };
        for op in script {
            match op.clone() {
                Op::Inject(packet) => sim.inject(net.source, packet),
                Op::RouteSet { after, node, prefix, next_hop } => {
                    sim.schedule_route_set(sim.now() + after, node, prefix, next_hop)
                }
                Op::RunFor(span) => {
                    sim.run_until(sim.now() + span);
                    look(&mut sim, false);
                }
            }
        }
        sim.run_to_quiescence();
        look(&mut sim, true);
        seen
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(400))]

        /// Fused and per-hop execution, with and without the next-hop
        /// table, are one function: on the paper's figures and on random
        /// nets, with probes of every shape and TTL, route changes
        /// landing under packets in flight and the clock stopped at
        /// random instants, a walk cut after 2 or 3 hops or never shows
        /// an observer the run the table-less per-hop engine shows.
        #[test]
        fn a_walk_cut_anywhere_is_the_same_run(case in proptest::prelude::any::<u64>()) {
            use crate::scenarios;
            let mut dice = Dice(case);
            let kind = random_balancer(&mut dice);
            let net = match dice.roll(16) {
                0 => Net::of(scenarios::fig1(kind)),
                1 => Net::of(scenarios::fig3(kind)),
                2 => Net::of(scenarios::fig4()),
                3 => Net::of(scenarios::fig5()),
                4 => Net::of(scenarios::fig6(kind)),
                5 => Net::of(scenarios::unreachability_loop()),
                6 => Net::of(scenarios::linear(1 + dice.roll(12) as usize)),
                7 => Net::of(scenarios::forwarding_loop_chain().0),
                _ => Net::random(&mut dice),
            };
            let script = random_script(&mut dice, &net);
            let per_hop = observe(&net, case, &script, 1);
            for limit in &HOP_LIMITS[1..] {
                let fused = observe(&net, case, &script, *limit);
                proptest::prop_assert_eq!(&fused, &per_hop, "hop limit {}: {:#?}", limit, script);
            }
        }
    }
}
