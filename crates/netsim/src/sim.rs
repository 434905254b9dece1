//! The discrete-event engine: packet forwarding, TTL expiry, ICMP
//! generation, load balancing, NAT rewriting and routing dynamics.
//!
//! **Order and draws.** Events pop in `(time, birth)` order: a packet is
//! stamped once, when it enters the simulator or a node originates it,
//! and keeps that birth across every hop; a route change is stamped when
//! scheduled. The two random decisions — link loss and per-packet
//! balancing — are each one hash of `(seed, node, birth, TTL, purpose)`
//! (`draw`), never a stream some node advances. So what a router does
//! to a packet it only passes on depends on the packet and the routing
//! tables, not on which other packets came by first.
//!
//! **Walks.** Those hops are therefore not run as events. Leaving a
//! node, a packet *walks* (`SimState::walk`) across every router that
//! would merely decrement its TTL and forward it, and one `Arrival` is
//! scheduled where something else happens: expiry, delivery, a host, a
//! router whose treatment depends on the packet (a UDP filter, a NAT
//! gateway) or that passes nothing on (a broken router), a drop, or the
//! instant of the next pending route change. So what a router does to a
//! packet is decided in one place, `SimState::process_arrival`. The
//! walk reads the next-hop table and writes only the queue (and the
//! table, on a miss); the TTL it owes and the `forwarded` count are
//! settled when that arrival pops, and a route change scheduled under a
//! walk in progress cuts it back ([`Simulator::schedule_route_set`]). A
//! router crossed costs one table probe, a test of its class against the
//! TTL and, on a lossy link, one draw: outside a per-flow balancer's
//! hash, the walk never reads the packet beyond its destination and TTL.
//!
//! **The next-hop table.** Everything a walk reads about a hop — the
//! neighbour and the interface it lands on, the link's delay and loss,
//! and the neighbour's `Class`: whether it owns the destination, and
//! if not, whether it passes packets on — is a function of `(routing
//! tables, node, ip.dst)`, and every probe of a trace crosses the
//! routers its predecessor crossed, answers included (§2.1).
//! `SimState::resolve` finds it by the longest-prefix lookup and the
//! address index when a hop is first needed and keeps it in a
//! direct-mapped table of `HOP_SLOTS` entries keyed by `(node, dst)`,
//! so a probe's hop and its answer's hop through one router are both
//! resident; `SimState::hop` reads it there. An entry holds while its
//! stamp is the simulator's, which every *applied* route change bumps,
//! and so does the [`Simulator::reset`] that reverts one: a change
//! scheduled but not applied already stops walks at its instant. So a
//! destination's next round finds the hops the last one resolved. The
//! table is never swept. It stores single-interface routes only;
//! balanced routes of every kind, blackholes, missing routes and
//! unattached interfaces are resolved every time. A lossy link's draw
//! is the packet's own, taken after the entry is read, from the leaving
//! node's seed.
//!
//! A run is a pure function of `(topology, seed, injected packets,
//! scheduled route changes)` — the function a naive simulator computes
//! with one event and one route lookup per hop, which the tests below
//! check against such a reference, written apart in test code
//! (`reference.rs`). The schedule is a deque kept sorted by the
//! key ([`crate::wheel::EventWheel`]): each in-flight packet is one
//! pending stateful arrival, a tracer's window a dozen or so, and no
//! event allocates.
//!
//! In-flight packets are arena-resident ([`crate::arena::PacketArena`]):
//! events move 4-byte [`PacketRef`] handles, stateful arrivals mutate
//! TTL/NAT fields in place, and both slots and payload buffers are
//! recycled, so steady-state forwarding performs no per-event heap
//! allocation. Node state is *sparse*: a node's IP-ID counter,
//! rate-limiter fill and routing table are derived from the seed when a
//! unit first touches the node, and are held for the touched nodes only
//! — a unit's few dozen, of a topology's thousands — behind one 4-byte
//! index per node. So [`Simulator::reset`] is O(in-flight + delivered +
//! touched), which lets the campaign runner afford a pristine simulator
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
use crate::node::{BalancerKind, NodeKind, ResponderAddr, RouterConfig, ROUTER_ICMP_TTL};
use crate::routing::{NextHop, RoutingTable};
use crate::time::{SimDuration, SimTime};
use crate::topology::{Endpoint, Node, NodeId, Topology};
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

/// A touched node's state: an entry of `SimState::touched`.
#[derive(Debug)]
struct NodeState {
    /// The node it belongs to: an index in `SimState::slot_of`, stale
    /// after a reset, counts only while the entry it finds names it.
    node: NodeId,
    /// This simulator's copy of the node's table, taken at the first route
    /// change here since the last reset; `None` (one null word) reads the
    /// topology's. Changes hit only `DestInfo::chain` routers (≤ 2 routes
    /// each, pinned in pt-topogen) and figure nodes, so a copy is cheap.
    routing: Option<Box<RoutingTable>>,
    /// The router's internal 16-bit counter stamped into the IP
    /// Identification of packets it originates.
    ip_id: u16,
    /// Token-bucket rate-limiter fill. `u32::MAX` is the untouched
    /// sentinel (the bucket starts full on first use); the capacity
    /// lives in the router's immutable config, so the entry stays a
    /// pure function of `(seed, node)`.
    icmp_tokens: u32,
    /// When `icmp_tokens` was last settled (whole-token boundaries
    /// only, so fractional refill credit carries forward exactly).
    icmp_tokens_at: SimTime,
    /// The node's delivery lane in `SimState::lanes`, from its first
    /// delivery since the last reset.
    lane: Option<usize>,
}

impl NodeState {
    /// Derive `node`'s state from the simulator seed — a pure function
    /// of `(seed, node)`, so it does not matter *when* (or in what
    /// order) nodes are first touched.
    fn fresh(seed: u64, node: NodeId) -> NodeState {
        NodeState {
            node,
            // O(1) and allocation-free: the table stays in the topology.
            routing: None,
            ip_id: (node_seed(seed, node) >> 32) as u16,
            icmp_tokens: u32::MAX,
            icmp_tokens_at: SimTime::ZERO,
            lane: None,
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
    /// The next-hop table ([`SimState::hop`]), direct-mapped on
    /// `(node, dst)`.
    hops: Box<[Hop; HOP_SLOTS]>,
    /// The stamp an entry must carry to be read: bumped by every route
    /// change applied, and by the [`Simulator::reset`] that reverts one.
    hop_stamp: u64,
    /// Whether a route change was applied since the last reset.
    routes_changed: bool,
    /// Longest-prefix lookups made: the tests' layer number.
    #[cfg(test)]
    lookups: u64,
    /// Each node's index into `touched` ([`SimState::slot`]): the one
    /// word per node a simulator holds, and no hashing on any path.
    slot_of: Vec<u32>,
    /// The nodes touched since the last reset, in first-touch order.
    touched: Vec<NodeState>,
    /// Delivery lanes in first-receive order, so the probing source gets
    /// lane 0 every unit: a ring of a handful of slots, not a
    /// destination's hundred. Reset drains the first `lanes_used` and
    /// keeps every lane, so no destination host's delivery allocates.
    lanes: Vec<VecDeque<(SimTime, Packet)>>,
    lanes_used: usize,
    stats: SimStats,
    /// Recycled buffer for quoting offending packets into ICMP, so the
    /// response path performs no per-packet allocation.
    scratch: Vec<u8>,
    /// Slab holding every in-flight packet; events carry [`PacketRef`]s.
    arena: PacketArena,
    /// Seed all node state derives from.
    seed: u64,
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

/// Entries in the next-hop table (20 KiB of [`Hop`]s). A campaign unit
/// stores at most 41 distinct `(node, dst)` pairs on any `ptbench`
/// workload (p99 31–35, mean 22), and its destination's next rounds
/// read the same ones, so 512 slots hold a destination at under 8 %
/// load, and collisions cost 0.9–2.0 % of hops a second lookup (1024
/// slots halve that at twice the memory; 256 double it;
/// `docs/PERFORMANCE.md`, "Decisions taken against an alternative").
/// Earlier destinations' entries stay until overwritten.
const HOP_SLOTS: usize = 512;

/// What the node at a hop's far end does with a packet addressed to
/// the hop's destination — what decides whether a walk ends there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Class {
    /// It owns the destination: the packet is delivered there.
    Dest,
    /// A host, or a router that passes nothing on (a broken one) or
    /// whose treatment depends on the packet (a UDP filter, a NAT
    /// gateway): [`SimState::process_arrival`] decides what happens.
    #[default]
    Stops,
    /// A router that passes on what does not expire there (TTL > 1).
    Plain,
    /// A zero-TTL forwarder: passes TTL 1 on as 0 (TTL > 0).
    ZeroTtl,
}

impl Class {
    /// The class of `node` for packets addressed to `dst`. The builder's
    /// address index, not a scan of the node's interfaces: core routers
    /// carry hundreds.
    fn of(topo: &Topology, node: NodeId, dst: Ipv4Addr) -> Class {
        if topo.owner_of(dst) == Some(node) {
            return Class::Dest;
        }
        let NodeKind::Router(cfg) = &topo.node(node).kind else { return Class::Stops };
        if cfg.broken.is_some() || cfg.filter_udp || cfg.nat.is_some() {
            Class::Stops
        } else if cfg.zero_ttl_forwarding {
            Class::ZeroTtl
        } else {
            Class::Plain
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
    /// Whether a packet reaching `self.to` with `ttl` is only
    /// decremented and passed on there: a plain or zero-TTL-forwarding
    /// router at which it does not expire. (`process_arrival` is what
    /// happens otherwise.)
    fn passes(&self, ttl: u8) -> bool {
        match self.class {
            Class::Dest | Class::Stops => false,
            Class::Plain => ttl > 1,
            Class::ZeroTtl => ttl > 0,
        }
    }
}

/// A next-hop table entry: `node`'s hop toward `dst` under the tables of
/// `stamp`, and the link's loss, in 40 bytes: node ids and the interface
/// index are narrowed, and a hop whose ids do not fit is resolved every
/// time instead of stored. The default is vacant: stamps start at 1.
#[derive(Debug, Clone, Copy, Default)]
struct Hop {
    stamp: u64,
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
    /// `seed`. Per node it holds one 4-byte index and no state.
    pub fn new(topology: Arc<Topology>, seed: u64) -> Self {
        let state = SimState {
            slot_of: vec![0; topology.nodes.len()],
            touched: Vec::new(),
            lanes: Vec::new(),
            lanes_used: 0,
            clock: SimTime::ZERO,
            next_seq: 0,
            queue: EventWheel::new(),
            route_horizon: NEVER,
            hops: Box::new([Hop::default(); HOP_SLOTS]),
            hop_stamp: 1,
            routes_changed: false,
            #[cfg(test)]
            lookups: 0,
            stats: SimStats::default(),
            scratch: Vec::new(),
            arena: PacketArena::new(),
            seed,
        };
        Simulator { topo: topology, state }
    }

    /// Rewind to the state `Simulator::new(topology, seed)` would
    /// produce, while keeping every allocation warm: the event queue's
    /// capacity, the arena's slots and payload-buffer pool, the drained
    /// delivery lanes, the touched-node list and the ICMP scratch buffer
    /// all survive. Clearing the list leaves every node's index stale,
    /// so the cost is O(in-flight + undelivered + touched), *not*
    /// O(nodes) — cheap enough to call once per `(destination, round)`
    /// campaign work unit. The next-hop table survives too, which no run
    /// can tell (the module docs say why).
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
        for lane in &mut st.lanes[..st.lanes_used] {
            for (_, packet) in lane.drain(..) {
                st.arena.recycle_packet(packet);
            }
        }
        st.lanes_used = 0;
        st.touched.clear();
        debug_assert!(st.arena.is_empty(), "in-flight packet leaked across reset");
        st.clock = SimTime::ZERO;
        st.next_seq = 0;
        st.stats = SimStats::default();
        st.seed = seed;
        // Entries made since a route change read tables this reverts.
        if std::mem::take(&mut st.routes_changed) {
            st.hop_stamp += 1;
        }
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
                let base = &self.topo.node(node).routing;
                let own = st.node(node).routing.get_or_insert_with(|| Box::new((**base).clone()));
                match next_hop {
                    Some(nh) => own.set(prefix, nh),
                    None => _ = own.remove(prefix),
                }
                // Every hop resolved so far read the tables before this.
                st.hop_stamp += 1;
                st.routes_changed = true;
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
        let lane = self.state.touched[self.state.slot(node)?].lane?;
        self.state.lanes[lane].pop_front()
    }

    /// A cleared payload buffer from the arena's recycling pool (fresh
    /// when the pool is empty). Probe builders grab buffers here — via
    /// the tracer-side `Transport::grab_payload` hook — so the payloads
    /// of released responses circulate back into new probes and the
    /// probe→response cycle stops allocating after warm-up.
    pub fn grab_payload(&mut self) -> Vec<u8> {
        self.state.arena.grab_payload()
    }

    /// Read `node`'s live routing table (tests and dynamics helpers):
    /// this simulator's copy once a route change has been applied there
    /// since the last reset, else the topology's shared table.
    pub fn routing_of(&self, node: NodeId) -> &RoutingTable {
        self.state.routing(&self.topo, node)
    }
}

impl SimState {
    /// `node`'s index into `touched`, if it was touched since the last
    /// reset: its index counts only when the entry there names it.
    fn slot(&self, node: NodeId) -> Option<usize> {
        let slot = self.slot_of[node.0] as usize;
        (self.touched.get(slot)?.node == node).then_some(slot)
    }

    /// `node`'s state, derived from the seed on its first touch since
    /// the last reset. Every path that writes node state goes through
    /// here.
    fn node(&mut self, node: NodeId) -> &mut NodeState {
        let slot = self.slot(node).unwrap_or_else(|| {
            // At most one entry per node, so this fails only past 2^32.
            let slot = u32::try_from(self.touched.len()).expect("at most 2^32 nodes");
            self.slot_of[node.0] = slot;
            self.touched.push(NodeState::fresh(self.seed, node));
            self.touched.len() - 1
        });
        &mut self.touched[slot]
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
                    let ttl = self.arena.get(packet).ip.ttl;
                    if ttl == 0 || (ttl == 1 && !cfg.zero_ttl_forwarding) {
                        if cfg.mpls_hidden {
                            // LSP interior: the expired packet vanishes
                            // inside the tunnel — no Time Exceeded.
                            self.stats.dropped_mpls_hidden += 1;
                            self.arena.release(packet);
                            return;
                        }
                        // Expired: quote the packet exactly as received —
                        // probe TTL 1 normally, 0 past a zero-TTL forwarder.
                        self.icmp_error(topo, node, iface_in, cfg, packet, IcmpKind::TimeExceeded);
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
                    let unreachable = IcmpKind::Unreachable(code);
                    self.icmp_error(topo, node, iface_in, cfg, packet, unreachable);
                    return;
                }
                self.forward(topo, node, packet, birth);
            }
        }
    }

    fn deliver_local(&mut self, topo: &Topology, node: NodeId, packet: PacketRef) {
        self.stats.delivered += 1;
        let packet = self.arena.take(packet);
        let response = self.local_response(node, &topo.node(node).kind, &packet);
        let used = self.lanes_used;
        let lane = *self.node(node).lane.get_or_insert(used);
        if lane == used {
            // A first delivery since the reset: a drained lane, or a new one.
            self.lanes_used += 1;
            if lane == self.lanes.len() {
                self.lanes.push(VecDeque::new());
            }
        }
        self.lanes[lane].push_back((self.clock, packet));
        if let Some(resp) = response {
            self.originate(topo, node, resp);
        }
    }

    /// `node`'s answer to `packet`, which is addressed to it, from the
    /// probed address: a Port Unreachable to UDP, an Echo Reply to an
    /// Echo Request, and to a SYN a SYN-ACK from an open port or an RST
    /// from a closed one. A router's ports are all closed, and a silent
    /// router answers nothing at all. A host answers what its config
    /// lets through and counts what it refuses.
    fn local_response(&mut self, node: NodeId, kind: &NodeKind, packet: &Packet) -> Option<Packet> {
        let (udp, open_ports, rst) = match kind {
            NodeKind::Router(cfg) if cfg.silent => {
                self.stats.dropped_silent += 1;
                return None;
            }
            NodeKind::Router(_) => (true, &[][..], true),
            NodeKind::Host(h) => (h.udp_responds, h.open_tcp_ports.as_slice(), h.tcp_responds),
        };
        let (probed, ttl) = (packet.ip.dst, kind.icmp_initial_ttl());
        let answer = match &packet.transport {
            // Echo replies, errors, non-SYN TCP: consumed silently.
            Transport::Icmp(msg) if !matches!(msg, IcmpMessage::EchoRequest { .. }) => return None,
            Transport::Tcp(seg) if seg.control & tcp_flags::SYN == 0 => return None,
            Transport::Udp(_) if udp => {
                let port = IcmpKind::Unreachable(UnreachableCode::Port);
                return Some(self.icmp_response(node, probed, ttl, packet, port));
            }
            Transport::Icmp(IcmpMessage::EchoRequest { identifier, seq, payload }) => {
                self.stats.echo_replies_sent += 1;
                // Echo the payload through a pooled buffer: once the
                // pool is warm the reply path allocates nothing.
                let mut echoed = self.arena.grab_payload();
                echoed.extend_from_slice(payload);
                let (identifier, seq) = (*identifier, *seq);
                Transport::Icmp(IcmpMessage::EchoReply { identifier, seq, payload: echoed })
            }
            Transport::Tcp(seg) if rst || open_ports.contains(&seg.dst_port) => {
                self.stats.tcp_responses_sent += 1;
                let mut resp = TcpSegment::syn_probe(seg.dst_port, seg.src_port, 0);
                resp.ack = seg.seq.wrapping_add(1);
                resp.control = if open_ports.contains(&seg.dst_port) {
                    tcp_flags::SYN | tcp_flags::ACK
                } else {
                    tcp_flags::RST | tcp_flags::ACK
                };
                Transport::Tcp(resp)
            }
            // What a host's config keeps it from answering.
            _ => {
                self.stats.dropped_host_mute += 1;
                return None;
            }
        };
        Some(self.build_response(node, probed, packet.ip.src, ttl, answer))
    }

    /// Answer `packet`, which router `node` (config `cfg`) does not pass
    /// on, with the ICMP error `kind` — unless the router is silent or
    /// its rate limiter holds no token. The error quotes the packet as
    /// received and comes from [`SimState::responding_addr`].
    fn icmp_error(
        &mut self,
        topo: &Topology,
        node: NodeId,
        iface_in: Option<usize>,
        cfg: &RouterConfig,
        packet: PacketRef,
        kind: IcmpKind,
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
        // The packet is consumed here: move it out, quote it, then hand
        // its payload buffer back to the pool.
        let packet = self.arena.take(packet);
        let src = Self::responding_addr(topo.node(node), cfg, iface_in);
        let resp = self.icmp_response(node, src, ROUTER_ICMP_TTL, &packet, kind);
        self.arena.recycle_packet(packet);
        self.originate(topo, node, resp);
    }

    /// Whether router `cfg`'s token bucket holds no ICMP for `node` now;
    /// if it holds one, the ICMP spends it.
    fn rate_limited(&mut self, node: NodeId, cfg: &RouterConfig) -> bool {
        let Some(tb) = cfg.icmp_rate_limit else { return false };
        let clock = self.clock;
        let state = self.node(node);
        if state.icmp_tokens == u32::MAX {
            // The first ICMP since the entry was derived: the bucket
            // starts full. The sentinel keeps `NodeState::fresh` a pure
            // function of `(seed, node)` without knowing `burst`.
            state.icmp_tokens = tb.burst;
            state.icmp_tokens_at = clock;
        } else {
            let interval = tb.interval.nanos().max(1);
            let minted = clock.since(state.icmp_tokens_at).nanos() / interval;
            if minted > 0 {
                let fill = u64::from(state.icmp_tokens).saturating_add(minted);
                if fill >= u64::from(tb.burst) {
                    state.icmp_tokens = tb.burst;
                    // A full bucket stops accruing credit.
                    state.icmp_tokens_at = clock;
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
        false
    }

    /// The address router `cfg` answers from: by default the interface
    /// the offending packet arrived on (the address classic traceroute
    /// reports), or the primary address for fixed-responder routers.
    fn responding_addr(node: &Node, cfg: &RouterConfig, iface_in: Option<usize>) -> Ipv4Addr {
        match iface_in {
            Some(i) if cfg.responder == ResponderAddr::IncomingIface => node.ifaces[i].addr,
            _ => node.primary_addr(),
        }
    }

    /// An ICMP error of `kind` quoting `offending`, counted as sent.
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
            IcmpKind::TimeExceeded => {
                self.stats.time_exceeded_sent += 1;
                IcmpMessage::TimeExceeded { quotation }
            }
            IcmpKind::Unreachable(code) => {
                self.stats.dest_unreachable_sent += 1;
                IcmpMessage::DestUnreachable { code, quotation }
            }
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
        let state = self.node(node);
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
            if !fused || !next.passes(ttl) {
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

    /// `node`'s live routing table: see [`Simulator::routing_of`].
    fn routing<'a>(&'a self, topo: &'a Topology, node: NodeId) -> &'a RoutingTable {
        match self.slot(node).and_then(|slot| self.touched[slot].routing.as_deref()) {
            Some(own) => own,
            None => &topo.node(node).routing,
        }
    }

    /// Where `packet` (addressed to `dst`, born `birth`) lands when it
    /// leaves `node` with `ttl`: the next-hop table's entry for `(node,
    /// dst)` when it holds one under the current stamp, else what
    /// [`SimState::resolve`] finds; then the link's loss, drawn for this
    /// packet. Always inlined into the walk, so a hop from the table
    /// stays in registers: out of line, its result went through the
    /// stack, and builds differing by one dead term read `mda_fanout`
    /// 25–40 % apart (`docs/PERFORMANCE.md`, "Decisions taken against an
    /// alternative").
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
        let (next, loss) = if held.stamp == self.hop_stamp
            && held.node as usize == node.0
            && held.dst == u32::from(dst)
        {
            let to = Endpoint { node: NodeId(held.to as usize), iface: held.iface.into() };
            (Next { to, delay: held.delay, class: held.class }, held.loss)
        } else {
            self.resolve(topo, node, dst, packet, birth, ttl)?
        };
        // The top 53 bits as a uniform fraction in [0, 1). The leaving
        // node's seed is derived only for a lossy link.
        let uniform =
            |seed: u64| (draw(seed, birth, ttl, Draw::Loss) >> 11) as f64 / (1u64 << 53) as f64;
        if loss > 0.0 && uniform(node_seed(self.seed, node)) < loss {
            return Err(Lost::OnLink);
        }
        Ok(next)
    }

    /// The hop [`SimState::hop`] did not find in the table: the
    /// longest-prefix lookup, the balancer's choice, the link and the
    /// class of its far end, with the link's loss; stored when they are a
    /// function of `(tables, node, dst)` alone, as a single-interface
    /// route's are. Kept out of line, so the walk stays small.
    #[inline(never)]
    fn resolve(
        &mut self,
        topo: &Topology,
        node: NodeId,
        dst: Ipv4Addr,
        packet: PacketRef,
        birth: u64,
        ttl: u8,
    ) -> Result<(Next, f64), Lost> {
        #[cfg(test)]
        {
            self.lookups += 1;
        }
        let seed = node_seed(self.seed, node);
        let routing = self.routing(topo, node);
        // Only a single-interface route's hop is stored.
        let (iface, stored) = match routing.lookup(dst).ok_or(Lost::NoRoute)? {
            NextHop::Iface(i) => (*i, true),
            NextHop::Blackhole => return Err(Lost::Blackhole),
            NextHop::Balanced { kind, egresses } => {
                let salted = |key: u64| splitmix64(key ^ balancer_salt(seed));
                let word = match kind {
                    BalancerKind::PerFlow(policy) => {
                        salted(policy.flow_key(self.arena.get(packet)).0)
                    }
                    BalancerKind::PerPacket => draw(seed, birth, ttl, Draw::Egress),
                    BalancerKind::PerDestination => salted(u64::from(u32::from(dst))),
                };
                (egresses[(word % egresses.len() as u64) as usize], false)
            }
        };
        // Loopback/unattached interface: nowhere to go.
        let link = topo.link(topo.node(node).ifaces[iface].link.ok_or(Lost::NoRoute)?);
        let to = link.other_end(node);
        let next = Next { to, delay: link.delay_from(node), class: Class::of(topo, to.node, dst) };
        let slot = hop_slot(node, dst);
        let ids = (u32::try_from(node.0), u32::try_from(to.node.0), u16::try_from(to.iface));
        if let (true, (Ok(node), Ok(to), Ok(iface))) = (stored, ids) {
            self.hops[slot] = Hop {
                stamp: self.hop_stamp,
                loss: link.loss,
                delay: next.delay,
                node,
                dst: dst.into(),
                to,
                iface,
                class: next.class,
            };
        }
        Ok((next, link.loss))
    }
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
/// but with its event queue, arena slots, payload buffers, delivery
/// lanes and next-hop table already warm when a previously released
/// simulator was available. Campaign workers keep one pool each, so
/// per-destination trace tasks pay no construction or steady-state
/// allocation cost after their first work unit, and each pooled
/// simulator holds one 4-byte index per node of the topology.
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
    use crate::reference::Reference;
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
    fn drain(sim: &mut dyn Engine, node: NodeId) -> Vec<(SimTime, Packet)> {
        std::iter::from_fn(|| sim.pop_delivery(node)).collect()
    }

    /// What a test drives and observes: the simulator that ships, or
    /// the naive reference it is held to.
    trait Engine {
        fn inject(&mut self, node: NodeId, packet: Packet);
        fn schedule_route_set(
            &mut self,
            at: SimTime,
            node: NodeId,
            prefix: Ipv4Prefix,
            next_hop: Option<NextHop>,
        );
        fn run_until(&mut self, t: SimTime);
        fn run_to_quiescence(&mut self);
        fn now(&self) -> SimTime;
        fn in_flight(&self) -> usize;
        fn stats(&self) -> SimStats;
        fn pop_delivery(&mut self, node: NodeId) -> Option<(SimTime, Packet)>;
    }

    impl Engine for Simulator {
        fn inject(&mut self, node: NodeId, packet: Packet) {
            Simulator::inject(self, node, packet)
        }
        fn schedule_route_set(
            &mut self,
            at: SimTime,
            node: NodeId,
            prefix: Ipv4Prefix,
            next_hop: Option<NextHop>,
        ) {
            Simulator::schedule_route_set(self, at, node, prefix, next_hop)
        }
        fn run_until(&mut self, t: SimTime) {
            Simulator::run_until(self, t)
        }
        fn run_to_quiescence(&mut self) {
            Simulator::run_to_quiescence(self)
        }
        fn now(&self) -> SimTime {
            Simulator::now(self)
        }
        fn in_flight(&self) -> usize {
            Simulator::in_flight(self)
        }
        fn stats(&self) -> SimStats {
            Simulator::stats(self)
        }
        fn pop_delivery(&mut self, node: NodeId) -> Option<(SimTime, Packet)> {
            Simulator::pop_delivery(self, node)
        }
    }

    impl Engine for Reference {
        fn inject(&mut self, node: NodeId, packet: Packet) {
            Reference::inject(self, node, packet)
        }
        fn schedule_route_set(
            &mut self,
            at: SimTime,
            node: NodeId,
            prefix: Ipv4Prefix,
            next_hop: Option<NextHop>,
        ) {
            Reference::schedule_route_set(self, at, node, prefix, next_hop)
        }
        fn run_until(&mut self, t: SimTime) {
            Reference::run_until(self, t)
        }
        fn run_to_quiescence(&mut self) {
            Reference::run_to_quiescence(self)
        }
        fn now(&self) -> SimTime {
            Reference::now(self)
        }
        fn in_flight(&self) -> usize {
            Reference::in_flight(self)
        }
        fn stats(&self) -> SimStats {
            let crate::reference::Counters {
                forwarded,
                time_exceeded_sent,
                dest_unreachable_sent,
                echo_replies_sent,
                tcp_responses_sent,
                dropped_loss,
                dropped_silent,
                dropped_rate_limited,
                dropped_mpls_hidden,
                dropped_filtered,
                dropped_no_route,
                dropped_blackhole,
                dropped_host_mute,
                nat_rewrites,
                delivered,
            } = self.counters;
            SimStats {
                forwarded,
                time_exceeded_sent,
                dest_unreachable_sent,
                echo_replies_sent,
                tcp_responses_sent,
                dropped_loss,
                dropped_silent,
                dropped_rate_limited,
                dropped_mpls_hidden,
                dropped_filtered,
                dropped_no_route,
                dropped_blackhole,
                dropped_host_mute,
                nat_rewrites,
                delivered,
            }
        }
        fn pop_delivery(&mut self, node: NodeId) -> Option<(SimTime, Packet)> {
            self.take_delivery(node)
        }
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
    fn a_stale_index_reads_as_untouched() {
        // S — r1 — r2 — D, each router allowed one ICMP error a second.
        let mut b = TopologyBuilder::new();
        let limited = || RouterConfig::rate_limited(SimDuration::from_millis(1000), 1);
        let s = b.host("S", HostConfig::default());
        let r1 = b.router("r1", limited());
        let r2 = b.router("r2", limited());
        let d = b.host("D", HostConfig::default());
        b.link(s, r1, SimDuration::from_millis(1), 0.0);
        b.link(r1, r2, SimDuration::from_millis(1), 0.0);
        b.link(r2, d, SimDuration::from_millis(1), 0.0);
        b.default_via(s, r1);
        b.default_via(r1, r2);
        b.default_via(r2, d);
        b.default_via(d, r2);
        let s_pfx = b.subnet_of(s);
        b.route_via(r2, s_pfx, r1);
        b.route_via(r1, s_pfx, s);
        let dst = b.addr_of(d);
        let topo = Arc::new(b.build());
        let (src, r2_addr) = (src_addr(&topo, s), topo.node(r2).primary_addr());
        // r2 is touched first and holds every kind of node state: its
        // own table (the default route removed), a spent token bucket,
        // a moved IP-ID and a delivery.
        let unit = |sim: &mut Simulator| {
            sim.schedule_route_set(SimTime::ZERO, r2, Ipv4Prefix::DEFAULT, None);
            sim.run_to_quiescence();
            sim.inject(s, udp_probe(src, dst, 2, 33435));
            sim.inject(s, udp_probe(src, r2_addr, 30, 33436));
            sim.run_to_quiescence();
        };
        let mut fresh = Simulator::new(topo.clone(), 42);
        unit(&mut fresh);
        // Before the reset r1 was touched first, so after it r1's index
        // finds r2's entry.
        let mut reused = Simulator::new(topo.clone(), 7);
        reused.inject(s, udp_probe(src, dst, 1, 33437));
        reused.run_to_quiescence();
        reused.reset(42);
        unit(&mut reused);
        assert_eq!(reused.state.slot_of[r1.0], reused.state.slot_of[r2.0], "r1's index is stale");
        assert!(reused.pop_delivery(r1).is_none(), "r1 received nothing");
        assert!(std::ptr::eq(reused.routing_of(r1), &*topo.node(r1).routing), "topology's table");
        // r1's first Time Exceeded finds its bucket full and carries the
        // IP-ID its seed derives, as in the fresh simulator.
        for sim in [&mut fresh, &mut reused] {
            sim.inject(s, udp_probe(src, dst, 1, 33438));
            sim.run_to_quiescence();
        }
        let got = drain(&mut reused, s);
        assert_eq!(got.len(), 3, "r2's Time Exceeded and Port Unreachable, r1's Time Exceeded");
        assert_eq!(got[2].1.ip.identification, (node_seed(42, r1) >> 32) as u16);
        assert_eq!((got, reused.stats()), (drain(&mut fresh, s), fresh.stats()));
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
        let r = b.router("r", RouterConfig::rate_limited(SimDuration::from_millis(100), 1));
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
    // What a node answers
    // ------------------------------------------------------------------

    /// An answer's kind, as its recipient reads it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum AnswerKind {
        TimeExceeded,
        Unreachable(UnreachableCode),
        EchoReply,
        SynAck,
        Rst,
    }

    impl AnswerKind {
        fn of(packet: &Packet) -> AnswerKind {
            const SYN_ACK: u8 = tcp_flags::SYN | tcp_flags::ACK;
            const RST_ACK: u8 = tcp_flags::RST | tcp_flags::ACK;
            match &packet.transport {
                Transport::Icmp(IcmpMessage::TimeExceeded { .. }) => AnswerKind::TimeExceeded,
                Transport::Icmp(IcmpMessage::DestUnreachable { code, .. }) => {
                    AnswerKind::Unreachable(*code)
                }
                Transport::Icmp(IcmpMessage::EchoReply { .. }) => AnswerKind::EchoReply,
                Transport::Tcp(seg) if seg.control == SYN_ACK => AnswerKind::SynAck,
                Transport::Tcp(seg) if seg.control == RST_ACK => AnswerKind::Rst,
                other => panic!("not an answer: {other:?}"),
            }
        }

        /// The counter an answer of this kind is counted in.
        fn counter(self, stats: &mut SimStats) -> &mut u64 {
            match self {
                AnswerKind::TimeExceeded => &mut stats.time_exceeded_sent,
                AnswerKind::Unreachable(_) => &mut stats.dest_unreachable_sent,
                AnswerKind::EchoReply => &mut stats.echo_replies_sent,
                AnswerKind::SynAck | AnswerKind::Rst => &mut stats.tcp_responses_sent,
            }
        }
    }

    /// Which of the answering node's addresses an answer comes from.
    #[derive(Debug, Clone, Copy)]
    enum Src {
        /// The address the probe was sent to.
        Probed,
        /// The interface the probe arrived on.
        Incoming,
        /// The node's first interface.
        Primary,
    }

    /// Why a probe drew no answer: the counter that records it.
    #[derive(Debug, Clone, Copy)]
    enum Why {
        Silent,
        HostMute,
        RateLimited,
        MplsHidden,
        NoRoute,
    }

    impl Why {
        fn counter(self, stats: &mut SimStats) -> &mut u64 {
            match self {
                Why::Silent => &mut stats.dropped_silent,
                Why::HostMute => &mut stats.dropped_host_mute,
                Why::RateLimited => &mut stats.dropped_rate_limited,
                Why::MplsHidden => &mut stats.dropped_mpls_hidden,
                Why::NoRoute => &mut stats.dropped_no_route,
            }
        }
    }

    /// What one probe draws from the node under test.
    #[derive(Debug, Clone, Copy)]
    enum Got {
        /// An answer: its kind, where it comes from and its IP TTL.
        Answer(AnswerKind, Src, u8),
        /// No answer, counted as this.
        Dropped(Why),
        /// Delivered and consumed: no answer and no counter.
        Consumed,
    }

    /// The probes of the answer table: five addressed to the node under
    /// test, two that pass through it toward the destination.
    #[derive(Debug, Clone, Copy)]
    enum Probe {
        Udp,
        Echo,
        SynOpen,
        SynClosed,
        EchoReply,
        /// TTL 1: it expires at the node.
        Expiring,
        /// TTL 5, at the node made a broken (`!H`) router.
        AtBroken,
    }

    impl Probe {
        fn addressed(self) -> bool {
            !matches!(self, Probe::Expiring | Probe::AtBroken)
        }

        fn packet(self, src: Ipv4Addr, node: Ipv4Addr, far: Ipv4Addr) -> Packet {
            let icmp = |msg| {
                Packet::new(Ipv4Header::new(src, node, protocol::ICMP, 30), Transport::Icmp(msg))
            };
            let syn = |port| {
                let ip = Ipv4Header::new(src, node, protocol::TCP, 30);
                Packet::new(ip, Transport::Tcp(TcpSegment::syn_probe(33_000, port, 7)))
            };
            match self {
                Probe::Udp => udp_probe(src, node, 30, 33_435),
                Probe::Echo => icmp(IcmpMessage::echo_probe_classic(77, 3)),
                Probe::SynOpen => syn(80),
                Probe::SynClosed => syn(81),
                Probe::EchoReply => {
                    icmp(IcmpMessage::EchoReply { identifier: 77, seq: 3, payload: vec![0; 4] })
                }
                Probe::Expiring => udp_probe(src, far, 1, 33_435),
                Probe::AtBroken => udp_probe(src, far, 5, 33_435),
            }
        }
    }

    /// Every answer a node gives, pinned one case at a time: each kind
    /// of node against each probe, on S — X — D with X under test. A
    /// case injects its probe once per expected outcome, back to back,
    /// so the rate-limited router's second probe is the one limited.
    /// X's primary address faces D, the probe arrives on the S-facing
    /// interface, and addressed probes go to a loopback: the three
    /// sources an answer can come from are three addresses.
    #[test]
    fn every_node_kind_answers_every_probe_as_tabled() {
        use AnswerKind::{EchoReply, Rst, SynAck, TimeExceeded, Unreachable};
        use Got::{Answer, Consumed, Dropped};
        use Src::{Incoming, Primary, Probed};
        let kinds = [
            NodeKind::Host(HostConfig::default()),
            NodeKind::Host(HostConfig::firewalled()),
            NodeKind::Router(RouterConfig::default()),
            NodeKind::Router(RouterConfig::silent()),
            NodeKind::Router(RouterConfig::default().with_fixed_responder()),
            NodeKind::Router(RouterConfig::mpls_interior()),
            NodeKind::Router(RouterConfig::rate_limited(SimDuration::from_millis(100), 1)),
        ];
        let host = |reply| Answer(reply, Probed, 64);
        let router = |reply| Answer(reply, Probed, 255);
        let port = Unreachable(UnreachableCode::Port);
        let bang_h = Unreachable(UnreachableCode::Host);
        let no_route = Dropped(Why::NoRoute);
        let silent = Dropped(Why::Silent);
        let mute = Dropped(Why::HostMute);
        let limited = Dropped(Why::RateLimited);
        // Columns in the order of `kinds`.
        #[rustfmt::skip]
        let table: [(Probe, [&[Got]; 7]); 7] = [
            (Probe::Udp, [&[host(port)], &[mute], &[router(port)], &[silent],
                &[router(port)], &[router(port)], &[router(port), router(port)]]),
            (Probe::Echo, [&[host(EchoReply)], &[host(EchoReply)], &[router(EchoReply)], &[silent],
                &[router(EchoReply)], &[router(EchoReply)], &[router(EchoReply), router(EchoReply)]]),
            (Probe::SynOpen, [&[host(SynAck)], &[mute], &[router(Rst)], &[silent],
                &[router(Rst)], &[router(Rst)], &[router(Rst), router(Rst)]]),
            (Probe::SynClosed, [&[host(Rst)], &[mute], &[router(Rst)], &[silent],
                &[router(Rst)], &[router(Rst)], &[router(Rst), router(Rst)]]),
            (Probe::EchoReply, [&[Consumed], &[Consumed], &[Consumed], &[silent],
                &[Consumed], &[Consumed], &[Consumed, Consumed]]),
            (Probe::Expiring, [&[no_route], &[no_route], &[Answer(TimeExceeded, Incoming, 255)],
                &[silent], &[Answer(TimeExceeded, Primary, 255)], &[Dropped(Why::MplsHidden)],
                &[Answer(TimeExceeded, Incoming, 255), limited]]),
            (Probe::AtBroken, [&[no_route], &[no_route], &[Answer(bang_h, Incoming, 255)],
                &[silent], &[Answer(bang_h, Primary, 255)], &[Answer(bang_h, Incoming, 255)],
                &[Answer(bang_h, Incoming, 255), limited]]),
        ];
        let loopback = Ipv4Addr::new(192, 0, 2, 77);
        for (probe, row) in table {
            for (kind, outcomes) in kinds.iter().zip(row) {
                let mut b = TopologyBuilder::new();
                // Firewalled, so a SYN-ACK draws no answer back from S.
                let s = b.host("S", HostConfig::firewalled());
                let x = match kind {
                    NodeKind::Host(cfg) => b.host("X", cfg.clone()),
                    NodeKind::Router(cfg) => match probe {
                        Probe::AtBroken => b.router(
                            "X",
                            RouterConfig { broken: Some(UnreachableCode::Host), ..cfg.clone() },
                        ),
                        _ => b.router("X", cfg.clone()),
                    },
                };
                let d = b.host("D", HostConfig::default());
                b.link(x, d, SimDuration::from_millis(1), 0.0);
                b.link(s, x, SimDuration::from_millis(1), 0.0);
                b.loopback(x, loopback);
                b.default_via(s, x);
                b.default_via(x, d);
                b.default_via(d, x);
                let s_pfx = b.subnet_of(s);
                b.route_via(x, s_pfx, s);
                let (far, primary, incoming) =
                    (b.addr_of(d), b.iface_addr(x, 0), b.iface_addr(x, 1));
                let topo = Arc::new(b.build());
                let mut sim = Simulator::new(topo.clone(), 3);
                for _ in outcomes {
                    sim.inject(s, probe.packet(src_addr(&topo, s), loopback, far));
                }
                sim.run_to_quiescence();
                let got: Vec<(AnswerKind, Ipv4Addr, u8)> = drain(&mut sim, s)
                    .iter()
                    .map(|(_, answer)| (AnswerKind::of(answer), answer.ip.src, answer.ip.ttl))
                    .collect();
                let mut want = Vec::new();
                let mut stats = SimStats::default();
                for outcome in outcomes {
                    stats.forwarded += 1;
                    stats.delivered += u64::from(probe.addressed());
                    match *outcome {
                        Answer(reply, from, ttl) => {
                            let from = match from {
                                Probed => loopback,
                                Incoming => incoming,
                                Primary => primary,
                            };
                            want.push((reply, from, ttl));
                            *reply.counter(&mut stats) += 1;
                            stats.forwarded += 1;
                            stats.delivered += 1;
                            stats.dropped_host_mute += u64::from(reply == SynAck);
                        }
                        Dropped(why) => *why.counter(&mut stats) += 1,
                        Consumed => {}
                    }
                }
                let case = format!("{probe:?} at {kind:?}");
                assert_eq!(got, want, "{case}");
                assert_eq!(sim.stats(), stats, "{case}");
            }
        }
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
    /// destination (`tests/it/event_count.rs` runs the trace itself) — one
    /// at a time, over `sim`: the longest-prefix lookups made and the
    /// links crossed.
    fn paris_trace(sim: &mut Simulator, sc: &crate::scenarios::Scenario) -> (u64, u64) {
        let (lookups, forwarded) = (sim.state.lookups, sim.stats().forwarded);
        let src = src_addr(&sc.topology, sc.source);
        for ttl in 2..=11 {
            let ip = Ipv4Header::new(src, sc.destination, protocol::UDP, ttl);
            let udp = UdpDatagram::new(41_000, 52_000, vec![0; 2]);
            sim.inject(sc.source, Packet::new(ip, Transport::Udp(udp)));
            sim.run_to_quiescence();
        }
        (sim.state.lookups - lookups, sim.stats().forwarded - forwarded)
    }

    /// [`paris_trace`] over a fresh simulator.
    fn paris_trace_lookups(sc: &crate::scenarios::Scenario) -> (u64, u64) {
        paris_trace(&mut Simulator::new(sc.topology.clone(), 21), sc)
    }

    /// The layer number, held exactly: a single-interface hop is looked up
    /// once per unit, and not again after a reset; a balanced hop every
    /// time a packet leaves it.
    /// If a change makes the walk resolve every hop again, these counts
    /// go back to one per link crossed before any wall clock notices.
    #[test]
    fn a_paris_trace_looks_each_hop_up_once() {
        use crate::scenarios::fig1;
        use pt_wire::FlowPolicy;
        // Per-destination balancing at L: the flow takes L → B → D → E.
        // Probes leave S, r1–r5, L, B, D and E toward the destination: 10
        // pairs. Answers come from r2–r5, L, D (B is silent), E and the
        // destination twice, and go back by E → C → A → L (C is silent)
        // or D → B → L: r1–r5, L, A, B, C, D, E and the destination leave
        // toward S, 12 pairs. L's balanced hop is resolved for each of
        // the 5 probes that leave it (TTL 7 to 11): 26 lookups, where a
        // walk without the table makes one per link crossed, 121.
        let per_destination = fig1(BalancerKind::PerDestination);
        assert_eq!(paris_trace_lookups(&per_destination), (26, 121));
        // tests/it/event_count.rs's trace: per-flow balancing at L, the flow
        // takes L → A → C → E, and the answers come back the same way: 10
        // pairs out and 10 back. L's per-flow hop is resolved every time,
        // so the 5 probes that leave it (TTL 7 to 11) look it up 5 times:
        // 24 lookups, of 120 links crossed.
        let per_flow = fig1(BalancerKind::PerFlow(FlowPolicy::FiveTuple));
        assert_eq!(paris_trace_lookups(&per_flow), (24, 120));
        // The same trace again, after a reset under another seed: the
        // table outlived the reset, so no hop it stored is looked up
        // again. Only L's balanced hop is, for the 5 probes that leave
        // it, where a reset that emptied the table made the trace look up
        // all 24 or 26 again. (Seed 5 maps the flow, and the destination,
        // to the egress seed 21 does, so the trace crosses the same
        // links.)
        for (sc, again) in [(&per_flow, (5, 120)), (&per_destination, (5, 121))] {
            let mut sim = Simulator::new(sc.topology.clone(), 21);
            paris_trace(&mut sim, sc);
            sim.reset(5);
            assert_eq!(paris_trace(&mut sim, sc), again);
        }
    }

    // ------------------------------------------------------------------
    // The engine against the naive per-hop reference
    // ------------------------------------------------------------------

    /// The engine that ships and the reference, each over `topo` and
    /// `seed`, by name.
    fn both(topo: &Arc<Topology>, seed: u64) -> [(&'static str, Box<dyn Engine>); 2] {
        [
            ("engine", Box::new(Simulator::new(topo.clone(), seed))),
            ("reference", Box::new(Reference::new(topo.clone(), seed))),
        ]
    }

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
        for (name, mut sim) in both(&topo, 1) {
            sim.inject(s, udp_probe(src_addr(&topo, s), dst, 6, 33435));
            sim.schedule_route_set(
                SimTime::ZERO + SimDuration::from_millis(3),
                r5,
                Ipv4Prefix::DEFAULT,
                Some(NextHop::Iface(toward_b)),
            );
            sim.run_to_quiescence();
            let got = drain(sim.as_mut(), s);
            assert_eq!(got.len(), 1, "{name}");
            assert_eq!(got[0].1.ip.src, b_addr, "{name}: the probe took the old route");
            assert_eq!(got[0].0, SimTime::ZERO + SimDuration::from_millis(12), "{name}");
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
        let base = RouterConfig::default();
        match dice.roll(16) {
            0 => RouterConfig::zero_ttl_forwarder(),
            1 => RouterConfig::silent(),
            2 => RouterConfig::mpls_interior(),
            3 => RouterConfig::udp_filter(),
            4 => RouterConfig::broken_forwarding(UnreachableCode::Host),
            5 => RouterConfig::rate_limited(SimDuration::from_millis(5), 2),
            6 => RouterConfig::rate_limited(SimDuration::from_millis(3), 1),
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
                // A node takes a second subnet past 250 interfaces; these
                // have a few, so each one's interfaces are in its first.
                let inside: Vec<Ipv4Prefix> =
                    (gateway.0 + 1..=d.0).map(|n| b.subnet_of(NodeId(n))).collect();
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

    /// Everything an observer outside the engine can see of a run of
    /// `script` on `sim`, which it leaves quiescent: after each `RunFor`
    /// and once more at quiescence, the clock, the packets in flight,
    /// the counters (`forwarded` only at the end: mid-flight the
    /// engine's trails by the walks in progress) and every node's
    /// deliveries.
    fn observe_on(sim: &mut dyn Engine, net: &Net, script: &[Op]) -> Vec<String> {
        let mut seen = Vec::new();
        let mut look = |sim: &mut dyn Engine, quiescent: bool| {
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
                    look(sim, false);
                }
            }
        }
        sim.run_to_quiescence();
        look(sim, true);
        seen
    }

    /// The next-hop table outlives a reset, and no run can tell. A
    /// simulator that ran two other seeds' units — the first applies a
    /// route change, and both cross a per-destination balancer and a
    /// lossy link — then is reset shows an observer exactly what the
    /// naive reference shows, on a trace and a random script after it.
    /// Each of these fails it: a reset that keeps the stamp after an
    /// applied change, and an entry that stores the leaving node's seed
    /// for the loss draw.
    #[test]
    fn a_kept_table_is_invisible_after_reset() {
        // S — r1 ~ L ⇉ {a, b} — r2 — D: r1–L loses three packets in ten,
        // L balances per destination, and answers return by a.
        let ms = SimDuration::from_millis(1);
        let mut b = TopologyBuilder::new();
        let s = b.host("S", HostConfig::default());
        let s_pfx = b.subnet_of(s);
        let r1 = b.router("r1", RouterConfig::default());
        let l = b.router("L", RouterConfig::default());
        let r2 = b.router("r2", RouterConfig::default());
        let d = b.host("D", HostConfig::default());
        b.link(s, r1, ms, 0.0);
        b.link(r1, l, ms, 0.3);
        b.default_via(s, r1);
        b.default_via(r1, l);
        b.route_via(r1, s_pfx, s);
        b.route_via(l, s_pfx, r1);
        let mut via = Vec::new();
        for name in ["a", "b"] {
            let x = b.router(name, RouterConfig::default());
            b.link(l, x, ms, 0.0);
            b.link(x, r2, ms, 0.0);
            b.default_via(x, r2);
            b.route_via(x, s_pfx, l);
            via.push(x);
        }
        b.balanced_route(l, Ipv4Prefix::DEFAULT, BalancerKind::PerDestination, &via);
        b.route_via(r2, s_pfx, via[0]);
        b.link(r2, d, ms, 0.0);
        b.default_via(r2, d);
        b.default_via(d, r2);
        let dst = b.addr_of(d);
        let topo = Arc::new(b.build());
        let to_b = topo.iface_toward(l, via[1]).unwrap();
        let net = Net::of(crate::scenarios::Scenario {
            topology: topo,
            source: s,
            destination: dst,
            addr: std::collections::BTreeMap::new(),
        });
        let src = src_addr(&net.topo, s);
        let trace = |port: u16| -> Vec<Op> {
            let probe = |ttl: u8| Op::Inject(udp_probe(src, dst, ttl, port + u16::from(ttl)));
            (1..=7).flat_map(|ttl| [probe(ttl), Op::RunFor(SimDuration::from_millis(20))]).collect()
        };
        // Two milliseconds in, L sends D's traffic to b whatever its seed.
        let to_b_at_2ms = Op::RouteSet {
            after: SimDuration::from_millis(2),
            node: l,
            prefix: Ipv4Prefix::host(dst),
            next_hop: Some(NextHop::Iface(to_b)),
        };
        let changed: Vec<Op> = std::iter::once(to_b_at_2ms).chain(trace(33_000)).collect();
        let (mut kept_lookups, mut fresh_lookups) = (0, 0);
        for case in 0..16u64 {
            let mut script = trace(34_000);
            script.extend(random_script(&mut Dice(case), &net));
            let expected = observe_on(&mut Reference::new(net.topo.clone(), case), &net, &script);
            let mut fresh = Simulator::new(net.topo.clone(), case);
            observe_on(&mut fresh, &net, &script);
            let mut kept = Simulator::new(net.topo.clone(), 1_000 + case);
            observe_on(&mut kept, &net, &changed);
            kept.reset(2_000 + case);
            observe_on(&mut kept, &net, &trace(33_500));
            kept.reset(case);
            let before = kept.state.lookups;
            assert_eq!(observe_on(&mut kept, &net, &script), expected, "case {case}");
            kept_lookups += kept.state.lookups - before;
            fresh_lookups += fresh.state.lookups;
        }
        // Not vacuous: the kept table served hops the fresh one resolved.
        assert!(kept_lookups < fresh_lookups, "{kept_lookups} lookups, fresh {fresh_lookups}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(400))]

        /// The engine that ships — fused walks, the next-hop table,
        /// sparse node state — computes what the naive reference does
        /// with one event and one route lookup per hop: on the paper's
        /// figures and on random nets, with probes of every shape and
        /// TTL, route changes landing under packets in flight and the
        /// clock stopped at random instants, both show an observer the
        /// same run.
        #[test]
        fn the_engine_shows_what_the_naive_reference_shows(
            case in proptest::prelude::any::<u64>()
        ) {
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
            let [engine, reference] = both(&net.topo, case)
                .map(|(_, mut sim)| observe_on(sim.as_mut(), &net, &script));
            proptest::prop_assert_eq!(engine, reference, "{:#?}", script);
        }
    }
}
