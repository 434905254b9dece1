//! The sans-IO traceroute driver.
//!
//! Reproduces the study's probing discipline (§3): one probe per hop,
//! up to two seconds' wait per probe ([`PROBE_TIMEOUT`]), immediate halt
//! on any Destination Unreachable or terminal reply, a ceiling of 39
//! hops ([`MAX_TTL`]), and abandonment after eight consecutive
//! unanswered hops (exactly eight: the hop that brings the
//! consecutive-star count to [`MAX_CONSECUTIVE_STARS`] is the last one
//! probed). All four are fixed: the study fixes them, and no caller
//! varies them.
//!
//! # Windowed probing
//!
//! [`trace_with`] keeps up to [`TraceConfig::window`] probes
//! outstanding at once — the virtual-time analogue of the paper's 32
//! parallel tracing processes, applied inside one trace. Probes are
//! *launched* in strict TTL order but *retired* by the
//! response/deadline that actually resolves them, through the
//! [`ProbeWindow`] this driver shares with `pt-mda` (the registry, the
//! wait and the attribution by probe id are documented there), so
//! reordered and late replies land in the right hop record: an expired
//! probe stays registered, and a late answer still fills its record in.
//! Halting decisions — terminal reply, star limit — are taken only when
//! a hop *finalizes*, and hops finalize in TTL order; speculative probes
//! past a terminal reply or the star limit are discarded along with
//! their hop records, so the measured route a windowed trace reports is
//! the same one a sequential trace measures (identical on deterministic
//! lossless paths, where `window` only changes how much virtual time the
//! trace takes: roughly ×`window` less).
//!
//! `window = 1` reproduces the strictly sequential send→wait→timeout
//! discipline: same probes at the same virtual times, same route
//! (pinned by digest comparison against the pre-windowed driver).
//!
//! The driver is allocation-free in steady state: probe payloads come
//! from the transport's recycling pool ([`Transport::grab_payload`]),
//! and the per-trace bookkeeping (hop records, the probe window,
//! per-hop resolved flags) lives in a caller-held
//! [`TraceScratch`] that [`trace_with`] reuses and
//! [`TraceScratch::recycle`] refills from finished routes. [`trace`]
//! remains the convenience form that allocates fresh scratch per call.

use std::net::Ipv4Addr;

use pt_netsim::time::{SimDuration, SimTime};
use pt_netsim::SimTransport;
use pt_wire::{IcmpMessage, Packet, Transport as Wire};

use crate::probe::ProbeStrategy;
use crate::route::{HaltReason, Hop, MeasuredRoute, ProbeResult, ResponseKind};
use crate::window::ProbeWindow;

/// The packet I/O a tracer needs. `pt-netsim`'s [`SimTransport`]
/// implements it over virtual time; a raw-socket transport would
/// implement it over wall-clock time.
pub trait Transport {
    /// Current time.
    fn now(&self) -> SimTime;
    /// The local address probes carry as their source.
    fn source_addr(&self) -> Ipv4Addr;
    /// Transmit a probe.
    fn send(&mut self, packet: Packet);
    /// Block until the next inbound packet or `deadline`, whichever is
    /// first. `None` means the deadline passed silently, and promises
    /// `now() >= deadline` on return: [`ProbeWindow::settle`] retires
    /// probes by comparing their deadlines with `now()`, so a transport
    /// that gave up early would leave it waiting forever.
    fn recv_until(&mut self, deadline: SimTime) -> Option<(SimTime, Packet)>;
    /// Non-blocking poll: the next inbound packet that has *already*
    /// arrived, without advancing time. The windowed driver drains this
    /// before computing the earliest outstanding deadline, so transports
    /// that buffer deliveries (the simulator's inbox lanes) serve
    /// several in-flight probes per wait. The default (`None`) is
    /// always correct — [`Transport::recv_until`] re-polls buffered
    /// deliveries first — just less direct.
    fn try_recv(&mut self) -> Option<(SimTime, Packet)> {
        None
    }
    /// Hand back a packet the tracer has finished with, so the transport
    /// can recycle its buffers. The tracer calls this for every packet
    /// `recv_until` produced; transports without a recycling story just
    /// drop it.
    fn release(&mut self, packet: Packet) {
        let _ = packet;
    }
    /// A cleared payload buffer for the next probe — the other half of
    /// the [`Transport::release`] recycling loop. Probe builders thread
    /// it into the packet, the network consumes the packet, and the
    /// buffer's allocation eventually comes back here. Transports
    /// without a pool hand out fresh (empty, unallocated) buffers.
    fn grab_payload(&mut self) -> Vec<u8> {
        Vec::new()
    }
}

impl Transport for SimTransport {
    fn now(&self) -> SimTime {
        SimTransport::now(self)
    }

    fn source_addr(&self) -> Ipv4Addr {
        SimTransport::source_addr(self)
    }

    fn send(&mut self, packet: Packet) {
        SimTransport::send(self, packet)
    }

    fn recv_until(&mut self, deadline: SimTime) -> Option<(SimTime, Packet)> {
        SimTransport::recv_until(self, deadline)
    }

    fn try_recv(&mut self) -> Option<(SimTime, Packet)> {
        SimTransport::try_recv(self)
    }

    fn release(&mut self, packet: Packet) {
        // Responses go back into the simulator's payload-buffer pool, so
        // a long trace loop reuses the same few buffers end to end.
        self.simulator_mut().recycle(packet);
    }

    fn grab_payload(&mut self) -> Vec<u8> {
        self.simulator_mut().grab_payload()
    }
}

/// Last TTL probed, by the tracer and the MDA walk alike ("no trace
/// extends further than 39 hops", §3).
pub const MAX_TTL: u8 = 39;

/// How long either engine waits for a probe's answer (2 s in the study).
pub const PROBE_TIMEOUT: SimDuration = SimDuration::from_secs(2);

/// A trace is abandoned after this many consecutive all-star hops (8 in
/// the study): the hop that brings the count to this value is the last
/// one probed.
pub const MAX_CONSECUTIVE_STARS: u8 = 8;

/// Traceroute parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// First TTL probed. The study uses 2 to skip the university network.
    pub min_ttl: u8,
    /// Probes kept in flight at once. `1` is the study's strictly
    /// sequential per-process discipline (send, wait, time out, next);
    /// the default `3` pipelines the TTL ladder — the virtual-time
    /// analogue of the paper's 32 parallel tracing processes — and cuts
    /// virtual probing time roughly ×`window` while measuring the same
    /// route on deterministic lossless paths (see the module docs).
    pub window: u8,
    /// Watchdog: hard ceiling on probes one trace may send (`0` =
    /// unlimited). When it trips, the send gate closes, in-flight
    /// probes drain normally, and the route halts with
    /// [`HaltReason::Budget`] unless an organic halt (terminal reply,
    /// star limit) lands first while draining. Each probe waits at most
    /// [`PROBE_TIMEOUT`], so the budget bounds the trace's virtual time
    /// too, and deterministically: the same trace degrades at the same
    /// probe on every run and every worker count.
    pub probe_budget: u32,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { min_ttl: 1, window: 3, probe_budget: 0 }
    }
}

impl TraceConfig {
    /// Exactly the study's parameters (§3), including `min_ttl = 2`.
    /// Keeps the windowed default; set `window: 1` for the per-process
    /// discipline.
    pub fn paper() -> Self {
        TraceConfig { min_ttl: 2, ..Self::default() }
    }
}

/// Classify a response packet and extract the Paris side information.
fn classify(resp: &Packet) -> (ResponseKind, Option<u8>) {
    match &resp.transport {
        Wire::Icmp(IcmpMessage::TimeExceeded { quotation }) => {
            (ResponseKind::TimeExceeded, Some(quotation.ip.ttl))
        }
        Wire::Icmp(IcmpMessage::DestUnreachable { code, quotation }) => {
            (ResponseKind::Unreachable(*code), Some(quotation.ip.ttl))
        }
        Wire::Icmp(_) => (ResponseKind::EchoReply, None),
        Wire::Tcp(_) => (ResponseKind::TcpReply, None),
        Wire::Udp(_) => (ResponseKind::TcpReply, None), // not produced by responders
    }
}

/// Reusable per-trace bookkeeping: the probe window, the per-hop
/// resolved flags, and a pool of hop vectors harvested from finished
/// routes. A worker that keeps one `TraceScratch` across its traces —
/// recycling each consumed [`MeasuredRoute`] back into it — runs
/// [`trace_with`] with zero steady-state heap allocation (the
/// counting-allocator regression test pins this end to end, in both
/// sequential and windowed modes).
#[derive(Debug, Default)]
pub struct TraceScratch {
    /// Outstanding probes, each tagged with its hop's index.
    window: ProbeWindow<usize>,
    /// Whether each hop's probe is resolved (answered or expired),
    /// parallel to the route's hop list; hops finalize in TTL order.
    resolved: Vec<bool>,
    /// Recycled `MeasuredRoute::hops` vectors.
    hop_vecs: Vec<Vec<Hop>>,
}

impl TraceScratch {
    /// Empty scratch; warms up over the first trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Harvest a finished route's hop vector for reuse by later traces.
    /// Call this instead of dropping routes you have finished reading.
    pub fn recycle(&mut self, route: MeasuredRoute) {
        if self.hop_vecs.len() < 4 {
            self.hop_vecs.push(route.hops);
        }
    }

    fn take_hops(&mut self) -> Vec<Hop> {
        let mut hops = self.hop_vecs.pop().unwrap_or_default();
        hops.clear();
        hops
    }
}

/// Run one traceroute toward `destination` with the given strategy,
/// allocating fresh bookkeeping. Prefer [`trace_with`] in loops.
pub fn trace<T: Transport>(
    transport: &mut T,
    strategy: &mut dyn ProbeStrategy,
    destination: Ipv4Addr,
    config: TraceConfig,
) -> MeasuredRoute {
    trace_with(transport, strategy, destination, config, &mut TraceScratch::new())
}

/// Run one traceroute toward `destination`, reusing `scratch` for all
/// per-trace bookkeeping. With a warm scratch and a pooling transport,
/// the whole probe→response cycle performs no heap allocation.
///
/// Up to [`TraceConfig::window`] probes stay in flight at once (see the
/// module docs for the windowed semantics); `window = 1` reproduces the
/// strictly sequential discipline exactly.
pub fn trace_with<T: Transport>(
    transport: &mut T,
    strategy: &mut dyn ProbeStrategy,
    destination: Ipv4Addr,
    config: TraceConfig,
    scratch: &mut TraceScratch,
) -> MeasuredRoute {
    let source = transport.source_addr();
    let mut hops: Vec<Hop> = scratch.take_hops();
    scratch.window.clear();
    scratch.resolved.clear();
    let window = usize::from(config.window).max(1);

    let mut consecutive_stars: u8 = 0;
    let mut halt = HaltReason::MaxTtl;

    // The watchdog: `budget_hit` remembers that the probe budget closed
    // the send gate so the halt reason can say so after wind-down.
    let mut budget_hit = false;

    // First hop index not yet finalized; halting is decided here only.
    let mut frontier: usize = 0;
    // Lowest hop with a terminal response recorded so far. Probes are
    // never launched for hops past it, and the trace halts (discarding
    // any speculative later hops) once the frontier reaches it.
    let mut terminal_hop: Option<usize> = None;

    'drive: loop {
        // 1. Finalize resolved hops in TTL order. Everything the route
        //    reports — the halt reason, which hops exist, the star
        //    count — is decided here, so out-of-order responses and
        //    speculative probes cannot change the measured route.
        while frontier < hops.len() && scratch.resolved[frontier] {
            if terminal_hop.is_some_and(|h| h <= frontier) {
                halt = HaltReason::Terminal;
                hops.truncate(frontier + 1);
                break 'drive;
            }
            if hops[frontier].probe.is_star() {
                consecutive_stars += 1;
                if consecutive_stars >= MAX_CONSECUTIVE_STARS {
                    halt = HaltReason::StarLimit;
                    hops.truncate(frontier + 1);
                    break 'drive;
                }
            } else {
                consecutive_stars = 0;
            }
            frontier += 1;
        }

        // 2. Top up the probe window, one probe per hop in TTL order,
        //    never opening a hop past a terminal reply. A probe's id is
        //    its hop's index.
        while scratch.window.in_flight() < window {
            let hop = hops.len();
            let idx = hop as u64;
            let ttl = usize::from(config.min_ttl) + hop;
            if ttl > usize::from(MAX_TTL) {
                break;
            }
            if config.probe_budget != 0 && idx >= u64::from(config.probe_budget) {
                // Watchdog tripped: close the send gate and let the
                // probes already in flight drain.
                budget_hit = true;
                break;
            }
            if terminal_hop.is_some_and(|h| hop > h) {
                break;
            }
            let ttl = ttl as u8; // at most MAX_TTL
            hops.push(Hop { ttl, probe: ProbeResult::STAR });
            scratch.resolved.push(false);
            let payload = transport.grab_payload();
            let packet = strategy.build_probe_with(source, destination, ttl, idx, payload);
            scratch.window.launch(idx, transport.now(), PROBE_TIMEOUT, hop);
            transport.send(packet);
        }

        if scratch.window.in_flight() == 0 {
            // Every hop finalized without a halt, and the send gate is
            // closed: MaxTtl, or the budget.
            break;
        }

        // 3. Resolve whichever in-flight probe settles first. An
        //    expired probe counts as resolved at once but stays
        //    registered: a late answer still fills its record in.
        let Some(reply) = scratch.window.settle(
            transport,
            None,
            |resp| strategy.match_response(destination, resp),
            |hop, _| {
                scratch.resolved[hop] = true;
                true
            },
        ) else {
            continue; // stray, duplicate or expiry: look again
        };
        let (hop, resp) = (reply.probe, reply.packet);
        scratch.resolved[hop] = true;
        let (kind, probe_ttl) = classify(&resp);
        hops[hop].probe = ProbeResult {
            addr: Some(resp.ip.src),
            rtt: Some(reply.at.since(reply.sent)),
            kind: Some(kind),
            probe_ttl,
            response_ttl: Some(resp.ip.ttl),
            ip_id: Some(resp.ip.identification),
        };
        if kind.terminates() && terminal_hop.is_none_or(|h| hop < h) {
            terminal_hop = Some(hop);
        }
        transport.release(resp);
    }

    // A budget cut only claims the halt when nothing organic landed
    // while draining: a terminal reply or the star limit still wins.
    if budget_hit && halt == HaltReason::MaxTtl {
        halt = HaltReason::Budget;
    }

    MeasuredRoute {
        strategy: strategy.id(),
        source,
        destination,
        min_ttl: config.min_ttl,
        hops,
        halt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classic::ClassicUdp;
    use crate::paris::{ParisIcmp, ParisTcp, ParisUdp};
    use crate::tcptrace::TcpTraceroute;
    use pt_netsim::scenarios;
    use pt_netsim::Simulator;
    use pt_wire::UnreachableCode;

    fn transport(sc: &scenarios::Scenario, seed: u64) -> SimTransport {
        SimTransport::new(Simulator::new(sc.topology.clone(), seed), sc.source)
    }

    #[test]
    fn paris_udp_traces_a_linear_chain_end_to_end() {
        let sc = scenarios::linear(6);
        let mut tx = transport(&sc, 1);
        let mut strat = ParisUdp::new(41000, 52000);
        let route = trace(&mut tx, &mut strat, sc.destination, TraceConfig::default());
        assert_eq!(route.halt, HaltReason::Terminal);
        assert!(route.reached_destination());
        assert_eq!(route.hops.len(), 7, "6 routers + destination");
        let addrs = route.addresses();
        assert!(addrs.iter().all(Option::is_some), "no stars on a healthy chain");
        assert_eq!(addrs[6], Some(sc.destination));
        // Every mid-path response is a normal probe-TTL-1 Time Exceeded.
        for hop in &route.hops[..6] {
            assert_eq!(hop.probe.kind, Some(ResponseKind::TimeExceeded));
            assert_eq!(hop.probe.probe_ttl, Some(1));
        }
        // The terminal hop is Port Unreachable.
        assert_eq!(
            route.hops[6].probe.kind,
            Some(ResponseKind::Unreachable(UnreachableCode::Port))
        );
    }

    #[test]
    fn all_strategies_complete_a_linear_chain() {
        let sc = scenarios::linear(5);
        let strategies: Vec<Box<dyn ProbeStrategy>> = vec![
            Box::new(ClassicUdp::new(321)),
            Box::new(crate::classic::ClassicIcmp::new(321)),
            Box::new(ParisUdp::new(40001, 50001)),
            Box::new(ParisIcmp::new(0x7777)),
            Box::new(ParisTcp::new(55001)),
            Box::new(TcpTraceroute::new(55002)),
        ];
        for mut strat in strategies {
            let mut tx = transport(&sc, 99);
            let route = trace(&mut tx, strat.as_mut(), sc.destination, TraceConfig::default());
            assert_eq!(route.halt, HaltReason::Terminal, "strategy {} did not finish", strat.id());
            assert!(route.reached_destination(), "strategy {}", strat.id());
            assert_eq!(route.hops.len(), 6, "strategy {}", strat.id());
        }
    }

    #[test]
    fn paris_keeps_one_path_through_fig1_classic_may_mix() {
        let sc = scenarios::fig1(pt_netsim::BalancerKind::PerFlow(pt_wire::FlowPolicy::FiveTuple));
        // Paris: one flow → a consistent physical path, so hops 7/8 are
        // (A, *) or (*, D) — never (A, D).
        for seed in 0..8 {
            let mut tx = transport(&sc, seed);
            let mut strat = ParisUdp::new(41000 + seed as u16, 52000);
            let route = trace(&mut tx, &mut strat, sc.destination, TraceConfig::default());
            let a = route.addresses();
            // hops index: 0-based from ttl 1 → hop7 = index 6, hop8 = 7.
            let pair = (a[6], a[7]);
            assert!(
                pair == (Some(sc.a("A")), None) || pair == (None, Some(sc.a("D"))),
                "Paris mixed paths at seed {seed}: {pair:?}"
            );
        }
        // Classic: across source ports, some trace shows the impossible
        // (A, D) adjacency — the false link.
        let mut saw_false_link = false;
        for pid in 0..64 {
            let mut tx = transport(&sc, 1000 + pid as u64);
            let mut strat = ClassicUdp::new(pid);
            let route = trace(&mut tx, &mut strat, sc.destination, TraceConfig::default());
            let a = route.addresses();
            if a[6] == Some(sc.a("A")) && a[7] == Some(sc.a("D")) {
                saw_false_link = true;
                break;
            }
        }
        assert!(saw_false_link, "classic traceroute should infer the false link A→D");
    }

    #[test]
    fn unreachability_halts_with_flag() {
        let sc = scenarios::unreachability_loop();
        let mut tx = transport(&sc, 1);
        let mut strat = ParisUdp::new(41000, 52000);
        let route = trace(&mut tx, &mut strat, sc.destination, TraceConfig::default());
        assert_eq!(route.halt, HaltReason::Terminal);
        let last = route.hops.last().unwrap();
        assert_eq!(
            last.probe.kind.unwrap().unreachable_flag(),
            Some(UnreachableCode::Host),
            "!H flag"
        );
        // The loop: hop 6 and hop 7 both show U.
        let a = route.addresses();
        assert_eq!(a[5], a[6]);
        assert!(!route.reached_destination());
    }

    /// A destination that never answers UDP: after the last router, the
    /// trace abandons once the consecutive-star limit is *reached*.
    fn blackhole() -> (SimTransport, Ipv4Addr) {
        let mut b = pt_netsim::TopologyBuilder::new();
        let s = b.host("S", pt_netsim::HostConfig::default());
        let r = b.router("r", pt_netsim::RouterConfig::default());
        let d = b.host("D", pt_netsim::HostConfig::firewalled());
        b.link(s, r, SimDuration::from_millis(1), 0.0);
        b.link(r, d, SimDuration::from_millis(1), 0.0);
        b.default_via(s, r);
        b.default_via(r, d);
        b.default_via(d, r);
        let s_pfx = b.subnet_of(s);
        b.route_via(r, s_pfx, s);
        let dst = b.addr_of(d);
        let topo = std::sync::Arc::new(b.build());
        (SimTransport::new(Simulator::new(topo, 1), s), dst)
    }

    #[test]
    fn star_limit_abandons_unresponsive_tail() {
        let (mut tx, dst) = blackhole();
        let mut strat = ParisUdp::new(41000, 52000);
        let route = trace(&mut tx, &mut strat, dst, TraceConfig::default());
        assert_eq!(route.halt, HaltReason::StarLimit);
        assert_eq!(route.hops.len(), 1 + 8, "router + exactly 8 star hops (§3's limit)");
        assert!(!route.reached_destination());
        assert_eq!(route.stars(), 8);
        assert_eq!(route.mid_route_stars(), 0, "all stars are trailing");
    }

    /// Counts probes handed to `send` — what the source actually emits,
    /// as opposed to what the route records.
    struct CountingTransport<T: Transport> {
        inner: T,
        sent: usize,
    }

    impl<T: Transport> Transport for CountingTransport<T> {
        fn now(&self) -> SimTime {
            self.inner.now()
        }
        fn source_addr(&self) -> Ipv4Addr {
            self.inner.source_addr()
        }
        fn send(&mut self, packet: Packet) {
            self.sent += 1;
            self.inner.send(packet)
        }
        fn recv_until(&mut self, deadline: SimTime) -> Option<(SimTime, Packet)> {
            self.inner.recv_until(deadline)
        }
        fn try_recv(&mut self) -> Option<(SimTime, Packet)> {
            self.inner.try_recv()
        }
        fn release(&mut self, packet: Packet) {
            self.inner.release(packet)
        }
        fn grab_payload(&mut self) -> Vec<u8> {
            self.inner.grab_payload()
        }
    }

    #[test]
    fn star_limit_boundary_sends_exactly_max_consecutive_stars_probes() {
        // The off-by-one regression gate: §3 says *eight* consecutive
        // unanswered hops abandon the trace, so on a blackhole path the
        // source sends 1 answered probe + 8 star probes — not 9 stars.
        let (tx, dst) = blackhole();
        let mut tx = CountingTransport { inner: tx, sent: 0 };
        let mut strat = ParisUdp::new(41000, 52000);
        let sequential = TraceConfig { window: 1, ..TraceConfig::default() };
        let route = trace(&mut tx, &mut strat, dst, sequential);
        assert_eq!(route.halt, HaltReason::StarLimit);
        assert_eq!(route.stars(), 8, "exactly the study's limit, not limit + 1");
        assert_eq!(tx.sent, 1 + 8, "one answered hop + 8 star probes actually sent");

        // Windowed mode measures the same route; the (bounded) extra
        // probes it speculates past the limit are discarded.
        let (tx2, dst2) = blackhole();
        let mut tx2 = CountingTransport { inner: tx2, sent: 0 };
        let mut strat2 = ParisUdp::new(41000, 52000);
        let windowed = trace(&mut tx2, &mut strat2, dst2, TraceConfig::default());
        assert_eq!(windowed, route, "windowed route must match sequential");
        assert!(tx2.sent >= 9 && tx2.sent <= 9 + 2, "speculation bounded by window - 1");
    }

    #[test]
    fn probe_budget_degrades_a_long_trace_deterministically() {
        let sc = scenarios::linear(6);
        let config = TraceConfig { probe_budget: 3, ..TraceConfig::default() };
        let mut tx = transport(&sc, 1);
        let mut strat = ParisUdp::new(41000, 52000);
        let route = trace(&mut tx, &mut strat, sc.destination, config);
        assert_eq!(route.halt, HaltReason::Budget);
        assert!(route.degraded());
        assert_eq!(route.probes_sent(), 3, "the gate closes exactly at the ceiling");
        assert_eq!(route.hops.len(), 3);
        assert!(!route.reached_destination());
        // The cut is a pure function of the config: a rerun degrades at
        // the identical probe.
        let mut tx = transport(&sc, 1);
        let mut strat = ParisUdp::new(41000, 52000);
        assert_eq!(trace(&mut tx, &mut strat, sc.destination, config), route);
    }

    #[test]
    fn budget_cut_inside_the_terminal_hop_still_halts_terminal() {
        // linear(3) wants 4 probes; the 4th is the destination's. A
        // budget that ends exactly there still halts Terminal: the
        // terminal reply is an organic halt, not a degraded trace, even
        // when it lands while the closed gate drains the window.
        let sc = scenarios::linear(3);
        for window in [1u8, 3] {
            for (probe_budget, halt, hops) in [
                (3, HaltReason::Budget, 3),
                (4, HaltReason::Terminal, 4),
                (5, HaltReason::Terminal, 4),
            ] {
                let mut tx = transport(&sc, 1);
                let mut strat = ParisUdp::new(41000, 52000);
                let config = TraceConfig { probe_budget, window, ..TraceConfig::default() };
                let route = trace(&mut tx, &mut strat, sc.destination, config);
                let case = format!("budget {probe_budget}, window {window}");
                assert_eq!(route.halt, halt, "{case}");
                assert_eq!(route.hops.len(), hops, "{case}");
                assert_eq!(route.degraded(), halt == HaltReason::Budget, "{case}");
                assert_eq!(route.reached_destination(), halt == HaltReason::Terminal, "{case}");
                assert_eq!(route.probes_sent(), hops, "{case}");
            }
        }
    }

    #[test]
    fn budgeted_trace_that_finishes_in_budget_is_identical_to_unbudgeted() {
        let sc = scenarios::linear(6);
        let mut tx = transport(&sc, 1);
        let mut strat = ParisUdp::new(41000, 52000);
        let plain = trace(&mut tx, &mut strat, sc.destination, TraceConfig::default());
        assert_eq!(plain.halt, HaltReason::Terminal);

        // Budget of exactly the 7 committed probes: the windowed driver
        // wants to speculate past them, the gate blocks that, and the
        // terminal reply lands while draining — an organic halt, so the
        // route is not marked degraded and matches the unbudgeted one.
        let config = TraceConfig { probe_budget: 7, ..TraceConfig::default() };
        let mut tx = transport(&sc, 1);
        let mut strat = ParisUdp::new(41000, 52000);
        let budgeted = trace(&mut tx, &mut strat, sc.destination, config);
        assert_eq!(budgeted, plain);
        assert!(!budgeted.degraded());
    }

    #[test]
    fn paper_config_skips_hop_one() {
        let sc = scenarios::linear(4);
        let mut tx = transport(&sc, 1);
        let mut strat = ParisUdp::new(41000, 52000);
        let route = trace(&mut tx, &mut strat, sc.destination, TraceConfig::paper());
        assert_eq!(route.min_ttl, 2);
        assert_eq!(route.hops[0].ttl, 2);
        assert_eq!(route.hops.len(), 4, "hops 2..=5");
    }

    #[test]
    fn rtt_increases_along_the_path() {
        let sc = scenarios::linear(5);
        let mut tx = transport(&sc, 1);
        let mut strat = ParisUdp::new(41000, 52000);
        let route = trace(&mut tx, &mut strat, sc.destination, TraceConfig::default());
        let rtts: Vec<_> = route.hops.iter().map(|h| h.probe.rtt.unwrap()).collect();
        for w in rtts.windows(2) {
            assert!(w[0] < w[1], "RTT must grow with distance: {rtts:?}");
        }
    }

    #[test]
    fn zero_ttl_forwarding_surfaces_in_probe_ttl() {
        let sc = scenarios::fig4();
        let mut tx = transport(&sc, 1);
        let mut strat = ParisUdp::new(41000, 52000);
        let route = trace(&mut tx, &mut strat, sc.destination, TraceConfig::default());
        let a = route.addresses();
        // Hops 7 and 8 (indices 6, 7) both show A...
        assert_eq!(a[6], Some(sc.a("A")));
        assert_eq!(a[7], Some(sc.a("A")));
        // ...but the probe TTLs distinguish the cause: 0 then 1.
        assert_eq!(route.hops[6].probe.probe_ttl, Some(0));
        assert_eq!(route.hops[7].probe.probe_ttl, Some(1));
    }

    #[test]
    fn nat_loop_shows_decreasing_response_ttl() {
        let sc = scenarios::fig5();
        let mut tx = transport(&sc, 1);
        let mut strat = ParisUdp::new(41000, 52000);
        let route = trace(&mut tx, &mut strat, sc.destination, TraceConfig::default());
        let a = route.addresses();
        // Hops 6..=9 (indices 5..=8) all show N0.
        for (i, addr) in a.iter().enumerate().take(9).skip(5) {
            assert_eq!(*addr, Some(sc.a("N")), "hop {}", i + 1);
        }
        let ttls: Vec<_> = (5..=8).map(|i| route.hops[i].probe.response_ttl.unwrap()).collect();
        assert_eq!(ttls, vec![250, 249, 248, 247], "the paper's Fig. 5 numbers");
    }

    // ------------------------------------------------------------------
    // Scripted-transport tests: attribution under reordering, late
    // replies, and duplicates — the windowed failure modes a live
    // simulator only hits probabilistically.
    // ------------------------------------------------------------------

    use crate::scripted::{port_unreachable_for, time_exceeded_for, ScriptedTransport};

    fn hop_addr(ttl: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 9, ttl, 1)
    }

    #[test]
    fn reordered_responses_attribute_to_their_own_hops() {
        // Hop 1 answers *slower* than hop 2 (think unequal-length
        // load-balanced branches): with a 3-probe window both are in
        // flight and hop 2's reply lands first. Attribution must go by
        // probe id, not arrival order.
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(192, 0, 2, 9);
        let plan = |probe: &Packet, now: SimTime| {
            let ttl = probe.ip.ttl;
            let delay = match ttl {
                1 => SimDuration::from_millis(900), // slow outlier
                3 => {
                    return vec![(now + SimDuration::from_millis(30), {
                        let mut p = port_unreachable_for(probe, dst);
                        p.ip.src = dst;
                        p
                    })]
                }
                _ => SimDuration::from_millis(10 * u64::from(ttl)),
            };
            vec![(now + delay, time_exceeded_for(probe, hop_addr(ttl)))]
        };
        let mut tx = ScriptedTransport::new(src, plan);
        let mut strat = ParisUdp::new(41000, 52000);
        let route = trace(&mut tx, &mut strat, dst, TraceConfig::default());
        assert_eq!(route.halt, HaltReason::Terminal);
        assert_eq!(route.hops.len(), 3);
        assert_eq!(route.hops[0].probe.addr, Some(hop_addr(1)));
        assert_eq!(route.hops[1].probe.addr, Some(hop_addr(2)));
        assert_eq!(route.hops[2].probe.addr, Some(dst));
        assert_eq!(
            route.hops[0].probe.rtt,
            Some(SimDuration::from_millis(900)),
            "RTT measured against the probe's own send time"
        );
    }

    #[test]
    fn late_response_after_timeout_still_attributes() {
        // Hop 2's reply arrives after its 2 s window (recorded as a star
        // at finalization) but during hop 4's wait: the registry keeps
        // expired probes, so the record is filled in retroactively —
        // the same forgiveness the sequential driver always had.
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(192, 0, 2, 9);
        let plan = |probe: &Packet, now: SimTime| {
            let ttl = probe.ip.ttl;
            let delay = match ttl {
                2 => SimDuration::from_millis(2050), // past the 2 s timeout
                5 => {
                    return vec![(now + SimDuration::from_millis(50), {
                        let mut p = port_unreachable_for(probe, dst);
                        p.ip.src = dst;
                        p
                    })]
                }
                _ => SimDuration::from_millis(10 * u64::from(ttl)),
            };
            vec![(now + delay, time_exceeded_for(probe, hop_addr(ttl)))]
        };
        let mut tx = ScriptedTransport::new(src, plan);
        let mut strat = ParisUdp::new(41000, 52000);
        let route =
            trace(&mut tx, &mut strat, dst, TraceConfig { window: 1, ..Default::default() });
        assert_eq!(route.halt, HaltReason::Terminal);
        assert_eq!(route.hops.len(), 5);
        assert_eq!(
            route.hops[1].probe.addr,
            Some(hop_addr(2)),
            "late reply must still fill its own hop record"
        );
        assert_eq!(route.hops[1].probe.rtt, Some(SimDuration::from_millis(2050)));
    }

    #[test]
    fn duplicate_responses_are_ignored() {
        // Each hop answers twice; the second copy finds no registry
        // entry (the first consumed it) and must not clobber anything —
        // in particular not a *different* probe's hop.
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(192, 0, 2, 9);
        let plan = |probe: &Packet, now: SimTime| {
            let ttl = probe.ip.ttl;
            if ttl == 3 {
                let mut p = port_unreachable_for(probe, dst);
                p.ip.src = dst;
                let mut q = port_unreachable_for(probe, dst);
                q.ip.src = dst;
                return vec![
                    (now + SimDuration::from_millis(30), p),
                    (now + SimDuration::from_millis(31), q),
                ];
            }
            let first = time_exceeded_for(probe, hop_addr(ttl));
            let second = time_exceeded_for(probe, hop_addr(ttl));
            vec![
                (now + SimDuration::from_millis(10 * u64::from(ttl)), first),
                (now + SimDuration::from_millis(10 * u64::from(ttl) + 5), second),
            ]
        };
        for window in [1u8, 3] {
            let mut tx = ScriptedTransport::new(src, plan);
            let mut strat = ParisUdp::new(41000, 52000);
            let config = TraceConfig { window, ..TraceConfig::default() };
            let route = trace(&mut tx, &mut strat, dst, config);
            assert_eq!(route.halt, HaltReason::Terminal, "window {window}");
            assert_eq!(route.hops.len(), 3, "window {window}");
            for (i, hop) in route.hops[..2].iter().enumerate() {
                assert_eq!(hop.probe.addr, Some(hop_addr(i as u8 + 1)), "window {window}");
            }
        }
    }
}
