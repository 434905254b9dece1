//! The simulator's layer number, held exactly: events per packet.
//!
//! A packet is one event per *stateful* arrival — where it expires, is
//! delivered, filtered, rewritten or dropped — not one per router it
//! crosses (`pt_netsim::sim`'s module docs). Every count here is a pure
//! function of the topology, so the asserts are exact: if a change to
//! the engine makes transit hops touch node state again, the walk stops
//! fusing them and these numbers go back up before any wall clock has to
//! notice.
//!
//! Existing public API only: `Simulator::step` returns `true` once per
//! event, and a [`Transport`] wrapper that waits the way
//! `SimTransport::recv_until` does counts them under a tracer.

use std::net::Ipv4Addr;

use paris_traceroute_repro::core::{trace_with, ParisUdp, TraceConfig, TraceScratch, Transport};
use paris_traceroute_repro::netsim::{scenarios, BalancerKind, SimTime, SimTransport, Simulator};
use paris_traceroute_repro::wire::ipv4::{protocol, Ipv4Header};
use paris_traceroute_repro::wire::{FlowPolicy, Packet, Transport as Wire, UdpDatagram};

#[test]
fn a_round_trip_down_a_chain_is_two_events() {
    // ptbench's `netsim.bare_forward` trip: an empty UDP datagram down
    // 32 routers and the Port Unreachable back up them.
    let chain = scenarios::linear(32);
    let mut sim = Simulator::new(chain.topology.clone(), 1);
    let src = chain.topology.node(chain.source).primary_addr();
    let ip = Ipv4Header::new(src, chain.destination, protocol::UDP, 64);
    sim.inject(chain.source, Packet::new(ip, Wire::Udp(UdpDatagram::new(40_000, 33_435, vec![]))));
    let mut events = 0;
    while sim.step() {
        events += 1;
    }
    // One where the probe is delivered, one where its answer is: 67 when
    // every crossing was an event (the injection and 33 arrivals each way).
    assert_eq!(events, 2);
    assert_eq!(sim.stats().forwarded, 66, "33 links each way, counted as before");
    assert!(sim.pop_delivery(chain.source).is_some(), "the Port Unreachable came back");
}

/// `SimTransport`, counting the probes sent and the events its waits
/// process.
struct EventCounter {
    inner: SimTransport,
    sent: u64,
    events: u64,
}

impl Transport for EventCounter {
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn source_addr(&self) -> Ipv4Addr {
        self.inner.source_addr()
    }
    fn send(&mut self, packet: Packet) {
        self.inner.send(packet);
        self.sent += 1;
    }
    fn recv_until(&mut self, deadline: SimTime) -> Option<(SimTime, Packet)> {
        // `SimTransport::recv_until`, with the steps in view.
        loop {
            if let Some(delivery) = self.inner.try_recv() {
                return Some(delivery);
            }
            if !self.inner.simulator_mut().step_due(deadline) {
                self.inner.simulator_mut().run_until(deadline);
                return None;
            }
            self.events += 1;
        }
    }
    fn try_recv(&mut self) -> Option<(SimTime, Packet)> {
        self.inner.try_recv()
    }
    fn release(&mut self, packet: Packet) {
        Transport::release(&mut self.inner, packet);
    }
    fn grab_payload(&mut self) -> Vec<u8> {
        Transport::grab_payload(&mut self.inner)
    }
}

#[test]
fn a_paris_trace_of_fig1_costs_two_events_a_probe() {
    let sc = scenarios::fig1(BalancerKind::PerFlow(FlowPolicy::FiveTuple));
    let sim = Simulator::new(sc.topology.clone(), 21);
    let mut tx = EventCounter { inner: SimTransport::new(sim, sc.source), sent: 0, events: 0 };
    let mut paris = ParisUdp::new(41_000, 52_000);
    let mut scratch = TraceScratch::new();
    trace_with(&mut tx, &mut paris, sc.destination, TraceConfig::paper(), &mut scratch);
    // Whatever the window left in flight past the destination.
    while tx.inner.simulator_mut().step() {
        tx.events += 1;
    }
    let forwarded = tx.inner.simulator().stats().forwarded;
    // Ten probes (TTL 2 to 10 and one the window sent past the
    // destination), an event where each stops and one where its answer
    // lands; the silent router on the flow's path answers nothing. 1.9
    // events a probe, where an event per crossing took `forwarded` + one
    // per injection = 130, or 13.
    assert_eq!((tx.sent, tx.events, forwarded), (10, 19, 120));
}
