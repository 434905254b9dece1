//! The traffic the simulator's event queue is designed for, pinned: the
//! tracers keep at most a window of probes outstanding, every probe is
//! one packet in the network at a time, so a simulator serving one
//! tracer holds a handful of packets — and, each packet being one
//! pending *stateful* arrival (the routers it only crosses are not
//! events), a handful of events. `pt_netsim::wheel` is a sorted
//! deque *because* of this (its insert is linear in the queue's depth);
//! if a tracer change ever deepens the queue, this test fails before
//! the benchmark has to find out.
//!
//! Existing public API only: a [`Transport`] wrapper reads
//! `Simulator::in_flight` (arena-resident packets) after every `send`,
//! the moment the count peaks.

use std::net::Ipv4Addr;

use paris_traceroute_repro::core::{
    trace_with, ClassicUdp, ParisUdp, TraceConfig, TraceScratch, Transport,
};
use paris_traceroute_repro::mda::{discover_with, MdaConfig, MdaScratch};
use paris_traceroute_repro::netsim::{SimTime, SimTransport, SimulatorPool};
use paris_traceroute_repro::topogen::{generate, InternetConfig, SyntheticInternet};
use paris_traceroute_repro::wire::Packet;

/// `SimTransport`, recording the most packets ever in flight.
struct DepthProbe {
    inner: SimTransport,
    high_water: usize,
}

impl Transport for DepthProbe {
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn source_addr(&self) -> Ipv4Addr {
        self.inner.source_addr()
    }
    fn send(&mut self, packet: Packet) {
        self.inner.send(packet);
        self.high_water = self.high_water.max(self.inner.simulator().in_flight());
    }
    fn recv_until(&mut self, deadline: SimTime) -> Option<(SimTime, Packet)> {
        self.inner.recv_until(deadline)
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

/// Run `unit` once per destination of `net`, each on a pristine pooled
/// simulator as the campaign runner does, and return the deepest the
/// network ever got.
fn high_water(
    net: &SyntheticInternet,
    mut unit: impl FnMut(&mut DepthProbe, Ipv4Addr, u64),
) -> usize {
    let mut pool = SimulatorPool::new(net.topology.clone());
    let mut deepest = 0;
    for (i, dest) in net.dests.iter().enumerate() {
        let inner = SimTransport::new(pool.acquire(i as u64), net.source);
        let mut tx = DepthProbe { inner, high_water: 0 };
        unit(&mut tx, dest.addr, i as u64);
        assert!(tx.high_water > 0, "destination {i}: nothing was sent");
        deepest = deepest.max(tx.high_water);
        pool.release(tx.inner.into_simulator());
    }
    deepest
}

#[test]
fn a_trace_keeps_a_window_of_packets_in_flight() {
    let config = TraceConfig::paper();
    assert_eq!(config.window, 3, "the bound below is stated for the paper's window");
    let mut scratch = TraceScratch::new();
    for net in [generate(&InternetConfig::tiny(7)), generate(&InternetConfig::hostile(7))] {
        let deepest = high_water(&net, |tx, dest, i| {
            let mut paris = ParisUdp::new(41_000 + i as u16, 52_000);
            let route = trace_with(tx, &mut paris, dest, config, &mut scratch);
            scratch.recycle(route);
            let mut classic = ClassicUdp::new(i as u16);
            let route = trace_with(tx, &mut classic, dest, config, &mut scratch);
            scratch.recycle(route);
        });
        assert!(
            deepest <= 4 * usize::from(config.window),
            "a window-{} trace put {deepest} packets in flight",
            config.window
        );
    }
}

#[test]
fn mda_keeps_a_window_of_packets_in_flight() {
    let fixed = MdaConfig::default();
    let adaptive = MdaConfig::adaptive(7);
    assert_eq!((fixed.window, adaptive.window), (8, 8), "the bound is stated for window 8");
    let mut scratch = MdaScratch::new();
    for (net, config) in [
        (generate(&InternetConfig::tiny(7)), fixed),
        (generate(&InternetConfig::hostile(7)), fixed),
        (generate(&InternetConfig::hostile(7)), adaptive),
    ] {
        let deepest = high_water(&net, |tx, dest, _| {
            let map = discover_with(tx, dest, &config, &mut scratch);
            scratch.recycle(map);
        });
        assert!(
            deepest <= 4 * usize::from(config.window),
            "a window-{} MDA walk (adaptive: {}) put {deepest} packets in flight",
            config.window,
            config.adaptive.is_some()
        );
    }
}
