//! The cost of one arrival must not depend on how many interfaces the
//! node has: the generator's core routers carry one per branch, hundreds
//! on the survey net, and every probe crosses several of them.

// The assertion is a same-run wall-clock ratio (ptlint-waived inline).
#![allow(clippy::disallowed_methods)]
use std::sync::Arc;
use std::time::{Duration, Instant};

use pt_netsim::node::{HostConfig, RouterConfig};
use pt_netsim::time::SimDuration;
use pt_netsim::{SimTransport, Simulator, TopologyBuilder};
use pt_wire::ipv4::{protocol, Ipv4Header};
use pt_wire::{Packet, Transport, UdpDatagram};

const ROUND_TRIPS: u16 = 2_000;

/// S — hub — D, with `stubs` more hosts hanging off the hub. The fastest
/// of five batches of `ROUND_TRIPS` probe / Port Unreachable exchanges.
fn fastest_batch(stubs: usize) -> Duration {
    let delay = SimDuration::from_millis(1);
    let mut b = TopologyBuilder::new();
    let s = b.host("S", HostConfig::default());
    let hub = b.router("hub", RouterConfig::default());
    let d = b.host("D", HostConfig::default());
    b.link(s, hub, delay, 0.0);
    b.link(hub, d, delay, 0.0);
    for i in 0..stubs {
        let stub = b.host(&format!("stub{i}"), HostConfig::default());
        b.link(hub, stub, delay, 0.0);
        b.default_via(stub, hub);
    }
    b.default_via(s, hub);
    b.default_via(hub, d);
    b.default_via(d, hub);
    let s_pfx = b.subnet_of(s);
    b.route_via(hub, s_pfx, s);
    let dst = b.addr_of(d);
    let mut tx = SimTransport::new(Simulator::new(Arc::new(b.build()), 1), s);
    let src = tx.source_addr();

    let batch = |tx: &mut SimTransport| {
        // ptlint: allow(wall-clock): the test asserts a same-run timing ratio; no simulated result reads it
        let start = Instant::now();
        for i in 0..ROUND_TRIPS {
            let ip = Ipv4Header::new(src, dst, protocol::UDP, 30);
            let payload = tx.simulator_mut().grab_payload();
            tx.send(Packet::new(ip, Transport::Udp(UdpDatagram::new(40_000, 33_435 + i, payload))));
            let deadline = tx.now() + SimDuration::from_secs(2);
            let (_, answer) = tx.recv_until(deadline).expect("D answers every probe");
            tx.simulator_mut().recycle(answer);
        }
        start.elapsed()
    };
    batch(&mut tx); // warm the arena, the event queue and the caches
    (0..5).map(|_| batch(&mut tx)).min().expect("five batches")
}

#[test]
fn round_trip_cost_does_not_grow_with_node_degree() {
    let narrow = fastest_batch(2);
    let wide = fastest_batch(4096);
    // A same-run ratio, not an absolute floor: an interface scan per
    // arrival reads 6x and more here, the address index about 1x.
    assert!(
        wide <= narrow * 2,
        "{ROUND_TRIPS} round trips took {narrow:?} through a 4-interface hub \
         but {wide:?} through a 4098-interface one"
    );
}
