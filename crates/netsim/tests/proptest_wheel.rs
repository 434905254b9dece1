//! Differential property suite for the timing wheel: arbitrary
//! `schedule`/`pop`/`peek`/`clear` sequences must produce *exactly* the
//! pop order of a reference priority queue, for every bucket width —
//! the property that makes swapping the simulator's `BinaryHeap` for
//! the wheel digest-preserving by construction.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

use pt_netsim::time::{SimDuration, SimTime};
use pt_netsim::wheel::EventWheel;
use pt_netsim::{HostConfig, NodeId, RouterConfig, Simulator, Topology, TopologyBuilder};
use pt_wire::ipv4::{protocol, Ipv4Header};
use pt_wire::{Packet, Transport, UdpDatagram};

/// A reference scheduler with the exact semantics the simulator's old
/// `BinaryHeap<Scheduled>` had: pop the smallest `(time, seq)`.
#[derive(Default)]
struct ReferenceQueue {
    events: BTreeMap<(u64, u64), u32>,
}

impl ReferenceQueue {
    fn schedule(&mut self, time: u64, seq: u64, payload: u32) {
        self.events.insert((time, seq), payload);
    }

    fn pop(&mut self) -> Option<(u64, u64, u32)> {
        let (&(t, s), _) = self.events.iter().next()?;
        let p = self.events.remove(&(t, s)).unwrap();
        Some((t, s, p))
    }

    fn peek(&self) -> Option<(u64, u64)> {
        self.events.keys().next().copied()
    }
}

/// Decode one op from three raw draws. The time mix is deliberately
/// bimodal like the simulator's workload: mostly short hops from the
/// current virtual time, a tail of far-future (overflow-level) events,
/// and the occasional overdue event behind the clock.
fn op_time(clock: u64, mode: u8, raw: u32) -> u64 {
    match mode % 8 {
        // µs-scale hops right around the clock (same or nearby buckets).
        0..=3 => clock + u64::from(raw % 50_000),
        // ms-scale hops: a few buckets to a revolution away.
        4 | 5 => clock + u64::from(raw % 80_000_000),
        // Far future: seconds out, guaranteed overflow at small shifts.
        6 => clock + 1_900_000_000 + u64::from(raw % 400_000_000),
        // Behind the clock (a route-set scheduled "now" after pops).
        _ => clock.saturating_sub(u64::from(raw % 10_000)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn wheel_matches_reference_queue(
        shift in 6u32..30,
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u32>()), 1..120),
    ) {
        let mut wheel = EventWheel::with_shift(shift);
        let mut reference = ReferenceQueue::default();
        let mut seq = 0u64;
        let mut clock = 0u64;
        for (action, mode, raw) in ops {
            match action % 10 {
                // Weighted toward scheduling so queues actually fill.
                0..=4 => {
                    let t = op_time(clock, mode, raw);
                    wheel.schedule(SimTime(t), seq, raw);
                    reference.schedule(t, seq, raw);
                    seq += 1;
                }
                5 | 6 => {
                    let got = wheel.pop();
                    let want = reference.pop();
                    prop_assert_eq!(
                        got.map(|(t, s, p)| (t.nanos(), s, p)),
                        want,
                        "pop diverged at shift {}", shift
                    );
                    if let Some((t, _, _)) = got {
                        clock = clock.max(t.nanos());
                    }
                }
                7 => {
                    prop_assert_eq!(
                        wheel.next_key().map(|(t, s)| (t.nanos(), s)),
                        reference.peek(),
                        "peek diverged at shift {}", shift
                    );
                }
                8 => {
                    // run_until-style burst: drain everything at or
                    // before a nearby horizon.
                    let horizon = clock + u64::from(raw % 5_000_000);
                    while wheel.next_key().is_some_and(|(t, _)| t.nanos() <= horizon) {
                        let got = wheel.pop().map(|(t, s, p)| (t.nanos(), s, p));
                        prop_assert_eq!(got, reference.pop(), "burst diverged");
                        clock = clock.max(got.unwrap().0);
                    }
                    prop_assert!(reference.peek().is_none_or(|(t, _)| t > horizon));
                    clock = clock.max(horizon);
                }
                _ => {
                    // reset: both sides drop everything, clock rewinds.
                    let mut dropped = 0usize;
                    wheel.clear(|_| dropped += 1);
                    prop_assert_eq!(dropped, reference.events.len());
                    reference.events.clear();
                    clock = 0;
                }
            }
            prop_assert_eq!(wheel.len(), reference.events.len());
        }
        // Full drain at the end must agree too.
        loop {
            let got = wheel.pop().map(|(t, s, p)| (t.nanos(), s, p));
            let want = reference.pop();
            prop_assert_eq!(got, want, "final drain diverged at shift {}", shift);
            if got.is_none() {
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Digest invariance: a full simulator run (forwarding, loss RNG, ICMP,
// scheduled route dynamics at overflow distances) must be byte-identical
// for every wheel bucket width.
// ---------------------------------------------------------------------

fn lossy_balanced_chain() -> (Arc<Topology>, NodeId, std::net::Ipv4Addr) {
    let mut b = TopologyBuilder::new();
    let s = b.host("S", HostConfig::default());
    let r1 = b.router("r1", RouterConfig::default());
    let l = b.router("L", RouterConfig::default());
    let x = b.router("X", RouterConfig::default());
    let y = b.router("Y", RouterConfig::default());
    let m = b.router("M", RouterConfig::default());
    let d = b.host("D", HostConfig::default());
    b.link(s, r1, SimDuration::from_micros(700), 0.0);
    b.link(r1, l, SimDuration::from_millis(1), 0.05);
    b.link(l, x, SimDuration::from_millis(2), 0.0);
    b.link(l, y, SimDuration::from_micros(2500), 0.0);
    b.link(x, m, SimDuration::from_millis(1), 0.05);
    b.link(y, m, SimDuration::from_millis(1), 0.0);
    b.link(m, d, SimDuration::from_millis(3), 0.0);
    b.default_via(s, r1);
    b.default_via(r1, l);
    b.balanced_route(
        l,
        pt_netsim::Ipv4Prefix::DEFAULT,
        pt_netsim::BalancerKind::PerFlow(pt_wire::FlowPolicy::FiveTuple),
        &[x, y],
    );
    b.default_via(x, m);
    b.default_via(y, m);
    b.default_via(m, d);
    b.default_via(d, m);
    let s_pfx = b.subnet_of(s);
    b.route_via(m, s_pfx, x);
    b.route_via(x, s_pfx, l);
    b.route_via(y, s_pfx, l);
    b.route_via(l, s_pfx, r1);
    b.route_via(r1, s_pfx, s);
    let dst = b.addr_of(d);
    (Arc::new(b.build()), s, dst)
}

/// Run a dynamics-heavy scenario and fold every observable (delivery
/// times, responding addresses, header fields, final stats) into one
/// digest string.
fn run_digest(shift: Option<u32>) -> String {
    use std::fmt::Write as _;
    let (topo, s, dst) = lossy_balanced_chain();
    let src = topo.node(s).primary_addr();
    let mut sim = Simulator::new(Arc::clone(&topo), 77);
    if let Some(shift) = shift {
        sim.set_wheel_shift(shift);
    }
    let r1 = topo.find("r1").unwrap();
    // Route dynamics two seconds out: far past every near horizon under
    // test, so the overflow/cascade machinery is on the digest path.
    sim.schedule_route_set(
        SimTime::ZERO + SimDuration::from_secs(2),
        r1,
        pt_netsim::Ipv4Prefix::DEFAULT,
        None,
    );
    sim.schedule_route_set(
        SimTime::ZERO + SimDuration::from_millis(2300),
        r1,
        pt_netsim::Ipv4Prefix::DEFAULT,
        Some(pt_netsim::NextHop::Iface(1)),
    );
    let mut digest = String::new();
    for burst in 0..40u64 {
        for ttl in 1..=6u8 {
            let ip = Ipv4Header::new(src, dst, protocol::UDP, ttl);
            let udp = UdpDatagram::new(40_000 + burst as u16, 33_435 + u16::from(ttl), vec![0; 8]);
            sim.inject(s, Packet::new(ip, Transport::Udp(udp)));
        }
        // Interleave partial draining with injection so the wheel's
        // cursor weaves through buckets while events are pending.
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(60 * (burst + 1)));
        while let Some((at, p)) = sim.pop_delivery(s) {
            writeln!(digest, "{} {} {} {}", at.nanos(), p.ip.src, p.ip.ttl, p.ip.identification)
                .unwrap();
        }
    }
    sim.run_to_quiescence();
    while let Some((at, p)) = sim.pop_delivery(s) {
        writeln!(digest, "{} {} {} {}", at.nanos(), p.ip.src, p.ip.ttl, p.ip.identification)
            .unwrap();
    }
    writeln!(digest, "{:?}", sim.stats()).unwrap();
    digest
}

#[test]
fn simulation_digest_is_invariant_across_wheel_bucket_widths() {
    let baseline = run_digest(None);
    assert!(baseline.lines().count() > 50, "scenario must actually deliver packets");
    for shift in [6, 10, 14, 18, 22, 26, 31] {
        assert_eq!(
            run_digest(Some(shift)),
            baseline,
            "bucket width 2^{shift} ns changed observable behavior"
        );
    }
}
