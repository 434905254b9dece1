//! Test support shared by the tracer's and the probe window's tests: a
//! transport whose network is a script, and builders for the ICMP
//! errors a probe provokes.

use std::net::Ipv4Addr;

use pt_netsim::time::SimTime;
use pt_wire::icmp::Quotation;
use pt_wire::ipv4::{protocol, Ipv4Header};
use pt_wire::{IcmpMessage, Packet, Transport as Wire, UnreachableCode};

use crate::tracer::Transport;

/// A transport whose "network" is a script: each sent probe may
/// produce replies at arbitrary future times (including never, out
/// of order, or twice).
pub(crate) struct ScriptedTransport<F: FnMut(&Packet, SimTime) -> Vec<(SimTime, Packet)>> {
    now: SimTime,
    source: Ipv4Addr,
    pending: Vec<(SimTime, u64, Packet)>,
    next_seq: u64,
    plan: F,
}

impl<F: FnMut(&Packet, SimTime) -> Vec<(SimTime, Packet)>> ScriptedTransport<F> {
    pub(crate) fn new(source: Ipv4Addr, plan: F) -> Self {
        ScriptedTransport { now: SimTime::ZERO, source, pending: Vec::new(), next_seq: 0, plan }
    }

    fn pop_due(&mut self, deadline: SimTime) -> Option<(SimTime, Packet)> {
        let best = self
            .pending
            .iter()
            .enumerate()
            .min_by_key(|(_, (at, seq, _))| (*at, *seq))
            .map(|(i, (at, _, _))| (i, *at))?;
        if best.1 > deadline {
            return None;
        }
        let (at, _, packet) = self.pending.remove(best.0);
        self.now = self.now.max(at);
        Some((at, packet))
    }
}

impl<F: FnMut(&Packet, SimTime) -> Vec<(SimTime, Packet)>> Transport for ScriptedTransport<F> {
    fn now(&self) -> SimTime {
        self.now
    }
    fn source_addr(&self) -> Ipv4Addr {
        self.source
    }
    fn send(&mut self, packet: Packet) {
        for (at, resp) in (self.plan)(&packet, self.now) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.pending.push((at, seq, resp));
        }
    }
    fn recv_until(&mut self, deadline: SimTime) -> Option<(SimTime, Packet)> {
        match self.pop_due(deadline) {
            Some(d) => Some(d),
            None => {
                self.now = self.now.max(deadline);
                None
            }
        }
    }
    fn try_recv(&mut self) -> Option<(SimTime, Packet)> {
        self.pop_due(self.now)
    }
}

pub(crate) fn time_exceeded_for(probe: &Packet, from: Ipv4Addr) -> Packet {
    let q = Quotation::from_probe(probe.ip, &probe.transport_bytes());
    let ip = Ipv4Header::new(from, probe.ip.src, protocol::ICMP, 250);
    Packet::new(ip, Wire::Icmp(IcmpMessage::TimeExceeded { quotation: q }))
}

pub(crate) fn port_unreachable_for(probe: &Packet, from: Ipv4Addr) -> Packet {
    let q = Quotation::from_probe(probe.ip, &probe.transport_bytes());
    let ip = Ipv4Header::new(from, probe.ip.src, protocol::ICMP, 60);
    Packet::new(
        ip,
        Wire::Icmp(IcmpMessage::DestUnreachable { code: UnreachableCode::Port, quotation: q }),
    )
}
