//! The probing-strategy interface: build tagged probes, recognize their
//! responses.
//!
//! A strategy owns the header arithmetic that distinguishes the tools the
//! paper compares. The driver hands it a monotonically increasing probe
//! index; the strategy encodes that index into whatever header field it
//! uses as its per-probe identifier and must be able to recover it from a
//! response — either from the ICMP quotation (Time Exceeded / Destination
//! Unreachable quote the probe's IP header plus eight transport octets)
//! or from a terminal response (Echo Reply, TCP SYN-ACK/RST).

use std::net::Ipv4Addr;

use pt_wire::icmp::Quotation;
use pt_wire::{IcmpMessage, Packet, Transport as Wire};

/// Which tool a strategy models — used in reports and comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyId {
    /// NetBSD-style UDP traceroute (varying Destination Port).
    ClassicUdp,
    /// Classic ICMP Echo traceroute (varying Sequence Number).
    ClassicIcmp,
    /// Paris traceroute, UDP mode (pinned flow, Checksum identifier).
    ParisUdp,
    /// Paris traceroute, ICMP Echo mode (pinned checksum).
    ParisIcmp,
    /// Paris traceroute, TCP mode (Sequence Number identifier).
    ParisTcp,
    /// Toren's tcptraceroute (port 80, IP Identification identifier).
    TcpTraceroute,
}

impl StrategyId {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            StrategyId::ClassicUdp => "classic-udp",
            StrategyId::ClassicIcmp => "classic-icmp",
            StrategyId::ParisUdp => "paris-udp",
            StrategyId::ParisIcmp => "paris-icmp",
            StrategyId::ParisTcp => "paris-tcp",
            StrategyId::TcpTraceroute => "tcptraceroute",
        }
    }

    /// Inverse of [`StrategyId::name`] — what the campaign snapshot
    /// loader uses to parse a tool id back out of a checkpoint file.
    pub fn from_name(s: &str) -> Option<StrategyId> {
        Some(match s {
            "classic-udp" => StrategyId::ClassicUdp,
            "classic-icmp" => StrategyId::ClassicIcmp,
            "paris-udp" => StrategyId::ParisUdp,
            "paris-icmp" => StrategyId::ParisIcmp,
            "paris-tcp" => StrategyId::ParisTcp,
            "tcptraceroute" => StrategyId::TcpTraceroute,
            _ => return None,
        })
    }

    /// Whether the tool keeps the flow identifier constant across probes
    /// of one trace (the paper's criterion).
    pub fn keeps_flow_constant(self) -> bool {
        !matches!(self, StrategyId::ClassicUdp | StrategyId::ClassicIcmp)
    }
}

impl core::fmt::Display for StrategyId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// One entry of a probe batch: the TTL to probe at and the strategy's
/// monotone probe index, in launch order.
///
/// No engine builds batches any more; this type and
/// [`ProbeStrategy::build_probe_batch`] remain only because `ptbench`
/// (`core.build_batch.ns_per_probe`) calls them. Drop both in the next
/// change that may edit the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeSpec {
    /// IP TTL for this probe.
    pub ttl: u8,
    /// The strategy's per-trace probe index (encodes the identifier).
    pub probe_idx: u64,
}

/// A probing strategy: stateless header arithmetic keyed by probe index.
pub trait ProbeStrategy {
    /// Which tool this is.
    fn id(&self) -> StrategyId;

    /// Build the probe for `probe_idx` with the given TTL, threading
    /// `payload` — a cleared, possibly warm buffer (the tracer hands in
    /// `Transport::grab_payload`) — into the packet. Strategies that
    /// need payload bytes build them in place; strategies that send
    /// empty payloads still carry the buffer so its allocation returns
    /// to the transport's pool when the packet is consumed. This is
    /// what makes steady-state probe construction allocation-free.
    fn build_probe_with(
        &mut self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        ttl: u8,
        probe_idx: u64,
        payload: Vec<u8>,
    ) -> Packet;

    /// [`ProbeStrategy::build_probe_with`] with a fresh buffer — the
    /// convenience form for tests and one-off probes.
    fn build_probe(&mut self, src: Ipv4Addr, dst: Ipv4Addr, ttl: u8, probe_idx: u64) -> Packet {
        self.build_probe_with(src, dst, ttl, probe_idx, Vec::new())
    }

    /// Build `specs`' probes in order, appending the packets to `out`;
    /// `payloads` yields one cleared (possibly warm) buffer per probe.
    /// A plain loop over [`ProbeStrategy::build_probe_with`] that no
    /// strategy overrides and no engine calls: the tracers build one
    /// probe at a time. Kept only for `ptbench`; see [`ProbeSpec`].
    fn build_probe_batch(
        &mut self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        specs: &[ProbeSpec],
        payloads: &mut dyn FnMut() -> Vec<u8>,
        out: &mut Vec<Packet>,
    ) {
        for spec in specs {
            let payload = payloads();
            out.push(self.build_probe_with(src, dst, spec.ttl, spec.probe_idx, payload));
        }
    }

    /// If `response` answers one of our probes, return that probe's
    /// index — the *real* index, recovered from the response itself.
    /// The driver keeps several probes outstanding at once and
    /// attributes each response through its registry by this id, so a
    /// strategy may never answer "whichever probe is current": a
    /// sentinel would mis-credit every late, reordered or duplicate
    /// reply the moment two probes are in flight. Responses that cannot
    /// name their probe are `None` (the driver drops them as strays).
    fn match_response(&self, dst: Ipv4Addr, response: &Packet) -> Option<u64>;
}

/// Pull the quotation out of an ICMP error response, if the response is
/// one and the quoted packet was ours (same destination).
///
/// Shared probe-attribution helper: every strategy in this crate — and
/// external probing engines such as `pt-mda`'s multipath walker — uses
/// this to recover the header fields of the probe a Time Exceeded /
/// Destination Unreachable is answering.
pub fn quotation_for(dst: Ipv4Addr, response: &Packet) -> Option<&Quotation> {
    let q = match &response.transport {
        Wire::Icmp(IcmpMessage::TimeExceeded { quotation }) => quotation,
        Wire::Icmp(IcmpMessage::DestUnreachable { quotation, .. }) => quotation,
        _ => return None,
    };
    (q.ip.dst == dst).then_some(q)
}

/// Read a big-endian u16 out of a quoted transport prefix.
pub fn prefix_u16(prefix: &[u8; 8], offset: usize) -> u16 {
    u16::from_be_bytes([prefix[offset], prefix[offset + 1]])
}

/// Read a big-endian u32 out of a quoted transport prefix.
pub fn prefix_u32(prefix: &[u8; 8], offset: usize) -> u32 {
    u32::from_be_bytes([prefix[offset], prefix[offset + 1], prefix[offset + 2], prefix[offset + 3]])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClassicIcmp, ClassicUdp, ParisIcmp, ParisTcp, ParisUdp, TcpTraceroute};
    use pt_wire::FlowPolicy;

    fn all_six_tools() -> Vec<Box<dyn ProbeStrategy>> {
        vec![
            Box::new(ClassicUdp::new(1234)),
            Box::new(ClassicIcmp::new(77)),
            Box::new(ParisUdp::new(41000, 52000)),
            Box::new(ParisIcmp::new(0xb00b)),
            Box::new(ParisTcp::new(55555)),
            Box::new(TcpTraceroute::new(40123)),
        ]
    }

    #[test]
    fn ids_have_names_and_flow_constancy() {
        let all = [
            StrategyId::ClassicUdp,
            StrategyId::ClassicIcmp,
            StrategyId::ParisUdp,
            StrategyId::ParisIcmp,
            StrategyId::ParisTcp,
            StrategyId::TcpTraceroute,
        ];
        let mut names = std::collections::BTreeSet::new();
        for id in all {
            assert!(names.insert(id.name()), "duplicate name {}", id.name());
        }
        assert!(!StrategyId::ClassicUdp.keeps_flow_constant());
        assert!(!StrategyId::ClassicIcmp.keeps_flow_constant());
        assert!(StrategyId::ParisUdp.keeps_flow_constant());
        assert!(StrategyId::ParisIcmp.keeps_flow_constant());
        assert!(StrategyId::ParisTcp.keeps_flow_constant());
        assert!(StrategyId::TcpTraceroute.keeps_flow_constant());
        // Fig. 2, measured on built probes: under every policy that
        // hashes a header field a tool's probes share one flow key
        // exactly when the tool is declared flow-constant. A balancer
        // that hashes the destination alone cannot split any tool.
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(192, 0, 2, 99);
        for mut tool in all_six_tools() {
            let id = tool.id();
            let probes: Vec<Packet> = (0..32u64)
                .map(|idx| tool.build_probe(src, dst, 1 + (idx % 30) as u8, idx))
                .collect();
            for policy in FlowPolicy::ALL {
                let constant = probes.iter().all(|p| policy.same_flow(&probes[0], p));
                let expected = id.keeps_flow_constant() || policy == FlowPolicy::DestinationOnly;
                assert_eq!(constant, expected, "{id} under {policy:?}");
            }
        }
    }

    #[test]
    fn prefix_readers() {
        let prefix = [0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0];
        assert_eq!(prefix_u16(&prefix, 0), 0x1234);
        assert_eq!(prefix_u16(&prefix, 6), 0xdef0);
        assert_eq!(prefix_u32(&prefix, 4), 0x9abc_def0);
    }

    #[test]
    fn batched_construction_matches_sequential_for_every_strategy() {
        // `build_probe_batch` is the benchmark's entry point: what it
        // times must be the packets the tracers build one at a time.
        let src = Ipv4Addr::new(10, 0, 1, 1);
        let dst = Ipv4Addr::new(192, 0, 2, 9);
        let specs: Vec<ProbeSpec> =
            (0u64..9).map(|i| ProbeSpec { ttl: 1 + (i as u8 % 5), probe_idx: i * 7 + 3 }).collect();
        for mut strategy in all_six_tools() {
            let id = strategy.id();
            let sequential: Vec<Packet> = specs
                .iter()
                .map(|s| strategy.build_probe_with(src, dst, s.ttl, s.probe_idx, Vec::new()))
                .collect();
            let mut batched = Vec::new();
            strategy.build_probe_batch(src, dst, &specs, &mut Vec::new, &mut batched);
            assert_eq!(batched.len(), sequential.len(), "{id}: batch size");
            for (i, (b, s)) in batched.iter().zip(sequential.iter()).enumerate() {
                assert_eq!(b, s, "{id}: probe {i} diverged");
                assert_eq!(b.emit(), s.emit(), "{id}: probe {i} wire bytes diverged");
            }
        }
    }
}
