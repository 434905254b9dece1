//! Paris traceroute strategies (§2.2): per-probe identifiers chosen so
//! the flow identifier never changes within a trace.

use std::net::Ipv4Addr;

use pt_wire::ipv4::{protocol, Ipv4Header};
use pt_wire::tcp::flags as tcp_flags;
use pt_wire::{IcmpMessage, Packet, TcpSegment, Transport as Wire, UdpDatagram};

use crate::probe::{prefix_u16, prefix_u32, quotation_for, ProbeStrategy, StrategyId};

/// Paris traceroute, UDP mode.
///
/// The five-tuple is fixed for the whole trace (the study draws Source
/// and Destination Port uniformly from [10000, 60000], §3). The per-probe
/// identifier is the UDP **Checksum**, pinned by solving for the first
/// two payload octets — outside the four octets load balancers hash, yet
/// inside the eight octets a Time Exceeded quotes.
#[derive(Debug, Clone)]
pub struct ParisUdp {
    /// Fixed source port for the trace.
    pub src_port: u16,
    /// Fixed destination port for the trace.
    pub dst_port: u16,
    /// Payload length (≥ 2; the first word is the checksum compensator).
    pub payload_len: usize,
    /// Base value for the checksum identifier sequence.
    pub base_tag: u16,
}

impl ParisUdp {
    /// A trace with the study's fixed five-tuple.
    pub fn new(src_port: u16, dst_port: u16) -> Self {
        ParisUdp { src_port, dst_port, payload_len: 2, base_tag: 0x8000 }
    }

    /// The checksum identifier for probe `idx` — never zero, because a
    /// zero UDP checksum means "absent".
    fn tag(&self, probe_idx: u64) -> u16 {
        let t = self.base_tag.wrapping_add(probe_idx as u16);
        if t == 0 {
            1
        } else {
            t
        }
    }

    fn untag(&self, checksum: u16) -> u64 {
        u64::from(checksum.wrapping_sub(self.base_tag))
    }

    /// [`ProbeStrategy::match_response`] for a family of `flows` traces
    /// that differ only in source port, `src_port .. src_port + flows`
    /// (the MDA's flow ids): the probe index a reply answers, whichever
    /// member of the family sent it.
    pub fn match_flows(&self, dst: Ipv4Addr, response: &Packet, flows: u16) -> Option<u64> {
        let q = quotation_for(dst, response)?;
        if q.ip.protocol != protocol::UDP {
            return None;
        }
        if prefix_u16(&q.transport_prefix, 0).wrapping_sub(self.src_port) >= flows
            || prefix_u16(&q.transport_prefix, 2) != self.dst_port
        {
            return None;
        }
        // The identifier rides in the quoted Checksum field (octets 6–7).
        Some(self.untag(prefix_u16(&q.transport_prefix, 6)))
    }
}

impl ProbeStrategy for ParisUdp {
    fn id(&self) -> StrategyId {
        StrategyId::ParisUdp
    }

    fn build_probe_with(
        &mut self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        ttl: u8,
        probe_idx: u64,
        payload: Vec<u8>,
    ) -> Packet {
        let mut ip = Ipv4Header::new(src, dst, protocol::UDP, ttl);
        ip.total_length =
            (pt_wire::ipv4::HEADER_LEN + pt_wire::udp::HEADER_LEN + self.payload_len.max(2)) as u16;
        let udp = UdpDatagram::with_pinned_checksum_in(
            self.src_port,
            self.dst_port,
            self.tag(probe_idx),
            self.payload_len,
            &ip,
            payload,
        );
        Packet::new(ip, Wire::Udp(udp))
    }

    fn match_response(&self, dst: Ipv4Addr, response: &Packet) -> Option<u64> {
        self.match_flows(dst, response, 1)
    }
}

/// Paris traceroute, ICMP Echo mode.
///
/// Varies the Sequence Number like classic traceroute, but co-varies the
/// Identifier so `Identifier +' Sequence` — and therefore the Checksum in
/// the hashed first four octets — stays constant.
#[derive(Debug, Clone)]
pub struct ParisIcmp {
    /// The constant one's-complement sum `identifier +' seq` of the trace.
    pub tag_sum: u16,
}

impl ParisIcmp {
    /// A trace whose probes share checksum `!tag_sum`.
    pub fn new(tag_sum: u16) -> Self {
        ParisIcmp { tag_sum }
    }
}

impl ProbeStrategy for ParisIcmp {
    fn id(&self) -> StrategyId {
        StrategyId::ParisIcmp
    }

    fn build_probe_with(
        &mut self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        ttl: u8,
        probe_idx: u64,
        payload: Vec<u8>,
    ) -> Packet {
        let ip = Ipv4Header::new(src, dst, protocol::ICMP, ttl);
        let msg = IcmpMessage::echo_probe_paris_in(self.tag_sum, probe_idx as u16, payload);
        Packet::new(ip, Wire::Icmp(msg))
    }

    fn match_response(&self, dst: Ipv4Addr, response: &Packet) -> Option<u64> {
        if let Wire::Icmp(IcmpMessage::EchoReply { identifier, seq, .. }) = &response.transport {
            // The destination echoes both fields; check they belong to our
            // tagged family.
            if response.ip.src == dst
                && pt_wire::checksum::ones_add(*identifier, *seq) == self.tag_sum
            {
                return Some(u64::from(*seq));
            }
            return None;
        }
        let q = quotation_for(dst, response)?;
        if q.ip.protocol != protocol::ICMP || q.transport_prefix[0] != 8 {
            return None;
        }
        let identifier = prefix_u16(&q.transport_prefix, 4);
        let seq = prefix_u16(&q.transport_prefix, 6);
        (pt_wire::checksum::ones_add(identifier, seq) == self.tag_sum).then(|| u64::from(seq))
    }
}

/// Paris traceroute, TCP mode: constant ports (80 by default, emulating
/// web traffic, as tcptraceroute does to traverse firewalls), Sequence
/// Number as the per-probe identifier.
#[derive(Debug, Clone)]
pub struct ParisTcp {
    /// Fixed source port.
    pub src_port: u16,
    /// Fixed destination port (80 to look like the web).
    pub dst_port: u16,
    /// Base for the sequence-number identifier.
    pub base_seq: u32,
}

impl ParisTcp {
    /// Web-emulating defaults.
    pub fn new(src_port: u16) -> Self {
        ParisTcp { src_port, dst_port: 80, base_seq: 0x0100_0000 }
    }

    /// [`ProbeStrategy::match_response`] for a family of `flows` traces
    /// that differ only in source port, `src_port .. src_port + flows`
    /// (the MDA's flow ids): the probe index a reply answers, whichever
    /// member of the family sent it.
    pub fn match_flows(&self, dst: Ipv4Addr, response: &Packet, flows: u16) -> Option<u64> {
        // Terminal response: SYN-ACK or RST from the destination, whose
        // Acknowledgment Number is our Sequence + 1.
        if let Wire::Tcp(seg) = &response.transport {
            if response.ip.src == dst
                && seg.src_port == self.dst_port
                && seg.dst_port.wrapping_sub(self.src_port) < flows
                && seg.control & (tcp_flags::SYN | tcp_flags::RST) != 0
            {
                return Some(u64::from(seg.ack.wrapping_sub(1).wrapping_sub(self.base_seq)));
            }
            return None;
        }
        let q = quotation_for(dst, response)?;
        if q.ip.protocol != protocol::TCP {
            return None;
        }
        if prefix_u16(&q.transport_prefix, 0).wrapping_sub(self.src_port) >= flows
            || prefix_u16(&q.transport_prefix, 2) != self.dst_port
        {
            return None;
        }
        // Sequence Number sits in quoted octets 4–7.
        Some(u64::from(prefix_u32(&q.transport_prefix, 4).wrapping_sub(self.base_seq)))
    }
}

impl ProbeStrategy for ParisTcp {
    fn id(&self) -> StrategyId {
        StrategyId::ParisTcp
    }

    fn build_probe_with(
        &mut self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        ttl: u8,
        probe_idx: u64,
        mut payload: Vec<u8>,
    ) -> Packet {
        let ip = Ipv4Header::new(src, dst, protocol::TCP, ttl);
        let mut seg = TcpSegment::syn_probe(
            self.src_port,
            self.dst_port,
            self.base_seq.wrapping_add(probe_idx as u32),
        );
        // SYN probes carry no data; the buffer rides along (cleared) so
        // its allocation rejoins the pool when the probe is consumed.
        payload.clear();
        seg.payload = payload;
        Packet::new(ip, Wire::Tcp(seg))
    }

    fn match_response(&self, dst: Ipv4Addr, response: &Packet) -> Option<u64> {
        self.match_flows(dst, response, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_wire::icmp::Quotation;
    use pt_wire::{FlowPolicy, UnreachableCode};

    fn addrs() -> (Ipv4Addr, Ipv4Addr) {
        (Ipv4Addr::new(10, 0, 1, 1), Ipv4Addr::new(192, 0, 2, 9))
    }

    fn time_exceeded_for(probe: &Packet, from: Ipv4Addr) -> Packet {
        let q = Quotation::from_probe(probe.ip, &probe.transport_bytes());
        let ip = Ipv4Header::new(from, probe.ip.src, protocol::ICMP, 250);
        Packet::new(ip, Wire::Icmp(IcmpMessage::TimeExceeded { quotation: q }))
    }

    fn port_unreachable_for(probe: &Packet, from: Ipv4Addr) -> Packet {
        let q = Quotation::from_probe(probe.ip, &probe.transport_bytes());
        let ip = Ipv4Header::new(from, probe.ip.src, protocol::ICMP, 60);
        Packet::new(
            ip,
            Wire::Icmp(IcmpMessage::DestUnreachable { code: UnreachableCode::Port, quotation: q }),
        )
    }

    /// The destination's own answer to `probe`: a Port Unreachable to a
    /// UDP probe, a SYN-ACK (Acknowledgment = Sequence + 1) to a SYN.
    fn terminal_for(probe: &Packet) -> Packet {
        let Wire::Tcp(syn) = &probe.transport else {
            return port_unreachable_for(probe, probe.ip.dst);
        };
        let mut synack = TcpSegment::syn_probe(syn.dst_port, syn.src_port, 0);
        synack.ack = syn.seq.wrapping_add(1);
        synack.control = tcp_flags::SYN | tcp_flags::ACK;
        let ip = Ipv4Header::new(probe.ip.dst, probe.ip.src, protocol::TCP, 60);
        Packet::new(ip, Wire::Tcp(synack))
    }

    #[test]
    fn paris_udp_round_trips_probe_identity() {
        let (src, dst) = addrs();
        let mut s = ParisUdp::new(41000, 52000);
        for idx in [0u64, 1, 5, 39] {
            let probe = s.build_probe(src, dst, 5, idx);
            for resp in
                [time_exceeded_for(&probe, Ipv4Addr::new(10, 9, 9, 9)), terminal_for(&probe)]
            {
                assert_eq!(s.match_response(dst, &resp), Some(idx));
                assert_eq!(s.match_flows(dst, &resp, 1), Some(idx), "a family of one");
            }
        }
    }

    #[test]
    fn paris_udp_probes_share_one_flow() {
        let (src, dst) = addrs();
        let mut s = ParisUdp::new(41000, 52000);
        let a = s.build_probe(src, dst, 5, 0);
        for idx in 1..40 {
            let b = s.build_probe(src, dst, 5 + (idx % 30) as u8, idx);
            for policy in FlowPolicy::ALL {
                assert!(policy.same_flow(&a, &b), "probe {idx} split under {policy:?}");
            }
        }
    }

    #[test]
    fn paris_udp_probes_are_valid_packets() {
        let (src, dst) = addrs();
        let mut s = ParisUdp::new(41000, 52000);
        for idx in 0..40 {
            let probe = s.build_probe(src, dst, 1 + (idx % 39) as u8, idx);
            // Emit + parse must verify all checksums.
            let parsed = Packet::parse(&probe.emit()).expect("valid probe");
            match parsed.transport {
                Wire::Udp(u) => assert_eq!(u.checksum, s.tag(idx)),
                other => panic!("wrong transport {other:?}"),
            }
        }
    }

    #[test]
    fn paris_icmp_round_trips_probe_identity() {
        let (src, dst) = addrs();
        let mut s = ParisIcmp::new(0xb00b);
        for idx in [0u64, 2, 17] {
            let probe = s.build_probe(src, dst, 5, idx);
            let resp = time_exceeded_for(&probe, Ipv4Addr::new(10, 9, 9, 9));
            assert_eq!(s.match_response(dst, &resp), Some(idx));
        }
        // Echo Reply from the destination also matches.
        let probe = s.build_probe(src, dst, 30, 4);
        let (ident, seq) = match &probe.transport {
            Wire::Icmp(IcmpMessage::EchoRequest { identifier, seq, .. }) => (*identifier, *seq),
            other => panic!("wrong transport {other:?}"),
        };
        let reply = Packet::new(
            Ipv4Header::new(dst, src, protocol::ICMP, 60),
            Wire::Icmp(IcmpMessage::EchoReply { identifier: ident, seq, payload: vec![] }),
        );
        assert_eq!(s.match_response(dst, &reply), Some(4));
    }

    #[test]
    fn paris_icmp_probes_share_one_flow() {
        let (src, dst) = addrs();
        let mut s = ParisIcmp::new(0x1234);
        let a = s.build_probe(src, dst, 5, 0);
        for idx in 1..40 {
            let b = s.build_probe(src, dst, 9, idx);
            for policy in FlowPolicy::ALL {
                assert!(policy.same_flow(&a, &b), "probe {idx} split under {policy:?}");
            }
        }
    }

    #[test]
    fn paris_icmp_rejects_other_tag_families() {
        let (src, dst) = addrs();
        let mut mine = ParisIcmp::new(0x1111);
        let mut other = ParisIcmp::new(0x2222);
        let probe = other.build_probe(src, dst, 5, 3);
        let resp = time_exceeded_for(&probe, Ipv4Addr::new(10, 9, 9, 9));
        assert_eq!(mine.match_response(dst, &resp), None);
        let my_probe = mine.build_probe(src, dst, 5, 3);
        let resp = time_exceeded_for(&my_probe, Ipv4Addr::new(10, 9, 9, 9));
        assert_eq!(mine.match_response(dst, &resp), Some(3));
    }

    #[test]
    fn paris_tcp_round_trips_probe_identity() {
        let (src, dst) = addrs();
        let mut s = ParisTcp::new(55555);
        for idx in [0u64, 1, 7, 38] {
            let probe = s.build_probe(src, dst, 5, idx);
            // Mid-path quotation, then the destination's SYN-ACK.
            for resp in
                [time_exceeded_for(&probe, Ipv4Addr::new(10, 9, 9, 9)), terminal_for(&probe)]
            {
                assert_eq!(s.match_response(dst, &resp), Some(idx));
                assert_eq!(s.match_flows(dst, &resp, 1), Some(idx), "a family of one");
            }
        }
    }

    #[test]
    fn match_flows_credits_exactly_the_flow_family() {
        // The MDA's flows are one strategy's traces from consecutive
        // source ports. A family of 16 credits the quoted and terminal
        // replies of its first and last member, refuses the ports on
        // either side of it, and refuses every reply to the other
        // protocol: that is what releases stragglers as strays after
        // the MDA's UDP -> TCP fallback.
        let (src, dst) = addrs();
        let (udp, tcp) = (ParisUdp::new(41000, 52000), ParisTcp::new(41000));
        for (port, member) in [(40999, false), (41000, true), (41015, true), (41016, false)] {
            let probes = [
                ParisUdp { src_port: port, ..udp }.build_probe(src, dst, 5, 9),
                ParisTcp { src_port: port, ..tcp }.build_probe(src, dst, 5, 9),
            ];
            for (i, probe) in probes.iter().enumerate() {
                for resp in
                    [time_exceeded_for(probe, Ipv4Addr::new(10, 9, 9, 9)), terminal_for(probe)]
                {
                    let credited =
                        [udp.match_flows(dst, &resp, 16), tcp.match_flows(dst, &resp, 16)];
                    let mut expected = [None, None];
                    expected[i] = member.then_some(9);
                    assert_eq!(credited, expected, "[udp, tcp] crediting probe {i} from {port}");
                }
            }
        }
    }

    #[test]
    fn paris_tcp_probes_share_one_flow() {
        let (src, dst) = addrs();
        let mut s = ParisTcp::new(55555);
        let a = s.build_probe(src, dst, 5, 0);
        let b = s.build_probe(src, dst, 20, 39);
        for policy in FlowPolicy::ALL {
            assert!(policy.same_flow(&a, &b), "{policy:?}");
        }
    }
}
