//! Flow identification as a per-flow load balancer performs it.
//!
//! The paper found that routers hash "various combinations" of the classic
//! five-tuple plus the IP TOS and the ICMP Code and Checksum fields, and
//! conjectures that routers blindly hash the *first four octets of the
//! transport header* along with addresses and protocol. Each variant is a
//! [`FlowPolicy`]; the simulator assigns one to every load balancer, so
//! whether a given traceroute's probes stay on one path is decided by the
//! same header bytes that would decide it on a real router.

use crate::packet::{Packet, Transport};

/// A flow identifier: the digest a load balancer reduces a packet to.
/// Packets with equal keys take the same equal-cost path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowKey(pub u64);

/// Which header fields a load balancer hashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowPolicy {
    /// Source/Destination Address, Protocol, Source/Destination Port (or
    /// for ICMP, following observed router behaviour, Code and Checksum).
    FiveTuple,
    /// Addresses, Protocol, and the first four transport octets, blind to
    /// their meaning — the paper's conjecture about real routers. For UDP
    /// and TCP this equals [`FlowPolicy::FiveTuple`]; for ICMP it covers
    /// Type, Code and Checksum.
    FirstFourOctets,
    /// [`FlowPolicy::FiveTuple`] plus the IP TOS octet.
    FiveTupleTos,
    /// Destination address only. The paper notes this is indistinguishable
    /// from classic routing from a measurement standpoint.
    DestinationOnly,
}

impl FlowPolicy {
    /// All policies, for exhaustive testing.
    pub const ALL: [FlowPolicy; 4] = [
        FlowPolicy::FiveTuple,
        FlowPolicy::FirstFourOctets,
        FlowPolicy::FiveTupleTos,
        FlowPolicy::DestinationOnly,
    ];

    /// Reduce a packet to its flow key under this policy.
    pub fn flow_key(&self, packet: &Packet) -> FlowKey {
        let mut h = Fnv1a::new();
        h.write(&packet.ip.dst.octets());
        match self {
            FlowPolicy::DestinationOnly => {}
            FlowPolicy::FiveTuple | FlowPolicy::FiveTupleTos => {
                h.write(&packet.ip.src.octets());
                h.write(&[packet.ip.protocol]);
                if let FlowPolicy::FiveTupleTos = self {
                    h.write(&[packet.ip.tos]);
                }
                match &packet.transport {
                    Transport::Udp(u) => {
                        h.write(&u.src_port.to_be_bytes());
                        h.write(&u.dst_port.to_be_bytes());
                    }
                    Transport::Tcp(t) => {
                        h.write(&t.src_port.to_be_bytes());
                        h.write(&t.dst_port.to_be_bytes());
                    }
                    Transport::Icmp(i) => {
                        // Routers have no ports to hash for ICMP; the paper
                        // observed Code and Checksum being used.
                        let four = i.first_four_octets();
                        h.write(&four[1..4]);
                    }
                }
            }
            FlowPolicy::FirstFourOctets => {
                h.write(&packet.ip.src.octets());
                h.write(&[packet.ip.protocol]);
                let four = match &packet.transport {
                    Transport::Udp(u) => u.first_four_octets(),
                    Transport::Tcp(t) => t.first_four_octets(),
                    Transport::Icmp(i) => i.first_four_octets(),
                };
                h.write(&four);
            }
        }
        FlowKey(h.finish())
    }

    /// Whether two packets belong to the same flow under this policy.
    pub fn same_flow(&self, a: &Packet, b: &Packet) -> bool {
        self.flow_key(a) == self.flow_key(b)
    }
}

/// FNV-1a, implemented inline so flow keys are stable across processes and
/// platforms (std's `DefaultHasher` is deliberately randomized).
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::icmp::IcmpMessage;
    use crate::ipv4::{protocol, Ipv4Header};
    use crate::tcp::TcpSegment;
    use crate::udp::UdpDatagram;
    use std::net::Ipv4Addr;

    fn ip(proto: u8) -> Ipv4Header {
        Ipv4Header::new(Ipv4Addr::new(10, 1, 1, 1), Ipv4Addr::new(192, 0, 2, 9), proto, 12)
    }

    fn udp(src_port: u16, dst_port: u16) -> Packet {
        Packet::new(
            ip(protocol::UDP),
            Transport::Udp(UdpDatagram::new(src_port, dst_port, vec![0; 4])),
        )
    }

    #[test]
    fn varying_dst_port_changes_five_tuple_key() {
        // The classic traceroute failure mode.
        let a = udp(33768, 33435);
        let b = udp(33768, 33436);
        assert_ne!(FlowPolicy::FiveTuple.flow_key(&a), FlowPolicy::FiveTuple.flow_key(&b));
        assert_ne!(
            FlowPolicy::FirstFourOctets.flow_key(&a),
            FlowPolicy::FirstFourOctets.flow_key(&b)
        );
    }

    #[test]
    fn destination_only_ignores_ports() {
        let a = udp(1, 2);
        let b = udp(3, 4);
        assert_eq!(
            FlowPolicy::DestinationOnly.flow_key(&a),
            FlowPolicy::DestinationOnly.flow_key(&b)
        );
    }

    #[test]
    fn paris_udp_probes_share_a_flow_under_every_policy() {
        // Two Paris probes toward the same destination with different
        // pinned checksums (their per-probe identifiers) must hash alike.
        let base = ip(protocol::UDP);
        let mk = |target: u16| {
            let header = {
                let mut h = base;
                h.total_length = (crate::ipv4::HEADER_LEN + 10) as u16;
                h
            };
            Packet::new(
                header,
                Transport::Udp(UdpDatagram::with_pinned_checksum(40000, 50000, target, 2, &header)),
            )
        };
        let a = mk(0x1010);
        let b = mk(0x2020);
        for policy in FlowPolicy::ALL {
            assert_eq!(
                policy.flow_key(&a),
                policy.flow_key(&b),
                "policy {policy:?} split Paris probes"
            );
        }
    }

    #[test]
    fn classic_icmp_probes_split_under_checksum_hashing() {
        let a =
            Packet::new(ip(protocol::ICMP), Transport::Icmp(IcmpMessage::echo_probe_classic(7, 1)));
        let b =
            Packet::new(ip(protocol::ICMP), Transport::Icmp(IcmpMessage::echo_probe_classic(7, 2)));
        assert_ne!(
            FlowPolicy::FirstFourOctets.flow_key(&a),
            FlowPolicy::FirstFourOctets.flow_key(&b)
        );
        assert_ne!(FlowPolicy::FiveTuple.flow_key(&a), FlowPolicy::FiveTuple.flow_key(&b));
    }

    #[test]
    fn paris_icmp_probes_stay_in_one_flow() {
        let a = Packet::new(
            ip(protocol::ICMP),
            Transport::Icmp(IcmpMessage::echo_probe_paris(0xaaaa, 1)),
        );
        let b = Packet::new(
            ip(protocol::ICMP),
            Transport::Icmp(IcmpMessage::echo_probe_paris(0xaaaa, 2)),
        );
        for policy in FlowPolicy::ALL {
            assert_eq!(policy.flow_key(&a), policy.flow_key(&b), "policy {policy:?}");
        }
    }

    #[test]
    fn tcp_seq_variation_stays_in_one_flow() {
        let a = Packet::new(ip(protocol::TCP), Transport::Tcp(TcpSegment::syn_probe(50000, 80, 1)));
        let b =
            Packet::new(ip(protocol::TCP), Transport::Tcp(TcpSegment::syn_probe(50000, 80, 999)));
        for policy in FlowPolicy::ALL {
            assert_eq!(policy.flow_key(&a), policy.flow_key(&b), "policy {policy:?}");
        }
    }

    #[test]
    fn tos_policy_distinguishes_tos() {
        let a = udp(5, 6);
        let mut b = a.clone();
        b.ip.tos = 0x08;
        assert_ne!(FlowPolicy::FiveTupleTos.flow_key(&a), FlowPolicy::FiveTupleTos.flow_key(&b));
        assert_eq!(FlowPolicy::FiveTuple.flow_key(&a), FlowPolicy::FiveTuple.flow_key(&b));
    }

    #[test]
    fn keys_are_stable_across_calls() {
        let p = udp(123, 456);
        assert_eq!(FlowPolicy::FiveTuple.flow_key(&p), FlowPolicy::FiveTuple.flow_key(&p));
    }
}
