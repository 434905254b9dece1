//! Property-based tests for the wire formats: round-trips, checksum
//! invariants, and the Paris header-crafting guarantees, across the whole
//! input space rather than hand-picked examples.

use proptest::prelude::*;
use pt_wire::icmp::{IcmpMessage, Quotation, UnreachableCode};
use pt_wire::ipv4::{protocol, Ipv4Header};
use pt_wire::packet::{Packet, Transport};
use pt_wire::tcp::TcpSegment;
use pt_wire::udp::UdpDatagram;
use pt_wire::{internet_checksum, Checksum, FlowPolicy};
use std::net::Ipv4Addr;

fn arb_addr() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

fn arb_ip(proto: u8) -> impl Strategy<Value = Ipv4Header> {
    (arb_addr(), arb_addr(), 0u8..=255, any::<u8>(), any::<u16>()).prop_map(
        move |(src, dst, ttl, tos, ident)| {
            let mut ip = Ipv4Header::new(src, dst, proto, ttl);
            ip.tos = tos;
            ip.identification = ident;
            ip
        },
    )
}

/// Word-at-a-time reference for [`Checksum::add_bytes`]: folds the
/// end-around carry after every single word, exactly as the RFC 1071
/// sample code does.
fn add_bytes_scalar(c: &mut Checksum, bytes: &[u8]) {
    let mut chunks = bytes.chunks_exact(2);
    for chunk in &mut chunks {
        c.add_word(u16::from_be_bytes([chunk[0], chunk[1]]));
    }
    if let [last] = chunks.remainder() {
        c.add_word(u16::from_be_bytes([*last, 0]));
    }
}

#[test]
fn wide_add_bytes_matches_scalar_reference() {
    // Deterministic pseudo-random buffers across every length 0..80
    // (odd lengths included) and several nonzero starting sums — the
    // exhaustive-over-short-lengths counterpart of the proptest below.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as u8
    };
    for len in 0..80usize {
        let bytes: Vec<u8> = (0..len).map(|_| next()).collect();
        for start in [0u16, 0x0001, 0xfffe, 0xffff] {
            let mut wide = Checksum::new();
            wide.add_word(start);
            let mut scalar = wide;
            wide.add_bytes(&bytes);
            add_bytes_scalar(&mut scalar, &bytes);
            assert_eq!(wide.raw(), scalar.raw(), "len {len}, start {start:#06x}");
        }
    }
}

proptest! {
    #[test]
    fn udp_packet_round_trips(
        ip in arb_ip(protocol::UDP),
        sp in any::<u16>(),
        dp in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let p = Packet::new(ip, Transport::Udp(UdpDatagram::new(sp, dp, payload)));
        let bytes = p.emit();
        let parsed = Packet::parse(&bytes).unwrap();
        prop_assert_eq!(parsed.ip.src, p.ip.src);
        prop_assert_eq!(parsed.ip.dst, p.ip.dst);
        prop_assert_eq!(parsed.ip.ttl, p.ip.ttl);
        match parsed.transport {
            Transport::Udp(u) => {
                prop_assert_eq!(u.src_port, sp);
                prop_assert_eq!(u.dst_port, dp);
            }
            other => prop_assert!(false, "wrong transport {:?}", other),
        }
    }

    #[test]
    fn tcp_packet_round_trips(
        ip in arb_ip(protocol::TCP),
        sp in any::<u16>(),
        dp in any::<u16>(),
        seq in any::<u32>(),
    ) {
        let p = Packet::new(ip, Transport::Tcp(TcpSegment::syn_probe(sp, dp, seq)));
        let parsed = Packet::parse(&p.emit()).unwrap();
        match parsed.transport {
            Transport::Tcp(t) => {
                prop_assert_eq!(t.seq, seq);
                prop_assert_eq!(t.src_port, sp);
                prop_assert_eq!(t.dst_port, dp);
            }
            other => prop_assert!(false, "wrong transport {:?}", other),
        }
    }

    #[test]
    fn icmp_echo_round_trips(
        ip in arb_ip(protocol::ICMP),
        ident in any::<u16>(),
        seq in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let p = Packet::new(ip, Transport::Icmp(IcmpMessage::EchoRequest {
            identifier: ident, seq, payload: payload.clone(),
        }));
        let parsed = Packet::parse(&p.emit()).unwrap();
        match parsed.transport {
            Transport::Icmp(IcmpMessage::EchoRequest { identifier, seq: s, payload: pl }) => {
                prop_assert_eq!(identifier, ident);
                prop_assert_eq!(s, seq);
                prop_assert_eq!(pl, payload);
            }
            other => prop_assert!(false, "wrong transport {:?}", other),
        }
    }

    #[test]
    fn emitted_ip_header_always_checksums_to_zero(ip in arb_ip(protocol::UDP)) {
        let mut buf = [0u8; pt_wire::ipv4::HEADER_LEN];
        ip.emit(&mut buf);
        prop_assert_eq!(internet_checksum(&buf), 0);
    }

    #[test]
    fn pinned_udp_checksum_always_lands_and_verifies(
        ip in arb_ip(protocol::UDP),
        sp in any::<u16>(),
        dp in any::<u16>(),
        target in 1u16..,
        extra in 0usize..32,
    ) {
        let mut header = ip;
        header.total_length = (pt_wire::ipv4::HEADER_LEN + 8 + 2 + extra) as u16;
        let udp = UdpDatagram::with_pinned_checksum(sp, dp, target, 2 + extra, &header);
        let p = Packet::new(header, Transport::Udp(udp));
        let bytes = p.emit();
        // Checksum field on the wire is exactly the target...
        let wire_ck = u16::from_be_bytes([bytes[26], bytes[27]]);
        prop_assert_eq!(wire_ck, target);
        // ...and the packet parses (checksum verifies).
        prop_assert!(Packet::parse(&bytes).is_ok());
    }

    #[test]
    fn paris_icmp_checksum_constant_for_all_seqs(tag in any::<u16>(), seq_a in any::<u16>(), seq_b in any::<u16>()) {
        let a = IcmpMessage::echo_probe_paris(tag, seq_a);
        let b = IcmpMessage::echo_probe_paris(tag, seq_b);
        prop_assert_eq!(a.first_four_octets(), b.first_four_octets());
    }

    #[test]
    fn flow_keys_deterministic_and_policy_consistent(
        ip in arb_ip(protocol::UDP),
        sp in any::<u16>(),
        dp in any::<u16>(),
    ) {
        let p = Packet::new(ip, Transport::Udp(UdpDatagram::new(sp, dp, vec![0; 2])));
        for policy in FlowPolicy::ALL {
            prop_assert_eq!(policy.flow_key(&p), policy.flow_key(&p));
            prop_assert!(policy.same_flow(&p, &p));
        }
    }

    #[test]
    fn quotation_round_trips(ip in arb_ip(protocol::UDP), prefix in any::<[u8; 8]>()) {
        let mut header = ip;
        header.total_length = 28;
        let q = Quotation::from_probe(header, &prefix);
        let msg = IcmpMessage::DestUnreachable { code: UnreachableCode::Port, quotation: q.clone() };
        let mut buf = vec![0u8; msg.len()];
        msg.emit(&mut buf);
        match IcmpMessage::parse(&buf).unwrap() {
            IcmpMessage::DestUnreachable { quotation, .. } => {
                prop_assert_eq!(quotation.transport_prefix, prefix);
                prop_assert_eq!(quotation.ip.ttl, header.ttl);
            }
            other => prop_assert!(false, "wrong message {:?}", other),
        }
    }

    #[test]
    fn parse_never_panics_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = Packet::parse(&bytes);
    }

    #[test]
    fn wide_checksum_folding_matches_scalar_reference(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        start in any::<u16>(),
    ) {
        // The deferred-carry wide path must be bit-identical to the
        // word-at-a-time RFC 1071 reference over arbitrary buffers —
        // every length 0..512 (odd lengths included via the generator)
        // and any accumulator starting state.
        let mut wide = Checksum::new();
        wide.add_word(start);
        let mut scalar = wide;
        wide.add_bytes(&bytes);
        add_bytes_scalar(&mut scalar, &bytes);
        prop_assert_eq!(wide.raw(), scalar.raw());
        prop_assert_eq!(wide.finish(), scalar.finish());
    }

    #[test]
    fn wide_checksum_split_invariance(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        split in any::<u16>(),
    ) {
        // Summing a buffer in one call equals summing an even-length
        // prefix then the rest: headers are summed field by field.
        let mut at = usize::from(split) % (bytes.len() + 1);
        at &= !1; // word-aligned split: odd splits change RFC 1071 padding
        let mut whole = Checksum::new();
        whole.add_bytes(&bytes);
        let mut parts = Checksum::new();
        parts.add_bytes(&bytes[..at]);
        parts.add_bytes(&bytes[at..]);
        prop_assert_eq!(whole.raw(), parts.raw());
    }
}
