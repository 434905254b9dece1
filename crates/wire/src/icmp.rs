//! ICMPv4 messages: Echo, Time Exceeded, Destination Unreachable.
//!
//! Two details carry the whole paper:
//!
//! * **The quotation.** A router answering with Time Exceeded or
//!   Destination Unreachable quotes the discarded probe's IP header plus
//!   its first eight data octets (RFC 792). Those eight octets are the
//!   transport header prefix — which is why traceroute must tag probes
//!   *inside* them to match responses, and why the quoted IP TTL (the
//!   "probe TTL") lets Paris traceroute spot zero-TTL forwarding.
//!
//! * **The Echo checksum.** The ICMP checksum lives in the first four
//!   octets of the ICMP header, exactly where per-flow load balancers
//!   hash. Classic traceroute varies the Sequence Number, which drags the
//!   checksum along; Paris varies Identifier and Sequence Number jointly so
//!   the checksum stays constant ([`IcmpMessage::echo_probe_paris`]).

use crate::checksum::{internet_checksum, ones_sub, Checksum};
use crate::ipv4::Ipv4Header;
use crate::ParseError;

/// ICMP message type numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IcmpType {
    /// Type 0.
    EchoReply,
    /// Type 3.
    DestinationUnreachable,
    /// Type 8.
    EchoRequest,
    /// Type 11.
    TimeExceeded,
}

impl IcmpType {
    /// Wire value.
    pub fn code(self) -> u8 {
        match self {
            IcmpType::EchoReply => 0,
            IcmpType::DestinationUnreachable => 3,
            IcmpType::EchoRequest => 8,
            IcmpType::TimeExceeded => 11,
        }
    }
}

/// Destination Unreachable codes that traceroute interprets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnreachableCode {
    /// Code 0 — traceroute prints `!N`.
    Network,
    /// Code 1 — traceroute prints `!H`.
    Host,
    /// Code 3 — the normal end-of-trace signal for UDP probes to a high
    /// port on the destination.
    Port,
    /// Any other code, carried through verbatim.
    Other(u8),
}

impl UnreachableCode {
    /// Wire value.
    pub fn wire(self) -> u8 {
        match self {
            UnreachableCode::Network => 0,
            UnreachableCode::Host => 1,
            UnreachableCode::Port => 3,
            UnreachableCode::Other(c) => c,
        }
    }

    /// From wire value.
    fn from_wire(c: u8) -> Self {
        match c {
            0 => UnreachableCode::Network,
            1 => UnreachableCode::Host,
            3 => UnreachableCode::Port,
            other => UnreachableCode::Other(other),
        }
    }
}

/// The quoted original datagram inside Time Exceeded / Dest Unreachable:
/// the full IP header and the first eight octets of its payload.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Quotation {
    /// The discarded probe's IP header, as the router saw it. Its `ttl` is
    /// the paper's "probe TTL": 1 in normal operation, 0 under zero-TTL
    /// forwarding.
    pub ip: Ipv4Header,
    /// First eight octets of the probe's transport header.
    pub transport_prefix: [u8; 8],
}

impl Quotation {
    /// Byte length of an emitted quotation.
    pub const LEN: usize = crate::ipv4::HEADER_LEN + 8;

    /// Build a quotation from a probe's raw bytes as a router would,
    /// preserving the TTL *at reception* (pass the header the router saw).
    pub fn from_probe(ip: Ipv4Header, transport_bytes: &[u8]) -> Self {
        let mut transport_prefix = [0u8; 8];
        let n = transport_bytes.len().min(8);
        transport_prefix[..n].copy_from_slice(&transport_bytes[..n]);
        Quotation { ip, transport_prefix }
    }

    fn emit(&self, buf: &mut [u8]) {
        self.ip.emit(&mut buf[..crate::ipv4::HEADER_LEN]);
        // Restore the checksum-at-reception semantics: the quoted header is
        // emitted with a freshly correct checksum, which is what most
        // routers do in practice after decrementing TTL.
        buf[crate::ipv4::HEADER_LEN..Self::LEN].copy_from_slice(&self.transport_prefix);
    }

    fn parse(buf: &[u8]) -> Result<Self, ParseError> {
        if buf.len() < Self::LEN {
            return Err(ParseError::Truncated);
        }
        let ip = Ipv4Header::parse(&buf[..crate::ipv4::HEADER_LEN])?;
        let mut transport_prefix = [0u8; 8];
        transport_prefix.copy_from_slice(&buf[crate::ipv4::HEADER_LEN..Self::LEN]);
        Ok(Quotation { ip, transport_prefix })
    }
}

/// An ICMPv4 message.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum IcmpMessage {
    /// Echo Request (type 8): the ICMP traceroute probe.
    EchoRequest {
        /// Identifier — Paris varies this to compensate the checksum.
        identifier: u16,
        /// Sequence Number — both classic and Paris vary this.
        seq: u16,
        /// Optional payload used for checksum shaping.
        payload: Vec<u8>,
    },
    /// Echo Reply (type 0), sent by the destination.
    EchoReply {
        /// Echoed identifier.
        identifier: u16,
        /// Echoed sequence number.
        seq: u16,
        /// Echoed payload.
        payload: Vec<u8>,
    },
    /// Time Exceeded (type 11, code 0) with the quoted probe.
    TimeExceeded {
        /// The quoted original datagram.
        quotation: Quotation,
    },
    /// Destination Unreachable (type 3) with the quoted probe.
    DestUnreachable {
        /// Which flavour of unreachable.
        code: UnreachableCode,
        /// The quoted original datagram.
        quotation: Quotation,
    },
}

impl IcmpMessage {
    /// A classic-traceroute Echo probe: fixed identifier (the PID), varying
    /// sequence number. The checksum — hashed by per-flow load balancers —
    /// varies with `seq`.
    pub fn echo_probe_classic(identifier: u16, seq: u16) -> Self {
        Self::echo_probe_classic_in(identifier, seq, Vec::new())
    }

    /// [`IcmpMessage::echo_probe_classic`] carrying `payload` (cleared):
    /// lets probe builders thread a recycled buffer through the probe so
    /// its allocation returns to the pool when the packet is consumed.
    pub fn echo_probe_classic_in(identifier: u16, seq: u16, mut payload: Vec<u8>) -> Self {
        payload.clear();
        IcmpMessage::EchoRequest { identifier, seq, payload }
    }

    /// A Paris-traceroute Echo probe: the Identifier is solved so that
    /// `identifier +' seq` is constant (`tag_sum`), which pins the ICMP
    /// checksum — and therefore the flow identifier — across probes.
    pub fn echo_probe_paris(tag_sum: u16, seq: u16) -> Self {
        Self::echo_probe_paris_in(tag_sum, seq, Vec::new())
    }

    /// [`IcmpMessage::echo_probe_paris`] carrying a recycled `payload`
    /// buffer (cleared), as [`IcmpMessage::echo_probe_classic_in`].
    pub fn echo_probe_paris_in(tag_sum: u16, seq: u16, mut payload: Vec<u8>) -> Self {
        let identifier = ones_sub(tag_sum, seq);
        payload.clear();
        IcmpMessage::EchoRequest { identifier, seq, payload }
    }

    /// Message type.
    fn icmp_type(&self) -> IcmpType {
        match self {
            IcmpMessage::EchoRequest { .. } => IcmpType::EchoRequest,
            IcmpMessage::EchoReply { .. } => IcmpType::EchoReply,
            IcmpMessage::TimeExceeded { .. } => IcmpType::TimeExceeded,
            IcmpMessage::DestUnreachable { .. } => IcmpType::DestinationUnreachable,
        }
    }

    /// Emitted length in octets.
    pub fn len(&self) -> usize {
        match self {
            IcmpMessage::EchoRequest { payload, .. } | IcmpMessage::EchoReply { payload, .. } => {
                8 + payload.len()
            }
            IcmpMessage::TimeExceeded { .. } | IcmpMessage::DestUnreachable { .. } => {
                8 + Quotation::LEN
            }
        }
    }

    /// True when the emitted message would be empty (never the case).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Serialize into `buf` (at least [`IcmpMessage::len`] bytes long).
    pub fn emit(&self, buf: &mut [u8]) {
        let len = self.len();
        assert!(buf.len() >= len, "icmp emit buffer too short");
        buf[0] = self.icmp_type().code();
        buf[1] = match self {
            IcmpMessage::DestUnreachable { code, .. } => code.wire(),
            _ => 0,
        };
        buf[2..4].copy_from_slice(&[0, 0]);
        match self {
            IcmpMessage::EchoRequest { identifier, seq, payload }
            | IcmpMessage::EchoReply { identifier, seq, payload } => {
                buf[4..6].copy_from_slice(&identifier.to_be_bytes());
                buf[6..8].copy_from_slice(&seq.to_be_bytes());
                buf[8..len].copy_from_slice(payload);
            }
            IcmpMessage::TimeExceeded { quotation }
            | IcmpMessage::DestUnreachable { quotation, .. } => {
                buf[4..8].copy_from_slice(&[0, 0, 0, 0]); // unused
                quotation.emit(&mut buf[8..len]);
            }
        }
        let ck = internet_checksum(&buf[..len]);
        buf[2..4].copy_from_slice(&ck.to_be_bytes());
    }

    /// Parse from `buf`, verifying the ICMP checksum.
    pub fn parse(buf: &[u8]) -> Result<Self, ParseError> {
        if buf.len() < 8 {
            return Err(ParseError::Truncated);
        }
        if internet_checksum(buf) != 0 {
            return Err(ParseError::BadChecksum);
        }
        let ty = buf[0];
        let code = buf[1];
        match ty {
            0 | 8 => {
                let identifier = u16::from_be_bytes([buf[4], buf[5]]);
                let seq = u16::from_be_bytes([buf[6], buf[7]]);
                let payload = buf[8..].to_vec();
                Ok(if ty == 8 {
                    IcmpMessage::EchoRequest { identifier, seq, payload }
                } else {
                    IcmpMessage::EchoReply { identifier, seq, payload }
                })
            }
            11 => Ok(IcmpMessage::TimeExceeded { quotation: Quotation::parse(&buf[8..])? }),
            3 => Ok(IcmpMessage::DestUnreachable {
                code: UnreachableCode::from_wire(code),
                quotation: Quotation::parse(&buf[8..])?,
            }),
            _ => Err(ParseError::Unsupported),
        }
    }

    /// The first four octets of the emitted message (type, code, checksum)
    /// — the region per-flow load balancers hash. The checksum depends on
    /// the whole message, but it is summed here incrementally (echo fields
    /// directly, quotations via a stack buffer) instead of emitting into a
    /// heap buffer: flow-key hashing calls this for every ICMP packet a
    /// per-flow balancer forwards, so it must stay allocation-free.
    pub fn first_four_octets(&self) -> [u8; 4] {
        let ty = self.icmp_type().code();
        let code = match self {
            IcmpMessage::DestUnreachable { code, .. } => code.wire(),
            _ => 0,
        };
        // Sum the message exactly as `emit` lays it out, with the checksum
        // field itself zero — word 0 is (type, code), word 1 the checksum.
        let mut c = Checksum::new();
        c.add_word(u16::from_be_bytes([ty, code]));
        match self {
            IcmpMessage::EchoRequest { identifier, seq, payload }
            | IcmpMessage::EchoReply { identifier, seq, payload } => {
                c.add_word(*identifier);
                c.add_word(*seq);
                c.add_bytes(payload);
            }
            IcmpMessage::TimeExceeded { quotation }
            | IcmpMessage::DestUnreachable { quotation, .. } => {
                // Octets 4..8 are emitted as zero (unused) and contribute
                // nothing to the sum; the quotation emits into a fixed-size
                // stack buffer.
                let mut quoted = [0u8; Quotation::LEN];
                quotation.emit(&mut quoted);
                c.add_bytes(&quoted);
            }
        }
        let ck = c.finish().to_be_bytes();
        [ty, code, ck[0], ck[1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::protocol;
    use std::net::Ipv4Addr;

    fn quoted_ip(ttl: u8) -> Ipv4Header {
        let mut ip = Ipv4Header::new(
            Ipv4Addr::new(132, 227, 1, 10),
            Ipv4Addr::new(192, 0, 2, 55),
            protocol::UDP,
            ttl,
        );
        ip.total_length = 48;
        ip
    }

    #[test]
    fn echo_round_trip() {
        let msg = IcmpMessage::echo_probe_classic(0x1234, 7);
        let mut buf = vec![0u8; msg.len()];
        msg.emit(&mut buf);
        assert_eq!(IcmpMessage::parse(&buf).unwrap(), msg);
    }

    #[test]
    fn time_exceeded_round_trip_preserves_probe_ttl() {
        let q = Quotation::from_probe(quoted_ip(0), &[1, 2, 3, 4, 5, 6, 7, 8]);
        let msg = IcmpMessage::TimeExceeded { quotation: q };
        let mut buf = vec![0u8; msg.len()];
        msg.emit(&mut buf);
        match IcmpMessage::parse(&buf).unwrap() {
            IcmpMessage::TimeExceeded { quotation } => {
                assert_eq!(quotation.ip.ttl, 0, "probe TTL must survive quoting");
                assert_eq!(quotation.transport_prefix, [1, 2, 3, 4, 5, 6, 7, 8]);
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn dest_unreachable_codes_round_trip() {
        for code in [
            UnreachableCode::Network,
            UnreachableCode::Host,
            UnreachableCode::Port,
            UnreachableCode::Other(13),
        ] {
            let q = Quotation::from_probe(quoted_ip(1), &[0; 8]);
            let msg = IcmpMessage::DestUnreachable { code, quotation: q };
            let mut buf = vec![0u8; msg.len()];
            msg.emit(&mut buf);
            match IcmpMessage::parse(&buf).unwrap() {
                IcmpMessage::DestUnreachable { code: parsed, .. } => assert_eq!(parsed, code),
                other => panic!("wrong message: {other:?}"),
            }
        }
    }

    #[test]
    fn classic_echo_probes_change_the_hashed_region() {
        // Varying seq with a fixed identifier drags the checksum along:
        // the first four octets differ between probes.
        let a = IcmpMessage::echo_probe_classic(100, 1);
        let b = IcmpMessage::echo_probe_classic(100, 2);
        assert_ne!(a.first_four_octets(), b.first_four_octets());
    }

    #[test]
    fn paris_echo_probes_keep_the_hashed_region_constant() {
        let tag = 0x5a5a;
        let mut seen = None;
        for seq in [0u16, 1, 2, 500, 0xffff] {
            let probe = IcmpMessage::echo_probe_paris(tag, seq);
            let four = probe.first_four_octets();
            match seen {
                None => seen = Some(four),
                Some(prev) => assert_eq!(prev, four, "checksum drifted at seq {seq}"),
            }
            // And the probes are still distinguishable by their seq.
            match probe {
                IcmpMessage::EchoRequest { seq: s, .. } => assert_eq!(s, seq),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn first_four_octets_matches_emitted_bytes() {
        // The incremental (allocation-free) computation must agree with an
        // actual emit for every message shape.
        let messages = [
            IcmpMessage::echo_probe_classic(0x1234, 7),
            IcmpMessage::echo_probe_paris(0xbeef, 41),
            IcmpMessage::EchoReply { identifier: 3, seq: 9, payload: vec![1, 2, 3, 4, 5] },
            IcmpMessage::TimeExceeded {
                quotation: Quotation::from_probe(quoted_ip(1), &[9, 8, 7, 6, 5, 4, 3, 2]),
            },
            IcmpMessage::DestUnreachable {
                code: UnreachableCode::Port,
                quotation: Quotation::from_probe(quoted_ip(64), &[0xaa; 8]),
            },
        ];
        for msg in messages {
            let mut buf = vec![0u8; msg.len()];
            msg.emit(&mut buf);
            assert_eq!(msg.first_four_octets(), [buf[0], buf[1], buf[2], buf[3]], "{msg:?}");
        }
    }

    #[test]
    fn corrupted_message_rejected() {
        let msg = IcmpMessage::echo_probe_classic(9, 9);
        let mut buf = vec![0u8; msg.len()];
        msg.emit(&mut buf);
        buf[6] ^= 0xff;
        assert_eq!(IcmpMessage::parse(&buf), Err(ParseError::BadChecksum));
    }

    #[test]
    fn unknown_type_rejected() {
        let mut buf = vec![0u8; 8];
        buf[0] = 42;
        let ck = internet_checksum(&buf);
        buf[2..4].copy_from_slice(&ck.to_be_bytes());
        assert_eq!(IcmpMessage::parse(&buf), Err(ParseError::Unsupported));
    }
}
