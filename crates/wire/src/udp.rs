//! UDP datagram representation with the Paris checksum-pinning trick.
//!
//! Classic traceroute tags each UDP probe by incrementing the Destination
//! Port — which sits in the first four transport octets that per-flow load
//! balancers hash. Paris traceroute instead tags probes through the
//! *Checksum* field (octets 7–8 of the UDP header, outside the hashed
//! region) and manipulates the payload so the pinned checksum still
//! verifies; see [`UdpDatagram::with_pinned_checksum`].

use crate::checksum::solve_payload_word;
use crate::ipv4::Ipv4Header;
use crate::ParseError;

/// Length of the UDP header in octets.
pub const HEADER_LEN: usize = 8;

/// A UDP datagram: header fields plus owned payload.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct UdpDatagram {
    /// Source port. Classic traceroute sets this to PID + 32768.
    pub src_port: u16,
    /// Destination port. Classic traceroute starts at 33435 and increments
    /// per probe — the root cause of its per-flow load-balancing anomalies.
    pub dst_port: u16,
    /// Checksum as read off the wire; [`UdpDatagram::emit`] recomputes it
    /// unless the datagram was built with a pinned checksum.
    pub checksum: u16,
    /// Whether `checksum` is pinned (Paris mode): emit writes it verbatim
    /// and trusts the payload to compensate.
    pub checksum_pinned: bool,
    /// Payload octets.
    pub payload: Vec<u8>,
}

impl UdpDatagram {
    /// A datagram whose checksum will be computed normally on emit.
    pub fn new(src_port: u16, dst_port: u16, payload: Vec<u8>) -> Self {
        UdpDatagram { src_port, dst_port, checksum: 0, checksum_pinned: false, payload }
    }

    /// Build a datagram whose *Checksum field equals `target`*, Paris
    /// traceroute's probe identifier. The first two payload octets are
    /// solved so the packet verifies; remaining payload is zero padding to
    /// `payload_len` (minimum 2).
    ///
    /// # Panics
    /// Panics if `target == 0`: a transmitted zero checksum means
    /// "no checksum" in UDP and cannot be pinned.
    pub fn with_pinned_checksum(
        src_port: u16,
        dst_port: u16,
        target: u16,
        payload_len: usize,
        ip: &Ipv4Header,
    ) -> Self {
        Self::with_pinned_checksum_in(src_port, dst_port, target, payload_len, ip, Vec::new())
    }

    /// [`UdpDatagram::with_pinned_checksum`], but building the payload
    /// into `payload` (cleared first) so a recycled buffer's allocation
    /// is reused — the zero-allocation probe-construction path.
    ///
    /// # Panics
    /// Panics if `target == 0`, as for `with_pinned_checksum`.
    pub fn with_pinned_checksum_in(
        src_port: u16,
        dst_port: u16,
        target: u16,
        payload_len: usize,
        ip: &Ipv4Header,
        mut payload: Vec<u8>,
    ) -> Self {
        assert!(target != 0, "UDP checksum 0 means 'absent' and cannot be pinned");
        let payload_len = payload_len.max(2);
        let udp_len = (HEADER_LEN + payload_len) as u16;
        let mut c = ip.pseudo_header_sum(udp_len);
        c.add_word(src_port);
        c.add_word(dst_port);
        c.add_word(udp_len);
        c.add_word(target);
        // The free word sits at payload offset 0 — always a full,
        // even-offset 16-bit word slot since payload_len >= 2. Zero
        // padding beyond it contributes nothing to the sum, including
        // the high-order-padded trailing byte of an odd payload_len.
        let word = solve_payload_word(c.raw());
        payload.clear();
        payload.resize(payload_len, 0);
        payload[..2].copy_from_slice(&word.to_be_bytes());
        UdpDatagram { src_port, dst_port, checksum: target, checksum_pinned: true, payload }
    }

    /// Total length (header + payload) in octets.
    pub fn len(&self) -> usize {
        HEADER_LEN + self.payload.len()
    }

    /// True when there is no payload.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// Serialize into `buf` (which must hold [`UdpDatagram::len`] bytes),
    /// computing the checksum over the pseudo-header unless pinned.
    pub fn emit(&self, buf: &mut [u8], ip: &Ipv4Header) {
        let len = self.len();
        assert!(buf.len() >= len, "udp emit buffer too short");
        let udp_len = len as u16;
        buf[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        buf[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        buf[4..6].copy_from_slice(&udp_len.to_be_bytes());
        buf[6..8].copy_from_slice(&[0, 0]);
        buf[8..len].copy_from_slice(&self.payload);
        let ck = if self.checksum_pinned {
            self.checksum
        } else {
            let mut c = ip.pseudo_header_sum(udp_len);
            c.add_bytes(&buf[..len]);
            match c.finish() {
                // A computed zero is transmitted as 0xffff (RFC 768).
                0 => 0xffff,
                other => other,
            }
        };
        buf[6..8].copy_from_slice(&ck.to_be_bytes());
    }

    /// Parse from `buf`, verifying the length field and (when non-zero)
    /// the checksum against the given IP pseudo-header.
    pub fn parse(buf: &[u8], ip: &Ipv4Header) -> Result<Self, ParseError> {
        if buf.len() < HEADER_LEN {
            return Err(ParseError::Truncated);
        }
        let udp_len = usize::from(u16::from_be_bytes([buf[4], buf[5]]));
        if udp_len < HEADER_LEN || udp_len > buf.len() {
            return Err(ParseError::BadLength);
        }
        let checksum = u16::from_be_bytes([buf[6], buf[7]]);
        if checksum != 0 {
            let mut c = ip.pseudo_header_sum(udp_len as u16);
            c.add_bytes(&buf[..udp_len]);
            if c.raw() != 0xffff {
                return Err(ParseError::BadChecksum);
            }
        }
        Ok(UdpDatagram {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            checksum,
            checksum_pinned: false,
            payload: buf[HEADER_LEN..udp_len].to_vec(),
        })
    }

    /// The first four octets of the header — the region the paper believes
    /// routers blindly hash for per-flow load balancing.
    pub fn first_four_octets(&self) -> [u8; 4] {
        let s = self.src_port.to_be_bytes();
        let d = self.dst_port.to_be_bytes();
        [s[0], s[1], d[0], d[1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::protocol;
    use std::net::Ipv4Addr;

    fn ip_for(len: usize) -> Ipv4Header {
        let mut ip = Ipv4Header::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            protocol::UDP,
            64,
        );
        ip.total_length = (crate::ipv4::HEADER_LEN + len) as u16;
        ip
    }

    #[test]
    fn emit_parse_round_trip() {
        let udp = UdpDatagram::new(33000, 33435, vec![1, 2, 3, 4, 5]);
        let ip = ip_for(udp.len());
        let mut buf = vec![0u8; udp.len()];
        udp.emit(&mut buf, &ip);
        let parsed = UdpDatagram::parse(&buf, &ip).unwrap();
        assert_eq!(parsed.src_port, 33000);
        assert_eq!(parsed.dst_port, 33435);
        assert_eq!(parsed.payload, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn computed_checksum_verifies() {
        let udp = UdpDatagram::new(1, 2, vec![0xde, 0xad]);
        let ip = ip_for(udp.len());
        let mut buf = vec![0u8; udp.len()];
        udp.emit(&mut buf, &ip);
        assert!(UdpDatagram::parse(&buf, &ip).is_ok());
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let udp = UdpDatagram::new(1, 2, vec![0xde, 0xad, 0xbe, 0xef]);
        let ip = ip_for(udp.len());
        let mut buf = vec![0u8; udp.len()];
        udp.emit(&mut buf, &ip);
        buf[9] ^= 0x01;
        assert_eq!(UdpDatagram::parse(&buf, &ip), Err(ParseError::BadChecksum));
    }

    #[test]
    fn pinned_checksum_lands_on_target_and_verifies() {
        for target in [0x0001u16, 0x1234, 0xfedc, 0xffff] {
            let ip = ip_for(HEADER_LEN + 2);
            let udp = UdpDatagram::with_pinned_checksum(40000, 50000, target, 2, &ip);
            let mut buf = vec![0u8; udp.len()];
            udp.emit(&mut buf, &ip);
            // The wire checksum field is exactly the chosen identifier...
            assert_eq!(u16::from_be_bytes([buf[6], buf[7]]), target);
            // ...and the packet still verifies.
            let parsed = UdpDatagram::parse(&buf, &ip).unwrap();
            assert_eq!(parsed.checksum, target);
        }
    }

    #[test]
    fn pinned_checksum_keeps_first_four_octets_constant() {
        let ip = ip_for(HEADER_LEN + 2);
        let a = UdpDatagram::with_pinned_checksum(40000, 50000, 0x1111, 2, &ip);
        let b = UdpDatagram::with_pinned_checksum(40000, 50000, 0x2222, 2, &ip);
        assert_eq!(a.first_four_octets(), b.first_four_octets());
        assert_ne!(a.checksum, b.checksum);
    }

    #[test]
    fn odd_payload_len_pinned_checksum_verifies() {
        // Regression: RFC 1071 pads an odd trailing byte high-order. The
        // free word lives at payload offset 0 (an even, fully-occupied
        // slot) and the padding byte is zero, so odd payload lengths must
        // pin and verify exactly like even ones.
        for payload_len in [3usize, 5, 7, 13, 31] {
            for target in [0x0001u16, 0x1234, 0xfedc, 0xffff] {
                let ip = ip_for(HEADER_LEN + payload_len);
                let udp = UdpDatagram::with_pinned_checksum(40000, 50000, target, payload_len, &ip);
                assert_eq!(udp.payload.len(), payload_len);
                let mut buf = vec![0u8; udp.len()];
                udp.emit(&mut buf, &ip);
                assert_eq!(u16::from_be_bytes([buf[6], buf[7]]), target);
                let parsed = UdpDatagram::parse(&buf, &ip).unwrap_or_else(|e| {
                    panic!("odd len {payload_len} target {target:#06x}: {e:?}")
                });
                assert_eq!(parsed.checksum, target);
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot be pinned")]
    fn pinning_zero_checksum_panics() {
        let ip = ip_for(HEADER_LEN + 2);
        let _ = UdpDatagram::with_pinned_checksum(1, 2, 0, 2, &ip);
    }

    #[test]
    fn zero_checksum_skips_verification() {
        let udp = UdpDatagram::new(7, 9, vec![0xaa]);
        let ip = ip_for(udp.len());
        let mut buf = vec![0u8; udp.len()];
        udp.emit(&mut buf, &ip);
        buf[6] = 0;
        buf[7] = 0; // declare "no checksum"
        assert!(UdpDatagram::parse(&buf, &ip).is_ok());
    }

    #[test]
    fn bad_length_field_rejected() {
        let udp = UdpDatagram::new(7, 9, vec![0xaa; 4]);
        let ip = ip_for(udp.len());
        let mut buf = vec![0u8; udp.len()];
        udp.emit(&mut buf, &ip);
        buf[5] = 200; // longer than the buffer
        assert_eq!(UdpDatagram::parse(&buf, &ip), Err(ParseError::BadLength));
    }
}
