//! # pt-wire — packet wire formats for the Paris traceroute reproduction
//!
//! Byte-level representations of the packets that matter to traceroute:
//! IPv4, UDP, TCP and ICMPv4 (Echo, Time Exceeded, Destination Unreachable).
//!
//! The paper's central mechanism lives at this layer: per-flow load
//! balancers hash *actual header bytes* (in the authors' experience, the
//! five-tuple and, more bluntly, the first four octets of the transport
//! header, plus the IP TOS). Classic traceroute varies the UDP Destination
//! Port or the ICMP Sequence Number — both of which perturb those bytes —
//! while Paris traceroute varies the UDP Checksum (compensating through the
//! payload) or the ICMP Identifier (compensating the Checksum) so the flow
//! identifier stays constant. Because this crate implements real emit/parse
//! with real checksums, that distinction is *emergent* in the simulator
//! rather than hard-coded.
//!
//! Layout follows the smoltcp idiom: plain-old-data header structs with
//! `emit` / `parse` methods, explicit checksums, and no I/O.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

pub mod checksum;
pub mod flow;
pub mod icmp;
pub mod ipv4;
pub mod packet;
pub mod tcp;
pub mod udp;

pub use checksum::{internet_checksum, Checksum};
pub use flow::{FlowKey, FlowPolicy};
pub use icmp::{IcmpMessage, IcmpType, Quotation, UnreachableCode};
pub use ipv4::Ipv4Header;
pub use packet::{Packet, Transport};
pub use tcp::TcpSegment;
pub use udp::UdpDatagram;

/// Errors produced while parsing packets off the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError {
    /// The buffer is shorter than the header demands.
    Truncated,
    /// A version/IHL/type field has a value this stack does not support.
    Unsupported,
    /// A checksum failed verification.
    BadChecksum,
    /// A length field is inconsistent with the buffer.
    BadLength,
}

impl core::fmt::Display for ParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ParseError::Truncated => write!(f, "buffer truncated"),
            ParseError::Unsupported => write!(f, "unsupported header value"),
            ParseError::BadChecksum => write!(f, "checksum verification failed"),
            ParseError::BadLength => write!(f, "inconsistent length field"),
        }
    }
}

impl std::error::Error for ParseError {}
