//! The paper's Fig. 2 as data: the role every packet header field plays
//! for load balancers and for each traceroute variant.
//!
//! Each entry records where the field lives, whether per-flow load
//! balancers use it, which tools vary it per probe, and whether it is
//! quoted inside an ICMP Time Exceeded response (the IP header and the
//! first eight transport octets are; everything later is not). The
//! table's per-tool claim is measured on built probes by `pt-core`'s
//! `probe::tests::ids_have_names_and_flow_constancy`.

/// The protocol layer a header field belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    /// IPv4 header.
    Ip,
    /// UDP header.
    Udp,
    /// ICMP Echo header.
    IcmpEcho,
    /// TCP header.
    Tcp,
}

/// The roles a header field can play (Fig. 2's key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FieldRole {
    /// Shaded in Fig. 2: per-flow load balancers hash it.
    pub used_for_load_balancing: bool,
    /// `#` in Fig. 2: classic traceroute varies it per probe (directly or
    /// as an arithmetic consequence, like the ICMP checksum).
    pub varied_by_classic: bool,
    /// `+` in Fig. 2: tcptraceroute varies it per probe.
    pub varied_by_tcptraceroute: bool,
    /// `*` in Fig. 2: Paris traceroute varies it per probe.
    pub varied_by_paris: bool,
    /// Struck through in Fig. 2: NOT quoted in ICMP Time Exceeded
    /// responses (beyond IP header + 8 transport octets), so useless for
    /// matching responses to probes.
    pub not_quoted: bool,
}

/// One row of the Fig. 2 matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeaderField {
    /// Which header the field lives in.
    pub layer: Layer,
    /// Human-readable field name as printed in the paper.
    pub name: &'static str,
    /// Byte offset within its own header.
    pub offset: usize,
    /// Field length in octets.
    pub len: usize,
    /// Roles per Fig. 2.
    pub role: FieldRole,
}

impl HeaderField {
    /// Whether the field sits inside the first four transport octets —
    /// the region the paper conjectures routers blindly hash. (IP-layer
    /// fields are hashed by address/protocol selection instead.)
    pub fn in_first_four_transport_octets(&self) -> bool {
        self.layer != Layer::Ip && self.offset < 4
    }

    /// Whether a Time Exceeded response quotes this field (IP header plus
    /// first eight transport octets).
    pub fn quoted_in_time_exceeded(&self) -> bool {
        match self.layer {
            Layer::Ip => true,
            _ => self.offset + self.len <= 8,
        }
    }
}

const fn role(
    used_for_load_balancing: bool,
    varied_by_classic: bool,
    varied_by_tcptraceroute: bool,
    varied_by_paris: bool,
    not_quoted: bool,
) -> FieldRole {
    FieldRole {
        used_for_load_balancing,
        varied_by_classic,
        varied_by_tcptraceroute,
        varied_by_paris,
        not_quoted,
    }
}

/// Fig. 2 of the paper, row by row.
pub const FIELD_MATRIX: &[HeaderField] = &[
    // ---- IP ----
    HeaderField {
        layer: Layer::Ip,
        name: "Version/IHL",
        offset: 0,
        len: 1,
        role: role(false, false, false, false, false),
    },
    HeaderField {
        layer: Layer::Ip,
        name: "TOS",
        offset: 1,
        len: 1,
        role: role(true, false, false, false, false),
    },
    HeaderField {
        layer: Layer::Ip,
        name: "Total Length",
        offset: 2,
        len: 2,
        role: role(false, false, false, false, false),
    },
    HeaderField {
        layer: Layer::Ip,
        name: "Identification",
        offset: 4,
        len: 2,
        role: role(false, false, true, false, false),
    },
    HeaderField {
        layer: Layer::Ip,
        name: "Flags/Fragment Offset",
        offset: 6,
        len: 2,
        role: role(false, false, false, false, false),
    },
    HeaderField {
        layer: Layer::Ip,
        name: "TTL",
        offset: 8,
        len: 1,
        role: role(false, false, false, false, false),
    },
    HeaderField {
        layer: Layer::Ip,
        name: "Protocol",
        offset: 9,
        len: 1,
        role: role(true, false, false, false, false),
    },
    HeaderField {
        layer: Layer::Ip,
        name: "Header Checksum",
        offset: 10,
        len: 2,
        role: role(false, false, false, false, false),
    },
    HeaderField {
        layer: Layer::Ip,
        name: "Source Address",
        offset: 12,
        len: 4,
        role: role(true, false, false, false, false),
    },
    HeaderField {
        layer: Layer::Ip,
        name: "Destination Address",
        offset: 16,
        len: 4,
        role: role(true, false, false, false, false),
    },
    // ---- UDP ----
    HeaderField {
        layer: Layer::Udp,
        name: "Source Port",
        offset: 0,
        len: 2,
        role: role(true, false, false, false, false),
    },
    HeaderField {
        layer: Layer::Udp,
        name: "Destination Port",
        offset: 2,
        len: 2,
        role: role(true, true, false, false, false),
    },
    HeaderField {
        layer: Layer::Udp,
        name: "Length",
        offset: 4,
        len: 2,
        role: role(false, false, false, false, false),
    },
    HeaderField {
        layer: Layer::Udp,
        name: "Checksum",
        offset: 6,
        len: 2,
        role: role(false, true, false, true, false),
    },
    // ---- ICMP Echo ----
    HeaderField {
        layer: Layer::IcmpEcho,
        name: "Type",
        offset: 0,
        len: 1,
        role: role(false, false, false, false, false),
    },
    HeaderField {
        layer: Layer::IcmpEcho,
        name: "Code",
        offset: 1,
        len: 1,
        role: role(true, false, false, false, false),
    },
    HeaderField {
        layer: Layer::IcmpEcho,
        name: "Checksum",
        offset: 2,
        len: 2,
        role: role(true, true, false, false, false),
    },
    HeaderField {
        layer: Layer::IcmpEcho,
        name: "Identifier",
        offset: 4,
        len: 2,
        role: role(false, false, false, true, false),
    },
    HeaderField {
        layer: Layer::IcmpEcho,
        name: "Sequence Number",
        offset: 6,
        len: 2,
        role: role(false, true, false, true, false),
    },
    // ---- TCP ----
    HeaderField {
        layer: Layer::Tcp,
        name: "Source Port",
        offset: 0,
        len: 2,
        role: role(true, false, false, false, false),
    },
    HeaderField {
        layer: Layer::Tcp,
        name: "Destination Port",
        offset: 2,
        len: 2,
        role: role(true, false, false, false, false),
    },
    HeaderField {
        layer: Layer::Tcp,
        name: "Sequence Number",
        offset: 4,
        len: 4,
        role: role(false, false, false, true, false),
    },
    HeaderField {
        layer: Layer::Tcp,
        name: "Acknowledgment Number",
        offset: 8,
        len: 4,
        role: role(false, false, false, false, true),
    },
    HeaderField {
        layer: Layer::Tcp,
        name: "Data Offset/Resvd/ECN/Control",
        offset: 12,
        len: 2,
        role: role(false, false, false, false, true),
    },
    HeaderField {
        layer: Layer::Tcp,
        name: "Window",
        offset: 14,
        len: 2,
        role: role(false, false, false, false, true),
    },
    HeaderField {
        layer: Layer::Tcp,
        name: "Checksum",
        offset: 16,
        len: 2,
        role: role(false, false, false, false, true),
    },
    HeaderField {
        layer: Layer::Tcp,
        name: "Urgent Pointer",
        offset: 18,
        len: 2,
        role: role(false, false, false, false, true),
    },
];

/// Fields of the matrix belonging to one layer, in offset order.
pub fn fields_of(layer: Layer) -> impl Iterator<Item = &'static HeaderField> {
    FIELD_MATRIX.iter().filter(move |f| f.layer == layer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_traceroute_always_varies_a_load_balanced_field() {
        // The paper's diagnosis: for UDP and ICMP Echo probing, at least
        // one field classic traceroute varies is hashed by per-flow load
        // balancers — directly or through the checksum.
        for layer in [Layer::Udp, Layer::IcmpEcho] {
            let classic_varied_and_hashed = fields_of(layer).any(|f| {
                f.role.varied_by_classic
                    && (f.role.used_for_load_balancing
                        || fields_of(layer).any(|g| {
                            // Varying f drags g's checksum along when g is
                            // a checksum field covering f.
                            g.name == "Checksum" && g.role.used_for_load_balancing
                        }))
            });
            assert!(classic_varied_and_hashed, "layer {layer:?}");
        }
    }

    #[test]
    fn paris_never_varies_a_field_hashed_by_load_balancers() {
        for f in FIELD_MATRIX {
            if f.role.varied_by_paris {
                assert!(
                    !f.role.used_for_load_balancing
                        || f.layer == Layer::IcmpEcho && f.name == "Checksum",
                    "Paris varies hashed field {} in {:?}",
                    f.name,
                    f.layer
                );
            }
        }
        // The one subtlety: Paris *holds the ICMP checksum constant* while
        // varying Identifier and Sequence Number; Fig. 2 does not star it.
        let icmp_ck = fields_of(Layer::IcmpEcho).find(|f| f.name == "Checksum").unwrap();
        assert!(!icmp_ck.role.varied_by_paris);
    }

    #[test]
    fn paris_identifiers_are_quoted_in_time_exceeded() {
        // Whatever field Paris uses to tag a probe must come back inside
        // the quotation, or matching would be impossible.
        for f in FIELD_MATRIX {
            if f.role.varied_by_paris {
                assert!(
                    f.quoted_in_time_exceeded(),
                    "Paris tag field {} would not be quoted",
                    f.name
                );
                assert!(!f.role.not_quoted);
            }
        }
    }

    #[test]
    fn tcp_fields_beyond_eight_octets_are_marked_unquoted() {
        for f in fields_of(Layer::Tcp) {
            assert_eq!(
                f.role.not_quoted,
                !f.quoted_in_time_exceeded(),
                "field {} quoting flag inconsistent with its offset",
                f.name
            );
        }
    }

    #[test]
    fn udp_checksum_lies_outside_the_hashed_region() {
        let ck = fields_of(Layer::Udp).find(|f| f.name == "Checksum").unwrap();
        assert!(!ck.in_first_four_transport_octets());
        assert!(ck.quoted_in_time_exceeded());
    }

    #[test]
    fn icmp_checksum_lies_inside_the_hashed_region() {
        let ck = fields_of(Layer::IcmpEcho).find(|f| f.name == "Checksum").unwrap();
        assert!(ck.in_first_four_transport_octets());
    }

    #[test]
    fn tcptraceroute_varies_only_ip_identification() {
        let varied: Vec<_> =
            FIELD_MATRIX.iter().filter(|f| f.role.varied_by_tcptraceroute).collect();
        assert_eq!(varied.len(), 1);
        assert_eq!(varied[0].name, "Identification");
        assert_eq!(varied[0].layer, Layer::Ip);
        assert!(!varied[0].role.used_for_load_balancing);
    }

    #[test]
    fn matrix_offsets_do_not_overlap_within_a_layer() {
        for layer in [Layer::Ip, Layer::Udp, Layer::IcmpEcho, Layer::Tcp] {
            let mut last_end = 0;
            for f in fields_of(layer) {
                assert!(f.offset >= last_end, "{:?} field {} overlaps", layer, f.name);
                last_end = f.offset + f.len;
            }
        }
    }
}
