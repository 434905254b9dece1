//! Diamonds (§4.3): per-destination route graphs in which two or more
//! interfaces appear between one head and one tail.
//!
//! A diamond's signature is a pair `(h, t)` such that routes of the form
//! `..., h, ri, t, ...` exist for `k ≥ 2` distinct `ri`. Diamonds only
//! arise with multiple probes per hop or repeated traces, so this module
//! aggregates triples across routes into a [`DestinationGraph`].

use std::collections::{BTreeSet, HashMap};

use pt_netsim::routing::AddrHashBuilder;
use std::net::Ipv4Addr;

use pt_core::MeasuredRoute;

use crate::codec::{push_addr, push_uint};

/// A diamond: head, tail, and the interfaces seen between them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diamond {
    /// The hop before the balanced set.
    pub head: Ipv4Addr,
    /// The hop after the balanced set.
    pub tail: Ipv4Addr,
    /// The `k ≥ 2` distinct middle interfaces.
    pub middles: BTreeSet<Ipv4Addr>,
}

impl Diamond {
    /// The diamond's `(h, t)` signature.
    pub fn signature(&self) -> (Ipv4Addr, Ipv4Addr) {
        (self.head, self.tail)
    }

    /// Its width `k`.
    pub fn width(&self) -> usize {
        self.middles.len()
    }
}

/// Accumulates `(h, r, t)` triples from every route toward one
/// destination — built from a whole measurement campaign or from the
/// multiple probes of a single classic traceroute.
#[derive(Debug, Clone, Default)]
pub struct DestinationGraph {
    triples: HashMap<(Ipv4Addr, Ipv4Addr), BTreeSet<Ipv4Addr>, AddrHashBuilder>,
    routes_ingested: usize,
}

impl DestinationGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one measured route's consecutive `(h, r, t)` triples.
    ///
    /// With multiple probes per hop, all per-hop address combinations
    /// observed at consecutive TTLs are considered adjacent — exactly the
    /// over-inference that makes classic traceroute's diamonds.
    pub fn ingest(&mut self, route: &MeasuredRoute) {
        self.routes_ingested += 1;
        // Iterate the probes in place: materializing per-hop address
        // vectors allocated ~10 Vecs per ingested route, squarely in
        // the campaign's per-unit hot loop. Within-hop duplicates are
        // harmless (the triple sets dedup).
        for w in route.hops.windows(3) {
            for h in w[0].probes.iter().filter_map(|p| p.addr) {
                for r in w[1].probes.iter().filter_map(|p| p.addr) {
                    for t in w[2].probes.iter().filter_map(|p| p.addr) {
                        self.triples.entry((h, t)).or_default().insert(r);
                    }
                }
            }
        }
    }

    /// Number of routes ingested.
    pub fn routes(&self) -> usize {
        self.routes_ingested
    }

    /// Merge another graph over the same destination into this one.
    pub fn absorb(&mut self, other: DestinationGraph) {
        self.routes_ingested += other.routes_ingested;
        for (key, mids) in other.triples {
            self.triples.entry(key).or_default().extend(mids);
        }
    }

    /// All diamonds: `(h, t)` pairs with at least two middles.
    pub fn diamonds(&self) -> Vec<Diamond> {
        let mut out: Vec<Diamond> = self
            .triples
            .iter()
            .filter(|(_, mids)| mids.len() >= 2)
            .map(|((h, t), mids)| Diamond { head: *h, tail: *t, middles: mids.clone() })
            .collect();
        out.sort_by_key(|d| (d.head, d.tail));
        out
    }

    /// The diamond signatures only.
    pub fn diamond_signatures(&self) -> BTreeSet<(Ipv4Addr, Ipv4Addr)> {
        self.diamonds().iter().map(Diamond::signature).collect()
    }

    /// Whether a specific `(h, t)` pair forms a diamond.
    pub fn is_diamond(&self, head: Ipv4Addr, tail: Ipv4Addr) -> bool {
        self.triples.get(&(head, tail)).is_some_and(|m| m.len() >= 2)
    }

    /// Serialize this graph into the campaign checkpoint's line format:
    /// a `graph` header carrying the ingest count and triple-key count,
    /// then one `tri` line per `(head, tail)` key in sorted order, so
    /// identical graph *contents* always produce identical bytes.
    pub fn snapshot_write(&self, out: &mut String) {
        let mut triples: Vec<_> = self.triples.iter().collect();
        triples.sort_unstable_by_key(|(key, _)| **key);
        out.push_str("graph ");
        push_uint(out, self.routes_ingested as u64);
        out.push(' ');
        push_uint(out, triples.len() as u64);
        out.push('\n');
        for (key, mids) in triples {
            out.push_str("tri ");
            push_addr(out, key.0);
            out.push(' ');
            push_addr(out, key.1);
            out.push(' ');
            push_uint(out, mids.len() as u64);
            for &m in mids {
                out.push(' ');
                push_addr(out, m);
            }
            out.push('\n');
        }
    }

    /// Parse one graph back out of the checkpoint line stream — the
    /// inverse of [`DestinationGraph::snapshot_write`].
    pub fn snapshot_read<'a>(
        lines: &mut impl Iterator<Item = &'a str>,
    ) -> Result<DestinationGraph, String> {
        let header = lines.next().ok_or("missing graph header")?;
        let mut t = header.split_ascii_whitespace();
        if t.next() != Some("graph") {
            return Err(format!("expected graph header, got {header:?}"));
        }
        let routes_ingested: usize =
            t.next().ok_or("graph: missing route count")?.parse().map_err(|e| format!("{e}"))?;
        let n_keys: usize =
            t.next().ok_or("graph: missing key count")?.parse().map_err(|e| format!("{e}"))?;
        let mut g = DestinationGraph { triples: HashMap::default(), routes_ingested };
        for _ in 0..n_keys {
            let line = lines.next().ok_or("graph: truncated triple list")?;
            let mut t = line.split_ascii_whitespace();
            if t.next() != Some("tri") {
                return Err(format!("expected tri line, got {line:?}"));
            }
            let head: Ipv4Addr =
                t.next().ok_or("tri: missing head")?.parse().map_err(|e| format!("{e}"))?;
            let tail: Ipv4Addr =
                t.next().ok_or("tri: missing tail")?.parse().map_err(|e| format!("{e}"))?;
            let n_mids: usize =
                t.next().ok_or("tri: missing middle count")?.parse().map_err(|e| format!("{e}"))?;
            let mids = g.triples.entry((head, tail)).or_default();
            for _ in 0..n_mids {
                let m: Ipv4Addr = t
                    .next()
                    .ok_or("tri: truncated middles")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
                mids.insert(m);
            }
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_core::{HaltReason, Hop, ProbeResult, ResponseKind, StrategyId};
    use pt_netsim::time::SimDuration;

    fn addr(x: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, x)
    }

    fn probe(x: u8) -> ProbeResult {
        ProbeResult {
            addr: Some(addr(x)),
            rtt: Some(SimDuration::from_millis(1)),
            kind: Some(ResponseKind::TimeExceeded),
            probe_ttl: Some(1),
            response_ttl: Some(250),
            ip_id: Some(0),
        }
    }

    fn route_of(hops: Vec<Vec<u8>>) -> MeasuredRoute {
        MeasuredRoute {
            strategy: StrategyId::ClassicUdp,
            source: addr(1),
            destination: addr(200),
            min_ttl: 1,
            hops: hops
                .into_iter()
                .enumerate()
                .map(|(i, probes)| Hop {
                    ttl: (i + 1) as u8,
                    probes: probes.into_iter().map(probe).collect(),
                })
                .collect(),
            halt: HaltReason::MaxTtl,
        }
    }

    #[test]
    fn two_routes_make_a_diamond() {
        let mut g = DestinationGraph::new();
        g.ingest(&route_of(vec![vec![5], vec![6], vec![8]]));
        g.ingest(&route_of(vec![vec![5], vec![7], vec![8]]));
        let diamonds = g.diamonds();
        assert_eq!(diamonds.len(), 1);
        assert_eq!(diamonds[0].signature(), (addr(5), addr(8)));
        assert_eq!(diamonds[0].width(), 2);
        assert!(g.is_diamond(addr(5), addr(8)));
    }

    #[test]
    fn single_middle_is_not_a_diamond() {
        let mut g = DestinationGraph::new();
        g.ingest(&route_of(vec![vec![5], vec![6], vec![8]]));
        g.ingest(&route_of(vec![vec![5], vec![6], vec![8]]));
        assert!(g.diamonds().is_empty());
        assert!(!g.is_diamond(addr(5), addr(8)));
    }

    #[test]
    fn multi_probe_hops_cross_product() {
        // One classic trace, three probes per hop: hop answers {6,7} then
        // {8}, head {5} — the (5, 8) diamond appears within one route.
        let mut g = DestinationGraph::new();
        g.ingest(&route_of(vec![vec![5, 5, 5], vec![6, 7, 6], vec![8, 8, 8]]));
        assert!(g.is_diamond(addr(5), addr(8)));
    }

    #[test]
    fn paper_fig6_signatures() {
        // Reconstruct the paper's example outcome: routes through
        // L → {A,B,C} → {D,E} → G with C reaching only D.
        let (l, a, b, c, d, e, g_) = (10, 11, 12, 13, 14, 15, 16);
        let mut g = DestinationGraph::new();
        for (m1, m2) in [(a, d), (a, e), (b, d), (b, e), (c, d)] {
            g.ingest(&route_of(vec![vec![l], vec![m1], vec![m2], vec![g_]]));
        }
        let sigs = g.diamond_signatures();
        let expect: BTreeSet<_> =
            [(addr(l), addr(d)), (addr(l), addr(e)), (addr(a), addr(g_)), (addr(b), addr(g_))]
                .into_iter()
                .collect();
        assert_eq!(sigs, expect, "exactly the paper's four diamonds, and not (C0, G0)");
        assert!(!g.is_diamond(addr(c), addr(g_)));
    }

    #[test]
    fn stars_produce_no_triples() {
        let mut g = DestinationGraph::new();
        let mut r = route_of(vec![vec![5], vec![6], vec![8]]);
        r.hops[1].probes[0] = ProbeResult::STAR;
        g.ingest(&r);
        assert!(g.diamonds().is_empty());
        assert_eq!(g.routes(), 1);
    }
}
