//! Diamonds (§4.3): per-destination route graphs in which two or more
//! interfaces appear between one head and one tail.
//!
//! A diamond's signature is a pair `(h, t)` such that routes of the form
//! `..., h, ri, t, ...` exist for `k ≥ 2` distinct `ri`. One trace shows
//! one address per TTL, so diamonds only arise across repeated traces
//! toward one destination: this module aggregates triples across routes
//! into a [`DestinationGraph`].

use std::collections::BTreeSet;

use pt_netsim::routing::AddrHashBuilder;
use std::net::Ipv4Addr;

use pt_core::MeasuredRoute;

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

/// Call `triple(h, r, t)` for every head, middle and tail `route` shows
/// at three consecutive TTLs, allocating nothing.
pub fn for_each_triple(
    route: &MeasuredRoute,
    mut triple: impl FnMut(Ipv4Addr, Ipv4Addr, Ipv4Addr),
) {
    for w in route.hops.windows(3) {
        if let (Some(h), Some(r), Some(t)) = (w[0].probe.addr, w[1].probe.addr, w[2].probe.addr) {
            triple(h, r, t);
        }
    }
}

/// Accumulates `(h, r, t)` triples from every route toward one
/// destination, over the repeated traces of a measurement campaign.
#[derive(Debug, Clone, Default)]
pub struct DestinationGraph {
    #[allow(clippy::disallowed_types, reason = "fixed hasher; `diamonds` sorts its output")]
    triples: std::collections::HashMap<(Ipv4Addr, Ipv4Addr), BTreeSet<Ipv4Addr>, AddrHashBuilder>,
    routes_ingested: usize,
}

impl DestinationGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one measured route's consecutive `(h, r, t)` triples.
    pub fn ingest(&mut self, route: &MeasuredRoute) {
        self.routes_ingested += 1;
        for_each_triple(route, |h, r, t| {
            self.triples.entry((h, t)).or_default().insert(r);
        });
    }

    /// Number of routes ingested.
    pub fn routes(&self) -> usize {
        self.routes_ingested
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

    fn route_of(hops: Vec<u8>) -> MeasuredRoute {
        MeasuredRoute {
            strategy: StrategyId::ClassicUdp,
            source: addr(1),
            destination: addr(200),
            min_ttl: 1,
            hops: hops
                .into_iter()
                .enumerate()
                .map(|(i, x)| Hop { ttl: (i + 1) as u8, probe: probe(x) })
                .collect(),
            halt: HaltReason::MaxTtl,
        }
    }

    #[test]
    fn two_routes_make_a_diamond() {
        let mut g = DestinationGraph::new();
        g.ingest(&route_of(vec![5, 6, 8]));
        g.ingest(&route_of(vec![5, 7, 8]));
        let diamonds = g.diamonds();
        assert_eq!(diamonds.len(), 1);
        assert_eq!(diamonds[0].signature(), (addr(5), addr(8)));
        assert_eq!(diamonds[0].width(), 2);
        assert!(g.is_diamond(addr(5), addr(8)));
    }

    #[test]
    fn single_middle_is_not_a_diamond() {
        let mut g = DestinationGraph::new();
        g.ingest(&route_of(vec![5, 6, 8]));
        g.ingest(&route_of(vec![5, 6, 8]));
        assert!(g.diamonds().is_empty());
        assert!(!g.is_diamond(addr(5), addr(8)));
    }

    #[test]
    fn paper_fig6_signatures() {
        // Reconstruct the paper's example outcome: routes through
        // L → {A,B,C} → {D,E} → G with C reaching only D.
        let (l, a, b, c, d, e, g_) = (10, 11, 12, 13, 14, 15, 16);
        let mut g = DestinationGraph::new();
        for (m1, m2) in [(a, d), (a, e), (b, d), (b, e), (c, d)] {
            g.ingest(&route_of(vec![l, m1, m2, g_]));
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
        let mut r = route_of(vec![5, 6, 8]);
        r.hops[1].probe = ProbeResult::STAR;
        g.ingest(&r);
        assert!(g.diamonds().is_empty());
        assert_eq!(g.routes(), 1);
    }
}
