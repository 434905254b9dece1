//! Loops (§4.1): the same address at two or more consecutive hops.
//!
//! Formally, a loop is observed on address `ri` toward destination `d`
//! when a measured route contains `..., ri, ri+1, ...` with `ri = ri+1`
//! (stars excluded). The per-route classifier reproduces §4.1.1's
//! decision procedure over the Paris side information.

use std::net::Ipv4Addr;

use pt_core::MeasuredRoute;

/// Why a loop appeared, as §4.1.1 diagnoses it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LoopCause {
    /// The second response carries `!H`/`!N`: a router that could expire
    /// the TTL-1 probe but not forward the next one.
    Unreachability,
    /// Probe TTL 0 followed by probe TTL 1 from the same responder: the
    /// upstream router forwards TTL-zero packets (Fig. 4).
    ZeroTtlForwarding,
    /// Distinct routers hidden behind one rewritten source address
    /// (Fig. 5): response TTLs differ across the loop's hops, or the IP-ID
    /// streams are inconsistent with a single counter.
    AddressRewriting,
    /// None of the route-local signatures fit. At campaign level these
    /// split into per-flow load balancing (signature present under
    /// classic, absent under Paris) and a per-packet/unknown residue.
    Unexplained,
}

/// One loop occurrence within a route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopInstance {
    /// Hop index (into `route.hops`) of the first repeated element.
    pub start: usize,
    /// Number of consecutive hops showing the address (≥ 2).
    pub len: usize,
    /// The looping address.
    pub addr: Ipv4Addr,
    /// Route-local diagnosis.
    pub cause: LoopCause,
    /// Whether the loop sits at the very end of the measured route — the
    /// position where NAT/gateway rewriting loops live in practice.
    pub at_route_end: bool,
}

fn classify(route: &MeasuredRoute, start: usize, len: usize) -> LoopCause {
    let first = &route.hops[start].probe;
    let second = &route.hops[start + 1].probe;
    // Unreachability: the follow-up answer is !H/!N.
    if (start + 1..start + len)
        .any(|i| route.hops[i].probe.kind.and_then(|k| k.unreachable_flag()).is_some())
    {
        return LoopCause::Unreachability;
    }
    // Zero-TTL forwarding: quoted TTL 0 then 1.
    if first.probe_ttl == Some(0) && second.probe_ttl == Some(1) {
        return LoopCause::ZeroTtlForwarding;
    }
    // Address rewriting: one address, responses from measurably different
    // distances (response TTL strictly decreasing along the loop is the
    // paper's Fig. 5 signal — each "hop" is a router one deeper). Every
    // hop of a loop (len ≥ 2) is in some pair, so every one must answer
    // with a response TTL.
    let resp_ttl = |i: usize| route.hops[i].probe.response_ttl;
    if (start + 1..start + len)
        .all(|i| matches!((resp_ttl(i - 1), resp_ttl(i)), (Some(a), Some(b)) if a > b))
    {
        return LoopCause::AddressRewriting;
    }
    LoopCause::Unexplained
}

/// Find every loop in a measured route (consecutive runs collapse into a
/// single instance).
pub fn find_loops(route: &MeasuredRoute) -> Vec<LoopInstance> {
    let mut out = Vec::new();
    for_each_loop(route, |l| out.push(l));
    out
}

/// Call `found` with every loop [`find_loops`] would return, in the same
/// order, allocating nothing: each hop's `probe.addr` is its `ri`.
pub fn for_each_loop(route: &MeasuredRoute, mut found: impl FnMut(LoopInstance)) {
    let hops = &route.hops;
    let mut i = 0;
    while i < hops.len() {
        let Some(addr) = hops[i].probe.addr else {
            i += 1;
            continue;
        };
        let mut j = i + 1;
        while j < hops.len() && hops[j].probe.addr == Some(addr) {
            j += 1;
        }
        let len = j - i;
        if len >= 2 {
            // Trailing stars don't stop a loop from being "at the end".
            let at_route_end = hops[j..].iter().all(|h| h.probe.is_star());
            found(LoopInstance {
                start: i,
                len,
                addr,
                cause: classify(route, i, len),
                at_route_end,
            });
        }
        i = j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_core::{HaltReason, Hop, ProbeResult, ResponseKind, StrategyId};
    use pt_netsim::time::SimDuration;
    use pt_wire::UnreachableCode;

    fn addr(x: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, x)
    }

    fn probe(a: Option<u8>) -> ProbeResult {
        match a {
            None => ProbeResult::STAR,
            Some(x) => ProbeResult {
                addr: Some(addr(x)),
                rtt: Some(SimDuration::from_millis(3)),
                kind: Some(ResponseKind::TimeExceeded),
                probe_ttl: Some(1),
                response_ttl: Some(250),
                ip_id: Some(9),
            },
        }
    }

    fn route_of(probes: Vec<ProbeResult>) -> MeasuredRoute {
        MeasuredRoute {
            strategy: StrategyId::ClassicUdp,
            source: addr(1),
            destination: addr(200),
            min_ttl: 1,
            hops: probes
                .into_iter()
                .enumerate()
                .map(|(i, p)| Hop { ttl: (i + 1) as u8, probe: p })
                .collect(),
            halt: HaltReason::MaxTtl,
        }
    }

    #[test]
    fn detects_a_simple_loop() {
        let r = route_of(vec![probe(Some(2)), probe(Some(3)), probe(Some(3)), probe(Some(4))]);
        let loops = find_loops(&r);
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].addr, addr(3));
        assert_eq!(loops[0].start, 1);
        assert_eq!(loops[0].len, 2);
        assert!(!loops[0].at_route_end);
    }

    #[test]
    fn run_of_three_is_one_instance() {
        let r = route_of(vec![probe(Some(2)), probe(Some(3)), probe(Some(3)), probe(Some(3))]);
        let loops = find_loops(&r);
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].len, 3);
        assert!(loops[0].at_route_end);
    }

    #[test]
    fn stars_break_runs() {
        let r = route_of(vec![probe(Some(3)), probe(None), probe(Some(3))]);
        assert!(find_loops(&r).is_empty(), "a star between equal addresses is not a loop");
    }

    #[test]
    fn no_loop_on_distinct_addresses() {
        let r = route_of(vec![probe(Some(2)), probe(Some(3)), probe(Some(4))]);
        assert!(find_loops(&r).is_empty());
    }

    #[test]
    fn classifies_unreachability() {
        let mut second = probe(Some(3));
        second.kind = Some(ResponseKind::Unreachable(UnreachableCode::Host));
        let r = route_of(vec![probe(Some(2)), probe(Some(3)), second]);
        let loops = find_loops(&r);
        assert_eq!(loops[0].cause, LoopCause::Unreachability);
    }

    #[test]
    fn classifies_zero_ttl_forwarding() {
        let mut first = probe(Some(3));
        first.probe_ttl = Some(0);
        let second = probe(Some(3)); // probe_ttl 1
        let r = route_of(vec![probe(Some(2)), first, second]);
        let loops = find_loops(&r);
        assert_eq!(loops[0].cause, LoopCause::ZeroTtlForwarding);
    }

    #[test]
    fn classifies_address_rewriting() {
        let mut a = probe(Some(3));
        a.response_ttl = Some(249);
        let mut b = probe(Some(3));
        b.response_ttl = Some(248);
        let mut c = probe(Some(3));
        c.response_ttl = Some(247);
        let r = route_of(vec![probe(Some(2)), a, b, c]);
        let loops = find_loops(&r);
        assert_eq!(loops[0].cause, LoopCause::AddressRewriting);
        assert!(loops[0].at_route_end);
    }

    #[test]
    fn equal_response_ttls_stay_unexplained() {
        // Load-balancing loops (Fig. 3) answer from one router at one
        // distance: same response TTL → no route-local cause.
        let r = route_of(vec![probe(Some(2)), probe(Some(3)), probe(Some(3))]);
        let loops = find_loops(&r);
        assert_eq!(loops[0].cause, LoopCause::Unexplained);
    }

    #[test]
    fn multiple_loops_in_one_route() {
        let r = route_of(vec![
            probe(Some(2)),
            probe(Some(2)),
            probe(Some(3)),
            probe(Some(4)),
            probe(Some(4)),
        ]);
        let loops = find_loops(&r);
        assert_eq!(loops.len(), 2);
        assert_eq!(loops[0].addr, addr(2));
        assert_eq!(loops[1].addr, addr(4));
        assert!(loops[1].at_route_end);
    }

    #[test]
    fn trailing_stars_keep_end_flag() {
        let r = route_of(vec![probe(Some(2)), probe(Some(3)), probe(Some(3)), probe(None)]);
        let loops = find_loops(&r);
        assert!(loops[0].at_route_end, "stars after the loop don't count as route content");
    }
}
