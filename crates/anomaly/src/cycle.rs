//! Cycles (§4.2): an address that reappears with at least one *different*
//! address in between — distinguishing them from loops.
//!
//! Causes mirror §4.2.1: load balancing over paths whose lengths differ
//! by more than one (campaign-level, via classic-vs-Paris differencing),
//! true forwarding loops during routing convergence (route-local:
//! periodicity plus a single coherent IP-ID stream), and unreachability
//! messages from a router already seen earlier.

use std::net::Ipv4Addr;

use pt_core::{Hop, MeasuredRoute};

/// Why a cycle appeared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CycleCause {
    /// Packets genuinely circulating: the measured route repeats a fixed
    /// sequence of addresses, and the repeated router's IP-ID stream
    /// increments coherently across occurrences.
    ForwardingLoop,
    /// The second occurrence is an `!H`/`!N` from a router that already
    /// answered earlier in the route.
    Unreachability,
    /// No route-local signature; campaign differencing attributes most of
    /// these to per-flow load balancing over paths differing by ≥ 2 hops.
    Unexplained,
}

/// One cyclic reappearance within a route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleInstance {
    /// Hop index of the first occurrence.
    pub first: usize,
    /// Hop index of the reappearance.
    pub second: usize,
    /// The cycling address.
    pub addr: Ipv4Addr,
    /// Route-local diagnosis.
    pub cause: CycleCause,
}

/// Does the route repeat with period `p` starting at `start`? Requires at
/// least one full period to recur, comparing addresses position-wise
/// (stars match nothing). The repetition may *end* before the route does —
/// transient forwarding loops revert mid-trace when routing converges —
/// so a mismatch after a full repeated period does not disqualify.
fn is_periodic(hops: &[Hop], start: usize, p: usize) -> bool {
    if p == 0 || start + 2 * p > hops.len() {
        return false;
    }
    let mut compared = 0;
    for o in 0.. {
        let i = start + o;
        let j = start + o + p;
        if j >= hops.len() {
            break;
        }
        match (hops[i].probe.addr, hops[j].probe.addr) {
            (Some(a), Some(b)) if a == b => compared += 1,
            _ => break,
        }
    }
    compared >= p
}

fn ip_id_stream_coherent(route: &MeasuredRoute, first: usize, second: usize) -> bool {
    let a = route.hops[first].probe.ip_id;
    let b = route.hops[second].probe.ip_id;
    match (a, b) {
        (Some(a), Some(b)) => {
            // One router's counter, probed twice a few packets apart:
            // a small positive increment (wrapping).
            let delta = b.wrapping_sub(a);
            delta > 0 && delta < 0x100
        }
        _ => false,
    }
}

/// Equal spacing across three or more occurrences of one address is also
/// periodicity evidence — it covers the route's trailing, cut-off period.
fn equally_spaced(mut positions: impl Iterator<Item = usize>) -> bool {
    let (Some(first), Some(mut last)) = (positions.next(), positions.next()) else {
        return false;
    };
    let p = last - first;
    let mut count = 2;
    for next in positions {
        if next - last != p {
            return false;
        }
        (last, count) = (next, count + 1);
    }
    count >= 3
}

fn classify(route: &MeasuredRoute, addr: Ipv4Addr, first: usize, second: usize) -> CycleCause {
    let hops = &route.hops;
    if hops[second].probe.kind.and_then(|k| k.unreachable_flag()).is_some() {
        return CycleCause::Unreachability;
    }
    let p = second - first;
    let occurrences = (0..hops.len()).filter(|&j| hops[j].probe.addr == Some(addr));
    let periodic = is_periodic(hops, first, p) || equally_spaced(occurrences);
    if periodic && ip_id_stream_coherent(route, first, second) {
        return CycleCause::ForwardingLoop;
    }
    CycleCause::Unexplained
}

/// Find the cycles of a route: for each address, each reappearance
/// separated from the previous occurrence by at least one distinct
/// address yields one instance.
pub fn find_cycles(route: &MeasuredRoute) -> Vec<CycleInstance> {
    let mut out = Vec::new();
    for_each_cycle(route, |c| out.push(c));
    out
}

/// Call `found` with every cycle [`find_cycles`] would return, in the
/// same order — by reappearance, each hop reappearing at most once —
/// allocating nothing: each hop's `probe.addr` is its `ri`.
pub fn for_each_cycle(route: &MeasuredRoute, mut found: impl FnMut(CycleInstance)) {
    let hops = &route.hops;
    // Routes are at most ~40 hops, and cycles are rare (a few percent
    // of routes): backward scans over the hops beat building an
    // occurrence map per route.
    for (i, hop) in hops.iter().enumerate() {
        let Some(a) = hop.probe.addr else { continue };
        let Some(prev) = (0..i).rev().find(|&j| hops[j].probe.addr == Some(a)) else { continue };
        // Cyclic only if some *distinct address* sits strictly between.
        let separated = hops[prev + 1..i].iter().any(|h| matches!(h.probe.addr, Some(b) if b != a));
        if separated {
            found(CycleInstance {
                first: prev,
                second: i,
                addr: a,
                cause: classify(route, a, prev, i),
            });
        }
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

    fn probe(a: Option<u8>, ip_id: u16) -> ProbeResult {
        match a {
            None => ProbeResult::STAR,
            Some(x) => ProbeResult {
                addr: Some(addr(x)),
                rtt: Some(SimDuration::from_millis(3)),
                kind: Some(ResponseKind::TimeExceeded),
                probe_ttl: Some(1),
                response_ttl: Some(250),
                ip_id: Some(ip_id),
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
    fn detects_a_simple_cycle() {
        let r = route_of(vec![probe(Some(2), 1), probe(Some(3), 1), probe(Some(2), 2)]);
        let cycles = find_cycles(&r);
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].addr, addr(2));
        assert_eq!((cycles[0].first, cycles[0].second), (0, 2));
    }

    #[test]
    fn adjacent_repeat_is_a_loop_not_a_cycle() {
        let r = route_of(vec![probe(Some(2), 1), probe(Some(2), 2), probe(Some(3), 1)]);
        assert!(find_cycles(&r).is_empty());
    }

    #[test]
    fn star_between_occurrences_does_not_separate() {
        let r = route_of(vec![probe(Some(2), 1), probe(None, 0), probe(Some(2), 2)]);
        assert!(find_cycles(&r).is_empty(), "a star is not a distinct address");
    }

    #[test]
    fn forwarding_loop_detected_by_periodicity_and_ip_ids() {
        // X Y X Y X — period 2, X's counter ticking 10, 12, 14.
        let r = route_of(vec![
            probe(Some(7), 10),
            probe(Some(8), 20),
            probe(Some(7), 12),
            probe(Some(8), 22),
            probe(Some(7), 14),
        ]);
        let cycles = find_cycles(&r);
        assert!(!cycles.is_empty());
        assert!(cycles.iter().all(|c| c.cause == CycleCause::ForwardingLoop), "{cycles:?}");
    }

    #[test]
    fn non_periodic_cycle_stays_unexplained() {
        // X A X B — X recurs but the tail doesn't repeat the period.
        let r = route_of(vec![
            probe(Some(7), 10),
            probe(Some(3), 1),
            probe(Some(7), 11),
            probe(Some(4), 1),
        ]);
        let cycles = find_cycles(&r);
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].cause, CycleCause::Unexplained);
    }

    #[test]
    fn incoherent_ip_ids_block_forwarding_loop_diagnosis() {
        // Periodic but the "same" router's counter jumps wildly: two
        // different boxes behind one address (fake addresses, §4.2.2).
        let r = route_of(vec![
            probe(Some(7), 10),
            probe(Some(8), 20),
            probe(Some(7), 9), // counter went backwards
            probe(Some(8), 22),
        ]);
        let cycles = find_cycles(&r);
        assert_eq!(cycles[0].cause, CycleCause::Unexplained);
    }

    #[test]
    fn unreachability_cycle() {
        let mut second = probe(Some(2), 5);
        second.kind = Some(ResponseKind::Unreachable(UnreachableCode::Network));
        let r = route_of(vec![probe(Some(2), 4), probe(Some(3), 1), second]);
        let cycles = find_cycles(&r);
        assert_eq!(cycles[0].cause, CycleCause::Unreachability);
    }

    #[test]
    fn multiple_distinct_cycles() {
        let r = route_of(vec![
            probe(Some(2), 1),
            probe(Some(3), 1),
            probe(Some(2), 2),
            probe(Some(4), 1),
            probe(Some(3), 2),
        ]);
        let cycles = find_cycles(&r);
        let cycled: Vec<_> = cycles.iter().map(|c| c.addr).collect();
        assert_eq!(cycled, vec![addr(2), addr(3)]);
    }
}
