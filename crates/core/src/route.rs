//! Measured routes: what a traceroute run produces and what the anomaly
//! analysis consumes.
//!
//! §4 defines a measured route as the tuple `R = (r0, ..., rℓ)` where
//! `r0` is the source address and `ri` is the address answering at TTL
//! `i`, or a star. The study sends one probe per hop (§3), so a [`Hop`]
//! is one TTL and its one [`ProbeResult`]: `hops[i].probe.addr` is `ri`,
//! so the route is its own address view, and [`MeasuredRoute::addresses`]
//! collects it. The probe records keep the Paris side information (probe
//! TTL, response TTL, IP ID, unreachable flags) the classifiers need.

use std::net::Ipv4Addr;

use pt_netsim::time::SimDuration;
use pt_wire::UnreachableCode;

use crate::probe::StrategyId;

/// What kind of response a probe drew.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseKind {
    /// ICMP Time Exceeded — the normal mid-path answer.
    TimeExceeded,
    /// ICMP Destination Unreachable. `Port` is the normal UDP trace end;
    /// `Host`/`Network` print as `!H`/`!N` and signal trouble.
    Unreachable(UnreachableCode),
    /// ICMP Echo Reply — ICMP trace reached the destination.
    EchoReply,
    /// TCP SYN-ACK or RST — TCP trace reached the destination.
    TcpReply,
}

impl ResponseKind {
    /// Whether this response terminates a trace (paper §3: any
    /// Destination Unreachable halts immediately; terminal replies too).
    pub fn terminates(&self) -> bool {
        !matches!(self, ResponseKind::TimeExceeded)
    }

    /// Whether traceroute would print an unreachable flag (`!H`/`!N`)
    /// for it — the §4.1 "Unreachability message" loop marker.
    pub fn unreachable_flag(&self) -> Option<UnreachableCode> {
        match self {
            ResponseKind::Unreachable(c @ (UnreachableCode::Host | UnreachableCode::Network)) => {
                Some(*c)
            }
            _ => None,
        }
    }
}

/// The outcome of one probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeResult {
    /// Responding address, or `None` for a star.
    pub addr: Option<Ipv4Addr>,
    /// Round-trip time, when a response arrived.
    pub rtt: Option<SimDuration>,
    /// Response type.
    pub kind: Option<ResponseKind>,
    /// The quoted probe TTL — §2.2's anomaly signal (1 is normal, 0 means
    /// zero-TTL forwarding upstream). Only ICMP errors carry it.
    pub probe_ttl: Option<u8>,
    /// TTL of the response packet on arrival — length of the return path.
    pub response_ttl: Option<u8>,
    /// IP Identification of the response — the router's internal counter.
    pub ip_id: Option<u16>,
}

impl ProbeResult {
    /// A probe that timed out.
    pub const STAR: ProbeResult = ProbeResult {
        addr: None,
        rtt: None,
        kind: None,
        probe_ttl: None,
        response_ttl: None,
        ip_id: None,
    };

    /// Whether this probe got no answer.
    pub fn is_star(&self) -> bool {
        self.addr.is_none()
    }
}

/// The probe sent at one TTL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// The TTL probed.
    pub ttl: u8,
    /// Its outcome; `probe.addr` is the hop's `ri`.
    pub probe: ProbeResult,
}

/// Why a trace stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaltReason {
    /// A terminal response arrived (destination reached, or any
    /// Destination Unreachable).
    Terminal,
    /// Too many consecutive fully-star hops (8 in the study).
    StarLimit,
    /// The 39-hop ceiling ([`crate::tracer::MAX_TTL`]).
    MaxTtl,
    /// The watchdog budget ([`crate::tracer::TraceConfig::probe_budget`])
    /// tripped before the trace halted on its own. The route is a valid
    /// prefix of what an unbudgeted trace would have measured, but it
    /// is *degraded*: consumers must not read its tail as the end of
    /// the path.
    Budget,
}

/// One traceroute's output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeasuredRoute {
    /// The tool that produced the route.
    pub strategy: StrategyId,
    /// Source address (`r0`).
    pub source: Ipv4Addr,
    /// Destination probed.
    pub destination: Ipv4Addr,
    /// First TTL probed (the study sets 2 to skip university routers).
    pub min_ttl: u8,
    /// Per-TTL results, `hops[0]` at `min_ttl`.
    pub hops: Vec<Hop>,
    /// Why the trace ended.
    pub halt: HaltReason,
}

impl MeasuredRoute {
    /// §4's measured-route view: `ri` per probed TTL (the probe's
    /// address or star), excluding `r0`.
    pub fn addresses(&self) -> Vec<Option<Ipv4Addr>> {
        self.hops.iter().map(|h| h.probe.addr).collect()
    }

    /// Whether a watchdog budget cut this trace short
    /// ([`HaltReason::Budget`]).
    pub fn degraded(&self) -> bool {
        self.halt == HaltReason::Budget
    }

    /// Whether the destination itself answered.
    pub fn reached_destination(&self) -> bool {
        self.hops.iter().map(|h| &h.probe).any(|p| {
            p.addr == Some(self.destination)
                && matches!(
                    p.kind,
                    Some(
                        ResponseKind::EchoReply
                            | ResponseKind::TcpReply
                            | ResponseKind::Unreachable(UnreachableCode::Port)
                    )
                )
        })
    }

    /// Total probes sent: one per hop.
    pub fn probes_sent(&self) -> usize {
        self.hops.len()
    }

    /// Total stars observed.
    pub fn stars(&self) -> usize {
        self.hops.iter().filter(|h| h.probe.is_star()).count()
    }

    /// Stars that appear *before* the last responding hop — the §3
    /// "stars in the midst of responses" statistic.
    pub fn mid_route_stars(&self) -> usize {
        let last_responding = self.hops.iter().rposition(|h| !h.probe.is_star()).unwrap_or(0);
        self.hops[..last_responding].iter().filter(|h| h.probe.is_star()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(x: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, x)
    }

    fn reply(a: u8) -> ProbeResult {
        ProbeResult {
            addr: Some(addr(a)),
            rtt: Some(SimDuration::from_millis(5)),
            kind: Some(ResponseKind::TimeExceeded),
            probe_ttl: Some(1),
            response_ttl: Some(250),
            ip_id: Some(7),
        }
    }

    fn route(hops: Vec<Hop>) -> MeasuredRoute {
        MeasuredRoute {
            strategy: StrategyId::ParisUdp,
            source: addr(1),
            destination: addr(99),
            min_ttl: 1,
            hops,
            halt: HaltReason::MaxTtl,
        }
    }

    #[test]
    fn addresses_view_uses_first_responding_probe() {
        let hops = vec![
            Hop { ttl: 1, probe: reply(2) },
            Hop { ttl: 2, probe: reply(3) },
            Hop { ttl: 3, probe: ProbeResult::STAR },
        ];
        let r = route(hops);
        assert_eq!(r.addresses(), vec![Some(addr(2)), Some(addr(3)), None]);
    }

    #[test]
    fn star_accounting_distinguishes_mid_route_from_trailing() {
        let hops = vec![
            Hop { ttl: 1, probe: reply(2) },
            Hop { ttl: 2, probe: ProbeResult::STAR },
            Hop { ttl: 3, probe: reply(4) },
            Hop { ttl: 4, probe: ProbeResult::STAR },
            Hop { ttl: 5, probe: ProbeResult::STAR },
        ];
        let r = route(hops);
        assert_eq!(r.stars(), 3);
        assert_eq!(r.mid_route_stars(), 1, "only the hop-2 star is mid-route");
    }

    #[test]
    fn reached_destination_requires_terminal_kind() {
        let mut term = reply(99);
        term.kind = Some(ResponseKind::Unreachable(UnreachableCode::Port));
        let r = route(vec![Hop { ttl: 1, probe: term }]);
        assert!(r.reached_destination());
        // A Time Exceeded from the destination address does not count.
        let r2 = route(vec![Hop { ttl: 1, probe: reply(99) }]);
        assert!(!r2.reached_destination());
    }

    #[test]
    fn response_kind_semantics() {
        assert!(!ResponseKind::TimeExceeded.terminates());
        assert!(ResponseKind::EchoReply.terminates());
        assert!(ResponseKind::Unreachable(UnreachableCode::Port).terminates());
        assert_eq!(
            ResponseKind::Unreachable(UnreachableCode::Host).unreachable_flag(),
            Some(UnreachableCode::Host)
        );
        assert_eq!(ResponseKind::Unreachable(UnreachableCode::Port).unreachable_flag(), None);
        assert_eq!(ResponseKind::TimeExceeded.unreachable_flag(), None);
    }
}
