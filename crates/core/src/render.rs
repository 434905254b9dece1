//! Classic traceroute-style text rendering of measured routes, flags
//! (`!H`, `!N`) and the Paris side information included — what a user
//! of the tool actually sees.

use core::fmt::Write;

use pt_wire::UnreachableCode;

use crate::route::{MeasuredRoute, ProbeResult, ResponseKind};

fn flag_of(p: &ProbeResult) -> &'static str {
    match p.kind {
        Some(ResponseKind::Unreachable(UnreachableCode::Host)) => " !H",
        Some(ResponseKind::Unreachable(UnreachableCode::Network)) => " !N",
        _ => "",
    }
}

/// Render a whole measured route in traceroute's output format, one line
/// per hop: `address  time ms`, the unreachable flag, and the probe TTL,
/// response TTL and IP ID Paris traceroute adds (§2.2).
pub fn render(route: &MeasuredRoute) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} to {}, {} hops max",
        route.strategy.name(),
        route.destination,
        route.hops.last().map_or(0, |h| h.ttl)
    );
    for hop in &route.hops {
        let p = &hop.probe;
        let _ = write!(out, "{:>3} ", hop.ttl);
        match p.addr {
            None => out.push_str("  *"),
            Some(a) => {
                let _ = write!(out, "  {a}");
                if let Some(rtt) = p.rtt {
                    let _ = write!(out, "  {:.3} ms", rtt.as_millis_f64());
                }
                out.push_str(flag_of(p));
                let _ = write!(
                    out,
                    "  [pttl {} rttl {} ipid {}]",
                    p.probe_ttl.map_or("-".into(), |v| v.to_string()),
                    p.response_ttl.map_or("-".into(), |v| v.to_string()),
                    p.ip_id.map_or("-".into(), |v| v.to_string()),
                );
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::StrategyId;
    use crate::route::{HaltReason, Hop};
    use pt_netsim::time::SimDuration;
    use std::net::Ipv4Addr;

    fn addr(x: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, x)
    }

    fn probe(a: Option<u8>, kind: ResponseKind) -> ProbeResult {
        match a {
            None => ProbeResult::STAR,
            Some(x) => ProbeResult {
                addr: Some(addr(x)),
                rtt: Some(SimDuration::from_micros(12_345)),
                kind: Some(kind),
                probe_ttl: Some(1),
                response_ttl: Some(250),
                ip_id: Some(77),
            },
        }
    }

    fn route(hops: Vec<Hop>) -> MeasuredRoute {
        MeasuredRoute {
            strategy: StrategyId::ParisUdp,
            source: addr(1),
            destination: addr(200),
            min_ttl: 1,
            hops,
            halt: HaltReason::Terminal,
        }
    }

    #[test]
    fn renders_hops_stars_and_rtt() {
        let r = route(vec![
            Hop { ttl: 1, probe: probe(Some(2), ResponseKind::TimeExceeded) },
            Hop { ttl: 2, probe: ProbeResult::STAR },
        ]);
        let text = render(&r);
        assert!(text.contains("paris-udp to 10.0.0.200"));
        assert!(text.contains("  1   10.0.0.2  12.345 ms"));
        assert!(text.contains("  2   *"));
    }

    #[test]
    fn renders_unreachable_flags() {
        let r = route(vec![Hop {
            ttl: 1,
            probe: probe(Some(3), ResponseKind::Unreachable(pt_wire::UnreachableCode::Host)),
        }]);
        let text = render(&r);
        assert!(text.contains("!H"), "{text}");
        let r = route(vec![Hop {
            ttl: 1,
            probe: probe(Some(3), ResponseKind::Unreachable(pt_wire::UnreachableCode::Network)),
        }]);
        assert!(render(&r).contains("!N"));
    }

    #[test]
    fn side_info_mode_prints_paris_extras() {
        let r = route(vec![Hop { ttl: 1, probe: probe(Some(2), ResponseKind::TimeExceeded) }]);
        let text = render(&r);
        assert!(text.contains("  1   10.0.0.2  12.345 ms  [pttl 1 rttl 250 ipid 77]"), "{text}");
    }

    #[test]
    fn renders_real_simulated_routes() {
        use crate::paris::ParisUdp;
        use crate::tracer::{trace, TraceConfig};
        let sc = pt_netsim::scenarios::linear(4);
        let mut tx = pt_netsim::SimTransport::new(
            pt_netsim::Simulator::new(sc.topology.clone(), 1),
            sc.source,
        );
        let mut s = ParisUdp::new(40_000, 50_000);
        let r = trace(&mut tx, &mut s, sc.destination, TraceConfig::default());
        let text = render(&r);
        assert_eq!(text.lines().count(), 1 + r.hops.len());
        assert!(text.contains(&sc.destination.to_string()));
    }
}
