//! Adaptive single-path tracing for hostile networks.
//!
//! [`trace_adaptive`] wraps the windowed [`trace_with`] driver in the
//! recovery discipline PR 6 adds to the multipath walker, applied to a
//! plain traceroute:
//!
//! 1. **Initial pass** — ordinary Paris UDP, exactly [`trace_with`].
//! 2. **Starred-hop retries** — hops that recorded stars get a bounded
//!    number of re-probes, each pass separated by an exponentially
//!    growing backoff with seed-derived jitter. Against token-bucket
//!    ICMP rate limiters (which answer the first probe of every quiet
//!    period) the waiting itself is the repair: a retry that arrives
//!    after the bucket refills gets the answer the original burst did
//!    not.
//! 3. **Protocol fallback** — if the route still ends in a trailing
//!    star run (a UDP-dropping firewall looks exactly like this), the
//!    tail is re-traced with Paris TCP from the first trailing-star
//!    TTL (`TraceConfig::min_ttl` makes mid-trace resume free), and if
//!    TCP also learns nothing, with Paris ICMP. A tail that made
//!    progress is spliced onto the UDP prefix.
//!
//! The spliced route keeps the initial pass's `strategy` id
//! ([`StrategyId::ParisUdp`]): per-hop provenance for a mixed-protocol
//! route is out of scope here, and every consumer keys on the hop
//! records, not the id. All bookkeeping lives in the caller's
//! [`TraceScratch`]; retry probes draw payload buffers from the
//! transport's pool, so a warm loop stays allocation-free like the
//! underlying driver.

use std::net::Ipv4Addr;

use pt_netsim::splitmix64;
use pt_netsim::time::{SimDuration, SimTime};

use crate::paris::{ParisIcmp, ParisTcp, ParisUdp};
use crate::probe::ProbeStrategy;
use crate::route::{HaltReason, MeasuredRoute, ProbeResult};
use crate::tracer::{classify, trace_with, TraceConfig, TraceScratch, Transport};

/// Policy knobs for [`trace_adaptive`], wrapping a base [`TraceConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveTraceConfig {
    /// The underlying windowed-trace parameters.
    pub base: TraceConfig,
    /// Starred-hop retry passes after the initial trace (0 disables).
    pub retry_passes: u8,
    /// Backoff before the first retry pass; doubles each pass. Jitter
    /// of up to half the pass's backoff is added on top.
    pub retry_backoff: SimDuration,
    /// Seed for the backoff jitter; derive it from the campaign unit so
    /// replicated workers idle identically.
    pub jitter_seed: u64,
    /// Fall back to TCP (then ICMP) when the route ends in at least
    /// this many all-star hops and never reached the destination.
    pub fallback_after_stars: u8,
}

impl Default for AdaptiveTraceConfig {
    fn default() -> Self {
        AdaptiveTraceConfig {
            base: TraceConfig::default(),
            retry_passes: 2,
            retry_backoff: SimDuration::from_millis(750),
            jitter_seed: 0,
            fallback_after_stars: 3,
        }
    }
}

/// Probe indices for retry passes start here: far above anything the
/// initial pass (≤ 39 hops × probes per hop) can reach, so a late
/// answer to an original probe can never be credited to a retry.
const RETRY_IDX_BASE: u64 = 0x1000;

/// Backoff before retry pass `pass`: `retry_backoff · 2^pass` plus
/// deterministic jitter in `[0, base/2]`.
fn pass_backoff(config: &AdaptiveTraceConfig, pass: u8) -> SimDuration {
    let base = config.retry_backoff.nanos() << u32::from(pass).min(6);
    let span = base / 2 + 1;
    SimDuration::from_nanos(base + splitmix64(config.jitter_seed ^ u64::from(pass)) % span)
}

/// Let virtual time advance to `until`, releasing any strays that land.
fn idle<T: Transport>(transport: &mut T, until: SimTime) {
    while let Some((_, stray)) = transport.recv_until(until) {
        transport.release(stray);
    }
}

/// Count trailing hops that are entirely stars.
fn trailing_stars(route: &MeasuredRoute) -> usize {
    route.hops.iter().rev().take_while(|h| h.all_stars()).count()
}

/// Send one retry probe at `ttl` and wait out its timeout. On an answer
/// attributed to this probe (by id — strays and late answers to other
/// probes are released), fill `slot` of `route.hops[hop]` and report
/// whether the response was terminal.
#[allow(clippy::too_many_arguments)]
fn retry_slot<T: Transport>(
    transport: &mut T,
    strategy: &mut dyn ProbeStrategy,
    route: &mut MeasuredRoute,
    hop: usize,
    slot: usize,
    idx: u64,
    timeout: SimDuration,
) -> bool {
    let source = transport.source_addr();
    let ttl = route.hops[hop].ttl;
    let payload = transport.grab_payload();
    let packet = strategy.build_probe_with(source, route.destination, ttl, idx, payload);
    let sent = transport.now();
    transport.send(packet);
    let deadline = sent + timeout;
    while let Some((at, resp)) = transport.recv_until(deadline) {
        if strategy.match_response(route.destination, &resp) != Some(idx) {
            transport.release(resp);
            continue;
        }
        let (kind, probe_ttl) = classify(&resp);
        route.hops[hop].probes[slot] = ProbeResult {
            addr: Some(resp.ip.src),
            rtt: Some(at.since(sent)),
            kind: Some(kind),
            probe_ttl,
            response_ttl: Some(resp.ip.ttl),
            ip_id: Some(resp.ip.identification),
        };
        transport.release(resp);
        return kind.terminates();
    }
    false
}

/// Re-probe every starred slot, pass by pass, each pass preceded by its
/// backoff. A terminal answer truncates the route there and stops.
fn run_retry_passes<T: Transport>(
    transport: &mut T,
    strategy: &mut dyn ProbeStrategy,
    route: &mut MeasuredRoute,
    config: &AdaptiveTraceConfig,
    scratch: &mut TraceScratch,
) {
    let mut idx = RETRY_IDX_BASE;
    for pass in 0..config.retry_passes {
        if route.stars() == 0 {
            return;
        }
        idle(transport, transport.now() + pass_backoff(config, pass));
        for hop in 0..route.hops.len() {
            for slot in 0..route.hops[hop].probes.len() {
                if !route.hops[hop].probes[slot].is_star() {
                    continue;
                }
                let i = idx;
                idx += 1;
                if retry_slot(transport, strategy, route, hop, slot, i, config.base.timeout) {
                    scratch.truncate_route(route, hop + 1);
                    route.halt = HaltReason::Terminal;
                    return;
                }
            }
        }
    }
}

/// Re-trace the trailing-star tail with `strategy`, resuming at the
/// first starred TTL. Splices the tail onto the prefix when it learned
/// anything (any non-star probe); otherwise leaves `route` untouched.
/// Reports whether the splice happened.
fn fallback_tail<T: Transport>(
    transport: &mut T,
    strategy: &mut dyn ProbeStrategy,
    route: &mut MeasuredRoute,
    config: &AdaptiveTraceConfig,
    scratch: &mut TraceScratch,
) -> bool {
    let trailing = trailing_stars(route);
    let prefix = route.hops.len() - trailing;
    let resume_ttl = route.hops[prefix].ttl;
    let tail_config = TraceConfig { min_ttl: resume_ttl, ..config.base };
    let tail = trace_with(transport, strategy, route.destination, tail_config, scratch);
    if tail.hops.iter().all(|h| h.all_stars()) {
        scratch.recycle(tail);
        return false;
    }
    scratch.truncate_route(route, prefix);
    let halt = tail.halt;
    let mut tail_hops = tail.hops;
    route.hops.append(&mut tail_hops);
    scratch.stash_hops(tail_hops);
    route.halt = halt;
    true
}

/// Run one adaptive traceroute toward `destination`: a Paris UDP trace
/// hardened by starred-hop retries (exponential backoff, seeded
/// jitter) and a TCP-then-ICMP fallback for trailing-star tails. See
/// the module docs for the exact discipline.
///
/// `src_port`/`dst_port` fix the UDP five-tuple (the TCP fallback
/// reuses `src_port` toward port 80; the ICMP fallback derives its tag
/// family from `jitter_seed`).
pub fn trace_adaptive<T: Transport>(
    transport: &mut T,
    destination: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    config: &AdaptiveTraceConfig,
    scratch: &mut TraceScratch,
) -> MeasuredRoute {
    let mut udp = ParisUdp::new(src_port, dst_port);
    let mut route = trace_with(transport, &mut udp, destination, config.base, scratch);

    if config.retry_passes > 0 && route.stars() > 0 {
        run_retry_passes(transport, &mut udp, &mut route, config, scratch);
    }

    if !route.reached_destination()
        && config.fallback_after_stars > 0
        && trailing_stars(&route) >= usize::from(config.fallback_after_stars)
    {
        let mut tcp = ParisTcp::new(src_port);
        if !fallback_tail(transport, &mut tcp, &mut route, config, scratch) {
            let tag = (splitmix64(config.jitter_seed ^ 0x1c3) & 0xffff) as u16;
            let mut icmp = ParisIcmp::new(tag);
            fallback_tail(transport, &mut icmp, &mut route, config, scratch);
        }
    }

    route
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::ResponseKind;
    use crate::tracer::trace;
    use pt_netsim::time::SimDuration;
    use pt_netsim::{
        scenarios, HostConfig, RouterConfig, SimTransport, Simulator, TopologyBuilder,
    };

    fn transport(sc: &scenarios::Scenario, seed: u64) -> SimTransport {
        SimTransport::new(Simulator::new(sc.topology.clone(), seed), sc.source)
    }

    #[test]
    fn matches_plain_trace_on_a_healthy_chain() {
        // No faults → the adaptive machinery never engages and the
        // route is byte-identical to the plain Paris UDP trace.
        let sc = scenarios::linear(6);
        let mut tx = transport(&sc, 1);
        let mut strat = ParisUdp::new(41000, 52000);
        let plain = trace(&mut tx, &mut strat, sc.destination, TraceConfig::default());

        let mut tx = transport(&sc, 1);
        let mut scratch = TraceScratch::new();
        let config = AdaptiveTraceConfig::default();
        let adaptive = trace_adaptive(&mut tx, sc.destination, 41000, 52000, &config, &mut scratch);
        assert_eq!(adaptive, plain);
    }

    /// Source → r1 → filter → r3 → destination, with `filter` dropping
    /// UDP toward the destination's side.
    fn udp_filtered() -> (SimTransport, Ipv4Addr) {
        let mut b = TopologyBuilder::new();
        let s = b.host("S", HostConfig::default());
        let r1 = b.router("r1", RouterConfig::default());
        let f = b.router("f", RouterConfig::udp_filter());
        let r3 = b.router("r3", RouterConfig::default());
        let d = b.host("D", HostConfig::default());
        let ms = SimDuration::from_millis(1);
        b.link(s, r1, ms, 0.0);
        b.link(r1, f, ms, 0.0);
        b.link(f, r3, ms, 0.0);
        b.link(r3, d, ms, 0.0);
        b.default_via(s, r1);
        b.default_via(r1, f);
        b.default_via(f, r3);
        b.default_via(r3, d);
        b.default_via(d, r3);
        let s_pfx = b.subnet_of(s);
        b.route_via(r1, s_pfx, s);
        b.route_via(f, s_pfx, r1);
        b.route_via(r3, s_pfx, f);
        let dst = b.addr_of(d);
        let topo = std::sync::Arc::new(b.build());
        (SimTransport::new(Simulator::new(topo, 7), s), dst)
    }

    #[test]
    fn tcp_fallback_crosses_a_udp_filter() {
        // The plain UDP trace dies at the filter (trailing stars, star
        // limit); the adaptive trace switches to TCP and reaches the
        // destination.
        let (mut tx, dst) = udp_filtered();
        let mut strat = ParisUdp::new(41000, 52000);
        let plain = trace(&mut tx, &mut strat, dst, TraceConfig::default());
        assert_eq!(plain.halt, HaltReason::StarLimit);
        assert!(!plain.reached_destination());

        let (mut tx, dst) = udp_filtered();
        let mut scratch = TraceScratch::new();
        let config = AdaptiveTraceConfig::default();
        let route = trace_adaptive(&mut tx, dst, 41000, 52000, &config, &mut scratch);
        assert_eq!(route.halt, HaltReason::Terminal, "{route:?}");
        assert!(route.reached_destination());
        // The UDP prefix survived (hop 1 = r1, hop 2 = the filter,
        // which still answers Time Exceeded for the UDP probe that
        // expired *at* it) and the TCP tail filled in the rest.
        assert_eq!(route.hops.len(), 4, "{route:?}");
        assert!(route.hops.iter().all(|h| !h.all_stars()), "{route:?}");
        assert_eq!(
            route.hops.last().unwrap().probes[0].kind,
            Some(ResponseKind::TcpReply),
            "the terminal answer came over TCP"
        );
    }

    #[test]
    fn retries_fill_rate_limited_stars() {
        // Three probes per hop against a one-token bucket: the initial
        // pass gets one answer and two stars at the limited router. The
        // retry passes wait out the refill interval and fill both.
        let mut b = TopologyBuilder::new();
        let s = b.host("S", HostConfig::default());
        let rl = b.router("rl", RouterConfig::rate_limited(SimDuration::from_millis(400), 1));
        let d = b.host("D", HostConfig::default());
        let ms = SimDuration::from_millis(1);
        b.link(s, rl, ms, 0.0);
        b.link(rl, d, ms, 0.0);
        b.default_via(s, rl);
        b.default_via(rl, d);
        b.default_via(d, rl);
        let s_pfx = b.subnet_of(s);
        b.route_via(rl, s_pfx, s);
        let dst = b.addr_of(d);
        let topo = std::sync::Arc::new(b.build());

        let base = TraceConfig { probes_per_hop: 3, ..TraceConfig::default() };
        let mut tx = SimTransport::new(Simulator::new(topo.clone(), 3), s);
        let mut strat = ParisUdp::new(41000, 52000);
        let plain = trace(&mut tx, &mut strat, dst, base);
        assert!(plain.hops[0].probes.iter().any(ProbeResult::is_star), "{plain:?}");

        let mut tx = SimTransport::new(Simulator::new(topo, 3), s);
        let mut scratch = TraceScratch::new();
        let config = AdaptiveTraceConfig { base, ..AdaptiveTraceConfig::default() };
        let route = trace_adaptive(&mut tx, dst, 41000, 52000, &config, &mut scratch);
        assert!(
            route.hops[0].probes.iter().all(|p| !p.is_star()),
            "retries must fill the rate-limited stars: {route:?}"
        );
        assert!(route.reached_destination());
    }

    #[test]
    fn backoff_grows_and_jitter_is_deterministic() {
        let config = AdaptiveTraceConfig { jitter_seed: 99, ..AdaptiveTraceConfig::default() };
        let b0 = pass_backoff(&config, 0);
        let b1 = pass_backoff(&config, 1);
        assert!(b0 >= config.retry_backoff);
        assert!(b0.nanos() <= config.retry_backoff.nanos() * 3 / 2 + 1);
        assert!(b1 > b0, "backoff must grow between passes");
        assert_eq!(b0, pass_backoff(&config, 0), "jitter is a pure function of (seed, pass)");
        let other = AdaptiveTraceConfig { jitter_seed: 100, ..config };
        assert_ne!(pass_backoff(&other, 0), b0, "different seeds idle differently");
    }
}
