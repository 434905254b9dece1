//! Paper-vs-measured reporting: the §3/§4 reference values and a renderer
//! that prints them side by side with a campaign's results.

use pt_anomaly::stats::{FinalCycleCause, FinalLoopCause};

use crate::runner::{CampaignResult, MultipathResult};

/// Every quantitative claim of the paper's study, as published.
#[derive(Debug, Clone, Copy)]
pub struct PaperBaseline {
    /// §4.1.2: routes containing at least one loop.
    pub pct_routes_with_loop: f64,
    /// §4.1.2: destinations with a loop on some route.
    pub pct_dests_with_loop: f64,
    /// §4.1.2: discovered addresses in a loop at least once.
    pub pct_addrs_in_loop: f64,
    /// §4.1.2: loop signatures seen in exactly one round.
    pub pct_loop_sigs_single_round: f64,
    /// §4.1.2: loops attributed to per-flow load balancing.
    pub loop_per_flow: f64,
    /// §4.1.2: zero-TTL forwarding share.
    pub loop_zero_ttl: f64,
    /// §4.1.2: unreachability share.
    pub loop_unreachability: f64,
    /// §4.1.2: address rewriting share.
    pub loop_rewriting: f64,
    /// §4.1.2: suspected per-packet residue.
    pub loop_per_packet: f64,
    /// §4.1.2: loops seen only by Paris.
    pub loops_only_paris: f64,
    /// §4.2.2: routes containing a cycle.
    pub pct_routes_with_cycle: f64,
    /// §4.2.2: destinations with a cycle.
    pub pct_dests_with_cycle: f64,
    /// §4.2.2: addresses in a cycle.
    pub pct_addrs_in_cycle: f64,
    /// §4.2.2: cycle signatures in exactly one round.
    pub pct_cycle_sigs_single_round: f64,
    /// §4.2.2: mean rounds per cycle signature.
    pub cycle_sig_mean_rounds: f64,
    /// §4.2.2: per-flow share of cycles.
    pub cycle_per_flow: f64,
    /// §4.2.2: forwarding-loop share.
    pub cycle_forwarding_loop: f64,
    /// §4.2.2: unreachability share.
    pub cycle_unreachability: f64,
    /// §4.3.2: destinations showing a diamond.
    pub pct_dests_with_diamond: f64,
    /// §4.3.2: per-flow share of diamonds.
    pub diamond_per_flow: f64,
}

impl PaperBaseline {
    /// The published values.
    pub const PUBLISHED: PaperBaseline = PaperBaseline {
        pct_routes_with_loop: 5.3,
        pct_dests_with_loop: 18.0,
        pct_addrs_in_loop: 6.3,
        pct_loop_sigs_single_round: 18.0,
        loop_per_flow: 87.0,
        loop_zero_ttl: 6.9,
        loop_unreachability: 1.2,
        loop_rewriting: 2.8,
        loop_per_packet: 2.5,
        loops_only_paris: 0.25,
        pct_routes_with_cycle: 0.84,
        pct_dests_with_cycle: 11.0,
        pct_addrs_in_cycle: 3.6,
        pct_cycle_sigs_single_round: 30.0,
        cycle_sig_mean_rounds: 6.8,
        cycle_per_flow: 78.0,
        cycle_forwarding_loop: 20.0,
        cycle_unreachability: 1.2,
        pct_dests_with_diamond: 79.0,
        diamond_per_flow: 64.0,
    };
}

fn row(out: &mut String, label: &str, paper: f64, measured: f64) {
    use std::fmt::Write;
    let _ = writeln!(out, "| {label:<46} | {paper:>8.2} | {measured:>8.2} |");
}

/// Render a paper-vs-measured table for a campaign run.
pub fn render_report(result: &CampaignResult) -> String {
    let p = PaperBaseline::PUBLISHED;
    let c = &result.classic_report;
    let cmp = &result.comparison;
    let mut out = String::new();
    out.push_str("## Classic traceroute anomalies: paper vs measured (%)\n\n");
    out.push_str("| metric                                         |    paper | measured |\n");
    out.push_str("|------------------------------------------------|----------|----------|\n");
    row(&mut out, "routes with a loop (§4.1.2)", p.pct_routes_with_loop, c.pct_routes_with_loop);
    row(&mut out, "destinations with a loop", p.pct_dests_with_loop, c.pct_dests_with_loop);
    row(&mut out, "addresses in a loop", p.pct_addrs_in_loop, c.pct_addrs_in_loop);
    row(
        &mut out,
        "loop signatures seen in one round only",
        p.pct_loop_sigs_single_round,
        c.pct_loop_sigs_single_round,
    );
    row(
        &mut out,
        "loops: per-flow load balancing",
        p.loop_per_flow,
        cmp.loop_pct(FinalLoopCause::PerFlowLoadBalancing),
    );
    row(
        &mut out,
        "loops: zero-TTL forwarding",
        p.loop_zero_ttl,
        cmp.loop_pct(FinalLoopCause::ZeroTtlForwarding),
    );
    row(
        &mut out,
        "loops: unreachability",
        p.loop_unreachability,
        cmp.loop_pct(FinalLoopCause::Unreachability),
    );
    row(
        &mut out,
        "loops: address rewriting",
        p.loop_rewriting,
        cmp.loop_pct(FinalLoopCause::AddressRewriting),
    );
    row(
        &mut out,
        "loops: per-packet (suspected)",
        p.loop_per_packet,
        cmp.loop_pct(FinalLoopCause::PerPacketSuspected),
    );
    row(&mut out, "loops seen only by Paris", p.loops_only_paris, cmp.loops_only_in_paris_pct);
    row(&mut out, "routes with a cycle (§4.2.2)", p.pct_routes_with_cycle, c.pct_routes_with_cycle);
    row(&mut out, "destinations with a cycle", p.pct_dests_with_cycle, c.pct_dests_with_cycle);
    row(&mut out, "addresses in a cycle", p.pct_addrs_in_cycle, c.pct_addrs_in_cycle);
    row(
        &mut out,
        "cycle signatures seen in one round only",
        p.pct_cycle_sigs_single_round,
        c.pct_cycle_sigs_single_round,
    );
    row(
        &mut out,
        "cycles: per-flow load balancing",
        p.cycle_per_flow,
        cmp.cycle_pct(FinalCycleCause::PerFlowLoadBalancing),
    );
    row(
        &mut out,
        "cycles: forwarding loops",
        p.cycle_forwarding_loop,
        cmp.cycle_pct(FinalCycleCause::ForwardingLoop),
    );
    row(
        &mut out,
        "cycles: unreachability",
        p.cycle_unreachability,
        cmp.cycle_pct(FinalCycleCause::Unreachability),
    );
    row(
        &mut out,
        "destinations with a diamond (§4.3.2)",
        p.pct_dests_with_diamond,
        c.pct_dests_with_diamond,
    );
    row(
        &mut out,
        "diamonds: per-flow load balancing",
        p.diamond_per_flow,
        cmp.diamond_per_flow_pct,
    );
    out.push_str("\n## Scale (§3)\n\n");
    use std::fmt::Write;
    let _ = writeln!(
        out,
        "- rounds: {} (paper: 556)\n- destinations: {} (paper: 5,000)\n\
         - routes measured (classic): {}\n- responses (classic): {} (paper: ~90 M total)\n\
         - mid-route stars (classic): {} (paper: 2.6 M)\n\
         - Paris: {} routes with a loop = {:.2}% (classic: {:.2}%)\n\
         - diamonds, classic: {} — Paris: {}\n\
         - mean virtual probing time per destination: {:.1} s\n\
         - budget-degraded routes (classic / Paris): {} / {} — quarantined units: {}",
        c.rounds,
        c.destinations,
        c.routes_total,
        c.responses,
        c.mid_route_stars,
        result.paris_report.routes_total,
        result.paris_report.pct_routes_with_loop,
        c.pct_routes_with_loop,
        c.diamonds_total,
        result.paris_report.diamonds_total,
        result.mean_virtual_secs,
        c.degraded_routes,
        result.paris_report.degraded_routes,
        result.quarantined.len(),
    );
    out
}

/// A canonical, order-independent digest of a campaign's results: both
/// tool reports rendered field by field, plus the comparison with its
/// cause maps sorted by key. Two campaign runs produced identical
/// results iff their digests are byte-identical — the determinism tests
/// and the hot-path refactor checks diff this string.
pub fn report_digest(result: &CampaignResult) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    // ToolReport contains only scalars: its derived Debug is canonical.
    let _ = writeln!(out, "classic: {:?}", result.classic_report);
    let _ = writeln!(out, "paris: {:?}", result.paris_report);
    let cmp = &result.comparison;
    let mut loops: Vec<String> =
        cmp.loop_causes.iter().map(|(k, v)| format!("{k:?}={v:?}")).collect();
    loops.sort();
    let mut cycles: Vec<String> =
        cmp.cycle_causes.iter().map(|(k, v)| format!("{k:?}={v:?}")).collect();
    cycles.sort();
    let _ = writeln!(out, "loop_causes: [{}]", loops.join(", "));
    let _ = writeln!(out, "cycle_causes: [{}]", cycles.join(", "));
    let _ = writeln!(out, "diamond_per_flow_pct: {:?}", cmp.diamond_per_flow_pct);
    let _ = writeln!(out, "loops_only_in_paris_pct: {:?}", cmp.loops_only_in_paris_pct);
    // Quarantined units are part of the result contract: a resumed or
    // re-sharded campaign must reproduce them exactly (same units, same
    // panic payloads), not just the healthy-unit statistics.
    for q in &result.quarantined {
        let _ = writeln!(
            out,
            "quarantined: unit={} dest={} round={} addr={} panic={:?}",
            q.unit, q.dest, q.round, q.addr, q.panic,
        );
    }
    out
}

/// Render the multipath-discovery summary — the §6 numbers the anomaly
/// tables cannot show, printed next to them: how many destinations
/// carry a balancer, its width/delta spectrum, and the per-flow vs
/// per-packet split.
pub fn render_multipath_report(result: &MultipathResult) -> String {
    use std::fmt::Write;
    let r = &result.report;
    let mut out = String::new();
    out.push_str("## Multipath discovery (§6 future work, MDA)\n\n");
    let _ = writeln!(
        out,
        "- destinations: {} × {} round(s); reached: {}\n\
         - balanced destinations discovered: {} ({} per-flow, {} per-packet, {} undetermined)\n\
         - confident width histogram (2 / 3 / ≥4): {} / {} / {}\n\
         - branch-length delta histogram (0 / 1 / ≥2): {} / {} / {}\n\
         - mean probes per destination: {:.1}\n\
         - mean virtual probing secs per destination: {:.2}\n\
         - budget-degraded units: {} — quarantined units: {}",
        r.destinations,
        r.rounds,
        r.reached_dests,
        r.balanced_dests,
        r.per_flow_dests,
        r.per_packet_dests,
        r.undetermined_dests,
        r.width_hist[0],
        r.width_hist[1],
        r.width_hist[2],
        r.delta_hist[0],
        r.delta_hist[1],
        r.delta_hist[2],
        r.mean_probes,
        result.mean_virtual_secs,
        r.degraded_units,
        result.quarantined.len(),
    );
    out
}

/// A canonical digest of a multipath campaign's results: every per-unit
/// discovery in `(round, destination)` order, the merged per-destination
/// view, and the aggregate report. Two runs produced identical results
/// iff their digests are byte-identical — the worker-invariance test
/// for the multipath mode diffs this string.
pub fn multipath_digest(result: &MultipathResult) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for u in &result.units {
        let _ = writeln!(
            out,
            "unit d{} r{} {}: w={}/{} delta={} class={:?} hops={} links={} stars={} unconv={} \
             probes={} reached={} degraded={}",
            u.dest,
            u.round,
            u.addr,
            u.width,
            u.observed_width,
            u.delta,
            u.class,
            u.hops,
            u.links,
            u.stars,
            u.unconverged_hops,
            u.probes,
            u.reached,
            u.degraded,
        );
    }
    for d in &result.per_dest {
        let _ = writeln!(
            out,
            "dest {} {}: w={}/{} delta={} class={:?} probes={} reached={} degraded={}",
            d.dest,
            d.addr,
            d.width,
            d.observed_width,
            d.delta,
            d.class,
            d.probes,
            d.reached,
            d.degraded,
        );
    }
    let _ = writeln!(out, "report: {:?}", result.report);
    let _ = writeln!(out, "mean_virtual_secs: {:?}", result.mean_virtual_secs);
    for q in &result.quarantined {
        let _ = writeln!(
            out,
            "quarantined: unit={} dest={} round={} addr={} panic={:?}",
            q.unit, q.dest, q.round, q.addr, q.panic,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run, run_multipath, CampaignConfig, MultipathConfig};
    use pt_topogen::{generate, InternetConfig};

    #[test]
    fn report_renders_every_paper_metric() {
        let net = generate(&InternetConfig::tiny(5));
        let result = run(&net, &CampaignConfig { rounds: 2, workers: 2, ..Default::default() });
        let text = render_report(&result);
        for needle in [
            "routes with a loop",
            "per-flow load balancing",
            "zero-TTL forwarding",
            "address rewriting",
            "forwarding loops",
            "destinations with a diamond",
            "only by Paris",
            "paper: 556",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in report:\n{text}");
        }
    }

    #[test]
    fn multipath_report_renders_and_digests() {
        let net = generate(&InternetConfig::tiny(5));
        let result = run_multipath(&net, &MultipathConfig { workers: 2, ..Default::default() });
        let text = render_multipath_report(&result);
        for needle in [
            "Multipath discovery",
            "balanced destinations discovered",
            "width histogram",
            "delta histogram",
            "virtual probing secs",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in report:\n{text}");
        }
        let digest = multipath_digest(&result);
        assert_eq!(digest.lines().filter(|l| l.starts_with("unit ")).count(), 40);
        assert_eq!(digest.lines().filter(|l| l.starts_with("dest ")).count(), 40);
    }

    #[test]
    fn baseline_loop_shares_sum_to_about_100() {
        let p = PaperBaseline::PUBLISHED;
        let sum = p.loop_per_flow
            + p.loop_zero_ttl
            + p.loop_unreachability
            + p.loop_rewriting
            + p.loop_per_packet;
        assert!((sum - 100.0).abs() < 1.0, "published shares sum to {sum}");
        let cycles = p.cycle_per_flow + p.cycle_forwarding_loop + p.cycle_unreachability + 1.1;
        assert!((cycles - 100.0).abs() < 1.0, "published cycle shares sum to {cycles}");
    }
}
