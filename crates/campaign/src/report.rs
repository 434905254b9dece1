//! Paper-vs-measured reporting: the §3/§4 reference values and a renderer
//! that prints them side by side with a campaign's results.

use pt_anomaly::stats::{FinalCycleCause as C, FinalLoopCause as L};

use crate::runner::{CampaignResult, MultipathResult};

/// One quantitative claim of the paper's study, as published, beside
/// the reader that measures it on a campaign.
#[derive(Debug, Clone, Copy)]
pub struct Published {
    /// The report's row label; each family's first row names its section.
    pub label: &'static str,
    /// The published value: a percentage, except where the label says.
    pub paper: f64,
    /// The same quantity, read off a campaign's result.
    pub measured: fn(&CampaignResult) -> f64,
}

const fn published(
    label: &'static str,
    paper: f64,
    measured: fn(&CampaignResult) -> f64,
) -> Published {
    Published { label, paper, measured }
}

/// Every quantitative claim of §4, in report order.
pub const PUBLISHED: [Published; 20] = [
    published("routes with a loop (§4.1.2)", 5.3, |r| r.classic_report.pct_routes_with_loop),
    published("destinations with a loop", 18.0, |r| r.classic_report.pct_dests_with_loop),
    published("addresses in a loop", 6.3, |r| r.classic_report.pct_addrs_in_loop),
    published("loop signatures seen in one round only", 18.0, |r| {
        r.classic_report.pct_loop_sigs_single_round
    }),
    published("loops: per-flow load balancing", 87.0, |r| {
        r.comparison.loop_pct(L::PerFlowLoadBalancing)
    }),
    published("loops: zero-TTL forwarding", 6.9, |r| r.comparison.loop_pct(L::ZeroTtlForwarding)),
    published("loops: unreachability", 1.2, |r| r.comparison.loop_pct(L::Unreachability)),
    published("loops: address rewriting", 2.8, |r| r.comparison.loop_pct(L::AddressRewriting)),
    published("loops: per-packet (suspected)", 2.5, |r| {
        r.comparison.loop_pct(L::PerPacketSuspected)
    }),
    published("loops seen only by Paris", 0.25, |r| r.comparison.loops_only_in_paris_pct),
    published("routes with a cycle (§4.2.2)", 0.84, |r| r.classic_report.pct_routes_with_cycle),
    published("destinations with a cycle", 11.0, |r| r.classic_report.pct_dests_with_cycle),
    published("addresses in a cycle", 3.6, |r| r.classic_report.pct_addrs_in_cycle),
    published("cycle signatures seen in one round only", 30.0, |r| {
        r.classic_report.pct_cycle_sigs_single_round
    }),
    published("mean rounds per cycle signature (rounds)", 6.8, |r| {
        r.classic_report.cycle_sig_mean_rounds
    }),
    published("cycles: per-flow load balancing", 78.0, |r| {
        r.comparison.cycle_pct(C::PerFlowLoadBalancing)
    }),
    published("cycles: forwarding loops", 20.0, |r| r.comparison.cycle_pct(C::ForwardingLoop)),
    published("cycles: unreachability", 1.2, |r| r.comparison.cycle_pct(C::Unreachability)),
    published("destinations with a diamond (§4.3.2)", 79.0, |r| {
        r.classic_report.pct_dests_with_diamond
    }),
    published("diamonds: per-flow load balancing", 64.0, |r| r.comparison.diamond_per_flow_pct),
];

fn row(out: &mut String, label: &str, paper: f64, measured: f64) {
    use std::fmt::Write;
    let _ = writeln!(out, "| {label:<46} | {paper:>8.2} | {measured:>8.2} |");
}

/// Render a paper-vs-measured table for a campaign run.
pub fn render_report(result: &CampaignResult) -> String {
    let c = &result.classic_report;
    let mut out = String::new();
    out.push_str("## Classic traceroute anomalies: paper vs measured (%)\n\n");
    out.push_str("| metric                                         |    paper | measured |\n");
    out.push_str("|------------------------------------------------|----------|----------|\n");
    for p in &PUBLISHED {
        row(&mut out, p.label, p.paper, (p.measured)(result));
    }
    out.push_str("\n## Scale (§3)\n\n");
    use std::fmt::Write;
    let _ = writeln!(
        out,
        "- rounds: {} (paper: 556)\n- destinations: {} (paper: 5,000)\n\
         - routes measured (classic): {}\n- responses (classic): {} (paper: ~90 M total)\n\
         - mid-route stars (classic): {} (paper: 2.6 M)\n\
         - Paris: of {} routes, {:.2}% with a loop (classic: {:.2}%)\n\
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
        // One row per published value, each label printed once.
        for p in &PUBLISHED {
            assert_eq!(text.matches(p.label).count(), 1, "{:?} in report:\n{text}", p.label);
        }
        let rows = text.lines().filter(|l| l.starts_with("| ") && !l.starts_with("| metric"));
        assert_eq!(rows.count(), PUBLISHED.len(), "table rows in report:\n{text}");
        // The Paris count is every route measured, not the looping ones.
        let (p, c) = (&result.paris_report, &result.classic_report);
        let paris = format!(
            "- Paris: of {} routes, {:.2}% with a loop (classic: {:.2}%)",
            p.routes_total, p.pct_routes_with_loop, c.pct_routes_with_loop
        );
        assert!(text.lines().any(|l| l == paris), "missing {paris:?} in report:\n{text}");
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
        let share = |family: &str| -> f64 {
            PUBLISHED.iter().filter(|p| p.label.starts_with(family)).map(|p| p.paper).sum()
        };
        let sum = share("loops: ");
        assert!((sum - 100.0).abs() < 1.0, "published shares sum to {sum}");
        let cycles = share("cycles: ") + 1.1;
        assert!((cycles - 100.0).abs() < 1.0, "published cycle shares sum to {cycles}");
    }
}
