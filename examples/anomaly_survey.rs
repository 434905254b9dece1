//! The full §3/§4 study: generate a synthetic Internet, run a
//! side-by-side classic-vs-Paris campaign, and print the paper-vs-
//! measured report plus the ground-truth validation the paper could not
//! perform — then the §6 future work: a multipath-discovery campaign
//! over the same destinations, with its own ground-truth scoring.
//!
//! ```sh
//! cargo run --release --example anomaly_survey            # default scale
//! cargo run --release --example anomaly_survey -- 2000 40 # dests rounds
//! ```

use pt_campaign::{
    render_multipath_report, render_report, run, run_multipath, validate_causes,
    validate_multipath, CampaignConfig, MultipathConfig,
};
use pt_topogen::{generate, InternetConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let n_destinations: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(600);
    let rounds: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(30);

    println!("generating synthetic internet: {n_destinations} destinations...");
    let net = generate(&InternetConfig { n_destinations, ..InternetConfig::default() });
    println!(
        "  {} nodes, {} links; anomaly sources: {} per-flow LB, {} per-packet LB, {} zero-TTL, {} NAT, {} broken, {} firewalled",
        net.topology.nodes.len(),
        net.topology.links.len(),
        net.dests.iter().filter(|d| d.truth.per_flow_lb).count(),
        net.dests.iter().filter(|d| d.truth.per_packet_lb).count(),
        net.dests.iter().filter(|d| d.truth.zero_ttl).count(),
        net.dests.iter().filter(|d| d.truth.nat).count(),
        net.dests.iter().filter(|d| d.truth.broken).count(),
        net.dests.iter().filter(|d| d.truth.firewalled).count(),
    );

    // One worker per hardware thread: results do not depend on the count.
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "running {rounds} rounds × {n_destinations} destinations × 2 tools ({workers} workers)..."
    );
    #[allow(clippy::disallowed_methods, reason = "progress display only; never feeds a digest")]
    let started = std::time::Instant::now();
    let config = CampaignConfig { rounds, workers, ..Default::default() };
    let result = run(&net, &config);
    println!("  done in {:.1}s wall clock\n", started.elapsed().as_secs_f64());

    println!("{}", render_report(&result));

    // §3's AS-level coverage, against the generator's ground-truth map.
    let cov = pt_topogen::coverage(&net.as_map, &result.classic.addresses_seen());
    println!(
        "\n## AS coverage (§3)\n\n- ASes traversed: {} of {} (paper: 1,122, ~5% of the Internet)\n- tier-1 ASes traversed: {} of {} (paper: all nine)\n- unmapped response addresses: {} (paper: 19 thousand invalid)",
        cov.ases_observed, cov.ases_total, cov.tier1s_observed, cov.tier1s_total, cov.unmapped_addresses
    );

    // The §6 future work at the same scale: multipath discovery toward
    // every destination, printed next to the anomaly stats above.
    println!("\nrunning multipath discovery over the same {n_destinations} destinations...");
    #[allow(clippy::disallowed_methods, reason = "progress display only; never feeds a digest")]
    let started = std::time::Instant::now();
    let mp = run_multipath(&net, &MultipathConfig { workers, ..Default::default() });
    println!("  done in {:.1}s wall clock\n", started.elapsed().as_secs_f64());
    println!("{}", render_multipath_report(&mp));
    let score = validate_multipath(&net, &mp);
    println!(
        "- ground truth: {}/{} planted balancers fully recovered \
         (width+delta+class = {:.1}%), {} false balancer(s)",
        score.full_matches,
        score.balancer_dests,
        score.accuracy() * 100.0,
        score.false_balancers
    );

    let v = validate_causes(&net, &result.classic, &result.paris);
    println!("\n## Classifier validation against generator ground truth\n");
    println!("| cause               | truth | flagged | hits | precision | recall |");
    println!("|---------------------|-------|---------|------|-----------|--------|");
    for (name, s) in [
        ("zero-TTL forwarding", v.zero_ttl),
        ("address rewriting", v.rewriting),
        ("unreachability", v.unreachability),
        ("per-flow LB (loops)", v.per_flow),
    ] {
        println!(
            "| {name:<19} | {:>5} | {:>7} | {:>4} | {:>9.2} | {:>6.2} |",
            s.truth_positives,
            s.flagged,
            s.hits,
            s.precision(),
            s.recall()
        );
    }
}
