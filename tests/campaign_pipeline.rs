//! Integration tests for the full campaign pipeline: topology generation
//! → side-by-side probing on the worker pool → anomaly accumulation →
//! attribution.

use paris_traceroute_repro::campaign::{run, validate_causes, CampaignConfig, DynamicsConfig};
use paris_traceroute_repro::topogen::{generate, InternetConfig};
use pt_anomaly::stats::{FinalCycleCause, FinalLoopCause};

fn small_net(seed: u64) -> pt_topogen::SyntheticInternet {
    generate(&InternetConfig { seed, n_destinations: 150, ..InternetConfig::default() })
}

#[test]
fn paris_dominates_classic_on_every_anomaly_family() {
    let net = small_net(45);
    let result = run(
        &net,
        &CampaignConfig { rounds: 10, workers: 8, seed: 10, ..CampaignConfig::default() },
    );
    let c = &result.classic_report;
    let p = &result.paris_report;
    assert!(c.pct_routes_with_loop >= p.pct_routes_with_loop);
    assert!(c.diamonds_total >= p.diamonds_total);
    // Both tools reach the vast majority of (non-firewalled) destinations.
    assert!(c.pct_routes_reaching_destination > 80.0);
    assert!(p.pct_routes_reaching_destination > 80.0);
}

#[test]
fn default_mix_reproduces_the_section_4_shapes() {
    // §3–§4 at the default generator mix: 800 destinations x 20 rounds,
    // seed 9. The measured rates (examples/anomaly_survey prints them
    // beside the paper's) differ from the paper's by the generator's
    // mix; the orderings asserted here are the paper's findings.
    let net =
        generate(&InternetConfig { seed: 9, n_destinations: 800, ..InternetConfig::default() });
    let result =
        run(&net, &CampaignConfig { rounds: 20, workers: 8, seed: 9, ..CampaignConfig::default() });
    let c = &result.classic_report;
    let p = &result.paris_report;
    let cmp = &result.comparison;
    assert_eq!(c.destinations as usize, net.dests.len());
    // §3: stars sit mostly at route ends.
    assert!(c.mid_route_stars < c.stars, "{} mid-route of {}", c.mid_route_stars, c.stars);
    // §4.1: classic sees loops, per-flow balancing causes most of them,
    // and Paris removes most of them.
    assert!(c.pct_routes_with_loop > 1.0, "classic loop rate {}", c.pct_routes_with_loop);
    let per_flow_loops = cmp.loop_pct(FinalLoopCause::PerFlowLoadBalancing);
    assert!(per_flow_loops > 50.0, "per-flow share of loops {per_flow_loops}");
    assert!(
        p.pct_routes_with_loop < c.pct_routes_with_loop / 3.0,
        "paris {} vs classic {}",
        p.pct_routes_with_loop,
        c.pct_routes_with_loop
    );
    // §4.2: cycles are rarer than loops; per-flow balancing is their
    // first cause and forwarding loops the second. (At about 1 % of
    // routes the order of the two depends on how many routing events
    // the seed draws: of seeds 1, 2, 3, 9 and 44 at this size, 2 and 44
    // put forwarding loops first.)
    assert!(c.pct_routes_with_cycle < c.pct_routes_with_loop);
    let (per_flow_cycles, forwarding_cycles) = (
        cmp.cycle_pct(FinalCycleCause::PerFlowLoadBalancing),
        cmp.cycle_pct(FinalCycleCause::ForwardingLoop),
    );
    assert!(forwarding_cycles > 0.0, "the default dynamics plant forwarding loops");
    assert!(per_flow_cycles > forwarding_cycles, "{per_flow_cycles} vs {forwarding_cycles}");
    // §4.3: most destinations show a diamond, most diamonds are
    // per-flow balancing's, and Paris sees fewer.
    assert!(c.pct_dests_with_diamond > 40.0, "{}", c.pct_dests_with_diamond);
    assert!(cmp.diamond_per_flow_pct > 40.0, "{}", cmp.diamond_per_flow_pct);
    assert!(c.diamonds_total > p.diamonds_total);
}

#[test]
fn attribution_covers_every_classic_loop() {
    // Percentages over classic loop instances must sum to ~100.
    let net = small_net(46);
    let result =
        run(&net, &CampaignConfig { rounds: 8, workers: 8, seed: 11, ..CampaignConfig::default() });
    if result.classic.loop_instance_count() == 0 {
        return; // nothing to attribute at this seed/scale
    }
    let total: f64 = [
        FinalLoopCause::PerFlowLoadBalancing,
        FinalLoopCause::ZeroTtlForwarding,
        FinalLoopCause::Unreachability,
        FinalLoopCause::AddressRewriting,
        FinalLoopCause::PerPacketSuspected,
    ]
    .into_iter()
    .map(|cause| result.comparison.loop_pct(cause))
    .sum();
    assert!((total - 100.0).abs() < 1e-6, "loop attribution sums to {total}");
    let cycle_total: f64 = [
        FinalCycleCause::PerFlowLoadBalancing,
        FinalCycleCause::ForwardingLoop,
        FinalCycleCause::Unreachability,
        FinalCycleCause::Other,
    ]
    .into_iter()
    .map(|cause| result.comparison.cycle_pct(cause))
    .sum();
    if result.classic.cycle_instance_count() > 0 {
        assert!((cycle_total - 100.0).abs() < 1e-6, "cycle attribution sums to {cycle_total}");
    }
}

#[test]
fn dynamics_off_means_no_forwarding_loop_cycles() {
    let net = small_net(47);
    let result = run(
        &net,
        &CampaignConfig {
            rounds: 6,
            workers: 8,
            seed: 12,
            dynamics: DynamicsConfig::none(),
            ..CampaignConfig::default()
        },
    );
    assert_eq!(
        result.comparison.cycle_pct(FinalCycleCause::ForwardingLoop),
        0.0,
        "no routing dynamics → no forwarding loops"
    );
}

#[test]
fn validation_never_reports_more_hits_than_flags() {
    let net = small_net(48);
    let result =
        run(&net, &CampaignConfig { rounds: 4, workers: 4, seed: 13, ..CampaignConfig::default() });
    let v = validate_causes(&net, &result.classic, &result.paris);
    for score in [v.zero_ttl, v.rewriting, v.unreachability, v.per_flow] {
        assert!(score.hits <= score.flagged);
        assert!(score.hits <= score.truth_positives);
        assert!((0.0..=1.0).contains(&score.precision()));
        assert!((0.0..=1.0).contains(&score.recall()));
    }
}
