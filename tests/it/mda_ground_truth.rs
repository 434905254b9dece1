//! Multipath discovery scored against generator ground truth — the
//! validation the paper's §6 future work could never run on the real
//! Internet: every `topogen` destination records exactly which balancer
//! was planted on its branch (`DestTruth`: `lb_width`, `lb_delta`,
//! per-flow vs per-packet), so a multipath campaign's discoveries can
//! be graded destination by destination.
//!
//! The floors pinned here are the PR's acceptance criteria: across
//! several `InternetConfig::tiny` instances, MDA must fully recover
//! (width AND delta AND class) at least 95% of planted balancers, and
//! must flag **zero** balancers on plain destinations.

use paris_traceroute_repro::campaign::{run_multipath, validate_multipath, MultipathConfig};
use paris_traceroute_repro::mda::BalancerClass;
use paris_traceroute_repro::topogen::{generate, InternetConfig};

use crate::tiny42;

const SEEDS: [u64; 3] = [42, 7, 2006];

#[test]
fn mda_recovers_planted_balancers_at_95_percent() {
    let mut balancer_dests = 0usize;
    let mut full_matches = 0usize;
    let mut width_correct = 0usize;
    let mut delta_correct = 0usize;
    let mut class_correct = 0usize;
    for seed in SEEDS {
        let net = generate(&InternetConfig::tiny(seed));
        let result =
            run_multipath(&net, &MultipathConfig { workers: 4, seed, ..Default::default() });
        let score = validate_multipath(&net, &result);
        assert!(score.balancer_dests > 0, "seed {seed}: tiny nets must plant balancers");
        // Zero false balancers: a destination without a planted
        // balancer must never show one — per seed, not just overall.
        assert_eq!(
            score.false_balancers, 0,
            "seed {seed}: plain destinations flagged as balanced ({score:?})"
        );
        balancer_dests += score.balancer_dests;
        full_matches += score.full_matches;
        width_correct += score.width_correct;
        delta_correct += score.delta_correct;
        class_correct += score.class_correct;
    }
    let accuracy = full_matches as f64 / balancer_dests as f64;
    assert!(
        accuracy >= 0.95,
        "MDA must fully recover >= 95% of planted balancers: {full_matches}/{balancer_dests} \
         = {:.1}% (width {width_correct}, delta {delta_correct}, class {class_correct})",
        accuracy * 100.0
    );
}

#[test]
fn mda_classification_matches_planted_kind_per_destination() {
    // Classification alone (ignoring width/delta) should be essentially
    // perfect on discovered balancers: a per-flow balancer pins the
    // fixed-flow batch, a per-packet one scatters it.
    let net = tiny42();
    let result =
        run_multipath(net, &MultipathConfig { workers: 4, seed: 42, ..Default::default() });
    for d in &result.per_dest {
        let truth = &net.dests[d.dest].truth;
        if d.class == BalancerClass::NotBalanced || !truth.has_balancer() {
            continue;
        }
        let expected =
            if truth.per_packet_lb { BalancerClass::PerPacket } else { BalancerClass::PerFlow };
        assert_eq!(
            d.class, expected,
            "dest {} ({}): planted {expected:?}, discovered {:?}",
            d.dest, d.addr, d.class
        );
    }
}
