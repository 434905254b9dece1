//! The pool refactor's headline guarantee: the worker count is a pure
//! performance knob. Every random draw a `(destination, round)` work
//! unit makes is derived from `(campaign seed, destination, round)` —
//! never from the worker that claimed it — and merging is
//! order-insensitive, so a fixed-seed campaign's canonical digest must
//! be *byte-identical* for any number of workers.

use paris_traceroute_repro::campaign::{
    multipath_digest, report_digest, run, run_multipath, CampaignConfig, CampaignResult,
    DynamicsConfig, MultipathConfig,
};
use paris_traceroute_repro::topogen::{generate, InternetConfig};

use crate::tiny42;

fn campaign(workers: usize, dynamics: DynamicsConfig) -> CampaignResult {
    let config =
        CampaignConfig { rounds: 3, workers, seed: 99, dynamics, ..CampaignConfig::default() };
    run(tiny42(), &config)
}

#[test]
fn digest_is_byte_identical_for_workers_1_4_8() {
    // The digest prints every report field. Virtual time is summed as
    // integer nanoseconds, so the mean's bit pattern must hold too.
    let baseline = campaign(1, DynamicsConfig::default());
    let baseline_digest = report_digest(&baseline);
    let dests = tiny42().dests.len();
    assert_eq!(baseline.classic_report.routes_total, dests as u64 * 3, "a route per unit and tool");
    assert_eq!(baseline.paris_report.routes_total, dests as u64 * 3);
    assert_eq!(baseline.classic_report.destinations, dests as u64);
    assert!(baseline.mean_virtual_secs > 0.0);
    for workers in [4, 8] {
        let result = campaign(workers, DynamicsConfig::default());
        assert_eq!(result.comparison, baseline.comparison, "workers = {workers}");
        assert_eq!(
            report_digest(&result),
            baseline_digest,
            "digest must not depend on worker count (workers = {workers})"
        );
        assert_eq!(
            result.mean_virtual_secs.to_bits(),
            baseline.mean_virtual_secs.to_bits(),
            "workers = {workers}"
        );
    }
}

#[test]
fn digest_is_byte_identical_for_workers_1_4_8_without_dynamics() {
    // Dynamics off isolates the forwarding/response hot path: if this
    // fails while the dynamic variant passes, the per-unit *simulator*
    // seeds leak worker identity; if both fail, the campaign-level
    // draws (ports, dynamics) do.
    let baseline = report_digest(&campaign(1, DynamicsConfig::none()));
    for workers in [4, 8] {
        let digest = report_digest(&campaign(workers, DynamicsConfig::none()));
        assert_eq!(digest, baseline, "workers = {workers}");
    }
}

#[test]
fn multipath_digest_is_byte_identical_for_workers_1_4_8() {
    // The new campaign mode inherits the same guarantee: every MDA
    // unit's draws (flow-family ports, the simulator seed) derive from
    // `(seed, destination, round)`, units are re-sorted into unit
    // order, so the full multipath digest — per-unit discoveries,
    // per-destination merge, aggregates, and the virtual-time float —
    // is byte-identical for any worker count.
    let campaign = |workers: usize| {
        let config = MultipathConfig { rounds: 2, workers, seed: 99, ..Default::default() };
        run_multipath(tiny42(), &config)
    };
    let baseline = campaign(1);
    let baseline_digest = multipath_digest(&baseline);
    assert!(baseline.report.balanced_dests > 0, "the workload must exercise balancers");
    for workers in [4, 8] {
        let result = campaign(workers);
        assert_eq!(
            multipath_digest(&result),
            baseline_digest,
            "multipath digest must not depend on worker count (workers = {workers})"
        );
        assert_eq!(
            result.mean_virtual_secs.to_bits(),
            baseline.mean_virtual_secs.to_bits(),
            "workers = {workers}"
        );
    }
}

#[test]
fn adaptive_multipath_digest_is_worker_invariant_under_faults() {
    // The PR-6 adaptive machinery (backoff jitter, pacing, protocol
    // fallback) must not leak worker identity either: its jitter seed
    // derives from the unit stream, and every retry/backoff decision is
    // a function of the unit's own probe history — so even on a network
    // with all four hostile faults planted, the adaptive digest is
    // byte-identical across worker counts.
    let net = generate(&InternetConfig::hostile(42));
    let campaign = |workers: usize| {
        let config =
            MultipathConfig { rounds: 2, workers, seed: 99, adaptive: true, ..Default::default() };
        run_multipath(&net, &config)
    };
    let baseline = campaign(1);
    let baseline_digest = multipath_digest(&baseline);
    for workers in [4, 8] {
        let result = campaign(workers);
        assert_eq!(
            multipath_digest(&result),
            baseline_digest,
            "adaptive digest must not depend on worker count (workers = {workers})"
        );
        assert_eq!(
            result.mean_virtual_secs.to_bits(),
            baseline.mean_virtual_secs.to_bits(),
            "workers = {workers}"
        );
    }
}
