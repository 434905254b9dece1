//! `replay_unit` as a serial oracle for the pool: a campaign keeps no
//! route, so what it folded must be what replaying every unit alone —
//! a cold simulator each, no pool, no blocks, no journal — and folding
//! the pairs by hand gives, in whatever order they are folded.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use paris_traceroute_repro::anomaly::{compare, CampaignAccumulator};
use paris_traceroute_repro::campaign::{
    replay_unit, report_digest, run, run_checkpointed, run_resumed, CampaignConfig, CampaignResult,
    CheckpointConfig,
};
use paris_traceroute_repro::core::StrategyId;
use paris_traceroute_repro::topogen::SyntheticInternet;

use crate::tiny42;

fn config(workers: usize) -> CampaignConfig {
    // Default dynamics: forwarding loops and balancer flaps are drawn
    // per unit, so a replay has to reproduce them too.
    CampaignConfig { rounds: 3, workers, seed: 99, ..CampaignConfig::default() }
}

/// Every unit replayed and folded in *reverse* unit order: the classic
/// accumulator, then the Paris one.
fn replayed(
    net: &SyntheticInternet,
    config: &CampaignConfig,
) -> (CampaignAccumulator, CampaignAccumulator) {
    let mut classic = CampaignAccumulator::new(StrategyId::ClassicUdp);
    let mut paris = CampaignAccumulator::new(StrategyId::ParisUdp);
    for round in (0..config.rounds).rev() {
        for dest in (0..net.dests.len()).rev() {
            let (paris_route, classic_route) = replay_unit(net, config, dest, round);
            paris.ingest(round, &paris_route);
            classic.ingest(round, &classic_route);
        }
    }
    (classic, paris)
}

#[track_caller]
fn assert_same(
    got: &CampaignResult,
    (classic, paris): &(CampaignAccumulator, CampaignAccumulator),
    what: &str,
) {
    let oracle = CampaignResult {
        classic: classic.clone(),
        paris: paris.clone(),
        classic_report: classic.report(),
        paris_report: paris.report(),
        comparison: compare(classic, paris),
        // The one thing a route does not carry.
        mean_virtual_secs: got.mean_virtual_secs,
        quarantined: Vec::new(),
    };
    assert_eq!(got.classic_report, oracle.classic_report, "{what}");
    assert_eq!(got.paris_report, oracle.paris_report, "{what}");
    assert_eq!(got.comparison, oracle.comparison, "{what}");
    assert_eq!(report_digest(got), report_digest(&oracle), "{what}");
}

#[test]
fn replayed_units_fold_to_the_pools_result() {
    let net = tiny42();
    let oracle = replayed(net, &config(1));
    assert!(oracle.0.loop_instance_count() > 0, "tiny(42) must show anomalies");
    for workers in [1, 5] {
        assert_same(&run(net, &config(workers)), &oracle, &format!("{workers} workers"));
    }
    // And a run killed at a checkpoint and resumed by another pool.
    let mut path: PathBuf = std::env::temp_dir();
    path.push(format!("pt-replay-oracle-{}.snap", std::process::id()));
    // 120 units, a checkpoint every 32, killed after the second.
    let ckpt =
        CheckpointConfig { path: path.clone(), every_units: 32, stop_after_checkpoints: Some(2) };
    let early = run_checkpointed(net, &config(5), &ckpt).expect("journal is writable");
    assert!(early.is_none(), "killed after the second checkpoint");
    let resume = CheckpointConfig { stop_after_checkpoints: None, ..ckpt };
    let result = run_resumed(net, &config(1), &resume)
        .expect("journal loads")
        .expect("resumed run completes");
    let _ = std::fs::remove_file(&path);
    assert_same(&result, &oracle, "killed at unit 64, resumed on one worker");
}

#[test]
fn a_quarantined_unit_replays_to_the_panic_it_recorded() {
    let net = tiny42();
    let mut config = config(5);
    config.inject.panic_units.insert(45);
    let result = run(net, &config);
    let [quarantined] = result.quarantined.as_slice() else {
        panic!("one unit was poisoned, {} quarantined", result.quarantined.len())
    };
    assert_eq!((quarantined.dest, quarantined.round), (15, 0));
    let payload = catch_unwind(AssertUnwindSafe(|| {
        replay_unit(net, &config, quarantined.dest, quarantined.round)
    }))
    .expect_err("the replayed unit must panic as the campaign's did");
    assert_eq!(payload.downcast_ref::<String>(), Some(&quarantined.panic));
    // Its neighbours replay to routes.
    let (paris, classic) = replay_unit(net, &config, 15, 1);
    assert_eq!(paris.destination, net.dests[15].addr);
    assert_eq!(classic.destination, net.dests[15].addr);
}
