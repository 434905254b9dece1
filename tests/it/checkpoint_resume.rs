//! Crash-safety acceptance: kill a checkpointed campaign at *every*
//! checkpoint boundary, resume it from the snapshot, and demand a
//! report digest **byte-identical** to the uninterrupted run's — for
//! worker counts 1, 4 and 8, in both campaign modes, with faults
//! injected so quarantine and watchdog state cross the snapshot too.
//!
//! This works because the campaign is a resumable fold: units derive
//! all randomness from `(seed, destination, round)`, blocks merge
//! order-insensitively, and ordering is imposed only at finalization.
//! The snapshot captures the fold state exactly (floats as bit
//! patterns), so where the work was cut — and who resumes it — cannot
//! leave a trace in the result.

use std::path::PathBuf;

use paris_traceroute_repro::campaign::{
    multipath_digest, report_digest, run, run_checkpointed, run_multipath,
    run_multipath_checkpointed, run_multipath_resumed, run_resumed, CampaignConfig,
    CheckpointConfig, MultipathConfig,
};

use crate::tiny42;

fn tmp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("pt-checkpoint-{}-{name}.snap", std::process::id()));
    p
}

fn campaign_config(workers: usize) -> CampaignConfig {
    let mut config = CampaignConfig { rounds: 2, workers, seed: 99, ..Default::default() };
    // Cross faults through the snapshot: a quarantined unit and a
    // watchdog-degraded runaway must survive kill/resume too.
    config.trace.probe_budget = 30;
    config.inject.panic_units.insert(5);
    config.inject.runaway_units.insert(7);
    config
}

#[test]
fn side_by_side_resume_is_byte_identical_at_every_kill_point() {
    let net = tiny42();
    // 40 dests × 2 rounds = 80 units; 17-unit blocks put checkpoints at
    // awkward, non-divisor boundaries (17, 34, 51, 68, 80).
    const EVERY: u32 = 17;
    const CHECKPOINTS: usize = 5;
    for workers in [1usize, 4, 8] {
        let config = campaign_config(workers);
        let uninterrupted = report_digest(&run(net, &config));
        for kill_after in 1..CHECKPOINTS {
            let path = tmp_path(&format!("side-w{workers}-k{kill_after}"));
            let ckpt = CheckpointConfig {
                path: path.clone(),
                every_units: EVERY,
                stop_after_checkpoints: Some(kill_after),
            };
            let early = run_checkpointed(net, &config, &ckpt)
                .expect("checkpointed run writes its snapshot");
            assert!(early.is_none(), "killed after checkpoint {kill_after}");
            // Resume under a *different* worker count than died: the
            // worker knob stays pure even across a process boundary.
            let resumed_workers = [1usize, 4, 8][kill_after % 3];
            let resume_config = CampaignConfig { workers: resumed_workers, ..config.clone() };
            let resume_ckpt = CheckpointConfig { stop_after_checkpoints: None, ..ckpt };
            let result = run_resumed(net, &resume_config, &resume_ckpt)
                .expect("snapshot loads")
                .expect("resumed run completes");
            assert_eq!(
                report_digest(&result),
                uninterrupted,
                "workers = {workers}, killed after checkpoint {kill_after}, \
                 resumed with {resumed_workers}"
            );
            assert_eq!(result.quarantined.len(), 1);
            let _ = std::fs::remove_file(&path);
        }
    }
}

#[test]
fn multipath_resume_is_byte_identical_at_every_kill_point() {
    let net = tiny42();
    const EVERY: u32 = 23;
    const CHECKPOINTS: usize = 4; // ceil(80 / 23)
    for workers in [1usize, 4, 8] {
        let mut config = MultipathConfig { rounds: 2, workers, seed: 7, ..Default::default() };
        config.mda.probe_budget = 240;
        config.inject.panic_units.insert(3);
        config.inject.runaway_units.insert(9);
        let uninterrupted = multipath_digest(&run_multipath(net, &config));
        for kill_after in 1..CHECKPOINTS {
            let path = tmp_path(&format!("mda-w{workers}-k{kill_after}"));
            let ckpt = CheckpointConfig {
                path: path.clone(),
                every_units: EVERY,
                stop_after_checkpoints: Some(kill_after),
            };
            let early = run_multipath_checkpointed(net, &config, &ckpt)
                .expect("checkpointed run writes its snapshot");
            assert!(early.is_none(), "killed after checkpoint {kill_after}");
            let resumed_workers = [8usize, 1, 4][kill_after % 3];
            let resume_config = MultipathConfig { workers: resumed_workers, ..config.clone() };
            let resume_ckpt = CheckpointConfig { stop_after_checkpoints: None, ..ckpt };
            let result = run_multipath_resumed(net, &resume_config, &resume_ckpt)
                .expect("snapshot loads")
                .expect("resumed run completes");
            assert_eq!(
                multipath_digest(&result),
                uninterrupted,
                "workers = {workers}, killed after checkpoint {kill_after}, \
                 resumed with {resumed_workers}"
            );
            assert_eq!(result.report.degraded_units, 1);
            let _ = std::fs::remove_file(&path);
        }
    }
}

#[test]
fn resuming_a_completed_snapshot_reproduces_the_result_without_rework() {
    let net = tiny42();
    let config = campaign_config(4);
    let path = tmp_path("completed");
    let ckpt =
        CheckpointConfig { path: path.clone(), every_units: 40, stop_after_checkpoints: None };
    let first = run_checkpointed(net, &config, &ckpt).unwrap().expect("completes");
    // The final snapshot holds the whole fold: resuming it re-runs
    // nothing and finalizes straight to the same digest.
    let again = run_resumed(net, &config, &ckpt).unwrap().expect("finalizes from disk");
    assert_eq!(report_digest(&again), report_digest(&first));
    let _ = std::fs::remove_file(&path);
}
