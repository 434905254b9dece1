//! Journal corruption property (ROADMAP item 4c): take the journal of a
//! campaign killed at a random checkpoint, damage it — cut it short,
//! flip a bit, drop a line, swap two lines — and resume. Because every
//! record carries a digest and every unit is a pure function of `(seed,
//! destination, round)`, there are exactly two acceptable outcomes:
//!
//! * the resume is refused with `InvalidData` (the damage hit a record
//!   header's identity: magic, version, mode or fingerprint), or
//! * it completes with a digest **byte-identical** to the uninterrupted
//!   run's — the damaged tail was cut off and recomputed — and leaves a
//!   journal that loads cleanly again.
//!
//! Never a panic, never a different digest. Both campaign modes,
//! resumed under 1 and 4 workers.

use std::io::ErrorKind;
use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;

use paris_traceroute_repro::campaign::{
    multipath_digest, report_digest, run, run_checkpointed, run_multipath,
    run_multipath_checkpointed, run_multipath_resumed, run_resumed, CampaignConfig,
    CheckpointConfig, MultipathConfig,
};

use crate::tiny42 as net;

fn tmp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("pt-corrupt-{}-{name}.snap", std::process::id()));
    p
}

fn checkpoint(path: &std::path::Path, every_units: u32, stop: Option<usize>) -> CheckpointConfig {
    CheckpointConfig { path: path.to_path_buf(), every_units, stop_after_checkpoints: stop }
}

/// One campaign mode under test: how to kill it, how to resume it, and
/// what the uninterrupted digest is.
struct Mode {
    name: &'static str,
    every_units: u32,
    /// The uninterrupted run's digest.
    reference: String,
    /// Journal bytes of a run killed after `1 + index` checkpoints.
    killed: Vec<Vec<u8>>,
    /// Resume the journal at the path under a worker count: the digest,
    /// or the error kind.
    resume: fn(&CheckpointConfig, usize) -> Result<String, ErrorKind>,
}

fn side_config(workers: usize) -> CampaignConfig {
    let mut config = CampaignConfig { rounds: 2, workers, seed: 99, ..Default::default() };
    // Quarantine and watchdog state ride in the records too.
    config.trace.probe_budget = 30;
    config.inject.panic_units.insert(5);
    config.inject.runaway_units.insert(7);
    config
}

fn mda_config(workers: usize) -> MultipathConfig {
    let mut config = MultipathConfig { rounds: 2, workers, seed: 7, ..Default::default() };
    config.mda.probe_budget = 240;
    config.inject.panic_units.insert(3);
    config.inject.runaway_units.insert(9);
    config
}

fn side_by_side() -> &'static Mode {
    static MODE: OnceLock<Mode> = OnceLock::new();
    MODE.get_or_init(|| {
        // 80 units in 17-unit blocks: checkpoints at 17, 34, 51, 68, 80.
        let path = tmp_path("side-seed");
        let killed = (1..=4)
            .map(|kill_after| {
                let ckpt = checkpoint(&path, 17, Some(kill_after));
                assert!(run_checkpointed(net(), &side_config(4), &ckpt).unwrap().is_none());
                std::fs::read(&path).unwrap()
            })
            .collect();
        let _ = std::fs::remove_file(&path);
        Mode {
            name: "side",
            every_units: 17,
            reference: report_digest(&run(net(), &side_config(1))),
            killed,
            resume: |ckpt, workers| match run_resumed(net(), &side_config(workers), ckpt) {
                Ok(result) => Ok(report_digest(&result.expect("no kill point set"))),
                Err(e) => Err(e.kind()),
            },
        }
    })
}

fn multipath() -> &'static Mode {
    static MODE: OnceLock<Mode> = OnceLock::new();
    MODE.get_or_init(|| {
        // 80 units in 23-unit blocks: checkpoints at 23, 46, 69, 80.
        let path = tmp_path("mda-seed");
        let killed = (1..=3)
            .map(|kill_after| {
                let ckpt = checkpoint(&path, 23, Some(kill_after));
                assert!(run_multipath_checkpointed(net(), &mda_config(4), &ckpt)
                    .unwrap()
                    .is_none());
                std::fs::read(&path).unwrap()
            })
            .collect();
        let _ = std::fs::remove_file(&path);
        Mode {
            name: "mda",
            every_units: 23,
            reference: multipath_digest(&run_multipath(net(), &mda_config(1))),
            killed,
            resume: |ckpt, workers| match run_multipath_resumed(net(), &mda_config(workers), ckpt) {
                Ok(result) => Ok(multipath_digest(&result.expect("no kill point set"))),
                Err(e) => Err(e.kind()),
            },
        }
    })
}

/// Damage `journal` in one of the four ways; `a` and `b` pick where.
fn damage(journal: &[u8], kind: u8, a: usize, b: usize) -> Vec<u8> {
    let lines: Vec<&[u8]> = journal.split_inclusive(|&c| c == b'\n').collect();
    match kind {
        // Cut short: a torn write, or a tail lost with the page cache.
        0 => journal[..a % journal.len()].to_vec(),
        // One flipped bit.
        1 => {
            let mut out = journal.to_vec();
            out[a % journal.len()] ^= 1 << (b % 8);
            out
        }
        // One line gone.
        2 => {
            let gone = a % lines.len();
            lines
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != gone)
                .flat_map(|(_, l)| *l)
                .copied()
                .collect()
        }
        // Two lines trading places.
        _ => {
            let mut lines = lines;
            let (i, j) = (a % lines.len(), b % lines.len());
            lines.swap(i, j);
            lines.concat()
        }
    }
}

fn check_damaged_resume(
    mode: &Mode,
    kill_index: usize,
    kind: u8,
    a: usize,
    b: usize,
    workers: usize,
) {
    let journal = &mode.killed[kill_index % mode.killed.len()];
    let damaged = damage(journal, kind, a, b);
    let case =
        format!("{} kill {kill_index} damage {kind} at {a}/{b}, {workers} workers", mode.name);
    let path = tmp_path(&format!("{}-{kill_index}-{kind}-{a}-{b}-{workers}", mode.name));
    std::fs::write(&path, &damaged).unwrap();
    let ckpt = checkpoint(&path, mode.every_units, None);
    match (mode.resume)(&ckpt, workers) {
        Err(kind) => {
            assert_eq!(kind, ErrorKind::InvalidData, "{case}");
            assert!(damaged != *journal, "{case}: an undamaged journal was refused");
            assert!(
                std::fs::read(&path).unwrap() == damaged,
                "{case}: a refused journal was touched"
            );
        }
        Ok(digest) => {
            assert_eq!(digest, mode.reference, "{case}");
            // What the repair left behind is a complete, clean journal.
            assert_eq!((mode.resume)(&ckpt, workers), Ok(mode.reference.clone()), "{case}: reload");
        }
    }
    let _ = std::fs::remove_file(&path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn damaged_side_by_side_journal_resumes_identically_or_is_refused(
        kill_index in 0usize..4,
        kind in 0u8..4,
        a in any::<u32>(),
        b in any::<u32>(),
        four_workers in any::<bool>(),
    ) {
        let workers = if four_workers { 4 } else { 1 };
        check_damaged_resume(side_by_side(), kill_index, kind, a as usize, b as usize, workers);
    }

    #[test]
    fn damaged_multipath_journal_resumes_identically_or_is_refused(
        kill_index in 0usize..3,
        kind in 0u8..4,
        a in any::<u32>(),
        b in any::<u32>(),
        four_workers in any::<bool>(),
    ) {
        let workers = if four_workers { 4 } else { 1 };
        check_damaged_resume(multipath(), kill_index, kind, a as usize, b as usize, workers);
    }
}

/// The damage a random position rarely lands on: every byte of the
/// first record's header line, flipped one at a time, and every cut
/// inside it.
#[test]
fn header_damage_is_refused_or_repaired() {
    for mode in [side_by_side(), multipath()] {
        let journal = &mode.killed[1];
        let header_len = journal.iter().position(|&c| c == b'\n').unwrap() + 1;
        for at in 0..header_len {
            check_damaged_resume(mode, 1, 1, at, at, 1);
            check_damaged_resume(mode, 1, 0, at, 0, 4);
        }
    }
}

/// An undamaged journal resumes, whatever the kill point — the control
/// for the properties above.
#[test]
fn undamaged_journals_resume() {
    for mode in [side_by_side(), multipath()] {
        for kill_index in 0..mode.killed.len() {
            // Swapping a line with itself damages nothing.
            check_damaged_resume(mode, kill_index, 3, 0, 0, 4);
        }
    }
}
