//! Golden digests: fixed-seed campaign results pinned by committed
//! values, so "byte-identical to the parent commit" is a test,
//! `cargo test --test it golden_digests::`, and not a by-hand diff of
//! two builds' printed digests.
//!
//! `worker_invariance.rs`, `checkpoint_resume.rs` and
//! `replay_oracle.rs` compare a run with another run of the same
//! build; none of them notices a change that moves *every* run the
//! same way. These constants do. They were recorded once, by the PR
//! that re-keyed the simulator's event order to `(time, birth)` and its
//! loss and per-packet-balancer draws to `(seed, node, birth, TTL)` — a
//! re-draw of every random outcome, so every value moved — from the
//! engine that still ran one event per hop. Fusing transit hops into
//! one event, in the same PR, left all of them as recorded.
//! Four of the six were recorded once more, by the PR that sums virtual
//! time as integer nanoseconds instead of adding a float per unit in
//! unit order: `CAMPAIGN`, the default-dynamics campaign and the
//! multipath campaign moved in their `mean_virtual_secs` line alone, by
//! 5, 3 and 1 ulp — the float sum had drifted from the exact mean —
//! and every other line of every digest text stayed as it was
//! (`git log -p --follow` on this file shows each value a constant
//! replaced).
//!
//! The hash covers the whole digest text, so these constants also hold
//! that a fixed seed runs to the same digest every time and that the
//! digest prints every report field.
//!
//! A PR that *means* to change results (a new default, a fixed bug in
//! the simulator, a retuned timeout) updates the constants in the same
//! commit and says why in its description. A PR that does not mean to
//! and trips this test has changed behaviour: the assert prints the
//! whole digest, so diff it against the parent's.
//!
//! Each value is the 64-bit FNV-1a hash of the canonical digest string
//! (`multipath_digest` alone runs to 14 KB) followed by the bit
//! pattern of `mean_virtual_secs`, which `report_digest` leaves out
//! and which is the field that moves when a send timestamp does.
//!
//! The last two tests hash journal bytes instead: the `ptsnap v7`
//! journal `campaign_killed_and_resumed`'s campaign leaves at its kill
//! and after its resume, and a multipath journal with quarantined units,
//! killed and resumed. Every other journal test compares a build with
//! itself, so a change that writer and reader make alike — another
//! fingerprint salt, renumbered balancer classes — passes them all while
//! every journal an earlier build wrote is refused or misread. A PR that
//! *means* to move journal bytes updates these constants too and says
//! why; a PR that does not must leave them as they are.

use std::fmt::Write;
use std::path::PathBuf;

use paris_traceroute_repro::campaign::{
    multipath_digest, replay_unit, report_digest, run, run_checkpointed, run_multipath,
    run_multipath_checkpointed, run_multipath_resumed, run_resumed, CampaignConfig, CampaignResult,
    CheckpointConfig, DynamicsConfig, MultipathConfig,
};
use paris_traceroute_repro::core::{MeasuredRoute, TraceConfig};
use paris_traceroute_repro::topogen::{generate, InternetConfig};

use crate::tiny42;

fn fnv1a64(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The canonical fixed-seed campaign over `tiny(42)` — and, because
/// where a campaign is cut and who resumes it leave no trace, the same
/// campaign killed at a checkpoint and resumed.
const CAMPAIGN: u64 = 0xa6aa_48f3_3fe0_81e5;

/// The canonical campaign's configuration. Routing dynamics are off, so
/// its digest isolates the deterministic forwarding and response path.
fn campaign_config() -> CampaignConfig {
    CampaignConfig {
        rounds: 3,
        workers: 4,
        seed: 99,
        dynamics: DynamicsConfig::none(),
        ..CampaignConfig::default()
    }
}

fn campaign_text(result: &CampaignResult) -> String {
    format!(
        "{}mean_virtual_secs: {:#x}\n",
        report_digest(result),
        result.mean_virtual_secs.to_bits()
    )
}

#[track_caller]
fn assert_golden(what: &str, text: &str, golden: u64) {
    let got = fnv1a64(text);
    assert_eq!(
        got, golden,
        "{what}: digest hashes to {got:#018x}, golden is {golden:#018x}\n{text}"
    );
}

#[test]
fn campaign_digest_example() {
    let net = tiny42();
    let result = run(net, &campaign_config());
    assert_golden("campaign_digest", &campaign_text(&result), CAMPAIGN);
}

#[test]
fn campaign_digest_kept_routes() {
    // The same campaign's every route, replayed round by round, each
    // round in destination order, with Paris before classic: addresses,
    // response kinds, RTTs and IP-IDs of all 240 traces, not just the
    // report's aggregates.
    // One canonical line per route and one per hop, so the value holds
    // what was measured and not how `MeasuredRoute` is laid out.
    let net = tiny42();
    let config = campaign_config();
    let mut text = String::new();
    for round in 0..config.rounds {
        for dest in 0..net.dests.len() {
            let (paris, classic) = replay_unit(net, &config, dest, round);
            route_lines(&mut text, round, &paris);
            route_lines(&mut text, round, &classic);
        }
    }
    assert_golden("campaign_digest routes", &text, 0xcf7e_d7bb_d832_b6cc);
}

fn route_lines(out: &mut String, round: usize, route: &MeasuredRoute) {
    let MeasuredRoute { strategy, destination, min_ttl, halt, .. } = route;
    let _ =
        writeln!(out, "{strategy:?} round {round} dest {destination} min_ttl {min_ttl} {halt:?}");
    for hop in &route.hops {
        let _ = writeln!(out, "  {} {:?}", hop.ttl, hop.probe);
    }
}

#[test]
fn campaign_with_default_dynamics_sequential() {
    let net = tiny42();
    let config = CampaignConfig {
        dynamics: DynamicsConfig::default(),
        trace: TraceConfig { window: 1, ..TraceConfig::paper() },
        ..campaign_config()
    };
    let result = run(net, &config);
    assert_golden("dynamics, window 1", &campaign_text(&result), 0xc108_6367_5dfa_1232);
}

#[test]
fn multipath_digest_example() {
    let net = tiny42();
    let config = MultipathConfig { rounds: 2, workers: 4, seed: 99, ..Default::default() };
    let result = run_multipath(net, &config);
    assert_golden("multipath_digest", &multipath_digest(&result), 0x8698_0293_e306_dabc);
}

#[test]
fn adaptive_multipath_on_a_hostile_net() {
    let net = generate(&InternetConfig::hostile(42));
    let config =
        MultipathConfig { rounds: 2, workers: 4, seed: 99, adaptive: true, ..Default::default() };
    let result = run_multipath(&net, &config);
    assert_golden("adaptive multipath, hostile", &multipath_digest(&result), 0xb784_ab68_d233_440d);
}

#[test]
fn campaign_killed_and_resumed() {
    let net = tiny42();
    let config = campaign_config();
    let mut path: PathBuf = std::env::temp_dir();
    path.push(format!("pt-golden-{}.snap", std::process::id()));
    // 120 units, a checkpoint every 32, killed after the second.
    let ckpt =
        CheckpointConfig { path: path.clone(), every_units: 32, stop_after_checkpoints: Some(2) };
    let early = run_checkpointed(net, &config, &ckpt).expect("journal is writable");
    assert!(early.is_none(), "killed after the second checkpoint");
    let resume = CheckpointConfig { stop_after_checkpoints: None, ..ckpt };
    let result = run_resumed(net, &CampaignConfig { workers: 1, ..config }, &resume)
        .expect("journal loads")
        .expect("resumed run completes");
    let _ = std::fs::remove_file(&path);
    assert_golden("killed and resumed", &campaign_text(&result), CAMPAIGN);
}

/// A checkpoint config killed after its second checkpoint, journaling
/// every `every_units` units to a file of this process's own.
fn killed_at_two(name: &str, every_units: u32) -> CheckpointConfig {
    let mut path: PathBuf = std::env::temp_dir();
    path.push(format!("pt-golden-{name}-{}.snap", std::process::id()));
    CheckpointConfig { path, every_units, stop_after_checkpoints: Some(2) }
}

fn journal_text(ckpt: &CheckpointConfig) -> String {
    std::fs::read_to_string(&ckpt.path).expect("a journal is text")
}

#[test]
fn journal_killed_and_resumed() {
    // `campaign_killed_and_resumed`'s journal, byte for byte: the two
    // block records the kill leaves, then the folds and records the
    // resume writes after them.
    let net = tiny42();
    let config = campaign_config();
    let ckpt = killed_at_two("side", 32);
    let early = run_checkpointed(net, &config, &ckpt).expect("journal is writable");
    assert!(early.is_none(), "killed after the second checkpoint");
    let killed = journal_text(&ckpt);
    let resume = CheckpointConfig { stop_after_checkpoints: None, ..ckpt };
    let config = CampaignConfig { workers: 1, ..config };
    assert!(run_resumed(net, &config, &resume).expect("journal loads").is_some());
    let resumed = journal_text(&resume);
    let _ = std::fs::remove_file(&resume.path);
    assert_golden("side-by-side journal at the kill", &killed, 0xd49b_5cc1_bb80_fbdc);
    assert_golden("side-by-side journal resumed", &resumed, 0xc02a_91ff_d4be_53c6);
}

#[test]
fn multipath_journal_with_a_quarantined_unit() {
    // Units 5 and 41 panic: one is quarantined before the kill, one
    // after it, so the `q` lines are pinned beside the units' key lines,
    // balancer classes included.
    let net = tiny42();
    let mut config = MultipathConfig { rounds: 2, workers: 4, seed: 99, ..Default::default() };
    config.inject.panic_units.extend([5, 41]);
    let ckpt = killed_at_two("multipath", 16);
    let early = run_multipath_checkpointed(net, &config, &ckpt).expect("journal is writable");
    assert!(early.is_none(), "killed after the second checkpoint");
    let resume = CheckpointConfig { stop_after_checkpoints: None, ..ckpt };
    let result = run_multipath_resumed(net, &config, &resume).expect("journal loads");
    let journal = journal_text(&resume);
    let _ = std::fs::remove_file(&resume.path);
    let quarantined = result.expect("resumed run completes").quarantined;
    assert_eq!(quarantined.iter().map(|q| q.unit).collect::<Vec<_>>(), [5, 41]);
    assert_golden("multipath journal, killed and resumed", &journal, 0x1c97_ff10_ba8b_f2bf);
}
