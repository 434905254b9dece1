//! Most of the workspace's integration suite, as one test binary: one
//! module per family of claims, all linked against the umbrella crate
//! once. `docs/ROBUSTNESS.md` ("Claims and the tests that hold them")
//! names, for each paper claim and repository contract, the one test
//! here (or beside it) that fails when it breaks.
//!
//! `tests/alloc_steady_state.rs` stays a binary of its own: it installs
//! a counting `#[global_allocator]`, which would count every test running
//! beside it in this process. `tests/end_to_end.rs` and
//! `tests/proptest_invariants.rs` keep their own binaries and established
//! test names; new root tests are modules here.

use std::sync::OnceLock;

use paris_traceroute_repro::topogen::{generate, InternetConfig, SyntheticInternet};

mod campaign_pipeline;
mod checkpoint_resume;
mod event_count;
mod golden_digests;
mod hostile_ground_truth;
mod mda_ground_truth;
mod proptest_snapshot;
mod queue_depth;
mod replay_oracle;
mod windowed_tracer;
mod worker_invariance;

/// `InternetConfig::tiny(42)`, generated once for the whole binary: the
/// network of the golden digests, the worker-count and kill-point sweeps,
/// the replay oracle and the journal-corruption property.
fn tiny42() -> &'static SyntheticInternet {
    static NET: OnceLock<SyntheticInternet> = OnceLock::new();
    NET.get_or_init(|| generate(&InternetConfig::tiny(42)))
}
