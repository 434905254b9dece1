//! The umbrella crate's integration suite, as one test binary: one
//! module per family of claims, all linked against the umbrella crate
//! once. A crate's integration tests are one such binary, `tests/it`,
//! and `docs/ROBUSTNESS.md` ("Claims and the tests that hold them")
//! names, for each paper claim and repository contract, the one test in
//! one of them (or beside it) that fails when it breaks. Pick a module
//! with a path filter: `cargo test --test it end_to_end::`.
//!
//! `tests/alloc_steady_state.rs` stays a binary of its own: it installs
//! a counting `#[global_allocator]`, which would count every test running
//! beside it in this process. New root tests are modules here.

use std::sync::OnceLock;

use paris_traceroute_repro::topogen::{generate, InternetConfig, SyntheticInternet};

mod campaign_pipeline;
mod checkpoint_resume;
mod end_to_end;
mod event_count;
mod golden_digests;
mod hostile_ground_truth;
mod mda_ground_truth;
mod proptest_invariants;
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
