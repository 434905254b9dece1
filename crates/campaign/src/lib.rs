//! # pt-campaign — the paper's measurement study, end to end
//!
//! Reproduces §3's setup over the synthetic Internet: parallel probing
//! "processes" (threads, 32 in the paper) work down one list of
//! `(destination, round)` units, tracing every destination once per
//! round — first with Paris traceroute (fixed random five-tuple per
//! trace), then with classic traceroute (NetBSD header behaviour). Each
//! unit runs on a pristine pooled simulator whose seed, like every
//! other draw the unit makes, derives from `(campaign seed,
//! destination, round)`, so which worker claims a unit changes nothing.
//! Results flow into `pt-anomaly` accumulators; the classic-vs-Paris
//! comparison reproduces §4's attribution.
//!
//! A second campaign mode, [`run_multipath`], runs the §6 future work
//! at the same scale: windowed MDA discovery (`pt-mda`) toward every
//! destination over the identical `(destination, round)` worker pool,
//! with the same seed-derived determinism guarantee, scored against the
//! generator's planted balancers by [`validate_multipath`].

#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

pub mod report;
pub mod runner;
pub mod snapshot;
pub mod validate;

pub use report::{
    multipath_digest, render_multipath_report, render_report, report_digest, Published, PUBLISHED,
};
pub use runner::{
    replay_unit, run, run_multipath, CampaignConfig, CampaignResult, DestMultipath, DynamicsConfig,
    InjectConfig, MultipathConfig, MultipathReport, MultipathResult, QuarantinedUnit,
    UnitDiscovery,
};
pub use snapshot::{
    run_checkpointed, run_multipath_checkpointed, run_multipath_resumed, run_resumed,
    CheckpointConfig,
};
pub use validate::{
    validate_causes, validate_fault_recovery, validate_multipath, FaultRecoveryScore,
    MultipathScore, ValidationReport,
};
