//! # pt-bench — shared helpers for the experiment-regeneration benches
//!
//! Each bench target in `benches/` regenerates one of the paper's
//! figures or reported statistics (each prints its experiment id and
//! the paper section it reproduces), printing the paper-vs-measured
//! rows before timing the underlying computation with Criterion.

#![warn(missing_docs)]

use pt_campaign::{run, CampaignConfig, CampaignResult};
use pt_core::{trace, MeasuredRoute, ProbeStrategy, TraceConfig};
use pt_netsim::scenarios::Scenario;
use pt_netsim::{SimTransport, Simulator};
use pt_topogen::{generate, InternetConfig, SyntheticInternet};

/// A transport bound to a scenario's source over a fresh simulator.
pub fn transport(sc: &Scenario, seed: u64) -> SimTransport {
    SimTransport::new(Simulator::new(sc.topology.clone(), seed), sc.source)
}

/// Trace a scenario destination once with the given strategy.
pub fn trace_scenario(
    sc: &Scenario,
    tx: &mut SimTransport,
    strategy: &mut dyn ProbeStrategy,
) -> MeasuredRoute {
    trace(tx, strategy, sc.destination, TraceConfig::default())
}

/// A small synthetic Internet + campaign, sized for bench time budgets.
pub fn mini_campaign(
    n_destinations: usize,
    rounds: usize,
    seed: u64,
) -> (SyntheticInternet, CampaignResult) {
    let net = generate(&InternetConfig { n_destinations, seed, ..InternetConfig::default() });
    let config = CampaignConfig { rounds, workers: 8, seed, ..CampaignConfig::default() };
    let result = run(&net, &config);
    (net, result)
}

/// Print one paper-vs-measured row.
pub fn row(label: &str, paper: f64, measured: f64) {
    println!("  {label:<52} paper {paper:>8.2}   measured {measured:>8.2}");
}

/// Print a section header.
pub fn header(experiment: &str, what: &str) {
    println!("\n=== {experiment}: {what} ===");
}
