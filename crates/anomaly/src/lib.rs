//! # pt-anomaly — traceroute anomaly detection and cause classification
//!
//! Implements §4 of the paper: the formal definitions of **loops**,
//! **cycles** and **diamonds** over measured routes, the per-route cause
//! classifiers built on Paris traceroute's side information (probe TTL,
//! response TTL, IP ID, unreachable flags), and the campaign-level
//! statistics — including the classic-vs-Paris differencing that yields
//! the paper's headline estimates (87% of loops, 78% of cycles and 64% of
//! diamonds caused by per-flow load balancing).

#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

pub mod codec;
pub mod cycle;
pub mod diamond;
mod keyset;
pub mod r#loop;
pub mod stats;

pub use cycle::{find_cycles, for_each_cycle, CycleCause, CycleInstance};
pub use diamond::{for_each_triple, DestinationGraph, Diamond};
pub use r#loop::{find_loops, for_each_loop, LoopCause, LoopInstance};
pub use stats::{compare, CampaignAccumulator, ComparisonReport, Signature, ToolReport};
