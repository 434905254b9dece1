//! Umbrella crate re-exporting the Paris traceroute reproduction workspace.
#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

pub use pt_anomaly as anomaly;
pub use pt_campaign as campaign;
pub use pt_core as core;
pub use pt_mda as mda;
pub use pt_netsim as netsim;
pub use pt_topogen as topogen;
pub use pt_wire as wire;
