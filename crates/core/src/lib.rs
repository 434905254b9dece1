//! # pt-core — the paper's contribution: traceroute engines
//!
//! Implements the probing strategies the paper compares:
//!
//! | Strategy | Per-probe identifier | Flow identifier |
//! |---|---|---|
//! | [`ClassicUdp`] | Destination Port (33435 + n) | **varies** — the bug |
//! | [`ClassicIcmp`] | Sequence Number (checksum drifts) | **varies** — the bug |
//! | [`ParisUdp`] | Checksum (payload-compensated) | constant |
//! | [`ParisIcmp`] | Sequence Number + Identifier (checksum pinned) | constant |
//! | [`ParisTcp`] | Sequence Number | constant |
//! | [`TcpTraceroute`] | IP Identification | constant (Toren's tool) |
//!
//! plus the sans-IO [`trace`] driver that turns a strategy and a
//! [`Transport`] into a [`MeasuredRoute`]: one probe per hop by default
//! (as in the paper's study, §3), 2-second timeouts, halting on
//! Destination Unreachable, at 39 hops, or after exactly eight
//! consecutive stars. The driver keeps up to [`TraceConfig::window`]
//! probes in flight at once (`tracer` module docs) — the virtual-time
//! analogue of the paper's 32 parallel tracing processes — and
//! `window = 1` reproduces the strictly sequential discipline exactly.
//! Crediting each reply to the probe that caused it is [`ProbeWindow`]'s
//! job, shared with `pt-mda`'s multipath walk.
//!
//! The driver also records the three pieces of side information Paris
//! traceroute adds (§2.2): the **probe TTL** (from the quoted IP header),
//! the **response TTL**, and the **IP ID** of the response — the inputs
//! to the anomaly classifiers in `pt-anomaly`.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

pub mod classic;
pub mod paris;
pub mod probe;
pub mod render;
pub mod route;
#[cfg(test)]
mod scripted;
pub mod tcptrace;
pub mod tracer;
pub mod window;

pub use classic::{ClassicIcmp, ClassicUdp};
pub use paris::{ParisIcmp, ParisTcp, ParisUdp};
pub use probe::{prefix_u16, prefix_u32, quotation_for, ProbeSpec, ProbeStrategy, StrategyId};
pub use render::{render, RenderOptions};
pub use route::{HaltReason, Hop, MeasuredRoute, ProbeResult, ResponseKind};
pub use tcptrace::TcpTraceroute;
pub use tracer::{trace, trace_with, TraceConfig, TraceScratch, Transport};
pub use window::{ProbeWindow, Reply};
