//! # pt-topogen — synthetic-Internet generation
//!
//! Stands in for the real Internet of the paper's study (§3): a source
//! behind a two-router access network (the university network the study
//! skips with `min_ttl = 2`), a small full-mesh core (the tier-1s), and
//! one branch per destination carrying a configurable mix of the
//! behaviours the paper blames for anomalies — per-flow and per-packet
//! load balancers over equal- and unequal-length parallel paths, zero-TTL
//! forwarders, broken-forwarding routers, NAT'd stubs, silent routers,
//! firewalled destinations and lossy links.
//!
//! Every generated artifact is recorded in a per-destination
//! [`DestTruth`], so experiments can validate the anomaly classifiers
//! against ground truth — something the paper's authors could only
//! approximate on the real Internet.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

pub mod aslabel;
pub mod internet;

pub use aslabel::{coverage, AsCoverage, AsMap, AsTier, Asn};
pub use internet::{generate, DestInfo, DestTruth, InternetConfig, SyntheticInternet};
