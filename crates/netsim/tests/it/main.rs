//! The simulator's integration suite, as one test binary: one module per
//! property family, all linked against `pt-netsim` once. Pick a module
//! with a path filter: `cargo test -p pt-netsim --test it proptest_sim::`.
//!
//! `tests/degree_independence.rs` stays a binary of its own: it times
//! the wall clock, which tests running beside it in this process would
//! disturb.

mod proptest_arena;
mod proptest_routing;
mod proptest_sim;
mod proptest_wheel;
