//! One violation per determinism rule, each beside the form the gate
//! accepts. Clippy must reject this crate with exactly one error per
//! rule: six errors, naming five lints (D1 and D3 share
//! `disallowed_types`).
#![deny(clippy::unwrap_used)]

use std::hash::BuildHasher;

/// D1 `map-order`: a default-hasher map.
pub fn d1_map_order() -> usize {
    std::collections::HashMap::<u32, u32>::new().len()
}

/// D1 accepted: a fixed-hasher alias declared under a reasoned allow.
#[allow(clippy::disallowed_types, reason = "a fixed hasher orders iteration by the keys alone")]
pub type FixedMap =
    std::collections::HashMap<u32, u32, std::hash::BuildHasherDefault<std::hash::DefaultHasher>>;

/// D1 accepted: the alias's uses.
pub fn d1_accepted() -> usize {
    FixedMap::default().len()
}

/// D2 `wall-clock`.
pub fn d2_wall_clock() -> std::time::Instant {
    std::time::Instant::now()
}

/// D3 `entropy`: a per-process-seeded hasher. `thread_rng`, `OsRng`,
/// `from_entropy` and `getrandom` do not exist in `support/rand`.
pub fn d3_entropy() -> u64 {
    std::hash::RandomState::new().hash_one(0u32)
}

/// D4 `bare-unwrap`.
pub fn d4_bare_unwrap(x: Option<u32>) -> u32 {
    x.unwrap()
}

/// D4 accepted: a named panic.
pub fn d4_accepted(x: Option<u32>) -> u32 {
    x.expect("the caller passes Some")
}

/// D5 `unsafe-block`.
pub fn d5_unsafe_block(b: &[u8]) -> u8 {
    unsafe { *b.get_unchecked(0) }
}

/// D5 accepted: the invariant written down.
pub fn d5_accepted(b: &[u8]) -> u8 {
    assert!(!b.is_empty());
    // SAFETY: the assert above keeps index 0 in bounds.
    unsafe { *b.get_unchecked(0) }
}

/// W0: a waiver without a reason.
#[allow(dead_code)]
fn w0_reasonless() {}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap() {
        assert_eq!("1".parse::<u32>().unwrap(), 1);
    }
}
