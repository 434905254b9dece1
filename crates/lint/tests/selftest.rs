//! Fixture-driven self-tests: every rule fires on its known-bad
//! snippet at the right lines, waivers suppress only with a written
//! reason, and — the gate itself — the real workspace is clean while a
//! seeded violation in engine code fails.

use std::path::Path;

use pt_lint::rules::RuleSet;
use pt_lint::{lint_source, lint_workspace, rules_for_path};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} must be readable: {e}", path.display()))
}

/// Lines at which `rule` fires when linting `name` as engine code.
fn lines_for(name: &str, rule: &str) -> Vec<u32> {
    let src = fixture(name);
    let (violations, _) = lint_source(&format!("crates/x/src/{name}"), &src, RuleSet::engine());
    violations.iter().filter(|v| v.rule == rule).map(|v| v.line).collect()
}

#[test]
fn d1_fires_on_default_hasher_maps_at_the_right_lines() {
    assert_eq!(lines_for("d1_map_order.rs", "map-order"), vec![7, 10, 11, 13, 18]);
}

#[test]
fn d2_fires_on_wall_clock_reads() {
    assert_eq!(lines_for("d2_wall_clock.rs", "wall-clock"), vec![7, 11, 12]);
}

#[test]
fn d3_fires_on_ambient_entropy() {
    assert_eq!(lines_for("d3_entropy.rs", "entropy"), vec![4, 9]);
}

#[test]
fn d4_fires_on_bare_unwrap_but_not_in_tests_or_named_expects() {
    assert_eq!(lines_for("d4_bare_unwrap.rs", "bare-unwrap"), vec![4, 9]);
}

#[test]
fn d5_fires_on_undocumented_unsafe_only() {
    assert_eq!(lines_for("d5_unsafe_block.rs", "unsafe-block"), vec![4]);
}

#[test]
fn d6_fires_on_float_formatting_in_snapshot_writers_only() {
    assert_eq!(lines_for("d6_float_format.rs", "float-format"), vec![6, 8, 11]);
}

#[test]
fn d6_arms_for_the_whole_file_when_it_is_named_snapshot_rs() {
    let src = "pub fn emit(out: &mut String, mean: f64) {\n    use std::fmt::Write;\n    \
               let _ = writeln!(out, \"m {}\", mean);\n}\n";
    let (in_snapshot, _) = lint_source("crates/x/src/snapshot.rs", src, RuleSet::engine());
    assert_eq!(in_snapshot.iter().filter(|v| v.rule == "float-format").count(), 1);
    let (elsewhere, _) = lint_source("crates/x/src/report.rs", src, RuleSet::engine());
    assert_eq!(elsewhere.iter().filter(|v| v.rule == "float-format").count(), 0);
}

#[test]
fn waivers_suppress_with_reason_and_only_with_reason() {
    let src = fixture("waivers.rs");
    let (violations, used) = lint_source("crates/x/src/waivers.rs", &src, RuleSet::engine());
    let d1: Vec<u32> =
        violations.iter().filter(|v| v.rule == "map-order").map(|v| v.line).collect();
    let w0: Vec<u32> = violations.iter().filter(|v| v.code == "W0").map(|v| v.line).collect();
    // Waived lines 6 and 7 are clean; unwaived/malformed ones are not.
    assert_eq!(d1, vec![13, 16, 19]);
    // The empty reason and the unknown rule are violations themselves.
    assert_eq!(w0, vec![12, 15]);
    assert_eq!(used, 2, "both well-formed waivers must register as used");
}

#[test]
fn rules_match_the_path_policy() {
    assert!(rules_for_path("crates/netsim/src/sim.rs").expect("engine file in scope").map_order);
    assert!(rules_for_path("src/lib.rs").expect("umbrella crate in scope").bare_unwrap);
    let bench =
        rules_for_path("crates/bench/src/bin/ptbench/src/main.rs").expect("ptbench in scope");
    assert!(!bench.wall_clock && bench.entropy && bench.unsafe_block);
    let tests = rules_for_path("tests/determinism.rs").expect("tests in scope");
    assert!(tests.wall_clock && !tests.map_order && !tests.bare_unwrap);
    assert!(rules_for_path("support/rand/src/lib.rs").is_none(), "support is out of scope");
    assert!(rules_for_path("target/debug/build/x.rs").is_none());
    assert!(
        rules_for_path("crates/lint/tests/fixtures/d1_map_order.rs").is_none(),
        "known-bad fixtures must not fail the workspace run"
    );
}

/// The acceptance gate, as a test: the actual workspace passes its own
/// lint. This is the same scan CI's `lint` job runs.
#[test]
fn the_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf();
    assert!(root.join("Cargo.toml").exists(), "workspace root must hold Cargo.toml");
    let outcome = lint_workspace(&root);
    let rendered: String = outcome.violations.iter().map(pt_lint::render).collect();
    assert!(outcome.violations.is_empty(), "workspace must be lint-clean:\n{rendered}");
    assert!(outcome.files_scanned > 50, "the scan must actually cover the workspace");
}

/// Seeding any single D1–D6 violation into a real engine source must
/// make the lint fail — the regression the tool exists to catch.
#[test]
fn seeding_each_rule_into_real_engine_code_fails() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let target = root.join("crates/netsim/src/routing.rs");
    let clean = std::fs::read_to_string(&target).expect("engine source must be readable");
    let seeds: [(&str, &str); 6] = [
        ("map-order", "pub fn seeded() -> std::collections::HashMap<u32, u32> { todo!() }"),
        ("wall-clock", "pub fn seeded() -> u128 { Instant::now().elapsed().as_nanos() }"),
        ("entropy", "pub fn seeded() -> u64 { rand::thread_rng().next_u64() }"),
        ("bare-unwrap", "pub fn seeded(x: Option<u32>) -> u32 { x.unwrap() }"),
        ("unsafe-block", "pub fn seeded(b: &[u8]) -> u8 { unsafe { *b.get_unchecked(0) } }"),
        (
            "float-format",
            "pub fn snapshot_write(out: &mut String, mean: f64) {\n    use std::fmt::Write;\n    \
             let _ = writeln!(out, \"m {}\", mean);\n}",
        ),
    ];
    let rules = rules_for_path("crates/netsim/src/routing.rs").expect("engine path in scope");
    let (base, _) = lint_source("crates/netsim/src/routing.rs", &clean, rules);
    assert!(base.is_empty(), "the unmodified engine file must be clean");
    for (rule, seed) in seeds {
        let poisoned = format!("{clean}\n{seed}\n");
        let (violations, _) = lint_source("crates/netsim/src/routing.rs", &poisoned, rules);
        assert!(
            violations.iter().any(|v| v.rule == rule),
            "seeded {rule} violation must be caught; got: {violations:?}"
        );
    }
}
