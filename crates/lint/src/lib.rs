//! `pt-lint`: the workspace determinism/purity static-analysis pass.
//!
//! Walks the workspace sources and enforces the repo's determinism
//! invariants as hard rules (D1–D6, see [`rules`]): no randomized map
//! order, no wall clock, no ambient entropy, no context-free panics,
//! no undocumented `unsafe`, no lossy float formatting in snapshot
//! text. Violations can be waived inline — with a mandatory written
//! reason — via `// ptlint: allow(<rule>): <reason>`.
//!
//! Everything is hand-rolled on a small Rust lexer ([`lexer`]): the
//! build environment has no crates.io access, so `syn`/dylint-style
//! tooling is not an option, and the rules only need token streams
//! that cannot misfire inside strings or comments.

pub mod lexer;
pub mod rules;
pub mod scope;
pub mod waiver;

use std::path::{Path, PathBuf};

use lexer::TokKind;
use rules::{FileCtx, RuleSet, Violation};

/// How one lint run went.
pub struct Outcome {
    /// Violations, sorted by path then line.
    pub violations: Vec<Violation>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Waivers that suppressed at least one violation.
    pub waivers_used: usize,
}

/// Decide which rules arm for a workspace-relative path. `None` means
/// the file is out of scope entirely.
///
/// Policy:
/// - `target/`, hidden dirs, and the lint's own known-bad fixtures are
///   skipped.
/// - `support/` is skipped: those crates are offline stand-ins for
///   crates.io dependencies (`rand`, `proptest`) and sit outside the
///   determinism boundary — swapping in the real crates must not
///   change what the lint covers.
/// - `crates/bench/` — today only the benchmark, `ptbench`
///   (`crates/bench/src/bin/ptbench/`) — may time things (that is its
///   job) but still must not draw entropy or hide `unsafe`.
/// - integration tests and examples are exempt from the engine-only
///   rules (D1/D4/D6) but must stay clock- and entropy-clean.
/// - everything else — engine crate sources and the umbrella `src/` —
///   gets all six rules.
pub fn rules_for_path(rel: &str) -> Option<RuleSet> {
    let rel = rel.trim_start_matches("./");
    if !rel.ends_with(".rs") {
        return None;
    }
    let parts: Vec<&str> = rel.split('/').collect();
    if parts.iter().any(|p| *p == "target" || p.starts_with('.')) {
        return None;
    }
    if rel.starts_with("crates/lint/tests/fixtures/") {
        return None;
    }
    if rel.starts_with("support/") {
        return None;
    }
    if rel.starts_with("crates/bench/") {
        return Some(RuleSet { entropy: true, unsafe_block: true, ..RuleSet::default() });
    }
    let is_test_or_example =
        parts.contains(&"tests") || parts.contains(&"examples") || parts.contains(&"benches");
    if is_test_or_example {
        return Some(RuleSet {
            wall_clock: true,
            entropy: true,
            unsafe_block: true,
            ..RuleSet::default()
        });
    }
    Some(RuleSet::engine())
}

/// Lint one file's source under the rules for `rel_path`.
///
/// Waiver handling happens here: well-formed waivers suppress matching
/// violations on their target line; malformed waivers (no reason,
/// unknown rule) are violations themselves and suppress nothing.
pub fn lint_source(rel_path: &str, src: &str, rules: RuleSet) -> (Vec<Violation>, usize) {
    let toks = lexer::lex(src);
    let code: Vec<_> = toks.iter().filter(|t| t.kind != TokKind::Comment).copied().collect();
    let comments: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::Comment).copied().collect();
    let last_line = src.lines().count() as u32 + 1;
    let regions = scope::analyze(&code, last_line);

    let whole_file_snapshot = Path::new(rel_path)
        .file_name()
        .and_then(|f| f.to_str())
        .is_some_and(|f| f == "snapshot.rs");
    let ctx = FileCtx {
        path: rel_path,
        code: &code,
        comments: &comments,
        regions: &regions,
        whole_file_snapshot,
    };
    let mut violations = rules::check(&ctx, rules);

    let mut code_lines: Vec<u32> = code.iter().map(|t| t.line).collect();
    code_lines.dedup();
    let (waivers, waiver_errors) = waiver::collect(&comments, &code_lines);

    let mut used = vec![false; waivers.len()];
    violations.retain(|v| {
        for (w, used) in waivers.iter().zip(used.iter_mut()) {
            if w.rule == v.rule && w.target_line == v.line {
                *used = true;
                return false;
            }
        }
        true
    });
    let waivers_used = used.iter().filter(|u| **u).count();

    for e in waiver_errors {
        violations.push(Violation {
            path: rel_path.to_string(),
            line: e.line,
            rule: "waiver",
            code: "W0",
            msg: e.msg,
        });
    }
    violations.sort_by(|a, b| a.line.cmp(&b.line).then(a.code.cmp(b.code)));
    (violations, waivers_used)
}

/// Recursively collect `.rs` files under `root`, in sorted order so
/// the lint's own output is deterministic.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    let mut entries: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|f| f.to_str()).unwrap_or("");
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Lint every in-scope `.rs` file under `root` (the workspace root).
pub fn lint_workspace(root: &Path) -> Outcome {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files);
    let mut violations = Vec::new();
    let mut files_scanned = 0usize;
    let mut waivers_used = 0usize;
    for path in files {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
        let Some(rules) = rules_for_path(&rel) else { continue };
        let src = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                violations.push(Violation {
                    path: rel.clone(),
                    line: 0,
                    rule: "waiver",
                    code: "W0",
                    msg: format!("unreadable source file: {e}"),
                });
                continue;
            }
        };
        files_scanned += 1;
        let (mut file_violations, used) = lint_source(&rel, &src, rules);
        waivers_used += used;
        violations.append(&mut file_violations);
    }
    violations.sort_by(|a, b| a.path.cmp(&b.path).then(a.line.cmp(&b.line)));
    Outcome { violations, files_scanned, waivers_used }
}

/// Render one violation rustc-style.
pub fn render(v: &Violation) -> String {
    format!("error[{}/{}]: {}\n  --> {}:{}\n", v.code, v.rule, v.msg, v.path, v.line)
}
