//! `ptbench --compare a.json b.json`: hold record `b` against base `a`,
//! workload by workload and metric by metric, with the benchmark's own
//! bounds. This is the bench-report of ROADMAP item 1.

use std::fmt::Write as _;
use std::path::Path;

use crate::json::{parse, Value};
use crate::metrics::{Better, EndToEndDef, END_TO_END};
use crate::stats::Summary;

/// How `b` stands against `a` on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The records' own samples spread wider than the bound and the
    /// two sets overlap: the records cannot tell.
    Unresolved,
    /// An exact metric that differs, for the better: not a regression,
    /// but the code's behaviour changed or is not deterministic.
    Changed,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Changed => "changed",
        }
    }
}

/// Wall-time samples behind a metric (lower is better for all of
/// them), if it has any.
fn samples_key(metric: &str) -> Option<&'static str> {
    match metric {
        "setup_s" => Some("setup_s_samples"),
        "units_per_s" | "probes_per_s" => Some("repetition_wall_s_samples"),
        _ => None,
    }
}

fn samples(workload: &Value, key: &str) -> Vec<f64> {
    workload
        .get(key)
        .and_then(Value::as_arr)
        .map(|items| items.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// Direction-adjusted relative change of `b` against base `a`: positive
/// means `b` is worse.
fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    if a == b {
        return 0.0;
    }
    if a == 0.0 {
        return f64::INFINITY * if (b > a) == (better == Better::Lower) { 1.0 } else { -1.0 };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// The rule of the choosing-metrics guide, for one pair of records of
/// one seed: an exact metric must not differ at all; a wall-clock
/// metric whose own samples pin it down more loosely than its bound is
/// unresolved unless the two records' low tails (fastest sample to
/// lower quartile, which bracket the quiet estimate) do not even
/// overlap; otherwise the values decide against the bound.
pub fn verdict(m: &EndToEndDef, a: f64, b: f64, a_walls: &[f64], b_walls: &[f64]) -> Verdict {
    if m.exact {
        return match worse_by(a, b, m.better) {
            w if w > 0.0 => Verdict::Worse,
            w if w < 0.0 => Verdict::Changed,
            _ => Verdict::Ok,
        };
    }
    if !a_walls.is_empty() && !b_walls.is_empty() {
        let (sa, sb) = (Summary::of(a_walls), Summary::of(b_walls));
        if sa.spread().max(sb.spread()) > m.bound {
            return if sb.q1 < sa.min {
                Verdict::Ok
            } else if sb.min > sa.q1 {
                Verdict::Worse
            } else {
                Verdict::Unresolved
            };
        }
    }
    if worse_by(a, b, m.better) > m.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.get("ptbench").and_then(Value::as_f64) != Some(1.0) {
        return Err(format!("{}: not a ptbench record", path.display()));
    }
    Ok(doc)
}

/// What must match for two records to be comparable at all.
fn fingerprint(doc: &Value) -> Vec<(&'static str, Option<&Value>)> {
    let machine = doc.get("box");
    vec![
        ("seed", doc.get("seed")),
        ("quick", doc.get("quick")),
        ("nproc", machine.and_then(|b| b.get("nproc"))),
        ("cpu", machine.and_then(|b| b.get("cpu"))),
        ("rustc", machine.and_then(|b| b.get("rustc"))),
        ("workers", machine.and_then(|b| b.get("workers"))),
    ]
}

/// Compare two records. `Ok((text, any_worse))`, or `Err` when they
/// are not comparable.
pub fn compare(a: &Value, b: &Value) -> Result<(String, bool), String> {
    for ((what, in_a), (_, in_b)) in fingerprint(a).into_iter().zip(fingerprint(b)) {
        if in_a != in_b || in_a.is_none() {
            let show = |v: Option<&Value>| v.map_or("missing".to_owned(), Value::to_json);
            return Err(format!(
                "records differ in {what} ({} vs {}): refusing to compare",
                show(in_a),
                show(in_b)
            ));
        }
    }
    if a.get("quick").and_then(Value::as_bool) == Some(true) {
        return Err("--quick records are never comparable".to_owned());
    }

    let mut out = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        out,
        "{:<17} {:<19} {:>16} {:>16} {:>12}  verdict",
        "workload", "metric", "a (base)", "b", "b / a"
    );
    for (name, wa) in a.get("workloads").map_or(&[][..], Value::fields) {
        let wb = b
            .get("workloads")
            .and_then(|w| w.get(name))
            .ok_or_else(|| format!("workload {name} is missing from the second record"))?;
        for m in &END_TO_END {
            let value = |w: &Value| {
                w.get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .and_then(|e| e.get("value"))
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("{name}: no end-to-end {}", m.name))
            };
            let (va, vb) = (value(wa)?, value(wb)?);
            let walls = |w| samples_key(m.name).map_or(Vec::new(), |key| samples(w, key));
            let (walls_a, walls_b) = (walls(wa), walls(wb));
            let verdict = verdict(m, va, vb, &walls_a, &walls_b);
            any_worse |= verdict == Verdict::Worse;
            let ratio = if va == 0.0 {
                if vb == 0.0 {
                    "1 (0/0)".to_owned()
                } else {
                    "n/a (a=0)".to_owned()
                }
            } else {
                format!("{:.4}", vb / va)
            };
            let _ = writeln!(
                out,
                "{name:<17} {:<19} {va:>16.4} {vb:>16.4} {ratio:>12}  {}{}",
                m.name,
                verdict.name(),
                match (m.exact, m.better) {
                    (true, _) => "  (exact at one seed)".to_owned(),
                    (false, better) => format!(
                        "  ({} is better, bound {:.0}%{})",
                        better.name(),
                        m.bound * 100.0,
                        // Why a row is unresolved: the spread of each
                        // record's own samples against that bound.
                        if walls_a.is_empty() || walls_b.is_empty() {
                            String::new()
                        } else {
                            format!(
                                "; spread a {:.0}%, b {:.0}%",
                                Summary::of(&walls_a).spread() * 100.0,
                                Summary::of(&walls_b).spread() * 100.0
                            )
                        }
                    ),
                }
            );
        }
    }
    Ok((out, any_worse))
}

/// The `--compare` command: 0 when nothing is worse, 1 when something
/// is, 2 when the records cannot be compared.
pub fn run(a: &Path, b: &Path) -> i32 {
    match load(a).and_then(|a| load(b).and_then(|b| compare(&a, &b))) {
        Ok((text, any_worse)) => {
            print!("{text}");
            i32::from(any_worse)
        }
        Err(e) => {
            eprintln!("ptbench --compare: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static EndToEndDef {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn verdicts_follow_bounds_spread_and_overlap() {
        let tight_a = [1.00, 1.01, 1.02, 1.01, 1.00];
        let tight_b = [1.03, 1.04, 1.03, 1.05, 1.04];
        let m = def("units_per_s");
        // Steady runs, 3% apart: inside the bound.
        assert_eq!(verdict(m, 1000.0, 970.0, &tight_a, &tight_b), Verdict::Ok);
        // Steady runs, 30% slower: worse.
        assert_eq!(verdict(m, 1000.0, 700.0, &tight_a, &[1.43, 1.44, 1.43, 1.45]), Verdict::Worse);
        // Loose, overlapping low tails: cannot tell, whatever the values say.
        let noisy_a = [1.0, 1.8, 1.4, 1.9, 1.5, 1.6];
        let noisy_b = [1.05, 2.0, 1.5, 1.7, 1.45, 2.1];
        assert_eq!(verdict(m, 1000.0, 990.0, &noisy_a, &noisy_b), Verdict::Unresolved);
        // Loose but disjoint: b's lower quartile beats a's fastest run ...
        assert_eq!(verdict(m, 1000.0, 2000.0, &noisy_a, &[0.5, 0.7, 0.6, 0.9]), Verdict::Ok);
        // ... or b's fastest run loses to a's lower quartile.
        assert_eq!(verdict(m, 1000.0, 500.0, &noisy_a, &[2.0, 2.4, 2.9, 2.2]), Verdict::Worse);
        // Exact metrics: any difference at all shows, either way.
        let exact = def("probes_per_dest");
        assert_eq!(verdict(exact, 19.8, 19.8, &[], &[]), Verdict::Ok);
        assert_eq!(verdict(exact, 19.8, 19.81, &[], &[]), Verdict::Worse);
        assert_eq!(verdict(exact, 19.8, 19.7, &[], &[]), Verdict::Changed);
        // Sample-less host metrics use the bound on the values alone.
        let allocs = def("allocs_per_unit");
        assert_eq!(verdict(allocs, 1.0, 1.0 + allocs.bound / 2.0, &[], &[]), Verdict::Ok);
        assert_eq!(verdict(allocs, 1.0, 1.0 + allocs.bound * 2.0, &[], &[]), Verdict::Worse);
    }

    fn record(seed: u64, units_per_s: f64) -> Value {
        let end_to_end = Value::obj(END_TO_END.iter().map(|m| {
            let v = if m.name == "units_per_s" { units_per_s } else { 1.0 };
            (m.name, Value::obj([("value", Value::Num(v))]))
        }));
        Value::obj([
            ("ptbench", Value::Num(1.0)),
            ("seed", Value::str(seed.to_string())),
            ("quick", Value::Bool(false)),
            (
                "box",
                Value::obj([
                    ("nproc", Value::Num(2.0)),
                    ("cpu", Value::str("cpu")),
                    ("rustc", Value::str("rustc 1")),
                    ("workers", Value::obj([("survey", Value::Num(1.0))])),
                ]),
            ),
            (
                "workloads",
                Value::obj([(
                    "survey",
                    Value::obj([
                        ("end_to_end", end_to_end),
                        ("repetition_wall_s_samples", Value::nums(&[1.0, 1.01, 1.0, 1.02])),
                        ("setup_s_samples", Value::nums(&[0.5, 0.5, 0.5])),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn compare_prints_ratios_with_their_base_and_refuses_mismatched_records() {
        let (text, worse) = compare(&record(1, 100.0), &record(1, 101.0)).unwrap();
        assert!(!worse, "{text}");
        assert!(text.contains("b / a") && text.contains("1.0100"), "{text}");
        let (text, worse) = compare(&record(1, 100.0), &record(1, 50.0)).unwrap();
        assert!(worse && text.contains("worse"), "{text}");
        // Two seeds that are one and the same f64.
        let err = compare(&record(1 << 53, 100.0), &record((1 << 53) + 1, 100.0)).unwrap_err();
        assert!(err.contains("seed"), "{err}");
    }
}
