//! One workload's measurements, the metrics derived from them, the
//! output checks, and the two renderings: the table a person reads and
//! the JSON record `--compare` reads back.

use std::fmt::Write as _;

use crate::json::Value;
use crate::layers::TracedOutcome;
use crate::metrics::{CHECKPOINT_CHURN, END_TO_END, FAILED_SHARE, PER_LAYER, WORKLOADS};
use crate::stats::{median, quiet, Summary};
use crate::workloads::{nproc, RepOutcome};

/// Everything measured for one workload in one invocation.
pub struct WorkloadRecord {
    pub workload: usize,
    /// Worker threads the campaign actually ran with.
    pub workers: usize,
    /// `(destination, round)` units per repetition.
    pub units: u64,
    pub n_dests: u64,
    /// One wall time per set-up.
    pub setup_s: Vec<f64>,
    pub warmup: RepOutcome,
    /// Timed repetitions (none in a `--trace 1` run).
    pub reps: Vec<RepOutcome>,
    /// The traced pass (none in a `--trace 0` run).
    pub layers: Option<TracedOutcome>,
}

impl WorkloadRecord {
    pub fn name(&self) -> &'static str {
        WORKLOADS[self.workload].name
    }

    pub fn rep_walls(&self) -> Vec<f64> {
        self.reps.iter().map(|r| r.wall_s).collect()
    }

    /// The end-to-end metrics, in `END_TO_END` order. Simulated figures
    /// come from the first timed repetition (every repetition's digest
    /// is checked equal), wall times from the quiet estimate over
    /// repetitions, allocation counts from their median.
    pub fn end_to_end(&self) -> Vec<f64> {
        let first = &self.reps[0];
        let units = self.units as f64;
        let wall = quiet(&self.rep_walls());
        let per_unit = |f: fn(&RepOutcome) -> u64| {
            median(&self.reps.iter().map(|r| f(r) as f64 / units).collect::<Vec<_>>())
        };
        END_TO_END
            .iter()
            .map(|m| match m.name {
                "setup_s" => quiet(&self.setup_s),
                "units_per_s" => units / wall,
                "probes_per_s" => first.probes as f64 / wall,
                "virtual_s_per_dest" => first.virtual_s_per_dest,
                "probes_per_dest" => first.probes as f64 / units,
                "accuracy" => first.accuracy,
                FAILED_SHARE => self.failed() as f64 / self.attempted() as f64,
                "allocs_per_unit" => per_unit(|r| r.alloc.allocs),
                "alloc_kib_per_unit" => per_unit(|r| r.alloc.bytes) / 1024.0,
                "peak_heap_kib" => {
                    self.reps.iter().map(|r| r.alloc.peak_growth).max().unwrap_or(0) as f64 / 1024.0
                }
                other => unreachable!("no definition for end-to-end metric {other}"),
            })
            .collect()
    }

    /// The per-layer metrics, in `PER_LAYER` order.
    pub fn per_layer(&self) -> Vec<f64> {
        let values = &self.layers.as_ref().expect("a traced pass ran").values;
        PER_LAYER
            .iter()
            .map(|m| {
                values
                    .iter()
                    .find(|(name, _)| *name == m.name)
                    .unwrap_or_else(|| panic!("the traced pass did not measure {}", m.name))
                    .1
            })
            .collect()
    }

    /// Units attempted: timed repetitions' and the traced loops'.
    pub fn attempted(&self) -> u64 {
        self.reps.len() as u64 * self.units + self.layers.as_ref().map_or(0, |l| l.units_traced)
    }

    pub fn failed(&self) -> u64 {
        self.reps.iter().map(|r| r.failed_units).sum()
    }

    /// The output checks; any `false` fails the command.
    pub fn checks(&self) -> Vec<(&'static str, bool)> {
        let all = || std::iter::once(&self.warmup).chain(&self.reps);
        let mut checks = vec![
            // Repetition 1's digest for the three plain workloads; an
            // uninterrupted single-worker `run`'s for checkpoint_churn.
            ("digest_equals_reference", all().all(|r| r.digest_ok)),
            ("no_false_balancers", all().all(|r| r.false_balancers == 0)),
        ];
        if let Some(layers) = &self.layers {
            checks.push(("traced_totals_equal_untraced_twin", layers.twin_equal));
            checks.push(("unit_self_times_sum_to_unit_span", layers.self_sum_ok));
        }
        checks
    }

    pub fn correct(&self) -> bool {
        self.checks().iter().all(|(_, ok)| *ok)
    }

    /// The driver contract's result line.
    pub fn driver_line(&self) -> String {
        let metric = |value: f64, unit: &str| {
            Value::obj([("value", Value::Num(value)), ("unit", Value::str(unit))])
        };
        let metrics: Vec<(&str, Value)> = if self.layers.is_some() {
            PER_LAYER
                .iter()
                .zip(self.per_layer())
                .map(|(m, v)| (m.name, metric(v, m.unit)))
                .collect()
        } else {
            END_TO_END
                .iter()
                .zip(self.end_to_end())
                .filter(|(m, _)| m.name != FAILED_SHARE)
                .map(|(m, v)| (m.name, metric(v, m.unit)))
                .collect()
        };
        Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted().max(1) as f64)),
            ("failed", Value::Num(self.failed() as f64)),
            ("metrics", Value::obj(metrics)),
        ])
        .to_json()
    }

    fn to_json(&self) -> Value {
        let mut fields = vec![
            ("workers", Value::Num(self.workers as f64)),
            ("units_per_repetition", Value::Num(self.units as f64)),
            ("destinations", Value::Num(self.n_dests as f64)),
            ("attempted", Value::Num(self.attempted() as f64)),
            ("failed", Value::Num(self.failed() as f64)),
            ("setup_s_samples", Value::nums(&self.setup_s)),
        ];
        if !self.reps.is_empty() {
            let s = Summary::of(&self.rep_walls());
            fields.push(("repetition_wall_s_samples", Value::nums(&self.rep_walls())));
            fields.push((
                "repetition_wall_s",
                Value::obj([
                    ("n", Value::Num(s.n as f64)),
                    ("min", Value::Num(s.min)),
                    ("p10", Value::Num(s.p10)),
                    ("q1", Value::Num(s.q1)),
                    ("median", Value::Num(s.median)),
                    ("p75", Value::Num(s.q3)),
                ]),
            ));
            fields.push((
                "end_to_end",
                Value::obj(END_TO_END.iter().zip(self.end_to_end()).map(|(m, v)| {
                    (
                        m.name,
                        Value::obj([
                            ("value", Value::Num(v)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.name())),
                            ("bound", Value::Num(m.bound)),
                            ("exact", Value::Bool(m.exact)),
                        ]),
                    )
                })),
            ));
        }
        if self.layers.is_some() {
            fields.push((
                "per_layer",
                Value::obj(PER_LAYER.iter().zip(self.per_layer()).map(|(m, v)| {
                    (
                        m.name,
                        Value::obj([
                            ("value", Value::Num(v)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.name())),
                        ]),
                    )
                })),
            ));
        }
        fields.push((
            "checks",
            Value::obj(self.checks().into_iter().map(|(name, ok)| (name, Value::Bool(ok)))),
        ));
        Value::obj(fields)
    }

    fn render(&self, out: &mut String) {
        let def = &WORKLOADS[self.workload];
        let _ = writeln!(out, "\n== {} ==\n   {}", def.name, def.why);
        let _ = writeln!(
            out,
            "   {} units per repetition over {} destinations, {} worker(s){}",
            self.units,
            self.n_dests,
            self.workers,
            if self.workload == CHECKPOINT_CHURN && self.workers < 2 {
                " - one hardware thread: the two-worker merge path did not run"
            } else {
                ""
            }
        );
        if !self.reps.is_empty() {
            let s = Summary::of(&self.rep_walls());
            let _ = writeln!(
                out,
                "   repetition wall: quiet (p10) {:.4} s; min {:.4}, q1 {:.4}, median {:.4}, p75 {:.4}, \
                 n = {}",
                s.p10, s.min, s.q1, s.median, s.q3, s.n
            );
            let _ = writeln!(out, "   end-to-end (untraced):");
            for (m, v) in END_TO_END.iter().zip(self.end_to_end()) {
                let _ = writeln!(
                    out,
                    "     {:<22} {:>16} {:<9} {:<6} bound {:>2.0}%{}",
                    m.name,
                    figure(v),
                    m.unit,
                    m.better.name(),
                    m.bound * 100.0,
                    if m.exact { ", exact at one seed" } else { "" }
                );
            }
        }
        if self.layers.is_some() {
            let _ = writeln!(out, "   per-layer (traced pass; no bound):");
            for (m, v) in PER_LAYER.iter().zip(self.per_layer()) {
                let _ = writeln!(
                    out,
                    "     {:<40} {:>16} {:<7} {}",
                    m.name,
                    figure(v),
                    m.unit,
                    m.better.name()
                );
            }
        }
        for (name, ok) in self.checks() {
            let _ = writeln!(out, "   check {name}: {}", if ok { "ok" } else { "FAILED" });
        }
    }
}

/// Four significant decimals for small values, none wasted on big ones.
fn figure(v: f64) -> String {
    if v != 0.0 && v.abs() < 100.0 {
        format!("{v:.4}")
    } else {
        format!("{v:.1}")
    }
}

/// The box and build a record was measured on; `--compare` refuses
/// records whose fingerprints differ.
pub struct BoxInfo {
    pub nproc: usize,
    pub cpu: String,
    /// The compiler that built this binary (`build.rs`).
    pub rustc: String,
}

impl BoxInfo {
    pub fn detect() -> BoxInfo {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        BoxInfo { nproc: nproc(), cpu, rustc: env!("PTBENCH_RUSTC").to_owned() }
    }
}

/// A whole invocation.
pub struct RunRecord {
    pub seed: u64,
    pub quick: bool,
    pub machine: BoxInfo,
    pub workloads: Vec<WorkloadRecord>,
}

impl RunRecord {
    pub fn correct(&self) -> bool {
        self.workloads.iter().all(WorkloadRecord::correct)
    }

    pub fn to_json(&self) -> Value {
        Value::obj([
            ("ptbench", Value::Num(1.0)),
            // A string: a u64 above 2^53 does not survive a JSON number.
            ("seed", Value::str(self.seed.to_string())),
            ("quick", Value::Bool(self.quick)),
            ("correct", Value::Bool(self.correct())),
            (
                "box",
                Value::obj([
                    ("nproc", Value::Num(self.machine.nproc as f64)),
                    ("cpu", Value::str(&*self.machine.cpu)),
                    ("rustc", Value::str(&*self.machine.rustc)),
                    (
                        "workers",
                        Value::obj(
                            self.workloads.iter().map(|w| (w.name(), Value::Num(w.workers as f64))),
                        ),
                    ),
                ]),
            ),
            ("workloads", Value::obj(self.workloads.iter().map(|w| (w.name(), w.to_json())))),
        ])
    }

    /// The table a person reads; `legend` appends every metric's
    /// definition and prediction.
    pub fn render(&self, legend: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "ptbench: seed {}{}; {} hardware thread(s), {}, {}",
            self.seed,
            if self.quick { ", QUICK sizes (never comparable)" } else { "" },
            self.machine.nproc,
            self.machine.cpu,
            self.machine.rustc
        );
        for w in &self.workloads {
            w.render(&mut out);
        }
        if legend {
            let _ = writeln!(out, "\nend-to-end metrics:");
            for m in &END_TO_END {
                let _ = writeln!(out, "   {:<22} {}", m.name, m.what);
            }
            let _ = writeln!(out, "per-layer metrics, and what each should move:");
            for m in &PER_LAYER {
                let _ = writeln!(out, "   {:<40} {}", m.name, m.moves);
            }
        }
        let _ = writeln!(
            out,
            "\nptbench: {}",
            if self.correct() { "every output check passed" } else { "OUTPUT CHECKS FAILED" }
        );
        out
    }
}
