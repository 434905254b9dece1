//! `ptbench` - the repository's one benchmark: four campaign
//! workloads, ten end-to-end metrics, and a per-layer cost ledger from
//! a traced pass. See `README.md` beside this file for the reasoning
//! behind every workload, metric and bound.
//!
//! ```text
//! ptbench [--seed S] [--quick] [--out FILE]     every workload: 41 interleaved repetitions
//!                                               each, then the traced pass; table + JSON
//! ptbench --workload W --seed S --seconds N --trace 0|1
//!                                               one workload for the benchmark driver: one
//!                                               JSON object as the last line of stdout
//! ptbench --compare a.json b.json               hold record b against base a
//! ```
//!
//! The engine crates are measured from outside only: by timing calls
//! into their public functions and by wrapping `SimTransport` in this
//! binary's own `TimedTransport`.

// Wall-clock timing is this binary's whole purpose.
#![allow(clippy::disallowed_methods)]

mod alloc;
mod compare;
mod json;
mod layers;
mod metrics;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use metrics::WORKLOADS;
use report::{BoxInfo, RunRecord, WorkloadRecord};
use workloads::{Prepared, Sizes};

#[global_allocator]
static GLOBAL: alloc::CountingAllocator = alloc::CountingAllocator;

/// Set-ups per workload in a timed run; `setup_s` is their quiet
/// estimate. The driver holds `setup_s` to a bound between commits and
/// asks for several set-ups per run: the seed box timed one and the
/// same piece of work anywhere between 0.47 s and 0.82 s within a day.
const SETUPS: usize = 5;
/// Timed repetitions per workload in a full run: enough for the p10
/// the wall-clock metrics rest on to have four samples below it, and
/// for p75 to have ten beyond it.
const REPETITIONS: usize = 41;
/// Traced/untraced pass pairs per workload in a full run.
const TRACED_PASSES: usize = 5;
const QUICK_REPETITIONS: usize = 3;
const DEFAULT_SEED: u64 = 2006;

/// When a measuring loop stops. Both rules are needed: the issue fixes
/// the full run's counts, the driver's protocol fixes `--seconds`.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// After this many samples: a full run, identical on every commit.
    Count(usize),
    /// After this many seconds (and at least three samples): a driver
    /// run, whose length the driver sets.
    Seconds(f64),
}

impl Until {
    pub fn done(&self, samples: usize, started: Instant) -> bool {
        match *self {
            Until::Count(n) => samples >= n,
            Until::Seconds(s) => samples >= 3 && started.elapsed().as_secs_f64() >= s,
        }
    }
}

/// What one invocation measures.
struct Plan {
    seed: u64,
    sizes: Sizes,
    workloads: Vec<usize>,
    setups: usize,
    /// Timed repetitions per workload; `None` skips the end-to-end side.
    repetitions: Option<Until>,
    /// Traced passes per workload; `None` skips the per-layer side.
    traced: Option<Until>,
}

/// Where the benchmark may write: the span dumps, the JSON record and
/// `checkpoint_churn`'s snapshots all live under the build directory.
fn scratch_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    target.join("ptbench")
}

fn measure(plan: &Plan, scratch: &Path) -> Vec<WorkloadRecord> {
    // Set every workload up, `setups` times over; keep the last.
    let prepared: Vec<(Prepared, Vec<f64>)> = plan
        .workloads
        .iter()
        .map(|&w| {
            let mut setup_s = Vec::with_capacity(plan.setups);
            let mut last = None;
            for _ in 0..plan.setups {
                // Drop the previous set-up first: one net live at a time.
                drop(last.take());
                let p = Prepared::new(w, plan.seed, plan.sizes, scratch);
                setup_s.push(p.setup_s);
                last = Some(p);
            }
            (last.expect("at least one set-up"), setup_s)
        })
        .collect();

    // Timed repetitions, round-robin across workloads so that a noisy
    // phase of a shared box falls on all of them alike.
    let mut reps: Vec<Vec<_>> = prepared.iter().map(|_| Vec::new()).collect();
    if let Some(until) = plan.repetitions {
        let started = Instant::now();
        while !until.done(reps[0].len(), started) {
            for ((p, _), reps) in prepared.iter().zip(&mut reps) {
                reps.push(p.repetition());
            }
        }
    }

    prepared
        .into_iter()
        .zip(reps)
        .map(|((p, setup_s), reps)| {
            let layers = plan
                .traced
                .map(|passes| layers::measure(&p.inputs, plan.seed, plan.sizes, passes, scratch));
            WorkloadRecord {
                workload: p.inputs.workload,
                workers: p.inputs.engine.workers(),
                units: p.inputs.units,
                n_dests: p.inputs.net.dests.len() as u64,
                setup_s,
                warmup: p.warmup,
                reps,
                layers,
            }
        })
        .collect()
}

struct Args {
    seed: u64,
    quick: bool,
    workload: Option<usize>,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        seed: DEFAULT_SEED,
        quick: false,
        workload: None,
        seconds: 10.0,
        trace: false,
        out: None,
        compare: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => {
                args.seed =
                    value()?.parse().map_err(|_| "--seed takes a whole number".to_owned())?
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    WORKLOADS
                        .iter()
                        .position(|w| w.name == name)
                        .ok_or_else(|| format!("no workload named {name}"))?,
                );
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(value()?.into()),
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ptbench: {e}\nusage: ptbench [--seed S] [--quick] [--out FILE]\n       ptbench --workload W --seed S --seconds N --trace 0|1\n       ptbench --compare a.json b.json");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return ExitCode::from(compare::run(a, b) as u8);
    }

    let scratch = scratch_dir();
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("ptbench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let sizes = if args.quick { Sizes::QUICK } else { Sizes::FULL };
    let plan = match args.workload {
        // The driver's protocol: one workload, one side, timed by it.
        Some(workload) => Plan {
            seed: args.seed,
            sizes,
            workloads: vec![workload],
            setups: if args.trace { 1 } else { SETUPS },
            repetitions: (!args.trace).then_some(Until::Seconds(args.seconds)),
            traced: args.trace.then_some(Until::Seconds(args.seconds / 2.0)),
        },
        None => Plan {
            seed: args.seed,
            sizes,
            workloads: (0..WORKLOADS.len()).collect(),
            setups: if args.quick { 1 } else { SETUPS },
            repetitions: Some(Until::Count(if args.quick {
                QUICK_REPETITIONS
            } else {
                REPETITIONS
            })),
            traced: Some(Until::Count(if args.quick { 1 } else { TRACED_PASSES })),
        },
    };

    let record = RunRecord {
        seed: args.seed,
        quick: args.quick,
        machine: BoxInfo::detect(),
        workloads: measure(&plan, &scratch),
    };
    let correct = record.correct();
    // The full record (every sample included) goes to disk in both
    // modes; the driver reads only the result line.
    let path = args.out.unwrap_or_else(|| match args.workload {
        Some(w) => scratch.join(format!(
            "ptbench-{}-trace{}.json",
            WORKLOADS[w].name,
            u8::from(args.trace)
        )),
        None => scratch.join("ptbench.json"),
    });
    if let Err(e) = std::fs::write(&path, record.to_json().to_json_pretty()) {
        eprintln!("ptbench: cannot write {}: {e}", path.display());
        return ExitCode::from(2);
    }
    if args.workload.is_some() {
        eprint!("{}", record.render(false));
        eprintln!("ptbench: record written to {}", path.display());
        println!("{}", record.workloads[0].driver_line());
    } else {
        print!("{}", record.render(true));
        println!("ptbench: record written to {}", path.display());
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use crate::metrics::{END_TO_END, PER_LAYER};

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ptbench-test-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Every workload end to end at toy sizes: both sides measured,
    /// every check passing, every metric a finite number, the driver
    /// line in the contract's shape, and a record that does not compare
    /// worse than itself.
    #[test]
    fn the_whole_benchmark_runs_at_toy_sizes() {
        let scratch = temp_dir("whole");
        let plan = Plan {
            seed: 11,
            sizes: Sizes::TINY,
            workloads: (0..WORKLOADS.len()).collect(),
            setups: 1,
            repetitions: Some(Until::Count(2)),
            traced: Some(Until::Count(1)),
        };
        let mut record = RunRecord {
            seed: plan.seed,
            quick: false,
            machine: BoxInfo { nproc: 1, cpu: "test".into(), rustc: "test".into() },
            workloads: measure(&plan, &scratch),
        };
        for w in &record.workloads {
            assert!(w.correct(), "{}: {:?}", w.name(), w.checks());
            assert_eq!(w.checks().len(), 4, "{}", w.name());
            assert_eq!((w.reps.len(), w.failed()), (2, 0), "{}", w.name());
            for (m, v) in END_TO_END.iter().zip(w.end_to_end()) {
                assert!(v.is_finite(), "{} {} = {v}", w.name(), m.name);
                assert!(
                    v > 0.0 || m.name == metrics::FAILED_SHARE,
                    "{} {} = {v}",
                    w.name(),
                    m.name
                );
            }
            for (m, v) in PER_LAYER.iter().zip(w.per_layer()) {
                assert!(v.is_finite(), "{} {} = {v}", w.name(), m.name);
            }
            assert!(scratch.join(format!("spans-{}.tsv", w.name())).exists());
        }
        assert!(record.render(true).contains("every output check passed"));

        let json = parse(&record.to_json().to_json_pretty()).expect("the record is JSON");
        let (table, any_worse) = compare::compare(&json, &json).expect("a record matches itself");
        // (Two toy repetitions may well be too loose to resolve; they
        // can never read as worse than themselves.)
        assert!(!any_worse, "{table}");
        record.quick = true;
        assert!(compare::compare(&record.to_json(), &record.to_json()).is_err());

        // The driver's result line: --trace 1 shape, then --trace 0.
        let w = &mut record.workloads[0];
        for expected in [PER_LAYER.len(), END_TO_END.len() - 1] {
            let line = parse(&w.driver_line()).expect("the driver line is JSON");
            let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
            assert!(line.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
            assert_eq!(line.get("metrics").unwrap().fields().len(), expected);
            w.layers = None;
        }
        std::fs::remove_dir_all(&scratch).unwrap();
    }

    /// A repetition whose digest is not the reference's fails the
    /// command: the check turns false and every unit counts as failed.
    #[test]
    fn a_wrong_digest_fails_every_unit_and_the_run() {
        let scratch = temp_dir("digest");
        let plan = Plan {
            seed: 11,
            sizes: Sizes::TINY,
            workloads: vec![metrics::SURVEY],
            setups: 1,
            repetitions: Some(Until::Count(1)),
            traced: None,
        };
        let mut w = measure(&plan, &scratch).pop().unwrap();
        assert!(w.correct() && w.failed() == 0);
        w.reps[0].digest_ok = false;
        w.reps[0].failed_units = w.units;
        assert!(!w.correct());
        assert_eq!(w.failed(), w.units);
        let line = parse(&w.driver_line()).unwrap();
        assert_eq!(line.get("correct"), Some(&Value::Bool(false)));
        std::fs::remove_dir_all(&scratch).unwrap();
    }

    #[test]
    fn arguments_parse_in_the_drivers_order_and_reject_nonsense() {
        let parse = |line: &str| parse_args(line.split_whitespace().map(str::to_owned));
        let a = parse("--workload hostile_adaptive --seed 9 --seconds 15 --trace 1").unwrap();
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Some(2), 9, 15.0, true));
        let a = parse("--quick --out x.json").unwrap();
        assert!(a.quick && a.workload.is_none() && a.seed == DEFAULT_SEED);
        assert!(parse("--compare a.json b.json").unwrap().compare.is_some());
        for bad in ["--workload nope", "--seed", "--trace 2", "--seconds -1", "--frobnicate"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn measuring_loops_stop_by_count_or_by_clock() {
        let now = Instant::now();
        assert!(!Until::Count(3).done(2, now) && Until::Count(3).done(3, now));
        // By the clock, but never before three samples.
        assert!(!Until::Seconds(0.0).done(2, now) && Until::Seconds(0.0).done(3, now));
        assert!(!Until::Seconds(3600.0).done(1000, now));
    }
}
