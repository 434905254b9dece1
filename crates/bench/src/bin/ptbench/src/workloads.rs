//! The four workloads, end to end: generate the inputs from the seed,
//! run one repetition through `pt-campaign`'s public entry points with
//! the timed region and the allocator window around exactly that call,
//! and score the result.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use pt_campaign::{
    multipath_digest, report_digest, run, run_checkpointed, run_multipath,
    run_multipath_checkpointed, run_multipath_resumed, run_resumed, validate_fault_recovery,
    validate_multipath, CampaignConfig, CampaignResult, CheckpointConfig, DynamicsConfig,
    MultipathConfig, MultipathResult,
};
use pt_topogen::{generate, InternetConfig, SyntheticInternet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::alloc::{self, AllocStats};
use crate::metrics::{CHECKPOINT_CHURN, HOSTILE_ADAPTIVE, MDA_FANOUT, SURVEY};

/// Input sizes. Everything else about a workload is fixed; the full
/// sizes are the only ones whose numbers are comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Destinations of the default-generator net (`survey`,
    /// `mda_fanout`, `checkpoint_churn`). Throughput depends on this:
    /// the working set, not the code, takes 62k traces/s at 500
    /// destinations to 38k at 2000.
    pub dests: usize,
    /// Destinations of the hostile net.
    pub hostile_dests: usize,
    /// `checkpoint_churn`: units per checkpoint block.
    pub every_units: u32,
    /// `checkpoint_churn`: checkpoints before the simulated kill.
    pub kill_after: usize,
    /// Divides the microbenchmarks' iteration counts: 1 except in the
    /// unit tests, which run unoptimized.
    pub micro_divisor: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        dests: 2000,
        hostile_dests: 1500,
        every_units: 256,
        kill_after: 12,
        micro_divisor: 1,
    };
    pub const QUICK: Sizes =
        Sizes { dests: 200, hostile_dests: 200, every_units: 25, kill_after: 12, micro_divisor: 1 };
    #[cfg(test)]
    pub const TINY: Sizes =
        Sizes { dests: 40, hostile_dests: 40, every_units: 10, kill_after: 3, micro_divisor: 500 };
}

pub const SURVEY_ROUNDS: usize = 6;
pub const CHURN_ROUNDS: usize = 3;

/// The seed the networks are generated from, whatever `--seed` says.
/// The network is the benchmark's data set, like the 2000 destinations:
/// how many of them a generated net firewalls or hides behind MPLS moves
/// `virtual_s_per_dest` by 11% and the allocation counts by as much from
/// one net to the next, which would drown any bound on them. `--seed`
/// varies what is done to the net: the campaign's seed, and through it
/// every unit's simulator seed, flow identifiers, routing dynamics and
/// rate-limiter timing.
const NET_SEED: u64 = 2006;

/// The seeds of one workload. `checkpoint_churn` shares `survey`'s,
/// net included.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    pub net: u64,
    pub campaign: u64,
    /// The traced loops' and microbenchmarks' own draws.
    pub trace: u64,
}

pub fn seeds(seed: u64, workload: usize) -> Seeds {
    let stream = if workload == CHECKPOINT_CHURN { SURVEY } else { workload };
    let rng =
        |seed: u64| StdRng::seed_from_u64(seed ^ (stream as u64 + 1).wrapping_mul(0x9e37_79b9));
    let mut run = rng(seed);
    Seeds { net: rng(NET_SEED).gen(), campaign: run.gen(), trace: run.gen() }
}

/// Which campaign engine a workload drives, with its configuration.
#[derive(Debug, Clone)]
pub enum Engine {
    Pair(CampaignConfig),
    Mda(MultipathConfig),
}

/// Either engine's result, behind the few questions the benchmark asks.
pub enum Outcome {
    Pair(Box<CampaignResult>),
    Mda(MultipathResult),
}

impl Engine {
    pub fn rounds(&self) -> usize {
        match self {
            Engine::Pair(c) => c.rounds,
            Engine::Mda(c) => c.rounds,
        }
    }

    pub fn workers(&self) -> usize {
        match self {
            Engine::Pair(c) => c.workers,
            Engine::Mda(c) => c.workers,
        }
    }

    pub fn with_workers(&self, workers: usize) -> Engine {
        match self {
            Engine::Pair(c) => Engine::Pair(CampaignConfig { workers, ..c.clone() }),
            Engine::Mda(c) => Engine::Mda(MultipathConfig { workers, ..c.clone() }),
        }
    }

    /// The same campaign without routing dynamics (the MDA engine has
    /// none): what the benchmark's own unit loop can reproduce through
    /// public calls.
    pub fn without_dynamics(&self) -> Engine {
        match self {
            Engine::Pair(c) => {
                Engine::Pair(CampaignConfig { dynamics: DynamicsConfig::none(), ..c.clone() })
            }
            Engine::Mda(c) => Engine::Mda(c.clone()),
        }
    }

    pub fn run(&self, net: &SyntheticInternet) -> Outcome {
        match self {
            Engine::Pair(c) => Outcome::Pair(Box::new(run(net, c))),
            Engine::Mda(c) => Outcome::Mda(run_multipath(net, c)),
        }
    }

    pub fn run_checkpointed(
        &self,
        net: &SyntheticInternet,
        ckpt: &CheckpointConfig,
    ) -> io::Result<Option<Outcome>> {
        Ok(match self {
            Engine::Pair(c) => run_checkpointed(net, c, ckpt)?.map(|r| Outcome::Pair(Box::new(r))),
            Engine::Mda(c) => run_multipath_checkpointed(net, c, ckpt)?.map(Outcome::Mda),
        })
    }

    pub fn run_resumed(
        &self,
        net: &SyntheticInternet,
        ckpt: &CheckpointConfig,
    ) -> io::Result<Option<Outcome>> {
        Ok(match self {
            Engine::Pair(c) => run_resumed(net, c, ckpt)?.map(|r| Outcome::Pair(Box::new(r))),
            Engine::Mda(c) => run_multipath_resumed(net, c, ckpt)?.map(Outcome::Mda),
        })
    }
}

impl Outcome {
    pub fn digest(&self) -> String {
        match self {
            Outcome::Pair(r) => report_digest(r),
            Outcome::Mda(r) => multipath_digest(r),
        }
    }

    /// Probes sent, from the result's own counters.
    pub fn probes(&self) -> u64 {
        match self {
            Outcome::Pair(r) => r.paris_report.probes_sent + r.classic_report.probes_sent,
            Outcome::Mda(r) => r.per_dest.iter().map(|d| d.probes as u64).sum(),
        }
    }

    pub fn virtual_s_per_dest(&self) -> f64 {
        match self {
            Outcome::Pair(r) => r.mean_virtual_secs,
            Outcome::Mda(r) => r.mean_virtual_secs,
        }
    }

    /// Units that did not complete healthily: quarantined, or cut short
    /// by a watchdog budget. The pair engine's reports count degraded
    /// routes per tool, not units; the larger count is the fewest units
    /// that can account for both.
    pub fn unhealthy_units(&self) -> u64 {
        match self {
            Outcome::Pair(r) => {
                r.quarantined.len() as u64
                    + r.paris_report.degraded_routes.max(r.classic_report.degraded_routes)
            }
            Outcome::Mda(r) => (r.quarantined.len() + r.report.degraded_units) as u64,
        }
    }
}

/// Share of classic traceroute's loop, cycle and diamond signatures
/// that Paris traceroute does not report - the paper's headline.
fn paris_absent_share(r: &CampaignResult) -> f64 {
    fn absent<T: Ord>(
        classic: std::collections::BTreeSet<T>,
        paris: std::collections::BTreeSet<T>,
    ) -> (usize, usize) {
        (classic.difference(&paris).count(), classic.len())
    }
    let parts = [
        absent(r.classic.loop_signatures(), r.paris.loop_signatures()),
        absent(r.classic.cycle_signatures(), r.paris.cycle_signatures()),
        absent(r.classic.diamond_signatures(), r.paris.diamond_signatures()),
    ];
    let gone: usize = parts.iter().map(|p| p.0).sum();
    let all: usize = parts.iter().map(|p| p.1).sum();
    if all == 0 {
        1.0
    } else {
        gone as f64 / all as f64
    }
}

/// One timed repetition's numbers.
#[derive(Debug, Clone)]
pub struct RepOutcome {
    pub wall_s: f64,
    pub probes: u64,
    pub virtual_s_per_dest: f64,
    pub accuracy: f64,
    /// Unhealthy units, or every unit when the digest is wrong.
    pub failed_units: u64,
    pub digest_ok: bool,
    /// Plain destinations reported as balanced (MDA workloads).
    pub false_balancers: usize,
    pub alloc: AllocStats,
}

/// A workload's generated inputs and scored baselines.
pub struct Inputs {
    pub workload: usize,
    pub net: SyntheticInternet,
    pub engine: Engine,
    /// `(destination, round)` units per repetition.
    pub units: u64,
    /// `hostile_adaptive`: the fixed-rate campaign `accuracy` is scored
    /// against.
    fixed: Option<MultipathResult>,
    /// `checkpoint_churn`: where the snapshot lives.
    snapshot: Option<PathBuf>,
    sizes: Sizes,
}

/// A workload set up and warm: everything `setup_s` pays for.
pub struct Prepared {
    pub inputs: Inputs,
    /// What every repetition's digest must equal: the warm-up
    /// repetition's, or for `checkpoint_churn` an uninterrupted
    /// single-worker `run` of the same configuration.
    reference_digest: String,
    pub warmup: RepOutcome,
    pub setup_s: f64,
}

/// Hardware threads available; the `checkpoint_churn` worker count and
/// the box fingerprint depend on it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

impl Prepared {
    /// Set the workload up (timed as `setup_s`): generate the topology,
    /// score the baselines, run the warm-up repetition.
    pub fn new(workload: usize, seed: u64, sizes: Sizes, scratch_dir: &Path) -> Prepared {
        let start = Instant::now();
        let inputs = Inputs::generate(workload, seed, sizes, scratch_dir);
        let churn_reference = (workload == CHECKPOINT_CHURN)
            .then(|| inputs.engine.with_workers(1).run(&inputs.net).digest());
        let (mut warmup, digest) = inputs.run_once();
        let reference_digest = churn_reference.unwrap_or_else(|| digest.clone());
        judge(&mut warmup, &digest, &reference_digest, inputs.units);
        Prepared { inputs, reference_digest, warmup, setup_s: start.elapsed().as_secs_f64() }
    }

    /// One repetition: the timed region and the allocator window hold
    /// the campaign call(s) and nothing else.
    pub fn repetition(&self) -> RepOutcome {
        let (mut rep, digest) = self.inputs.run_once();
        judge(&mut rep, &digest, &self.reference_digest, self.inputs.units);
        rep
    }
}

/// A repetition whose digest is not the reference's has failed whole.
fn judge(rep: &mut RepOutcome, digest: &str, reference: &str, units: u64) {
    rep.digest_ok = digest == reference;
    if !rep.digest_ok {
        rep.failed_units = units;
    }
}

impl Inputs {
    fn generate(workload: usize, seed: u64, sizes: Sizes, scratch_dir: &Path) -> Inputs {
        let s = seeds(seed, workload);
        let default_net = || {
            generate(&InternetConfig {
                n_destinations: sizes.dests,
                seed: s.net,
                ..InternetConfig::default()
            })
        };
        let pair = |rounds, workers| {
            Engine::Pair(CampaignConfig {
                rounds,
                workers,
                seed: s.campaign,
                ..CampaignConfig::default()
            })
        };
        let mda = |adaptive| {
            Engine::Mda(MultipathConfig {
                rounds: 1,
                workers: 1,
                adaptive,
                seed: s.campaign,
                ..MultipathConfig::default()
            })
        };
        let (net, engine) = match workload {
            SURVEY => (default_net(), pair(SURVEY_ROUNDS, 1)),
            MDA_FANOUT => (default_net(), mda(false)),
            HOSTILE_ADAPTIVE => (
                generate(&InternetConfig {
                    n_destinations: sizes.hostile_dests,
                    n_core: 6,
                    ..InternetConfig::hostile(s.net)
                }),
                mda(true),
            ),
            CHECKPOINT_CHURN => (default_net(), pair(CHURN_ROUNDS, nproc().min(2))),
            other => panic!("no workload {other}"),
        };
        let units = (net.dests.len() * engine.rounds()) as u64;
        let fixed = match (&engine, workload) {
            (Engine::Mda(c), HOSTILE_ADAPTIVE) => {
                Some(run_multipath(&net, &MultipathConfig { adaptive: false, ..c.clone() }))
            }
            _ => None,
        };
        let snapshot = (workload == CHECKPOINT_CHURN)
            .then(|| scratch_dir.join(format!("churn-{}.ptsnap", std::process::id())));
        Inputs { workload, net, engine, units, fixed, snapshot, sizes }
    }

    /// Run the campaign once; returns the numbers and the digest.
    fn run_once(&self) -> (RepOutcome, String) {
        alloc::reset();
        let start = Instant::now();
        let outcome = match &self.snapshot {
            None => self.engine.run(&self.net),
            Some(path) => self.kill_and_resume(path),
        };
        let wall_s = start.elapsed().as_secs_f64();
        let alloc = alloc::snapshot();
        if let Some(path) = &self.snapshot {
            let _ = std::fs::remove_file(path);
        }

        let (accuracy, false_balancers) = match (&outcome, &self.fixed) {
            (Outcome::Pair(r), _) => (paris_absent_share(r), 0),
            (Outcome::Mda(r), Some(fixed)) => {
                let score = validate_fault_recovery(&self.net, fixed, r);
                (score.recovery_rate(), score.false_balancers)
            }
            (Outcome::Mda(r), None) => {
                let score = validate_multipath(&self.net, r);
                (score.accuracy(), score.false_balancers)
            }
        };
        let rep = RepOutcome {
            wall_s,
            probes: outcome.probes(),
            virtual_s_per_dest: outcome.virtual_s_per_dest(),
            accuracy,
            failed_units: outcome.unhealthy_units(),
            digest_ok: false,
            false_balancers,
            alloc,
        };
        (rep, outcome.digest())
    }

    /// `checkpoint_churn`'s repetition: checkpoint every block, die
    /// after `kill_after` checkpoints, resume from the file to the end.
    fn kill_and_resume(&self, path: &Path) -> Outcome {
        let mut ckpt = CheckpointConfig {
            path: path.to_path_buf(),
            every_units: self.sizes.every_units,
            stop_after_checkpoints: Some(self.sizes.kill_after),
        };
        let killed = self.engine.run_checkpointed(&self.net, &ckpt).expect("snapshot write failed");
        match killed {
            // Too few blocks to reach the kill point (tiny sizes only).
            Some(finished) => finished,
            None => {
                ckpt.stop_after_checkpoints = None;
                self.engine
                    .run_resumed(&self.net, &ckpt)
                    .expect("snapshot reload failed")
                    .expect("a resume without a kill point runs to completion")
            }
        }
    }
}
