//! Ground-truth validation — the experiment the paper could not run.
//!
//! Because the synthetic Internet records what it planted on every
//! branch ([`pt_topogen::DestTruth`]), we can score the anomaly
//! classifiers: of the destinations where the generator installed a
//! zero-TTL forwarder, how many did the classic campaign flag with a
//! zero-TTL loop? Of the flagged ones, how many were real?

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use pt_anomaly::r#loop::LoopCause;
use pt_anomaly::CampaignAccumulator;
use pt_mda::BalancerClass;
use pt_topogen::SyntheticInternet;

use crate::runner::{DestMultipath, MultipathResult};

/// Precision/recall for one cause classifier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CauseScore {
    /// Destinations the generator gave this anomaly source.
    pub truth_positives: usize,
    /// Destinations the classifier flagged.
    pub flagged: usize,
    /// Flagged ∩ truth.
    pub hits: usize,
}

impl CauseScore {
    /// Fraction of flagged destinations that truly have the source.
    pub fn precision(&self) -> f64 {
        if self.flagged == 0 {
            1.0
        } else {
            self.hits as f64 / self.flagged as f64
        }
    }

    /// Fraction of true sources that got flagged.
    pub fn recall(&self) -> f64 {
        if self.truth_positives == 0 {
            1.0
        } else {
            self.hits as f64 / self.truth_positives as f64
        }
    }
}

/// Classifier scores against generator ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// Zero-TTL forwarding detection.
    pub zero_ttl: CauseScore,
    /// NAT / address rewriting detection.
    pub rewriting: CauseScore,
    /// Unreachability detection.
    pub unreachability: CauseScore,
    /// Per-flow-LB *loop* attribution (classic-minus-Paris
    /// differencing), scored against destinations behind a per-flow
    /// balancer whose branches differ in length by exactly one hop: the
    /// only ones that can put the merge router on two consecutive hops.
    /// A difference of two puts it on hops `t` and `t + 2` — a cycle.
    pub per_flow: CauseScore,
}

/// Score the per-route loop classifiers, as the classic campaign's
/// accumulator folded their diagnoses, and the per-flow attribution.
pub fn validate_causes(
    net: &SyntheticInternet,
    classic: &CampaignAccumulator,
    paris: &CampaignAccumulator,
) -> ValidationReport {
    let flagged_zero_ttl = classic.loop_dests(LoopCause::ZeroTtlForwarding);
    let flagged_rewriting = classic.loop_dests(LoopCause::AddressRewriting);
    let flagged_unreach = classic.loop_dests(LoopCause::Unreachability);
    // Per-flow attribution: classic loop signature absent under Paris.
    let paris_sigs = paris.loop_signatures();
    let flagged_per_flow: BTreeSet<Ipv4Addr> = classic
        .loop_signatures()
        .into_iter()
        .filter(|sig| !paris_sigs.contains(sig))
        .map(|(_, dest)| dest)
        .collect();
    // Only count per-flow flags at destinations without a route-local
    // cause (mirrors the attribution precedence).
    let flagged_per_flow: BTreeSet<Ipv4Addr> = flagged_per_flow
        .difference(
            &flagged_zero_ttl
                .union(&flagged_rewriting)
                .chain(flagged_unreach.iter())
                .copied()
                .collect(),
        )
        .copied()
        .collect();

    let score = |flagged: &BTreeSet<Ipv4Addr>, truth: &dyn Fn(&pt_topogen::DestTruth) -> bool| {
        let truth_set: BTreeSet<Ipv4Addr> =
            net.dests.iter().filter(|d| truth(&d.truth)).map(|d| d.addr).collect();
        CauseScore {
            truth_positives: truth_set.len(),
            flagged: flagged.len(),
            hits: flagged.intersection(&truth_set).count(),
        }
    };

    ValidationReport {
        zero_ttl: score(&flagged_zero_ttl, &|t| t.zero_ttl),
        rewriting: score(&flagged_rewriting, &|t| t.nat),
        unreachability: score(&flagged_unreach, &|t| t.broken),
        per_flow: score(&flagged_per_flow, &|t| t.per_flow_lb && t.lb_delta == 1),
    }
}

/// Multipath discovery scored against the generator's planted
/// balancers ([`pt_topogen::DestTruth`]): of the destinations that
/// carry one, how many did MDA recover — width, branch-length delta
/// *and* per-flow/per-packet class — and did any plain destination get
/// flagged as balanced?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultipathScore {
    /// Destinations the generator gave a balancer.
    pub balancer_dests: usize,
    /// Destinations without one.
    pub plain_dests: usize,
    /// Balancer destinations whose discovery shows a balanced hop.
    pub discovered: usize,
    /// ... whose confident width equals the planted `lb_width`.
    pub width_correct: usize,
    /// ... whose discovered delta equals the planted `lb_delta`.
    pub delta_correct: usize,
    /// ... classified per-flow/per-packet matching the planted kind.
    pub class_correct: usize,
    /// Balancer destinations where all three match.
    pub full_matches: usize,
    /// Plain destinations falsely flagged as balanced (any class other
    /// than `NotBalanced`).
    pub false_balancers: usize,
}

impl MultipathScore {
    /// Fraction of balancer destinations fully recovered (width, delta
    /// and class all correct). 1.0 when the network has no balancers.
    pub fn accuracy(&self) -> f64 {
        if self.balancer_dests == 0 {
            1.0
        } else {
            self.full_matches as f64 / self.balancer_dests as f64
        }
    }
}

/// Score a multipath campaign against the generator's ground truth.
pub fn validate_multipath(net: &SyntheticInternet, result: &MultipathResult) -> MultipathScore {
    let mut score = MultipathScore {
        balancer_dests: 0,
        plain_dests: 0,
        discovered: 0,
        width_correct: 0,
        delta_correct: 0,
        class_correct: 0,
        full_matches: 0,
        false_balancers: 0,
    };
    for d in &result.per_dest {
        let truth = &net.dests[d.dest].truth;
        match truth.balancer() {
            None => {
                score.plain_dests += 1;
                if d.class != BalancerClass::NotBalanced {
                    score.false_balancers += 1;
                }
            }
            Some(planted) => {
                score.balancer_dests += 1;
                if d.class == BalancerClass::NotBalanced {
                    continue;
                }
                score.discovered += 1;
                let [width_ok, delta_ok, class_ok] = balancer_match(d, planted);
                score.width_correct += usize::from(width_ok);
                score.delta_correct += usize::from(delta_ok);
                score.class_correct += usize::from(class_ok);
                score.full_matches += usize::from(width_ok && delta_ok && class_ok);
            }
        }
    }
    score
}

/// How a destination's merged discovery compares with its planted
/// balancer `(width, delta, per_packet)`: whether the confident width,
/// the branch-length delta and the per-flow/per-packet class each match.
fn balancer_match(d: &DestMultipath, (width, delta, per_packet): (u8, u8, bool)) -> [bool; 3] {
    let class = if per_packet { BalancerClass::PerPacket } else { BalancerClass::PerFlow };
    [d.width == usize::from(width), d.delta == delta, d.class == class]
}

/// Whether one destination's merged discovery matches its planted
/// truth: reachability exactly as planted (a fault-truncated walk that
/// never reaches a reachable destination is wrong, whatever else it
/// found), and the balancer — width, delta and class — recovered
/// exactly, or confidently absent where none was planted.
fn dest_matches_truth(truth: &pt_topogen::DestTruth, d: &DestMultipath) -> bool {
    if d.reached == truth.firewalled {
        return false;
    }
    match truth.balancer() {
        None => d.class == BalancerClass::NotBalanced,
        Some(planted) => balancer_match(d, planted) == [true; 3],
    }
}

/// Recovery of hostile-fault destinations by the adaptive walker,
/// scored against a fixed-rate baseline over the same network — the
/// PR-6 acceptance metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecoveryScore {
    /// Destinations with at least one planted hostile fault
    /// ([`pt_topogen::DestTruth::any_hostile_fault`]).
    pub hostile_dests: usize,
    /// Hostile destinations the fixed-rate walker got wrong
    /// (truncated short of a reachable destination, or balancer
    /// evidence missing/incorrect).
    pub fixed_wrong: usize,
    /// ... of which the adaptive walker got fully right.
    pub recovered: usize,
    /// Hostile destinations the adaptive walker still got wrong.
    pub adaptive_wrong: usize,
    /// Destinations without a planted balancer that the adaptive
    /// walker flagged as balanced — its fault tolerance must not come
    /// from crying balancer, so this must stay zero.
    pub false_balancers: usize,
}

impl FaultRecoveryScore {
    /// Fraction of the fixed-rate walker's hostile-destination
    /// failures the adaptive walker fixed. 1.0 when the fixed walker
    /// made no mistakes.
    pub fn recovery_rate(&self) -> f64 {
        if self.fixed_wrong == 0 {
            1.0
        } else {
            self.recovered as f64 / self.fixed_wrong as f64
        }
    }
}

/// Score an adaptive multipath campaign's recovery of planted hostile
/// faults against a fixed-rate campaign over the same network.
pub fn validate_fault_recovery(
    net: &SyntheticInternet,
    fixed: &MultipathResult,
    adaptive: &MultipathResult,
) -> FaultRecoveryScore {
    assert_eq!(fixed.per_dest.len(), net.dests.len(), "fixed result covers every destination");
    assert_eq!(adaptive.per_dest.len(), net.dests.len(), "adaptive result covers every dest");
    let mut score = FaultRecoveryScore {
        hostile_dests: 0,
        fixed_wrong: 0,
        recovered: 0,
        adaptive_wrong: 0,
        false_balancers: 0,
    };
    for (i, dest) in net.dests.iter().enumerate() {
        let truth = &dest.truth;
        let a = &adaptive.per_dest[i];
        if truth.balancer().is_none() && a.class != BalancerClass::NotBalanced {
            score.false_balancers += 1;
        }
        if !truth.any_hostile_fault() {
            continue;
        }
        score.hostile_dests += 1;
        let adaptive_ok = dest_matches_truth(truth, a);
        if !dest_matches_truth(truth, &fixed.per_dest[i]) {
            score.fixed_wrong += 1;
            score.recovered += usize::from(adaptive_ok);
        }
        score.adaptive_wrong += usize::from(!adaptive_ok);
    }
    score
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{replay_unit, run, CampaignConfig, DynamicsConfig};
    use pt_anomaly::find_loops;
    use pt_topogen::{generate, InternetConfig};
    use std::collections::BTreeMap;

    /// A network with frequent deterministic anomaly sources.
    fn anomaly_mix(seed: u64) -> InternetConfig {
        InternetConfig {
            seed,
            n_destinations: 120,
            per_flow_lb: 0.25,
            lb_equal_weight: 0.2,
            lb_delta1_weight: 0.6,
            per_packet_lb: 0.0,
            zero_ttl: 0.1,
            broken: 0.05,
            nat: 0.1,
            firewalled_dest: 0.0,
            silent_router: 0.0,
            link_loss: 0.0,
            ..InternetConfig::default()
        }
    }

    fn six_quiet_rounds() -> CampaignConfig {
        CampaignConfig {
            rounds: 6,
            workers: 4,
            dynamics: DynamicsConfig::none(),
            seed: 3,
            ..Default::default()
        }
    }

    #[test]
    fn classifiers_score_well_on_a_deterministic_anomaly_mix() {
        let net = generate(&anomaly_mix(77));
        let cc = six_quiet_rounds();
        let result = run(&net, &cc);
        let v = validate_causes(&net, &result.classic, &result.paris);
        // Deterministic causes fire on every trace → recall should be
        // essentially perfect, precision high.
        assert!(v.zero_ttl.recall() > 0.9, "zero-TTL recall {:?}", v.zero_ttl);
        assert!(v.zero_ttl.precision() > 0.9, "zero-TTL precision {:?}", v.zero_ttl);
        // Upstream load balancers can legitimately break a NAT loop's
        // strictly-decreasing response-TTL signature, so recall is high
        // but not perfect.
        assert!(v.rewriting.recall() >= 0.7, "rewriting recall {:?}", v.rewriting);
        assert!(v.unreachability.recall() > 0.9, "unreachability {:?}", v.unreachability);
        // Per-flow attribution is stochastic but should be mostly right.
        assert!(v.per_flow.precision() > 0.7, "per-flow precision {:?}", v.per_flow);
    }

    #[test]
    fn accumulator_derived_causes_equal_the_route_derived_ones() {
        // The reference: `find_loops` over every classic route, the way
        // `validate_causes` derived its three sets when campaigns kept
        // their routes.
        for seed in [77, 5] {
            let net = generate(&anomaly_mix(seed));
            let cc = six_quiet_rounds();
            let mut from_routes: BTreeMap<LoopCause, BTreeSet<Ipv4Addr>> = BTreeMap::new();
            for round in 0..cc.rounds {
                for dest in 0..net.dests.len() {
                    let (_, classic) = replay_unit(&net, &cc, dest, round);
                    for l in find_loops(&classic) {
                        from_routes.entry(l.cause).or_default().insert(classic.destination);
                    }
                }
            }
            let result = run(&net, &cc);
            for cause in [
                LoopCause::ZeroTtlForwarding,
                LoopCause::AddressRewriting,
                LoopCause::Unreachability,
            ] {
                let reference = from_routes.remove(&cause).unwrap_or_default();
                assert!(!reference.is_empty(), "seed {seed}: the mix plants no {cause:?}");
                assert_eq!(result.classic.loop_dests(cause), reference, "seed {seed}, {cause:?}");
            }
        }
    }

    #[test]
    fn a_branch_length_difference_of_two_yields_cycles_never_loops() {
        // Per-flow balancers are the only anomaly source, and nothing is
        // lost or rerouted: what classic reports is what the branch
        // lengths alone do to it.
        let classic_signatures = |lb_delta1_weight: f64| {
            let net = generate(&InternetConfig {
                seed: 7,
                n_destinations: 120,
                per_flow_lb: 0.6,
                lb_equal_weight: 0.0,
                lb_delta1_weight,
                per_packet_lb: 0.0,
                zero_ttl: 0.0,
                broken: 0.0,
                nat: 0.0,
                firewalled_dest: 0.0,
                silent_router: 0.0,
                link_loss: 0.0,
                ..InternetConfig::default()
            });
            let delta = if lb_delta1_weight == 0.0 { 2 } else { 1 };
            assert!(net.dests.iter().all(|d| !d.truth.per_flow_lb || d.truth.lb_delta == delta));
            let result = run(&net, &six_quiet_rounds());
            (result.classic.loop_signatures().len(), result.classic.cycle_signatures().len())
        };
        // The merge router answers hops t and t + 2: a cycle, which is
        // why `validate_causes` scores loop attribution against a
        // difference of exactly one.
        let (loops, cycles) = classic_signatures(0.0);
        assert_eq!(loops, 0, "a difference of two put one address on consecutive hops");
        assert!(cycles >= 1, "a difference of two must show as a cycle");
        let (loops, _) = classic_signatures(1.0);
        assert!(loops >= 1, "a difference of one must show as a loop");
    }

    #[test]
    fn scores_handle_empty_inputs() {
        let s = CauseScore { truth_positives: 0, flagged: 0, hits: 0 };
        assert_eq!(s.precision(), 1.0);
        assert_eq!(s.recall(), 1.0);
    }
}
