//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics with the prediction each
//! one carries. `BENCHMARK.json` repeats the names, units, directions
//! and bounds; a unit test holds the two together. The README has the
//! reasoning at length.

/// Which way is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One benchmark workload.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const SURVEY: usize = 0;
pub const MDA_FANOUT: usize = 1;
pub const HOSTILE_ADAPTIVE: usize = 2;
pub const CHECKPOINT_CHURN: usize = 3;

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "survey",
        why: "The paper's study: Paris+classic trace pairs, 2000 destinations x 6 rounds; short \
              traces of dense forwarding, so pt-netsim and per-unit costs dominate.",
    },
    WorkloadDef {
        name: "mda_fanout",
        why: "Fixed-rate MDA over the same generator: ~120 probes per unit with 8 in flight, so \
              pt-mda and a deeper event queue carry the load and per-unit costs vanish.",
    },
    WorkloadDef {
        name: "hostile_adaptive",
        why: "Adaptive MDA against rate limiters, MPLS and UDP filters: timeouts, backoff and \
              retries make the event wheel sparse in time; dense-forwarding gains should not show.",
    },
    WorkloadDef {
        name: "checkpoint_churn",
        why: "Survey's net killed mid-run and resumed, a checkpoint every 256 units on 2 workers: \
              snapshot encode, write, load and merges dominate; probing does little.",
    },
];

/// One end-to-end metric: what a user of the campaign sees.
pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base's value by which the metric may worsen before
    /// a change counts as a regression. One number per metric, the one
    /// in `BENCHMARK.json`: it holds the box's noise for the wall-clock
    /// metrics and, for the rest, three times what the figure moves
    /// from one `--seed` to the next (README, "Measured noise").
    pub bound: f64,
    /// A deterministic function of the seed: two records of one seed
    /// agree to the last digit unless the code's behaviour changed, so
    /// `--compare`, whose records always share a seed, flags any
    /// difference at all.
    pub exact: bool,
    pub what: &'static str,
}

/// `failed_share` is reported by the full run and compared by
/// `--compare`, but is 0 on every healthy run, so the driver contract
/// (which divides by the median) receives it as `failed` / `attempted`
/// instead of as a metric.
pub const FAILED_SHARE: &str = "failed_share";

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
    what: &'static str,
) -> EndToEndDef {
    EndToEndDef { name, unit, better, bound, exact, what }
}

pub const END_TO_END: [EndToEndDef; 10] = [
    end_to_end(
        "setup_s",
        "s",
        Better::Lower,
        0.25,
        false,
        "host: topology generation + scoring baselines + the warm-up repetition (quiet estimate \
         = p10 of the set-ups)",
    ),
    end_to_end(
        "units_per_s",
        "units/s",
        Better::Higher,
        0.25,
        false,
        "host: (destination, round) units / quiet (p10) repetition wall time",
    ),
    end_to_end(
        "probes_per_s",
        "probes/s",
        Better::Higher,
        0.25,
        false,
        "host: probes sent (the result's own counters) / quiet (p10) repetition wall time - \
         simulated work per host second",
    ),
    end_to_end(
        "virtual_s_per_dest",
        "sim_s",
        Better::Lower,
        0.08,
        true,
        "simulated: mean virtual seconds of probing per destination - what the campaign would \
         cost in real time",
    ),
    end_to_end(
        "probes_per_dest",
        "probes",
        Better::Lower,
        0.01,
        true,
        "simulated: probes per destination per round - the load the tool puts on the network",
    ),
    end_to_end(
        "accuracy",
        "share",
        Better::Higher,
        0.12,
        true,
        "simulated: survey/checkpoint_churn - share of classic loop+cycle+diamond signatures \
         absent under Paris; mda_fanout - planted balancers fully recovered; hostile_adaptive - \
         fixed-rate failures the adaptive walker recovered",
    ),
    end_to_end(
        FAILED_SHARE,
        "share",
        Better::Lower,
        0.0,
        true,
        "(quarantined + degraded units + every unit of a repetition whose digest differs from \
         its reference) / units attempted",
    ),
    end_to_end(
        "allocs_per_unit",
        "count",
        Better::Lower,
        0.12,
        false,
        "host: heap allocation calls per unit inside a repetition (median), from the binary's \
         counting allocator",
    ),
    end_to_end(
        "alloc_kib_per_unit",
        "KiB",
        Better::Lower,
        0.06,
        false,
        "host: KiB requested from the allocator per unit inside a repetition (median)",
    ),
    end_to_end(
        "peak_heap_kib",
        "KiB",
        Better::Lower,
        0.06,
        false,
        "host: high-water of heap bytes a repetition holds beyond its inputs, max over \
         repetitions",
    ),
];

/// One per-layer metric from the traced pass. `moves` is the
/// prediction written down before measuring: which end-to-end metric
/// this number should move, on which workload.
pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> LayerDef {
    LayerDef { name, unit, better, moves }
}

use Better::{Higher, Lower};

const TOPOGEN: &str = "setup_s only, every workload";
const WIRE: &str = "predicted < 5% of units_per_s anywhere";
const CORE_LOOP: &str = "units_per_s on survey (ceiling: the non-transport share of a trace)";
const CORE_COUNT: &str = "probes_per_dest, virtual_s_per_dest on survey";
const MDA_LOOP: &str = "units_per_s on mda_fanout, hostile_adaptive; nothing on survey";
const MDA_COUNT: &str = "probes_per_dest, virtual_s_per_dest, accuracy on the MDA workloads";
const NETSIM: &str = "the top bucket: units_per_s, probes_per_s on survey and mda_fanout";
const NETSIM_TIMER: &str = "units_per_s on hostile_adaptive (timer path)";
const NETSIM_POOL: &str = "units_per_s on survey only (amortised 12x further on mda_fanout)";
const ANOMALY_INGEST: &str = "units_per_s on survey; nothing on the MDA workloads";
const ANOMALY_SNAP: &str = "units_per_s, allocs_per_unit, alloc_kib_per_unit on checkpoint_churn";
const CAMPAIGN_CKPT: &str = "units_per_s, peak_heap_kib on checkpoint_churn";
const CAMPAIGN_LOOP: &str = "units_per_s on survey";
const TRACE: &str = "nothing: the cost and coverage of the instrument itself";

pub const PER_LAYER: [LayerDef; 55] = [
    layer("topogen.generate.ms", "ms", Lower, TOPOGEN),
    layer("topogen.nodes", "count", Lower, TOPOGEN),
    layer("wire.checksum.ns_per_kib", "ns/KiB", Lower, WIRE),
    layer("wire.packet.emit_ns", "ns", Lower, WIRE),
    layer("wire.packet.parse_ns", "ns", Lower, WIRE),
    layer("wire.flow_key.ns", "ns", Lower, WIRE),
    layer("core.build_probe.paris_ns", "ns", Lower, CORE_LOOP),
    layer("core.build_probe.classic_ns", "ns", Lower, CORE_LOOP),
    layer("core.build_batch.ns_per_probe", "ns", Lower, CORE_LOOP),
    layer("core.trace.self_ns_per_probe", "ns", Lower, CORE_LOOP),
    layer("core.trace.self_share", "share", Lower, CORE_LOOP),
    layer("core.trace.probes_per_trace", "probes", Lower, CORE_COUNT),
    layer("core.trace.transport_calls_per_probe", "count", Lower, CORE_LOOP),
    layer("core.trace.stars_share", "share", Lower, CORE_COUNT),
    layer("mda.discover.self_ns_per_probe", "ns", Lower, MDA_LOOP),
    layer("mda.discover.self_share", "share", Lower, MDA_LOOP),
    layer("mda.probes_per_unit", "probes", Lower, MDA_COUNT),
    layer("mda.probes_per_hop", "probes", Lower, MDA_COUNT),
    layer("mda.stars_share", "share", Lower, MDA_COUNT),
    layer("mda.unconverged_hop_share", "share", Lower, MDA_COUNT),
    layer("mda.rule.table_ns", "ns", Lower, MDA_LOOP),
    layer("netsim.transport.ns_per_probe", "ns", Lower, NETSIM),
    layer("netsim.transport.share", "share", Lower, NETSIM),
    layer("netsim.send.ns_per_call", "ns", Lower, NETSIM),
    layer("netsim.recv_until.ns_per_call", "ns", Lower, NETSIM_TIMER),
    layer("netsim.try_recv.ns_per_call", "ns", Lower, NETSIM),
    layer("netsim.forwarded_per_probe", "count", Lower, NETSIM),
    layer("netsim.responses_per_probe", "count", Higher, NETSIM),
    layer("netsim.dropped_share", "share", Lower, NETSIM),
    layer("netsim.ns_per_forward", "ns", Lower, NETSIM),
    layer("netsim.pool.ns_per_unit", "ns", Lower, NETSIM_POOL),
    layer("netsim.pool.share", "share", Lower, NETSIM_POOL),
    layer("netsim.sim_new.us", "us", Lower, "setup_s; units_per_s only after a quarantine"),
    layer("netsim.arena_slots_high_water", "count", Lower, "peak_heap_kib, every workload"),
    layer("netsim.wheel.dense_ns_per_event", "ns", Lower, NETSIM),
    layer("netsim.wheel.sparse_ns_per_event", "ns", Lower, NETSIM_TIMER),
    layer("netsim.bare_forward.ns_per_hop", "ns", Lower, NETSIM),
    layer("anomaly.ingest.ns_per_route", "ns", Lower, ANOMALY_INGEST),
    layer("anomaly.ingest.share", "share", Lower, ANOMALY_INGEST),
    layer("anomaly.report.ms", "ms", Lower, "units_per_s on survey, once per repetition"),
    layer("anomaly.merge.ms", "ms", Lower, ANOMALY_SNAP),
    layer("anomaly.snapshot_write.ns_per_kib", "ns/KiB", Lower, ANOMALY_SNAP),
    layer("anomaly.snapshot_read.ns_per_kib", "ns/KiB", Lower, ANOMALY_SNAP),
    layer("campaign.run.ns_per_unit", "ns", Lower, CAMPAIGN_LOOP),
    layer("campaign.overhead_share", "share", Lower, CAMPAIGN_LOOP),
    layer("campaign.checkpoint.ms_per_checkpoint", "ms", Lower, CAMPAIGN_CKPT),
    layer("campaign.snapshot.bytes_final", "bytes", Lower, CAMPAIGN_CKPT),
    layer("campaign.snapshot.bytes_written_total", "bytes", Lower, CAMPAIGN_CKPT),
    layer("campaign.resume.step_ms_p50", "ms", Lower, CAMPAIGN_CKPT),
    layer("campaign.snapshot.load_ms", "ms", Lower, CAMPAIGN_CKPT),
    layer("campaign.digest.ms", "ms", Lower, "nothing inside a repetition: digests are checks"),
    layer(
        "campaign.pool.w2_over_w1",
        "ratio",
        Higher,
        "units_per_s on checkpoint_churn; 0 = unmeasured (one hardware thread)",
    ),
    layer("trace.overhead_share", "share", Lower, TRACE),
    layer("trace.residual_share", "share", Lower, TRACE),
    layer("trace.self_sum_error_max", "share", Lower, TRACE),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    /// `BENCHMARK.json` and this file name the same workloads and the
    /// same metrics with the same units, directions and bounds - the
    /// driver reads the former, the binary emits the latter.
    #[test]
    fn benchmark_json_names_exactly_what_the_binary_emits() {
        let doc = parse(include_str!("../../../../../../BENCHMARK.json")).expect("BENCHMARK.json");
        let names = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc.get(key)
                .and_then(Value::as_arr)
                .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_owned();
                    (
                        field("name"),
                        field("unit"),
                        field("better"),
                        m.get("bound").and_then(Value::as_f64),
                    )
                })
                .collect()
        };
        let workloads: Vec<String> = names("workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
        for (def, w) in WORKLOADS.iter().zip(doc.get("workloads").unwrap().as_arr().unwrap()) {
            assert_eq!(w.get("why").and_then(Value::as_str), Some(def.why), "{}", def.name);
            assert!(def.why.len() <= 200, "{}: why is {} chars", def.name, def.why.len());
        }

        let ours: Vec<_> = END_TO_END
            .iter()
            .filter(|m| m.name != FAILED_SHARE)
            .map(|m| {
                (m.name.to_owned(), m.unit.to_owned(), m.better.name().to_owned(), Some(m.bound))
            })
            .collect();
        assert_eq!(names("end_to_end"), ours);

        let ours: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned(), m.better.name().to_owned(), None))
            .collect();
        assert_eq!(names("per_layer"), ours);

        let paths = doc.get("paths").and_then(Value::as_arr).expect("paths");
        assert_eq!(paths, [Value::str("crates/bench/src/bin/ptbench")]);
    }

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let all = WORKLOADS
            .iter()
            .map(|w| (w.name, "-"))
            .chain(END_TO_END.iter().map(|m| (m.name, m.unit)))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in all {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} [{unit}] too long");
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}: characters outside the contract"
            );
            assert!(
                unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{name}: unit {unit:?} outside the contract"
            );
        }
        for m in &END_TO_END {
            assert!((0.0..=0.25).contains(&m.bound), "{}: bound {}", m.name, m.bound);
        }
    }
}
