//! Ablations for the tracer's and the simulator's design choices:
//!
//! * probes per hop (1, as the study; 3, as classic defaults) — diamonds
//!   need multiplicity, loops do not;
//! * balancer policy (five-tuple vs first-four-octets vs TOS-aware) —
//!   Paris stays loop-free under all of them;
//! * per-flow vs per-packet balancing — Paris fixes the former only.

use criterion::{criterion_group, criterion_main, Criterion};
use pt_anomaly::{find_loops, DestinationGraph};
use pt_bench::{header, transport};
use pt_core::{trace, ClassicUdp, ParisUdp, TraceConfig};
use pt_netsim::node::BalancerKind;
use pt_netsim::scenarios;
use pt_wire::FlowPolicy;

fn probes_per_hop_ablation() {
    header("ablation", "1 vs 3 probes per hop (diamonds need multiplicity)");
    let sc = scenarios::fig6(BalancerKind::PerFlow(FlowPolicy::FiveTuple));
    for (label, config) in
        [("1 probe/hop ", TraceConfig::default()), ("3 probes/hop", TraceConfig::three_probes())]
    {
        let mut tx = transport(&sc, 23);
        let mut s = ClassicUdp::new(5);
        let r = trace(&mut tx, &mut s, sc.destination, config);
        let mut g = DestinationGraph::new();
        g.ingest(&r);
        println!("  {label}: diamonds within a single classic trace: {}", g.diamonds().len());
    }
    println!("  (loops and cycles appear even at 1 probe/hop; diamonds want more)");
}

fn policy_ablation() {
    header("ablation", "Paris stays loop-free under every balancer hash policy");
    for policy in FlowPolicy::ALL {
        let sc = scenarios::fig3(BalancerKind::PerFlow(policy));
        let mut tx = transport(&sc, 29);
        let mut loops = 0;
        for i in 0..32u16 {
            let mut s = ParisUdp::new(41_000 + i, 52_000);
            let r = trace(&mut tx, &mut s, sc.destination, TraceConfig::default());
            loops += find_loops(&r).len();
        }
        println!("  {policy:?}: paris loops over 32 traces = {loops}");
        assert_eq!(loops, 0, "policy {policy:?}");
    }
}

fn per_packet_ablation() {
    header("ablation", "per-packet balancing defeats Paris too (as the paper concedes)");
    let sc = scenarios::fig3(BalancerKind::PerPacket);
    let mut tx = transport(&sc, 31);
    let mut loops = 0;
    let n = 64;
    for i in 0..n {
        let mut s = ParisUdp::new(41_000 + i, 52_000);
        let r = trace(&mut tx, &mut s, sc.destination, TraceConfig::default());
        loops += usize::from(!find_loops(&r).is_empty());
    }
    println!("  paris traces with loops under a per-packet balancer: {loops}/{n} (> 0 expected)");
    assert!(loops > 0);
}

fn bench(c: &mut Criterion) {
    probes_per_hop_ablation();
    policy_ablation();
    per_packet_ablation();
    let sc = scenarios::fig6(BalancerKind::PerFlow(FlowPolicy::FiveTuple));
    for (label, config) in
        [("1_probe", TraceConfig::default()), ("3_probes", TraceConfig::three_probes())]
    {
        c.bench_function(&format!("ablation/trace_{label}"), |b| {
            let mut tx = transport(&sc, 23);
            let mut pid = 0u16;
            b.iter(|| {
                pid = pid.wrapping_add(1);
                let mut s = ClassicUdp::new(pid);
                trace(&mut tx, &mut s, sc.destination, config)
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench
}
criterion_main!(benches);
