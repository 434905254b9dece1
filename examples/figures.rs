//! Walk through every figure of the paper, reproducing each anomaly and
//! its diagnosis on the reconstructed topology.
//!
//! ```sh
//! cargo run --example figures
//! ```
//!
//! Every conclusion printed is computed from the routes printed above
//! it; a figure whose conclusion does not hold is named on stderr and
//! the exit status is non-zero.

use std::process::ExitCode;

use pt_anomaly::{find_cycles, find_loops, CycleCause, DestinationGraph, LoopCause};
use pt_core::{trace, ClassicUdp, ParisUdp, TraceConfig};
use pt_netsim::node::BalancerKind;
use pt_netsim::{scenarios, SimTransport, Simulator};
use pt_wire::FlowPolicy;

fn tx_for(sc: &scenarios::Scenario, seed: u64) -> SimTransport {
    SimTransport::new(Simulator::new(sc.topology.clone(), seed), sc.source)
}

fn show_range(addrs: &[Option<std::net::Ipv4Addr>], from: usize, to: usize) -> String {
    show(&addrs[from.min(addrs.len())..to.min(addrs.len())])
}

fn show(addrs: &[Option<std::net::Ipv4Addr>]) -> String {
    addrs
        .iter()
        .map(|a| a.map(|x| x.to_string()).unwrap_or_else(|| "*".into()))
        .collect::<Vec<_>>()
        .join(" → ")
}

/// `Err` says which of a figure's conclusions the routes did not bear out.
type Reproduced = Result<(), String>;

fn ensure(holds: bool, otherwise: &str) -> Reproduced {
    if holds {
        Ok(())
    } else {
        Err(otherwise.to_string())
    }
}

fn fig1() -> Reproduced {
    println!("== Fig. 1: missing nodes and false links ==");
    let sc = scenarios::fig1(BalancerKind::PerFlow(FlowPolicy::FiveTuple));
    let mut tx = tx_for(&sc, 1);
    let a_then_d = |addrs: &[Option<std::net::Ipv4Addr>]| {
        addrs.get(6) == Some(&Some(sc.a("A"))) && addrs.get(7) == Some(&Some(sc.a("D")))
    };
    // Classic traceroute with many PIDs: collect what hops 6..=9 show.
    let mut classic_false_links = 0;
    for pid in [7u16, 19, 23] {
        let mut strat = ClassicUdp::new(pid);
        let addrs = trace(&mut tx, &mut strat, sc.destination, TraceConfig::default()).addresses();
        println!("  classic (pid {pid:>2}) hops 6..9: {}", show_range(&addrs, 5, 9));
        classic_false_links += usize::from(a_then_d(&addrs));
    }
    let mut paris = ParisUdp::new(41_001, 52_001);
    let addrs = trace(&mut tx, &mut paris, sc.destination, TraceConfig::default()).addresses();
    println!("  paris            hops 6..9: {}", show_range(&addrs, 5, 9));
    ensure(classic_false_links > 0, "no classic trace pairs A at hop 7 with D at hop 8")?;
    ensure(!a_then_d(&addrs), "the Paris trace pairs A with D")?;
    println!(
        "  true paths: L→A→C(silent)→E and L→B(silent)→D→E; classic can pair A at hop 7 with D at hop 8 — a link that does not exist.\n"
    );
    Ok(())
}

fn fig3() -> Reproduced {
    println!("== Fig. 3: a loop from load balancing over unequal lengths ==");
    let sc = scenarios::fig3(BalancerKind::PerFlow(FlowPolicy::FiveTuple));
    let mut tx = tx_for(&sc, 4);
    // Hunt for a classic trace showing E twice.
    let (pid, looping) = (0..200u16)
        .find_map(|pid| {
            let mut strat = ClassicUdp::new(pid);
            let r = trace(&mut tx, &mut strat, sc.destination, TraceConfig::default());
            find_loops(&r).iter().any(|l| l.addr == sc.a("E")).then_some((pid, r))
        })
        .ok_or("no classic trace with PID 0..200 shows E twice")?;
    println!("  classic (pid {pid}) hops 6..10: {}", show_range(&looping.addresses(), 5, 10));
    println!("  loop on E — probes straddled the short (L→A→E) and long (L→B→C→E) paths");
    let mut paris = ParisUdp::new(41_002, 52_002);
    let r = trace(&mut tx, &mut paris, sc.destination, TraceConfig::default());
    let loops = find_loops(&r);
    let verdict = if loops.is_empty() { "no loop" } else { "LOOP" };
    println!("  paris          hops 6..10: {} ({verdict})\n", show_range(&r.addresses(), 5, 10));
    ensure(loops.is_empty(), "the Paris trace shows a loop")
}

fn fig4() -> Reproduced {
    println!("== Fig. 4: a loop from zero-TTL forwarding ==");
    let sc = scenarios::fig4();
    let mut tx = tx_for(&sc, 1);
    let mut paris = ParisUdp::new(41_003, 52_003);
    let r = trace(&mut tx, &mut paris, sc.destination, TraceConfig::default());
    println!("  hops 6..10: {}", show_range(&r.addresses(), 5, 10));
    let loops = find_loops(&r);
    for l in &loops {
        println!(
            "  loop on {} at hops {}..{} — cause: {:?} (probe TTLs {:?} then {:?})",
            l.addr,
            l.start + 1,
            l.start + l.len,
            l.cause,
            r.hops[l.start].probe.probe_ttl,
            r.hops[l.start + 1].probe.probe_ttl,
        );
    }
    ensure(
        matches!(&loops[..], [l] if l.addr == sc.a("A") && l.cause == LoopCause::ZeroTtlForwarding),
        "the loops found are not one zero-TTL-forwarding loop on A",
    )?;
    ensure(!r.addresses().contains(&Some(sc.a("F"))), "F answered a probe")?;
    println!("  F itself never appears: it forwarded the TTL-0 probe instead of answering.\n");
    Ok(())
}

fn fig5() -> Reproduced {
    println!("== Fig. 5: a loop from NAT address rewriting ==");
    let sc = scenarios::fig5();
    let mut tx = tx_for(&sc, 1);
    let mut paris = ParisUdp::new(41_004, 52_004);
    let r = trace(&mut tx, &mut paris, sc.destination, TraceConfig::default());
    println!("  hops 6..10: {}", show_range(&r.addresses(), 5, 10));
    let ttls: Vec<u8> =
        r.hops.iter().skip(5).take(4).filter_map(|h| h.probe.response_ttl).collect();
    print!("  response TTLs at hops 6..9:");
    for ttl in &ttls {
        print!(" {ttl}");
    }
    let as_published = ttls == [250, 249, 248, 247];
    let verdict = if as_published { "the paper's" } else { "NOT the paper's" };
    println!(" — {verdict} 250, 249, 248, 247: one address, four distances.");
    ensure(as_published, "the response TTLs are not the paper's")?;
    let loops = find_loops(&r);
    for l in &loops {
        println!("  loop on {} — cause: {:?}\n", l.addr, l.cause);
    }
    ensure(
        matches!(&loops[..], [l] if l.addr == sc.a("N") && l.cause == LoopCause::AddressRewriting),
        "the loops found are not one address-rewriting loop on N",
    )
}

fn fig6() -> Reproduced {
    println!("== Fig. 6: diamonds ==");
    let sc = scenarios::fig6(BalancerKind::PerFlow(FlowPolicy::FiveTuple));
    let mut tx = tx_for(&sc, 6);
    let name_of = |addr: std::net::Ipv4Addr| -> String {
        ["L", "A", "B", "C", "D", "E", "G"]
            .into_iter()
            .find(|n| sc.a(n) == addr)
            .map(String::from)
            .unwrap_or_else(|| addr.to_string())
    };
    let print_diamonds = |label: &str, graph: &DestinationGraph| {
        println!("  {label}:");
        for d in graph.diamonds() {
            let mids: Vec<String> = d.middles.iter().map(|m| name_of(*m)).collect();
            println!(
                "    ({}, {})  middles {{{}}}",
                name_of(d.head),
                name_of(d.tail),
                mids.join(", ")
            );
        }
    };

    let mut classic_graph = DestinationGraph::new();
    for pid in 0..64u16 {
        let mut strat = ClassicUdp::new(pid);
        let r = trace(&mut tx, &mut strat, sc.destination, TraceConfig::default());
        classic_graph.ingest(&r);
    }
    print_diamonds("diamonds from 64 classic traces", &classic_graph);
    ensure(classic_graph.is_diamond(sc.a("C"), sc.a("G")), "classic shows no (C, G) diamond")?;
    println!(
        "    note (C, G): classic's flow mixing fabricates the triple C→E→G, so even\n    (C, G) looks like a diamond — a false one."
    );

    let mut paris_graph = DestinationGraph::new();
    for i in 0..64u16 {
        let mut strat = ParisUdp::new(42_000 + i, 52_100 + i);
        let r = trace(&mut tx, &mut strat, sc.destination, TraceConfig::default());
        paris_graph.ingest(&r);
    }
    print_diamonds("diamonds from 64 Paris traces (each a coherent path)", &paris_graph);
    let papers_four =
        [("L", "D"), ("L", "E"), ("A", "G"), ("B", "G")].map(|(h, t)| (sc.a(h), sc.a(t)));
    ensure(
        paris_graph.diamond_signatures() == papers_four.into_iter().collect(),
        "the Paris diamonds are not the paper's (L,D), (L,E), (A,G), (B,G)",
    )?;
    println!(
        "    exactly the paper's four: (L,D), (L,E), (A,G), (B,G) — and (C,G) is not\n    among them, because only D truly sits between C and G.\n"
    );
    Ok(())
}

fn forwarding_loop() -> Reproduced {
    println!("== §4.2: a genuine forwarding loop makes a cycle ==");
    let (sc, x, y) = scenarios::forwarding_loop_chain();
    let mut tx = tx_for(&sc, 3);
    let dst_pfx = pt_netsim::Ipv4Prefix::host(sc.destination);
    let x_to_y = sc.topology.iface_toward(x, y).ok_or("X has no interface toward Y")?;
    let y_to_x = sc.topology.iface_toward(y, x).ok_or("Y has no interface toward X")?;
    {
        let sim = tx.simulator_mut();
        let now = sim.now();
        sim.schedule_route_set(now, x, dst_pfx, Some(pt_netsim::NextHop::Iface(x_to_y)));
        sim.schedule_route_set(now, y, dst_pfx, Some(pt_netsim::NextHop::Iface(y_to_x)));
    }
    let mut paris = ParisUdp::new(41_005, 52_005);
    let r = trace(&mut tx, &mut paris, sc.destination, TraceConfig::default());
    println!("  hops 6..12: {}", show_range(&r.addresses(), 5, 12));
    let cycles = find_cycles(&r);
    for c in cycles.iter().take(3) {
        println!(
            "  cycle on {} (hops {} and {}) — cause: {:?}",
            c.addr,
            c.first + 1,
            c.second + 1,
            c.cause
        );
    }
    println!();
    ensure(
        cycles.iter().any(|c| c.cause == CycleCause::ForwardingLoop),
        "no cycle is attributed to a forwarding loop",
    )
}

fn main() -> ExitCode {
    let outcomes = [
        ("Fig. 1", fig1()),
        ("Fig. 3", fig3()),
        ("Fig. 4", fig4()),
        ("Fig. 5", fig5()),
        ("Fig. 6", fig6()),
        ("§4.2 forwarding loop", forwarding_loop()),
    ];
    let mut status = ExitCode::SUCCESS;
    for (name, outcome) in outcomes {
        if let Err(why) = outcome {
            eprintln!("figures: {name} did not reproduce: {why}");
            status = ExitCode::FAILURE;
        }
    }
    status
}
