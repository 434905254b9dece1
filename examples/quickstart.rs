//! Quickstart: build a small network, trace it with classic and Paris
//! traceroute, and print both routes side by side.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use pt_core::{render, trace, ClassicUdp, ParisUdp, TraceConfig};
use pt_netsim::node::BalancerKind;
use pt_netsim::{scenarios, SimTransport, Simulator};
use pt_wire::FlowPolicy;

fn main() {
    // The paper's Fig. 1 network: a per-flow load balancer at hop 6
    // splitting over two paths with silent routers on each.
    let sc = scenarios::fig1(BalancerKind::PerFlow(FlowPolicy::FiveTuple));
    println!(
        "Fig. 1 topology: L (hop 6) balances over A–C (silent C) and B–D (silent B), remerging at E.\n"
    );

    let mut tx = SimTransport::new(Simulator::new(sc.topology.clone(), 2006), sc.source);

    // Classic traceroute's outcome depends on how each probe's flow
    // hashes; pick a PID whose trace exhibits the false link A→D.
    let classic_route = (0..512u16)
        .map(|pid| {
            let mut classic = ClassicUdp::new(pid);
            trace(&mut tx, &mut classic, sc.destination, TraceConfig::default())
        })
        .find(|r| {
            let a = r.addresses();
            a[6] == Some(sc.a("A")) && a[7] == Some(sc.a("D"))
        })
        .expect("some flow assignment shows the false link");
    println!("classic traceroute (Destination Port varies per probe), {:?}", classic_route.halt);
    println!("{}", render(&classic_route));

    let mut paris = ParisUdp::new(41_000, 53_000);
    let paris_route = trace(&mut tx, &mut paris, sc.destination, TraceConfig::default());
    println!(
        "paris traceroute (five-tuple fixed, Checksum identifies probes), {:?}",
        paris_route.halt
    );
    println!("{}", render(&paris_route));

    // The falsifiable claim of the paper, in two lines:
    let c = classic_route.addresses();
    let p = paris_route.addresses();
    println!("classic hops 7..8: {:?} → can pair A with D (a false link)", &c[6..8]);
    println!(
        "paris   hops 7..8: {:?} → one physical path, stars where routers are silent",
        &p[6..8]
    );
}
