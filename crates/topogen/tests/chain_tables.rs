//! Route changes (forwarding loops, balancer flaps) target only the
//! routers in a destination's `DestInfo::chain`, and a simulator copies a
//! node's routing table at the first change applied there. That copy is
//! cheap because every chain router boots with at most two routes (the
//! source prefix and a default); the per-destination host routes live on
//! core routers, which no change touches.

use pt_topogen::{generate, InternetConfig};

fn check(name: &str, config: &InternetConfig) {
    let net = generate(config);
    for dest in &net.dests {
        for &node in &dest.chain {
            let routes = net.topology.node(node).routing.len();
            assert!(routes <= 2, "{name}: {} holds {routes} routes", net.topology.node(node).name);
        }
    }
}

#[test]
fn chain_routers_hold_at_most_two_routes() {
    for seed in [2006, 7] {
        check("default", &InternetConfig { seed, ..InternetConfig::default() });
        check("hostile", &InternetConfig::hostile(seed));
    }
}
