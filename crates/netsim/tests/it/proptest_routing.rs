//! Property tests pinning routing to a naive reference: the sorted-entry
//! [`RoutingTable`], and a node's routes in a [`Simulator`] after route
//! changes applied through [`Simulator::schedule_route_set`], must be
//! lookup-equivalent to a plain linear filter-and-max longest-prefix-match
//! table under arbitrary set/remove sequences, wherever the sequence is
//! split between the topology's boot-time table and the changes.

use std::net::Ipv4Addr;
use std::sync::Arc;

use proptest::prelude::*;
use pt_netsim::addr::Ipv4Prefix;
use pt_netsim::routing::{NextHop, RoutingTable};
use pt_netsim::{RouterConfig, SimTime, Simulator, TopologyBuilder};

/// The naive reference: unordered entries, lookup by filtering every
/// entry and keeping the longest match — exactly the pre-optimization
/// semantics (host routes included; two distinct equal-length prefixes
/// can never both contain one address, so ties cannot arise).
#[derive(Default)]
struct NaiveTable {
    entries: Vec<(Ipv4Prefix, NextHop)>,
}

impl NaiveTable {
    fn set(&mut self, prefix: Ipv4Prefix, nh: NextHop) {
        match self.entries.iter_mut().find(|(p, _)| *p == prefix) {
            Some(slot) => slot.1 = nh,
            None => self.entries.push((prefix, nh)),
        }
    }

    fn remove(&mut self, prefix: Ipv4Prefix) {
        self.entries.retain(|(p, _)| *p != prefix);
    }

    fn lookup(&self, dst: Ipv4Addr) -> Option<&NextHop> {
        self.entries
            .iter()
            .filter(|(p, _)| p.contains(dst))
            .max_by_key(|(p, _)| p.len())
            .map(|(_, nh)| nh)
    }
}

/// One scripted table operation.
#[derive(Debug, Clone)]
struct Op {
    prefix: Ipv4Prefix,
    /// `Some` installs the next hop, `None` removes the prefix.
    action: Option<NextHop>,
}

fn next_hop_from(tag: u8) -> NextHop {
    match tag % 4 {
        0 => NextHop::Blackhole,
        1 => NextHop::Balanced {
            kind: pt_netsim::node::BalancerKind::PerDestination,
            egresses: vec![usize::from(tag % 3), usize::from(tag % 3) + 1],
        },
        _ => NextHop::Iface(usize::from(tag % 7)),
    }
}

fn arb_op() -> impl Strategy<Value = Op> {
    // A small address pool makes prefixes overlap and collide often —
    // the interesting cases for shadowing, removals and LPM ties.
    (any::<u8>(), 0u8..=32, 0u8..=255, any::<bool>()).prop_map(|(addr_low, len, tag, remove)| {
        let addr = Ipv4Addr::new(10, addr_low % 4, addr_low % 8, addr_low);
        let prefix = Ipv4Prefix::new(addr, len);
        Op { prefix, action: (!remove).then(|| next_hop_from(tag)) }
    })
}

/// Addresses worth probing: each prefix's own network address, a
/// neighbor inside it, and a few fixed outsiders.
fn probe_addrs(ops: &[Op]) -> Vec<Ipv4Addr> {
    let mut addrs: Vec<Ipv4Addr> =
        ops.iter().flat_map(|op| [op.prefix.network(), op.prefix.nth(1)]).collect();
    addrs.extend([
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(10, 3, 7, 255),
        Ipv4Addr::new(192, 0, 2, 1),
    ]);
    addrs
}

fn apply_naive(table: &mut NaiveTable, op: &Op) {
    match &op.action {
        Some(nh) => table.set(op.prefix, nh.clone()),
        None => table.remove(op.prefix),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The sorted-entry table alone matches the reference.
    #[test]
    fn routing_table_matches_naive_reference(
        ops in proptest::collection::vec(arb_op(), 0..40),
    ) {
        let mut naive = NaiveTable::default();
        let mut table = RoutingTable::new();
        for op in &ops {
            apply_naive(&mut naive, op);
            match &op.action {
                Some(nh) => table.set(op.prefix, nh.clone()),
                None => {
                    table.remove(op.prefix);
                }
            }
        }
        for addr in probe_addrs(&ops) {
            prop_assert_eq!(table.lookup(addr), naive.lookup(addr), "addr {}", addr);
        }
        // The sorted invariant the fast lookup relies on.
        for w in table.entries().windows(2) {
            prop_assert!(w[0].0.len() >= w[1].0.len());
        }
    }

    /// A node's routes after route changes match the reference for
    /// *every* split of the op sequence into boot-time (the topology's
    /// table) and dynamic (`schedule_route_set`) halves.
    #[test]
    fn overlay_matches_naive_reference_at_any_split(
        ops in proptest::collection::vec(arb_op(), 0..40),
        split_seed in any::<u16>(),
    ) {
        let split = if ops.is_empty() { 0 } else { usize::from(split_seed) % (ops.len() + 1) };
        let mut naive = NaiveTable::default();
        let mut base = RoutingTable::new();
        for op in &ops[..split] {
            apply_naive(&mut naive, op);
            match &op.action {
                Some(nh) => base.set(op.prefix, nh.clone()),
                None => {
                    base.remove(op.prefix);
                }
            }
        }
        let mut b = TopologyBuilder::new();
        let r = b.router("r", RouterConfig::default());
        let mut topo = b.build();
        topo.nodes[r.0].routing = base.clone();
        let topo = Arc::new(topo);
        let mut sim = Simulator::new(topo, 1);
        for op in &ops[split..] {
            apply_naive(&mut naive, op);
            sim.schedule_route_set(SimTime::ZERO, r, op.prefix, op.action.clone());
        }
        sim.run_to_quiescence();
        let table = sim.routing_of(r);
        for addr in probe_addrs(&ops) {
            prop_assert_eq!(table.lookup(addr), naive.lookup(addr), "addr {} (split {})", addr, split);
            // lookup_entry must agree with lookup and report a prefix
            // that actually contains the address.
            if let Some((prefix, nh)) = table.lookup_entry(addr) {
                prop_assert!(prefix.contains(addr));
                prop_assert_eq!(Some(nh), table.lookup(addr));
            }
        }
    }

    /// Route changes never leak into the topology's shared table: it
    /// still answers every lookup as before, another simulator over the
    /// same topology reads only it, and so does this one after a reset.
    #[test]
    fn overlay_leaves_base_untouched(
        base_ops in proptest::collection::vec(arb_op(), 0..20),
        overlay_ops in proptest::collection::vec(arb_op(), 1..20),
    ) {
        let mut base = RoutingTable::new();
        for op in &base_ops {
            match &op.action {
                Some(nh) => base.set(op.prefix, nh.clone()),
                None => {
                    base.remove(op.prefix);
                }
            }
        }
        let mut b = TopologyBuilder::new();
        let r = b.router("r", RouterConfig::default());
        let mut topo = b.build();
        topo.nodes[r.0].routing = base.clone();
        let topo = Arc::new(topo);
        let mut sim = Simulator::new(topo.clone(), 1);
        let twin = Simulator::new(topo.clone(), 1);
        for op in &overlay_ops {
            sim.schedule_route_set(SimTime::ZERO, r, op.prefix, op.action.clone());
        }
        sim.run_to_quiescence();
        let shared = &topo.nodes[r.0].routing;
        for addr in probe_addrs(&base_ops).into_iter().chain(probe_addrs(&overlay_ops)) {
            prop_assert_eq!(shared.lookup(addr), base.lookup(addr), "addr {}", addr);
        }
        prop_assert_eq!(twin.routing_of(r), &base);
        sim.reset(1);
        prop_assert_eq!(sim.routing_of(r), &base);
    }
}
