//! Property tests pinning the optimized routing structures to a naive
//! reference: the sorted-entry [`RoutingTable`] and the copy-on-write
//! [`RouteDelta`] over it — read through [`NodeRouting`], the pair the
//! simulator's forwarding path uses — must be lookup-equivalent to a
//! plain linear filter-and-max longest-prefix-match table under
//! arbitrary set/remove sequences, wherever the sequence is split
//! between base and delta.

use proptest::prelude::*;
use pt_netsim::addr::Ipv4Prefix;
use pt_netsim::routing::{NextHop, NodeRouting, RouteDelta, RoutingTable};
use std::net::Ipv4Addr;

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
    // the interesting cases for shadowing, tombstones and LPM ties.
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

    /// Base-plus-delta matches the reference for *every* split of the
    /// op sequence into boot-time (base) and dynamic (delta) halves.
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
        let mut delta = RouteDelta::new();
        for op in &ops[split..] {
            apply_naive(&mut naive, op);
            match &op.action {
                Some(nh) => delta.set(op.prefix, nh.clone()),
                None => delta.remove(&base, op.prefix),
            }
        }
        let overlay = NodeRouting::new(&base, &delta);
        for addr in probe_addrs(&ops) {
            prop_assert_eq!(
                overlay.lookup(addr),
                naive.lookup(addr),
                "addr {} (split {})",
                addr,
                split
            );
            // lookup_entry must agree with lookup and report a prefix
            // that actually contains the address.
            if let Some((prefix, nh)) = overlay.lookup_entry(addr) {
                prop_assert!(prefix.contains(addr));
                prop_assert_eq!(Some(nh), overlay.lookup(addr));
            }
        }
        // The flattened overlay is the same table the reference built.
        let flat = overlay.flatten();
        for addr in probe_addrs(&ops) {
            prop_assert_eq!(flat.lookup(addr), naive.lookup(addr), "flattened, addr {}", addr);
        }
    }

    /// A delta never leaks writes into its shared base.
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
        let frozen = base.clone();
        let mut delta = RouteDelta::new();
        for op in &overlay_ops {
            match &op.action {
                Some(nh) => delta.set(op.prefix, nh.clone()),
                None => delta.remove(&base, op.prefix),
            }
        }
        for addr in probe_addrs(&base_ops) {
            prop_assert_eq!(frozen.lookup(addr), base.lookup(addr));
        }
    }
}
