//! Forwarding state: longest-prefix-match routing tables whose next hops
//! may be single interfaces or load-balanced interface sets, plus the
//! copy-on-write overlay simulators layer over a shared base table.

use std::hash::{BuildHasherDefault, Hasher};
use std::net::Ipv4Addr;

use crate::addr::Ipv4Prefix;
use crate::node::BalancerKind;

/// A multiply-mix hasher for the `Ipv4Addr`-keyed route maps.
///
/// Host-route lookups run once per forwarded packet — the single
/// hottest map access in the simulator — and the default `HashMap`
/// hasher (SipHash-1-3) costs more than the rest of the lookup
/// combined for a 4-byte key. This hasher is a Fibonacci
/// multiply-xor: two multiplies, fully deterministic across runs and
/// platforms (no `RandomState`), which also keeps run results a pure
/// function of the seed. HashDoS resistance is irrelevant here: keys
/// come from the topology generator, not an adversary.
#[derive(Debug, Clone, Copy, Default)]
pub struct AddrHasher(u64);

impl Hasher for AddrHasher {
    #[inline]
    fn finish(&self) -> u64 {
        let mut x = self.0;
        x ^= x >> 32;
        x = x.wrapping_mul(0xd6e8_feb8_6659_fd93);
        x ^= x >> 32;
        x
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.0 = (self.0 ^ u64::from(i)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0 ^ i).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.write_u32(u32::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.write_u32(u32::from(i));
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// `HashMap` state for [`AddrHasher`]-hashed route maps.
pub type AddrHashBuilder = BuildHasherDefault<AddrHasher>;

/// An address-keyed map hashed with the deterministic [`AddrHasher`].
#[allow(clippy::disallowed_types, reason = "the fixed hasher orders iteration by the keys alone")]
pub type AddrMap<V> = std::collections::HashMap<Ipv4Addr, V, AddrHashBuilder>;

/// Where a routing table sends a matching packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NextHop {
    /// A single egress interface (index into the node's interface list).
    Iface(usize),
    /// An equal-cost set of egress interfaces, disambiguated by the
    /// balancer policy. This is the paper's load balancer `L`.
    Balanced {
        /// How packets are spread (per-flow, per-packet, per-destination).
        kind: BalancerKind,
        /// Candidate egress interfaces, in a stable order.
        egresses: Vec<usize>,
    },
    /// Discard matching packets without any ICMP (a silent blackhole /
    /// firewall rule).
    Blackhole,
}

impl NextHop {
    /// The egress interfaces this next hop may use.
    pub fn egresses(&self) -> &[usize] {
        match self {
            NextHop::Iface(i) => core::slice::from_ref(i),
            NextHop::Balanced { egresses, .. } => egresses,
            NextHop::Blackhole => &[],
        }
    }
}

/// A routing table: `(prefix, next hop)` entries resolved by
/// longest-prefix match.
///
/// Host (`/32`) routes live in a hash map — synthetic-Internet core
/// routers carry one per destination, and linear scans there would
/// dominate campaign run time. The remaining entries are kept sorted by
/// descending prefix length, so a lookup returns at the *first* entry
/// that contains the address instead of filtering the whole table (two
/// distinct prefixes of equal length can never both contain one address,
/// so the first containing entry is always the unique longest match).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoutingTable {
    /// Non-host entries, sorted by descending prefix length.
    entries: Vec<(Ipv4Prefix, NextHop)>,
    host_routes: AddrMap<NextHop>,
}

impl RoutingTable {
    /// An empty table (every lookup misses).
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert or replace the route for exactly `prefix`.
    pub fn set(&mut self, prefix: Ipv4Prefix, next_hop: NextHop) {
        if prefix.len() == 32 {
            self.host_routes.insert(prefix.network(), next_hop);
            return;
        }
        if let Some(slot) = self.entries.iter_mut().find(|(p, _)| *p == prefix) {
            slot.1 = next_hop;
        } else {
            let at = self.entries.partition_point(|(p, _)| p.len() >= prefix.len());
            self.entries.insert(at, (prefix, next_hop));
        }
    }

    /// Remove the route for exactly `prefix`, returning it if present.
    pub fn remove(&mut self, prefix: Ipv4Prefix) -> Option<NextHop> {
        if prefix.len() == 32 {
            return self.host_routes.remove(&prefix.network());
        }
        let idx = self.entries.iter().position(|(p, _)| *p == prefix)?;
        Some(self.entries.remove(idx).1)
    }

    /// Longest-prefix-match lookup.
    pub fn lookup(&self, dst: Ipv4Addr) -> Option<&NextHop> {
        self.lookup_entry(dst).map(|(_, nh)| nh)
    }

    /// Longest-prefix-match lookup, also reporting which prefix matched
    /// (needed to restore a route under the *same* prefix later).
    pub fn lookup_entry(&self, dst: Ipv4Addr) -> Option<(Ipv4Prefix, &NextHop)> {
        // A /32 match beats anything else by definition.
        if let Some(nh) = self.host_routes.get(&dst) {
            return Some((Ipv4Prefix::host(dst), nh));
        }
        // Sorted by descending length: the first containing entry wins.
        self.entries.iter().find(|(p, _)| p.contains(dst)).map(|(p, nh)| (*p, nh))
    }

    /// The route installed for exactly `prefix`, if any (no LPM).
    pub fn exact(&self, prefix: Ipv4Prefix) -> Option<&NextHop> {
        if prefix.len() == 32 {
            return self.host_routes.get(&prefix.network());
        }
        self.entries.iter().find(|(p, _)| *p == prefix).map(|(_, nh)| nh)
    }

    /// The host route for `dst`, if one is installed.
    pub fn host_route(&self, dst: Ipv4Addr) -> Option<&NextHop> {
        self.host_routes.get(&dst)
    }

    /// Non-host entries, sorted by descending prefix length.
    pub fn entries(&self) -> &[(Ipv4Prefix, NextHop)] {
        &self.entries
    }

    /// Number of entries (host routes included).
    pub fn len(&self) -> usize {
        self.entries.len() + self.host_routes.len()
    }

    /// True when the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.host_routes.is_empty()
    }
}

/// A node's copy-on-write routing changes, layered over a base
/// [`RoutingTable`] it does not own.
///
/// Simulators used to deep-copy every node's table at construction —
/// O(nodes × destinations) on the synthetic Internet, where each core
/// router carries one host route per destination. The delta makes
/// construction O(nodes) and allocation-free: a pristine delta is a
/// single null pointer, and only routes actually changed by routing
/// dynamics ([`crate::sim::Simulator::schedule_route_set`]) occupy
/// per-simulator memory. A `None` value is a tombstone masking a base
/// route.
#[derive(Debug, Clone, Default)]
pub struct RouteDelta {
    /// Boxed so a pristine delta (the overwhelmingly common case — one
    /// word, no allocation) keeps per-node state small and construction
    /// cheap.
    changes: Option<Box<DeltaChanges>>,
}

#[derive(Debug, Clone, Default)]
struct DeltaChanges {
    /// Non-host delta entries, sorted by descending prefix length.
    entries: Vec<(Ipv4Prefix, Option<NextHop>)>,
    /// Host-route delta entries.
    hosts: AddrMap<Option<NextHop>>,
}

impl RouteDelta {
    /// A delta with no changes.
    pub fn new() -> Self {
        Self::default()
    }

    /// A shared pristine delta, for borrow-only views over state that
    /// has no changes to show (the simulator's epoch-lazy node slots
    /// that have not been touched since a reset).
    pub fn pristine_ref() -> &'static RouteDelta {
        static PRISTINE: RouteDelta = RouteDelta { changes: None };
        &PRISTINE
    }

    /// True when no route differs from the base.
    pub fn is_pristine(&self) -> bool {
        self.changes.as_ref().is_none_or(|c| c.entries.is_empty() && c.hosts.is_empty())
    }

    /// Number of changed routes (diagnostics).
    pub fn len(&self) -> usize {
        self.changes.as_ref().map_or(0, |c| c.entries.len() + c.hosts.len())
    }

    /// True when the delta records no changes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Install or replace the route for exactly `prefix`.
    pub fn set(&mut self, prefix: Ipv4Prefix, next_hop: NextHop) {
        let c = self.changes.get_or_insert_default();
        if prefix.len() == 32 {
            c.hosts.insert(prefix.network(), Some(next_hop));
            return;
        }
        if let Some(slot) = c.entries.iter_mut().find(|(p, _)| *p == prefix) {
            slot.1 = Some(next_hop);
        } else {
            let at = c.entries.partition_point(|(p, _)| p.len() >= prefix.len());
            c.entries.insert(at, (prefix, Some(next_hop)));
        }
    }

    /// Remove the route for exactly `prefix` (a no-op if absent). When
    /// `base` carries the prefix a tombstone masks it; otherwise the
    /// delta entry is dropped so the delta stays minimal under the
    /// set-then-remove pattern routing dynamics produce.
    pub fn remove(&mut self, base: &RoutingTable, prefix: Ipv4Prefix) {
        let masks_base = base.exact(prefix).is_some();
        let Some(c) = self.changes.as_deref_mut() else {
            if masks_base {
                let c = self.changes.get_or_insert_default();
                if prefix.len() == 32 {
                    c.hosts.insert(prefix.network(), None);
                } else {
                    c.entries.push((prefix, None));
                }
            }
            return;
        };
        if prefix.len() == 32 {
            let addr = prefix.network();
            if masks_base {
                c.hosts.insert(addr, None);
            } else {
                c.hosts.remove(&addr);
            }
            return;
        }
        match c.entries.iter().position(|(p, _)| *p == prefix) {
            Some(idx) if !masks_base => {
                c.entries.remove(idx);
            }
            Some(idx) => c.entries[idx].1 = None,
            None if masks_base => {
                let at = c.entries.partition_point(|(p, _)| p.len() >= prefix.len());
                c.entries.insert(at, (prefix, None));
            }
            None => {}
        }
    }
}

/// The merged, read-only view of a base table plus one node's delta —
/// what the simulator's forwarding path consults. Borrow-only: building
/// one costs two pointer copies.
#[derive(Debug, Clone, Copy)]
pub struct NodeRouting<'a> {
    base: &'a RoutingTable,
    delta: &'a RouteDelta,
}

impl<'a> NodeRouting<'a> {
    /// View `delta` over `base`.
    pub fn new(base: &'a RoutingTable, delta: &'a RouteDelta) -> Self {
        NodeRouting { base, delta }
    }

    /// The underlying base table.
    pub fn base(&self) -> &'a RoutingTable {
        self.base
    }

    /// Longest-prefix-match lookup over the merged view.
    pub fn lookup(&self, dst: Ipv4Addr) -> Option<&'a NextHop> {
        // Fast path: pristine delta means the base answer is the answer.
        match self.delta.changes.as_deref() {
            None => self.base.lookup(dst),
            Some(_) => self.lookup_entry(dst).map(|(_, nh)| nh),
        }
    }

    /// Longest-prefix-match lookup over the merged view, also reporting
    /// which prefix matched.
    pub fn lookup_entry(&self, dst: Ipv4Addr) -> Option<(Ipv4Prefix, &'a NextHop)> {
        let Some(c) = self.delta.changes.as_deref() else {
            return self.base.lookup_entry(dst);
        };
        // Host routes: a delta entry (set *or* tombstone) overrides the
        // base; a tombstone falls through to the prefix entries.
        match c.hosts.get(&dst) {
            Some(Some(nh)) => return Some((Ipv4Prefix::host(dst), nh)),
            Some(None) => {}
            None => {
                if let Some(nh) = self.base.host_route(dst) {
                    return Some((Ipv4Prefix::host(dst), nh));
                }
            }
        }
        // Best live delta entry (skipping tombstones; they only mask the
        // base, shorter delta prefixes below them may still match).
        let from_delta = c
            .entries
            .iter()
            .filter(|(p, _)| p.contains(dst))
            .find_map(|(p, nh)| nh.as_ref().map(|nh| (*p, nh)));
        // Best base entry not overridden or tombstoned by the delta.
        let from_base = self
            .base
            .entries()
            .iter()
            .find(|(p, _)| p.contains(dst) && !c.entries.iter().any(|(q, _)| q == p))
            .map(|(p, nh)| (*p, nh));
        match (from_delta, from_base) {
            (Some(d), Some(b)) => Some(if d.0.len() >= b.0.len() { d } else { b }),
            (d, b) => d.or(b),
        }
    }

    /// Materialize the merged view as a plain table (tests, diagnostics —
    /// never on the forwarding path).
    pub fn flatten(&self) -> RoutingTable {
        let mut out = self.base.clone();
        if let Some(c) = self.delta.changes.as_deref() {
            for (prefix, change) in &c.entries {
                match change {
                    Some(nh) => out.set(*prefix, nh.clone()),
                    None => {
                        out.remove(*prefix);
                    }
                }
            }
            for (addr, change) in &c.hosts {
                let prefix = Ipv4Prefix::host(*addr);
                match change {
                    Some(nh) => out.set(prefix, nh.clone()),
                    None => {
                        out.remove(prefix);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: [u8; 4], len: u8) -> Ipv4Prefix {
        Ipv4Prefix::new(Ipv4Addr::from(s), len)
    }

    #[test]
    fn longest_prefix_wins() {
        let mut t = RoutingTable::new();
        t.set(Ipv4Prefix::DEFAULT, NextHop::Iface(0));
        t.set(p([10, 0, 0, 0], 8), NextHop::Iface(1));
        t.set(p([10, 1, 0, 0], 16), NextHop::Iface(2));
        assert_eq!(t.lookup(Ipv4Addr::new(10, 1, 2, 3)), Some(&NextHop::Iface(2)));
        assert_eq!(t.lookup(Ipv4Addr::new(10, 2, 2, 3)), Some(&NextHop::Iface(1)));
        assert_eq!(t.lookup(Ipv4Addr::new(192, 0, 2, 1)), Some(&NextHop::Iface(0)));
    }

    #[test]
    fn entries_stay_sorted_by_descending_length() {
        let mut t = RoutingTable::new();
        t.set(Ipv4Prefix::DEFAULT, NextHop::Iface(0));
        t.set(p([10, 1, 0, 0], 16), NextHop::Iface(2));
        t.set(p([10, 0, 0, 0], 8), NextHop::Iface(1));
        t.set(p([10, 1, 2, 0], 24), NextHop::Iface(3));
        let lens: Vec<u8> = t.entries().iter().map(|(p, _)| p.len()).collect();
        assert_eq!(lens, vec![24, 16, 8, 0]);
    }

    #[test]
    fn missing_route_without_default() {
        let mut t = RoutingTable::new();
        t.set(p([10, 0, 0, 0], 8), NextHop::Iface(0));
        assert_eq!(t.lookup(Ipv4Addr::new(192, 0, 2, 1)), None);
    }

    #[test]
    fn set_replaces_same_prefix() {
        let mut t = RoutingTable::new();
        t.set(Ipv4Prefix::DEFAULT, NextHop::Iface(0));
        t.set(Ipv4Prefix::DEFAULT, NextHop::Iface(3));
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(Ipv4Addr::new(8, 8, 8, 8)), Some(&NextHop::Iface(3)));
    }

    #[test]
    fn remove_route() {
        let mut t = RoutingTable::new();
        t.set(Ipv4Prefix::DEFAULT, NextHop::Iface(0));
        assert!(t.remove(Ipv4Prefix::DEFAULT).is_some());
        assert!(t.lookup(Ipv4Addr::new(8, 8, 8, 8)).is_none());
        assert!(t.remove(Ipv4Prefix::DEFAULT).is_none());
    }

    #[test]
    fn lookup_entry_reports_the_matching_prefix() {
        let mut t = RoutingTable::new();
        t.set(Ipv4Prefix::DEFAULT, NextHop::Iface(0));
        t.set(p([10, 1, 0, 0], 16), NextHop::Iface(2));
        let a = Ipv4Addr::new(10, 1, 9, 9);
        assert_eq!(t.lookup_entry(a), Some((p([10, 1, 0, 0], 16), &NextHop::Iface(2))));
        let host = Ipv4Addr::new(10, 3, 0, 1);
        t.set(Ipv4Prefix::host(host), NextHop::Iface(7));
        assert_eq!(t.lookup_entry(host), Some((Ipv4Prefix::host(host), &NextHop::Iface(7))));
    }

    #[test]
    fn balanced_next_hop_exposes_egresses() {
        let nh = NextHop::Balanced { kind: BalancerKind::PerPacket, egresses: vec![1, 2, 3] };
        assert_eq!(nh.egresses(), &[1, 2, 3]);
        assert_eq!(NextHop::Iface(7).egresses(), &[7]);
        assert!(NextHop::Blackhole.egresses().is_empty());
    }
}

#[cfg(test)]
mod host_route_tests {
    use super::*;

    #[test]
    fn host_route_beats_shorter_prefixes() {
        let mut t = RoutingTable::new();
        t.set(Ipv4Prefix::DEFAULT, NextHop::Iface(0));
        let a = Ipv4Addr::new(10, 1, 2, 3);
        t.set(Ipv4Prefix::host(a), NextHop::Iface(5));
        assert_eq!(t.lookup(a), Some(&NextHop::Iface(5)));
        assert_eq!(t.lookup(Ipv4Addr::new(10, 1, 2, 4)), Some(&NextHop::Iface(0)));
        assert_eq!(t.len(), 2);
        assert!(t.remove(Ipv4Prefix::host(a)).is_some());
        assert_eq!(t.lookup(a), Some(&NextHop::Iface(0)));
    }

    #[test]
    fn many_host_routes_resolve() {
        let mut t = RoutingTable::new();
        for i in 0..2000u32 {
            t.set(
                Ipv4Prefix::host(Ipv4Addr::from(0x0a00_0000 + i)),
                NextHop::Iface(i as usize % 7),
            );
        }
        assert_eq!(t.len(), 2000);
        assert_eq!(t.lookup(Ipv4Addr::from(0x0a00_0000 + 1234)), Some(&NextHop::Iface(1234 % 7)));
    }
}

#[cfg(test)]
mod overlay_tests {
    use super::*;

    fn p(s: [u8; 4], len: u8) -> Ipv4Prefix {
        Ipv4Prefix::new(Ipv4Addr::from(s), len)
    }

    fn base() -> RoutingTable {
        let mut t = RoutingTable::new();
        t.set(Ipv4Prefix::DEFAULT, NextHop::Iface(0));
        t.set(p([10, 0, 0, 0], 8), NextHop::Iface(1));
        t.set(Ipv4Prefix::host(Ipv4Addr::new(10, 9, 9, 9)), NextHop::Iface(9));
        t
    }

    /// What `SimState::forward` consults: the node's delta over the
    /// topology's base table.
    fn lookup<'a>(
        base: &'a RoutingTable,
        delta: &'a RouteDelta,
        a: [u8; 4],
    ) -> Option<&'a NextHop> {
        NodeRouting::new(base, delta).lookup(Ipv4Addr::from(a))
    }

    #[test]
    fn pristine_overlay_mirrors_base() {
        let (base, d) = (base(), RouteDelta::new());
        assert!(d.is_pristine());
        assert_eq!(lookup(&base, &d, [10, 2, 3, 4]), Some(&NextHop::Iface(1)));
        assert_eq!(lookup(&base, &d, [10, 9, 9, 9]), Some(&NextHop::Iface(9)));
        assert_eq!(lookup(&base, &d, [192, 0, 2, 1]), Some(&NextHop::Iface(0)));
    }

    #[test]
    fn delta_set_shadows_base() {
        let (base, mut d) = (base(), RouteDelta::new());
        d.set(p([10, 0, 0, 0], 8), NextHop::Iface(4));
        assert_eq!(lookup(&base, &d, [10, 2, 3, 4]), Some(&NextHop::Iface(4)));
        // More specific delta entry beats a shorter base entry.
        d.set(p([10, 2, 0, 0], 16), NextHop::Iface(5));
        assert_eq!(lookup(&base, &d, [10, 2, 3, 4]), Some(&NextHop::Iface(5)));
        assert_eq!(lookup(&base, &d, [10, 3, 3, 4]), Some(&NextHop::Iface(4)));
    }

    #[test]
    fn tombstone_masks_base_and_falls_through() {
        let (base, mut d) = (base(), RouteDelta::new());
        d.remove(&base, p([10, 0, 0, 0], 8));
        // The /8 is gone; the default still matches.
        assert_eq!(lookup(&base, &d, [10, 2, 3, 4]), Some(&NextHop::Iface(0)));
        // Removing a base host route re-exposes shorter prefixes.
        d.remove(&base, Ipv4Prefix::host(Ipv4Addr::new(10, 9, 9, 9)));
        assert_eq!(lookup(&base, &d, [10, 9, 9, 9]), Some(&NextHop::Iface(0)));
    }

    #[test]
    fn set_then_remove_of_novel_route_leaves_no_delta() {
        let (base, mut d) = (base(), RouteDelta::new());
        let dest = [172, 16, 0, 1];
        d.set(Ipv4Prefix::host(Ipv4Addr::from(dest)), NextHop::Iface(3));
        assert_eq!(lookup(&base, &d, dest), Some(&NextHop::Iface(3)));
        d.remove(&base, Ipv4Prefix::host(Ipv4Addr::from(dest)));
        assert_eq!(lookup(&base, &d, dest), Some(&NextHop::Iface(0)));
        assert!(d.is_pristine(), "novel set+remove must not grow the delta");
    }

    #[test]
    fn lookup_entry_reports_prefix_across_layers() {
        let (base, mut d) = (base(), RouteDelta::new());
        let a = Ipv4Addr::new(10, 2, 3, 4);
        assert_eq!(NodeRouting::new(&base, &d).lookup_entry(a).unwrap().0, p([10, 0, 0, 0], 8));
        d.set(p([10, 2, 0, 0], 16), NextHop::Iface(5));
        let view = NodeRouting::new(&base, &d);
        assert_eq!(view.lookup_entry(a).unwrap().0, p([10, 2, 0, 0], 16));
        assert_eq!(view.lookup_entry(Ipv4Addr::new(10, 9, 9, 9)).unwrap().0.len(), 32);
    }

    #[test]
    fn flatten_matches_overlay_lookups() {
        let (base, mut d) = (base(), RouteDelta::new());
        d.set(p([10, 2, 0, 0], 16), NextHop::Iface(5));
        d.remove(&base, p([10, 0, 0, 0], 8));
        d.set(Ipv4Prefix::host(Ipv4Addr::new(192, 0, 2, 7)), NextHop::Blackhole);
        let flat = NodeRouting::new(&base, &d).flatten();
        for addr in [[10, 2, 3, 4], [10, 3, 3, 4], [10, 9, 9, 9], [192, 0, 2, 7], [192, 0, 2, 8]] {
            assert_eq!(lookup(&base, &d, addr), flat.lookup(Ipv4Addr::from(addr)), "addr {addr:?}");
        }
    }

    #[test]
    fn overlay_does_not_touch_base() {
        let (shared, mut d) = (base(), RouteDelta::new());
        d.set(Ipv4Prefix::DEFAULT, NextHop::Blackhole);
        d.remove(&shared, p([10, 0, 0, 0], 8));
        assert_eq!(shared.lookup(Ipv4Addr::new(10, 2, 3, 4)), Some(&NextHop::Iface(1)));
        assert_eq!(shared.lookup(Ipv4Addr::new(192, 0, 2, 1)), Some(&NextHop::Iface(0)));
    }
}
