//! AS-level labeling of the synthetic Internet (§3 of the paper).
//!
//! The study mapped the 90 M response source addresses to AS numbers
//! using Mao et al.'s technique and reported coverage: 1,122 ASes, all
//! nine tier-1 ISPs, 64 of the top regional ASes. Our substitution is a
//! ground-truth prefix→AS map built at generation time: the access
//! network is the source AS, each core router is one tier-1 AS, and each
//! destination branch is a stub AS homed on its owner core.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use pt_netsim::addr::Ipv4Prefix;

/// An autonomous-system number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Asn(pub u32);

/// The role an AS plays in the synthetic hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AsTier {
    /// The measurement source's own network (Renater/LIP6 in the study).
    Source,
    /// A core transit network (the tier-1s).
    Tier1,
    /// A destination stub network.
    Stub,
}

/// A longest-prefix-match table from address space to AS numbers.
#[derive(Debug, Clone, Default)]
pub struct AsMap {
    entries: Vec<(Ipv4Prefix, Asn)>,
    tiers: BTreeMap<Asn, AsTier>,
}

impl AsMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `prefix` as belonging to `asn` with the given tier.
    pub fn insert(&mut self, prefix: Ipv4Prefix, asn: Asn, tier: AsTier) {
        self.entries.push((prefix, asn));
        self.tiers.insert(asn, tier);
    }

    /// Longest-prefix-match lookup of an address's AS.
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<Asn> {
        self.entries
            .iter()
            .filter(|(p, _)| p.contains(addr))
            .max_by_key(|(p, _)| p.len())
            .map(|(_, asn)| *asn)
    }

    /// The tier of a registered AS.
    pub fn tier(&self, asn: Asn) -> Option<AsTier> {
        self.tiers.get(&asn).copied()
    }

    /// Number of registered ASes.
    fn as_count(&self) -> usize {
        self.tiers.len()
    }

    /// All registered tier-1 ASes.
    pub fn tier1s(&self) -> Vec<Asn> {
        let mut v: Vec<Asn> =
            self.tiers.iter().filter(|(_, t)| **t == AsTier::Tier1).map(|(a, _)| *a).collect();
        v.sort();
        v
    }
}

/// §3-style coverage statistics for a set of observed addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsCoverage {
    /// Distinct ASes observed.
    pub ases_observed: usize,
    /// Distinct ASes registered in the map.
    pub ases_total: usize,
    /// Tier-1 ASes traversed.
    pub tier1s_observed: usize,
    /// Tier-1 ASes in the map (nine in the study).
    pub tier1s_total: usize,
    /// Addresses that mapped to no AS ("invalid" in the paper).
    pub unmapped_addresses: usize,
}

/// Compute §3 coverage from observed response source addresses.
pub fn coverage<'a>(map: &AsMap, addrs: impl IntoIterator<Item = &'a Ipv4Addr>) -> AsCoverage {
    let mut seen = std::collections::BTreeSet::new();
    let mut unmapped = 0usize;
    for addr in addrs {
        match map.lookup(*addr) {
            Some(asn) => {
                seen.insert(asn);
            }
            None => unmapped += 1,
        }
    }
    let tier1s_observed = seen.iter().filter(|a| map.tier(**a) == Some(AsTier::Tier1)).count();
    AsCoverage {
        ases_observed: seen.len(),
        ases_total: map.as_count(),
        tier1s_observed,
        tier1s_total: map.tier1s().len(),
        unmapped_addresses: unmapped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pfx(a: [u8; 4], len: u8) -> Ipv4Prefix {
        Ipv4Prefix::new(Ipv4Addr::from(a), len)
    }

    #[test]
    fn lookup_uses_longest_prefix() {
        let mut m = AsMap::new();
        m.insert(pfx([10, 0, 0, 0], 8), Asn(1), AsTier::Tier1);
        m.insert(pfx([10, 5, 0, 0], 16), Asn(2), AsTier::Stub);
        assert_eq!(m.lookup(Ipv4Addr::new(10, 5, 1, 1)), Some(Asn(2)));
        assert_eq!(m.lookup(Ipv4Addr::new(10, 6, 1, 1)), Some(Asn(1)));
        assert_eq!(m.lookup(Ipv4Addr::new(11, 0, 0, 1)), None);
    }

    #[test]
    fn coverage_counts_ases_tiers_and_unmapped() {
        let mut m = AsMap::new();
        m.insert(pfx([10, 1, 0, 0], 16), Asn(100), AsTier::Tier1);
        m.insert(pfx([10, 2, 0, 0], 16), Asn(101), AsTier::Tier1);
        m.insert(pfx([10, 3, 0, 0], 16), Asn(200), AsTier::Stub);
        let addrs = [
            Ipv4Addr::new(10, 1, 0, 1),
            Ipv4Addr::new(10, 1, 0, 2), // same AS twice
            Ipv4Addr::new(10, 3, 9, 9),
            Ipv4Addr::new(192, 0, 2, 1), // unmapped
        ];
        let c = coverage(&m, addrs.iter());
        assert_eq!(c.ases_observed, 2);
        assert_eq!(c.ases_total, 3);
        assert_eq!(c.tier1s_observed, 1);
        assert_eq!(c.tier1s_total, 2);
        assert_eq!(c.unmapped_addresses, 1);
    }

    #[test]
    fn tier1s_sorted() {
        let mut m = AsMap::new();
        m.insert(pfx([10, 2, 0, 0], 16), Asn(9), AsTier::Tier1);
        m.insert(pfx([10, 1, 0, 0], 16), Asn(3), AsTier::Tier1);
        assert_eq!(m.tier1s(), vec![Asn(3), Asn(9)]);
    }
}
