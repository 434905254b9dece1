//! IPv4 prefixes and address allocation for the simulated internet.

use std::net::Ipv4Addr;

/// A CIDR prefix, used by routing tables and NAT inside-detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ipv4Prefix {
    base: u32,
    len: u8,
}

impl Ipv4Prefix {
    /// Construct from an address and prefix length, canonicalizing the base
    /// (host bits are cleared).
    ///
    /// # Panics
    /// Panics if `len > 32`.
    pub fn new(addr: Ipv4Addr, len: u8) -> Self {
        assert!(len <= 32, "prefix length out of range");
        let base = u32::from(addr) & Self::mask(len);
        Ipv4Prefix { base, len }
    }

    /// The all-encompassing default route prefix, `0.0.0.0/0`.
    pub const DEFAULT: Ipv4Prefix = Ipv4Prefix { base: 0, len: 0 };

    /// A host route, `addr/32`.
    pub fn host(addr: Ipv4Addr) -> Self {
        Ipv4Prefix::new(addr, 32)
    }

    fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - u32::from(len))
        }
    }

    /// Prefix length in bits.
    pub fn len(&self) -> u8 {
        self.len
    }

    /// True only for the zero-length default prefix.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The network base address.
    pub fn network(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.base)
    }

    /// Whether `addr` falls inside this prefix.
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        (u32::from(addr) & Self::mask(self.len)) == self.base
    }

    /// The `i`-th address within the prefix (no broadcast/network-address
    /// conventions — this is a simulator, every address is usable).
    pub fn nth(&self, i: u32) -> Ipv4Addr {
        Ipv4Addr::from(self.base.wrapping_add(i))
    }
}

impl core::fmt::Display for Ipv4Prefix {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

/// Hands out disjoint /24 subnets of a base /8 for simulated nodes; the
/// builder names a subnet's addresses with [`Ipv4Prefix::nth`].
#[derive(Debug)]
pub struct AddrAllocator {
    next_subnet: u32,
    base: u32,
}

impl AddrAllocator {
    /// Allocator over `base/8` (e.g. `10.0.0.0`).
    pub fn new(base: Ipv4Addr) -> Self {
        AddrAllocator { next_subnet: 0, base: u32::from(base) & 0xff00_0000 }
    }

    /// A fresh /24 subnet, disjoint from every one handed out before.
    pub fn next_subnet(&mut self) -> Ipv4Prefix {
        self.next_subnet += 1;
        Ipv4Prefix::new(Ipv4Addr::from(self.base + (self.next_subnet << 8)), 24)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_contains() {
        let p = Ipv4Prefix::new(Ipv4Addr::new(192, 0, 2, 77), 24);
        assert_eq!(p.network(), Ipv4Addr::new(192, 0, 2, 0));
        assert!(p.contains(Ipv4Addr::new(192, 0, 2, 1)));
        assert!(p.contains(Ipv4Addr::new(192, 0, 2, 255)));
        assert!(!p.contains(Ipv4Addr::new(192, 0, 3, 1)));
    }

    #[test]
    fn default_prefix_contains_everything() {
        assert!(Ipv4Prefix::DEFAULT.contains(Ipv4Addr::new(1, 2, 3, 4)));
        assert!(Ipv4Prefix::DEFAULT.contains(Ipv4Addr::new(255, 255, 255, 255)));
    }

    #[test]
    fn host_prefix_contains_only_itself() {
        let a = Ipv4Addr::new(10, 1, 2, 3);
        let p = Ipv4Prefix::host(a);
        assert!(p.contains(a));
        assert!(!p.contains(Ipv4Addr::new(10, 1, 2, 4)));
    }

    #[test]
    fn allocator_hands_out_unique_addresses() {
        // Every address of 1000 subnets, named as the builder names them.
        let mut alloc = AddrAllocator::new(Ipv4Addr::new(10, 0, 0, 0));
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..1000 {
            let subnet = alloc.next_subnet();
            assert_eq!(subnet.len(), 24);
            for i in 0..256 {
                assert!(seen.insert(subnet.nth(i)), "duplicate address");
            }
        }
    }

    #[test]
    fn allocator_subnets_are_disjoint() {
        let mut alloc = AddrAllocator::new(Ipv4Addr::new(10, 0, 0, 0));
        let s1 = alloc.next_subnet();
        let s2 = alloc.next_subnet();
        for i in [0, 1, 254, 255] {
            let (a1, a2) = (s1.nth(i), s2.nth(i));
            assert!(s1.contains(a1));
            assert!(s2.contains(a2));
            assert!(!s1.contains(a2));
            assert!(!s2.contains(a1));
        }
    }

    #[test]
    fn nth_walks_the_prefix() {
        let p = Ipv4Prefix::new(Ipv4Addr::new(10, 9, 8, 0), 24);
        assert_eq!(p.nth(0), Ipv4Addr::new(10, 9, 8, 0));
        assert_eq!(p.nth(7), Ipv4Addr::new(10, 9, 8, 7));
    }
}
