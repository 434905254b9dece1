//! The multipath discovery result: per-hop interface sets, the directed
//! interface-level DAG recovered from shared flow identifiers, and the
//! derived balancer metrics (width, branch-length delta,
//! per-flow/per-packet classification).

use std::net::Ipv4Addr;

/// How a balanced hop spreads traffic. The variants are declared in
/// order of dominance, so the derived `Ord` is the merge rule: the
/// `max` of two classifications keeps the stronger evidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BalancerClass {
    /// Fewer than two interfaces answered at the hop — nothing to
    /// classify.
    NotBalanced,
    /// The fixed-flow re-probe batch did not get enough answers to tell.
    Undetermined,
    /// One flow id always lands on one interface.
    PerFlow,
    /// Even a fixed flow id scatters across interfaces.
    PerPacket,
}

/// One hop's enumeration result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HopInterfaces {
    /// The TTL probed.
    pub ttl: u8,
    /// All interfaces discovered at this hop, sorted.
    pub interfaces: Vec<Ipv4Addr>,
    /// The committed flow evidence: `(flow id, responder)` for every
    /// flow the stopping rule consumed that got an answer, in flow
    /// order. Links between adjacent hops are derived from flows that
    /// appear in both.
    pub flows: Vec<(u16, Ipv4Addr)>,
    /// Probes spent on this hop (including retries, the fixed-flow
    /// classification batch, and any speculative probes a wider window
    /// launched past the stopping point).
    pub probes_sent: usize,
    /// Committed flows that never answered, even after retries. A
    /// silent router inside a balanced hop shows up here — and blocks
    /// [`HopInterfaces::converged`] — instead of being silently dropped
    /// and under-counting the hop's width.
    pub stars: usize,
    /// Whether the stopping rule was satisfied on a loss-free prefix:
    /// `true` means every committed flow answered and the rule ruled
    /// out a further interface at confidence `1 - alpha`. `false`
    /// means the width is a lower bound only (stars observed, flow
    /// budget exhausted, or an all-star hop).
    pub converged: bool,
    /// The hop's balancer classification (from the inline fixed-flow
    /// re-probe batch; [`BalancerClass::NotBalanced`] below width 2).
    pub class: BalancerClass,
}

impl HopInterfaces {
    /// Number of distinct interfaces observed at this hop.
    pub fn width(&self) -> usize {
        self.interfaces.len()
    }
}

/// A directed interface-level link: the flow that saw `from` at
/// `from_ttl` saw `to` at `from_ttl + 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct DagLink {
    /// TTL of the upstream interface.
    pub from_ttl: u8,
    /// Upstream interface.
    pub from: Ipv4Addr,
    /// Downstream interface (at `from_ttl + 1`).
    pub to: Ipv4Addr,
}

/// The multipath map toward one destination: hop sets plus the directed
/// DAG between adjacent hops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultipathMap {
    /// The destination traced.
    pub destination: Ipv4Addr,
    /// Per-hop records, starting at TTL 1.
    pub hops: Vec<HopInterfaces>,
    /// Directed links between interfaces at adjacent hops, discovered
    /// by reusing flow identifiers across TTLs; sorted and deduplicated.
    /// Under a per-packet balancer a flow id does not pin a path, so
    /// links there describe *observed* packet trajectories, not a
    /// stable per-flow routing (the hop's
    /// [`BalancerClass::PerPacket`] flags this).
    pub links: Vec<DagLink>,
    /// Total probes spent on the walk (speculation included).
    pub total_probes: usize,
    /// A committed probe was answered by the destination itself.
    pub reached: bool,
    /// A watchdog budget (probe count or virtual time) closed the
    /// launch gate while enumeration still wanted probes: the map is a
    /// valid but incomplete prefix of the full DAG, and widths are
    /// lower bounds everywhere, converged or not.
    pub degraded: bool,
}

impl MultipathMap {
    /// Hops where more than one interface answered — load-balanced hops.
    pub fn balanced_hops(&self) -> impl Iterator<Item = &HopInterfaces> {
        self.hops.iter().filter(|h| h.width() >= 2)
    }

    /// The maximum *confident* width: the widest hop whose stopping
    /// rule converged on a loss-free prefix. A hop that saw stars or
    /// ran out of budget never converged, so its (lower-bound) width is
    /// deliberately excluded — ask [`MultipathMap::max_observed_width`]
    /// for the optimistic figure.
    pub fn max_width(&self) -> usize {
        self.hops.iter().filter(|h| h.converged).map(HopInterfaces::width).max().unwrap_or(0)
    }

    /// The maximum width observed at any hop, converged or not.
    pub fn max_observed_width(&self) -> usize {
        self.hops.iter().map(HopInterfaces::width).max().unwrap_or(0)
    }

    /// Aggregate balancer classification for the destination: per-packet
    /// dominates (one per-packet hop makes flow evidence unreliable),
    /// then per-flow, then undetermined; `NotBalanced` when no hop shows
    /// two interfaces.
    pub fn classification(&self) -> BalancerClass {
        self.balanced_hops().map(|h| h.class).max().unwrap_or(BalancerClass::NotBalanced)
    }

    /// Downstream interfaces linked from `(from_ttl, from)`.
    pub fn successors(&self, from_ttl: u8, from: Ipv4Addr) -> impl Iterator<Item = Ipv4Addr> + '_ {
        self.links.iter().filter(move |l| l.from_ttl == from_ttl && l.from == from).map(|l| l.to)
    }

    /// The discovered branch-length delta: parallel branches of unequal
    /// length make the convergence interface (the diamond's merge
    /// point) appear at several TTLs — at `t` for flows hashed to the
    /// short branch and `t + delta` for the long one. The spread of the
    /// widest-spread such interface recovers `delta`; equal-length
    /// diamonds (and unbalanced paths) report 0.
    ///
    /// Loop artifacts are excluded: an interface one *single* flow saw
    /// at two TTLs (NAT address rewriting, zero-TTL forwarding, genuine
    /// forwarding loops) repeats *within* a path rather than across
    /// branches, so it says nothing about branch asymmetry. Under a
    /// per-packet balancer flows do not pin paths — there the raw
    /// spread is used (per-packet walks have no per-flow loop
    /// signature to confuse it with).
    pub fn discovered_delta(&self) -> u8 {
        let strict = self.classification() != BalancerClass::PerPacket;
        let mut best = 0u8;
        for (i, hop) in self.hops.iter().enumerate() {
            for &addr in &hop.interfaces {
                // Process each address at its first appearance only.
                if self.hops[..i].iter().any(|h| h.interfaces.contains(&addr)) {
                    continue;
                }
                let Some(last) = self.hops.iter().rposition(|h| h.interfaces.contains(&addr))
                else {
                    continue;
                };
                if last == i {
                    continue;
                }
                let spread = self.hops[last].ttl.saturating_sub(hop.ttl);
                if spread <= best {
                    continue;
                }
                if strict && self.addr_repeats_within_a_flow(addr) {
                    continue;
                }
                best = spread;
            }
        }
        best
    }

    /// Whether any single flow observed `addr` at two different hops —
    /// the per-flow signature of a loop (rewriting, zero-TTL
    /// forwarding), as opposed to cross-branch convergence.
    fn addr_repeats_within_a_flow(&self, addr: Ipv4Addr) -> bool {
        for (i, hop) in self.hops.iter().enumerate() {
            for &(flow, a) in &hop.flows {
                if a == addr
                    && self.hops[i + 1..].iter().any(|later| later.flows.contains(&(flow, addr)))
                {
                    return true;
                }
            }
        }
        false
    }

    /// A canonical rendering of the *discovered topology*: hop sets
    /// (with star/convergence/classification state), flow evidence,
    /// links and reachability — everything except probe counts and
    /// timing, which legitimately vary with the probing window. Two
    /// walks discovered the identical DAG iff their digests are
    /// byte-identical; the windowed-vs-sequential equivalence tests
    /// diff this string.
    pub fn dag_digest(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "destination: {} reached: {} degraded: {}",
            self.destination, self.reached, self.degraded
        );
        for hop in &self.hops {
            let _ = write!(
                out,
                "ttl {:>2}: [{}] stars={} converged={} class={:?} flows=[",
                hop.ttl,
                join(hop.interfaces.iter()),
                hop.stars,
                hop.converged,
                hop.class,
            );
            for (i, (flow, addr)) in hop.flows.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                let _ = write!(out, "{flow}:{addr}");
            }
            out.push_str("]\n");
        }
        for l in &self.links {
            let _ = writeln!(out, "link ttl {:>2}: {} -> {}", l.from_ttl, l.from, l.to);
        }
        let _ = writeln!(
            out,
            "width: {} observed: {} delta: {} class: {:?}",
            self.max_width(),
            self.max_observed_width(),
            self.discovered_delta(),
            self.classification()
        );
        out
    }
}

fn join<'a>(addrs: impl Iterator<Item = &'a Ipv4Addr>) -> String {
    let mut s = String::new();
    for (i, a) in addrs.enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&a.to_string());
    }
    s
}
