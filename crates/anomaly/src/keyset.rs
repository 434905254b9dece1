//! The one container the campaign accumulator keeps its sets in: keys
//! of a few 32-bit fields, held in the order a checkpoint record writes
//! them.

use std::borrow::Cow;
use std::hash::{Hash, Hasher};

use pt_netsim::routing::AddrHashBuilder;

/// A key of `N` fields — addresses as their big-endian integers, rounds
/// as they are — ordered field by field, which is the addresses' own
/// order at a fraction of the comparisons' cost.
pub(crate) type Key<const N: usize> = [u32; N];

/// A [`Key`] in a hash set: one multiply-mix per field, where the
/// array's own `Hash` feeds the hasher a length and then single bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Hashed<const N: usize>(Key<N>);

impl<const N: usize> Hash for Hashed<N> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for field in self.0 {
            state.write_u32(field);
        }
    }
}

/// A set of keys: one ascending, duplicate-free run — the order a
/// record is written in — plus the keys inserted since the run was last
/// extended. Ingest is one hash insert per key (it runs once per
/// measured route, the campaign's hot loop, so the set uses the
/// deterministic multiply-mix hasher instead of SipHash); merging two
/// sets merges two runs; nothing allocates per key.
#[derive(Debug, Clone, Default)]
pub(crate) struct KeySet<const N: usize> {
    sorted: Vec<Key<N>>,
    /// Disjoint from `sorted`, so the two lengths add up.
    #[allow(clippy::disallowed_types, reason = "fixed hasher; `fresh_run` sorts its output")]
    fresh: std::collections::HashSet<Hashed<N>, AddrHashBuilder>,
}

impl<const N: usize> KeySet<N> {
    /// The set of an ascending, duplicate-free run (a record's section,
    /// checked as it was read).
    pub(crate) fn from_run(sorted: Vec<Key<N>>) -> Self {
        KeySet { sorted, fresh: Default::default() }
    }

    pub(crate) fn insert(&mut self, key: Key<N>) {
        if self.sorted.binary_search(&key).is_err() {
            self.fresh.insert(Hashed(key));
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.sorted.len() + self.fresh.len()
    }

    /// The fresh keys as a run. Hash order ends here.
    fn fresh_run(&self) -> Vec<Key<N>> {
        let mut run: Vec<Key<N>> = self.fresh.iter().map(|key| key.0).collect();
        run.sort_unstable();
        run
    }

    /// Move the fresh keys into the sorted run.
    fn seal(&mut self) {
        if !self.fresh.is_empty() {
            let fresh = self.fresh_run();
            merge_runs(&mut self.sorted, fresh);
            self.fresh = Default::default();
        }
    }

    /// Union with `other`, leaving this set one sorted run.
    pub(crate) fn absorb(&mut self, mut other: KeySet<N>) {
        self.seal();
        other.seal();
        merge_runs(&mut self.sorted, other.sorted);
    }

    /// Every key in ascending order: the sorted run itself unless keys
    /// were inserted since it was last extended.
    pub(crate) fn keys(&self) -> Cow<'_, [Key<N>]> {
        if self.fresh.is_empty() {
            return Cow::Borrowed(&self.sorted);
        }
        let mut all = self.sorted.clone();
        merge_runs(&mut all, self.fresh_run());
        Cow::Owned(all)
    }
}

/// Merge the ascending, duplicate-free run `b` into `a`, keeping `a`
/// one. Each key of `b` finds its place by galloping on from the last
/// one's, so a `b` much shorter than `a` — a block against a
/// campaign's fold — costs a few comparisons per key, not a pass over
/// `a`; then `a` grows by exactly the keys it lacked and its tail moves
/// up once, slice by slice.
fn merge_runs<const N: usize>(a: &mut Vec<Key<N>>, b: Vec<Key<N>>) {
    if a.is_empty() {
        *a = b;
        return;
    }
    // The keys `a` lacks, each with the index in `a` it goes before.
    let mut inserts: Vec<(usize, Key<N>)> = Vec::with_capacity(b.len());
    let mut at = 0;
    for key in b {
        at += gallop(&a[at..], &key);
        if a.get(at) != Some(&key) {
            inserts.push((at, key));
        }
    }
    let mut end = a.len();
    a.resize(end + inserts.len(), [0; N]);
    // Back to front: the keys from one insert's place to the next move
    // up past every insert at or before them.
    for (before, &(at, key)) in inserts.iter().enumerate().rev() {
        a.copy_within(at..end, at + before + 1);
        a[at + before] = key;
        end = at;
    }
}

/// The index of the first key of `run` not below `key`, found by
/// doubling steps from the front and a binary search of the last.
fn gallop<const N: usize>(run: &[Key<N>], key: &Key<N>) -> usize {
    let mut step = 1;
    while step < run.len() && run[step - 1] < *key {
        step *= 2;
    }
    let from = step / 2;
    from + run[from..step.min(run.len())].partition_point(|k| k < key)
}

/// The runs of keys sharing their first `prefix` fields.
pub(crate) fn groups<const N: usize>(
    keys: &[Key<N>],
    prefix: usize,
) -> impl Iterator<Item = &[Key<N>]> {
    keys.chunk_by(move |a, b| a[..prefix] == b[..prefix])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// A small multiplicative generator: the tests need arbitrary, not
    /// random, keys.
    fn keys(seed: u32, n: usize, spread: u32) -> Vec<Key<2>> {
        (0..n as u32).map(|i| [(seed + i).wrapping_mul(0x9e37_79b9) % spread, i % 3]).collect()
    }

    #[test]
    fn merging_runs_is_set_union_for_every_size_ratio() {
        for (n_a, n_b, spread) in [
            (0, 5, 9),
            (5, 0, 9),
            (1, 1, 2),
            (40, 40, 30),
            (400, 3, 50),
            (3, 400, 50),
            (300, 300, 9),
        ] {
            for seed in 0..8 {
                let a: BTreeSet<Key<2>> = keys(seed, n_a, spread).into_iter().collect();
                let b: BTreeSet<Key<2>> = keys(seed + 100, n_b, spread).into_iter().collect();
                let mut merged: Vec<Key<2>> = a.iter().copied().collect();
                merge_runs(&mut merged, b.iter().copied().collect());
                let union: Vec<Key<2>> = a.union(&b).copied().collect();
                assert_eq!(merged, union, "{n_a} keys with {n_b}, seed {seed}");
            }
        }
    }

    #[test]
    fn gallop_finds_the_first_key_not_below() {
        let run: Vec<Key<1>> = (0..37).map(|i| [i * 2]).collect();
        for len in [0, 1, 2, 3, 4, 5, 8, 9, 37] {
            for key in 0..80 {
                let expect = run[..len].partition_point(|k| k[0] < key);
                assert_eq!(gallop(&run[..len], &[key]), expect, "{key} in the first {len}");
            }
        }
    }

    #[test]
    fn a_set_reads_the_same_sealed_or_not() {
        let mut set = KeySet::<2>::default();
        let mut model = BTreeSet::new();
        for (round, batch) in [keys(1, 50, 40), keys(2, 5, 40), keys(3, 80, 40)].iter().enumerate()
        {
            for &key in batch {
                set.insert(key);
                model.insert(key);
            }
            assert_eq!(set.len(), model.len());
            assert_eq!(set.keys().to_vec(), model.iter().copied().collect::<Vec<_>>());
            if round == 0 {
                // From here on inserts meet a sorted run.
                set.seal();
                assert!(matches!(set.keys(), Cow::Borrowed(_)));
            }
        }
        let mut other = KeySet::<2>::default();
        for key in keys(4, 60, 40) {
            other.insert(key);
            model.insert(key);
        }
        set.absorb(other);
        assert!(matches!(set.keys(), Cow::Borrowed(_)), "a merge leaves one sorted run");
        assert_eq!(set.keys().to_vec(), model.iter().copied().collect::<Vec<_>>());
        let by_first: usize = groups(&set.keys(), 1).map(|group| group.len()).sum();
        assert_eq!(by_first, model.len());
    }
}
