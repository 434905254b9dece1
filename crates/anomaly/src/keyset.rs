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
    /// How many fresh keys the last seal moved: what
    /// [`KeySet::reserve`] makes room for. The size is kept, not the
    /// memory.
    last_fresh: usize,
}

impl<const N: usize> KeySet<N> {
    /// The set of an ascending, duplicate-free run (a record's section,
    /// checked as it was read).
    pub(crate) fn from_run(sorted: Vec<Key<N>>) -> Self {
        KeySet { sorted, ..Default::default() }
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

    /// Move the fresh keys into the sorted run, and free their table.
    fn seal(&mut self) {
        if !self.fresh.is_empty() {
            let fresh = self.fresh_run();
            self.last_fresh = fresh.len();
            merge_runs(&mut self.sorted, fresh);
            self.fresh = Default::default();
        }
    }

    /// Make room for as many fresh keys as the last seal moved, so that
    /// a set emptied and refilled allocates its table once per refill
    /// instead of doubling it from empty.
    pub(crate) fn reserve(&mut self) {
        self.fresh.reserve(self.last_fresh);
    }

    /// Union with `other`, leaving this set one sorted run and `other`
    /// empty but for its [`KeySet::reserve`] size. An empty set takes
    /// `other`'s run whole.
    pub(crate) fn absorb(&mut self, other: &mut KeySet<N>) {
        self.seal();
        other.seal();
        merge_runs(&mut self.sorted, std::mem::take(&mut other.sorted));
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
/// one, in place. Each key of `b` finds its place by galloping on from
/// the last one's, so a `b` much shorter than `a` — a block against a
/// campaign's fold — costs a few comparisons per key, not a pass over
/// `a`. A first pass counts the keys `a` lacks; `a` grows by exactly
/// that many, and a second pass, from the back, moves each slice of
/// `a`'s keys up once and puts `b`'s new keys between them.
fn merge_runs<const N: usize>(a: &mut Vec<Key<N>>, b: Vec<Key<N>>) {
    if a.is_empty() {
        *a = b;
        return;
    }
    let lacking = lacking(a, &b);
    // `a[..unmoved]` holds the keys of `a` not yet moved up, `a[free..]`
    // the merged keys in their final places.
    let mut unmoved = a.len();
    a.resize(unmoved + lacking, [0; N]);
    let mut free = a.len();
    for key in b.iter().rev() {
        if free == unmoved {
            // Every new key is placed: the rest of `b` is in `a`.
            break;
        }
        let above = gallop(unmoved, |i| a[unmoved - 1 - i] > *key);
        a.copy_within(unmoved - above..unmoved, free - above);
        (unmoved, free) = (unmoved - above, free - above);
        if unmoved == 0 || a[unmoved - 1] != *key {
            free -= 1;
            a[free] = *key;
        }
    }
}

/// How many keys of the ascending run `b` the ascending run `a` lacks.
fn lacking<const N: usize>(a: &[Key<N>], b: &[Key<N>]) -> usize {
    let mut lacking = 0;
    let mut at = 0;
    for key in b {
        at += gallop(a.len() - at, |i| a[at + i] < *key);
        lacking += usize::from(a.get(at) != Some(key));
    }
    lacking
}

/// The length of the longest prefix of `0..len` on which `holds` holds,
/// for a `holds` that holds up to some index and not from there on:
/// doubling steps from the front, then a binary search of the last.
fn gallop(len: usize, holds: impl Fn(usize) -> bool) -> usize {
    let mut step = 1;
    while step < len && holds(step - 1) {
        step *= 2;
    }
    let (mut lo, mut hi) = (step / 2, step.min(len));
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if holds(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The runs of keys sharing their first `prefix` fields.
pub(crate) fn groups<const N: usize>(
    keys: &[Key<N>],
    prefix: usize,
) -> impl Iterator<Item = &[Key<N>]> {
    keys.chunk_by(move |a, b| a[..prefix] == b[..prefix])
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Where a set's sorted run lives, and its capacity: what shows a
    /// run moved rather than copied.
    pub(crate) fn run_at<const N: usize>(set: &KeySet<N>) -> (usize, usize) {
        (set.sorted.as_ptr() as usize, set.sorted.capacity())
    }

    /// A small multiplicative generator: the tests need arbitrary, not
    /// random, keys.
    fn keys(seed: u32, n: usize, spread: u32) -> Vec<Key<2>> {
        (0..n as u32).map(|i| [(seed + i).wrapping_mul(0x9e37_79b9) % spread, i % 3]).collect()
    }

    /// `b` merged into `a`, against the two as `BTreeSet`s' union.
    fn check_union(a: &BTreeSet<Key<2>>, b: &BTreeSet<Key<2>>, what: &str) {
        let mut merged: Vec<Key<2>> = a.iter().copied().collect();
        merge_runs(&mut merged, b.iter().copied().collect());
        let union: Vec<Key<2>> = a.union(b).copied().collect();
        assert_eq!(merged, union, "{what}");
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
                check_union(&a, &b, &format!("{n_a} keys with {n_b}, seed {seed}"));
            }
        }
    }

    #[test]
    fn merging_runs_is_set_union_wherever_the_runs_meet() {
        let evens: BTreeSet<Key<2>> = (5..65).map(|i| [i * 2, 0]).collect();
        for (what, b) in [
            ("inside", (20..30).map(|i| [i * 2 + 1, 0]).collect::<BTreeSet<_>>()),
            ("inside, every key present", (10..50).map(|i| [i * 2, 0]).collect()),
            ("wholly below", (0..10).map(|i| [i, 0]).collect()),
            ("wholly above", (200..230).map(|i| [i, 1]).collect()),
            ("interleaved with duplicates", (0..90).map(|i| [i * 3 / 2, 0]).collect()),
            ("around both ends", [[0, 0], [10, 1], [128, 0], [129, 0], [500, 0]].into()),
            ("empty", BTreeSet::new()),
        ] {
            check_union(&evens, &b, what);
            check_union(&b, &evens, &format!("{what}, swapped"));
        }
    }

    #[test]
    fn a_merge_with_room_to_spare_keeps_its_vector() {
        let mut a: Vec<Key<2>> = Vec::with_capacity(64);
        a.extend((0..20).map(|i| [i * 2, 0]));
        let (ptr, capacity) = (a.as_ptr(), a.capacity());
        let b: Vec<Key<2>> = (5..40).map(|i| [i, 0]).collect();
        let union: BTreeSet<Key<2>> = a.iter().chain(&b).copied().collect();
        merge_runs(&mut a, b);
        assert_eq!(a, union.into_iter().collect::<Vec<_>>());
        assert_eq!((a.as_ptr(), a.capacity()), (ptr, capacity), "the merge moved `a`");
    }

    #[test]
    fn gallop_finds_the_first_key_not_below() {
        let run: Vec<Key<1>> = (0..37).map(|i| [i * 2]).collect();
        for len in [0, 1, 2, 3, 4, 5, 8, 9, 37] {
            let run = &run[..len];
            for key in 0..80 {
                let below = run.partition_point(|k| k[0] < key);
                assert_eq!(gallop(len, |i| run[i][0] < key), below, "{key} in the first {len}");
                // And from the back, as the in-place merge walks.
                let above = len - run.partition_point(|k| k[0] <= key);
                let back = gallop(len, |i| run[len - 1 - i][0] > key);
                assert_eq!(back, above, "{key} from the back of the first {len}");
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
        let fresh = other.len();
        set.absorb(&mut other);
        assert!(matches!(set.keys(), Cow::Borrowed(_)), "a merge leaves one sorted run");
        // The absorbed set is empty and holds no table, but remembers
        // how large one to make when it is refilled.
        assert_eq!((other.len(), other.fresh.capacity()), (0, 0));
        other.reserve();
        assert!(other.fresh.capacity() >= fresh, "{} < {fresh}", other.fresh.capacity());
        assert_eq!(set.keys().to_vec(), model.iter().copied().collect::<Vec<_>>());
        let by_first: usize = groups(&set.keys(), 1).map(|group| group.len()).sum();
        assert_eq!(by_first, model.len());
    }
}
