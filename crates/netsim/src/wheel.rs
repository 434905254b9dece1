//! A hierarchical timing wheel (calendar queue) for the simulator's
//! event schedule.
//!
//! The event workload is bimodal: the overwhelming majority of events
//! are packet hops a few microseconds-to-milliseconds out, while a thin
//! tail (scheduled routing dynamics, probe-timeout horizons) sits
//! hundreds of milliseconds to seconds in the future. A `BinaryHeap`
//! charges every one of those events two O(log n) sifts — and each sift
//! moves the whole fat event struct. The wheel instead parks events in
//! slab slots (the same allocation discipline as
//! [`crate::arena::PacketArena`]) and threads 4-byte indices through
//! intrusive bucket lists:
//!
//! * a **near wheel** of [`NEAR_BUCKETS`] fixed-width buckets (width
//!   `2^shift` nanoseconds) covers the dense head of the distribution —
//!   `schedule` is an index computation plus a list push, O(1);
//! * an **overflow list** holds events beyond the near horizon; it
//!   cascades into the near wheel as the clock advances (each event
//!   cascades at most once per level, and the overflow population is
//!   tiny by construction, so the amortized cost stays O(1));
//! * popping drains one bucket at a time into a small sorted `ready`
//!   batch, so events come out in **exactly** the `(time, seq)` order
//!   the `BinaryHeap` produced — the fixed-seed campaign digest is
//!   byte-identical by design, not by luck (pinned by the differential
//!   property suite in `tests/proptest_wheel.rs`).
//!
//! After warm-up, `schedule`/`pop` recycle slab slots and the `ready`
//! batch's capacity, so the steady state performs no heap allocation.

use crate::time::SimTime;

/// Number of buckets in the near wheel. 256 buckets × the default
/// bucket width covers every link-delay event the topologies generate.
pub const NEAR_BUCKETS: usize = 256;

/// Default bucket width exponent: `2^18` ns ≈ 262 µs per bucket, for a
/// near horizon of ≈ 67 ms — comfortably past the millisecond link
/// delays that dominate, while 100 ms+ routing dynamics overflow.
pub const DEFAULT_SHIFT: u32 = 18;

const MASK: u64 = NEAR_BUCKETS as u64 - 1;
const NIL: u32 = u32::MAX;
const WORDS: usize = NEAR_BUCKETS / 64;

#[derive(Debug)]
struct Slot<T> {
    time: SimTime,
    seq: u64,
    /// Intrusive link: next entry in the same bucket / overflow chain,
    /// or the next free slot when the slot is vacant.
    next: u32,
    /// `None` marks a vacant slot (on the free list).
    payload: Option<T>,
}

/// A timing wheel keyed by `(SimTime, seq)`, popping in exactly
/// ascending key order. See the module docs for the design.
#[derive(Debug)]
pub struct EventWheel<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    /// Bucket heads of the near wheel. Invariant: every entry's tick
    /// lies in the current window `[cursor, cursor + NEAR_BUCKETS)`, so
    /// a bucket index identifies its tick uniquely.
    near: [u32; NEAR_BUCKETS],
    /// One bit per near bucket, so the scan for the next event skips
    /// empty buckets a word at a time.
    occupied: [u64; WORDS],
    /// Head of the far-future chain (ticks at or past the window end).
    overflow: u32,
    /// Minimum tick present in the overflow chain (`u64::MAX` when
    /// empty); cascade triggers compare against this, never walk.
    overflow_min: u64,
    /// The current tick's events, sorted *descending* by `(time, seq)`
    /// so popping the smallest is `Vec::pop`. Late arrivals for the
    /// current tick are inserted in place to preserve exact order.
    ready: Vec<u32>,
    /// Tick the wheel has advanced to (the tick `ready` was drained
    /// from). Never decreases.
    cursor: u64,
    len: usize,
    shift: u32,
}

impl<T> Default for EventWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventWheel<T> {
    /// An empty wheel with the default bucket width.
    pub fn new() -> Self {
        Self::with_shift(DEFAULT_SHIFT)
    }

    /// An empty wheel with `2^shift`-nanosecond buckets. The shift is a
    /// pure performance knob: pop order is identical for every value
    /// (the digest-invariance test pins this).
    pub fn with_shift(shift: u32) -> Self {
        assert!(shift < 64, "bucket width exponent out of range");
        EventWheel {
            slots: Vec::new(),
            free: Vec::new(),
            near: [NIL; NEAR_BUCKETS],
            occupied: [0; WORDS],
            overflow: NIL,
            overflow_min: u64::MAX,
            ready: Vec::new(),
            cursor: 0,
            len: 0,
            shift,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total slab slots ever created (live + free). A workload with
    /// bounded concurrent events stops growing this after warm-up —
    /// the recycling property the tests pin.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn tick_of(&self, time: SimTime) -> u64 {
        time.wheel_tick(self.shift)
    }

    #[inline]
    fn key(&self, idx: u32) -> (SimTime, u64) {
        let s = &self.slots[idx as usize];
        (s.time, s.seq)
    }

    fn alloc(&mut self, time: SimTime, seq: u64, payload: T) -> u32 {
        match self.free.pop() {
            Some(idx) => {
                let slot = &mut self.slots[idx as usize];
                debug_assert!(slot.payload.is_none(), "free list pointed at a live slot");
                slot.time = time;
                slot.seq = seq;
                slot.next = NIL;
                slot.payload = Some(payload);
                idx
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("event wheel overflow");
                self.slots.push(Slot { time, seq, next: NIL, payload: Some(payload) });
                idx
            }
        }
    }

    #[inline]
    fn push_bucket(&mut self, bucket: usize, idx: u32) {
        self.slots[idx as usize].next = self.near[bucket];
        self.near[bucket] = idx;
        self.occupied[bucket / 64] |= 1 << (bucket % 64);
    }

    /// Schedule `payload` at `(time, seq)`. Keys must be unique (the
    /// simulator's monotonic sequence number guarantees it); a key in
    /// the past is allowed and pops before everything later, exactly as
    /// a heap would order it.
    pub fn schedule(&mut self, time: SimTime, seq: u64, payload: T) {
        let idx = self.alloc(time, seq, payload);
        let tick = self.tick_of(time);
        self.len += 1;
        if tick <= self.cursor {
            if self.ready.is_empty() {
                // The next-event scan starts at the cursor's bucket, so
                // overdue events parked there are found first.
                self.push_bucket((self.cursor & MASK) as usize, idx);
            } else {
                // The current tick is mid-drain: splice into the sorted
                // batch so the global pop order stays exact.
                let key = self.key(idx);
                let pos = self.ready.partition_point(|&i| self.key(i) > key);
                self.ready.insert(pos, idx);
            }
        } else if tick < self.cursor + NEAR_BUCKETS as u64 {
            self.push_bucket((tick & MASK) as usize, idx);
        } else {
            self.slots[idx as usize].next = self.overflow;
            self.overflow = idx;
            self.overflow_min = self.overflow_min.min(tick);
        }
    }

    /// Move every overflow entry that now falls inside the near window
    /// into its bucket, and recompute the overflow minimum.
    fn cascade(&mut self) {
        let window_end = self.cursor + NEAR_BUCKETS as u64;
        let mut head = self.overflow;
        self.overflow = NIL;
        self.overflow_min = u64::MAX;
        while head != NIL {
            let next = self.slots[head as usize].next;
            let tick = self.tick_of(self.slots[head as usize].time);
            debug_assert!(tick >= self.cursor, "overflow entry behind the cursor");
            if tick < window_end {
                self.push_bucket((tick & MASK) as usize, head);
            } else {
                self.slots[head as usize].next = self.overflow;
                self.overflow = head;
                self.overflow_min = self.overflow_min.min(tick);
            }
            head = next;
        }
    }

    /// First occupied near bucket in window order starting at the
    /// cursor's bucket (inclusive), or `None` when the wheel is empty.
    /// Window order *is* tick order because every near entry lies in
    /// `[cursor, cursor + NEAR_BUCKETS)`.
    fn next_occupied(&self) -> Option<usize> {
        let start = (self.cursor & MASK) as usize;
        let mut word_idx = start / 64;
        // Mask off bits below the start position in the first word.
        let mut word = self.occupied[word_idx] & (!0u64 << (start % 64));
        for _ in 0..=WORDS {
            if word != 0 {
                return Some(word_idx * 64 + word.trailing_zeros() as usize);
            }
            word_idx = (word_idx + 1) % WORDS;
            word = self.occupied[word_idx];
            // The wrap revisits the start word with its low bits
            // unmasked, which is exactly the tail of the window.
        }
        None
    }

    /// Advance until `ready` holds the next tick's events (no-op when
    /// `ready` is already non-empty or the wheel is empty).
    fn advance(&mut self) {
        while self.ready.is_empty() && self.len > 0 {
            if self.overflow_min < self.cursor + NEAR_BUCKETS as u64 {
                self.cascade();
            }
            let Some(bucket) = self.next_occupied() else {
                // Near wheel empty: jump the window to the earliest
                // far-future event and pull its cohort in.
                debug_assert!(self.overflow != NIL, "len > 0 but no events anywhere");
                self.cursor = self.overflow_min;
                self.cascade();
                continue;
            };
            // Tick implied by circular distance from the cursor bucket.
            let delta = (bucket as u64).wrapping_sub(self.cursor) & MASK;
            self.cursor += delta;
            // Drain the whole bucket: every entry shares this tick.
            let mut head = self.near[bucket];
            self.near[bucket] = NIL;
            self.occupied[bucket / 64] &= !(1 << (bucket % 64));
            while head != NIL {
                self.ready.push(head);
                head = self.slots[head as usize].next;
            }
            // Descending sort: popping the minimum is Vec::pop. Keys
            // are unique, so unstable sorting is deterministic.
            let slots = &self.slots;
            self.ready.sort_unstable_by(|&a, &b| {
                let ka = (slots[a as usize].time, slots[a as usize].seq);
                let kb = (slots[b as usize].time, slots[b as usize].seq);
                kb.cmp(&ka)
            });
        }
    }

    /// The `(time, seq)` of the next event, without popping it.
    pub fn next_key(&mut self) -> Option<(SimTime, u64)> {
        self.advance();
        self.ready.last().map(|&i| self.key(i))
    }

    /// Pop the event with the smallest `(time, seq)`.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        self.pop_due(SimTime(u64::MAX))
    }

    /// [`EventWheel::pop`], but only if that event's time is at or
    /// before `by` — peek and pop in one `advance`.
    pub(crate) fn pop_due(&mut self, by: SimTime) -> Option<(SimTime, u64, T)> {
        self.advance();
        let idx = *self.ready.last()?;
        if self.slots[idx as usize].time > by {
            return None;
        }
        self.ready.pop();
        self.len -= 1;
        let slot = &mut self.slots[idx as usize];
        let payload = slot.payload.take().expect("ready entry had no payload");
        let (time, seq) = (slot.time, slot.seq);
        self.free.push(idx);
        Some((time, seq, payload))
    }

    /// Remove every pending event, handing each payload to `visit` in
    /// arbitrary order, and rewind the wheel to tick zero. Slab and
    /// batch capacities survive — the warm-reuse path `Simulator::reset`
    /// depends on.
    pub fn clear(&mut self, mut visit: impl FnMut(T)) {
        if self.len > 0 {
            self.free.clear();
            for (i, slot) in self.slots.iter_mut().enumerate() {
                if let Some(payload) = slot.payload.take() {
                    visit(payload);
                }
                self.free.push(i as u32);
            }
            self.near = [NIL; NEAR_BUCKETS];
            self.occupied = [0; WORDS];
            self.overflow = NIL;
            self.overflow_min = u64::MAX;
            self.ready.clear();
            self.len = 0;
        }
        debug_assert!(self.near.iter().all(|&h| h == NIL));
        debug_assert_eq!(self.free.len(), self.slots.len());
        self.cursor = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(wheel: &mut EventWheel<u32>) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        while let Some((t, s, p)) = wheel.pop() {
            out.push((t.nanos(), s, p));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = EventWheel::new();
        w.schedule(SimTime(50), 2, 0);
        w.schedule(SimTime(10), 1, 1);
        w.schedule(SimTime(10), 0, 2);
        w.schedule(SimTime(2_000_000_000), 3, 3); // far future → overflow
        assert_eq!(drain(&mut w), vec![(10, 0, 2), (10, 1, 1), (50, 2, 0), (2_000_000_000, 3, 3)]);
        assert!(w.is_empty());
    }

    #[test]
    fn same_bucket_distinct_times_sort() {
        // Bucket width 2^18 ns: 1ns and 1000ns share a bucket.
        let mut w = EventWheel::new();
        w.schedule(SimTime(1000), 0, 0);
        w.schedule(SimTime(1), 1, 1);
        assert_eq!(drain(&mut w), vec![(1, 1, 1), (1000, 0, 0)]);
    }

    #[test]
    fn schedule_into_current_tick_mid_drain() {
        let mut w = EventWheel::new();
        w.schedule(SimTime(100), 0, 0);
        w.schedule(SimTime(300), 1, 1);
        let first = w.pop().unwrap();
        assert_eq!(first.1, 0);
        // 200 lands between the two pending keys, same tick as 300.
        w.schedule(SimTime(200), 2, 2);
        assert_eq!(w.pop().unwrap().2, 2);
        assert_eq!(w.pop().unwrap().2, 1);
    }

    #[test]
    fn past_event_pops_first() {
        let mut w = EventWheel::new();
        // Advance the cursor deep into the timeline.
        w.schedule(SimTime::from_tick(40, DEFAULT_SHIFT), 0, 0);
        assert_eq!(w.pop().unwrap().2, 0);
        w.schedule(SimTime::from_tick(41, DEFAULT_SHIFT), 1, 1);
        w.schedule(SimTime(5), 2, 2); // in the past relative to the cursor
        assert_eq!(w.pop().unwrap().2, 2, "overdue event must pop before future ones");
        assert_eq!(w.pop().unwrap().2, 1);
    }

    #[test]
    fn overflow_cascades_before_nearer_events_pop() {
        let shift = DEFAULT_SHIFT;
        let mut w = EventWheel::with_shift(shift);
        // A: beyond the horizon from tick 0 → overflow.
        let a = SimTime::from_tick(300, shift);
        w.schedule(a, 0, 0);
        // B: close by. Popping B moves the window so A becomes near.
        w.schedule(SimTime::from_tick(50, shift), 1, 1);
        assert_eq!(w.pop().unwrap().2, 1);
        // C: now inside the window but *after* A.
        let c = SimTime::from_tick(305, shift);
        w.schedule(c, 2, 2);
        assert_eq!(w.pop().unwrap().2, 0, "overflowed A precedes near C");
        assert_eq!(w.pop().unwrap().2, 2);
    }

    #[test]
    fn slots_recycle_after_warmup() {
        let mut w = EventWheel::new();
        for i in 0..8u64 {
            w.schedule(SimTime(i * 10), i, i as u32);
        }
        let warm = w.slot_count();
        for round in 0..50u64 {
            while w.pop().is_some() {}
            for i in 0..8u64 {
                let seq = 8 + round * 8 + i;
                w.schedule(SimTime(seq * 10), seq, i as u32);
            }
        }
        assert_eq!(w.slot_count(), warm, "steady-state scheduling must not grow the slab");
    }

    #[test]
    fn clear_visits_everything_and_rewinds() {
        let mut w = EventWheel::new();
        w.schedule(SimTime(10), 0, 10);
        w.schedule(SimTime(5_000_000_000), 1, 11); // overflow
        w.schedule(SimTime(20), 2, 12);
        let _ = w.pop(); // leave a partially drained state
        let mut seen = Vec::new();
        w.clear(|p| seen.push(p));
        seen.sort_unstable();
        assert_eq!(seen, vec![11, 12]);
        assert!(w.is_empty());
        // Reusable from tick zero afterwards.
        w.schedule(SimTime(1), 3, 13);
        assert_eq!(w.pop().unwrap().2, 13);
    }

    #[test]
    fn next_key_is_stable_and_nonconsuming() {
        let mut w = EventWheel::new();
        assert_eq!(w.next_key(), None);
        w.schedule(SimTime(42), 7, 0);
        assert_eq!(w.next_key(), Some((SimTime(42), 7)));
        assert_eq!(w.next_key(), Some((SimTime(42), 7)));
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop().unwrap().0, SimTime(42));
    }

    #[test]
    fn every_shift_produces_identical_order() {
        let events: Vec<(u64, u64)> = (0..200u64)
            .map(|i| {
                // A deterministic scatter mixing µs hops and 2s spikes.
                let t = if i % 17 == 0 { 2_000_000_000 + i * 31 } else { (i * 977) % 5_000_000 };
                (t, i)
            })
            .collect();
        let reference: Vec<(u64, u64)> = {
            let mut sorted = events.clone();
            sorted.sort_unstable();
            sorted
        };
        for shift in [0, 4, 12, 18, 26, 40] {
            let mut w = EventWheel::with_shift(shift);
            for &(t, seq) in &events {
                w.schedule(SimTime(t), seq, ());
            }
            let got: Vec<(u64, u64)> =
                std::iter::from_fn(|| w.pop().map(|(t, s, ())| (t.nanos(), s))).collect();
            assert_eq!(got, reference, "shift {shift}");
        }
    }
}
