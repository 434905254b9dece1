//! The simulator's event schedule: a deque kept sorted by `(time, seq)`.
//!
//! The tracers keep a handful of probes in flight per destination
//! (window 3 for a trace, 8 for MDA), every campaign unit runs on its
//! own simulator, and a packet in flight is one pending event — its next
//! *stateful* arrival, however many routers it crosses on the way
//! ([`crate::sim`]) — so the schedule never holds more than about 16
//! events (`docs/PERFORMANCE.md`, "Decisions taken against an
//! alternative"; `tests/it/queue_depth.rs` pins the traffic). At that
//! size the cheapest exact priority queue is the obvious one: a
//! [`VecDeque`] in ascending key order. `schedule` scans back from the
//! tail — a new event is almost always among the latest — and inserts,
//! O(events later than the new one); `pop` takes the front.
//! The deque grows to the high-water occupancy and stays there, so the
//! steady state performs no heap allocation.
//!
//! The type keeps the name of the timing wheel it replaced because
//! `ptbench` imports it; ROADMAP item 5 carries the rename to
//! `EventQueue`.

use std::collections::VecDeque;

use crate::time::SimTime;

/// A priority queue keyed by `(SimTime, seq)`, popping in exactly
/// ascending key order. See the module docs for the design.
#[derive(Debug)]
pub struct EventWheel<T> {
    /// Ascending by `(time, seq)`; the front is the next event.
    events: VecDeque<(SimTime, u64, T)>,
}

impl<T> Default for EventWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventWheel<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventWheel { events: VecDeque::new() }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Schedule `payload` at `(time, seq)`. Keys must be unique (the
    /// simulator stamps each packet and each route change once, and a
    /// packet has one pending event); a key in the past is allowed and
    /// pops before everything later.
    pub fn schedule(&mut self, time: SimTime, seq: u64, payload: T) {
        let key = (time, seq);
        let later = self.events.iter().rev().take_while(|e| (e.0, e.1) > key).count();
        self.events.insert(self.events.len() - later, (time, seq, payload));
    }

    /// The `(time, seq)` of the next event, without popping it.
    pub fn next_key(&self) -> Option<(SimTime, u64)> {
        self.events.front().map(|e| (e.0, e.1))
    }

    /// Pop the event with the smallest `(time, seq)`.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        self.events.pop_front()
    }

    /// [`EventWheel::pop`], but only if that event's time is at or
    /// before `by`.
    pub(crate) fn pop_due(&mut self, by: SimTime) -> Option<(SimTime, u64, T)> {
        self.events.pop_front_if(|e| e.0 <= by)
    }

    /// The pending events' times and payloads, in pop order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (SimTime, &T)> {
        self.events.iter().map(|e| (e.0, &e.2))
    }

    /// Remove the first pending event `pick` makes something of, and
    /// return its `seq` with what `pick` made.
    pub(crate) fn take_first<R>(
        &mut self,
        mut pick: impl FnMut(&T) -> Option<R>,
    ) -> Option<(u64, R)> {
        let (idx, seq, picked) = self
            .events
            .iter()
            .enumerate()
            .find_map(|(idx, e)| pick(&e.2).map(|picked| (idx, e.1, picked)))?;
        self.events.remove(idx);
        Some((seq, picked))
    }

    /// Remove every pending event, handing each payload to `visit`. The
    /// deque's capacity survives — the warm-reuse path `Simulator::reset`
    /// depends on.
    pub fn clear(&mut self, mut visit: impl FnMut(T)) {
        for (_, _, payload) in self.events.drain(..) {
            visit(payload);
        }
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
        w.schedule(SimTime(2_000_000_000), 3, 3);
        assert_eq!(drain(&mut w), vec![(10, 0, 2), (10, 1, 1), (50, 2, 0), (2_000_000_000, 3, 3)]);
        assert!(w.is_empty());
    }

    #[test]
    fn same_bucket_distinct_times_sort() {
        // Two times a nanosecond-scale apart, later one scheduled first.
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
        // 200 lands between the popped key and the pending one.
        w.schedule(SimTime(200), 2, 2);
        assert_eq!(w.pop().unwrap().2, 2);
        assert_eq!(w.pop().unwrap().2, 1);
    }

    #[test]
    fn past_event_pops_first() {
        let mut w = EventWheel::new();
        // Pop something deep into the timeline first.
        w.schedule(SimTime(10_000_000), 0, 0);
        assert_eq!(w.pop().unwrap().2, 0);
        w.schedule(SimTime(10_500_000), 1, 1);
        w.schedule(SimTime(5), 2, 2); // before the event already popped
        assert_eq!(w.pop().unwrap().2, 2, "overdue event must pop before future ones");
        assert_eq!(w.pop().unwrap().2, 1);
    }

    #[test]
    fn overflow_cascades_before_nearer_events_pop() {
        let mut w = EventWheel::new();
        // A: far in the future when scheduled.
        w.schedule(SimTime(80_000_000), 0, 0);
        // B: close by; popping B leaves A at the front.
        w.schedule(SimTime(13_000_000), 1, 1);
        assert_eq!(w.pop().unwrap().2, 1);
        // C: scheduled later, near A but *after* it.
        w.schedule(SimTime(81_000_000), 2, 2);
        assert_eq!(w.pop().unwrap().2, 0, "far-future A precedes later-scheduled C");
        assert_eq!(w.pop().unwrap().2, 2);
    }

    #[test]
    fn clear_visits_everything_and_rewinds() {
        let mut w = EventWheel::new();
        w.schedule(SimTime(10), 0, 10);
        w.schedule(SimTime(5_000_000_000), 1, 11);
        w.schedule(SimTime(20), 2, 12);
        let _ = w.pop(); // leave a partially drained state
        let mut seen = Vec::new();
        w.clear(|p| seen.push(p));
        seen.sort_unstable();
        assert_eq!(seen, vec![11, 12]);
        assert!(w.is_empty());
        // Reusable from time zero afterwards.
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
}
