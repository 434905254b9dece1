//! Differential property suite for the simulator's event queue:
//! arbitrary `schedule`/`pop`/`peek`/`clear` sequences must produce
//! *exactly* the pop order of a reference priority queue — the property
//! that makes every change of the queue's representation (a
//! `BinaryHeap`, then a timing wheel, now a sorted deque)
//! digest-preserving by construction.

use proptest::prelude::*;
use std::collections::BTreeMap;

use pt_netsim::time::SimTime;
use pt_netsim::wheel::EventWheel;

/// A reference scheduler with the exact semantics the simulator needs:
/// pop the smallest `(time, seq)`.
#[derive(Default)]
struct ReferenceQueue {
    events: BTreeMap<(u64, u64), u32>,
}

impl ReferenceQueue {
    fn schedule(&mut self, time: u64, seq: u64, payload: u32) {
        self.events.insert((time, seq), payload);
    }

    fn pop(&mut self) -> Option<(u64, u64, u32)> {
        let (&(t, s), _) = self.events.iter().next()?;
        let p = self.events.remove(&(t, s)).unwrap();
        Some((t, s, p))
    }

    fn peek(&self) -> Option<(u64, u64)> {
        self.events.keys().next().copied()
    }
}

/// Decode one schedule time from two raw draws. The mix covers every
/// place the queue's insert scan can stop: at the back (short hops and
/// far-future events past everything pending), in the middle, at the
/// front (overdue events behind the clock, behind everything pending),
/// and on ties (times quantised so many events share one, or equal to
/// the previous schedule's).
fn op_time(clock: u64, last: u64, mode: u8, raw: u32) -> u64 {
    match mode % 10 {
        // µs-scale hops right around the clock.
        0..=2 => clock + u64::from(raw % 50_000),
        // ms-scale hops.
        3 | 4 => clock + u64::from(raw % 80_000_000),
        // Far future: seconds out.
        5 => clock + 1_900_000_000 + u64::from(raw % 400_000_000),
        // Behind the clock (a route-set scheduled "now" after pops).
        6 => clock.saturating_sub(u64::from(raw % 10_000)),
        // Before everything: time zero.
        7 => 0,
        // Ties: the previous schedule's time, or one of four instants.
        8 => last,
        _ => clock + u64::from(raw % 4) * 1_000,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn wheel_matches_reference_queue(
        // Events scheduled before the first op, so occupancies reach a
        // few hundred — far past anything the tracers produce.
        prefill in 0usize..300,
        // XORed into the running counter: sequence numbers stay unique
        // but arrive out of order, so a tie on time is broken by a
        // `seq` that may be smaller than the pending ones.
        seq_mask in 0u64..64,
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u32>()), 1..160),
    ) {
        let mut wheel = EventWheel::new();
        let mut reference = ReferenceQueue::default();
        let mut counter = 0u64;
        let mut clock = 0u64;
        let mut last = 0u64;
        let fill = (0..prefill).map(|i| (0u8, i as u8, (i as u32).wrapping_mul(2_654_435_761)));
        for (action, mode, raw) in fill.chain(ops) {
            match action % 10 {
                // Weighted toward scheduling so queues actually fill.
                0..=4 => {
                    let t = op_time(clock, last, mode, raw);
                    let seq = counter ^ seq_mask;
                    wheel.schedule(SimTime(t), seq, raw);
                    reference.schedule(t, seq, raw);
                    counter += 1;
                    last = t;
                }
                5 | 6 => {
                    let got = wheel.pop();
                    let want = reference.pop();
                    prop_assert_eq!(got.map(|(t, s, p)| (t.nanos(), s, p)), want, "pop diverged");
                    if let Some((t, _, _)) = got {
                        clock = clock.max(t.nanos());
                    }
                }
                7 => {
                    prop_assert_eq!(
                        wheel.next_key().map(|(t, s)| (t.nanos(), s)),
                        reference.peek(),
                        "peek diverged"
                    );
                }
                8 => {
                    // run_until-style burst: drain everything at or
                    // before a nearby horizon.
                    let horizon = clock + u64::from(raw % 5_000_000);
                    while wheel.next_key().is_some_and(|(t, _)| t.nanos() <= horizon) {
                        let got = wheel.pop().map(|(t, s, p)| (t.nanos(), s, p));
                        prop_assert_eq!(got, reference.pop(), "burst diverged");
                        clock = clock.max(got.unwrap().0);
                    }
                    prop_assert!(reference.peek().is_none_or(|(t, _)| t > horizon));
                    clock = clock.max(horizon);
                }
                _ => {
                    // reset: both sides drop everything, clock rewinds.
                    let mut dropped = 0usize;
                    wheel.clear(|_| dropped += 1);
                    prop_assert_eq!(dropped, reference.events.len());
                    reference.events.clear();
                    clock = 0;
                }
            }
            prop_assert_eq!(wheel.len(), reference.events.len());
        }
        // Full drain at the end must agree too.
        loop {
            let got = wheel.pop().map(|(t, s, p)| (t.nanos(), s, p));
            let want = reference.pop();
            prop_assert_eq!(got, want, "final drain diverged");
            if got.is_none() {
                break;
            }
        }
    }
}
