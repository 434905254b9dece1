//! The probe window: one send → wait → attribute loop for every engine.
//!
//! The paper's fix works only if every reply is credited to the probe
//! that caused it (§2.2: the identifier rides in the UDP checksum so the
//! flow identifier can stay fixed). [`ProbeWindow`] is that crediting
//! discipline, written once: a registry of launched probes keyed by the
//! id the engine recovers from a reply, and one wait step,
//! [`ProbeWindow::settle`], that resolves whichever in-flight probe
//! settles first — a reply that already arrived, the next reply before
//! the earliest deadline, or that deadline itself. `pt_core::trace_with`
//! and `pt_mda::discover_with` both drive it; each keeps its own
//! "finalize in TTL order" and "top up" steps and calls `settle` for
//! the third. Counters and event records hook in here (`launch`,
//! `settle`) and nowhere else.

use pt_netsim::time::{SimDuration, SimTime};
use pt_wire::Packet;

use crate::tracer::Transport;

#[derive(Debug, Clone, Copy)]
struct Entry<P> {
    id: u64,
    probe: P,
    sent: SimTime,
    /// `sent + timeout`: when the probe stops occupying the window.
    deadline: SimTime,
    /// The deadline passed unanswered and `on_expire` asked to keep the
    /// entry, so a late reply can still be attributed to it.
    expired: bool,
}

/// A reply credited to the probe that caused it.
#[derive(Debug)]
pub struct Reply<P> {
    /// What the engine passed to [`ProbeWindow::launch`].
    pub probe: P,
    /// When the probe was launched.
    pub sent: SimTime,
    /// When the reply arrived.
    pub at: SimTime,
    /// The probe's deadline had already passed (and `on_expire` already
    /// saw it) when the reply arrived.
    pub late: bool,
    /// The reply itself; hand it to [`Transport::release`] when done.
    pub packet: Packet,
}

/// The outstanding-probe registry. `P` is whatever the engine needs to
/// find a probe's place in its own records (the hop index for the
/// tracer, `{hop, kind}` for MDA). A linear scan: an engine keeps a
/// window's worth of live entries plus a handful of expired stragglers.
#[derive(Debug)]
pub struct ProbeWindow<P> {
    entries: Vec<Entry<P>>,
    in_flight: usize,
}

impl<P> Default for ProbeWindow<P> {
    fn default() -> Self {
        ProbeWindow { entries: Vec::new(), in_flight: 0 }
    }
}

impl<P: Copy> ProbeWindow<P> {
    /// Forget every probe (start of a trace); keeps the allocation.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.in_flight = 0;
    }

    /// Probes launched, unanswered, and not yet past their deadline.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Register a probe sent at `sent` under `id`. Ids must be unique
    /// among registered probes, or replies would mis-attribute.
    pub fn launch(&mut self, id: u64, sent: SimTime, timeout: SimDuration, probe: P) {
        debug_assert!(self.entries.iter().all(|e| e.id != id), "probe id {id} is live twice");
        self.entries.push(Entry { id, probe, sent, deadline: sent + timeout, expired: false });
        self.in_flight += 1;
    }

    /// Drop every registered probe `pred` selects, in flight or expired;
    /// their replies become strays.
    pub fn forget(&mut self, mut pred: impl FnMut(P) -> bool) {
        self.entries.retain(|e| !pred(e.probe));
        self.in_flight = self.entries.iter().filter(|e| !e.expired).count();
    }

    /// One wait step. Takes a reply that has already arrived, else waits
    /// for the next one until the earliest in-flight deadline or `wake`
    /// (an engine's deferred launch), whichever is first; one of the two
    /// must exist.
    ///
    /// * A reply `attribute` maps to a registered id comes back as a
    ///   [`Reply`] and its entry is gone (a duplicate finds nothing).
    /// * A stray, duplicate or unknown id is released; `None`.
    /// * Silence: every in-flight probe whose deadline has passed goes
    ///   to `on_expire` with the current time, in registry order, and
    ///   stops counting as in flight. Its entry stays for late
    ///   attribution only if the callback returns `true`; `None`.
    ///
    /// `None` therefore means "look at your state again".
    pub fn settle<T: Transport>(
        &mut self,
        transport: &mut T,
        wake: Option<SimTime>,
        attribute: impl FnOnce(&Packet) -> Option<u64>,
        mut on_expire: impl FnMut(P, SimTime) -> bool,
    ) -> Option<Reply<P>> {
        let delivery = transport.try_recv().or_else(|| {
            let deadlines = self.entries.iter().filter(|e| !e.expired).map(|e| e.deadline);
            let until = deadlines
                .chain(wake)
                .min()
                .expect("settle needs an in-flight probe or a wake-up time");
            let delivery = transport.recv_until(until);
            debug_assert!(
                delivery.is_some() || transport.now() >= until,
                "Transport::recv_until returned None before its deadline"
            );
            delivery
        });
        let Some((at, packet)) = delivery else {
            let now = transport.now();
            self.entries.retain_mut(|e| {
                if e.expired || e.deadline > now {
                    return true;
                }
                e.expired = true;
                self.in_flight -= 1;
                on_expire(e.probe, now)
            });
            return None;
        };
        let pos = attribute(&packet).and_then(|id| self.entries.iter().position(|e| e.id == id));
        let Some(pos) = pos else {
            transport.release(packet);
            return None;
        };
        let e = self.entries.swap_remove(pos);
        if !e.expired {
            self.in_flight -= 1;
        }
        Some(Reply { probe: e.probe, sent: e.sent, at, late: e.expired, packet })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scripted::ScriptedTransport;
    use proptest::prelude::*;
    use pt_wire::ipv4::{protocol, Ipv4Header};
    use pt_wire::{Transport as Wire, UdpDatagram};
    use std::net::Ipv4Addr;

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    /// Replies carrying ids at or above this answer no launched probe.
    const UNKNOWN: u16 = 0xf000;

    fn ms(n: u32) -> SimDuration {
        SimDuration::from_millis(u64::from(n))
    }

    /// A packet naming probe `id`; `ours = false` makes it a stray the
    /// engine's matcher rejects outright.
    fn packet(id: u16, ours: bool) -> Packet {
        let mut ip = Ipv4Header::new(SRC, SRC, protocol::UDP, u8::from(ours));
        ip.identification = id;
        Packet::new(ip, Wire::Udp(UdpDatagram::new(1, 2, Vec::new())))
    }

    fn attribute(p: &Packet) -> Option<u64> {
        (p.ip.ttl != 0).then_some(u64::from(p.ip.identification))
    }

    /// One launch's script: its timeout and the replies its probe
    /// provokes, as `(delay, id named, ours)`.
    #[derive(Clone)]
    struct Script {
        timeout: SimDuration,
        replies: Vec<(SimDuration, u16, bool)>,
    }

    fn script(id: u16, a: u32, b: u32) -> Script {
        let t = 1 + a % 100;
        let (early, late) = (ms((b >> 8) % (t + 1)), ms(t + 1 + (b >> 8) % 200));
        let replies = match b % 6 {
            0 => vec![(early, id, true)],
            1 => vec![(late, id, true)],
            2 => vec![(early, id, true), (early + ms(1 + a % 50), id, true)], // twice
            3 => vec![(late, id, true), (late + ms(1 + a % 50), id, true)],   // twice, late
            4 => vec![(early, UNKNOWN + id, true), (early, id, false)],       // never ours
            _ => vec![],                                                      // silence
        };
        Script { timeout: ms(t), replies }
    }

    /// The model: what must become of each probe, from its script alone.
    #[derive(Clone, Copy)]
    struct Model {
        sent: SimTime,
        deadline: SimTime,
        first_reply: Option<SimTime>,
        answered: bool,
        expired_at: Option<SimTime>,
        forgotten: bool,
    }

    impl Model {
        fn in_flight(&self) -> bool {
            !self.answered && self.expired_at.is_none() && !self.forgotten
        }
        fn registered(&self, keep: bool) -> bool {
            !self.answered && !self.forgotten && (self.expired_at.is_none() || keep)
        }
    }

    /// One `settle`, checked against the model.
    fn step<T: Transport>(
        window: &mut ProbeWindow<usize>,
        tx: &mut T,
        model: &mut [Model],
        keep: bool,
        wake: Option<SimTime>,
    ) {
        let before = tx.now();
        let deadlines = model.iter().filter(|m| m.in_flight()).map(|m| m.deadline);
        let bound = deadlines.chain(wake).min().expect("caller has a probe in flight or a wake");
        let reply = window.settle(tx, wake, attribute, |idx, now| {
            let m = &mut model[idx];
            assert!(m.in_flight(), "probe {idx} expired twice, or after it was resolved");
            assert!(now >= m.deadline, "probe {idx} expired before its deadline");
            m.expired_at = Some(now);
            keep
        });
        assert!(tx.now() <= before.max(bound), "one step waited past {bound:?}");
        if let Some(r) = reply {
            let m = &mut model[r.probe];
            assert!(m.registered(keep), "reply credited to probe {}, which is gone", r.probe);
            assert_eq!((r.sent, Some(r.at)), (m.sent, m.first_reply), "probe {}", r.probe);
            assert_eq!(r.late, m.expired_at.is_some(), "probe {}", r.probe);
            assert_eq!(r.late, r.at > m.deadline, "probe {}", r.probe);
            m.answered = true;
            tx.release(r.packet);
        }
        let in_flight = model.iter().filter(|m| m.in_flight()).count();
        assert_eq!(window.in_flight(), in_flight);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn window_agrees_with_the_model(
            keep in any::<bool>(),
            ops in proptest::collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 1..80),
        ) {
            let launches = ops.iter().filter(|op| op.0 % 8 < 5);
            let scripts: Vec<Script> =
                launches.zip(0u16..).map(|(op, id)| script(id, op.1, op.2)).collect();
            let plan = {
                let scripts = scripts.clone();
                move |probe: &Packet, now: SimTime| {
                    let replies = &scripts[usize::from(probe.ip.identification)].replies;
                    replies.iter().map(|&(d, id, ours)| (now + d, packet(id, ours))).collect()
                }
            };
            let mut tx = ScriptedTransport::new(SRC, plan);
            let mut window = ProbeWindow::<usize>::default();
            let mut model: Vec<Model> = Vec::new();

            for &(action, a, _) in &ops {
                match action % 8 {
                    0..=4 => {
                        let (idx, sent) = (model.len(), tx.now());
                        let Script { timeout, replies } = &scripts[idx];
                        let ours = replies.iter().filter(|r| usize::from(r.1) == idx && r.2);
                        model.push(Model {
                            sent,
                            deadline: sent + *timeout,
                            first_reply: ours.map(|r| sent + r.0).min(),
                            answered: false,
                            expired_at: None,
                            forgotten: false,
                        });
                        window.launch(idx as u64, sent, *timeout, idx);
                        tx.send(packet(idx as u16, true));
                    }
                    5 | 6 => {
                        let wake = (a % 3 != 0).then(|| tx.now() + ms(a % 150));
                        if window.in_flight() > 0 || wake.is_some() {
                            step(&mut window, &mut tx, &mut model, keep, wake);
                        }
                    }
                    _ => {
                        let doomed = |idx: usize| idx % 3 == a as usize % 3;
                        window.forget(doomed);
                        for (idx, m) in model.iter_mut().enumerate() {
                            m.forgotten |= doomed(idx) && m.registered(keep);
                        }
                    }
                }
                prop_assert_eq!(window.in_flight(), model.iter().filter(|m| m.in_flight()).count());
            }
            while window.in_flight() > 0 {
                step(&mut window, &mut tx, &mut model, keep, None);
            }
            // Past every scripted reply, so each late one is seen too.
            let end = tx.now() + ms(1_000);
            while tx.now() < end {
                step(&mut window, &mut tx, &mut model, keep, Some(end));
            }
            for (idx, m) in model.iter().enumerate().filter(|(_, m)| !m.forgotten) {
                let in_time = m.first_reply.is_some_and(|at| at <= m.deadline);
                prop_assert_eq!(m.expired_at.is_none(), in_time, "probe {}", idx);
                let heard = in_time || (keep && m.first_reply.is_some());
                prop_assert_eq!(m.answered, heard, "probe {}", idx);
            }
        }
    }
}
