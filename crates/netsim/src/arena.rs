//! Slab storage for in-flight packets.
//!
//! The event queue used to move [`Packet`] by value: every reordering
//! copied a ~100-byte enum (with its owned payload `Vec` pointer)
//! around, and every response the simulator originated allocated fresh
//! payload storage. The arena parks each in-flight packet in a slab
//! slot and hands the event queue a 4-byte [`PacketRef`] instead, so
//! the steady-state forwarding path moves indices, mutates TTL/src in
//! place, and — together with the payload buffer pool — performs no
//! per-event heap allocation:
//!
//! * slots are recycled through a free list, so a simulator that keeps a
//!   bounded number of packets in flight stops growing after warm-up;
//! * payload `Vec`s harvested from consumed packets are pooled and
//!   reused by echo replies (and by anyone calling
//!   [`PacketArena::grab_payload`]), closing the allocation loop that
//!   `payload.clone()` used to reopen on every Echo exchange. The pool
//!   keeps every buffer it is handed. While payloads come from the pool
//!   (the probe builders take theirs through `Transport::grab_payload`)
//!   a fresh buffer is made only when the pool is empty, so the pool
//!   never holds more than were out at once: one unit's probes, which a
//!   simulator reset hands back together.
//!
//! The event queue is a sorted deque, which shifts entries on insert,
//! so the small event still pays: carrying the packet inside it measured
//! 8–12 % slower on `survey` (`docs/PERFORMANCE.md`,
//! "Decisions taken against an alternative").
//!
//! The arena is deliberately not generation-checked: refs are created
//! and consumed only by the simulator's event loop, which owns every
//! ref exactly once (the property-test suite pins the no-aliasing and
//! slot-recycling invariants).

use pt_wire::{IcmpMessage, Packet, Transport};

/// Handle to a packet parked in a [`PacketArena`] slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketRef(u32);

impl PacketRef {
    /// The slot index this ref points at (diagnostics only).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A slab of in-flight packets with a free list and a payload-buffer
/// recycling pool. See the module docs for why.
#[derive(Debug, Default)]
pub struct PacketArena {
    slots: Vec<Option<Packet>>,
    free: Vec<u32>,
    payloads: Vec<Vec<u8>>,
}

impl PacketArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Park `packet` in a slot, reusing a freed slot when one exists.
    pub fn alloc(&mut self, packet: Packet) -> PacketRef {
        match self.free.pop() {
            Some(idx) => {
                debug_assert!(
                    self.slots[idx as usize].is_none(),
                    "free list pointed at a live slot"
                );
                self.slots[idx as usize] = Some(packet);
                PacketRef(idx)
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("arena overflow");
                self.slots.push(Some(packet));
                PacketRef(idx)
            }
        }
    }

    /// The packet behind `r`.
    ///
    /// # Panics
    /// Panics if `r` was already taken or released.
    pub fn get(&self, r: PacketRef) -> &Packet {
        self.slots[r.index()].as_ref().expect("stale PacketRef")
    }

    /// Mutable access to the packet behind `r` (TTL decrement, NAT
    /// rewrite — the in-place mutations forwarding performs).
    ///
    /// # Panics
    /// Panics if `r` was already taken or released.
    pub fn get_mut(&mut self, r: PacketRef) -> &mut Packet {
        self.slots[r.index()].as_mut().expect("stale PacketRef")
    }

    /// Move the packet out, freeing the slot.
    ///
    /// # Panics
    /// Panics if `r` was already taken or released.
    pub fn take(&mut self, r: PacketRef) -> Packet {
        let packet = self.slots[r.index()].take().expect("stale PacketRef");
        self.free.push(r.0);
        packet
    }

    /// Free the slot and harvest the packet's payload buffer into the
    /// pool — the path every packet the simulator *consumes* (drops,
    /// expiries, quoted probes) takes.
    pub fn release(&mut self, r: PacketRef) {
        let packet = self.take(r);
        self.recycle_packet(packet);
    }

    /// Harvest an owned packet's payload buffer into the pool and drop
    /// the rest.
    pub fn recycle_packet(&mut self, packet: Packet) {
        let payload = match packet.transport {
            Transport::Udp(u) => u.payload,
            Transport::Tcp(t) => t.payload,
            Transport::Icmp(IcmpMessage::EchoRequest { payload, .. })
            | Transport::Icmp(IcmpMessage::EchoReply { payload, .. }) => payload,
            Transport::Icmp(_) => return,
        };
        self.recycle_payload(payload);
    }

    /// Return a payload buffer to the pool (dropped when it never
    /// allocated).
    pub fn recycle_payload(&mut self, buf: Vec<u8>) {
        if buf.capacity() > 0 {
            self.payloads.push(buf);
        }
    }

    /// A cleared payload buffer — pooled when available, fresh otherwise.
    pub fn grab_payload(&mut self) -> Vec<u8> {
        match self.payloads.pop() {
            Some(mut buf) => {
                buf.clear();
                buf
            }
            None => Vec::new(),
        }
    }

    /// Number of live (allocated, not yet taken) packets.
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// True when no packets are live.
    pub fn is_empty(&self) -> bool {
        self.live() == 0
    }

    /// Total slots ever created (live + free). A workload with bounded
    /// in-flight packets stops growing this after warm-up — the
    /// recycling property the tests pin.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_wire::ipv4::{protocol, Ipv4Header};
    use pt_wire::UdpDatagram;
    use std::net::Ipv4Addr;

    fn packet(tag: u16) -> Packet {
        let ip = Ipv4Header::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            protocol::UDP,
            9,
        );
        let mut p = Packet::new(ip, Transport::Udp(UdpDatagram::new(4000, 33435, vec![0; 8])));
        p.ip.identification = tag;
        p
    }

    #[test]
    fn alloc_take_round_trips() {
        let mut arena = PacketArena::new();
        let a = arena.alloc(packet(1));
        let b = arena.alloc(packet(2));
        assert_eq!(arena.live(), 2);
        assert_eq!(arena.get(a).ip.identification, 1);
        assert_eq!(arena.get(b).ip.identification, 2);
        assert_eq!(arena.take(a).ip.identification, 1);
        assert_eq!(arena.live(), 1);
        assert_eq!(arena.take(b).ip.identification, 2);
        assert!(arena.is_empty());
    }

    #[test]
    fn freed_slots_are_reused_before_new_ones() {
        let mut arena = PacketArena::new();
        let refs: Vec<_> = (0..4).map(|i| arena.alloc(packet(i))).collect();
        assert_eq!(arena.slot_count(), 4);
        arena.release(refs[1]);
        arena.release(refs[3]);
        let c = arena.alloc(packet(10));
        let d = arena.alloc(packet(11));
        assert_eq!(arena.slot_count(), 4, "freed slots recycled, slab did not grow");
        assert!(c.index() == 1 || c.index() == 3);
        assert!(d.index() == 1 || d.index() == 3);
        assert_ne!(c, d);
    }

    #[test]
    fn payload_pool_round_trips_buffers() {
        let mut arena = PacketArena::new();
        let r = arena.alloc(packet(1));
        arena.release(r); // harvests the 8-byte UDP payload
        let buf = arena.grab_payload();
        assert!(buf.is_empty(), "pooled buffers come back cleared");
        assert!(buf.capacity() >= 8, "pooled buffer keeps its allocation");
        arena.recycle_payload(buf);
        assert!(arena.grab_payload().capacity() >= 8);
    }

    #[test]
    #[should_panic(expected = "stale PacketRef")]
    fn stale_ref_is_rejected() {
        let mut arena = PacketArena::new();
        let r = arena.alloc(packet(1));
        arena.release(r);
        let _ = arena.get(r);
    }
}
