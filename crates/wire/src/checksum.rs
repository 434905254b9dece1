//! RFC 1071 Internet checksum, with one's-complement word arithmetic.
//!
//! Everything that distinguishes Paris traceroute from its predecessors
//! ultimately reduces to checksum arithmetic: Paris needs to *choose* the
//! UDP checksum value (its per-probe identifier) and then solve for payload
//! bytes that make the packet valid, and it needs to vary the ICMP Echo
//! Identifier and Sequence Number jointly so that their sum — and hence the
//! ICMP checksum in the first four octets — stays constant.

/// One's-complement accumulator for the Internet checksum.
///
/// Fold 16-bit big-endian words into the accumulator with [`Checksum::add_word`]
/// or whole buffers with [`Checksum::add_bytes`], then call
/// [`Checksum::finish`] for the complemented 16-bit result.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checksum {
    sum: u32,
}

impl Checksum {
    /// Fresh accumulator (sum = 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one 16-bit word.
    pub fn add_word(&mut self, word: u16) {
        self.sum += u32::from(word);
        while self.sum > 0xffff {
            self.sum = (self.sum & 0xffff) + (self.sum >> 16);
        }
    }

    /// Fold a byte slice, padding an odd trailing byte with zero
    /// (high-order position, per RFC 1071).
    ///
    /// Uses wide deferred-carry folding: 32-byte chunks are summed as
    /// eight 32-bit big-endian loads into a `u64` lane (each load holds
    /// two 16-bit words; the lane's spare upper bits absorb every
    /// intermediate carry), and the carries are folded back down *once*
    /// at the end instead of after every word. One's-complement
    /// addition is associative and commutative, so the result is
    /// bit-identical to folding word by word with
    /// [`Checksum::add_word`] — `tests/proptest_wire.rs` holds that
    /// reference and pins the equality — while the inner loop is
    /// branch-free and auto-vectorizable. Sound for buffers up to 2^34
    /// bytes, far beyond any packet.
    pub fn add_bytes(&mut self, bytes: &[u8]) {
        let mut acc = u64::from(self.sum);
        let mut chunks = bytes.chunks_exact(32);
        for chunk in &mut chunks {
            let mut lane = 0u64;
            for pair in chunk.chunks_exact(4) {
                lane += u64::from(u32::from_be_bytes([pair[0], pair[1], pair[2], pair[3]]));
            }
            acc += lane;
        }
        let mut words = chunks.remainder().chunks_exact(2);
        for word in &mut words {
            acc += u64::from(u16::from_be_bytes([word[0], word[1]]));
        }
        if let [last] = words.remainder() {
            acc += u64::from(u16::from_be_bytes([*last, 0]));
        }
        self.sum = fold_u64(acc);
    }

    /// The current one's-complement sum, not complemented, folded to 16 bits.
    pub fn raw(&self) -> u16 {
        self.sum as u16
    }

    /// The complemented checksum ready to be written into a header field.
    pub fn finish(&self) -> u16 {
        !self.raw()
    }
}

/// Fold a deferred-carry `u64` accumulator down to a 16-bit
/// one's-complement sum: high half plus low half (twice, since the
/// first add can itself carry into bit 32), then end-around carries
/// until the value fits in 16 bits.
#[inline]
fn fold_u64(mut acc: u64) -> u32 {
    acc = (acc >> 32) + (acc & 0xffff_ffff);
    acc = (acc >> 32) + (acc & 0xffff_ffff);
    let mut sum = acc as u32;
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    sum
}

/// Compute the Internet checksum over `bytes` in one call.
pub fn internet_checksum(bytes: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.add_bytes(bytes);
    c.finish()
}

/// One's-complement addition of two 16-bit words (end-around carry).
pub fn ones_add(a: u16, b: u16) -> u16 {
    let sum = u32::from(a) + u32::from(b);
    ((sum & 0xffff) + (sum >> 16)) as u16
}

/// One's-complement subtraction: `a -' b`.
pub fn ones_sub(a: u16, b: u16) -> u16 {
    ones_add(a, !b)
}

/// Solve for the 16-bit payload word that makes a packet whose checksum
/// field has been *pinned* actually verify.
///
/// This is the Paris traceroute UDP trick. `partial_sum` is the one's-
/// complement sum (not complemented) of the pseudo-header plus all
/// packet words *except* one free 16-bit payload slot — **including**
/// the checksum field counted at its pinned value. For the packet to
/// verify, the grand total must be `0xffff`, so the free word is
/// `0xffff -' partial_sum`. The pinned target itself is already folded
/// into `partial_sum` and is not a separate input.
pub fn solve_payload_word(partial_sum: u16) -> u16 {
    ones_sub(0xffff, partial_sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_example() {
        // The classic example from RFC 1071 §3: words 0x0001, 0xf203,
        // 0xf4f5, 0xf6f7 sum to 0xddf2 (with carries), checksum = ~0xddf2.
        let bytes = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&bytes), !0xddf2);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        // 0xab00 is the padded word for a single trailing byte 0xab.
        assert_eq!(internet_checksum(&[0xab]), !0xab00);
    }

    #[test]
    fn empty_buffer_checksums_to_ffff() {
        assert_eq!(internet_checksum(&[]), 0xffff);
    }

    #[test]
    fn checksum_of_valid_packet_is_zero_sum() {
        // If we embed the checksum into the data, the total folds to 0xffff
        // (i.e. the verification sum's complement is zero).
        let data = [0x45, 0x00, 0x00, 0x1c, 0x12, 0x34];
        let ck = internet_checksum(&data);
        let mut c = Checksum::new();
        c.add_bytes(&data);
        c.add_word(ck);
        assert_eq!(c.raw(), 0xffff);
    }

    #[test]
    fn ones_add_carries_around() {
        assert_eq!(ones_add(0xffff, 0x0001), 0x0001);
        assert_eq!(ones_add(0x8000, 0x8000), 0x0001);
        assert_eq!(ones_add(0x1234, 0x0000), 0x1234);
    }

    #[test]
    fn solve_payload_word_produces_verifying_packet() {
        // Construct a fake "packet": header words + pinned checksum + one
        // free payload word. Verify the solved word makes the total 0xffff.
        let header_words = [0x1234u16, 0xabcd, 0x0102];
        let target = 0x7777u16; // the checksum value we want to pin
        let mut c = Checksum::new();
        for w in header_words {
            c.add_word(w);
        }
        c.add_word(target);
        let free = solve_payload_word(c.raw());
        c.add_word(free);
        assert_eq!(c.raw(), 0xffff);
    }
}
