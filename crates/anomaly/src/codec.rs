//! Text primitives of the checkpoint line format.
//!
//! Checkpoint records are mostly addresses and small integers, and the
//! writers run once per checkpoint block on the campaign's critical
//! path, so these append digits straight to the output instead of going
//! through `fmt::Display` (an `Ipv4Addr` formats through an
//! intermediate buffer and the padding machinery). The bytes produced
//! are exactly the ones `{}` / `{:016x}` would produce.

use std::net::Ipv4Addr;

/// Append `v` in decimal, as `{}` would.
pub fn push_uint(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &d in &digits[at..] {
        out.push(char::from(d));
    }
}

/// Append `v` as 16 lowercase hex digits, as `{:016x}` would — the form
/// every float's bit pattern and every seed or fingerprint travels in.
pub fn push_hex64(out: &mut String, v: u64) {
    for shift in (0..16).rev() {
        let nibble = ((v >> (shift * 4)) & 0xf) as u8;
        out.push(char::from(if nibble < 10 { b'0' + nibble } else { b'a' + nibble - 10 }));
    }
}

/// Append `addr` in dotted-quad form, as `{}` would.
pub fn push_addr(out: &mut String, addr: Ipv4Addr) {
    // Rendered on the stack and appended in one go: addresses are most
    // of a checkpoint's bytes.
    let mut text = [0u8; 15];
    let mut len = 0;
    for (i, octet) in addr.octets().into_iter().enumerate() {
        if i > 0 {
            text[len] = b'.';
            len += 1;
        }
        if octet >= 100 {
            text[len] = b'0' + octet / 100;
            len += 1;
        }
        if octet >= 10 {
            text[len] = b'0' + octet / 10 % 10;
            len += 1;
        }
        text[len] = b'0' + octet % 10;
        len += 1;
    }
    out.push_str(std::str::from_utf8(&text[..len]).expect("digits and dots are ASCII"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pushes_match_display_formatting() {
        for v in [0u64, 7, 10, 99, 100, 255, 65_535, 1_000_000, u64::from(u32::MAX), u64::MAX] {
            let mut s = String::new();
            push_uint(&mut s, v);
            assert_eq!(s, format!("{v}"));
            let mut s = String::new();
            push_hex64(&mut s, v);
            assert_eq!(s, format!("{v:016x}"));
        }
        for addr in [[0, 0, 0, 0], [10, 0, 200, 9], [192, 168, 1, 100], [255, 255, 255, 255]] {
            let addr = Ipv4Addr::from(addr);
            let mut s = String::new();
            push_addr(&mut s, addr);
            assert_eq!(s, addr.to_string());
        }
    }
}
