//! Text primitives of the checkpoint line format.
//!
//! Checkpoint records are mostly addresses and small integers, and the
//! writers run once per checkpoint block on the campaign's critical
//! path, so these append digits straight to the output instead of going
//! through `fmt::Display` and its padding machinery. The bytes produced
//! are exactly the ones `{}` / `{:016x}` / `{:08x}` would produce.
//!
//! The bulk of a record — every set an accumulator holds, every unit a
//! multipath campaign discovered — travels as *key lines*: `N` fields
//! of eight lowercase hex digits (an address is its big-endian
//! integer), one space between fields, one key per line, keys
//! ascending. Every such line of `N` fields is `9 N` bytes.
//!
//! Every other line starts with a tag word and carries space-separated
//! tokens: [`push_field`] writes a number as one, and [`tagged`],
//! [`word`] and [`tok`] take such a line apart.
//!
//! Writers append to a [`Sink`] and readers pull from a [`LineSource`],
//! so one writer serves a `String` and a stream to a file alike, and
//! one reader an in-memory text and a file read a line at a time: a
//! record need never be held whole.

/// Where written text goes: a `String` that keeps it, or anything that
/// counts, digests or writes it as it comes.
pub trait Sink {
    /// Append `text`.
    fn put(&mut self, text: &str);
}

impl Sink for String {
    fn put(&mut self, text: &str) {
        self.push_str(text);
    }
}

/// Where read lines come from: a text's [`str::lines`], or a reader
/// that holds one line at a time. A line comes as `str::lines` yields
/// it, without its line ending, and borrows the source until the next
/// is asked for.
pub trait LineSource {
    /// The next line; `None` after the last.
    fn next_line(&mut self) -> Option<&str>;

    /// At most how many bytes the lines still to come hold, if the
    /// source knows: what bounds the room a count read from it may
    /// reserve.
    fn bytes_left(&self) -> Option<u64> {
        None
    }
}

impl LineSource for std::str::Lines<'_> {
    fn next_line(&mut self) -> Option<&str> {
        self.next()
    }
}

/// `digits` as text: the ASCII the pushes below render.
fn ascii(digits: &[u8]) -> &str {
    std::str::from_utf8(digits).expect("digits and separators are ASCII")
}

/// Append `v` in decimal, as `{}` would.
pub fn push_uint(out: &mut impl Sink, v: impl Into<u128>) {
    let mut digits = [0u8; 39];
    let mut at = digits.len();
    let mut v = v.into();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.put(ascii(&digits[at..]));
}

/// ` <v>`: one more decimal field on a tagged line — the writer twin
/// of [`tok`].
pub fn push_field(out: &mut impl Sink, v: impl Into<u128>) {
    out.put(" ");
    push_uint(out, v);
}

/// Append `v` as 16 lowercase hex digits, as `{:016x}` would — the form
/// every float's bit pattern and every seed or fingerprint travels in.
pub fn push_hex64(out: &mut impl Sink, v: u64) {
    let mut digits = [0u8; 16];
    digits[..8].copy_from_slice(&hex8((v >> 32) as u32));
    digits[8..].copy_from_slice(&hex8(v as u32));
    out.put(ascii(&digits));
}

/// The eight lowercase hex digits of `v`, as `{:08x}` writes them: its
/// nibbles spread one to a byte, then all eight made digits at once.
fn hex8(v: u32) -> [u8; 8] {
    let mut x = u64::from(v);
    x = (x & 0xffff_0000) << 16 | x & 0xffff;
    x = (x & 0x0000_ff00_0000_ff00) << 8 | x & 0x0000_00ff_0000_00ff;
    x = (x & 0x00f0_00f0_00f0_00f0) << 4 | x & 0x000f_000f_000f_000f;
    // 1 in each byte whose nibble is past 9: those are spelled `a`..`f`.
    let letters = (x + 0x0606_0606_0606_0606) >> 4 & 0x0101_0101_0101_0101;
    (x + 0x3030_3030_3030_3030 + letters * u64::from(b'a' - b'0' - 10)).to_be_bytes()
}

/// Bytes of one key-line field: eight hex digits and the space or
/// newline after them.
const KEY_FIELD_LEN: usize = 9;

/// The stack buffer key lines are rendered in: sixteen of the
/// accumulators' four-field `triples` lines. A key of any width that
/// fits it can be written.
const RENDER_LEN: usize = 16 * 4 * KEY_FIELD_LEN;

/// Append one key line per key, in the order given.
pub fn push_key_lines<const N: usize>(
    out: &mut impl Sink,
    keys: impl IntoIterator<Item = [u32; N]>,
) {
    const { assert!(N >= 1 && N * KEY_FIELD_LEN <= RENDER_LEN) };
    // Rendered on the stack and appended a buffer at a time: key lines
    // are nearly all of a checkpoint's bytes. (The buffer is no longer
    // than that, because a caller with one key to write pays for
    // clearing it.)
    let mut text = [0u8; RENDER_LEN];
    let mut len = 0;
    for key in keys {
        if len + N * KEY_FIELD_LEN > text.len() {
            out.put(ascii(&text[..len]));
            len = 0;
        }
        let line = &mut text[len..len + N * KEY_FIELD_LEN];
        for (field, value) in line.chunks_exact_mut(KEY_FIELD_LEN).zip(key) {
            field[..KEY_FIELD_LEN - 1].copy_from_slice(&hex8(value));
            field[KEY_FIELD_LEN - 1] = b' ';
        }
        line[N * KEY_FIELD_LEN - 1] = b'\n';
        len += N * KEY_FIELD_LEN;
    }
    out.put(ascii(&text[..len]));
}

/// The next line, split into tokens, with its leading `tag` consumed.
pub fn tagged<'a>(
    lines: &'a mut impl LineSource,
    tag: &str,
) -> Result<std::str::SplitAsciiWhitespace<'a>, String> {
    let line = lines.next_line().ok_or_else(|| format!("truncated at {tag:?} line"))?;
    let mut t = line.split_ascii_whitespace();
    if t.next() == Some(tag) {
        Ok(t)
    } else {
        Err(format!("expected {tag:?} line, got {line:?}"))
    }
}

/// The next token of a line, `what` naming it if it is missing.
pub fn word<'a>(t: &mut impl Iterator<Item = &'a str>, what: &str) -> Result<&'a str, String> {
    t.next().ok_or_else(|| format!("missing {what}"))
}

/// The next token of a line, parsed.
pub fn tok<'a, T: std::str::FromStr>(
    t: &mut impl Iterator<Item = &'a str>,
    what: &str,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    word(t, what)?.parse().map_err(|e| format!("bad {what}: {e}"))
}

/// Parse one key line — exactly what [`push_key_lines`] writes, less
/// the newline.
fn parse_key_line<const N: usize>(line: &str) -> Option<[u32; N]> {
    let bytes = line.as_bytes();
    if bytes.len() + 1 != N * KEY_FIELD_LEN {
        return None;
    }
    let mut key = [0u32; N];
    for (value, field) in key.iter_mut().zip(bytes.chunks(KEY_FIELD_LEN)) {
        let (digits, separator) = field.split_at(KEY_FIELD_LEN - 1);
        for &digit in digits {
            let nibble = match digit {
                b'0'..=b'9' => digit - b'0',
                b'a'..=b'f' => digit - b'a' + 10,
                _ => return None,
            };
            *value = *value << 4 | u32::from(nibble);
        }
        // The last field's separator is the newline `lines` took.
        if !matches!(separator, [] | [b' ']) {
            return None;
        }
    }
    Some(key)
}

/// Read the `n` key lines of a section, each mapped through `item`.
/// The keys must ascend strictly — the canonical order is part of the
/// format, and it is what makes a set read back a set. `n` comes from
/// the file, so it pre-sizes only up to a bound: the lines that
/// [`LineSource::bytes_left`] can hold or, where the source does not
/// know, 4 096; a larger section grows as it parses.
pub fn read_key_lines<const N: usize, T>(
    lines: &mut impl LineSource,
    n: usize,
    mut item: impl FnMut([u32; N]) -> T,
) -> Result<Vec<T>, String> {
    let fit = lines.bytes_left().map_or(1 << 12, |left| left / (N * KEY_FIELD_LEN) as u64);
    let mut out = Vec::with_capacity(n.min(usize::try_from(fit).unwrap_or(usize::MAX)));
    let mut last: Option<[u32; N]> = None;
    for _ in 0..n {
        let line = lines.next_line().ok_or("truncated key lines")?;
        let key = parse_key_line::<N>(line).ok_or_else(|| format!("bad key line {line:?}"))?;
        if last.is_some_and(|last| last >= key) {
            return Err(format!("key line {line:?} out of order"));
        }
        last = Some(key);
        out.push(item(key));
    }
    Ok(out)
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
        let mut s = String::new();
        push_uint(&mut s, u128::MAX);
        assert_eq!(s, u128::MAX.to_string());
        for v in (0..1 << 16).map(|i: u32| i.wrapping_mul(0x9e37_79b9)).chain([0, u32::MAX]) {
            assert_eq!(hex8(v), format!("{v:08x}").as_bytes(), "{v:#x}");
        }
    }

    #[test]
    fn key_lines_round_trip_and_refuse_anything_else() {
        // More keys than one stack buffer holds, so a flush splits them.
        let mut keys: Vec<[u32; 3]> =
            (0..200u32).map(|i| [i / 7, i.wrapping_mul(0x9e37_79b9), u32::MAX - i]).collect();
        keys.sort_unstable();
        let mut text = String::new();
        push_key_lines(&mut text, keys.iter().copied());
        assert_eq!(text.len(), keys.len() * 3 * KEY_FIELD_LEN);
        let expect: String =
            keys.iter().map(|[a, b, c]| format!("{a:08x} {b:08x} {c:08x}\n")).collect();
        assert_eq!(text, expect);
        let read = read_key_lines(&mut text.lines(), keys.len(), |key: [u32; 3]| key);
        assert_eq!(read, Ok(keys));

        let read = |text: &str, n| read_key_lines(&mut text.lines(), n, |key: [u32; 2]| key);
        assert!(read("00000001 00000002\n00000001 00000003\n", 2).is_ok());
        for (bad, why) in [
            ("00000001 00000002\n", "truncated"),
            ("00000001 00000003\n00000001 00000002\n", "out of order"),
            ("00000001 00000002\n00000001 00000002\n", "out of order"),
            ("00000001 00000002\n00000001  0000003\n", "bad key line"),
            ("00000001 00000002\n00000001 0000000G\n", "bad key line"),
            ("00000001 00000002\n00000001 0000000A\n", "bad key line"),
            ("00000001 00000002\n00000001_00000003\n", "bad key line"),
            ("00000001 00000002\n00000001 00000003 \n", "bad key line"),
            ("00000001 00000002\n+0000001 00000003\n", "bad key line"),
        ] {
            let err = read(bad, 2).expect_err(bad);
            assert!(err.contains(why), "{bad:?}: {err}");
        }
        // A thirteen-field key (a multipath unit's line is one) over more
        // than one buffer.
        let wide: Vec<[u32; 13]> = (0..9u32)
            .map(|i| std::array::from_fn(|f| i << 28 | (f as u32).wrapping_mul(i)))
            .collect();
        let mut text = String::new();
        push_key_lines(&mut text, wide.iter().copied());
        assert_eq!(text.len(), wide.len() * 13 * KEY_FIELD_LEN);
        let expect: String = wide
            .iter()
            .map(|key| key.map(|field| format!("{field:08x}")).join(" ") + "\n")
            .collect();
        assert_eq!(text, expect);
        assert_eq!(read_key_lines(&mut text.lines(), 9, |key: [u32; 13]| key), Ok(wide));
        // A hostile count allocates no more than its bound.
        assert!(read("", usize::MAX).is_err());
    }
}
