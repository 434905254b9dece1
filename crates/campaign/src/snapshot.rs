//! Crash-safe campaigns: an append-only checkpoint journal and
//! kill-anywhere resume.
//!
//! The campaign engines in [`crate::runner`] fold `(destination, round)`
//! units in any order and only impose order at finalization, which makes
//! the whole campaign a *resumable* fold: execute units in blocks,
//! journal each block's own output as it completes, and — after a crash
//! or a kill — replay the journal and continue from the work-list
//! cursor. Because every unit's randomness derives from `(seed,
//! destination, round)` alone, the resumed run produces the exact units
//! the dead run would have, and the final report digest is
//! **byte-identical** to an uninterrupted run's, for any worker count
//! and any kill point (`tests/it/checkpoint_resume.rs` pins this).
//!
//! # The journal (`ptsnap v7`)
//!
//! One file at [`CheckpointConfig::path`], a sequence of *records*:
//!
//! ```text
//! ptsnap v7 <mode> <start> <end> <body bytes> <fingerprint>\n
//! <body: the fold of units start..end, canonical text>
//! end <digest>\n
//! ```
//!
//! Unit ids are destination-major, `dest × rounds + round`, so a
//! record's `start..end` holds whole destinations but for its two ends
//! (a `v5` journal named round-major ids, and is refused; so is a `v6`
//! one, whose accumulator records this reader does not speak).
//!
//! A checkpoint appends one record holding only the block just run, so
//! its cost is the block's, not the campaign's so far, and the workers
//! never wait for it: a block's record is written, and folded in, while
//! the workers run the next block. A kill through
//! [`CheckpointConfig::stop_after_checkpoints`] still journals every
//! block it ran; a hard crash loses at most the block in flight and the
//! one being written. Records chain:
//! the first starts at unit 0 and each next one starts where the last
//! ended. The digest covers the header line and the body. Replay stops
//! at the first record that does not chain, is cut short, fails its
//! digest, or whose body is not the fold of its own range — it names a
//! unit outside `start..end`, or one twice, or holds more virtual time
//! than its units can have run for. Since a unit is a pure function of
//! `(seed, destination, round)`, whatever the damaged tail held is
//! simply recomputed: damage costs work, never a different result. A
//! header that parses but names another format version, mode or
//! campaign fingerprint refuses the resume with `InvalidData` instead.
//!
//! To keep the file and the replay O(fold) rather than O(units), the
//! driver *folds* the journal — rewrites it as the single record
//! `0..cursor`, via temp file + rename — whenever the bytes appended
//! since the last fold reach that fold's size. The file therefore never
//! exceeds twice a full-fold record plus one block record, and — a
//! merged fold being no larger than its parts — each rewrite is at most
//! twice the bytes appended since the one before, so all writes
//! together stay within three times the blocks' own records.
//!
//! Bodies are line-oriented text, hand-rolled (no serde in this
//! workspace) and *canonical*: sets and maps serialize in sorted order,
//! so equal fold contents produce equal bytes no matter how work was
//! sharded, and no float is written: virtual time travels as one total
//! of integer nanoseconds. `docs/ROBUSTNESS.md` writes the body grammar
//! out. The driver writes what every unit yields alike — the
//! quarantined units' ids and panic texts, the `virt` total — and the
//! mode what it measured, nearly all of it *key lines*
//! ([`pt_anomaly::codec`]): fields of eight hex digits — an address, a
//! round, a count — in ascending order, `9 N` bytes for a line of `N`
//! fields. The folds hold their sets in that same order, so writing a
//! record sorts and copies nothing.
//!
//! No record is ever held whole, written or replayed. Writing one runs
//! the one body writer twice: first into a byte count — the body's
//! length leads the header and seeds the digest — then into the digest
//! and a fixed buffer over the file. Replay parses a body a line at a
//! time as it reads it from the file, digesting every byte, and folds
//! the parsed block only once the trailer matches.

use std::fs::{self, File, OpenOptions};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

use pt_anomaly::codec::{
    push_field, push_hex64, push_key_lines, read_key_lines, tagged, tok, word, LineSource, Sink,
};
use pt_anomaly::CampaignAccumulator;
use pt_core::TraceConfig;
use pt_mda::BalancerClass::{self, NotBalanced, PerFlow, PerPacket, Undetermined};
use pt_mda::MdaConfig;
use pt_netsim::splitmix64;
use pt_topogen::{InternetConfig, SyntheticInternet};

use crate::runner::{
    finish, n_units, run_block, worker_states, BlockOutput, CampaignConfig, CampaignMode,
    CampaignResult, Common, DynamicsConfig, Fold, Folded, InjectConfig, MultipathConfig,
    MultipathResult, UnitDiscovery, UnitId,
};

/// Magic prefix of every record header; bump the version when the
/// format changes. A loader refuses journals whose version it does not
/// speak — there is no silent cross-version reinterpretation.
const MAGIC: &str = "ptsnap";
const VERSION: &str = "v7";

/// `end <16 hex digits>\n`.
const TRAILER_LEN: usize = 21;

/// No header line is longer: magic, version, mode, three decimal
/// fields and the fingerprint come to under 100 bytes.
const MAX_HEADER_LEN: u64 = 128;

/// The one buffer each side of the journal holds: what every record is
/// written through, and what replay reads through.
const IO_BUFFER: usize = 1 << 14;

/// Checkpointing knobs for [`run_checkpointed`] / [`run_resumed`] and
/// their multipath twins.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Where the journal lives. Appended to at every checkpoint and
    /// occasionally rewritten atomically through `<path>.tmp`.
    pub path: PathBuf,
    /// Units per checkpoint block: the campaign journals after every
    /// `every_units` completed units (and once more at the end), while
    /// the next block runs. A crash loses at most two blocks of work:
    /// the one running and the one being journaled.
    pub every_units: u32,
    /// Testing hook: stop — returning `Ok(None)` with the journal on
    /// disk — after this many checkpoints, *as if the process had been
    /// killed there*. `None` runs to completion.
    pub stop_after_checkpoints: Option<usize>,
}

fn invalid<E: std::fmt::Display>(err: E) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("campaign snapshot: {err}"))
}

// ---------------------------------------------------------------------
// Fingerprints: refuse to resume a journal under a different campaign.
// ---------------------------------------------------------------------

fn mix(h: u64, v: u64) -> u64 {
    splitmix64(h ^ splitmix64(v))
}

/// The network, as the config that generated it: every field, so two
/// nets that differ anywhere — not only in size or first address —
/// fingerprint apart.
fn net_words(net: &SyntheticInternet) -> [u64; 17] {
    let InternetConfig {
        seed,
        n_destinations,
        n_core,
        per_flow_lb,
        per_packet_lb,
        lb_equal_weight,
        lb_delta1_weight,
        zero_ttl,
        broken,
        nat,
        silent_router,
        firewalled_dest,
        link_loss,
        rate_limited_router,
        mpls_tunnel,
        udp_filter,
        asym_return,
    } = net.config;
    [
        seed,
        n_destinations as u64,
        n_core as u64,
        per_flow_lb.to_bits(),
        per_packet_lb.to_bits(),
        lb_equal_weight.to_bits(),
        lb_delta1_weight.to_bits(),
        zero_ttl.to_bits(),
        broken.to_bits(),
        nat.to_bits(),
        silent_router.to_bits(),
        firewalled_dest.to_bits(),
        link_loss.to_bits(),
        rate_limited_router.to_bits(),
        mpls_tunnel.to_bits(),
        udp_filter.to_bits(),
        asym_return.to_bits(),
    ]
}

// ---------------------------------------------------------------------
// Shared line-format helpers.
// ---------------------------------------------------------------------

/// Escape a panic message so that it always fits one line: backslash,
/// newline and carriage return are encoded.
fn push_escaped_panic(out: &mut impl Sink, s: &str) {
    let mut rest = s;
    while let Some(at) = rest.find(['\\', '\n', '\r']) {
        out.put(&rest[..at]);
        out.put(match rest.as_bytes()[at] {
            b'\\' => "\\\\",
            b'\n' => "\\n",
            _ => "\\r",
        });
        rest = &rest[at + 1..];
    }
    out.put(rest);
}

fn unescape_panic(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('\\') => out.push('\\'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// What a record's header and the campaign say its body may hold: the
/// units of `units`, each one of `rounds` rounds of one of `n_dests`
/// destinations.
pub(crate) struct Span {
    pub(crate) units: Range<UnitId>,
    pub(crate) n_dests: usize,
    pub(crate) rounds: usize,
}

// ---------------------------------------------------------------------
// The record body: what the engine folds, then what the mode measured.
// ---------------------------------------------------------------------

/// What the checkpoint driver needs from a campaign mode on top of
/// running it: a name for the record header, what ties a journal to one
/// campaign, and the canonical codec of what the mode measured (used
/// alike for one block's record and for the folded `0..cursor` record).
/// The codec takes folds as [`Fold::absorb`] leaves them — what
/// [`run_block`] returns and what the driver merges blocks into.
pub(crate) trait Checkpointed: CampaignMode {
    /// The mode word of the record header.
    const MODE: &'static str;
    /// Where the mode's fingerprint starts, so that the two modes'
    /// fingerprints differ.
    const SALT: u64;
    /// The mode's own results-affecting settings, its config
    /// destructured exhaustively so that a new field fails to compile
    /// until it is hashed here, read through [`CampaignMode::common`],
    /// or named as never counting.
    fn fingerprint_words(&self) -> impl IntoIterator<Item = u64>;

    /// Everything results-affecting about this campaign over `net`,
    /// folded into one value: the settings both modes hold, the network,
    /// the mode's own words, then the injected faults. Workers are
    /// deliberately excluded — worker count is a pure performance knob,
    /// and resuming under a different one is legal and byte-identical.
    fn fingerprint(&self, net: &SyntheticInternet) -> u64 {
        let Common { rounds, workers: _, seed, inject, sim_salt: _ } = self.common();
        let InjectConfig { panic_units, runaway_units } = inject;
        let panics = panic_units.iter().map(|&u| 0x70616e ^ u64::from(u));
        let runaways = runaway_units.iter().map(|&u| 0x72756e ^ u64::from(u));
        [seed, rounds as u64]
            .into_iter()
            .chain(net_words(net))
            .chain(self.fingerprint_words())
            .chain(panics)
            .chain(runaways)
            .fold(Self::SALT, mix)
    }
    /// Append the canonical text of `fold` to `out`.
    fn write_fold(fold: &Self::Fold, out: &mut impl Sink);
    /// The inverse of [`Checkpointed::write_fold`], for a record that
    /// may hold `span` and whose fold is of `healthy` units — its
    /// range's, less the quarantined.
    fn read_fold(
        lines: &mut impl LineSource,
        span: &Span,
        healthy: usize,
    ) -> Result<Self::Fold, String>;
}

/// A record's body: the quarantined units by id, each with its panic
/// text; the virtual-time total; then the mode's part.
pub(crate) fn write_body<M: Checkpointed>(fold: &Folded<M::Fold>, out: &mut impl Sink) {
    out.put("quarantined");
    push_field(out, fold.quarantined.len() as u64);
    out.put("\n");
    for (unit, panic) in &fold.quarantined {
        out.put("q");
        push_field(out, *unit);
        out.put(" ");
        push_escaped_panic(out, panic);
        out.put("\n");
    }
    out.put("virt");
    push_field(out, fold.virtual_ns);
    out.put("\n");
    M::write_fold(&fold.measured, out);
}

/// The inverse of [`write_body`], checked against the record's own
/// range: a body that is not the fold of `span.units` is damage.
fn read_body<M: Checkpointed>(
    lines: &mut impl LineSource,
    span: &Span,
) -> Result<Folded<M::Fold>, String> {
    let n: usize = tok(&mut tagged(lines, "quarantined")?, "quarantine count")?;
    let mut quarantined: Vec<(UnitId, String)> = Vec::new();
    for _ in 0..n {
        let line = lines.next_line().ok_or("truncated at quarantine record")?;
        // The panic text is the 3rd field and may contain spaces.
        let mut f = line.splitn(3, ' ');
        if f.next() != Some("q") {
            return Err(format!("expected q record, got {line:?}"));
        }
        let unit = tok(&mut f, "q unit")?;
        if !span.units.contains(&unit) || quarantined.last().is_some_and(|last| last.0 >= unit) {
            return Err(format!("q record {line:?} outside {:?} or out of order", span.units));
        }
        quarantined.push((unit, unescape_panic(word(&mut f, "q panic text")?)));
    }
    let virtual_ns: u128 = tok(&mut tagged(lines, "virt")?, "virtual-time total")?;
    // Ascending and inside the range, the quarantined are no more than
    // the range. A unit's clock is a `u64`: a larger total is not a sum
    // of this record's, and refusing it keeps every sum inside `u128`.
    let healthy = span.units.len() - quarantined.len();
    if virtual_ns > healthy as u128 * u128::from(u64::MAX) {
        return Err(format!("virtual-time total {virtual_ns} is not {healthy} units'"));
    }
    let measured = M::read_fold(lines, span, healthy)?;
    match lines.next_line() {
        None => Ok(Folded { measured, virtual_ns, quarantined }),
        Some(line) => Err(format!("{line:?} after the body's last line")),
    }
}

impl Checkpointed for CampaignConfig {
    const MODE: &'static str = "side-by-side";
    const SALT: u64 = 0x7369_6465; // "side"

    fn fingerprint_words(&self) -> impl IntoIterator<Item = u64> {
        let CampaignConfig { rounds: _, workers: _, trace, dynamics, seed: _, inject: _ } = self;
        let TraceConfig { min_ttl, window, probe_budget } = *trace;
        let DynamicsConfig {
            forwarding_loop_prob,
            forwarding_loop_delay,
            forwarding_loop_window,
            balancer_flap_prob,
        } = *dynamics;
        [
            u64::from(min_ttl),
            u64::from(window),
            u64::from(probe_budget),
            forwarding_loop_prob.to_bits(),
            forwarding_loop_delay.nanos(),
            forwarding_loop_window.nanos(),
            balancer_flap_prob.to_bits(),
        ]
    }

    /// Both anomaly accumulators, which name no unit.
    fn write_fold(fold: &BlockOutput, out: &mut impl Sink) {
        fold.classic.snapshot_write(out);
        fold.paris.snapshot_write(out);
    }

    fn read_fold(
        lines: &mut impl LineSource,
        _span: &Span,
        _healthy: usize,
    ) -> Result<BlockOutput, String> {
        let classic = CampaignAccumulator::snapshot_read(lines)?;
        let paris = CampaignAccumulator::snapshot_read(lines)?;
        Ok(BlockOutput { classic, paris })
    }
}

/// The balancer classes, at the numbers a `units` key line gives them.
const CLASSES: [BalancerClass; 4] = [NotBalanced, PerFlow, PerPacket, Undetermined];

/// A `units` key line: destination index, round, address, width,
/// observed width, delta, class, hops, links, stars, unconverged hops,
/// probes, and `reached` + 2 × `degraded` — led by `(destination,
/// round)`, so that ascending keys are ascending units.
const UNIT_FIELDS: usize = 13;

fn unit_key(u: &UnitDiscovery) -> [u32; UNIT_FIELDS] {
    let n = |count: usize| u32::try_from(count).expect("a walk's counts fit a key field");
    let class = CLASSES.iter().position(|&c| c == u.class).expect("every class is numbered");
    [
        n(u.dest),
        n(u.round),
        u32::from(u.addr),
        n(u.width),
        n(u.observed_width),
        u32::from(u.delta),
        n(class),
        n(u.hops),
        n(u.links),
        n(u.stars),
        n(u.unconverged_hops),
        n(u.probes),
        u32::from(u.reached) | u32::from(u.degraded) << 1,
    ]
}

fn unit_of_key(key: [u32; UNIT_FIELDS], span: &Span) -> Result<UnitDiscovery, String> {
    let [dest, round, addr, width, observed_width, delta, class, counts @ ..] = key;
    let [hops, links, stars, unconverged_hops, probes, flags] = counts;
    let n = |field: u32| field as usize;
    // `u64` holds any destination's first unit; `units` holds no id past
    // `u32`.
    let unit = u64::from(dest) * span.rounds as u64 + u64::from(round);
    let inside = UnitId::try_from(unit).is_ok_and(|unit| span.units.contains(&unit));
    if n(dest) >= span.n_dests || n(round) >= span.rounds || !inside {
        return Err(format!("unit (dest {dest}, round {round}) outside {:?}", span.units));
    }
    if flags > 3 {
        return Err(format!("bad flags {flags}"));
    }
    Ok(UnitDiscovery {
        dest: n(dest),
        round: n(round),
        addr: addr.into(),
        width: n(width),
        observed_width: n(observed_width),
        delta: u8::try_from(delta).map_err(|_| format!("bad delta {delta}"))?,
        class: *CLASSES.get(n(class)).ok_or_else(|| format!("unknown balancer class {class}"))?,
        hops: n(hops),
        links: n(links),
        stars: n(stars),
        unconverged_hops: n(unconverged_hops),
        probes: n(probes),
        reached: flags & 1 != 0,
        degraded: flags & 2 != 0,
    })
}

impl Checkpointed for MultipathConfig {
    const MODE: &'static str = "multipath";
    const SALT: u64 = 0x6d64_6121; // "mda!"

    /// The ports and the adaptive jitter seed are drawn per unit, so
    /// what `mda` holds of them never counts.
    fn fingerprint_words(&self) -> impl IntoIterator<Item = u64> {
        let MultipathConfig { rounds: _, workers: _, mda, adaptive, seed: _, inject: _ } = self;
        let MdaConfig {
            alpha,
            max_flows_per_hop,
            window,
            base_src_port: _,
            dst_port: _,
            adaptive: _,
            probe_budget,
        } = *mda;
        [
            alpha.to_bits(),
            max_flows_per_hop as u64,
            u64::from(window),
            u64::from(probe_budget),
            u64::from(*adaptive),
        ]
    }

    /// The per-unit discoveries, one key line each and no count: a
    /// record holds its range's healthy units, each once — the key
    /// lines' strict ascent refuses a unit named twice — and no other.
    fn write_fold(fold: &Vec<UnitDiscovery>, out: &mut impl Sink) {
        push_key_lines(out, fold.iter().map(unit_key));
    }

    fn read_fold(
        lines: &mut impl LineSource,
        span: &Span,
        healthy: usize,
    ) -> Result<Vec<UnitDiscovery>, String> {
        read_key_lines(lines, healthy, |key| unit_of_key(key, span))?.into_iter().collect()
    }
}

// ---------------------------------------------------------------------
// Record framing.
// ---------------------------------------------------------------------

/// A 64-bit multiply-mix over 8-byte words, chained from a seed and the
/// length of what it covers, and fed as the bytes come: any split of
/// the same bytes gives the same value. Each step is a bijection of the
/// running state, so any change confined to one word — a flipped bit
/// above all — always changes the result; dropped, swapped or foreign
/// lines escape with probability 2⁻⁶⁴. An integrity check against
/// tearing and rot, not against an adversary.
#[derive(Clone, Copy)]
struct Digest {
    state: u64,
    /// The bytes of the word being filled.
    word: [u8; 8],
    filled: usize,
}

impl Digest {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;

    /// The digest, under `seed`, of `len` bytes yet to be fed.
    fn new(seed: u64, len: u64) -> Digest {
        Digest { state: seed ^ len.wrapping_mul(Self::K), word: [0; 8], filled: 0 }
    }

    fn step(&mut self, word: [u8; 8]) {
        self.state = (self.state ^ u64::from_le_bytes(word)).wrapping_mul(Self::K).rotate_left(29);
    }

    fn update(&mut self, mut bytes: &[u8]) {
        if self.filled > 0 {
            let take = bytes.len().min(8 - self.filled);
            self.word[self.filled..self.filled + take].copy_from_slice(&bytes[..take]);
            self.filled += take;
            bytes = &bytes[take..];
            if self.filled < 8 {
                return;
            }
            self.step(self.word);
        }
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.step(word.try_into().expect("chunks_exact yields 8 bytes"));
        }
        let rest = words.remainder();
        self.word[..rest.len()].copy_from_slice(rest);
        self.filled = rest.len();
    }

    /// The value: the last word, zero-padded, is always stepped.
    fn finish(mut self) -> u64 {
        self.word[self.filled..].fill(0);
        self.step(self.word);
        splitmix64(self.state)
    }
}

/// `MAGIC VERSION <mode> <start> <end> <body bytes> <fingerprint>\n`.
fn write_header(
    out: &mut impl Sink,
    mode: &str,
    fingerprint: u64,
    range: &Range<u32>,
    body_len: u64,
) {
    for word in [MAGIC, " ", VERSION, " ", mode] {
        out.put(word);
    }
    for v in [u64::from(range.start), u64::from(range.end), body_len] {
        push_field(out, v);
    }
    out.put(" ");
    push_hex64(out, fingerprint);
    out.put("\n");
}

/// `end <digest>\n`.
fn write_trailer(out: &mut impl Sink, digest: u64) {
    out.put("end ");
    push_hex64(out, digest);
    out.put("\n");
}

/// Counts what is written to it: a text's length, without the text.
struct ByteCount(u64);

impl Sink for ByteCount {
    fn put(&mut self, text: &str) {
        self.0 += text.len() as u64;
    }
}

/// Matches what is written to it against the front of a text: holds
/// the text not yet matched, or `None` once a piece differed.
struct Matches<'a>(Option<&'a [u8]>);

impl Sink for Matches<'_> {
    fn put(&mut self, text: &str) {
        self.0 = self.0.and_then(|rest| rest.strip_prefix(text.as_bytes()));
    }
}

/// The bytes `write` writes.
fn len_of(write: impl FnOnce(&mut ByteCount)) -> u64 {
    let mut count = ByteCount(0);
    write(&mut count);
    count.0
}

/// A record on its way to a file: every piece is counted, digested and
/// gathered in the journal's buffer. A write error is kept, and ends
/// the writing, until the record is done.
struct RecordWriter<'b, W: Write> {
    out: W,
    buf: &'b mut Vec<u8>,
    digest: Digest,
    len: u64,
    error: io::Result<()>,
}

impl<W: Write> RecordWriter<'_, W> {
    /// Buffer `bytes`, first emptying the buffer into the file if they do
    /// not fit; a piece larger than the whole buffer goes straight there.
    fn buffer(&mut self, bytes: &[u8]) -> io::Result<()> {
        if bytes.len() > self.buf.capacity() - self.buf.len() {
            self.out.write_all(self.buf)?;
            self.buf.clear();
            if bytes.len() > self.buf.capacity() {
                return self.out.write_all(bytes);
            }
        }
        self.buf.extend_from_slice(bytes);
        Ok(())
    }
}

impl<W: Write> Sink for RecordWriter<'_, W> {
    fn put(&mut self, text: &str) {
        self.digest.update(text.as_bytes());
        self.len += text.len() as u64;
        if self.error.is_ok() {
            self.error = self.buffer(text.as_bytes());
        }
    }
}

/// Write the record of `range`, holding `fold`, to `out` and return its
/// length. The text is never held: the body is written once into a
/// count — its length leads the header and seeds the digest — and once
/// more into the digest and the journal's `buf`, which never grows and
/// is written out, and `out` flushed, before this returns.
fn write_record<M: Checkpointed>(
    out: impl Write,
    buf: &mut Vec<u8>,
    fingerprint: u64,
    range: Range<u32>,
    fold: &Folded<M::Fold>,
) -> io::Result<u64> {
    let body_len = len_of(|count| write_body::<M>(fold, count));
    let header_len = len_of(|count| write_header(count, M::MODE, fingerprint, &range, body_len));
    let len = header_len + body_len + TRAILER_LEN as u64;
    buf.clear();
    let mut record =
        RecordWriter { out, buf, digest: Digest::new(0, header_len), len: 0, error: Ok(()) };
    write_header(&mut record, M::MODE, fingerprint, &range, body_len);
    record.digest = Digest::new(record.digest.finish(), body_len);
    write_body::<M>(fold, &mut record);
    let digest = record.digest.finish();
    write_trailer(&mut record, digest);
    debug_assert_eq!(record.len, len, "the counted and the written record differ");
    record.error?;
    record.out.write_all(record.buf)?;
    record.out.flush()?;
    Ok(len)
}

/// Parse one header line into the unit range and body length it
/// announces. `Ok(None)`: not a header (torn or rotted). `Err`: a
/// header, but of another format version, mode or campaign — the resume
/// must be refused, not repaired.
fn parse_header(
    line: &[u8],
    mode: &str,
    fingerprint: u64,
) -> io::Result<Option<(Range<u32>, u64)>> {
    let Some(line) = line.strip_suffix(b"\n").and_then(|l| std::str::from_utf8(l).ok()) else {
        return Ok(None);
    };
    let mut t = line.split(' ');
    if t.next() != Some(MAGIC) {
        return Ok(None);
    }
    match t.next() {
        Some(VERSION) => {}
        Some(other) => {
            return Err(invalid(format!(
                "format version {other:?} is not the {VERSION:?} this build speaks"
            )))
        }
        None => return Ok(None),
    }
    let parsed = (|| {
        let got_mode = word(&mut t, "mode")?;
        let range = tok(&mut t, "start")?..tok(&mut t, "end")?;
        let body_len = tok(&mut t, "body length")?;
        let got_fingerprint = u64::from_str_radix(word(&mut t, "fingerprint")?, 16)
            .map_err(|e| format!("bad fingerprint: {e}"))?;
        match t.next() {
            None => Ok((got_mode, got_fingerprint, range, body_len)),
            Some(extra) => Err(format!("trailing {extra:?}")),
        }
    })();
    let Ok((got_mode, got_fingerprint, range, body_len)): Result<_, String> = parsed else {
        return Ok(None);
    };
    if got_mode != mode {
        return Err(invalid(format!("a {got_mode} journal, not a {mode} one")));
    }
    if got_fingerprint != fingerprint {
        return Err(invalid(format!(
            "fingerprint mismatch: journal {got_fingerprint:016x}, campaign {fingerprint:016x} — \
             refusing to resume under a different configuration"
        )));
    }
    Ok(Some((range, body_len)))
}

/// What replaying a journal recovered: nothing, for a fresh campaign.
#[derive(Default)]
struct Replayed<F> {
    /// The fold of every intact, chained record.
    fold: F,
    /// Units `0..cursor` are in `fold`.
    cursor: u32,
    /// Length of the intact prefix; anything beyond is damage.
    good_len: u64,
    /// Length of the first record — the last fold's size.
    fold_bytes: u64,
}

/// A record's body as a [`LineSource`]: read a line at a time through
/// `take(body_len)`, every byte digested as it is read.
struct BodyLines<R> {
    body: io::Take<R>,
    line: Vec<u8>,
    digest: Digest,
    /// Every line read was UTF-8.
    utf8: bool,
    /// The read error that ended the lines, if one did.
    error: Option<io::Error>,
}

impl<R: BufRead> LineSource for BodyLines<R> {
    fn next_line(&mut self) -> Option<&str> {
        self.line.clear();
        match self.body.read_until(b'\n', &mut self.line) {
            Ok(0) => return None,
            Ok(_) => self.digest.update(&self.line),
            Err(e) => {
                self.error = Some(e);
                return None;
            }
        }
        // Split as `str::lines` splits: at `\n` or `\r\n`.
        let line = match self.line.strip_suffix(b"\n") {
            Some(line) => line.strip_suffix(b"\r").unwrap_or(line),
            None => &self.line,
        };
        match std::str::from_utf8(line) {
            Ok(line) => Some(line),
            Err(_) => {
                self.utf8 = false;
                None
            }
        }
    }

    fn bytes_left(&self) -> Option<u64> {
        Some(self.body.limit())
    }
}

/// Stream the journal at `path` record by record, folding every record
/// that chains and verifies, and stopping at the first that does not.
/// A body is parsed a line at a time as it is read and digested, so no
/// record's text is ever held; the parsed block is folded only once the
/// record's trailer matches.
fn replay<M: Checkpointed>(
    path: &Path,
    fingerprint: u64,
    (n_dests, rounds): (usize, usize),
) -> io::Result<Replayed<Folded<M::Fold>>> {
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut reader = BufReader::with_capacity(IO_BUFFER, file);
    let mut out = Replayed::<Folded<M::Fold>>::default();
    let mut line = Vec::new();
    loop {
        line.clear();
        let header_len = reader.by_ref().take(MAX_HEADER_LEN).read_until(b'\n', &mut line)? as u64;
        let first = out.good_len == 0;
        let (range, body_len) = match parse_header(&line, M::MODE, fingerprint)? {
            Some(header) => header,
            // The first record is installed by rename, never torn: a
            // file that does not open with a header is not a journal.
            None if first => return Err(invalid("no ptsnap record header at the start")),
            None => break,
        };
        let chains = range.start == out.cursor && range.end >= out.cursor;
        let left = file_len.saturating_sub(out.good_len + header_len);
        let record_tail = body_len.saturating_add(TRAILER_LEN as u64);
        if !chains || record_tail > left {
            break;
        }
        let mut header_digest = Digest::new(0, header_len);
        header_digest.update(&line);
        let mut body = BodyLines {
            body: reader.by_ref().take(body_len),
            // One line buffer serves every header and body line.
            line: std::mem::take(&mut line),
            digest: Digest::new(header_digest.finish(), body_len),
            utf8: true,
            error: None,
        };
        let span = Span { units: range, n_dests, rounds };
        let parsed = read_body::<M>(&mut body, &span);
        line = body.line;
        if let Some(e) = body.error {
            return Err(e);
        }
        // A body that is cut short or not UTF-8 is damage, as is one
        // that does not parse.
        let (Ok(mut block), true, 0) = (parsed, body.utf8, body.body.limit()) else { break };
        let digest = body.digest.finish();
        let mut trailer = [0u8; TRAILER_LEN];
        match reader.read_exact(&mut trailer) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(e),
        }
        let mut expected = Matches(Some(&trailer));
        write_trailer(&mut expected, digest);
        if expected.0 != Some(&[]) {
            break;
        }
        // The first record, the bulk of the journal, moves into the
        // empty fold whole: nothing holds it twice.
        out.fold.absorb(&mut block);
        out.cursor = span.units.end;
        let record_len = header_len + record_tail;
        if first {
            out.fold_bytes = record_len;
        }
        out.good_len += record_len;
    }
    Ok(out)
}

/// What one drive wrote and ran — read by the linear-bytes and
/// idempotent-resume regression tests only.
#[cfg_attr(not(test), allow(dead_code, reason = "only the regression tests read it"))]
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DriveStats {
    /// Bytes written to the journal and its temp file: every appended
    /// record plus every fold rewrite.
    pub(crate) bytes_written: u64,
    /// Units executed (not replayed).
    pub(crate) units_run: u32,
}

/// Make the record of `range`, holding `fold`, the whole journal at
/// `path`: temp file, flushed and closed, then rename over the journal,
/// so a kill at any point leaves either the old journal or the new one,
/// both complete (and a stale temp file is simply overwritten). Returns
/// an append handle on the new journal and the record's length.
fn install<M: Checkpointed>(
    path: &Path,
    buf: &mut Vec<u8>,
    fingerprint: u64,
    range: Range<u32>,
    fold: &Folded<M::Fold>,
) -> io::Result<(File, u64)> {
    let tmp = tmp_path(path);
    let len = write_record::<M>(File::create(&tmp)?, buf, fingerprint, range, fold)?;
    fs::rename(&tmp, path)?;
    Ok((OpenOptions::new().append(true).open(path)?, len))
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

/// The open journal: an append handle on [`CheckpointConfig::path`], the
/// write buffer every record goes through ([`write_record`]), and the two
/// byte counts the folding rule compares. Beside the workers' simulators,
/// the fold and the block just run, a record adds nothing but that
/// buffer: never its text, and no sorted copy of anything.
struct Journal<'a, M> {
    path: &'a Path,
    fingerprint: u64,
    file: File,
    buf: Vec<u8>,
    /// Size of the `0..cursor` record the file starts with.
    fold_bytes: u64,
    /// Bytes of block records appended after it.
    appended: u64,
    stats: DriveStats,
    mode: std::marker::PhantomData<fn(&M)>,
}

impl<'a, M: Checkpointed> Journal<'a, M> {
    /// Open the journal at `path` for appending after `replayed`,
    /// cutting off a damaged tail so the next record chains. Where
    /// nothing was replayed — a fresh campaign, or a journal whose first
    /// record is damaged — start a fresh journal, the record of no units,
    /// replacing whatever is there, a previous campaign's journal or a
    /// stale temp file alike.
    fn open(
        path: &'a Path,
        fingerprint: u64,
        replayed: &Replayed<Folded<M::Fold>>,
    ) -> io::Result<Self> {
        let mut buf = Vec::with_capacity(IO_BUFFER);
        let (file, fold_bytes, bytes_written) = if replayed.good_len == 0 {
            let (file, len) = install::<M>(path, &mut buf, fingerprint, 0..0, &Folded::default())?;
            (file, len, len)
        } else {
            // A kill between a fold's write and its rename leaves this.
            match fs::remove_file(tmp_path(path)) {
                Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
                _ => {}
            }
            let file = OpenOptions::new().append(true).open(path)?;
            file.set_len(replayed.good_len)?;
            (file, replayed.fold_bytes, 0)
        };
        Ok(Journal {
            path,
            fingerprint,
            file,
            buf,
            fold_bytes,
            appended: replayed.good_len - replayed.fold_bytes,
            stats: DriveStats { bytes_written, units_run: 0 },
            mode: std::marker::PhantomData,
        })
    }

    /// Checkpoint the block of `range`: append its record, fold it into
    /// `fold`, then fold the journal if that is due.
    fn commit(
        &mut self,
        fold: &mut Folded<M::Fold>,
        range: Range<u32>,
        mut block: Folded<M::Fold>,
    ) -> io::Result<()> {
        self.append(range.clone(), &block)?;
        fold.absorb(&mut block);
        self.fold_if_due(range.end, fold)
    }

    /// Append the record of a block.
    fn append(&mut self, range: Range<u32>, block: &Folded<M::Fold>) -> io::Result<()> {
        let len = write_record::<M>(&mut self.file, &mut self.buf, self.fingerprint, range, block)?;
        self.appended += len;
        self.stats.bytes_written += len;
        Ok(())
    }

    /// The folding rule: once as many bytes have been appended as the
    /// last fold took, rewrite the journal as the single record
    /// `0..cursor`. Amortised doubling — no knob.
    fn fold_if_due(&mut self, cursor: u32, fold: &Folded<M::Fold>) -> io::Result<()> {
        if self.appended < self.fold_bytes {
            return Ok(());
        }
        // The old handle points at the file the rename replaces.
        (self.file, self.fold_bytes) =
            install::<M>(self.path, &mut self.buf, self.fingerprint, 0..cursor, fold)?;
        self.appended = 0;
        self.stats.bytes_written += self.fold_bytes;
        Ok(())
    }
}

/// The one checkpoint driver: run the campaign block by block from the
/// journal's cursor, journaling each block while the workers run the
/// next. At most one block is run and not yet journaled; it is
/// committed ([`Journal::commit`]) beside the next block, or before the
/// driver returns — at the end, or at a `stop_after_checkpoints` kill,
/// past which no block is started. A hard crash loses at most the block
/// in flight and the one being journaled; an I/O error from a commit is
/// returned once the block beside it has joined.
fn drive<M: Checkpointed>(
    net: &SyntheticInternet,
    mode: &M,
    ckpt: &CheckpointConfig,
    resume: bool,
) -> io::Result<(Option<M::Result>, DriveStats)> {
    let n_units = n_units(net, &mode.common());
    let fingerprint = mode.fingerprint(net);
    let replayed = if resume {
        let shape = (net.dests.len(), mode.common().rounds);
        replay::<M>(&ckpt.path, fingerprint, shape)?
    } else {
        Replayed::default()
    };
    if replayed.cursor > n_units {
        return Err(invalid(format!(
            "cursor {} exceeds the campaign's {n_units} units",
            replayed.cursor
        )));
    }
    let mut journal = Journal::<M>::open(&ckpt.path, fingerprint, &replayed)?;
    let Replayed { mut fold, mut cursor, .. } = replayed;
    let every = ckpt.every_units.max(1);
    let mut checkpoints = 0usize;
    // Warm from the first block on: a later block builds no simulator.
    let mut workers = worker_states(net, mode);
    // The block run but not yet journaled.
    let mut pending: Option<(Range<u32>, Folded<M::Fold>)> = None;
    while cursor < n_units {
        let end = n_units.min(cursor.saturating_add(every));
        let (block, committed) = run_block(net, mode, cursor..end, &mut workers, || {
            pending.take().map_or(Ok(()), |(range, block)| journal.commit(&mut fold, range, block))
        });
        committed?;
        journal.stats.units_run += end - cursor;
        pending = Some((cursor..end, block));
        cursor = end;
        checkpoints += 1;
        if ckpt.stop_after_checkpoints.is_some_and(|limit| checkpoints >= limit) {
            break;
        }
    }
    if let Some((range, block)) = pending {
        journal.commit(&mut fold, range, block)?;
    }
    if cursor < n_units {
        return Ok((None, journal.stats));
    }
    Ok((Some(finish(net, mode, fold)), journal.stats))
}

/// Run a side-by-side campaign with periodic checkpoints — [`crate::run`]
/// with crash safety, journaling to a fresh file at
/// [`CheckpointConfig::path`] (anything already there is replaced).
/// Returns `Ok(None)` only when
/// [`CheckpointConfig::stop_after_checkpoints`] cut the run short (the
/// journal is on disk, ready for [`run_resumed`]); otherwise the result
/// is byte-for-byte the one [`crate::run`] produces.
pub fn run_checkpointed(
    net: &SyntheticInternet,
    config: &CampaignConfig,
    ckpt: &CheckpointConfig,
) -> io::Result<Option<CampaignResult>> {
    Ok(drive(net, config, ckpt, false)?.0)
}

/// Resume a checkpointed campaign from its journal and run it to
/// completion (or to the next `stop_after_checkpoints` kill point); on
/// a journal that is already complete, just finalize it. The journal
/// must have been written by a campaign with the same results-affecting
/// configuration — worker count may differ freely — or this fails with
/// `InvalidData` instead of producing a silently inconsistent result.
/// A torn or corrupt tail is cut off and its units are run again.
pub fn run_resumed(
    net: &SyntheticInternet,
    config: &CampaignConfig,
    ckpt: &CheckpointConfig,
) -> io::Result<Option<CampaignResult>> {
    Ok(drive(net, config, ckpt, true)?.0)
}

/// [`run_checkpointed`] for the multipath campaign mode.
pub fn run_multipath_checkpointed(
    net: &SyntheticInternet,
    config: &MultipathConfig,
    ckpt: &CheckpointConfig,
) -> io::Result<Option<MultipathResult>> {
    Ok(drive(net, config, ckpt, false)?.0)
}

/// [`run_resumed`] for the multipath campaign mode.
pub fn run_multipath_resumed(
    net: &SyntheticInternet,
    config: &MultipathConfig,
    ckpt: &CheckpointConfig,
) -> io::Result<Option<MultipathResult>> {
    Ok(drive(net, config, ckpt, true)?.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{multipath_digest, report_digest};
    use crate::runner::{run, run_multipath};
    use pt_netsim::time::SimDuration;
    use pt_topogen::{generate, InternetConfig};

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ptsnap-test-{}-{name}", std::process::id()));
        p
    }

    fn ckpt(
        path: &Path,
        every_units: u32,
        stop_after_checkpoints: Option<usize>,
    ) -> CheckpointConfig {
        CheckpointConfig { path: path.to_path_buf(), every_units, stop_after_checkpoints }
    }

    fn file_len(path: &Path) -> u64 {
        fs::metadata(path).expect("journal exists").len()
    }

    /// One record whole, as the tests craft and inspect records — what
    /// the journal itself never holds — written by [`write_record`].
    struct Record {
        header: String,
        /// The body, then the trailer line.
        body: String,
    }

    impl Record {
        fn encode<M: Checkpointed>(
            fingerprint: u64,
            range: Range<u32>,
            fold: &Folded<M::Fold>,
        ) -> Record {
            let mut bytes = Vec::new();
            let mut buf = Vec::with_capacity(IO_BUFFER);
            let len = write_record::<M>(&mut bytes, &mut buf, fingerprint, range, fold).unwrap();
            assert_eq!(len, bytes.len() as u64);
            let mut body = String::from_utf8(bytes).unwrap();
            let header = body.drain(..=body.find('\n').unwrap()).collect();
            Record { header, body }
        }

        fn len(&self) -> u64 {
            (self.header.len() + self.body.len()) as u64
        }

        fn write_to(&self, file: &mut File) -> io::Result<()> {
            file.write_all(self.header.as_bytes())?;
            file.write_all(self.body.as_bytes())
        }

        /// Make this record the whole journal at `path`; an append
        /// handle on it.
        fn install(&self, path: &Path) -> io::Result<File> {
            self.write_to(&mut File::create(path)?)?;
            OpenOptions::new().append(true).open(path)
        }
    }

    /// `bytes` digested under `seed` in one piece.
    fn digest(seed: u64, bytes: &[u8]) -> u64 {
        let mut digest = Digest::new(seed, bytes.len() as u64);
        digest.update(bytes);
        digest.finish()
    }

    /// The length of `fold` encoded as one record.
    fn record_len<M: Checkpointed>(fold: &Folded<M::Fold>, range: Range<u32>) -> u64 {
        Record::encode::<M>(0, range, fold).len()
    }

    #[test]
    fn checkpointed_run_matches_plain_run_and_snapshot_is_canonical() {
        let net = generate(&InternetConfig::tiny(42));
        let config = CampaignConfig { rounds: 2, workers: 4, seed: 99, ..Default::default() };
        let plain = report_digest(&run(&net, &config));
        let path = tmp("canonical");
        let result =
            run_checkpointed(&net, &config, &ckpt(&path, 17, None)).unwrap().expect("completes");
        assert_eq!(report_digest(&result), plain);
        // The journal replays to the whole campaign, cleanly.
        let fingerprint = config.fingerprint(&net);
        let replayed = replay::<CampaignConfig>(&path, fingerprint, (40, 2)).unwrap();
        assert_eq!(replayed.cursor, 80);
        assert_eq!(replayed.good_len, file_len(&path));
        // Canonical: the replayed fold — merged from a fold record and
        // block records, each parsed back from text — encodes to the
        // bytes an uninterrupted single block's fold encodes to.
        let mut journaled = String::new();
        write_body::<CampaignConfig>(&replayed.fold, &mut journaled);
        let mut direct = String::new();
        let serial = CampaignConfig { workers: 1, ..config };
        let whole = run_block(&net, &serial, 0..80, &mut worker_states(&net, &serial), || ()).0;
        write_body::<CampaignConfig>(&whole, &mut direct);
        assert!(journaled == direct, "journal replay changed the fold's canonical bytes");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn any_block_size_and_worker_count_folds_to_one_journal() {
        let net = generate(&InternetConfig::tiny(42));
        let config =
            |workers| CampaignConfig { rounds: 2, workers, seed: 99, ..Default::default() };
        let plain = report_digest(&run(&net, &config(1)));
        let fingerprint = config(1).fingerprint(&net);
        let mut folded: Vec<(String, Vec<u8>)> = Vec::new();
        for workers in [1, 3] {
            for every_units in [1, 7, 64, 80] {
                let case = format!("{workers} workers, {every_units} units a block");
                let path = tmp(&format!("warm-{workers}-{every_units}"));
                let result =
                    run_checkpointed(&net, &config(workers), &ckpt(&path, every_units, None))
                        .unwrap()
                        .expect("completes");
                assert_eq!(report_digest(&result), plain, "{case}");
                // A final fold: the journal as the one record `0..80`.
                let replayed = replay::<CampaignConfig>(&path, fingerprint, (40, 2)).unwrap();
                assert_eq!(replayed.cursor, 80, "{case}");
                let record = Record::encode::<CampaignConfig>(fingerprint, 0..80, &replayed.fold);
                folded.push((case, [record.header, record.body].concat().into_bytes()));
                let _ = fs::remove_file(&path);
            }
        }
        // Warm workers, however many blocks they ran and in whatever
        // state one block left them for the next, fold to the same bytes.
        for (case, journal) in &folded[1..] {
            assert!(*journal == folded[0].1, "{case}: folded journal differs from {}", folded[0].0);
        }
    }

    #[test]
    fn resume_refuses_a_mismatched_configuration() {
        let net = generate(&InternetConfig::tiny(42));
        let config = CampaignConfig { rounds: 2, workers: 2, seed: 99, ..Default::default() };
        let path = tmp("mismatch");
        let ckpt = ckpt(&path, 40, Some(1));
        assert!(run_checkpointed(&net, &config, &ckpt).unwrap().is_none());
        // Same campaign, different seed: a silent resume would splice
        // two unrelated campaigns together.
        let other = CampaignConfig { seed: 100, ..config.clone() };
        let err = run_resumed(&net, &other, &ckpt).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("fingerprint mismatch"), "{err}");
        // The other mode's loader refuses it too.
        let err = run_multipath_resumed(&net, &MultipathConfig::default(), &ckpt).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // But a different *worker count* is explicitly fine.
        let reworked = CampaignConfig { workers: 7, ..config.clone() };
        assert!(run_resumed(&net, &reworked, &ckpt).unwrap().is_some());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn a_journal_is_refused_over_another_network() {
        // Both differ from `tiny(42)` in what the network is, not in its
        // size or its first address.
        let base = InternetConfig::tiny(42);
        let others = [
            ("lb_equal_weight", InternetConfig { lb_equal_weight: 0.7, ..base.clone() }),
            ("link_loss", InternetConfig { link_loss: 0.01, ..base.clone() }),
        ];
        let net = generate(&base);
        let path = tmp("other-net");
        let ckpt = ckpt(&path, 20, Some(1));
        let side = CampaignConfig { rounds: 2, workers: 2, seed: 99, ..Default::default() };
        let multi = MultipathConfig { workers: 2, seed: 7, ..Default::default() };
        for (field, config) in others {
            let other = generate(&config);
            assert!(run_checkpointed(&net, &side, &ckpt).unwrap().is_none());
            let err = run_resumed(&other, &side, &ckpt).expect_err(field);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "side-by-side, {field}: {err}");
            assert!(run_multipath_checkpointed(&net, &multi, &ckpt).unwrap().is_none());
            let err = run_multipath_resumed(&other, &multi, &ckpt).expect_err(field);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "multipath, {field}: {err}");
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn every_results_affecting_trace_field_is_fingerprinted() {
        type Flip = (&'static str, fn(&mut CampaignConfig));
        let flips: [Flip; 12] = [
            ("rounds", |c| c.rounds += 1),
            ("seed", |c| c.seed += 1),
            ("trace.min_ttl", |c| c.trace.min_ttl += 1),
            ("trace.window", |c| c.trace.window += 1),
            ("trace.probe_budget", |c| c.trace.probe_budget += 1),
            ("dynamics.forwarding_loop_prob", |c| c.dynamics.forwarding_loop_prob *= 2.0),
            ("dynamics.forwarding_loop_delay", |c| {
                c.dynamics.forwarding_loop_delay = SimDuration::from_millis(1)
            }),
            ("dynamics.forwarding_loop_window", |c| {
                c.dynamics.forwarding_loop_window = SimDuration::from_millis(1)
            }),
            ("dynamics.balancer_flap_prob", |c| c.dynamics.balancer_flap_prob *= 2.0),
            ("inject.panic_units", |c| c.inject.panic_units.extend([3])),
            ("inject.runaway_units", |c| c.inject.runaway_units.extend([3])),
            ("inject: panic vs runaway", |c| {
                c.inject.panic_units.remove(&5);
                c.inject.runaway_units.insert(5);
            }),
        ];
        let net = generate(&InternetConfig::tiny(42));
        let mut config = CampaignConfig { rounds: 2, workers: 2, seed: 99, ..Default::default() };
        config.inject.panic_units.insert(5);
        let path = tmp("flip-trace");
        let ckpt = ckpt(&path, 40, Some(1));
        assert!(run_checkpointed(&net, &config, &ckpt).unwrap().is_none());
        for (field, flip) in flips {
            let mut flipped = config.clone();
            flip(&mut flipped);
            let err = run_resumed(&net, &flipped, &ckpt).expect_err(field);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{field}: {err}");
        }
        // A refused resume leaves the journal as it was.
        assert!(run_resumed(&net, &config, &ckpt).unwrap().is_some());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn every_results_affecting_mda_field_is_fingerprinted() {
        type Flip = (&'static str, fn(&mut MultipathConfig));
        // Read by every walk.
        let always: [Flip; 8] = [
            ("rounds", |c| c.rounds += 1),
            ("seed", |c| c.seed += 1),
            ("adaptive", |c| c.adaptive = !c.adaptive),
            ("inject.panic_units", |c| c.inject.panic_units.extend([3])),
            ("mda.alpha", |c| c.mda.alpha = 0.05),
            ("mda.max_flows_per_hop", |c| c.mda.max_flows_per_hop += 1),
            ("mda.window", |c| c.mda.window += 1),
            ("mda.probe_budget", |c| c.mda.probe_budget += 1),
        ];
        // Drawn per unit; what the config holds is never read.
        let never: [Flip; 4] = [
            ("workers", |c| c.workers += 1),
            ("mda.base_src_port", |c| c.mda.base_src_port += 1),
            ("mda.dst_port", |c| c.mda.dst_port += 1),
            ("mda.adaptive", |c| c.mda.adaptive = Some(1)),
        ];
        let net = generate(&InternetConfig::tiny(42));
        let path = tmp("flip-mda");
        let ckpt = ckpt(&path, 20, Some(1));
        for adaptive in [false, true] {
            let config = MultipathConfig { workers: 2, adaptive, seed: 7, ..Default::default() };
            assert!(run_multipath_checkpointed(&net, &config, &ckpt).unwrap().is_none());
            let resumed_kind = |flip: fn(&mut MultipathConfig)| {
                let mut flipped = config.clone();
                flip(&mut flipped);
                // An accepted resume completes the journal; the flips
                // that follow meet the same fingerprint check on it.
                run_multipath_resumed(&net, &flipped, &ckpt).map(drop).map_err(|e| e.kind())
            };
            for (field, flip) in always {
                assert_eq!(resumed_kind(flip), Err(io::ErrorKind::InvalidData), "{field}");
            }
            for (field, flip) in never {
                assert_eq!(resumed_kind(flip), Ok(()), "{field}, adaptive = {adaptive}");
            }
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn panic_text_escaping_round_trips() {
        for s in ["plain", "with\nnewline", "back\\slash", "mixed \\n literal\r\n", ""] {
            let mut escaped = String::new();
            push_escaped_panic(&mut escaped, s);
            assert!(!escaped.contains(['\n', '\r']), "{escaped:?} must fit one line");
            assert_eq!(unescape_panic(&escaped), s);
        }
    }

    /// Bytes written, and the file-size bound checked at every
    /// checkpoint, for a side-by-side campaign of `rounds` rounds
    /// stepped one 16-unit block per resume.
    fn stepped_bytes_written(net: &SyntheticInternet, rounds: usize, name: &str) -> u64 {
        let config = CampaignConfig { rounds, workers: 2, seed: 99, ..Default::default() };
        let fingerprint = config.fingerprint(net);
        let path = tmp(name);
        let ckpt = ckpt(&path, 16, Some(1));
        let mut written = 0;
        let mut resume = false;
        loop {
            let (result, stats) = drive(net, &config, &ckpt, resume).unwrap();
            resume = true;
            written += stats.bytes_written;
            assert_eq!(stats.units_run, 16);
            // The file holds at most two full folds and one block.
            let replayed = replay::<CampaignConfig>(&path, fingerprint, (40, rounds)).unwrap();
            let block = run_block(
                net,
                &config,
                replayed.cursor - 16..replayed.cursor,
                &mut worker_states(net, &config),
                || (),
            )
            .0;
            let bound = 2 * record_len::<CampaignConfig>(&replayed.fold, 0..replayed.cursor)
                + record_len::<CampaignConfig>(&block, replayed.cursor - 16..replayed.cursor);
            assert!(
                file_len(&path) <= bound,
                "at unit {}: journal {} bytes, bound {bound}",
                replayed.cursor,
                file_len(&path)
            );
            if result.is_some() {
                let _ = fs::remove_file(&path);
                return written;
            }
        }
    }

    #[test]
    fn bytes_written_grow_linearly_with_the_campaign() {
        let net = generate(&InternetConfig::tiny(42));
        let short = stepped_bytes_written(&net, 4, "linear-4");
        let long = stepped_bytes_written(&net, 8, "linear-8");
        // Rewriting the whole fold at every checkpoint grows ~4x here.
        assert!(
            long as f64 <= 2.5 * short as f64,
            "doubling the rounds took bytes written from {short} to {long}"
        );
    }

    #[test]
    fn checkpointed_run_starts_a_fresh_journal_over_an_old_one() {
        let net = generate(&InternetConfig::tiny(42));
        let config = MultipathConfig { workers: 2, seed: 7, ..Default::default() };
        let path = tmp("fresh");
        // An old journal of another campaign and mode, complete, and a
        // temp file a kill left behind.
        let other = CampaignConfig { rounds: 1, workers: 2, ..Default::default() };
        run_checkpointed(&net, &other, &ckpt(&path, 64, None)).unwrap();
        fs::write(tmp_path(&path), "half a fold").unwrap();
        let plain = multipath_digest(&run_multipath(&net, &config));
        for _ in 0..2 {
            let (result, stats) = drive(&net, &config, &ckpt(&path, 16, None), false).unwrap();
            assert_eq!(multipath_digest(&result.expect("completes")), plain);
            assert_eq!(stats.units_run, 40, "nothing of the old journal was replayed");
            assert!(!tmp_path(&path).exists(), "the stale temp file is gone");
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn resuming_a_completed_journal_is_idempotent() {
        let net = generate(&InternetConfig::tiny(42));
        let config = CampaignConfig { rounds: 2, workers: 2, seed: 99, ..Default::default() };
        let path = tmp("idempotent");
        let ckpt = ckpt(&path, 17, None);
        let first = run_checkpointed(&net, &config, &ckpt).unwrap().expect("completes");
        let bytes = fs::read(&path).unwrap();
        fs::write(tmp_path(&path), "half a fold").unwrap();
        for _ in 0..3 {
            let (again, stats) = drive(&net, &config, &ckpt, true).unwrap();
            assert_eq!(report_digest(&again.expect("finalizes")), report_digest(&first));
            assert_eq!(stats, DriveStats::default(), "nothing run, nothing written");
            assert!(fs::read(&path).unwrap() == bytes, "the journal is untouched");
            assert!(!tmp_path(&path).exists(), "the stale temp file is gone");
        }
        let _ = fs::remove_file(&path);
    }

    /// The journal that `mode` leaves killed at each of its checkpoints in
    /// turn, `every` units a block: each holds exactly the blocks up to
    /// the kill, and no unit past them was run.
    fn journals_killed_at_every_checkpoint<M: Checkpointed>(
        net: &SyntheticInternet,
        mode: &M,
        every: u32,
        path: &Path,
    ) -> Vec<Vec<u8>> {
        let n = n_units(net, &mode.common());
        let shape = (net.dests.len(), mode.common().rounds);
        (1..=n.div_ceil(every))
            .map(|k| {
                let (result, stats) =
                    drive(net, mode, &ckpt(path, every, Some(k as usize)), false).unwrap();
                let cursor = n.min(k * every);
                let case = format!("{} blocks of {every}, killed at checkpoint {k}", M::MODE);
                assert_eq!(result.is_some(), cursor == n, "{case}");
                let replayed = replay::<M>(path, mode.fingerprint(net), shape).unwrap();
                assert_eq!(replayed.cursor, cursor, "{case}: the journal ends elsewhere");
                assert_eq!(stats.units_run, cursor, "{case}: a block past the kill ran");
                fs::read(path).unwrap()
            })
            .collect()
    }

    #[test]
    fn a_kill_journals_every_block_before_it_and_runs_none_after() {
        // The driver journals a block while the workers run the next; a
        // kill still commits the block it ends and starts no other.
        let net = generate(&InternetConfig::tiny(42));
        let path = tmp("exact-kill");
        for every in [7, 17] {
            let side = [1, 3].map(|workers| {
                let config = CampaignConfig { rounds: 2, workers, seed: 99, ..Default::default() };
                journals_killed_at_every_checkpoint(&net, &config, every, &path)
            });
            let multi = [1, 3].map(|workers| {
                let config = MultipathConfig { rounds: 2, workers, seed: 7, ..Default::default() };
                journals_killed_at_every_checkpoint(&net, &config, every, &path)
            });
            // Every journal, the complete run's last, is the same bytes
            // for any worker count.
            for (mode, [one, three]) in [("side-by-side", side), ("multipath", multi)] {
                assert!(one == three, "{mode}, blocks of {every}: journals differ by worker count");
            }
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn other_format_versions_and_foreign_files_are_refused() {
        let net = generate(&InternetConfig::tiny(42));
        let config = CampaignConfig { rounds: 1, workers: 2, ..Default::default() };
        let path = tmp("foreign");
        for (content, why) in [
            ("ptsnap v1 side-by-side\nfingerprint 0000000000000000\ncursor 0\n", "version"),
            // The formats before this one: whole, well-formed headers.
            ("ptsnap v2 side-by-side 0 0 30 0000000000000000\n", "version"),
            ("ptsnap v3 side-by-side 0 0 30 0000000000000000\n", "version"),
            ("ptsnap v4 side-by-side 0 0 30 0000000000000000\n", "version"),
            // Round-major unit ids: resuming one would fold the wrong units.
            ("ptsnap v5 side-by-side 0 0 30 0000000000000000\n", "version"),
            // Accumulators with derived sets and a second line grammar.
            ("ptsnap v6 side-by-side 0 0 30 0000000000000000\n", "version"),
            ("", "start"),
            ("not a journal at all\n", "start"),
            ("ptsnap v7 side-by-side 0 0", "start"),
        ] {
            fs::write(&path, content).unwrap();
            let err = run_resumed(&net, &config, &ckpt(&path, 16, None)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{content:?}");
            assert!(err.to_string().contains(why), "{content:?}: {err}");
            // Refused means untouched.
            assert_eq!(fs::read_to_string(&path).unwrap(), content);
        }
        let _ = fs::remove_file(&path);
        let err = run_resumed(&net, &config, &ckpt(&path, 16, None)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn digest_sees_every_single_byte_change() {
        let body: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let base = digest(0, &body);
        for at in [0, 7, 8, 500, 991, 992, 999] {
            for bit in 0..8 {
                let mut flipped = body.clone();
                flipped[at] ^= 1 << bit;
                assert_ne!(digest(0, &flipped), base, "byte {at}, bit {bit}");
            }
        }
        assert_ne!(digest(0, &body[..999]), base);
        assert_ne!(digest(1, &body), base);
    }

    #[test]
    fn the_digest_is_the_same_for_every_split() {
        let body: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        // The values of the one-shot digest this incremental one
        // replaced: every `ptsnap v7` journal already written carries
        // them.
        for (seed, len, value) in [
            (0, 1000, 0x0cc7_b9ed_c51c_32f5),
            (0, 999, 0x7462_39b7_593e_40ff),
            (0, 0, 0xe220_a839_7b1d_cdaf),
            (1, 1000, 0x886b_4d71_292e_3770),
            (0x9e37_79b9_7f4a_7c15, 13, 0x13a5_3dfe_a19b_c7f3),
            (42, 8, 0xebe5_6fa8_1713_7462),
        ] {
            assert_eq!(digest(seed, &body[..len]), value, "seed {seed:#x}, {len} bytes");
        }
        let fed = |pieces: &[&[u8]]| {
            let mut digest = Digest::new(7, pieces.iter().map(|p| p.len() as u64).sum());
            for piece in pieces {
                digest.update(piece);
            }
            digest.finish()
        };
        let whole = digest(7, &body);
        for at in 0..=body.len() {
            let (head, tail) = body.split_at(at);
            assert_eq!(fed(&[head, tail]), whole, "split at {at}");
        }
        // Three pieces, every pair of cuts, and a byte at a time.
        let short = &body[..40];
        for a in 0..=short.len() {
            for b in a..=short.len() {
                let three = [&short[..a], &short[a..b], &short[b..]];
                assert_eq!(fed(&three), digest(7, short), "cuts at {a} and {b}");
            }
        }
        let bytes: Vec<&[u8]> = body.chunks(1).collect();
        assert_eq!(fed(&bytes), whole);
    }

    /// `body` framed as the record of `range`, as [`write_record`]
    /// frames what it writes — for bodies no fold encodes to.
    fn record_of<M: Checkpointed>(fingerprint: u64, range: Range<u32>, body: &str) -> Record {
        let mut header = String::new();
        write_header(&mut header, M::MODE, fingerprint, &range, body.len() as u64);
        let sealed = digest(digest(0, header.as_bytes()), body.as_bytes());
        let mut body = body.to_owned();
        write_trailer(&mut body, sealed);
        Record { header, body }
    }

    #[test]
    fn a_record_is_checked_against_its_own_range() {
        // Every record here carries a valid digest and fingerprint: only
        // reading the body against the header's range can tell that it
        // is not the fold of that range. At the parent commit the first
        // of them resumed into `per_dest[1_000_000]` and panicked.
        let net = generate(&InternetConfig::tiny(42));
        let config = MultipathConfig { rounds: 2, workers: 2, seed: 7, ..Default::default() };
        let fingerprint = config.fingerprint(&net);
        let plain = multipath_digest(&run_multipath(&net, &config));
        let block = |units: Range<u32>| {
            run_block(&net, &config, units, &mut worker_states(&net, &config), || ()).0
        };
        let quarantined = |unit: u32| (unit, "crafted".to_owned());
        // A craft, and why reading the record of units 23..46 — which are
        // destination 11's round 1 and both rounds of destinations 12..23 —
        // refuses it.
        type Craft<'a> = (&'a dyn Fn(&mut Folded<Vec<UnitDiscovery>>), &'a str);
        let crafts: [Craft; 8] = [
            (&|f| f.measured[22].dest = 1_000_000, "unit (dest 1000000, round 1) outside"),
            (&|f| f.measured[1] = f.measured[0], "out of order"),
            (&|f| f.measured[0].round = 0, "unit (dest 11, round 0) outside"),
            (&|f| f.measured[22].round = 1 << 30, "round 1073741824) outside"),
            (&|f| f.measured.truncate(22), "truncated key lines"),
            (&|f| f.quarantined.push(quarantined(30)), "after the body's last line"),
            (
                &|f| {
                    f.measured.pop();
                    f.quarantined.push(quarantined(50));
                },
                "outside 23..46 or out of order",
            ),
            (
                &|f| {
                    f.measured.truncate(21);
                    f.quarantined.extend([quarantined(44), quarantined(44)]);
                },
                "outside 23..46 or out of order",
            ),
        ];
        let path = tmp("own-range");
        let span = Span { units: 23..46, n_dests: 40, rounds: 2 };
        for (craft, why) in crafts {
            let mut fold = block(23..46);
            craft(&mut fold);
            let mut body = String::new();
            write_body::<MultipathConfig>(&fold, &mut body);
            let refused = read_body::<MultipathConfig>(&mut body.lines(), &span).err();
            assert!(refused.as_ref().is_some_and(|e| e.contains(why)), "{why}: {refused:?}");
            // After a good record, and as the journal's only one.
            for first in [false, true] {
                let crafted = Record::encode::<MultipathConfig>(fingerprint, 23..46, &fold);
                if first {
                    // It does not chain from unit 0 either; the first
                    // craft again, on the record of `0..23`, does.
                    crafted.install(&path).unwrap();
                } else {
                    let good = Record::encode::<MultipathConfig>(fingerprint, 0..23, &block(0..23));
                    crafted.write_to(&mut good.install(&path).unwrap()).unwrap();
                }
                let (result, stats) = drive(&net, &config, &ckpt(&path, 23, None), true)
                    .unwrap_or_else(|e| panic!("{why}: {e}"));
                assert_eq!(multipath_digest(&result.expect("completes")), plain, "{why}");
                // The crafted record is damage: its units were run again.
                assert_eq!(stats.units_run, if first { 80 } else { 57 }, "{why}");
            }
        }
        // What panicked at the parent: the journal's one record, chained
        // and sealed, naming a destination the net does not have.
        let mut fold = block(0..23);
        fold.measured[22].dest = 1_000_000;
        Record::encode::<MultipathConfig>(fingerprint, 0..23, &fold).install(&path).unwrap();
        let resumed = run_multipath_resumed(&net, &config, &ckpt(&path, 23, None)).unwrap();
        assert_eq!(multipath_digest(&resumed.expect("completes")), plain);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn a_body_that_still_parses_is_refused_by_its_digest() {
        // A body is parsed as it is read, before its trailer: one that
        // still parses after damage must be refused by the digest alone.
        let net = generate(&InternetConfig::tiny(42));
        let config = MultipathConfig { rounds: 2, workers: 2, seed: 7, ..Default::default() };
        let fingerprint = config.fingerprint(&net);
        let plain = multipath_digest(&run_multipath(&net, &config));
        let block = |units: Range<u32>| {
            run_block(&net, &config, units, &mut worker_states(&net, &config), || ()).0
        };
        let fold = Record::encode::<MultipathConfig>(fingerprint, 0..40, &block(0..40));
        let intact = Record::encode::<MultipathConfig>(fingerprint, 40..60, &block(40..60));
        // The first unit's probe count, the last hex digit of its key
        // line's twelfth field: the line's `(destination, round)` lead
        // it, so the lines still ascend and the body still parses.
        let mut damaged = intact.body.clone();
        let line = damaged.match_indices('\n').nth(1).expect("quarantined and virt lines").0 + 1;
        assert!(damaged.starts_with("quarantined 0\nvirt "));
        let at = line + 11 * 9 + 7;
        let digit = if damaged.as_bytes()[at] == b'0' { "1" } else { "0" };
        damaged.replace_range(at..=at, digit);
        let span = Span { units: 40..60, n_dests: 40, rounds: 2 };
        let text = &damaged[..damaged.len() - TRAILER_LEN];
        assert!(read_body::<MultipathConfig>(&mut text.lines(), &span).is_ok());
        let path = tmp("digest-after-parse");
        for (body, units_run) in [(&intact.body, 20), (&damaged, 40)] {
            let record = Record { header: intact.header.clone(), body: body.clone() };
            record.write_to(&mut fold.install(&path).unwrap()).unwrap();
            let (result, stats) = drive(&net, &config, &ckpt(&path, 20, None), true).unwrap();
            assert_eq!(multipath_digest(&result.expect("completes")), plain);
            // Damaged, the record of units 40..60 is run again.
            assert_eq!(stats.units_run, units_run);
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn a_virtual_time_total_is_one_checked_line() {
        let net = generate(&InternetConfig::tiny(42));
        let config = CampaignConfig { rounds: 7, workers: 1, seed: 99, ..Default::default() };
        let fingerprint = config.fingerprint(&net);
        let plain = report_digest(&run(&net, &config));
        let virt_lines = |body: &str| body.lines().filter(|l| l.starts_with("virt")).count();
        // One line, whatever the unit count.
        let mut sizes = Vec::new();
        for units in [0..0, 0..1, 0..256] {
            let fold =
                run_block(&net, &config, units.clone(), &mut worker_states(&net, &config), || ()).0;
            assert!(fold.quarantined.is_empty());
            let record = Record::encode::<CampaignConfig>(fingerprint, units.clone(), &fold);
            assert_eq!(virt_lines(&record.body), 1, "{units:?}");
            sizes.push(record.len());
        }
        // Under round-major ids — six rounds of all 40 destinations and
        // 16 of a seventh — the record of this clean 256-unit block was
        // 43 698 bytes when a `virt` section held 27 bytes a unit, and
        // 36 795 with the total: 256 × 27 fewer, less the nine digits by
        // which the total (12 digits of nanoseconds) is longer than the
        // section's count was ("256"). Destination-major, the block is
        // seven rounds of 36 destinations and four of a 37th: fewer
        // destinations, so fewer keys: 33 341 bytes. Then the four
        // derived address and destination sets (234 bytes here) and the
        // `responses` count (10) left the accumulators, and their
        // instances became 5-field keys (50 more).
        assert_eq!(sizes[2], 33_147);

        // A total that is not a decimal `u128`, or that is more than the
        // record's units can have run for, makes the record damage.
        let span = Span { units: 0..16, n_dests: 40, rounds: 7 };
        let fold = run_block(&net, &config, 0..16, &mut worker_states(&net, &config), || ()).0;
        let mut body = String::new();
        write_body::<CampaignConfig>(&fold, &mut body);
        let total = format!("virt {}\n", fold.virtual_ns);
        assert!(read_body::<CampaignConfig>(&mut body.lines(), &span).is_ok());
        let path = tmp("virt");
        for bad in [
            "virt\n".to_owned(),
            "virt 1.5\n".to_owned(),
            "virt -1\n".to_owned(),
            "virt 0x10\n".to_owned(),
            format!("virt {:016x}\n", 1.5f64.to_bits()),
            "virt 340282366920938463463374607431768211456\n".to_owned(), // 2^128
            format!("virt {}\n", 16 * u128::from(u64::MAX) + 1),
            format!("virt 16\n{total}"),
        ] {
            let crafted = body.replacen(&total, &bad, 1);
            assert!(read_body::<CampaignConfig>(&mut crafted.lines(), &span).is_err(), "{bad:?}");
            record_of::<CampaignConfig>(fingerprint, 0..16, &crafted).install(&path).unwrap();
            let (result, stats) = drive(&net, &config, &ckpt(&path, 140, None), true).unwrap();
            assert_eq!(report_digest(&result.expect("completes")), plain, "{bad:?}");
            assert_eq!(stats.units_run, 280, "{bad:?}");
        }
        // The largest total sixteen units can have: read, not refused.
        let most = body.replacen(&total, &format!("virt {}\n", 16 * u128::from(u64::MAX)), 1);
        assert!(read_body::<CampaignConfig>(&mut most.lines(), &span).is_ok());
        let _ = fs::remove_file(&path);
    }
}
