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
//! and any kill point (`tests/checkpoint_resume.rs` pins this).
//!
//! # The journal (`ptsnap v5`)
//!
//! One file at [`CheckpointConfig::path`], a sequence of *records*:
//!
//! ```text
//! ptsnap v5 <mode> <start> <end> <body bytes> <fingerprint>\n
//! <body: the fold of units start..end, canonical text>
//! end <digest>\n
//! ```
//!
//! A checkpoint appends one record holding only the block just run, so
//! its cost is the block's, not the campaign's so far. Records chain:
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
//! record sorts and copies nothing, and its buffer is allocated once at
//! [`Checkpointed::body_capacity`] bytes and never regrown.

use std::fs::{self, File, OpenOptions};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

use pt_anomaly::codec::{push_hex64, push_key_lines, push_uint, read_key_lines};
use pt_anomaly::CampaignAccumulator;
use pt_core::TraceConfig;
use pt_mda::BalancerClass::{self, NotBalanced, PerFlow, PerPacket, Undetermined};
use pt_mda::{MdaConfig, MdaProtocol};
use pt_netsim::splitmix64;
use pt_topogen::SyntheticInternet;

use crate::runner::{
    finish, n_units, run_block, worker_states, BlockOutput, CampaignConfig, CampaignMode,
    CampaignResult, DynamicsConfig, Fold, Folded, InjectConfig, MultipathConfig, MultipathResult,
    UnitDiscovery, UnitId,
};

/// Magic prefix of every record header; bump the version when the
/// format changes. A loader refuses journals whose version it does not
/// speak — there is no silent cross-version reinterpretation.
const MAGIC: &str = "ptsnap";
const VERSION: &str = "v5";

/// `end <16 hex digits>\n`.
const TRAILER_LEN: usize = 21;

/// No header line is longer: magic, version, mode, three decimal
/// fields and the fingerprint come to under 100 bytes.
const MAX_HEADER_LEN: u64 = 128;

/// Checkpointing knobs for [`run_checkpointed`] / [`run_resumed`] and
/// their multipath twins.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Where the journal lives. Appended to at every checkpoint and
    /// occasionally rewritten atomically through `<path>.tmp`.
    pub path: PathBuf,
    /// Units per checkpoint block: the campaign journals after every
    /// `every_units` completed units (and once more at the end). A
    /// crash loses at most one block of work.
    pub every_units: u32,
    /// Testing hook: stop — returning `Ok(None)` with the journal on
    /// disk — after this many checkpoints, *as if the process had been
    /// killed there*. `None` runs to completion.
    pub stop_after_checkpoints: Option<usize>,
}

impl CheckpointConfig {
    /// Checkpoint to `path` every 64 units, running to completion.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointConfig { path: path.into(), every_units: 64, stop_after_checkpoints: None }
    }
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

fn mix_inject(mut h: u64, inject: &InjectConfig) -> u64 {
    let InjectConfig { panic_units, runaway_units } = inject;
    for &u in panic_units {
        h = mix(h, 0x70616e_u64 ^ u64::from(u));
    }
    for &u in runaway_units {
        h = mix(h, 0x72756e_u64 ^ u64::from(u));
    }
    h
}

fn mix_net(mut h: u64, net: &SyntheticInternet) -> u64 {
    h = mix(h, net.dests.len() as u64);
    mix(h, u64::from(net.dests.first().map_or(0, |d| u32::from(d.addr))))
}

/// Everything that changes a side-by-side campaign's results, folded
/// into one value. Workers are deliberately excluded — worker count is
/// a pure performance knob, and resuming under a different one is
/// legal and byte-identical. The configs are destructured exhaustively
/// so that a new field fails to compile here until it is classified.
fn campaign_fingerprint(net: &SyntheticInternet, config: &CampaignConfig) -> u64 {
    let CampaignConfig { rounds, workers: _, trace, dynamics, seed, inject } = config;
    let TraceConfig {
        min_ttl,
        max_ttl,
        probes_per_hop,
        timeout,
        max_consecutive_stars,
        window,
        probe_budget,
        time_budget,
    } = *trace;
    let DynamicsConfig {
        forwarding_loop_prob,
        forwarding_loop_delay,
        forwarding_loop_window,
        balancer_flap_prob,
        balancer_flap_after,
    } = *dynamics;
    let mut h = mix(0x7369_6465, *seed); // "side"
    h = mix(h, *rounds as u64);
    h = mix_net(h, net);
    for v in [
        u64::from(min_ttl),
        u64::from(max_ttl),
        u64::from(probes_per_hop),
        timeout.nanos(),
        u64::from(max_consecutive_stars),
        u64::from(window),
        u64::from(probe_budget),
        time_budget.nanos(),
        forwarding_loop_prob.to_bits(),
        forwarding_loop_delay.nanos(),
        forwarding_loop_window.nanos(),
        balancer_flap_prob.to_bits(),
        balancer_flap_after.nanos(),
    ] {
        h = mix(h, v);
    }
    mix_inject(h, inject)
}

/// The multipath counterpart of [`campaign_fingerprint`]. It hashes the
/// walk template the units actually read
/// ([`MultipathConfig::walk_template`]): under `adaptive` the preset
/// overrides the probing-policy fields of `mda`, so those do not count;
/// the ports are drawn per unit and never count.
fn multipath_fingerprint(net: &SyntheticInternet, config: &MultipathConfig) -> u64 {
    let MultipathConfig { rounds, workers: _, mda: _, adaptive, seed, inject } = config;
    let MdaConfig {
        alpha,
        max_flows_per_hop,
        max_ttl,
        timeout,
        max_consecutive_stars,
        window,
        flow_retries,
        classify_repeats,
        base_src_port: _,
        dst_port: _,
        protocol,
        adaptive: policies,
        probe_budget,
        time_budget,
    } = config.walk_template();
    let mut h = mix(0x6d64_6121, *seed); // "mda!"
    h = mix(h, *rounds as u64);
    h = mix_net(h, net);
    for v in [
        alpha.to_bits(),
        max_flows_per_hop as u64,
        u64::from(max_ttl),
        timeout.nanos(),
        u64::from(max_consecutive_stars),
        u64::from(window),
        u64::from(flow_retries),
        u64::from(classify_repeats),
        match protocol {
            MdaProtocol::Udp => 0,
            MdaProtocol::Tcp => 1,
        },
        u64::from(policies.is_some()),
        policies.unwrap_or(0),
        probe_budget as u64,
        time_budget.nanos(),
        u64::from(*adaptive),
    ] {
        h = mix(h, v);
    }
    mix_inject(h, inject)
}

// ---------------------------------------------------------------------
// Shared line-format helpers.
// ---------------------------------------------------------------------

/// The next line, split into tokens, with its leading `tag` consumed.
fn tagged<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
    tag: &str,
) -> Result<std::str::SplitAsciiWhitespace<'a>, String> {
    let line = lines.next().ok_or_else(|| format!("truncated at {tag:?} line"))?;
    let mut t = line.split_ascii_whitespace();
    if t.next() == Some(tag) {
        Ok(t)
    } else {
        Err(format!("expected {tag:?} line, got {line:?}"))
    }
}

fn word<'a>(t: &mut impl Iterator<Item = &'a str>, what: &str) -> Result<&'a str, String> {
    t.next().ok_or_else(|| format!("missing {what}"))
}

fn tok<'a, T: std::str::FromStr>(
    t: &mut impl Iterator<Item = &'a str>,
    what: &str,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    word(t, what)?.parse().map_err(|e| format!("bad {what}: {e}"))
}

/// ` <v>`: one more decimal field on the current line.
fn field(out: &mut String, v: u64) {
    out.push(' ');
    push_uint(out, v);
}

/// Escape a panic message so that it always fits one line: backslash,
/// newline and carriage return are encoded.
fn push_escaped_panic(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
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

/// At least the bytes [`write_body`] appends before the mode's part:
/// `quarantined` and a count; per unit a tag, its id and the panic
/// text, which escaping at most doubles; `virt` and a `u128`.
fn preamble_capacity(quarantined: &[(UnitId, String)]) -> usize {
    let lines: usize = quarantined.iter().map(|(_, panic)| 1 + 11 + 1 + 2 * panic.len() + 1).sum();
    (11 + 1 + 20 + 1) + lines + (5 + 39 + 1)
}

/// What a record's header and the campaign say its body may hold: the
/// units of `units`, each a round of one of `n_dests` destinations.
pub(crate) struct Span {
    pub(crate) units: Range<UnitId>,
    pub(crate) n_dests: usize,
}

// ---------------------------------------------------------------------
// The record body: what the engine folds, then what the mode measured.
// ---------------------------------------------------------------------

/// What the checkpoint driver needs from a campaign mode on top of
/// running it: a name for the record header, the fingerprint that ties
/// a journal to one campaign, and the canonical codec of what the mode
/// measured (used alike for one block's record and for the folded
/// `0..cursor` record). The codec takes folds as [`Fold::absorb`]
/// leaves them — what [`run_block`] returns and what the driver merges
/// blocks into.
pub(crate) trait Checkpointed: CampaignMode {
    /// The mode word of the record header.
    const MODE: &'static str;
    /// Everything results-affecting about this campaign over `net`.
    fn fingerprint(&self, net: &SyntheticInternet) -> u64;
    /// At least the bytes [`Checkpointed::write_fold`] appends for
    /// `fold`, and close to them, from the fold's counts alone.
    fn body_capacity(fold: &Self::Fold) -> usize;
    /// Append the canonical text of `fold` to `out`.
    fn write_fold(fold: &Self::Fold, out: &mut String);
    /// The inverse of [`Checkpointed::write_fold`], for a record that
    /// may hold `span` and whose fold is of `healthy` units — its
    /// range's, less the quarantined.
    fn read_fold<'a>(
        lines: &mut impl Iterator<Item = &'a str>,
        span: &Span,
        healthy: usize,
    ) -> Result<Self::Fold, String>;
}

/// A record's body: the quarantined units by id, each with its panic
/// text; the virtual-time total; then the mode's part.
pub(crate) fn write_body<M: Checkpointed>(fold: &Folded<M::Fold>, out: &mut String) {
    out.push_str("quarantined");
    field(out, fold.quarantined.len() as u64);
    out.push('\n');
    for (unit, panic) in &fold.quarantined {
        out.push('q');
        field(out, u64::from(*unit));
        out.push(' ');
        push_escaped_panic(out, panic);
        out.push('\n');
    }
    out.push_str("virt ");
    out.push_str(&fold.virtual_ns.to_string());
    out.push('\n');
    M::write_fold(&fold.measured, out);
}

/// The inverse of [`write_body`], checked against the record's own
/// range: a body that is not the fold of `span.units` is damage.
fn read_body<'a, M: Checkpointed>(
    lines: &mut impl Iterator<Item = &'a str>,
    span: &Span,
) -> Result<Folded<M::Fold>, String> {
    let n: usize = tok(&mut tagged(lines, "quarantined")?, "quarantine count")?;
    let mut quarantined: Vec<(UnitId, String)> = Vec::new();
    for _ in 0..n {
        let line = lines.next().ok_or("truncated at quarantine record")?;
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
    match lines.next() {
        None => Ok(Folded { measured, virtual_ns, quarantined }),
        Some(line) => Err(format!("{line:?} after the body's last line")),
    }
}

impl Checkpointed for CampaignConfig {
    const MODE: &'static str = "side-by-side";

    fn fingerprint(&self, net: &SyntheticInternet) -> u64 {
        campaign_fingerprint(net, self)
    }

    fn body_capacity(fold: &BlockOutput) -> usize {
        fold.classic.snapshot_len() + fold.paris.snapshot_len()
    }

    /// Both anomaly accumulators, which name no unit.
    fn write_fold(fold: &BlockOutput, out: &mut String) {
        fold.classic.snapshot_write(out);
        fold.paris.snapshot_write(out);
    }

    fn read_fold<'a>(
        lines: &mut impl Iterator<Item = &'a str>,
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

/// A `units` key line: round, destination index, address, width,
/// observed width, delta, class, hops, links, stars, unconverged hops,
/// probes, and `reached` + 2 × `degraded` — led by `(round,
/// destination)`, so that ascending keys are ascending units.
const UNIT_FIELDS: usize = 13;

fn unit_key(u: &UnitDiscovery) -> [u32; UNIT_FIELDS] {
    let n = |count: usize| u32::try_from(count).expect("a walk's counts fit a key field");
    let class = CLASSES.iter().position(|&c| c == u.class).expect("every class is numbered");
    [
        n(u.round),
        n(u.dest),
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
    let [round, dest, addr, width, observed_width, delta, class, counts @ ..] = key;
    let [hops, links, stars, unconverged_hops, probes, flags] = counts;
    let n = |field: u32| field as usize;
    // `u64` holds any round's first unit; `units` holds no id past `u32`.
    let unit = u64::from(round) * span.n_dests as u64 + u64::from(dest);
    let inside = UnitId::try_from(unit).is_ok_and(|unit| span.units.contains(&unit));
    if n(dest) >= span.n_dests || !inside {
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

    fn fingerprint(&self, net: &SyntheticInternet) -> u64 {
        multipath_fingerprint(net, self)
    }

    fn body_capacity(fold: &Vec<UnitDiscovery>) -> usize {
        fold.len() * UNIT_FIELDS * 9
    }

    /// The per-unit discoveries, one key line each and no count: a
    /// record holds its range's healthy units, each once — the key
    /// lines' strict ascent refuses a unit named twice — and no other.
    fn write_fold(fold: &Vec<UnitDiscovery>, out: &mut String) {
        push_key_lines(out, fold.iter().map(unit_key));
    }

    fn read_fold<'a>(
        lines: &mut impl Iterator<Item = &'a str>,
        span: &Span,
        healthy: usize,
    ) -> Result<Vec<UnitDiscovery>, String> {
        read_key_lines(lines, healthy, |key| unit_of_key(key, span))?.into_iter().collect()
    }
}

// ---------------------------------------------------------------------
// Record framing.
// ---------------------------------------------------------------------

/// A 64-bit multiply-mix over 8-byte words, chained from `seed`. Each
/// step is a bijection of the running state, so any change confined to
/// one word — a flipped bit above all — always changes the result;
/// dropped, swapped or foreign lines escape with probability 2⁻⁶⁴. An
/// integrity check against tearing and rot, not against an adversary.
fn digest64(seed: u64, bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let step = |h: u64, w: u64| (h ^ w).wrapping_mul(K).rotate_left(29);
    let mut h = seed ^ (bytes.len() as u64).wrapping_mul(K);
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = step(h, u64::from_le_bytes(w.try_into().expect("chunks_exact yields 8 bytes")));
    }
    let mut last = [0u8; 8];
    last[..words.remainder().len()].copy_from_slice(words.remainder());
    splitmix64(step(h, u64::from_le_bytes(last)))
}

/// The digest of one record: its header line, then its body.
fn record_digest(header: &[u8], body: &[u8]) -> u64 {
    digest64(digest64(0, header), body)
}

fn header_line(mode: &str, fingerprint: u64, range: &Range<u32>, body_len: usize) -> String {
    let mut line = format!("{MAGIC} {VERSION} {mode}");
    for v in [u64::from(range.start), u64::from(range.end), body_len as u64] {
        field(&mut line, v);
    }
    line.push(' ');
    push_hex64(&mut line, fingerprint);
    line.push('\n');
    line
}

fn trailer_line(digest: u64) -> String {
    let mut line = String::with_capacity(TRAILER_LEN);
    line.push_str("end ");
    push_hex64(&mut line, digest);
    line.push('\n');
    line
}

/// The unit range and body length a parsed header announces.
struct Header {
    range: Range<u32>,
    body_len: u64,
}

/// Parse one header line. `Ok(None)`: not a header (torn or rotted).
/// `Err`: a header, but of another format version, mode or campaign —
/// the resume must be refused, not repaired.
fn parse_header(line: &[u8], mode: &str, fingerprint: u64) -> io::Result<Option<Header>> {
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
            None => Ok((got_mode, got_fingerprint, Header { range, body_len })),
            Some(extra) => Err(format!("trailing {extra:?}")),
        }
    })();
    let Ok((got_mode, got_fingerprint, header)): Result<_, String> = parsed else {
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
    Ok(Some(header))
}

/// What replaying a journal recovered.
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

/// Stream the journal at `path` record by record, folding every record
/// that chains and verifies, and stopping at the first that does not.
/// Holds one record's body in memory at a time, and never allocates
/// more for it than the file has bytes left.
fn replay<M: Checkpointed>(
    path: &Path,
    fingerprint: u64,
    n_dests: usize,
) -> io::Result<Replayed<Folded<M::Fold>>> {
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut reader = BufReader::with_capacity(1 << 16, file);
    let mut out = Replayed { fold: Folded::default(), cursor: 0, good_len: 0, fold_bytes: 0 };
    let mut line = Vec::new();
    let mut body = Vec::new();
    loop {
        line.clear();
        let header_len = reader.by_ref().take(MAX_HEADER_LEN).read_until(b'\n', &mut line)? as u64;
        let first = out.good_len == 0;
        let header = match parse_header(&line, M::MODE, fingerprint)? {
            Some(header) => header,
            // The first record is installed by rename, never torn: a
            // file that does not open with a header is not a journal.
            None if first => return Err(invalid("no ptsnap record header at the start")),
            None => break,
        };
        let chains = header.range.start == out.cursor && header.range.end >= out.cursor;
        let left = file_len.saturating_sub(out.good_len + header_len);
        let record_tail = header.body_len.saturating_add(TRAILER_LEN as u64);
        if !chains || record_tail > left {
            break;
        }
        body.clear();
        // The length was just checked against the bytes the file has
        // left; sized up front, the buffer is not grown by doubling.
        body.reserve_exact(header.body_len as usize);
        reader.by_ref().take(header.body_len).read_to_end(&mut body)?;
        let mut trailer = [0u8; TRAILER_LEN];
        match reader.read_exact(&mut trailer) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(e),
        }
        if body.len() as u64 != header.body_len
            || trailer.as_slice() != trailer_line(record_digest(&line, &body)).as_bytes()
        {
            break;
        }
        let Ok(text) = std::str::from_utf8(&body) else { break };
        let span = Span { units: header.range.clone(), n_dests };
        let Ok(block) = read_body::<M>(&mut text.lines(), &span) else { break };
        if first {
            // The first record is the bulk of the journal: keep it as
            // parsed instead of merging it into an empty fold, which
            // would hold both at once.
            out.fold = block;
        } else {
            out.fold.absorb(block);
        }
        out.cursor = header.range.end;
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

/// One encoded record, ready to write.
struct Record {
    header: String,
    /// The body, then the trailer line.
    body: String,
}

impl Record {
    /// Encode `fold` as the record of `range`, in a buffer allocated
    /// once from the fold's counts.
    fn encode<M: Checkpointed>(
        fingerprint: u64,
        range: Range<u32>,
        fold: &Folded<M::Fold>,
    ) -> Record {
        let capacity =
            preamble_capacity(&fold.quarantined) + M::body_capacity(&fold.measured) + TRAILER_LEN;
        let mut body = String::with_capacity(capacity);
        write_body::<M>(fold, &mut body);
        let header = header_line(M::MODE, fingerprint, &range, body.len());
        let digest = record_digest(header.as_bytes(), body.as_bytes());
        body.push_str(&trailer_line(digest));
        debug_assert!(body.len() <= capacity, "body_capacity is not a bound: the buffer regrew");
        Record { header, body }
    }

    fn len(&self) -> u64 {
        (self.header.len() + self.body.len()) as u64
    }

    fn write_to(&self, file: &mut File) -> io::Result<()> {
        file.write_all(self.header.as_bytes())?;
        file.write_all(self.body.as_bytes())
    }

    /// Make this record the whole journal at `path`: temp file, then
    /// rename over the journal, so a kill at any point leaves either
    /// the old journal or the new one, both complete (and a stale temp
    /// file is simply overwritten). Returns an append handle on the new
    /// journal.
    fn install(&self, path: &Path) -> io::Result<File> {
        let tmp = tmp_path(path);
        self.write_to(&mut File::create(&tmp)?)?;
        fs::rename(&tmp, path)?;
        OpenOptions::new().append(true).open(path)
    }
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

/// The open journal: an append handle on [`CheckpointConfig::path`] plus
/// the two byte counts the folding rule compares. The workers'
/// simulators stay alive through a checkpoint, so what a fold rewrite
/// adds on top of them and the fold is the campaign's memory peak: it
/// is one record buffer of exactly the record's size
/// ([`Record::encode`]) and no sorted copy of anything, and the buffer
/// is dropped once written rather than kept for the next checkpoint —
/// it would sit idle through a block's probing, beside the block's own
/// fold.
struct Journal<'a, M> {
    path: &'a Path,
    fingerprint: u64,
    file: File,
    /// Size of the `0..cursor` record the file starts with.
    fold_bytes: u64,
    /// Bytes of block records appended after it.
    appended: u64,
    stats: DriveStats,
    mode: std::marker::PhantomData<fn(&M)>,
}

impl<'a, M: Checkpointed> Journal<'a, M> {
    /// Start a fresh journal at `path` — the record of no units —
    /// replacing whatever is there, a previous campaign's journal or a
    /// stale temp file alike.
    fn create(path: &'a Path, fingerprint: u64) -> io::Result<Self> {
        let record = Record::encode::<M>(fingerprint, 0..0, &Folded::default());
        Ok(Journal {
            path,
            fingerprint,
            file: record.install(path)?,
            fold_bytes: record.len(),
            appended: 0,
            stats: DriveStats { bytes_written: record.len(), units_run: 0 },
            mode: std::marker::PhantomData,
        })
    }

    /// Reopen the journal at `path` for appending after `replayed`,
    /// cutting off a damaged tail so the next record chains.
    fn reopen(
        path: &'a Path,
        fingerprint: u64,
        replayed: &Replayed<Folded<M::Fold>>,
    ) -> io::Result<Self> {
        if replayed.good_len == 0 {
            // Even the first record was damaged: nothing to keep.
            return Journal::create(path, fingerprint);
        }
        // A kill between a fold's write and its rename leaves this.
        match fs::remove_file(tmp_path(path)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        let file = OpenOptions::new().append(true).open(path)?;
        file.set_len(replayed.good_len)?;
        Ok(Journal {
            path,
            fingerprint,
            file,
            fold_bytes: replayed.fold_bytes,
            appended: replayed.good_len - replayed.fold_bytes,
            stats: DriveStats::default(),
            mode: std::marker::PhantomData,
        })
    }

    /// Checkpoint: append the record of the block just run.
    fn append(&mut self, block: Range<u32>, output: &Folded<M::Fold>) -> io::Result<()> {
        let record = Record::encode::<M>(self.fingerprint, block, output);
        record.write_to(&mut self.file)?;
        self.appended += record.len();
        self.stats.bytes_written += record.len();
        Ok(())
    }

    /// The folding rule: once as many bytes have been appended as the
    /// last fold took, rewrite the journal as the single record
    /// `0..cursor`. Amortised doubling — no knob.
    fn fold_if_due(&mut self, cursor: u32, fold: &Folded<M::Fold>) -> io::Result<()> {
        if self.appended < self.fold_bytes {
            return Ok(());
        }
        let record = Record::encode::<M>(self.fingerprint, 0..cursor, fold);
        // The old handle points at the file the rename replaces.
        self.file = record.install(self.path)?;
        self.fold_bytes = record.len();
        self.appended = 0;
        self.stats.bytes_written += record.len();
        Ok(())
    }
}

/// The one checkpoint driver: run the campaign block by block from the
/// journal's cursor, journaling each block.
fn drive<M: Checkpointed>(
    net: &SyntheticInternet,
    mode: &M,
    ckpt: &CheckpointConfig,
    resume: bool,
) -> io::Result<(Option<M::Result>, DriveStats)> {
    let n_units = n_units(net, &mode.common());
    let fingerprint = mode.fingerprint(net);
    let (mut journal, mut fold, mut cursor) = if resume {
        let replayed = replay::<M>(&ckpt.path, fingerprint, net.dests.len())?;
        if replayed.cursor > n_units {
            return Err(invalid(format!(
                "cursor {} exceeds the campaign's {n_units} units",
                replayed.cursor
            )));
        }
        let journal = Journal::<M>::reopen(&ckpt.path, fingerprint, &replayed)?;
        (journal, replayed.fold, replayed.cursor)
    } else {
        (Journal::<M>::create(&ckpt.path, fingerprint)?, Folded::default(), 0)
    };
    let every = ckpt.every_units.max(1);
    let mut checkpoints = 0usize;
    // Warm from the first block on: a later block builds no simulator.
    let mut workers = worker_states(net, mode);
    while cursor < n_units {
        let end = n_units.min(cursor.saturating_add(every));
        let block = run_block(net, mode, cursor..end, &mut workers);
        journal.stats.units_run += end - cursor;
        journal.append(cursor..end, &block)?;
        fold.absorb(block);
        cursor = end;
        journal.fold_if_due(cursor, &fold)?;
        checkpoints += 1;
        if cursor < n_units && ckpt.stop_after_checkpoints.is_some_and(|limit| checkpoints >= limit)
        {
            return Ok((None, journal.stats));
        }
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
        let replayed = replay::<CampaignConfig>(&path, fingerprint, 40).unwrap();
        assert_eq!(replayed.cursor, 80);
        assert_eq!(replayed.good_len, file_len(&path));
        // Canonical: the replayed fold — merged from a fold record and
        // block records, each parsed back from text — encodes to the
        // bytes an uninterrupted single block's fold encodes to.
        let mut journaled = String::new();
        write_body::<CampaignConfig>(&replayed.fold, &mut journaled);
        let mut direct = String::new();
        let serial = CampaignConfig { workers: 1, ..config };
        let whole = run_block(&net, &serial, 0..80, &mut worker_states(&net, &serial));
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
                let replayed = replay::<CampaignConfig>(&path, fingerprint, 40).unwrap();
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
    fn every_results_affecting_trace_field_is_fingerprinted() {
        type Flip = (&'static str, fn(&mut CampaignConfig));
        let flips: [Flip; 18] = [
            ("rounds", |c| c.rounds += 1),
            ("seed", |c| c.seed += 1),
            ("trace.min_ttl", |c| c.trace.min_ttl += 1),
            ("trace.max_ttl", |c| c.trace.max_ttl -= 1),
            ("trace.probes_per_hop", |c| c.trace.probes_per_hop += 1),
            ("trace.timeout", |c| c.trace.timeout = SimDuration::from_millis(500)),
            ("trace.max_consecutive_stars", |c| c.trace.max_consecutive_stars -= 1),
            ("trace.window", |c| c.trace.window += 1),
            ("trace.probe_budget", |c| c.trace.probe_budget += 1),
            ("trace.time_budget", |c| c.trace.time_budget = SimDuration::from_secs(9)),
            ("dynamics.forwarding_loop_prob", |c| c.dynamics.forwarding_loop_prob *= 2.0),
            ("dynamics.forwarding_loop_delay", |c| {
                c.dynamics.forwarding_loop_delay = SimDuration::from_millis(1)
            }),
            ("dynamics.forwarding_loop_window", |c| {
                c.dynamics.forwarding_loop_window = SimDuration::from_millis(1)
            }),
            ("dynamics.balancer_flap_prob", |c| c.dynamics.balancer_flap_prob *= 2.0),
            ("dynamics.balancer_flap_after", |c| {
                c.dynamics.balancer_flap_after = SimDuration::from_millis(1)
            }),
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
        let always: [Flip; 13] = [
            ("rounds", |c| c.rounds += 1),
            ("seed", |c| c.seed += 1),
            ("adaptive", |c| c.adaptive = !c.adaptive),
            ("inject.panic_units", |c| c.inject.panic_units.extend([3])),
            ("mda.alpha", |c| c.mda.alpha = 0.05),
            ("mda.max_flows_per_hop", |c| c.mda.max_flows_per_hop += 1),
            ("mda.max_ttl", |c| c.mda.max_ttl -= 1),
            ("mda.timeout", |c| c.mda.timeout = SimDuration::from_millis(500)),
            ("mda.window", |c| c.mda.window += 1),
            ("mda.classify_repeats", |c| c.mda.classify_repeats += 1),
            ("mda.protocol", |c| c.mda.protocol = MdaProtocol::Tcp),
            ("mda.probe_budget", |c| c.mda.probe_budget += 1),
            ("mda.time_budget", |c| c.mda.time_budget = SimDuration::from_secs(9)),
        ];
        // The probing policies: read from `mda` by a fixed-rate walk,
        // overridden by the preset under `adaptive`.
        let policies: [Flip; 3] = [
            ("mda.max_consecutive_stars", |c| c.mda.max_consecutive_stars += 1),
            ("mda.flow_retries", |c| c.mda.flow_retries += 1),
            ("mda.adaptive", |c| c.mda.adaptive = Some(1)),
        ];
        // Drawn per unit; what the config holds is never read.
        let never: [Flip; 3] = [
            ("workers", |c| c.workers += 1),
            ("mda.base_src_port", |c| c.mda.base_src_port += 1),
            ("mda.dst_port", |c| c.mda.dst_port += 1),
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
            for (field, flip) in policies {
                let expect = if adaptive { Ok(()) } else { Err(io::ErrorKind::InvalidData) };
                assert_eq!(resumed_kind(flip), expect, "{field}, adaptive = {adaptive}");
            }
            for (field, flip) in never {
                assert_eq!(resumed_kind(flip), Ok(()), "{field}");
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
            let replayed = replay::<CampaignConfig>(&path, fingerprint, 40).unwrap();
            let block = run_block(
                net,
                &config,
                replayed.cursor - 16..replayed.cursor,
                &mut worker_states(net, &config),
            );
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
            ("", "start"),
            ("not a journal at all\n", "start"),
            ("ptsnap v5 side-by-side 0 0", "start"),
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
        let base = digest64(0, &body);
        for at in [0, 7, 8, 500, 991, 992, 999] {
            for bit in 0..8 {
                let mut flipped = body.clone();
                flipped[at] ^= 1 << bit;
                assert_ne!(digest64(0, &flipped), base, "byte {at}, bit {bit}");
            }
        }
        assert_ne!(digest64(0, &body[..999]), base);
        assert_ne!(digest64(1, &body), base);
    }

    /// `body` framed as the record of `range`, as [`Record::encode`]
    /// frames what it wrote — for bodies no fold encodes to.
    fn record_of<M: Checkpointed>(fingerprint: u64, range: Range<u32>, body: &str) -> Record {
        let header = header_line(M::MODE, fingerprint, &range, body.len());
        let digest = record_digest(header.as_bytes(), body.as_bytes());
        Record { header, body: format!("{body}{}", trailer_line(digest)) }
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
        let block =
            |units: Range<u32>| run_block(&net, &config, units, &mut worker_states(&net, &config));
        let quarantined = |unit: u32| (unit, "crafted".to_owned());
        // A craft, and why reading the record of units 23..46 — which are
        // destinations 23..40 of round 0 and 0..6 of round 1 — refuses it.
        type Craft<'a> = (&'a dyn Fn(&mut Folded<Vec<UnitDiscovery>>), &'a str);
        let crafts: [Craft; 8] = [
            (&|f| f.measured[16].dest = 1_000_000, "unit (dest 1000000, round 0) outside"),
            (&|f| f.measured[1] = f.measured[0], "out of order"),
            (&|f| f.measured[22].dest = 6, "unit (dest 6, round 1) outside"),
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
        let span = Span { units: 23..46, n_dests: 40 };
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
    fn a_virtual_time_total_is_one_checked_line() {
        let net = generate(&InternetConfig::tiny(42));
        let config = CampaignConfig { rounds: 7, workers: 1, seed: 99, ..Default::default() };
        let fingerprint = config.fingerprint(&net);
        let plain = report_digest(&run(&net, &config));
        let virt_lines = |body: &str| body.lines().filter(|l| l.starts_with("virt")).count();
        // One line, whatever the unit count.
        let mut sizes = Vec::new();
        for units in [0..0, 0..1, 0..256] {
            let fold = run_block(&net, &config, units.clone(), &mut worker_states(&net, &config));
            assert!(fold.quarantined.is_empty());
            let record = Record::encode::<CampaignConfig>(fingerprint, units.clone(), &fold);
            assert_eq!(virt_lines(&record.body), 1, "{units:?}");
            sizes.push(record.len());
        }
        // The record of this clean 256-unit block was 43 698 bytes when a
        // `virt` section held 27 bytes a unit; it is 36 795 with the
        // total: 256 × 27 fewer, less the nine digits by which this
        // block's total (12 digits of nanoseconds) is longer than the
        // section's count was ("256").
        assert_eq!(sizes[2], 36_795);
        assert_eq!(sizes[2] + 256 * 27 - 9, 43_698);

        // A total that is not a decimal `u128`, or that is more than the
        // record's units can have run for, makes the record damage.
        let span = Span { units: 0..16, n_dests: 40 };
        let fold = run_block(&net, &config, 0..16, &mut worker_states(&net, &config));
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
