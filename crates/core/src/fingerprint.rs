//! Shared run identity: content fingerprints, run IDs, result digests,
//! and the one flat-JSON codec every journal, run record, wire frame and
//! trace line goes through.
//!
//! Three subsystems need to answer "is this the same run?" with bits:
//!
//! * [`crate::durable`] pins its journal to a [`run_fingerprint`] so a
//!   resume against edited inputs is rejected instead of mixing results;
//! * [`crate::session`] pins each server session journal to a
//!   [`session`-style fingerprint](crate::session::Session) built from
//!   the same hasher, and verifies replayed edits against recorded
//!   [`result_digest`]s;
//! * the [`crate::server`] wire protocol reports those digests to
//!   clients so *they* can assert bit-identical recovery.
//!
//! Every JSON line — journals, run records, daemon frames, `--trace`
//! files — is one flat object that [`JsonLine`] writes and
//! [`parse_json_object`] plus [`ReadFields`] read: the line format is the
//! analyzer's scripting interface, so it is decided here once.
//!
//! Everything here is dependency-free, like the rest of the workspace.

use crate::analyzer::{AnalyzerOptions, Arrival, Edge, TimingResult};
use crate::models::ModelKind;
use crate::tech::Technology;
use mosnet::{sim_format, Network};
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::str::FromStr;

/// FNV-1a 64-bit offset basis, shared with the memo cache's hashers.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime, shared with the memo cache's hashers.
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A 64-bit FNV-1a content hash stream.
///
/// The zero-dependency hasher behind [`run_fingerprint`],
/// [`result_digest`], the memo cache's stage fingerprints, and the
/// session journal fingerprints. Deterministic across processes and
/// platforms (no randomized state), which is what lets a journal written
/// before a crash be verified by the process that resumes it.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A fresh stream at the FNV offset basis.
    pub fn new() -> Fnv64 {
        Fnv64(FNV_OFFSET)
    }

    /// Feeds one byte.
    pub fn write_u8(&mut self, byte: u8) {
        self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }

    /// Feeds a byte slice.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// Feeds a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds the exact bit pattern of an `f64` (no rounding, `-0.0` and
    /// `0.0` hash differently — bit-identity is the point).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

/// SplitMix64: the small deterministic PRNG the robustness tooling
/// shares — client retry jitter and the chaos proxy's fault schedule.
/// Seeded runs reproduce the exact same fault sequence, which is what
/// makes a chaos soak debuggable; this is **not** a cryptographic
/// generator and must never gate anything security-relevant.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose whole stream is determined by `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)` (53 mantissa bits).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform draw from `[0, bound)`; `0` when `bound` is `0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

/// Formats a fingerprint or digest the way every journal and wire
/// message spells it: 16 lowercase hex digits, zero-padded.
pub fn hex64(v: u64) -> String {
    format!("{v:016x}")
}

/// Parses what [`hex64`] wrote (any hex string up to 16 digits).
pub fn parse_hex64(s: &str) -> Option<u64> {
    u64::from_str_radix(s, 16).ok()
}

/// A stable run identifier: `"{prefix}-{fingerprint:016x}"`.
///
/// Durable journals and server sessions both derive their identity from
/// a content fingerprint; this helper gives that identity one printable
/// spelling (`"run-3f9a…"`, `"session-90b1…"`) shared by journal
/// headers, log lines, and protocol responses.
pub fn run_id(prefix: &str, fingerprint: u64) -> String {
    format!("{prefix}-{}", hex64(fingerprint))
}

/// Content fingerprint of one durable run: netlist, technology, model,
/// and the result-affecting analyzer options. Thread count, cache, trace
/// sink, and cancel token are **excluded** — they never change arrivals,
/// so a resume may use a different `--threads` and still match.
pub fn run_fingerprint(
    net: &Network,
    tech: &Technology,
    model: ModelKind,
    options: &AnalyzerOptions,
) -> u64 {
    let mut h = Fnv64::new();
    h.write(sim_format::write(net).as_bytes());
    h.write_u64(crate::memo::tech_stamp(tech));
    write_options(&mut h, model, options);
    h.finish()
}

/// Hashes the model and the result-affecting analyzer options, in the
/// order both [`run_fingerprint`] and the `options` component of
/// [`run_fingerprint_parts`] consume them.
fn write_options(h: &mut Fnv64, model: ModelKind, options: &AnalyzerOptions) {
    h.write(format!("{model:?}").as_bytes());
    h.write_u64(options.non_switching_cap_weight.to_bits());
    h.write(format!("{:?}", options.mode).as_bytes());
    // Model fallback, always on: the byte keeps older journals, sessions
    // and run records matching.
    h.write(&[1]);
    let cap = |v: Option<usize>| v.map_or(u64::MAX, |n| n as u64);
    h.write_u64(cap(options.budget.max_stage_evals));
    h.write_u64(cap(options.budget.max_paths_per_node));
    h.write_u64(
        options
            .budget
            .deadline
            .map_or(u64::MAX, |d| d.as_nanos() as u64),
    );
}

/// A run fingerprint with optional per-input components.
///
/// The `combined` value is what pins a journal to a run (identical to
/// [`run_fingerprint`]). The components, when present, let a resume
/// mismatch *name its source*: a journal written with component
/// fingerprints that is later opened against edited inputs reports
/// whether the netlist, the technology, or the model/options changed
/// instead of a generic mismatch. A bare `u64` converts into an opaque
/// fingerprint with no components.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunFingerprint {
    /// Combined fingerprint over every result-affecting input.
    pub combined: u64,
    /// Hash of the netlist content alone (its `.sim` text), if known.
    pub netlist: Option<u64>,
    /// Stamp of the technology description alone, if known.
    pub tech: Option<u64>,
    /// Hash of the delay model plus result-affecting analyzer options
    /// alone, if known.
    pub options: Option<u64>,
}

impl RunFingerprint {
    /// A combined-only fingerprint whose mismatches cannot be attributed.
    pub fn opaque(combined: u64) -> RunFingerprint {
        RunFingerprint {
            combined,
            netlist: None,
            tech: None,
            options: None,
        }
    }
}

impl From<u64> for RunFingerprint {
    fn from(combined: u64) -> RunFingerprint {
        RunFingerprint::opaque(combined)
    }
}

/// [`run_fingerprint`] plus per-input component fingerprints, so a later
/// resume against edited inputs can name which input changed.
pub fn run_fingerprint_parts(
    net: &Network,
    tech: &Technology,
    model: ModelKind,
    options: &AnalyzerOptions,
) -> RunFingerprint {
    let mut net_hash = Fnv64::new();
    net_hash.write(sim_format::write(net).as_bytes());
    let mut opt_hash = Fnv64::new();
    write_options(&mut opt_hash, model, options);
    RunFingerprint {
        combined: run_fingerprint(net, tech, model, options),
        netlist: Some(net_hash.finish()),
        tech: Some(crate::memo::tech_stamp(tech)),
        options: Some(opt_hash.finish()),
    }
}

/// FNV-1a digest over a result's arrivals — exact bit patterns of every
/// `(node, time, transition, edge, model)` row in node-name order. Two
/// results digest equal iff the analyses are bit-identical, which is the
/// property resume and the resume-equivalence self-check verify. Run
/// records hash their arrival rows the same way
/// ([`crate::runstore::arrival_digest`]), so run records, journals, and
/// server reports speak one digest.
pub fn result_digest(net: &Network, result: &TimingResult) -> u64 {
    let mut h = Fnv64::new();
    for (node, a) in sorted_arrivals(net, result) {
        hash_arrival_row(
            &mut h,
            node,
            a.time.value().to_bits(),
            a.transition.value().to_bits(),
            a.edge == Edge::Rising,
            a.model.label(),
        );
    }
    h.finish()
}

/// A result's arrivals with their node names, in node-name order: the
/// row order of [`result_digest`] and of run-record arrival rows.
pub(crate) fn sorted_arrivals<'a>(
    net: &'a Network,
    result: &'a TimingResult,
) -> Vec<(&'a str, &'a Arrival)> {
    let mut arrivals: Vec<(&str, &Arrival)> = result
        .arrivals()
        .map(|(id, a)| (net.node(id).name(), a))
        .collect();
    arrivals.sort_unstable_by_key(|&(node, _)| node);
    arrivals
}

/// Feeds one arrival row into a digest: the one row layout behind
/// [`result_digest`] and [`crate::runstore::arrival_digest`].
pub(crate) fn hash_arrival_row(
    h: &mut Fnv64,
    node: &str,
    time_bits: u64,
    transition_bits: u64,
    rising: bool,
    model: &str,
) {
    h.write(node.as_bytes());
    h.write(&[0]);
    h.write_u64(time_bits);
    h.write_u64(transition_bits);
    h.write(&[u8::from(rising)]);
    h.write(model.as_bytes());
    h.write(&[0]);
}

// ---------------------------------------------------------------------------
// Flat JSON lines (the workspace is dependency-free)
// ---------------------------------------------------------------------------

/// Appends `s` to `out` with JSON string escaping.
fn escape_json_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// JSON string escaping, returning a fresh `String`.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_json_into(s, &mut out);
    out
}

/// The writer of one flat JSON object — every journal line, run-record
/// line, wire frame and trace line.
///
/// Fields appear in call order and every key and string value is
/// escaped, so no input can break the line. [`JsonLine::finish`]
/// closes the object; it adds no newline.
///
/// ```
/// use crystal::fingerprint::JsonLine;
/// let line = JsonLine::new().str("kind", "edit").num("seq", 3).hex("digest", 0xab).finish();
/// assert_eq!(line, r#"{"kind":"edit","seq":3,"digest":"00000000000000ab"}"#);
/// ```
#[derive(Debug, Clone)]
pub struct JsonLine {
    out: String,
}

impl JsonLine {
    /// An empty object.
    pub fn new() -> JsonLine {
        JsonLine {
            out: String::from("{"),
        }
    }

    /// Writes the escaped `key`, then `value` verbatim.
    fn field(mut self, key: &str, value: impl fmt::Display) -> JsonLine {
        if self.out.len() > 1 {
            self.out.push(',');
        }
        self.out.push('"');
        escape_json_into(key, &mut self.out);
        let _ = write!(self.out, "\":{value}");
        self
    }

    /// A string field.
    pub fn str(self, key: &str, value: &str) -> JsonLine {
        let mut line = self.field(key, '"');
        escape_json_into(value, &mut line.out);
        line.out.push('"');
        line
    }

    /// An integer field.
    pub fn num(self, key: &str, value: u64) -> JsonLine {
        self.field(key, value)
    }

    /// A `true`/`false` field.
    pub fn bool(self, key: &str, value: bool) -> JsonLine {
        self.field(key, value)
    }

    /// A fingerprint, digest or `f64` bit pattern as a [`hex64`] string.
    pub fn hex(self, key: &str, value: u64) -> JsonLine {
        self.field(key, format_args!("\"{value:016x}\""))
    }

    /// A number the caller has already formatted (say `{:.6}`), written
    /// unquoted and verbatim.
    pub fn formatted(self, key: &str, number: &str) -> JsonLine {
        self.field(key, number)
    }

    /// One nested flat object of string fields, in iteration order.
    pub fn object<'a>(
        self,
        key: &str,
        fields: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> JsonLine {
        let inner = fields
            .into_iter()
            .fold(JsonLine::new(), |inner, (k, v)| inner.str(k, v));
        self.field(key, inner.finish())
    }

    /// The finished object, without a trailing newline.
    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

impl Default for JsonLine {
    fn default() -> JsonLine {
        JsonLine::new()
    }
}

/// Typed reads over one decoded line — the map [`parse_json_object`]
/// returns ([`crate::applog::Fields`]).
///
/// A required read is `None` when the key is absent or its value does
/// not decode. An optional read (`opt_*`) is `Some(None)` when the key
/// is absent and `None` only when it is present but malformed. Each
/// caller maps `None` onto its own error.
pub trait ReadFields {
    /// The raw string value.
    fn str(&self, key: &str) -> Option<&str>;

    /// The string value, owned.
    fn string(&self, key: &str) -> Option<String> {
        self.str(key).map(str::to_string)
    }

    /// The value parsed as `T` (integers, floats).
    fn num<T: FromStr>(&self, key: &str) -> Option<T> {
        self.str(key)?.parse().ok()
    }

    /// The value read as a [`hex64`] string.
    fn hex(&self, key: &str) -> Option<u64> {
        parse_hex64(self.str(key)?)
    }

    /// [`ReadFields::num`] for a key that may be absent.
    fn opt_num<T: FromStr>(&self, key: &str) -> Option<Option<T>> {
        self.str(key)
            .map_or(Some(None), |v| v.parse().ok().map(Some))
    }

    /// [`ReadFields::hex`] for a key that may be absent.
    fn opt_hex(&self, key: &str) -> Option<Option<u64>> {
        self.str(key)
            .map_or(Some(None), |v| parse_hex64(v).map(Some))
    }
}

impl ReadFields for HashMap<String, String> {
    fn str(&self, key: &str) -> Option<&str> {
        self.get(key).map(String::as_str)
    }
}

/// Parses one flat JSON object of string/number/bool values into a
/// string-valued map. Returns `None` on any malformation — the caller
/// decides whether that is a torn tail, corruption, or a bad request.
///
/// This is the reading half of the codec [`JsonLine`] writes: one flat
/// object per line, no nesting, no arrays. `\\uXXXX` escapes decode,
/// including a surrogate pair as one char; a lone surrogate is
/// malformed.
pub fn parse_json_object(line: &str) -> Option<HashMap<String, String>> {
    let mut map = HashMap::new();
    let bytes = line.as_bytes();
    let mut i = 0usize;
    let skip_ws = |i: &mut usize| {
        while *i < bytes.len() && bytes[*i].is_ascii_whitespace() {
            *i += 1;
        }
    };
    let hex4 = |at: usize| u32::from_str_radix(line.get(at..at + 4)?, 16).ok();
    let parse_string = |i: &mut usize| -> Option<String> {
        if bytes.get(*i) != Some(&b'"') {
            return None;
        }
        *i += 1;
        let mut out = String::new();
        loop {
            match bytes.get(*i)? {
                b'"' => {
                    *i += 1;
                    return Some(out);
                }
                b'\\' => {
                    *i += 1;
                    match bytes.get(*i)? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let mut code = hex4(*i + 1)?;
                            *i += 4;
                            // A high surrogate and the escaped low one
                            // after it are one char outside the BMP.
                            if (0xd800..0xdc00).contains(&code) {
                                let low = hex4(*i + 3).filter(|low| {
                                    line.get(*i + 1..*i + 3) == Some("\\u")
                                        && (0xdc00..0xe000).contains(low)
                                })?;
                                code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                *i += 6;
                            }
                            out.push(char::from_u32(code)?);
                        }
                        _ => return None,
                    }
                    *i += 1;
                }
                &b => {
                    // Multi-byte UTF-8: copy the whole scalar.
                    if b < 0x80 {
                        out.push(b as char);
                        *i += 1;
                    } else {
                        let s = &line[*i..];
                        let c = s.chars().next()?;
                        out.push(c);
                        *i += c.len_utf8();
                    }
                }
            }
        }
    };
    skip_ws(&mut i);
    if bytes.get(i) != Some(&b'{') {
        return None;
    }
    i += 1;
    skip_ws(&mut i);
    if bytes.get(i) == Some(&b'}') {
        i += 1;
        skip_ws(&mut i);
        return (i == bytes.len()).then_some(map);
    }
    loop {
        skip_ws(&mut i);
        let key = parse_string(&mut i)?;
        skip_ws(&mut i);
        if bytes.get(i) != Some(&b':') {
            return None;
        }
        i += 1;
        skip_ws(&mut i);
        let value = match bytes.get(i)? {
            b'"' => parse_string(&mut i)?,
            b't' if line[i..].starts_with("true") => {
                i += 4;
                "true".to_string()
            }
            b'f' if line[i..].starts_with("false") => {
                i += 5;
                "false".to_string()
            }
            b'0'..=b'9' | b'-' => {
                let start = i;
                i += 1;
                while i < bytes.len()
                    && (bytes[i].is_ascii_digit()
                        || matches!(bytes[i], b'.' | b'e' | b'E' | b'+' | b'-'))
                {
                    i += 1;
                }
                line[start..i].to_string()
            }
            _ => return None,
        };
        map.insert(key, value);
        skip_ws(&mut i);
        match bytes.get(i) {
            Some(b',') => i += 1,
            Some(b'}') => {
                i += 1;
                skip_ws(&mut i);
                return (i == bytes.len()).then_some(map);
            }
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Classic FNV-1a test vectors.
        let hash = |s: &str| {
            let mut h = Fnv64::new();
            h.write(s.as_bytes());
            h.finish()
        };
        assert_eq!(hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn hex64_round_trips() {
        for v in [0u64, 1, 0xdead_beef, u64::MAX] {
            assert_eq!(parse_hex64(&hex64(v)), Some(v));
        }
        assert_eq!(parse_hex64("not hex"), None);
    }

    #[test]
    fn run_id_is_prefix_plus_hex() {
        assert_eq!(run_id("session", 0xab), "session-00000000000000ab");
    }

    /// Golden fingerprints: journals, sessions and run records written
    /// by earlier builds only match while these values hold.
    #[test]
    fn run_fingerprints_are_pinned() {
        let net = sim_format::parse(
            include_str!("../../../examples/netlists/adder.sim"),
            "adder.sim",
        )
        .expect("adder parses");
        let tech =
            crate::tech_format::parse(include_str!("../../../examples/netlists/calibrated.tech"))
                .expect("tech parses");
        let options = AnalyzerOptions::default();
        let parts = run_fingerprint_parts(&net, &tech, ModelKind::Slope, &options);
        assert_eq!(hex64(parts.combined), "e9a58b4770730166");
        assert_eq!(
            parts.netlist.map(hex64).as_deref(),
            Some("b2c987ce5e1d4940")
        );
        assert_eq!(parts.tech.map(hex64).as_deref(), Some("c1dbe226bebede3f"));
        assert_eq!(
            parts.options.map(hex64).as_deref(),
            Some("3686f058e93a0e9a")
        );
        assert_eq!(
            parts.combined,
            run_fingerprint(&net, &tech, ModelKind::Slope, &options)
        );
        for (model, opts) in [
            (ModelKind::Lumped, "324041d5eb7653d0"),
            (ModelKind::RcTree, "9dafcd07e19e5490"),
        ] {
            let parts = run_fingerprint_parts(&net, &tech, model, &options);
            assert_eq!(parts.options.map(hex64).as_deref(), Some(opts), "{model:?}");
        }
    }

    #[test]
    fn escape_and_parse_round_trip() {
        let nasty = "line1\nline2\t\"quoted\" \\slash\\ μ";
        let mut line = String::from("{\"k\":\"");
        escape_json_into(nasty, &mut line);
        line.push_str("\"}");
        let map = parse_json_object(&line).expect("parses");
        assert_eq!(map.get("k").map(String::as_str), Some(nasty));

        // A surrogate pair is one astral char, as standard encoders
        // write it; a lone or reversed surrogate is malformed.
        let map = parse_json_object(r#"{"k":"a\uD83D\uDE00b"}"#).expect("pair parses");
        assert_eq!(map.get("k").map(String::as_str), Some("a\u{1F600}b"));
        for bad in [
            r#"\uD83D"#,
            r#"\uD83Dx"#,
            r#"\uDE00"#,
            r#"\uDE00\uD83D"#,
            r#"\uD83D\u0041"#,
        ] {
            assert!(
                parse_json_object(&format!(r#"{{"k":"{bad}"}}"#)).is_none(),
                "{bad}"
            );
        }
    }

    #[test]
    fn seeded_codec_fuzz_round_trips_and_never_panics() {
        // Hostile alphabet: the escapes, controls (DEL included), the
        // structural bytes, multi-byte and astral chars.
        const ALPHABET: &[char] = &[
            '"',
            '\\',
            '/',
            '\n',
            '\r',
            '\t',
            '\u{0}',
            '\u{1}',
            '\u{1f}',
            '\u{7f}',
            'a',
            'Z',
            '0',
            ' ',
            ':',
            ',',
            '{',
            '}',
            'μ',
            '€',
            '\u{ffff}',
            '\u{1F600}',
            '\u{10FFFF}',
        ];
        let draw = |rng: &mut SplitMix64| -> String {
            (0..rng.next_below(8))
                .map(|_| ALPHABET[rng.next_below(ALPHABET.len() as u64) as usize])
                .collect()
        };
        for seed in [1, 7, 42, 0xdead_beef] {
            let mut rng = SplitMix64::new(seed);
            for _ in 0..500 {
                let mut line = JsonLine::new();
                let mut expected = HashMap::new();
                for _ in 0..rng.next_below(6) {
                    let key = draw(&mut rng);
                    let (v, b) = (rng.next_u64(), rng.next_below(2) == 1);
                    let value = match rng.next_below(4) {
                        0 => {
                            line = line.num(&key, v);
                            v.to_string()
                        }
                        1 => {
                            line = line.hex(&key, v);
                            hex64(v)
                        }
                        2 => {
                            line = line.bool(&key, b);
                            b.to_string()
                        }
                        _ => {
                            let text = draw(&mut rng);
                            line = line.str(&key, &text);
                            text
                        }
                    };
                    expected.insert(key, value);
                }
                let text = line.finish();
                assert_eq!(parse_json_object(&text), Some(expected), "{text:?}");

                // Damaged lines decode or are refused; they never panic.
                for _ in 0..8 {
                    let mut bytes = text.clone().into_bytes();
                    let at = rng.next_below(bytes.len() as u64) as usize;
                    match rng.next_below(3) {
                        0 => bytes[at] ^= 1 << rng.next_below(8),
                        1 => bytes.truncate(at),
                        _ => bytes.insert(at, b"\"\\{},"[rng.next_below(5) as usize]),
                    }
                    let _ = parse_json_object(&String::from_utf8_lossy(&bytes));
                }
            }
        }
    }

    #[test]
    fn parse_rejects_trailing_garbage_and_nesting() {
        assert!(parse_json_object("{\"a\":\"b\"} extra").is_none());
        assert!(parse_json_object("{\"a\":{\"nested\":1}}").is_none());
        assert!(parse_json_object("{\"a\":\"unterminated").is_none());
        assert!(parse_json_object("{}").is_some());
    }

    #[test]
    fn splitmix_is_deterministic_and_in_range() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64(), "same seed, same stream");
        }
        let mut rng = SplitMix64::new(7);
        for _ in 0..1000 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
            assert!(rng.next_below(10) < 10);
        }
        assert_eq!(SplitMix64::new(9).next_below(0), 0);
        // Different seeds diverge immediately.
        assert_ne!(SplitMix64::new(1).next_u64(), SplitMix64::new(2).next_u64());
    }
}
