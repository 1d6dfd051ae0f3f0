//! Parser and writer for a `.sim`-style switch-level netlist dialect.
//!
//! The dialect follows the spirit of the Berkeley `esim`/`crystal` `.sim`
//! format: one record per line, fields separated by whitespace.
//!
//! ```text
//! | comment (also: # comment)
//! n <gate> <source> <drain> <length_um> <width_um>   n-enhancement
//! e <gate> <source> <drain> <length_um> <width_um>   alias for n
//! p <gate> <source> <drain> <length_um> <width_um>   p-enhancement
//! d <gate> <source> <drain> <length_um> <width_um>   depletion
//! C <node> <cap_fF>                                  capacitance to ground
//! c <node1> <node2> <cap_fF>                         coupling capacitance
//! i <node>                                           declare primary input
//! o <node>                                           declare primary output
//! v <node>                                           declare the power rail
//! g <node>                                           declare the ground rail
//! subckt <name> <port>...                            begin a subcircuit
//! ends                                               end the subcircuit
//! x <instance> <subckt> <actual>...                  instantiate (flattened)
//! ```
//!
//! Subcircuits are flattened at parse time: internal nodes of instance
//! `u1` of a subcircuit become `u1.<local>`; ports bind to the actual
//! nets; rail names always refer to the global rails. Definitions must
//! precede their instantiations, and `i`/`o`/`v`/`g` records are not
//! allowed inside a body (the port list is the interface).
//!
//! Coupling capacitances (`c`) are lumped: if one terminal is a rail the
//! full value is added to the other node, otherwise the value is added to
//! both nodes (the conservative switch-level treatment).
//!
//! Node names `vdd`/`vcc` and `gnd`/`vss`/`0` (any case) denote the rails.

use crate::error::NetworkError;
use crate::network::{Network, NetworkBuilder};
use crate::node::NodeKind;
use crate::transistor::{Geometry, TransistorKind};
use crate::units::{Farads, Metres};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Parses a `.sim` netlist into a [`Network`].
///
/// # Errors
/// Returns [`NetworkError::Parse`] with a 1-based line number and the
/// 1-based column of the offending token for any malformed record —
/// including non-finite, negative, or zero transistor dimensions and
/// non-finite or negative capacitances — and
/// [`NetworkError::MissingRail`] if the netlist never mentions a power or
/// ground node.
///
/// ```
/// let src = "| tiny inverter\n\
///            i a\no y\n\
///            n a y gnd 2 8\n\
///            p a y vdd 2 16\n\
///            C y 50\n";
/// let net = mosnet::sim_format::parse(src, "inv")?;
/// assert_eq!(net.transistor_count(), 2);
/// # Ok::<(), mosnet::error::NetworkError>(())
/// ```
pub fn parse(source: &str, name: &str) -> Result<Network, NetworkError> {
    let mut b = NetworkBuilder::new(name);
    let mut defs: HashMap<String, SubcktDef> = HashMap::new();
    let mut current: Option<(String, SubcktDef)> = None;

    for (lineno, raw) in source.lines().enumerate() {
        let line = lineno + 1;
        let text = raw.trim();
        if text.is_empty() || text.starts_with('|') || text.starts_with('#') {
            continue;
        }
        let cols = token_columns(raw);
        let mut fields = text.split_whitespace();
        let Some(record) = fields.next() else {
            continue;
        };
        let rest: Vec<&str> = fields.collect();
        let at = Cursor { line, cols: &cols };
        match (record, current.as_mut()) {
            ("subckt", _) => {
                if current.is_some() {
                    return Err(at.err(0, "nested `subckt` definitions".into()));
                }
                if rest.is_empty() {
                    return Err(at.err(0, "`subckt` needs a name".into()));
                }
                let sub_name = rest[0].to_string();
                if defs.contains_key(&sub_name) {
                    return Err(at.err(1, format!("subcircuit `{sub_name}` defined twice")));
                }
                let ports = rest[1..].iter().map(|s| s.to_string()).collect();
                current = Some((
                    sub_name,
                    SubcktDef {
                        ports,
                        body: Vec::new(),
                    },
                ));
            }
            ("ends", _) => match current.take() {
                Some((sub_name, def)) => {
                    defs.insert(sub_name, def);
                }
                None => return Err(at.err(0, "`ends` without `subckt`".into())),
            },
            (_, Some((_, def))) => {
                if matches!(record, "i" | "o" | "v" | "g") {
                    return Err(at.err(
                        0,
                        format!("`{record}` records are not allowed inside a subcircuit body"),
                    ));
                }
                // Keep the raw line so body records report true columns.
                def.body.push((line, raw.to_string()));
            }
            ("x", None) => {
                expand_instance(&mut b, &defs, &rest, at, "", 0)?;
            }
            _ => {
                emit_record(&mut b, record, &rest, at, &|n| n.to_string())?;
            }
        }
    }
    if let Some((sub_name, _)) = current {
        return Err(NetworkError::Parse {
            line: source.lines().count(),
            column: 1,
            message: format!("subcircuit `{sub_name}` is never closed with `ends`"),
        });
    }
    b.build()
}

/// 1-based starting columns (byte offset + 1) of each whitespace-separated
/// token of a line; index 0 is the record code, index `i + 1` is field
/// `i`.
fn token_columns(text: &str) -> Vec<usize> {
    let mut cols = Vec::new();
    let mut in_token = false;
    for (i, c) in text.char_indices() {
        if c.is_whitespace() {
            in_token = false;
        } else if !in_token {
            in_token = true;
            cols.push(i + 1);
        }
    }
    cols
}

/// The position of one record under parse: its line and the token start
/// columns (see [`token_columns`]).
#[derive(Debug, Clone, Copy)]
struct Cursor<'a> {
    line: usize,
    cols: &'a [usize],
}

impl Cursor<'_> {
    /// Column of token `index` (0 = record code), falling back to 1 for
    /// synthesized tokens with no source position.
    fn col(&self, index: usize) -> usize {
        self.cols.get(index).copied().unwrap_or(1)
    }

    /// A parse error anchored at token `index`.
    fn err(&self, index: usize, message: String) -> NetworkError {
        NetworkError::Parse {
            line: self.line,
            column: self.col(index),
            message,
        }
    }
}

/// A collected subcircuit definition.
#[derive(Debug, Clone)]
struct SubcktDef {
    ports: Vec<String>,
    body: Vec<(usize, String)>,
}

/// Maximum subcircuit nesting depth.
const MAX_SUBCKT_DEPTH: usize = 16;

fn expand_instance(
    b: &mut NetworkBuilder,
    defs: &HashMap<String, SubcktDef>,
    rest: &[&str],
    at: Cursor<'_>,
    prefix: &str,
    depth: usize,
) -> Result<(), NetworkError> {
    if depth >= MAX_SUBCKT_DEPTH {
        return Err(at.err(
            0,
            format!("subcircuit nesting exceeds {MAX_SUBCKT_DEPTH} levels"),
        ));
    }
    if rest.len() < 2 {
        return Err(at.err(0, "`x` record needs instance subckt actual...".into()));
    }
    let instance = rest[0];
    let sub_name = rest[1];
    let def = defs.get(sub_name).ok_or_else(|| {
        at.err(
            2,
            format!("unknown subcircuit `{sub_name}` (definitions must precede use)"),
        )
    })?;
    let actuals = &rest[2..];
    if actuals.len() != def.ports.len() {
        return Err(at.err(
            0,
            format!(
                "subcircuit `{sub_name}` has {} ports but {} actuals were given",
                def.ports.len(),
                actuals.len()
            ),
        ));
    }
    let path = if prefix.is_empty() {
        instance.to_string()
    } else {
        format!("{prefix}.{instance}")
    };
    let map = |local: &str| -> String {
        if is_rail_name(local) {
            return local.to_string();
        }
        if let Some(pos) = def.ports.iter().position(|p| p == local) {
            return actuals[pos].to_string();
        }
        format!("{path}.{local}")
    };

    for (body_line, text) in &def.body {
        let body_cols = token_columns(text);
        let body_at = Cursor {
            line: *body_line,
            cols: &body_cols,
        };
        let mut fields = text.split_whitespace();
        let Some(record) = fields.next() else {
            continue;
        };
        let body_rest: Vec<&str> = fields.collect();
        if record == "x" {
            // Map the nested instance's actuals into this scope, keep the
            // nested instance and subckt names verbatim.
            if body_rest.len() < 2 {
                return Err(body_at.err(0, "`x` record needs instance subckt actual...".into()));
            }
            let mapped: Vec<String> = body_rest[2..].iter().map(|a| map(a)).collect();
            let mut nested: Vec<&str> = vec![body_rest[0], body_rest[1]];
            nested.extend(mapped.iter().map(String::as_str));
            expand_instance(b, defs, &nested, body_at, &path, depth + 1)?;
        } else {
            emit_record(b, record, &body_rest, body_at, &map)?;
        }
    }
    Ok(())
}

/// Emits one primitive record into the builder, resolving node names
/// through `map` (identity at the top level, port/mangle mapping inside a
/// subcircuit expansion).
fn emit_record(
    b: &mut NetworkBuilder,
    record: &str,
    rest: &[&str],
    at: Cursor<'_>,
    map: &dyn Fn(&str) -> String,
) -> Result<(), NetworkError> {
    match record {
        "n" | "e" | "p" | "d" => {
            let Some(kind) = record.chars().next().and_then(TransistorKind::from_code) else {
                return Err(at.err(0, format!("unknown record type `{record}`")));
            };
            if rest.len() != 5 {
                return Err(at.err(
                    0,
                    format!(
                        "`{record}` record needs gate source drain length width, got {} fields",
                        rest.len()
                    ),
                ));
            }
            let gate = b.node(&map(rest[0]), NodeKind::Internal);
            let source_n = b.node(&map(rest[1]), NodeKind::Internal);
            let drain = b.node(&map(rest[2]), NodeKind::Internal);
            let length = parse_positive(rest[3], "length", at, 4)?;
            let width = parse_positive(rest[4], "width", at, 5)?;
            b.add_transistor(
                kind,
                gate,
                source_n,
                drain,
                Geometry::from_microns(width, length),
            );
        }
        "C" => {
            if rest.len() != 2 {
                return Err(at.err(0, "`C` record needs node cap_fF".to_string()));
            }
            let node = b.node(&map(rest[0]), NodeKind::Internal);
            let cap = parse_nonnegative(rest[1], "capacitance", at, 2)?;
            b.add_capacitance(node, Farads::from_femto(cap));
        }
        "c" => {
            if rest.len() != 3 {
                return Err(at.err(0, "`c` record needs node1 node2 cap_fF".to_string()));
            }
            let name1 = map(rest[0]);
            let name2 = map(rest[1]);
            let n1 = b.node(&name1, NodeKind::Internal);
            let n2 = b.node(&name2, NodeKind::Internal);
            let cap = Farads::from_femto(parse_nonnegative(rest[2], "capacitance", at, 3)?);
            let n1_rail = is_rail_name(&name1);
            let n2_rail = is_rail_name(&name2);
            match (n1_rail, n2_rail) {
                (true, true) => {} // rail-to-rail coupling is inert
                (true, false) => b.add_capacitance(n2, cap),
                (false, true) => b.add_capacitance(n1, cap),
                (false, false) => {
                    b.add_capacitance(n1, cap);
                    b.add_capacitance(n2, cap);
                }
            }
        }
        "i" => {
            if rest.len() != 1 {
                return Err(at.err(0, "`i` record needs exactly one node".into()));
            }
            b.node(&map(rest[0]), NodeKind::Input);
        }
        "o" => {
            if rest.len() != 1 {
                return Err(at.err(0, "`o` record needs exactly one node".into()));
            }
            b.node(&map(rest[0]), NodeKind::Output);
        }
        "v" => {
            if rest.len() != 1 {
                return Err(at.err(0, "`v` record needs exactly one node".into()));
            }
            b.declare_power(rest[0]);
        }
        "g" => {
            if rest.len() != 1 {
                return Err(at.err(0, "`g` record needs exactly one node".into()));
            }
            b.declare_ground(rest[0]);
        }
        other => {
            return Err(at.err(0, format!("unknown record type `{other}`")));
        }
    }
    Ok(())
}

fn is_rail_name(name: &str) -> bool {
    crate::network::POWER_NAMES.contains(&name) || crate::network::GROUND_NAMES.contains(&name)
}

/// Parses a strictly positive, finite value (transistor dimensions); NaN,
/// infinities, zero, and negatives are all rejected with the column of
/// the offending token.
fn parse_positive(
    text: &str,
    what: &str,
    at: Cursor<'_>,
    token: usize,
) -> Result<f64, NetworkError> {
    let v: f64 = text
        .parse()
        .map_err(|_| at.err(token, format!("cannot parse {what} `{text}`")))?;
    if !(v > 0.0 && v.is_finite()) {
        return Err(at.err(token, format!("{what} must be positive, got {v}")));
    }
    Ok(v)
}

/// Parses a non-negative, finite value (capacitances); NaN, infinities,
/// and negatives are rejected with the column of the offending token.
fn parse_nonnegative(
    text: &str,
    what: &str,
    at: Cursor<'_>,
    token: usize,
) -> Result<f64, NetworkError> {
    let v: f64 = text
        .parse()
        .map_err(|_| at.err(token, format!("cannot parse {what} `{text}`")))?;
    if !(v >= 0.0 && v.is_finite()) {
        return Err(at.err(token, format!("{what} must be non-negative, got {v}")));
    }
    Ok(v)
}

/// Picks the decimal to print for a value stored in SI units but
/// serialized in a display unit (femtofarads, microns).
///
/// `converted` is the display-unit value and `back` the parser's
/// reconstruction (`from_femto`/`from_microns`, returning SI bits). The
/// two unit conversions are float multiplications and not exact
/// inverses, so printing `converted` as-is can reparse to a value one
/// ulp away from `target` — and worse, re-serializing *that* drifts
/// again, so repeated write/parse cycles never reach a fixed point.
/// Scanning the few ulp-neighbours of `converted` finds a decimal whose
/// reconstruction lands on exactly `target`'s bits whenever one exists
/// (Rust's `{}` float formatting is shortest-round-trip, so the printed
/// text reparses to the candidate itself). When no preimage exists —
/// possible for values that never came from the display unit, e.g. sums
/// of lumped coupling caps — the nearest value is printed and callers
/// that need bit-identity must verify the round-trip themselves.
fn unit_exact(converted: f64, target: f64, back: impl Fn(f64) -> f64) -> f64 {
    let step = |v: f64, up: bool| -> f64 {
        if v <= 0.0 || !v.is_finite() {
            return v;
        }
        let bits = v.to_bits();
        f64::from_bits(if up { bits + 1 } else { bits.saturating_sub(1) })
    };
    let down = step(converted, false);
    let up = step(converted, true);
    for candidate in [converted, down, up, step(down, false), step(up, true)] {
        if back(candidate) == target {
            return candidate;
        }
    }
    converted
}

/// Serializes a network to the `.sim` dialect accepted by [`parse`].
///
/// Round-tripping through `write`/`parse` preserves nodes, kinds,
/// capacitances, and transistors (coupling caps are already lumped in the
/// in-memory form, so they come back out as `C` records).
///
/// Capacitances and geometries are printed so that reparsing
/// reconstructs the stored values **bit-identically** whenever a decimal
/// with that property exists (see `unit_exact`); `write` of a network
/// parsed from its own output is then a fixed point, which is what lets
/// a session checkpoint rebuild byte-for-byte identical state.
pub fn write(net: &Network) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| {} ({} nodes, {} transistors)",
        net.name(),
        net.node_count(),
        net.transistor_count()
    );
    let _ = writeln!(out, "v {}", net.node(net.power()).name());
    let _ = writeln!(out, "g {}", net.node(net.ground()).name());
    for (_, node) in net.nodes() {
        match node.kind() {
            NodeKind::Input => {
                let _ = writeln!(out, "i {}", node.name());
            }
            NodeKind::Output => {
                let _ = writeln!(out, "o {}", node.name());
            }
            _ => {}
        }
    }
    for (_, t) in net.transistors() {
        let g = t.geometry();
        let length = unit_exact(g.length.microns(), g.length.value(), |um| {
            Metres::from_microns(um).value()
        });
        let width = unit_exact(g.width.microns(), g.width.value(), |um| {
            Metres::from_microns(um).value()
        });
        let _ = writeln!(
            out,
            "{} {} {} {} {} {}",
            t.kind().code(),
            net.node(t.gate()).name(),
            net.node(t.source()).name(),
            net.node(t.drain()).name(),
            length,
            width,
        );
    }
    for (_, node) in net.nodes() {
        let cap = node.capacitance();
        if cap > Farads::ZERO {
            let femto = unit_exact(cap.femto(), cap.value(), |ff| {
                Farads::from_femto(ff).value()
            });
            let _ = writeln!(out, "C {} {}", node.name(), femto);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const INVERTER: &str = "| inverter\ni a\no y\nn a y gnd 2 8\np a y vdd 2 16\nC y 50\n";

    #[test]
    fn parses_inverter() {
        let net = parse(INVERTER, "inv").unwrap();
        assert_eq!(net.transistor_count(), 2);
        assert_eq!(net.node_count(), 4);
        let y = net.node_by_name("y").unwrap();
        assert_eq!(net.node(y).kind(), NodeKind::Output);
        assert!((net.node(y).capacitance().femto() - 50.0).abs() < 1e-9);
        let (_, t0) = net.transistors().next().unwrap();
        assert_eq!(t0.kind(), TransistorKind::NEnhancement);
        assert!((t0.geometry().width.microns() - 8.0).abs() < 1e-9);
        assert!((t0.geometry().length.microns() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let net = parse(INVERTER, "inv").unwrap();
        let text = write(&net);
        let net2 = parse(&text, "inv").unwrap();
        assert_eq!(net.node_count(), net2.node_count());
        assert_eq!(net.transistor_count(), net2.transistor_count());
        for (id, n) in net.nodes() {
            let id2 = net2.node_by_name(n.name()).expect("same names");
            assert_eq!(n.kind(), net2.node(id2).kind(), "kind of {}", n.name());
            assert!(
                (n.capacitance().femto() - net2.node(id2).capacitance().femto()).abs() < 1e-9,
                "cap of {}",
                net.node(id).name()
            );
        }
    }

    #[test]
    fn coupling_caps_are_lumped() {
        let src = "i a\nn a x gnd 2 2\nc x gnd 10\nc x a 4\nc vdd gnd 99\n";
        let net = parse(src, "c").unwrap();
        let x = net.node_by_name("x").unwrap();
        let a = net.node_by_name("a").unwrap();
        // x: 10 (to gnd) + 4 (coupling) = 14; a: 4.
        assert!((net.node(x).capacitance().femto() - 14.0).abs() < 1e-9);
        assert!((net.node(a).capacitance().femto() - 4.0).abs() < 1e-9);
        // rail-to-rail coupling ignored
        assert!((net.node(net.power()).capacitance().femto()).abs() < 1e-9);
    }

    #[test]
    fn legacy_e_record_is_n_enhancement() {
        let src = "i a\ne a y gnd 2 2\nC y 1\nn a y vdd 2 2\n";
        let net = parse(src, "e").unwrap();
        let (_, t) = net.transistors().next().unwrap();
        assert_eq!(t.kind(), TransistorKind::NEnhancement);
    }

    #[test]
    fn reports_line_numbers_on_errors() {
        let src = "| ok\nn a y gnd 2\n";
        match parse(src, "bad") {
            Err(NetworkError::Parse {
                line,
                column,
                message,
            }) => {
                assert_eq!(line, 2);
                assert_eq!(column, 1);
                assert!(message.contains("needs gate source drain"));
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn reports_the_column_of_the_offending_token() {
        // `nope` is the width field: token 6 on an indented line.
        let src = "  n a y gnd 2 nope\n";
        match parse(src, "bad") {
            Err(NetworkError::Parse { line, column, .. }) => {
                assert_eq!(line, 1);
                assert_eq!(column, 15);
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_record() {
        let src = "z foo bar\n";
        assert!(matches!(
            parse(src, "bad"),
            Err(NetworkError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn rejects_bad_numbers() {
        assert!(parse("n a y gnd -1 2\nC y 1\n", "bad").is_err());
        assert!(parse("n a y gnd 2 nope\n", "bad").is_err());
        assert!(parse("C y -5\nn a y gnd 2 2\n", "bad").is_err());
    }

    #[test]
    fn rejects_nan_zero_and_infinite_dimensions() {
        // Zero and NaN dimensions would poison every downstream resistance.
        assert!(parse("n a y gnd 0 2\nC y 1\n", "bad").is_err());
        assert!(parse("n a y gnd 2 NaN\nC y 1\n", "bad").is_err());
        assert!(parse("n a y gnd inf 2\nC y 1\n", "bad").is_err());
        assert!(parse("C y NaN\nn a y gnd 2 2\n", "bad").is_err());
        // Zero capacitance is legal (a node may be weightless).
        assert!(parse("C y 0\nn a y gnd 2 2\nv vdd\ng gnd\n", "ok").is_ok());
    }

    #[test]
    fn missing_rails_detected() {
        assert!(matches!(
            parse("i a\no y\nn a y b 2 2\n", "norails"),
            Err(NetworkError::MissingRail { .. })
        ));
    }

    #[test]
    fn subckt_flattening_mangles_internals_and_binds_ports() {
        let src = "\
subckt buf a y
n a m gnd 2 8
p a m vdd 2 16
n m y gnd 2 8
p m y vdd 2 16
C m 10
ends
i in
o out
x u1 buf in mid
x u2 buf mid out
C out 100
";
        let net = parse(src, "hier").unwrap();
        // Two buffers of 4 devices each.
        assert_eq!(net.transistor_count(), 8);
        // Internal nodes are instance-scoped.
        assert!(net.node_by_name("u1.m").is_some());
        assert!(net.node_by_name("u2.m").is_some());
        // Port bindings connect through `mid`.
        let mid = net.node_by_name("mid").expect("shared net exists");
        assert_eq!(net.channel_neighbors(mid).len(), 2); // u1's output pair
        assert_eq!(net.gated_by(mid).len(), 2); // u2's input gates
                                                // u1.m has its local capacitance.
        let m1 = net.node_by_name("u1.m").unwrap();
        assert!((net.node(m1).capacitance().femto() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn nested_subcircuits_expand_recursively() {
        let src = "\
subckt inv a y
n a y gnd 2 8
p a y vdd 2 16
ends
subckt buf2 a y
x g1 inv a m
x g2 inv m y
ends
i in
o out
x top buf2 in out
";
        let net = parse(src, "nested").unwrap();
        assert_eq!(net.transistor_count(), 4);
        assert!(net.node_by_name("top.m").is_some());
    }

    #[test]
    fn subckt_errors_are_clean() {
        // Unknown subcircuit.
        assert!(matches!(
            parse("x u1 nosuch a b\n", "e"),
            Err(NetworkError::Parse { .. })
        ));
        // Port/actual mismatch.
        let src = "subckt inv a y\nn a y gnd 2 8\nends\nx u1 inv only_one\n";
        assert!(matches!(parse(src, "e"), Err(NetworkError::Parse { .. })));
        // Unterminated definition.
        let src = "subckt inv a y\nn a y gnd 2 8\n";
        assert!(matches!(parse(src, "e"), Err(NetworkError::Parse { .. })));
        // i/o inside a body.
        let src = "subckt inv a y\ni a\nends\n";
        assert!(matches!(parse(src, "e"), Err(NetworkError::Parse { .. })));
        // Duplicate definition.
        let src = "subckt inv a y\nends\nsubckt inv a y\nends\n";
        assert!(matches!(parse(src, "e"), Err(NetworkError::Parse { .. })));
        // `ends` without `subckt`.
        assert!(matches!(
            parse("ends\n", "e"),
            Err(NetworkError::Parse { .. })
        ));
    }

    #[test]
    fn subckt_recursion_is_bounded() {
        // A self-instantiating subcircuit must hit the depth limit, not
        // the stack.
        let src = "subckt loop a\nx again loop a\nends\nx u loop vdd\ng gnd\n";
        match parse(src, "r") {
            Err(NetworkError::Parse { message, .. }) => {
                assert!(message.contains("nesting exceeds"), "{message}");
            }
            other => panic!("expected depth error, got {other:?}"),
        }
    }

    #[test]
    fn rails_inside_subckt_are_global() {
        let src = "\
subckt pull y
n vdd y gnd 2 8
ends
i en
x u1 pull q
o q
";
        let net = parse(src, "rails").unwrap();
        let (_, t) = net.transistors().next().unwrap();
        assert_eq!(t.gate(), net.power());
        assert!(t.touches_channel(net.ground()));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let src = "# hash comment\n\n| pipe comment\nn a y gnd 2 2\nC y 1\nn a y vdd 2 2\n";
        assert!(parse(src, "c").is_ok());
    }
}
