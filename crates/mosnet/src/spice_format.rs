//! Writer and parser for a SPICE-deck subset, for interoperability with
//! external circuit simulators.
//!
//! The writer emits a flat deck with `M` (MOSFET), `C` (capacitor) cards and
//! `.model` cards named `NMOS`, `PMOS`, and `DMOS`. The parser accepts the
//! same subset plus `R` cards (mapped to nothing at the switch level — they
//! are rejected, since a switch-level network has no resistor primitive) and
//! `*` comments, `.end`, and continuation via `+`.

use crate::error::NetworkError;
use crate::network::{Network, NetworkBuilder};
use crate::node::NodeKind;
use crate::transistor::{Geometry, TransistorKind};
use crate::units::Farads;
use std::fmt::Write as _;

/// Serializes a network as a flat SPICE deck.
///
/// Node names are used verbatim except the rails, which become `vdd` and
/// `0` (the SPICE ground convention).
pub fn write(net: &Network) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "* {}", net.name());
    let _ = writeln!(out, "VDD {} 0 DC 5.0", net.node(net.power()).name());
    let name_of = |id| {
        if id == net.ground() {
            "0".to_string()
        } else {
            net.node(id).name().to_string()
        }
    };
    for (tid, t) in net.transistors() {
        let model = match t.kind() {
            TransistorKind::NEnhancement => "NMOS",
            TransistorKind::PEnhancement => "PMOS",
            TransistorKind::Depletion => "DMOS",
        };
        let bulk = if t.kind() == TransistorKind::PEnhancement {
            name_of(net.power())
        } else {
            "0".to_string()
        };
        let g = t.geometry();
        let _ = writeln!(
            out,
            "M{} {} {} {} {} {} W={}U L={}U",
            tid.index(),
            name_of(t.drain()),
            name_of(t.gate()),
            name_of(t.source()),
            bulk,
            model,
            g.width.microns(),
            g.length.microns(),
        );
    }
    let mut cap_index = 0usize;
    for (id, node) in net.nodes() {
        if node.capacitance() > Farads::ZERO {
            let _ = writeln!(
                out,
                "C{} {} 0 {}",
                cap_index,
                name_of(id),
                format_si(node.capacitance().value())
            );
            cap_index += 1;
        }
    }
    out.push_str(".model NMOS NMOS (LEVEL=1)\n");
    out.push_str(".model PMOS PMOS (LEVEL=1)\n");
    out.push_str(".model DMOS NMOS (LEVEL=1)\n");
    out.push_str(".end\n");
    out
}

fn format_si(value: f64) -> String {
    if value == 0.0 {
        return "0".to_string();
    }
    let scales: [(f64, &str); 4] = [(1e-15, "F"), (1e-12, "P"), (1e-9, "N"), (1e-6, "U")];
    for (scale, suffix) in scales {
        let scaled = value / scale;
        if (0.999..1000.0).contains(&scaled.abs()) {
            return format!("{scaled:.6}{suffix}");
        }
    }
    format!("{value:e}")
}

/// Parses a SPICE value with an optional engineering suffix
/// (`F P N U M K MEG G`, case-insensitive, trailing unit letters ignored).
pub fn parse_value(text: &str) -> Option<f64> {
    let t = text.trim().to_ascii_uppercase();
    let end = t.find(|c: char| c.is_ascii_alphabetic()).unwrap_or(t.len());
    let (num, suffix) = t.split_at(end);
    let base: f64 = num.parse().ok()?;
    let mult = if suffix.starts_with("MEG") {
        1e6
    } else {
        match suffix.chars().next() {
            None => 1.0,
            Some('F') => 1e-15,
            Some('P') => 1e-12,
            Some('N') => 1e-9,
            Some('U') => 1e-6,
            Some('M') => 1e-3,
            Some('K') => 1e3,
            Some('G') => 1e9,
            Some(_) => return None,
        }
    };
    Some(base * mult)
}

/// Parses a flat SPICE deck (the subset produced by [`write()`]) into a
/// [`Network`].
///
/// # Errors
/// Returns [`NetworkError::Parse`] for unsupported cards or malformed
/// fields, and [`NetworkError::MissingRail`] when the deck mentions no
/// supply nodes.
pub fn parse(source: &str, name: &str) -> Result<Network, NetworkError> {
    let mut b = NetworkBuilder::new(name);
    // Join continuation lines first.
    let mut logical: Vec<(usize, String)> = Vec::new();
    for (lineno, raw) in source.lines().enumerate() {
        let text = raw.trim_end();
        if let Some(cont) = text.trim_start().strip_prefix('+') {
            if let Some(last) = logical.last_mut() {
                last.1.push(' ');
                last.1.push_str(cont);
                continue;
            }
        }
        logical.push((lineno + 1, text.to_string()));
    }

    for (line, text) in logical {
        let t = text.trim();
        if t.is_empty() || t.starts_with('*') {
            continue;
        }
        let lower = t.to_ascii_lowercase();
        if lower.starts_with(".model") || lower.starts_with(".end") {
            continue;
        }
        let fields: Vec<&str> = t.split_whitespace().collect();
        let cols = field_columns(&text);
        let err = |field: usize, message: String| NetworkError::Parse {
            line,
            column: cols.get(field).copied().unwrap_or(1),
            message,
        };
        let Some(card) = t.chars().next().map(|c| c.to_ascii_uppercase()) else {
            continue;
        };
        match card {
            'M' => {
                if fields.len() < 6 {
                    return Err(err(0, "M card needs drain gate source bulk model".into()));
                }
                let drain = spice_node(&mut b, fields[1]);
                let gate = spice_node(&mut b, fields[2]);
                let source_n = spice_node(&mut b, fields[3]);
                // fields[4] is bulk — ignored at the switch level.
                let kind = match fields[5].to_ascii_uppercase().as_str() {
                    "NMOS" => TransistorKind::NEnhancement,
                    "PMOS" => TransistorKind::PEnhancement,
                    "DMOS" => TransistorKind::Depletion,
                    other => return Err(err(5, format!("unknown MOS model `{other}`"))),
                };
                let mut w_um = 4.0;
                let mut l_um = 4.0;
                for (offset, f) in fields[6..].iter().enumerate() {
                    let up = f.to_ascii_uppercase();
                    if let Some(v) = up.strip_prefix("W=") {
                        w_um = parse_value(v)
                            .filter(|w| *w > 0.0 && w.is_finite())
                            .ok_or_else(|| {
                                err(6 + offset, format!("width must be positive, got `{f}`"))
                            })?
                            * 1e6;
                    } else if let Some(v) = up.strip_prefix("L=") {
                        l_um = parse_value(v)
                            .filter(|l| *l > 0.0 && l.is_finite())
                            .ok_or_else(|| {
                                err(6 + offset, format!("length must be positive, got `{f}`"))
                            })?
                            * 1e6;
                    }
                }
                b.add_transistor(
                    kind,
                    gate,
                    source_n,
                    drain,
                    Geometry::from_microns(w_um, l_um),
                );
            }
            'C' => {
                if fields.len() < 4 {
                    return Err(err(0, "C card needs node node value".into()));
                }
                let n1 = spice_node(&mut b, fields[1]);
                let n2 = spice_node(&mut b, fields[2]);
                let value = parse_value(fields[3])
                    .filter(|c| *c >= 0.0 && c.is_finite())
                    .ok_or_else(|| {
                        err(
                            3,
                            format!("capacitance must be non-negative, got `{}`", fields[3]),
                        )
                    })?;
                let cap = Farads(value);
                let n1_rail = fields[1] == "0" || crate::network::POWER_NAMES.contains(&fields[1]);
                let n2_rail = fields[2] == "0" || crate::network::POWER_NAMES.contains(&fields[2]);
                match (n1_rail, n2_rail) {
                    (true, true) => {}
                    (true, false) => b.add_capacitance(n2, cap),
                    (false, true) => b.add_capacitance(n1, cap),
                    (false, false) => {
                        b.add_capacitance(n1, cap);
                        b.add_capacitance(n2, cap);
                    }
                }
            }
            'V' => {
                // A supply card declares the power rail (the value is
                // irrelevant at the switch level); `0` is ground.
                if fields.len() < 3 {
                    return Err(err(0, "V card needs pos neg [value]".into()));
                }
                for terminal in [fields[1], fields[2]] {
                    if terminal == "0" {
                        b.ground();
                    } else {
                        b.declare_power(terminal);
                    }
                }
            }
            other => {
                return Err(err(
                    0,
                    format!("unsupported card `{other}` at the switch level"),
                ));
            }
        }
    }
    b.build()
}

/// 1-based byte column of each whitespace-separated field in `text`.
fn field_columns(text: &str) -> Vec<usize> {
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

fn spice_node(b: &mut NetworkBuilder, name: &str) -> crate::node::NodeId {
    if name == "0" {
        b.ground()
    } else {
        b.node(name, NodeKind::Internal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkBuilder;

    fn inverter() -> Network {
        let mut b = NetworkBuilder::new("inv");
        let vdd = b.power();
        let gnd = b.ground();
        let a = b.node("a", NodeKind::Input);
        let y = b.node("y", NodeKind::Output);
        b.set_capacitance(y, Farads::from_femto(50.0));
        b.add_transistor(
            TransistorKind::NEnhancement,
            a,
            y,
            gnd,
            Geometry::from_microns(8.0, 2.0),
        );
        b.add_transistor(
            TransistorKind::PEnhancement,
            a,
            y,
            vdd,
            Geometry::from_microns(16.0, 2.0),
        );
        b.build().unwrap()
    }

    #[test]
    fn writes_m_and_c_cards() {
        let deck = write(&inverter());
        assert!(deck.contains("M0"));
        assert!(deck.contains("NMOS"));
        assert!(deck.contains("PMOS"));
        assert!(deck.contains("C0 y 0 50.000000F"));
        assert!(deck.ends_with(".end\n"));
    }

    #[test]
    fn parse_value_suffixes() {
        assert_eq!(parse_value("50F"), Some(50e-15));
        assert_eq!(parse_value("1.5P"), Some(1.5e-12));
        assert_eq!(parse_value("2N"), Some(2e-9));
        assert_eq!(parse_value("3U"), Some(3e-6));
        assert_eq!(parse_value("4K"), Some(4e3));
        assert_eq!(parse_value("2MEG"), Some(2e6));
        assert_eq!(parse_value("7"), Some(7.0));
        // trailing unit letters after the scale are tolerated
        assert_eq!(parse_value("50FF"), Some(50e-15));
        assert_eq!(parse_value("abc"), None);
    }

    #[test]
    fn roundtrip_through_spice() {
        let net = inverter();
        let deck = write(&net);
        let net2 = parse(&deck, "inv2").unwrap();
        assert_eq!(net2.transistor_count(), 2);
        let y = net2.node_by_name("y").unwrap();
        assert!((net2.node(y).capacitance().femto() - 50.0).abs() < 1e-3);
        let kinds: Vec<_> = net2.transistors().map(|(_, t)| t.kind()).collect();
        assert!(kinds.contains(&TransistorKind::NEnhancement));
        assert!(kinds.contains(&TransistorKind::PEnhancement));
    }

    #[test]
    fn continuation_lines_join() {
        let deck =
            "* t\nM0 y a 0 0 NMOS\n+ W=8U L=2U\nM1 y a vdd vdd PMOS W=4U L=4U\nC0 y 0 10F\n.end\n";
        let net = parse(deck, "cont").unwrap();
        let (_, t) = net.transistors().next().unwrap();
        assert!((t.geometry().width.microns() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_unsupported_cards() {
        let deck = "R1 a b 1K\n";
        assert!(matches!(
            parse(deck, "r"),
            Err(NetworkError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn ground_is_node_zero() {
        let deck = "M0 y a 0 0 NMOS W=4U L=4U\nC0 y 0 1F\nM1 y a vdd vdd PMOS W=4U L=4U\n.end\n";
        let net = parse(deck, "g").unwrap();
        let (_, t) = net.transistors().next().unwrap();
        assert_eq!(t.source(), net.ground());
    }
}
