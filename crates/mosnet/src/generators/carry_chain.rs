//! A Manchester carry chain — series pass transistors with per-stage
//! pull-downs, part of the Table 4 experiments (E5).

use super::{emit_inverter, Sizing, Style};
use crate::error::NetworkError;
use crate::network::{Network, NetworkBuilder};
use crate::node::NodeKind;
use crate::transistor::{Geometry, TransistorKind};
use crate::units::Farads;

/// An `n`-bit static Manchester carry chain.
///
/// The (active-low) carry line runs through `n` pass transistors gated by
/// the propagate inputs `p1..p<n>`; each stage also has a pull-down to
/// ground gated by the generate input `g1..g<n>`. A single weak level
/// restorer (depletion load in nMOS, ground-gated pMOS in CMOS) sits on
/// the carry-out — per-stage keepers would fight an 8-bit propagation
/// hard enough to dominate its delay. Carry-in `cin` is buffered onto the
/// head of the chain; the tail is `cout`.
///
/// Node names: `cin`, `c0` (buffered carry-in), `c1..c<n-1>`, `cout`,
/// `p1..p<n>`, `g1..g<n>`.
///
/// # Errors
/// Returns [`NetworkError::Invalid`] unless `1 <= bits <= 64`.
pub fn carry_chain(style: Style, bits: usize, load: Farads) -> Result<Network, NetworkError> {
    if !(1..=64).contains(&bits) {
        return Err(NetworkError::Invalid {
            message: format!("carry chain must be 1..=64 bits, got {bits}"),
        });
    }
    let s = Sizing::default();
    let mut b = NetworkBuilder::new(format!(
        "carry{bits}_{}",
        if style == Style::Cmos { "cmos" } else { "nmos" }
    ));
    let vdd = b.power();
    let gnd = b.ground();

    let cin = b.node("cin", NodeKind::Input);
    let c0 = b.node("c0", NodeKind::Internal);
    b.add_capacitance(c0, Farads::from_femto(15.0));
    emit_inverter(&mut b, style, s, cin, c0, 2.0);

    let mut prev = c0;
    for i in 1..=bits {
        let next = if i == bits {
            b.node("cout", NodeKind::Output)
        } else {
            b.node(&format!("c{i}"), NodeKind::Internal)
        };
        // Propagate pass transistor.
        let p = b.node(&format!("p{i}"), NodeKind::Input);
        b.add_transistor(
            TransistorKind::NEnhancement,
            p,
            prev,
            next,
            Geometry::from_microns(s.n_width_um, s.length_um),
        );
        // Generate pull-down.
        let g = b.node(&format!("g{i}"), NodeKind::Input);
        b.add_transistor(
            TransistorKind::NEnhancement,
            g,
            next,
            gnd,
            Geometry::from_microns(s.n_width_um, s.length_um),
        );
        if i == bits {
            // Single weak level restorer at the chain output.
            match style {
                Style::Nmos => {
                    b.add_transistor(
                        TransistorKind::Depletion,
                        next,
                        next,
                        vdd,
                        Geometry::from_microns(s.load_width_um, s.load_length_um * 6.0),
                    );
                }
                Style::Cmos => {
                    b.add_transistor(
                        TransistorKind::PEnhancement,
                        gnd, // always on: gate at ground
                        next,
                        vdd,
                        Geometry::from_microns(s.load_width_um, s.load_length_um * 6.0),
                    );
                }
            }
            b.add_capacitance(next, load);
        } else {
            b.add_capacitance(next, Farads::from_femto(20.0));
        }
        prev = next;
    }
    Ok(b.build().expect("generator produces a valid network"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::channel_paths;
    use crate::validate::validate;

    #[test]
    fn chain_counts() {
        for bits in [1, 4, 8] {
            let net = carry_chain(Style::Nmos, bits, Farads::from_femto(50.0)).unwrap();
            // 2 buffer devices + 2 per bit (pass + pulldown) + 1 keeper
            assert_eq!(net.transistor_count(), 2 + 2 * bits + 1);
            assert!(validate(&net).unwrap().is_empty());
        }
    }

    #[test]
    fn carry_path_spans_all_bits() {
        let bits = 8;
        let net = carry_chain(Style::Cmos, bits, Farads::ZERO).unwrap();
        let c0 = net.node_by_name("c0").unwrap();
        let cout = net.node_by_name("cout").unwrap();
        let paths = channel_paths(&net, &|_| true, c0, cout, 4);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].len(), bits);
    }

    #[test]
    fn each_stage_has_generate_pulldown() {
        let net = carry_chain(Style::Cmos, 4, Farads::ZERO).unwrap();
        for i in 1..=4 {
            let g = net.node_by_name(&format!("g{i}")).unwrap();
            assert_eq!(net.gated_by(g).len(), 1);
            let t = net.transistor(net.gated_by(g)[0]);
            assert!(t.touches_channel(net.ground()));
        }
    }

    #[test]
    fn rejects_degenerate_sizes() {
        assert!(carry_chain(Style::Cmos, 0, Farads::ZERO).is_err());
        assert!(carry_chain(Style::Cmos, 65, Farads::ZERO).is_err());
    }
}
