//! Pass-transistor chains — the Table 3 experiments (E4), where the lumped
//! model's quadratic pessimism shows up and the RC-tree treatment shines.

use super::{emit_inverter, Sizing, Style};
use crate::error::NetworkError;
use crate::network::{Network, NetworkBuilder};
use crate::node::NodeKind;
use crate::transistor::{Geometry, TransistorKind};
use crate::units::Farads;

/// An inverter driving a series chain of `length` n-channel pass
/// transistors, all gated by the always-high control `ctl` (a primary
/// input), with `tap_cap` hanging on every intermediate net and `load` on
/// the far end.
///
/// Node names: `in` (inverter input), `drv` (inverter output / chain head),
/// `p1..p<length-1>` (intermediate taps), `out` (chain tail), `ctl`.
///
/// # Errors
/// Returns [`NetworkError::Invalid`] when `length == 0`.
pub fn pass_chain(
    style: Style,
    length: usize,
    tap_cap: Farads,
    load: Farads,
) -> Result<Network, NetworkError> {
    if length == 0 {
        return Err(NetworkError::Invalid {
            message: "pass chain needs at least one transistor".into(),
        });
    }
    let s = Sizing::default();
    let mut b = NetworkBuilder::new(format!(
        "pass_chain_{}x{length}",
        if style == Style::Cmos { "cmos" } else { "nmos" }
    ));
    b.power();
    b.ground();
    let a = b.node("in", NodeKind::Input);
    let drv = b.node("drv", NodeKind::Internal);
    b.add_capacitance(drv, Farads::from_femto(10.0));
    emit_inverter(&mut b, style, s, a, drv, 2.0);

    let ctl = b.node("ctl", NodeKind::Input);
    let mut prev = drv;
    for i in 1..=length {
        let next = if i == length {
            b.node("out", NodeKind::Output)
        } else {
            b.node(&format!("p{i}"), NodeKind::Internal)
        };
        b.add_transistor(
            TransistorKind::NEnhancement,
            ctl,
            prev,
            next,
            Geometry::from_microns(s.n_width_um, s.length_um),
        );
        if i == length {
            b.add_capacitance(next, load);
        } else {
            b.add_capacitance(next, tap_cap);
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
    fn chain_lengths() {
        for n in 1..=8 {
            let net = pass_chain(
                Style::Cmos,
                n,
                Farads::from_femto(50.0),
                Farads::from_femto(100.0),
            )
            .unwrap();
            // 2 inverter devices + n pass transistors
            assert_eq!(net.transistor_count(), 2 + n);
            assert!(validate(&net).unwrap().is_empty());
        }
    }

    #[test]
    fn chain_is_a_single_path() {
        let net = pass_chain(Style::Cmos, 5, Farads::ZERO, Farads::ZERO).unwrap();
        let drv = net.node_by_name("drv").unwrap();
        let out = net.node_by_name("out").unwrap();
        let paths = channel_paths(&net, &|_| true, drv, out, 8);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].len(), 5);
    }

    #[test]
    fn taps_carry_capacitance() {
        let net = pass_chain(
            Style::Nmos,
            4,
            Farads::from_femto(50.0),
            Farads::from_femto(100.0),
        )
        .unwrap();
        for i in 1..4 {
            let p = net.node_by_name(&format!("p{i}")).unwrap();
            assert!((net.node(p).capacitance().femto() - 50.0).abs() < 1e-9);
        }
        let out = net.node_by_name("out").unwrap();
        assert!((net.node(out).capacitance().femto() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_empty_chain() {
        assert!(pass_chain(Style::Cmos, 0, Farads::ZERO, Farads::ZERO).is_err());
    }
}
