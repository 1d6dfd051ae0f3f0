//! NAND/NOR gates with series device stacks — the Table 2 experiments (E3).
//!
//! Each generated circuit is a single gate whose inputs are driven directly
//! (named `a0` … `a<k-1>`) and whose output `out` carries an explicit load.
//! Series devices in the stack are widened by the number of inputs so that
//! the gate's nominal drive matches a unit inverter, the standard sizing
//! discipline.

use super::{Sizing, Style};
use crate::error::NetworkError;
use crate::network::{Network, NetworkBuilder};
use crate::node::{NodeId, NodeKind};
use crate::transistor::{Geometry, TransistorKind};
use crate::units::Farads;

fn check_inputs(inputs: usize) -> Result<(), NetworkError> {
    if !(2..=8).contains(&inputs) {
        return Err(NetworkError::Invalid {
            message: format!("gate needs 2..=8 inputs, got {inputs}"),
        });
    }
    Ok(())
}

/// A `k`-input NAND gate.
///
/// CMOS: `k` series nMOS pull-downs (each `k`× unit width) and `k` parallel
/// pMOS pull-ups. nMOS: series pull-downs with one depletion load.
///
/// Node names: `a0..a<k-1>`, `out`, internal stack nets `st1..`.
///
/// # Errors
/// Returns [`NetworkError::Invalid`] unless `2 <= inputs <= 8`.
pub fn nand(style: Style, inputs: usize, load: Farads) -> Result<Network, NetworkError> {
    check_inputs(inputs)?;
    let s = Sizing::default();
    let mut b = NetworkBuilder::new(format!(
        "nand{inputs}_{}",
        if style == Style::Cmos { "cmos" } else { "nmos" }
    ));
    let vdd = b.power();
    let gnd = b.ground();
    let ins: Vec<NodeId> = (0..inputs)
        .map(|i| b.node(&format!("a{i}"), NodeKind::Input))
        .collect();
    let out = b.node("out", NodeKind::Output);
    b.set_capacitance(out, load);

    // Series pull-down stack from out to ground, k× width.
    let mut below = gnd;
    for (i, &a) in ins.iter().enumerate().rev() {
        let above = if i == 0 {
            out
        } else {
            b.node(&format!("st{i}"), NodeKind::Internal)
        };
        b.add_transistor(
            TransistorKind::NEnhancement,
            a,
            above,
            below,
            Geometry::from_microns(s.n_width_um * inputs as f64, s.length_um),
        );
        below = above;
    }

    match style {
        Style::Cmos => {
            for &a in &ins {
                b.add_transistor(
                    TransistorKind::PEnhancement,
                    a,
                    out,
                    vdd,
                    Geometry::from_microns(s.p_width_um, s.length_um),
                );
            }
        }
        Style::Nmos => {
            b.add_transistor(
                TransistorKind::Depletion,
                out,
                out,
                vdd,
                Geometry::from_microns(s.load_width_um, s.load_length_um),
            );
        }
    }
    Ok(b.build().expect("generator produces a valid network"))
}

/// A `k`-input NOR gate.
///
/// CMOS: `k` parallel nMOS pull-downs and `k` series pMOS pull-ups (each
/// `k`× unit width). nMOS: parallel pull-downs with one depletion load.
///
/// Node names: `a0..a<k-1>`, `out`, internal stack nets `st1..` (CMOS only).
///
/// # Errors
/// Returns [`NetworkError::Invalid`] unless `2 <= inputs <= 8`.
pub fn nor(style: Style, inputs: usize, load: Farads) -> Result<Network, NetworkError> {
    check_inputs(inputs)?;
    let s = Sizing::default();
    let mut b = NetworkBuilder::new(format!(
        "nor{inputs}_{}",
        if style == Style::Cmos { "cmos" } else { "nmos" }
    ));
    let vdd = b.power();
    let gnd = b.ground();
    let ins: Vec<NodeId> = (0..inputs)
        .map(|i| b.node(&format!("a{i}"), NodeKind::Input))
        .collect();
    let out = b.node("out", NodeKind::Output);
    b.set_capacitance(out, load);

    for &a in &ins {
        b.add_transistor(
            TransistorKind::NEnhancement,
            a,
            out,
            gnd,
            Geometry::from_microns(s.n_width_um, s.length_um),
        );
    }

    match style {
        Style::Cmos => {
            // Series pull-up stack from vdd to out, k× width.
            let mut above = vdd;
            for (i, &a) in ins.iter().enumerate() {
                let below = if i + 1 == inputs {
                    out
                } else {
                    b.node(&format!("st{}", i + 1), NodeKind::Internal)
                };
                b.add_transistor(
                    TransistorKind::PEnhancement,
                    a,
                    above,
                    below,
                    Geometry::from_microns(s.p_width_um * inputs as f64, s.length_um),
                );
                above = below;
            }
        }
        Style::Nmos => {
            b.add_transistor(
                TransistorKind::Depletion,
                out,
                out,
                vdd,
                Geometry::from_microns(s.load_width_um, s.load_length_um),
            );
        }
    }
    Ok(b.build().expect("generator produces a valid network"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate;

    #[test]
    fn nand_structure_cmos() {
        for k in 2..=4 {
            let net = nand(Style::Cmos, k, Farads::from_femto(100.0)).unwrap();
            // k series n + k parallel p
            assert_eq!(net.transistor_count(), 2 * k);
            // rails + k inputs + out + (k-1) stack nets
            assert_eq!(net.node_count(), 2 + k + 1 + (k - 1));
            assert!(validate(&net).unwrap().is_empty());
        }
    }

    #[test]
    fn nand_series_devices_are_widened() {
        let net = nand(Style::Cmos, 3, Farads::ZERO).unwrap();
        let n_width = net
            .transistors()
            .find(|(_, t)| t.kind() == TransistorKind::NEnhancement)
            .map(|(_, t)| t.geometry().width.microns())
            .unwrap();
        assert!((n_width - 24.0).abs() < 1e-9); // 8 µm × 3
    }

    #[test]
    fn nor_structure_cmos() {
        for k in 2..=4 {
            let net = nor(Style::Cmos, k, Farads::from_femto(100.0)).unwrap();
            assert_eq!(net.transistor_count(), 2 * k);
            assert!(validate(&net).unwrap().is_empty());
        }
    }

    #[test]
    fn nmos_gates_have_single_load() {
        let nand_net = nand(Style::Nmos, 3, Farads::ZERO).unwrap();
        let nor_net = nor(Style::Nmos, 3, Farads::ZERO).unwrap();
        for net in [&nand_net, &nor_net] {
            let loads = net
                .transistors()
                .filter(|(_, t)| t.kind() == TransistorKind::Depletion)
                .count();
            assert_eq!(loads, 1);
        }
        // nMOS NAND: 3 series pull-downs + 1 load
        assert_eq!(nand_net.transistor_count(), 4);
    }

    #[test]
    fn nand_pulldown_stack_reaches_ground() {
        // Walk the stack: out -> st* -> gnd must exist as a channel path.
        let net = nand(Style::Cmos, 3, Farads::ZERO).unwrap();
        let out = net.node_by_name("out").unwrap();
        let paths = crate::graph::channel_paths(&net, &|_| true, out, net.ground(), 16);
        assert!(paths.iter().any(|p| p.len() == 3));
    }

    #[test]
    fn nor_pullup_stack_reaches_power() {
        let net = nor(Style::Cmos, 3, Farads::ZERO).unwrap();
        let out = net.node_by_name("out").unwrap();
        let paths = crate::graph::channel_paths(&net, &|_| true, out, net.power(), 16);
        assert!(paths.iter().any(|p| p.len() == 3));
    }

    #[test]
    fn rejects_bad_input_counts() {
        assert!(nand(Style::Cmos, 1, Farads::ZERO).is_err());
        assert!(nand(Style::Cmos, 9, Farads::ZERO).is_err());
        assert!(nor(Style::Nmos, 0, Farads::ZERO).is_err());
    }
}
