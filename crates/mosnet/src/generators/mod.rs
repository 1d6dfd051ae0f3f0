//! Parametric generators for the benchmark circuits used throughout the
//! paper's evaluation: inverter chains, NAND/NOR stacks, pass-transistor
//! chains, superbuffers, a barrel shifter, a Manchester carry chain, a
//! decoder, and random networks for property testing.
//!
//! All generators return a plain [`Network`](crate::network::Network); the
//! interesting nets carry conventional names (`in`, `out`, `s<i>`, ...)
//! documented per generator and resolvable with
//! [`Network::node_by_name`](crate::network::Network::node_by_name).

mod barrel_shifter;
mod carry_chain;
mod decoder;
mod gates;
mod inverter_chain;
mod memory_array;
mod mux_tree;
mod pass_chain;
mod random;
mod superbuffer;
mod wordline;
mod xor_gate;

pub use barrel_shifter::barrel_shifter;
pub use carry_chain::carry_chain;
pub use decoder::{decoder, decoder2to4};
pub use gates::{nand, nor};
pub use inverter_chain::{inverter, inverter_chain};
pub use memory_array::memory_array;
pub use mux_tree::mux_tree;
pub use pass_chain::pass_chain;
pub use random::{random_network, random_pass_mesh, RandomNetworkConfig};
pub use superbuffer::superbuffer;
pub use wordline::wordline;
pub use xor_gate::xor2;

use crate::network::NetworkBuilder;
use crate::node::NodeId;
use crate::transistor::{Geometry, TransistorKind};

/// Logic family for the generated circuits.
///
/// * `Cmos`: complementary n/p pairs, 2:1 p/n width ratio.
/// * `Nmos`: enhancement pull-downs with depletion loads (gate tied to
///   source), 4:1 pull-down/load strength ratio.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Style {
    /// Complementary MOS.
    Cmos,
    /// nMOS with depletion loads.
    Nmos,
}

impl Style {
    /// Both styles, for sweeping experiments.
    pub const ALL: [Style; 2] = [Style::Cmos, Style::Nmos];
}

/// Sizing conventions shared by the generators (a 2 µm drawn-length,
/// 4 µm-pitch class process).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizing {
    /// Pull-down (nMOS) width in microns for a unit inverter.
    pub n_width_um: f64,
    /// Pull-up (pMOS) width in microns for a unit CMOS inverter.
    pub p_width_um: f64,
    /// Depletion-load width in microns for a unit nMOS inverter.
    pub load_width_um: f64,
    /// Depletion-load length in microns (long channel = weak load).
    pub load_length_um: f64,
    /// Drawn channel length in microns for switching devices.
    pub length_um: f64,
}

impl Default for Sizing {
    fn default() -> Sizing {
        Sizing {
            n_width_um: 8.0,
            p_width_um: 16.0,
            load_width_um: 2.0,
            load_length_um: 8.0,
            length_um: 2.0,
        }
    }
}

/// Emits one inverter (style-dependent) driving `out` from `a`, with every
/// device scaled by `scale`. Shared by several generators.
pub(crate) fn emit_inverter(
    b: &mut NetworkBuilder,
    style: Style,
    sizing: Sizing,
    a: NodeId,
    out: NodeId,
    scale: f64,
) {
    let vdd = b.power();
    let gnd = b.ground();
    b.add_transistor(
        TransistorKind::NEnhancement,
        a,
        out,
        gnd,
        Geometry::from_microns(sizing.n_width_um * scale, sizing.length_um),
    );
    match style {
        Style::Cmos => {
            b.add_transistor(
                TransistorKind::PEnhancement,
                a,
                out,
                vdd,
                Geometry::from_microns(sizing.p_width_um * scale, sizing.length_um),
            );
        }
        Style::Nmos => {
            // Depletion load, gate tied to source (the output node).
            b.add_transistor(
                TransistorKind::Depletion,
                out,
                out,
                vdd,
                Geometry::from_microns(sizing.load_width_um * scale, sizing.load_length_um),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeKind;

    #[test]
    fn emit_inverter_respects_style() {
        for style in Style::ALL {
            let mut b = NetworkBuilder::new("t");
            b.power();
            b.ground();
            let a = b.node("a", NodeKind::Input);
            let y = b.node("y", NodeKind::Output);
            emit_inverter(&mut b, style, Sizing::default(), a, y, 1.0);
            let net = b.build().unwrap();
            assert_eq!(net.transistor_count(), 2);
            let kinds: Vec<_> = net.transistors().map(|(_, t)| t.kind()).collect();
            match style {
                Style::Cmos => assert!(kinds.contains(&TransistorKind::PEnhancement)),
                Style::Nmos => assert!(kinds.contains(&TransistorKind::Depletion)),
            }
        }
    }

    #[test]
    fn nmos_load_gate_tied_to_source() {
        let mut b = NetworkBuilder::new("t");
        b.power();
        b.ground();
        let a = b.node("a", NodeKind::Input);
        let y = b.node("y", NodeKind::Output);
        emit_inverter(&mut b, Style::Nmos, Sizing::default(), a, y, 1.0);
        let net = b.build().unwrap();
        let load = net
            .transistors()
            .find(|(_, t)| t.kind() == TransistorKind::Depletion)
            .map(|(_, t)| *t)
            .expect("has a load");
        assert_eq!(load.gate(), load.source());
    }
}
