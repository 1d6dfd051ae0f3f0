//! Seeded random networks for property-based testing.

use super::Style;
use crate::error::NetworkError;
use crate::network::{Network, NetworkBuilder};
use crate::node::NodeKind;
use crate::transistor::{Geometry, TransistorKind};
use crate::units::Farads;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for [`random_network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomNetworkConfig {
    /// Number of non-rail nodes to create (≥ 2).
    pub nodes: usize,
    /// Number of transistors to create (≥ 1).
    pub transistors: usize,
    /// Logic family biasing device-kind choice.
    pub style: Style,
    /// RNG seed; equal seeds give equal networks.
    pub seed: u64,
}

impl Default for RandomNetworkConfig {
    fn default() -> RandomNetworkConfig {
        RandomNetworkConfig {
            nodes: 12,
            transistors: 20,
            style: Style::Cmos,
            seed: 0,
        }
    }
}

/// Generates a structurally valid (rails present, no zero-size devices)
/// pseudo-random network. The result is deterministic in `config.seed`.
///
/// The first quarter of the nodes are marked as inputs and the last node as
/// an output, so downstream analyses always have somewhere to start and
/// finish.
///
/// # Errors
/// Returns [`NetworkError::Invalid`] when `nodes < 2` or
/// `transistors == 0`.
pub fn random_network(config: RandomNetworkConfig) -> Result<Network, NetworkError> {
    if config.nodes < 2 {
        return Err(NetworkError::Invalid {
            message: format!("random network needs >= 2 nodes, got {}", config.nodes),
        });
    }
    if config.transistors == 0 {
        return Err(NetworkError::Invalid {
            message: "random network needs >= 1 transistor".into(),
        });
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut b = NetworkBuilder::new(format!("random_{}", config.seed));
    let vdd = b.power();
    let gnd = b.ground();

    let n_inputs = (config.nodes / 4).max(1);
    let mut pool = Vec::with_capacity(config.nodes + 2);
    for i in 0..config.nodes {
        let kind = if i < n_inputs {
            NodeKind::Input
        } else if i + 1 == config.nodes {
            NodeKind::Output
        } else {
            NodeKind::Internal
        };
        let id = b.node(&format!("r{i}"), kind);
        b.set_capacitance(id, Farads::from_femto(rng.gen_range(1.0..100.0)));
        pool.push(id);
    }
    // Channel terminals may also be rails.
    let mut channel_pool = pool.clone();
    channel_pool.push(vdd);
    channel_pool.push(gnd);

    for _ in 0..config.transistors {
        let kind = match config.style {
            Style::Cmos => {
                if rng.gen_bool(0.5) {
                    TransistorKind::NEnhancement
                } else {
                    TransistorKind::PEnhancement
                }
            }
            Style::Nmos => {
                if rng.gen_bool(0.75) {
                    TransistorKind::NEnhancement
                } else {
                    TransistorKind::Depletion
                }
            }
        };
        let gate = pool[rng.gen_range(0..pool.len())];
        let source = channel_pool[rng.gen_range(0..channel_pool.len())];
        let mut drain = channel_pool[rng.gen_range(0..channel_pool.len())];
        if drain == source {
            // Avoid degenerate shorted channels.
            drain = if source == gnd { vdd } else { gnd };
        }
        let w = rng.gen_range(2.0..32.0);
        let l = rng.gen_range(2.0..8.0);
        b.add_transistor(kind, gate, source, drain, Geometry::from_microns(w, l));
    }
    b.build()
}

/// A seeded random pass mesh for scheduling and propagation tests: a
/// CMOS inverter on input `in` drives node `drv`, and `nodes` mesh nodes
/// `m0`, `m1`, … (the last one an output) each hang off a random earlier
/// node through an n-pass device gated by input `ctl`. Per-node stage
/// counts are irregular, and chains of pass devices take many
/// propagation rounds. Capacitances (20–120 fF) and attachment points
/// are drawn from a SplitMix64 stream, so equal seeds give equal
/// networks.
pub fn random_pass_mesh(seed: u64, nodes: usize) -> Network {
    let mut state = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut b = NetworkBuilder::new("pass-mesh");
    let vdd = b.power();
    let gnd = b.ground();
    let inp = b.node("in", NodeKind::Input);
    let ctl = b.node("ctl", NodeKind::Input);
    let drv = b.node("drv", NodeKind::Internal);
    b.set_capacitance(drv, Farads::from_femto(20.0));
    b.add_transistor(
        TransistorKind::NEnhancement,
        inp,
        drv,
        gnd,
        Geometry::from_microns(8.0, 2.0),
    );
    b.add_transistor(
        TransistorKind::PEnhancement,
        inp,
        drv,
        vdd,
        Geometry::from_microns(16.0, 2.0),
    );
    let mut mesh = vec![drv];
    for i in 0..nodes {
        let kind = if i + 1 == nodes {
            NodeKind::Output
        } else {
            NodeKind::Internal
        };
        let n = b.node(&format!("m{i}"), kind);
        b.set_capacitance(n, Farads::from_femto(20.0 + (next() % 1000) as f64 * 0.1));
        let from = mesh[next() as usize % mesh.len()];
        b.add_transistor(
            TransistorKind::NEnhancement,
            ctl,
            from,
            n,
            Geometry::from_microns(8.0, 2.0),
        );
        mesh.push(n);
    }
    b.build().expect("both rails are present")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let cfg = RandomNetworkConfig {
            seed: 42,
            ..RandomNetworkConfig::default()
        };
        let a = random_network(cfg).unwrap();
        let b = random_network(cfg).unwrap();
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.transistor_count(), b.transistor_count());
        for ((_, ta), (_, tb)) in a.transistors().zip(b.transistors()) {
            assert_eq!(ta, tb);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = random_network(RandomNetworkConfig {
            seed: 1,
            ..Default::default()
        })
        .unwrap();
        let b = random_network(RandomNetworkConfig {
            seed: 2,
            ..Default::default()
        })
        .unwrap();
        let same = a
            .transistors()
            .zip(b.transistors())
            .all(|((_, x), (_, y))| x == y);
        assert!(!same);
    }

    #[test]
    fn no_shorted_channels() {
        for seed in 0..20 {
            let net = random_network(RandomNetworkConfig {
                seed,
                transistors: 50,
                ..Default::default()
            })
            .unwrap();
            for (_, t) in net.transistors() {
                assert_ne!(t.source(), t.drain());
            }
        }
    }

    #[test]
    fn has_inputs_and_output() {
        let net = random_network(RandomNetworkConfig::default()).unwrap();
        assert!(!net.inputs().is_empty());
        assert!(!net.outputs().is_empty());
    }

    #[test]
    fn rejects_degenerate_configs() {
        assert!(random_network(RandomNetworkConfig {
            nodes: 1,
            ..Default::default()
        })
        .is_err());
        assert!(random_network(RandomNetworkConfig {
            transistors: 0,
            ..Default::default()
        })
        .is_err());
    }
}
