//! The ordering invariant region-bounded path search relies on: every
//! node lists its channel devices in strictly ascending transistor id,
//! whether the network was built, parsed from `.sim` text, or edited.

use mosnet::diff::{apply, apply_edits, diff, Edit, TransistorDesc};
use mosnet::generators::{decoder, memory_array, random_network, RandomNetworkConfig, Style};
use mosnet::units::Farads;
use mosnet::{sim_format, Geometry, Network, TransistorKind};

fn assert_ascending(net: &Network, what: &str) {
    for (id, node) in net.nodes() {
        let devices = net.channel_neighbors(id);
        assert!(
            devices.windows(2).all(|w| w[0] < w[1]),
            "{what}: `{}` lists {devices:?}",
            node.name()
        );
    }
}

fn random(seed: u64, nodes: usize) -> Network {
    random_network(RandomNetworkConfig {
        nodes,
        transistors: 3 * nodes,
        style: if seed.is_multiple_of(2) {
            Style::Cmos
        } else {
            Style::Nmos
        },
        seed,
    })
    .expect("random network builds")
}

fn generated() -> Vec<Network> {
    let load = Farads::from_femto(50.0);
    vec![
        decoder(Style::Cmos, 4, load).expect("decoder builds"),
        memory_array(Style::Nmos, 4, 4, load).expect("array builds"),
    ]
}

#[test]
fn built_networks_list_channel_devices_in_id_order() {
    for seed in 0..40 {
        assert_ascending(&random(seed, 6 + seed as usize % 20), "built");
    }
    for net in generated() {
        assert_ascending(&net, net.name());
    }
}

#[test]
fn parsed_networks_list_channel_devices_in_id_order() {
    let mut nets: Vec<Network> = (0..20).map(|seed| random(seed, 12)).collect();
    nets.extend(generated());
    for net in nets {
        let parsed = sim_format::parse(&sim_format::write(&net), "roundtrip.sim")
            .expect("written netlist parses");
        assert_ascending(&parsed, "parsed");
    }
}

#[test]
fn edited_networks_list_channel_devices_in_id_order() {
    for seed in 0..20 {
        let (a, b) = (random(seed, 10), random(seed + 100, 14));
        let edited = apply(&a, &diff(&a, &b)).expect("diff applies");
        assert_ascending(&edited, "diff-applied");
    }
    let base = decoder(Style::Cmos, 3, Farads::from_femto(50.0)).expect("decoder builds");
    let edits = [
        Edit::Add(TransistorDesc {
            kind: TransistorKind::NEnhancement,
            gate: "a0".into(),
            source: "w0".into(),
            drain: "gnd".into(),
            geometry: Geometry::from_microns(4.0, 2.0),
        }),
        Edit::Remove {
            gate: "nw1".into(),
            source: "w1".into(),
            drain: "gnd".into(),
        },
        Edit::Add(TransistorDesc {
            kind: TransistorKind::PEnhancement,
            gate: "a1".into(),
            source: "vdd".into(),
            drain: "w1".into(),
            geometry: Geometry::from_microns(8.0, 2.0),
        }),
    ];
    let edited = apply_edits(&base, &edits).expect("edits apply");
    assert_ne!(edited.transistor_count(), base.transistor_count());
    assert_ascending(&edited, "edit-applied");
}
