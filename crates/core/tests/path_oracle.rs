//! Differential oracle for stage path enumeration: the region-bounded
//! `mosnet::graph::channel_paths` that extraction uses must return the
//! very paths, in the very order, of an unbounded depth-first search
//! rooted at the source, including where `MAX_PATHS` truncates.

use crystal::extract::MAX_PATHS;
use crystal::fingerprint::SplitMix64;
use mosnet::generators::{random_network, RandomNetworkConfig, Style};
use mosnet::graph::channel_paths;
use mosnet::network::NetworkBuilder;
use mosnet::units::Farads;
use mosnet::{Geometry, Network, NodeId, NodeKind, TransistorId, TransistorKind};

/// The unbounded reference: a depth-first search from `from` over every
/// conducting device, never routing through a rail.
fn reference_paths(
    net: &Network,
    conducting: &dyn Fn(TransistorId) -> bool,
    from: NodeId,
    to: NodeId,
    limit: usize,
) -> Vec<Vec<TransistorId>> {
    #[allow(clippy::too_many_arguments)]
    fn dfs(
        net: &Network,
        conducting: &dyn Fn(TransistorId) -> bool,
        at: NodeId,
        to: NodeId,
        limit: usize,
        visited: &mut [bool],
        stack: &mut Vec<TransistorId>,
        paths: &mut Vec<Vec<TransistorId>>,
    ) {
        if paths.len() >= limit {
            return;
        }
        if at == to {
            paths.push(stack.clone());
            return;
        }
        if (at == net.power() || at == net.ground()) && !stack.is_empty() {
            return;
        }
        for &tid in net.channel_neighbors(at) {
            if !conducting(tid) {
                continue;
            }
            let other = net.transistor(tid).other_terminal(at);
            if visited[other.index()] {
                continue;
            }
            visited[other.index()] = true;
            stack.push(tid);
            dfs(net, conducting, other, to, limit, visited, stack, paths);
            stack.pop();
            visited[other.index()] = false;
        }
    }
    let mut paths = Vec::new();
    let mut visited = vec![false; net.node_count()];
    visited[from.index()] = true;
    dfs(
        net,
        conducting,
        from,
        to,
        limit,
        &mut visited,
        &mut Vec::new(),
        &mut paths,
    );
    paths
}

/// A seeded conducting mask: each device conducts with probability
/// `permille / 1000`.
fn mask(net: &Network, rng: &mut SplitMix64, permille: u64) -> Vec<bool> {
    (0..net.transistor_count())
        .map(|_| rng.next_below(1000) < permille)
        .collect()
}

/// Compares both enumerators for every `(from, to)` pair, at the stage
/// cap and at a small cap that truncates early. Returns how many pairs
/// had at least one path.
fn compare(net: &Network, on: &[bool], pairs: &[(NodeId, NodeId)], what: &str) -> usize {
    let conducting = |tid: TransistorId| on[tid.index()];
    let mut connected = 0;
    for &(from, to) in pairs {
        for limit in [MAX_PATHS, 3] {
            let want = reference_paths(net, &conducting, from, to, limit);
            let got = channel_paths(net, &conducting, from, to, limit);
            assert_eq!(
                got,
                want,
                "{what}: {} -> {} (limit {limit})",
                net.node(from).name(),
                net.node(to).name()
            );
            connected += usize::from(limit == MAX_PATHS && !want.is_empty());
        }
    }
    connected
}

/// Sources and targets: both rails to every node, every node to both
/// rails, rail to rail, and a few node-to-node pairs.
fn pairs(net: &Network, rng: &mut SplitMix64) -> Vec<(NodeId, NodeId)> {
    let (vdd, gnd) = (net.power(), net.ground());
    let mut pairs = vec![(vdd, gnd), (gnd, vdd), (vdd, vdd)];
    for (id, _) in net.nodes() {
        if id == vdd || id == gnd {
            continue;
        }
        pairs.extend([(vdd, id), (gnd, id), (id, vdd), (id, gnd)]);
        let other = NodeId::from_index(rng.next_below(net.node_count() as u64) as usize);
        pairs.push((id, other));
    }
    pairs
}

#[test]
fn random_networks_match_the_unbounded_search() {
    let mut rng = SplitMix64::new(0x5eed_0012);
    let mut connected = 0;
    for seed in 0..120u64 {
        let nodes = 4 + rng.next_below(16) as usize;
        let config = RandomNetworkConfig {
            nodes,
            transistors: nodes + rng.next_below(nodes as u64) as usize,
            style: if seed.is_multiple_of(2) {
                Style::Cmos
            } else {
                Style::Nmos
            },
            seed,
        };
        let net = random_network(config).expect("random network builds");
        let pairs = pairs(&net, &mut rng);
        for permille in [300, 600, 900, 1000] {
            let on = mask(&net, &mut rng, permille);
            connected += compare(&net, &on, &pairs, &format!("seed {seed} p{permille}"));
        }
    }
    assert!(connected > 1000, "only {connected} connected pairs");
}

/// A `side × side` grid of pass devices, both rails tied to every fifth
/// grid node, with devices created in a seeded shuffled order so rail
/// devices and grid devices interleave in id order.
fn rail_mesh(side: usize, seed: u64) -> Network {
    let mut rng = SplitMix64::new(seed);
    let mut b = NetworkBuilder::new("rail-mesh");
    let vdd = b.power();
    let gnd = b.ground();
    let g = b.node("g", NodeKind::Input);
    let grid: Vec<NodeId> = (0..side * side)
        .map(|i| {
            let n = b.node(&format!("m{i}"), NodeKind::Internal);
            b.set_capacitance(n, Farads::from_femto(10.0));
            n
        })
        .collect();
    let mut devices = Vec::new();
    for r in 0..side {
        for c in 0..side {
            let here = grid[r * side + c];
            if c + 1 < side {
                devices.push((here, grid[r * side + c + 1]));
            }
            if r + 1 < side {
                devices.push((here, grid[(r + 1) * side + c]));
            }
            if (r * side + c).is_multiple_of(5) {
                devices.push((vdd, here));
                devices.push((gnd, here));
            }
        }
    }
    for i in (1..devices.len()).rev() {
        devices.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    for (s, d) in devices {
        b.add_transistor(
            TransistorKind::NEnhancement,
            g,
            s,
            d,
            Geometry::from_microns(4.0, 2.0),
        );
    }
    b.build().expect("mesh builds")
}

#[test]
fn meshes_past_the_path_cap_truncate_identically() {
    let mut rng = SplitMix64::new(64);
    for seed in 0..8 {
        let net = rail_mesh(5, seed);
        let far = net.node_by_name("m24").expect("far corner");
        let all_on = vec![true; net.transistor_count()];
        let full = reference_paths(&net, &|_| true, net.ground(), far, MAX_PATHS + 1);
        assert!(
            full.len() > MAX_PATHS,
            "the mesh must overflow the cap to test truncation"
        );
        let pairs = pairs(&net, &mut rng);
        compare(&net, &all_on, &pairs, &format!("mesh {seed} all on"));
        for permille in [500, 800, 950] {
            let on = mask(&net, &mut rng, permille);
            compare(&net, &on, &pairs, &format!("mesh {seed} p{permille}"));
        }
    }
}
