//! Failure injection: every defective input must come back as a clean
//! `Err`, never a panic or a silent wrong answer.

use crystal::analyzer::{analyze, Edge, Scenario};
use crystal::models::ModelKind;
use crystal::tech::Technology;
use mosnet::generators::{random_network, RandomNetworkConfig, Style};
use nanospice::devices::{NodeRef, Waveshape};
use nanospice::engine::Options;
use nanospice::{Circuit, MosModelSet, SimError, Simulator};

#[test]
fn parallel_ideal_sources_report_singular_matrix() {
    // Two ideal voltage sources across the same pair of nodes make the
    // MNA matrix rank-deficient.
    let mut ckt = Circuit::new();
    let a = ckt.add_node("a");
    ckt.add_vsource(a, NodeRef::Ground, Waveshape::Dc(1.0));
    ckt.add_vsource(a, NodeRef::Ground, Waveshape::Dc(2.0));
    let sim = Simulator::new(&ckt);
    assert!(matches!(sim.op(), Err(SimError::SingularMatrix { .. })));
}

#[test]
fn starved_newton_budget_reports_no_convergence() {
    use nanospice::devices::MosParams;
    // A nonlinear circuit cannot settle in a single Newton iteration.
    let mut ckt = Circuit::new();
    let vdd = ckt.add_node("vdd");
    let inp = ckt.add_node("in");
    let out = ckt.add_node("out");
    ckt.add_vsource(vdd, NodeRef::Ground, Waveshape::Dc(5.0));
    ckt.add_vsource(inp, NodeRef::Ground, Waveshape::Dc(2.5));
    ckt.add_mosfet(
        out,
        inp,
        NodeRef::Ground,
        8e-6,
        2e-6,
        MosParams::nmos_default(),
    );
    ckt.add_mosfet(out, inp, vdd, 16e-6, 2e-6, MosParams::pmos_default());
    let sim = Simulator::with_options(
        &ckt,
        Options {
            max_nr_iterations: 1,
            ..Options::default()
        },
    );
    assert!(matches!(sim.op(), Err(SimError::NoConvergence { .. })));
}

#[test]
fn bad_device_reference_is_reported_before_solving() {
    let mut ckt = Circuit::new();
    let a = ckt.add_node("a");
    ckt.add_resistor(a, NodeRef::Node(999), 100.0);
    let sim = Simulator::new(&ckt);
    assert!(matches!(sim.op(), Err(SimError::BadNode { index: 999 })));
    assert!(matches!(
        sim.transient(1e-9, 1e-12),
        Err(SimError::BadNode { index: 999 })
    ));
}

#[test]
fn rescue_ladder_recovers_starved_operating_points() {
    use nanospice::devices::MosParams;
    use nanospice::RecoveryPolicy;
    // Inverter bias points across the transfer curve: healthy defaults
    // converge, a one-iteration Newton budget does not, and the rescue
    // ladder must close the gap and name the winning strategy.
    for vin in [0.5, 2.0, 2.5, 3.0, 4.5] {
        let mut ckt = Circuit::new();
        let vdd = ckt.add_node("vdd");
        let inp = ckt.add_node("in");
        let out = ckt.add_node("out");
        ckt.add_vsource(vdd, NodeRef::Ground, Waveshape::Dc(5.0));
        ckt.add_vsource(inp, NodeRef::Ground, Waveshape::Dc(vin));
        ckt.add_mosfet(
            out,
            inp,
            NodeRef::Ground,
            8e-6,
            2e-6,
            MosParams::nmos_default(),
        );
        ckt.add_mosfet(out, inp, vdd, 16e-6, 2e-6, MosParams::pmos_default());
        let healthy = Simulator::new(&ckt)
            .op()
            .expect("healthy defaults converge");
        let starved = Simulator::with_options(
            &ckt,
            Options {
                max_nr_iterations: 1,
                ..Options::default()
            },
        );
        assert!(
            matches!(starved.op(), Err(SimError::NoConvergence { .. })),
            "vin={vin}: the starved budget should fail on its own"
        );
        let (rescued, log) = starved
            .op_recovered(&RecoveryPolicy::default())
            .unwrap_or_else(|e| panic!("vin={vin}: rescue ladder failed: {e}"));
        assert!(log.needed_rescue(), "vin={vin}");
        let strategy = log.succeeded_with().expect("a strategy won");
        assert!(!strategy.to_string().is_empty());
        for (a, b) in rescued.iter().zip(&healthy) {
            assert!(
                (a - b).abs() < 1e-3,
                "vin={vin}: rescued {a} vs healthy {b}"
            );
        }
    }
}

/// A random 24-transistor pass mesh: a CMOS inverter anchors the mesh to
/// the rails, and every mesh node hangs off a randomly chosen earlier
/// node through an n-pass device gated by `ctl`. With `ctl` high, a
/// rising input drains the whole mesh through the inverter's pull-down —
/// two dozen switching nodes for the budget to interrupt.
fn random_pass_mesh(seed: u64) -> mosnet::Network {
    use mosnet::network::NetworkBuilder;
    use mosnet::units::Farads;
    use mosnet::{Geometry, NodeKind, TransistorKind};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
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
    let mut nodes = vec![drv];
    for i in 0..22 {
        let kind = if i == 21 {
            NodeKind::Output
        } else {
            NodeKind::Internal
        };
        let n = b.node(&format!("m{i}"), kind);
        b.set_capacitance(n, Farads::from_femto(rng.gen_range(20.0..120.0)));
        let from = nodes[rng.gen_range(0..nodes.len())];
        b.add_transistor(
            TransistorKind::NEnhancement,
            ctl,
            from,
            n,
            Geometry::from_microns(8.0, 2.0),
        );
        nodes.push(n);
    }
    b.build().expect("pass mesh is a valid network")
}

#[test]
fn budget_exhausted_partial_is_a_prefix_of_the_full_result() {
    use crystal::analyzer::{analyze_with_options, AnalyzerOptions};
    use crystal::budget::AnalysisBudget;
    use crystal::TimingError;
    use std::time::{Duration, Instant};
    // Random 24-transistor pass meshes: a one-evaluation budget must stop
    // the analysis promptly and hand back a non-empty subset of the
    // arrivals an unbudgeted run produces.
    let tech = Technology::nominal();
    for seed in 0..10u64 {
        let net = random_pass_mesh(seed);
        let inp = net.node_by_name("in").unwrap();
        let ctl = net.node_by_name("ctl").unwrap();
        let scenario = Scenario::step(inp, Edge::Rising).with_static(ctl, true);
        let full = analyze(&net, &tech, ModelKind::Slope, &scenario)
            .unwrap_or_else(|e| panic!("seed {seed}: unbudgeted analysis failed: {e}"));
        assert!(
            full.arrivals().count() >= 20,
            "seed {seed}: the whole mesh should switch, got {}",
            full.arrivals().count()
        );
        let options = AnalyzerOptions {
            budget: AnalysisBudget {
                max_stage_evals: Some(1),
                ..AnalysisBudget::default()
            },
            ..AnalyzerOptions::default()
        };
        let started = Instant::now();
        match analyze_with_options(&net, &tech, ModelKind::Slope, &scenario, options) {
            Err(TimingError::BudgetExhausted { partial }) => {
                assert!(
                    started.elapsed() < Duration::from_secs(5),
                    "seed {seed}: budgeted analysis must stop promptly"
                );
                let nodes: Vec<_> = partial.result.arrivals().map(|(n, _)| n).collect();
                assert!(!nodes.is_empty(), "seed {seed}: partial must be non-empty");
                for n in nodes {
                    assert!(
                        full.arrival(n).is_some(),
                        "seed {seed}: partial arrival missing from full result"
                    );
                }
            }
            Ok(_) => panic!("seed {seed}: a 1-eval budget cannot finish a 24-node mesh"),
            Err(e) => panic!("seed {seed}: unexpected error {e}"),
        }
    }
}

#[test]
fn batch_survives_injected_panics() {
    use crystal::durable::{run_durable_with, AttemptOutcome, DurableOptions, Outcome};
    let items: Vec<(String, usize)> = (0..6).map(|i| (format!("scenario{i}"), i)).collect();
    let run = |fail_fast: bool| {
        let durable = DurableOptions {
            fail_fast,
            max_retries: 0,
            ..DurableOptions::default()
        };
        let attempt = |&i: &usize, _: &_, _| {
            if i == 2 {
                panic!("injected panic in scenario {i}");
            }
            AttemptOutcome::Ok {
                digest: i as u64,
                summary: "ok".to_string(),
                result: None,
            }
        };
        run_durable_with(&items, 7, attempt, &durable, None).expect("no journal, no I/O")
    };
    // Every scenario after the panic still ran.
    let soft = run(false);
    assert!(!soft.all_ok());
    assert_eq!(soft.count(Outcome::Ok), 5);
    let panicked = &soft.records[2];
    assert_eq!(panicked.label, "scenario2");
    assert_eq!(panicked.outcome, Outcome::Poisoned);
    assert!(
        panicked.summary.contains("injected panic"),
        "{}",
        panicked.summary
    );
    // With fail-fast, the batch stops right after the panic instead.
    let fast = run(true);
    assert_eq!(fast.count(Outcome::Ok), 2);
    assert_eq!(fast.records[2].outcome, Outcome::Poisoned);
    assert_eq!(fast.count(Outcome::Skipped), 3);
    assert!(!fast.interrupted);
}

#[test]
fn analyzer_never_panics_on_random_networks() {
    // Random networks include rail-to-rail shorts, floating gates, and
    // pass meshes; the analyzer must always return cleanly.
    let tech = Technology::nominal();
    for seed in 0..60u64 {
        let net = random_network(RandomNetworkConfig {
            nodes: 14,
            transistors: 24,
            style: if seed % 2 == 0 {
                Style::Cmos
            } else {
                Style::Nmos
            },
            seed,
        })
        .expect("valid config");
        for &input in net.inputs().iter().take(2) {
            for edge in [Edge::Rising, Edge::Falling] {
                for model in ModelKind::ALL {
                    // Any Ok/Err outcome is acceptable; panics are not.
                    let _ = analyze(&net, &tech, model, &Scenario::step(input, edge));
                }
            }
        }
    }
}

#[test]
fn charge_analysis_never_panics_on_random_networks() {
    use std::collections::HashMap;
    let tech = Technology::nominal();
    for seed in 0..30u64 {
        let net = random_network(RandomNetworkConfig {
            seed,
            ..Default::default()
        })
        .expect("valid config");
        let stored: HashMap<_, _> = net
            .nodes()
            .filter(|(_, n)| n.kind() == mosnet::NodeKind::Internal)
            .map(|(id, _)| (id, seed % 2 == 0))
            .collect();
        let _ = crystal::charge::charge_sharing_events(&net, &tech, &HashMap::new(), &stored, 0.1);
    }
}

#[test]
fn simulator_survives_random_networks_or_fails_cleanly() {
    use std::collections::HashMap;
    let models = MosModelSet::default();
    for seed in 0..10u64 {
        let net = random_network(RandomNetworkConfig {
            nodes: 8,
            transistors: 12,
            style: Style::Cmos,
            seed,
        })
        .expect("valid config");
        // Random networks can short the rails through always-on devices;
        // the simulator must still produce a result or a typed error.
        let result = nanospice::NetSim::run(
            &net,
            &models,
            &HashMap::new(),
            mosnet::units::Seconds::from_nanos(1.0),
            mosnet::units::Seconds::from_picos(10.0),
        );
        if let Err(e) = result {
            let rendered = e.to_string();
            assert!(!rendered.is_empty());
        }
    }
}
