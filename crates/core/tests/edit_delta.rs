//! The incremental delta against a full scan: seeded random `cap`,
//! `resize`, `add` and `remove` scripts through a [`Session`] on
//! decoder-5 and SRAM-8×8, and renumbering and reordering
//! `replace_network`s. After
//! every edit each scenario's `changed` list must equal a diff of the
//! pre- and post-edit results over every node, each result must equal a
//! fresh analysis, and the session digest must equal one recomputed
//! from every result.

use crystal::analyzer::{analyze_with_options, AnalyzerOptions, Arrival, TimingResult};
use crystal::durable::JournalFaultPlan;
use crystal::fingerprint::{result_digest, Fnv64, SplitMix64};
use crystal::incremental::{ArrivalChange, DeltaReport, IncrementalAnalyzer};
use crystal::models::ModelKind;
use crystal::selfcheck::standard_scenarios;
use crystal::session::{Session, SessionConfig};
use crystal::tech::Technology;
use mosnet::diff::{apply_edit, Edit};
use mosnet::generators::{decoder, memory_array, Style};
use mosnet::units::{Farads, Seconds};
use mosnet::Network;
use std::collections::HashMap;

/// Every scenario's result, in session order.
fn results(analyzer: &IncrementalAnalyzer) -> Vec<(String, TimingResult)> {
    (analyzer.labels())
        .map(|label| (label.to_string(), analyzer.result(label).unwrap().clone()))
        .collect()
}

/// The arrival changes from `(old_net, old)` to `(new_net, new)` over
/// every node of both networks, matched by name and compared bit for
/// bit, causes by name, in name order.
fn full_scan(
    old_net: &Network,
    old: &TimingResult,
    new_net: &Network,
    new: &TimingResult,
) -> Vec<ArrivalChange> {
    let same = |x: Option<&Arrival>, y: Option<&Arrival>| match (x, y) {
        (Some(x), Some(y)) => {
            x.time.value().to_bits() == y.time.value().to_bits()
                && x.transition.value().to_bits() == y.transition.value().to_bits()
                && (x.edge, x.model) == (y.edge, y.model)
                && x.cause.map(|c| old_net.node(c).name())
                    == y.cause.map(|c| new_net.node(c).name())
        }
        (x, y) => x.is_none() && y.is_none(),
    };
    let mut changes = Vec::new();
    let mut change = |node: &str, before: Option<&Arrival>, after: Option<&Arrival>| {
        if !same(before, after) {
            changes.push(ArrivalChange {
                node: node.to_string(),
                before: before.copied(),
                after: after.copied(),
            });
        }
    };
    for (id, node) in new_net.nodes() {
        let before = old_net
            .node_by_name(node.name())
            .and_then(|o| old.arrival(o));
        change(node.name(), before, new.arrival(id));
    }
    for (o, a) in old.arrivals() {
        let name = old_net.node(o).name();
        if new_net.node_by_name(name).is_none() {
            change(name, Some(a), None);
        }
    }
    changes.sort_by(|x, y| x.node.cmp(&y.node));
    changes
}

/// Targets that entered and left the switching set, over a report.
#[derive(Default)]
struct Seen {
    entered: usize,
    left: usize,
}

/// Checks one edit's report: every delta against the full scan, every
/// result against a fresh analysis.
fn check_edit(
    what: &str,
    before: (&Network, &[(String, TimingResult)]),
    analyzer: &IncrementalAnalyzer,
    report: &DeltaReport,
    seen: &mut Seen,
) {
    let (old_net, old) = before;
    let net = analyzer.network();
    assert_eq!(report.scenarios.len(), old.len());
    for (delta, (label, old)) in report.scenarios.iter().zip(old) {
        assert_eq!(&delta.label, label);
        let new = analyzer.result(label).unwrap();
        assert_eq!(
            delta.changed,
            full_scan(old_net, old, net, new),
            "`{label}` delta after {what}"
        );
        for change in &delta.changed {
            match (change.before, change.after) {
                (None, Some(_)) => seen.entered += 1,
                (Some(_), None) => seen.left += 1,
                _ => {}
            }
        }
        let fresh = analyze_with_options(
            net,
            &Technology::nominal(),
            ModelKind::Slope,
            &analyzer.scenario(label).unwrap(),
            AnalyzerOptions::default(),
        )
        .expect("fresh analysis succeeds");
        assert_eq!(new, &fresh, "`{label}` diverged after {what}");
    }
}

/// The session digest recomputed from every result.
fn recomputed_digest(session: &Session) -> u64 {
    let analyzer = session.analyzer();
    let mut h = Fnv64::new();
    for (label, result) in results(analyzer) {
        h.write(label.as_bytes());
        h.write(&[0]);
        h.write_u64(result_digest(analyzer.network(), &result));
    }
    h.finish()
}

/// One random edit script line against `net`: mostly `cap` and
/// `resize`, with `add` and the `remove` of an earlier add.
fn random_edit(
    net: &Network,
    rng: &mut SplitMix64,
    step: usize,
    added: &mut Vec<String>,
) -> String {
    let names: Vec<&str> = (net.nodes())
        .filter(|(_, n)| !n.kind().is_rail())
        .map(|(_, n)| n.name())
        .collect();
    let mut pick = |len: usize| (rng.next_u64() % len as u64) as usize;
    match pick(8) {
        0..=2 => format!("cap {} {}", names[pick(names.len())], 5 + pick(60)),
        3 | 4 => {
            let (_, t) = net.transistors().nth(pick(net.transistor_count())).unwrap();
            let name = |id| net.node(id).name();
            let width = [2.0, 3.0, 4.5, 6.0, 9.0][pick(5)];
            let (g, s, d) = (name(t.gate()), name(t.source()), name(t.drain()));
            format!("resize {g} {s} {d} {width} 2")
        }
        5 if !added.is_empty() => {
            let site = added.swap_remove(pick(added.len()));
            format!("remove {site}")
        }
        _ => {
            let gate = names[pick(names.len())];
            let source = if pick(2) == 0 {
                format!("x{step}")
            } else {
                names[pick(names.len())].to_string()
            };
            let site = format!("{gate} {source} gnd");
            // Every earlier add on this site goes with one remove.
            added.retain(|s| *s != site);
            added.push(site.clone());
            format!("add n {site} 3 2")
        }
    }
}

/// Seeded random scripts through a session over `net`: checks every
/// edit and returns how often targets entered and left.
fn random_session(net: &Network, seed: u64, edits: usize) -> Seen {
    let inputs = net.inputs();
    let config = SessionConfig {
        // Every other input held high, so scenarios differ in which
        // parts of the circuit conduct.
        statics: (inputs.iter().enumerate())
            .filter(|(k, _)| k % 2 == 1)
            .map(|(_, &id)| (net.node(id).name().to_string(), true))
            .collect(),
        ..SessionConfig::default()
    };
    let mut session = Session::open(
        "delta",
        &mosnet::sim_format::write(net),
        "delta.sim",
        &Technology::nominal(),
        &config,
        AnalyzerOptions::default(),
        None,
        &JournalFaultPlan::none(),
    )
    .expect("session opens");
    assert_eq!(session.digest(), recomputed_digest(&session));
    let mut rng = SplitMix64::new(seed);
    let mut added = Vec::new();
    let mut seen = Seen::default();
    for step in 0..edits {
        let script = random_edit(session.analyzer().network(), &mut rng, step, &mut added);
        let old_net = session.analyzer().network().clone();
        let old = results(session.analyzer());
        let (report, digest) = session
            .apply_script(&script, None)
            .unwrap_or_else(|e| panic!("`{script}`: {e}"));
        check_edit(
            &script,
            (&old_net, &old),
            session.analyzer(),
            &report,
            &mut seen,
        );
        assert_eq!(digest, session.digest());
        assert_eq!(
            digest,
            recomputed_digest(&session),
            "digest after `{script}`"
        );
    }
    seen
}

#[test]
fn decoder_edit_deltas_match_a_full_scan() {
    let net = decoder(Style::Cmos, 5, Farads::from_femto(50.0)).unwrap();
    let seen = random_session(&net, 5, 24);
    assert!(
        seen.entered > 0 && seen.left > 0,
        "targets entered and left"
    );
}

#[test]
fn sram_edit_deltas_match_a_full_scan() {
    let net = memory_array(Style::Cmos, 8, 8, Farads::from_femto(30.0)).unwrap();
    random_session(&net, 8, 16);
}

/// `net` written as `.sim` text with every device line reversed, then
/// parsed back: the same circuit with every node's devices listed in the
/// opposite order, so every node sums its loads in the opposite order.
/// With `rename`, the input, output and capacitance lines are reversed
/// and moved ahead of the devices too. Either way the nodes are
/// renumbered in their new order of first appearance.
fn rewritten(net: &Network, rename: bool) -> Network {
    let text = mosnet::sim_format::write(net);
    let (devices, rest): (Vec<&str>, Vec<&str>) =
        text.lines().partition(|line| line.starts_with(['n', 'p']));
    let (mut named, header): (Vec<&str>, Vec<&str>) = rest
        .into_iter()
        .partition(|line| line.starts_with(['i', 'o', 'C']));
    if rename {
        named.reverse();
    }
    let lines: Vec<&str> = (header.into_iter())
        .chain(named)
        .chain(devices.into_iter().rev())
        .collect();
    mosnet::sim_format::parse(&lines.join("\n"), "rewritten.sim").expect("reparses")
}

#[test]
fn renumbered_replacement_delta_matches_a_full_scan() {
    let net = decoder(Style::Cmos, 5, Farads::from_femto(50.0)).unwrap();
    let scenarios = standard_scenarios(&net, &HashMap::new(), Seconds::ZERO);
    let mut analyzer = IncrementalAnalyzer::new(
        net.clone(),
        Technology::nominal(),
        ModelKind::Slope,
        scenarios,
        AnalyzerOptions::default(),
    )
    .expect("session builds");
    let cap = |node: &str, femto: f64| Edit::SetCapacitance {
        node: node.to_string(),
        capacitance: Farads::from_femto(femto),
    };
    // A cap edit in a renamed and reordered file, then one in a file
    // that only reorders its devices: the word lines' load sums move in
    // their last bits where no edit touched them.
    for (what, rename, edit) in [
        ("a renumbering replacement", true, cap("w1", 140.0)),
        ("a reordering replacement", false, cap("w2", 90.0)),
    ] {
        let (old_net, old) = (analyzer.network().clone(), results(&analyzer));
        let next = rewritten(&apply_edit(&old_net, &edit).unwrap(), rename);
        assert_ne!(
            next.node_by_name("w1"),
            old_net.node_by_name("w1"),
            "ids moved"
        );
        let report = analyzer.replace_network(next).expect("replacement applies");
        assert_eq!(report.netlist_changes, 1, "{what}");
        assert!(report.total_changed() > 0, "{what} moves arrivals");
        check_edit(
            what,
            (&old_net, &old),
            &analyzer,
            &report,
            &mut Seen::default(),
        );
    }

    // Reordering alone diffs empty, yet the session must take the new
    // network and every result must match a fresh analysis of it.
    let (old_net, old) = (analyzer.network().clone(), results(&analyzer));
    let next = rewritten(&old_net, false);
    let first = |net: &Network| {
        let (_, t) = net.transistors().next().unwrap();
        [t.gate(), t.source(), t.drain()].map(|id| net.node(id).name().to_string())
    };
    assert_ne!(first(&next), first(&old_net), "devices moved");
    let report = analyzer
        .replace_network(next.clone())
        .expect("reordering applies");
    assert_eq!(report.netlist_changes, 0);
    assert_eq!(
        first(analyzer.network()),
        first(&next),
        "the session took it"
    );
    check_edit(
        "a reordering-only replacement",
        (&old_net, &old),
        &analyzer,
        &report,
        &mut Seen::default(),
    );
}
