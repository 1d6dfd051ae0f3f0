//! Human-readable critical-path reports.

use crate::analyzer::TimingResult;
use mosnet::{Network, NodeId};
use std::fmt::Write as _;

/// Formats the critical path ending at `node` as an aligned table of
/// `node  arrival(ns)  transition(ns)  edge` rows, latest last — the
/// report a user reads after an analysis run.
///
/// Nodes without an arrival simply do not appear; if `node` itself never
/// switches, the report says so.
pub fn critical_path_report(net: &Network, result: &TimingResult, node: NodeId) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "critical path to `{}` ({} model)",
        net.node(node).name(),
        result.model()
    );
    if result.arrival(node).is_none() {
        let _ = writeln!(out, "  (node never switches in this scenario)");
        return out;
    }
    let mut path = result.critical_path(node);
    path.reverse(); // earliest first
    let _ = writeln!(
        out,
        "  {:<16} {:>12} {:>14} {:>8}",
        "node", "arrival (ns)", "transition (ns)", "edge"
    );
    for n in path {
        if let Some(a) = result.arrival(n) {
            let _ = writeln!(
                out,
                "  {:<16} {:>12.4} {:>14.4} {:>8}",
                net.node(n).name(),
                a.time.nanos(),
                a.transition.nanos(),
                a.edge.name()
            );
        }
    }
    out
}

/// Formats every arrival in the result, sorted by time — the full
/// "timing report" view.
pub fn full_report(net: &Network, result: &TimingResult) -> String {
    let mut rows: Vec<(NodeId, f64, f64, crate::analyzer::Edge)> = result
        .arrivals()
        .map(|(id, a)| (id, a.time.nanos(), a.transition.nanos(), a.edge))
        .collect();
    rows.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite times"));
    let mut out = String::new();
    let _ = writeln!(out, "arrivals ({} model)", result.model());
    let _ = writeln!(
        out,
        "  {:<16} {:>12} {:>14} {:>8}",
        "node", "arrival (ns)", "transition (ns)", "edge"
    );
    for (id, t, tr, e) in rows {
        let _ = writeln!(
            out,
            "  {:<16} {:>12.4} {:>14.4} {:>8}",
            net.node(id).name(),
            t,
            tr,
            e.name()
        );
    }
    // Only analyses run with a stage cache carry statistics; reports for
    // uncached runs are unchanged.
    if let Some(stats) = result.cache_stats() {
        let _ = writeln!(
            out,
            "stage cache: {} hits, {} misses, {} evictions ({:.1}% hit rate)",
            stats.hits,
            stats.misses,
            stats.evictions,
            stats.hit_rate() * 100.0
        );
    }
    // Likewise, only results produced by an incremental re-analysis
    // carry invalidation accounting.
    if let Some(inc) = result.incremental() {
        let _ = writeln!(
            out,
            "incremental: {} target(s)/{} stage(s) re-evaluated, {} target(s)/{} stage(s) reused, {} round(s)",
            inc.invalidated_targets,
            inc.invalidated_stages,
            inc.reused_targets,
            inc.reused_stages,
            inc.rounds
        );
    }
    out
}

/// Formats a slack report: with a required arrival time (e.g. the clock
/// period minus setup), every primary output's slack, worst first.
/// Negative slack marks a violated path.
pub fn slack_report(
    net: &Network,
    result: &TimingResult,
    required: mosnet::units::Seconds,
) -> String {
    let mut rows: Vec<(NodeId, f64, f64)> = net
        .outputs()
        .into_iter()
        .filter_map(|out| {
            result
                .arrival(out)
                .map(|a| (out, a.time.nanos(), required.nanos() - a.time.nanos()))
        })
        .collect();
    rows.sort_by(|a, b| a.2.partial_cmp(&b.2).expect("finite slacks"));
    let mut text = String::new();
    let _ = writeln!(
        text,
        "slack vs required {:.4} ns ({} model)",
        required.nanos(),
        result.model()
    );
    let _ = writeln!(
        text,
        "  {:<16} {:>12} {:>12} {:>9}",
        "output", "arrival (ns)", "slack (ns)", "status"
    );
    for (node, arrival, slack) in rows {
        let _ = writeln!(
            text,
            "  {:<16} {:>12.4} {:>12.4} {:>9}",
            net.node(node).name(),
            arrival,
            slack,
            if slack >= 0.0 { "met" } else { "VIOLATED" }
        );
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::{analyze, Edge, Scenario};
    use crate::models::ModelKind;
    use crate::tech::Technology;
    use mosnet::generators::{inverter_chain, Style};
    use mosnet::units::Farads;

    #[test]
    fn report_contains_path_nodes_in_order() {
        let net = inverter_chain(Style::Cmos, 3, 1.0, Farads::from_femto(100.0)).unwrap();
        let inp = net.node_by_name("in").unwrap();
        let out = net.node_by_name("out").unwrap();
        let result = analyze(
            &net,
            &Technology::nominal(),
            ModelKind::Slope,
            &Scenario::step(inp, Edge::Rising),
        )
        .unwrap();
        let text = critical_path_report(&net, &result, out);
        assert!(text.contains("slope model"));
        // Search row labels only (rows start with two spaces + name + pad).
        let body = text.split_once("edge\n").expect("header present").1;
        let pos = |s: &str| {
            body.find(&format!("  {s} "))
                .unwrap_or_else(|| panic!("missing row {s}"))
        };
        assert!(pos("in") < pos("s1"));
        assert!(pos("s1") < pos("s2"));
        assert!(pos("s2") < pos("out"));
    }

    #[test]
    fn report_handles_missing_arrival() {
        let net = inverter_chain(Style::Cmos, 2, 1.0, Farads::from_femto(100.0)).unwrap();
        let inp = net.node_by_name("in").unwrap();
        let result = analyze(
            &net,
            &Technology::nominal(),
            ModelKind::Lumped,
            &Scenario::step(inp, Edge::Rising),
        )
        .unwrap();
        // Ask about a node that never switches: the power rail.
        let text = critical_path_report(&net, &result, net.power());
        assert!(text.contains("never switches"));
    }

    #[test]
    fn slack_report_flags_violations() {
        let net = inverter_chain(Style::Cmos, 3, 1.0, Farads::from_femto(100.0)).unwrap();
        let inp = net.node_by_name("in").unwrap();
        let result = analyze(
            &net,
            &Technology::nominal(),
            ModelKind::Slope,
            &Scenario::step(inp, Edge::Rising),
        )
        .unwrap();
        let out = net.node_by_name("out").unwrap();
        let arrival = result.delay_to(&net, out).unwrap().time;
        // Generous requirement: met.
        let relaxed = slack_report(&net, &result, arrival * 2.0);
        assert!(relaxed.contains("met"));
        assert!(!relaxed.contains("VIOLATED"));
        // Impossible requirement: violated.
        let tight = slack_report(&net, &result, arrival * 0.5);
        assert!(tight.contains("VIOLATED"));
    }

    #[test]
    fn full_report_lists_all_arrivals_sorted() {
        let net = inverter_chain(Style::Cmos, 3, 1.0, Farads::from_femto(100.0)).unwrap();
        let inp = net.node_by_name("in").unwrap();
        let result = analyze(
            &net,
            &Technology::nominal(),
            ModelKind::RcTree,
            &Scenario::step(inp, Edge::Rising),
        )
        .unwrap();
        let text = full_report(&net, &result);
        // 4 arrivals (in, s1, s2, out) + 2 header lines.
        assert_eq!(text.lines().count(), 6);
    }

    #[test]
    fn full_report_appends_cache_line_only_when_cached() {
        use crate::analyzer::{analyze_with_options, AnalyzerOptions};
        use crate::memo::StageCache;
        use std::sync::Arc;
        let net = inverter_chain(Style::Cmos, 3, 1.0, Farads::from_femto(100.0)).unwrap();
        let inp = net.node_by_name("in").unwrap();
        let scenario = Scenario::step(inp, Edge::Rising);
        let options = AnalyzerOptions {
            cache: Some(Arc::new(StageCache::new())),
            ..AnalyzerOptions::default()
        };
        let cached = analyze_with_options(
            &net,
            &Technology::nominal(),
            ModelKind::Slope,
            &scenario,
            options,
        )
        .unwrap();
        let text = full_report(&net, &cached);
        assert!(text.contains("stage cache:"), "{text}");
        assert!(text.contains("hit rate"), "{text}");
        // 4 arrivals + 2 headers + 1 cache line.
        assert_eq!(text.lines().count(), 7);
    }

    #[test]
    fn full_report_appends_incremental_line_only_after_edits() {
        use crate::analyzer::AnalyzerOptions;
        use crate::incremental::IncrementalAnalyzer;
        use mosnet::diff::Edit;
        use mosnet::Geometry;
        let net = inverter_chain(Style::Cmos, 3, 1.0, Farads::from_femto(100.0)).unwrap();
        let inp = net.node_by_name("in").unwrap();
        let scenario = Scenario::step(inp, Edge::Rising);
        let mut analyzer = IncrementalAnalyzer::new(
            net,
            Technology::nominal(),
            ModelKind::Slope,
            vec![("t".to_string(), scenario)],
            AnalyzerOptions::default(),
        )
        .unwrap();
        // The initial full analysis carries no incremental accounting.
        let text = full_report(analyzer.network(), analyzer.result("t").unwrap());
        assert!(!text.contains("incremental:"), "{text}");
        analyzer
            .apply_edit(&Edit::Resize {
                gate: "s2".to_string(),
                source: "out".to_string(),
                drain: "gnd".to_string(),
                geometry: Geometry::from_microns(6.0, 2.0),
            })
            .unwrap();
        let text = full_report(analyzer.network(), analyzer.result("t").unwrap());
        assert!(text.contains("incremental:"), "{text}");
        assert!(text.contains("reused"), "{text}");
        // 4 arrivals + 2 headers + 1 incremental line.
        assert_eq!(text.lines().count(), 7);
    }
}
