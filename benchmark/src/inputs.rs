//! Workload inputs, built from the seed alone. The program under test
//! receives only text: netlists as `.sim`, scenarios by node name, edits
//! in the edit-script grammar.
//!
//! The circuits themselves do not depend on the seed; the seed orders
//! the scenarios, draws input transitions, and writes the edit plans.
//! Every input set is fixed, so no operation is expected to fail. The
//! module also parses the text back, which is each workload's set-up.

use std::time::Instant;

use crystal::analyzer::{Edge, Scenario};
use crystal::fingerprint::SplitMix64;
use crystal::tech::Technology;
use mosnet::generators::{decoder, memory_array, Style};
use mosnet::units::{Farads, Seconds};
use mosnet::Network;

/// The technology every workload analyzes against, as text.
pub const TECH: &str = include_str!("../../examples/netlists/calibrated.tech");

/// Load on every decoder word line and every SRAM bitline.
const LOAD_FF: f64 = 100.0;

/// Input 10–90% transitions (ns) of the STA scenarios.
pub const STA_TRANSITIONS_NS: [f64; 6] = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0];

/// Input transitions (ns) of the reference-measured paths.
pub const SPICE_TRANSITIONS_NS: [f64; 9] = [0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0];

/// A CMOS `bits`-to-`2^bits` decoder as `.sim` text.
pub fn decoder_sim(bits: usize) -> String {
    let net = decoder(Style::Cmos, bits, Farads::from_femto(LOAD_FF))
        .expect("decoder sizes used here are valid");
    mosnet::sim_format::write(&net)
}

/// A CMOS `rows × cols` SRAM array as `.sim` text.
pub fn sram_sim(rows: usize, cols: usize) -> String {
    let net = memory_array(Style::Cmos, rows, cols, Farads::from_femto(LOAD_FF))
        .expect("array sizes used here are valid");
    mosnet::sim_format::write(&net)
}

/// One timing scenario, by node name.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// The switching primary input.
    pub input: String,
    /// `true` for a rising input edge.
    pub rising: bool,
    /// Input 10–90% transition, ns.
    pub transition_ns: f64,
}

impl ScenarioSpec {
    /// A stable key naming the scenario, for grouping repeated runs.
    pub fn key(&self) -> String {
        format!(
            "{} {} {}",
            self.input,
            if self.rising { "rise" } else { "fall" },
            self.transition_ns
        )
    }
}

/// A seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// Every input × edge × transition.
pub fn every_scenario(inputs: &[String], transitions: &[f64]) -> Vec<ScenarioSpec> {
    let mut all = Vec::with_capacity(inputs.len() * 2 * transitions.len());
    for input in inputs {
        for rising in [true, false] {
            for &transition_ns in transitions {
                all.push(ScenarioSpec {
                    input: input.clone(),
                    rising,
                    transition_ns,
                });
            }
        }
    }
    all
}

/// Every input × edge once, each with a transition drawn from
/// `transitions`.
pub fn each_input_edge(
    inputs: &[String],
    transitions: &[f64],
    rng: &mut SplitMix64,
) -> Vec<ScenarioSpec> {
    let mut all = Vec::with_capacity(inputs.len() * 2);
    for input in inputs {
        for rising in [true, false] {
            let drawn = rng.next_below(transitions.len() as u64) as usize;
            all.push(ScenarioSpec {
                input: input.clone(),
                rising,
                transition_ns: transitions[drawn],
            });
        }
    }
    all
}

/// A decoder word line's load, and its driver's device widths and
/// length (µm), as the generator builds them; reverts restore these.
const WORD_LOAD_FF: u64 = LOAD_FF as u64;
const DRIVER_N_W: u64 = 16;
const DRIVER_P_W: u64 = 32;
const DRIVER_L: u64 = 2;

/// One edit on a word line and the edit that restores it.
#[derive(Debug, Clone, PartialEq)]
pub struct EditPair {
    /// Moves the word line away from its base value.
    pub forward: String,
    /// Restores the base value.
    pub revert: String,
}

/// A client's seeded edits on `count` distinct word lines of a decoder
/// with `words` of them: two thirds set the line's capacitance
/// (`cap w<k> FF`), one third resize its driver's n or p device
/// (`resize nw<k> w<k> gnd|vdd W 2`). Applying every forward edit and
/// then every revert returns the netlist to its base text, so passes can
/// alternate the two and every edit repeats from the same state.
pub fn edit_plan(seed: u64, client: usize, words: usize, count: usize) -> Vec<EditPair> {
    let stream = seed ^ (client as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f);
    let mut rng = SplitMix64::new(stream);
    let mut lines: Vec<usize> = (0..words).collect();
    shuffle(&mut lines, &mut rng);
    lines.truncate(count);
    lines
        .into_iter()
        .map(|k| {
            if rng.next_below(3) < 2 {
                EditPair {
                    forward: format!("cap w{k} {}", away(WORD_LOAD_FF, &mut rng)),
                    revert: format!("cap w{k} {WORD_LOAD_FF}"),
                }
            } else {
                let (rail, base) = if rng.next_below(2) == 0 {
                    ("gnd", DRIVER_N_W)
                } else {
                    ("vdd", DRIVER_P_W)
                };
                let device = format!("resize nw{k} w{k} {rail}");
                EditPair {
                    forward: format!("{device} {} {DRIVER_L}", away(base, &mut rng)),
                    revert: format!("{device} {base} {DRIVER_L}"),
                }
            }
        })
        .collect()
}

/// A whole number in `[base/2, 2·base]`, never `base` itself.
fn away(base: u64, rng: &mut SplitMix64) -> u64 {
    let v = base / 2 + rng.next_below(base + base / 2);
    if v >= base {
        v + 1
    } else {
        v
    }
}

/// Parses the technology and the netlist: the workload's set-up.
/// Returns the parse time of the netlist alone as well.
pub fn load(text: &str, file: &str) -> Result<(Technology, Network, f64), String> {
    let tech = crystal::tech_format::parse(TECH).map_err(|e| format!("tech: {e}"))?;
    let started = Instant::now();
    let net = mosnet::sim_format::parse(text, file).map_err(|e| format!("{file}: {e}"))?;
    Ok((tech, net, started.elapsed().as_secs_f64()))
}

/// The analyzer scenario a spec names.
pub fn scenario(net: &Network, spec: &ScenarioSpec) -> Result<Scenario, String> {
    let input = net
        .node_by_name(&spec.input)
        .ok_or_else(|| format!("no input `{}`", spec.input))?;
    let edge = if spec.rising {
        Edge::Rising
    } else {
        Edge::Falling
    };
    Ok(Scenario::step(input, edge).with_input_transition(Seconds::from_nanos(spec.transition_ns)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(prefix: &str, n: usize) -> Vec<String> {
        (0..n).map(|i| format!("{prefix}{i}")).collect()
    }

    #[test]
    fn netlists_are_byte_identical_across_builds() {
        assert_eq!(decoder_sim(7), decoder_sim(7));
        assert_eq!(sram_sim(4, 4), sram_sim(4, 4));
        assert!(decoder_sim(7).contains("o w127"));
    }

    #[test]
    fn same_seed_same_scenarios_other_seed_other_order() {
        let inputs = names("a", 9);
        let run = |seed| {
            let mut rng = SplitMix64::new(seed);
            let mut all = every_scenario(&inputs, &STA_TRANSITIONS_NS);
            shuffle(&mut all, &mut rng);
            (all, each_input_edge(&inputs, &STA_TRANSITIONS_NS, &mut rng))
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
        let (all, each) = run(3);
        assert_eq!(all.len(), 108);
        assert_eq!(each.len(), 18);
        let mut keys: Vec<String> = all.iter().map(ScenarioSpec::key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 108, "every scenario has its own key");
    }

    #[test]
    fn edit_plans_are_seeded_per_client() {
        assert_eq!(edit_plan(1, 0, 128, 50), edit_plan(1, 0, 128, 50));
        assert_ne!(edit_plan(1, 0, 128, 50), edit_plan(1, 1, 128, 50));
        assert_ne!(edit_plan(1, 0, 128, 50), edit_plan(2, 0, 128, 50));
        let plan = edit_plan(5, 0, 128, 90);
        let caps = plan
            .iter()
            .filter(|e| e.forward.starts_with("cap "))
            .count();
        assert!((45..75).contains(&caps), "{caps} of 90 are cap edits");
        let mut lines: Vec<&str> = plan
            .iter()
            .map(|e| e.forward.split(' ').nth(1).unwrap())
            .collect();
        lines.sort_unstable();
        lines.dedup();
        assert_eq!(lines.len(), 90, "one edit per word line");
        assert!(plan.iter().all(|e| e.forward != e.revert));
    }

    #[test]
    fn reverting_a_plan_restores_the_base_netlist() {
        let base = mosnet::sim_format::parse(&decoder_sim(7), "d.sim").unwrap();
        let plan = edit_plan(9, 0, 128, 50);
        let script = |pick: fn(&EditPair) -> &String| {
            let lines: Vec<&str> = plan.iter().map(|e| pick(e).as_str()).collect();
            crystal::editscript::parse_edit_script(&lines.join("\n")).expect("grammar")
        };
        let base_text = mosnet::sim_format::write(&base);
        let forward = mosnet::diff::apply_edits(&base, &script(|e| &e.forward)).unwrap();
        assert_ne!(mosnet::sim_format::write(&forward), base_text);
        let back = mosnet::diff::apply_edits(&forward, &script(|e| &e.revert)).unwrap();
        assert_eq!(mosnet::sim_format::write(&back), base_text);
    }
}
