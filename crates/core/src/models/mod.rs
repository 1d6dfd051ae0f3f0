//! The three switch-level delay models the paper compares.
//!
//! | Model | Delay | Input slope | Distributed RC |
//! |-------|-------|-------------|----------------|
//! | [`lumped`] | `R_path · C_total` | ignored | ignored (pessimistic) |
//! | [`rctree`] | Elmore `T_P` + Penfield–Rubinstein bounds | ignored | yes |
//! | [`slope`]  | `m(r) · T_P`, `r` = slope ratio | **yes** | yes |
//!
//! All three consume the same extracted [`Stage`], so
//! differences in their predictions come purely from the model, exactly as
//! in the paper's comparison.

pub mod lumped;
pub mod rctree;
pub mod slope;

use crate::stage::Stage;
use crate::tech::Technology;
use mosnet::units::Seconds;
use mosnet::TransistorKind;
use std::fmt;
use std::str::FromStr;

/// Which delay model to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Lumped RC: total path resistance × total capacitance.
    Lumped,
    /// RC-tree: Elmore first moment with Penfield–Rubinstein bounds.
    RcTree,
    /// The paper's slope model: RC-tree drive modulated by the ratio of
    /// input transition time to intrinsic stage delay.
    Slope,
}

impl ModelKind {
    /// All models, in comparison order.
    pub const ALL: [ModelKind; 3] = [ModelKind::Lumped, ModelKind::RcTree, ModelKind::Slope];

    /// The next model down the graceful-degradation chain:
    /// slope → rc-tree → lumped → (none). Each step drops a modeling
    /// refinement but keeps the analysis alive.
    pub fn fallback(self) -> Option<ModelKind> {
        match self {
            ModelKind::Slope => Some(ModelKind::RcTree),
            ModelKind::RcTree => Some(ModelKind::Lumped),
            ModelKind::Lumped => None,
        }
    }

    /// The spelling journals and the daemon store (`Display` says
    /// `rc-tree`, this says `rctree`; parsing accepts both).
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Lumped => "lumped",
            ModelKind::RcTree => "rctree",
            ModelKind::Slope => "slope",
        }
    }

    /// The display spelling (`rc-tree`), which run-record arrival rows
    /// and result digests carry.
    pub fn label(self) -> &'static str {
        match self {
            ModelKind::Lumped => "lumped",
            ModelKind::RcTree => "rc-tree",
            ModelKind::Slope => "slope",
        }
    }
}

/// The model-name table the CLI, the daemon and the journals share.
impl FromStr for ModelKind {
    type Err = String;

    fn from_str(name: &str) -> Result<ModelKind, String> {
        ModelKind::ALL
            .into_iter()
            .find(|model| name == model.name() || name == model.label())
            .ok_or_else(|| format!("unknown model `{name}`"))
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A stage delay estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageDelay {
    /// Estimated 50% delay of the stage, measured from its trigger.
    pub delay: Seconds,
    /// Estimated 10–90% transition time of the target node (propagated to
    /// downstream stages by the slope model).
    pub output_transition: Seconds,
    /// Lower/upper 50% bounds where the model provides them (RC-tree).
    pub bounds: Option<(Seconds, Seconds)>,
}

/// Everything a model may consult about the triggering transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TriggerContext {
    /// 10–90% transition time of the triggering input.
    pub input_transition: Seconds,
    /// Device kind of the trigger transistor (selects the slope table).
    pub trigger_kind: TransistorKind,
}

impl TriggerContext {
    /// A step input through an n-enhancement trigger — the default when no
    /// context is known.
    pub fn step() -> TriggerContext {
        TriggerContext {
            input_transition: Seconds::ZERO,
            trigger_kind: TransistorKind::NEnhancement,
        }
    }
}

/// Evaluates `stage` under the chosen model.
pub fn estimate(
    model: ModelKind,
    tech: &Technology,
    stage: &Stage,
    ctx: TriggerContext,
) -> StageDelay {
    match model {
        ModelKind::Lumped => lumped::estimate(stage),
        ModelKind::RcTree => rctree::estimate(stage),
        ModelKind::Slope => slope::estimate(tech, stage, ctx),
    }
}

/// Why a model could not produce a usable estimate for a stage.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelFailure {
    /// The model that failed.
    pub model: ModelKind,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for ModelFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} model failed: {}", self.model, self.reason)
    }
}

/// Evaluates `stage` under `model`, validating that the result is
/// physically usable.
///
/// # Errors
/// Returns [`ModelFailure`] when the model produces a non-finite or
/// negative delay/transition, or (slope model only) when the calibrated
/// effective-resistance table for the trigger is non-monotone — the
/// model's core assumption that slower inputs mean weaker drive no
/// longer holds, so its numbers cannot be trusted.
pub fn try_estimate(
    model: ModelKind,
    tech: &Technology,
    stage: &Stage,
    ctx: TriggerContext,
) -> Result<StageDelay, ModelFailure> {
    if model == ModelKind::Slope {
        let drive = tech.drive(ctx.trigger_kind, stage.direction);
        if !drive.reff.is_monotone_nondecreasing() {
            return Err(ModelFailure {
                model,
                reason: format!(
                    "effective-resistance table for {:?}/{:?} is not monotone",
                    ctx.trigger_kind, stage.direction
                ),
            });
        }
    }
    let d = estimate(model, tech, stage, ctx);
    let bad = |what: &str, v: Seconds| ModelFailure {
        model,
        reason: format!("{what} is {} s (non-finite or negative)", v.value()),
    };
    if !d.delay.value().is_finite() || d.delay.value() < 0.0 {
        return Err(bad("delay", d.delay));
    }
    if !d.output_transition.value().is_finite() || d.output_transition.value() < 0.0 {
        return Err(bad("output transition", d.output_transition));
    }
    Ok(d)
}

/// Evaluates `stage` under `model`, degrading down the fallback chain
/// (slope → rc-tree → lumped) when a higher-fidelity model fails.
/// Returns the estimate together with the model that actually produced
/// it, so callers can record the degradation.
///
/// # Errors
/// Returns the *last* [`ModelFailure`] when even the lumped model cannot
/// produce a usable number.
pub fn estimate_with_fallback(
    model: ModelKind,
    tech: &Technology,
    stage: &Stage,
    ctx: TriggerContext,
) -> Result<(StageDelay, ModelKind), ModelFailure> {
    let mut at = model;
    loop {
        match try_estimate(at, tech, stage, ctx) {
            Ok(d) => return Ok((d, at)),
            Err(failure) => match at.fallback() {
                Some(next) => at = next,
                None => return Err(failure),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::stages_to;
    use crate::tech::Direction;
    use mosnet::generators::{inverter, pass_chain, Style};
    use mosnet::units::Farads;
    use mosnet::TransistorId;

    const ALL_ON: fn(TransistorId) -> bool = |_| true;

    fn inverter_stage() -> Stage {
        let net = inverter(Style::Cmos, Farads::from_femto(100.0));
        let tech = Technology::nominal();
        let out = net.node_by_name("out").unwrap();
        stages_to(&net, &tech, &ALL_ON, out, Direction::PullDown)
            .pop()
            .expect("inverter has a pull-down stage")
    }

    #[test]
    fn models_agree_on_single_stage_with_step_input() {
        // With one lumped segment, lumped R·C equals Elmore, and the slope
        // model at ratio 0 multiplies by reff(0) = 1.
        let tech = Technology::nominal();
        let stage = inverter_stage();
        let l = estimate(ModelKind::Lumped, &tech, &stage, TriggerContext::step());
        let r = estimate(ModelKind::RcTree, &tech, &stage, TriggerContext::step());
        let s = estimate(ModelKind::Slope, &tech, &stage, TriggerContext::step());
        assert!((l.delay.value() - r.delay.value()).abs() < 1e-15);
        assert!((r.delay.value() - s.delay.value()).abs() < 1e-15);
    }

    #[test]
    fn model_divergence_on_pass_chains() {
        // Lumped > Elmore on a distributed chain (the paper's headline
        // observation for Table 3).
        let net = pass_chain(
            Style::Cmos,
            6,
            Farads::from_femto(50.0),
            Farads::from_femto(100.0),
        )
        .unwrap();
        let tech = Technology::nominal();
        let out = net.node_by_name("out").unwrap();
        let stage = stages_to(&net, &tech, &ALL_ON, out, Direction::PullUp)
            .pop()
            .unwrap();
        let l = estimate(ModelKind::Lumped, &tech, &stage, TriggerContext::step());
        let r = estimate(ModelKind::RcTree, &tech, &stage, TriggerContext::step());
        assert!(
            l.delay.value() > 1.4 * r.delay.value(),
            "lumped {} vs rc-tree {}",
            l.delay.nanos(),
            r.delay.nanos()
        );
    }

    #[test]
    fn slope_model_grows_with_input_transition() {
        let tech = Technology::nominal();
        let stage = inverter_stage();
        let fast = estimate(ModelKind::Slope, &tech, &stage, TriggerContext::step());
        let slow_ctx = TriggerContext {
            input_transition: Seconds::from_nanos(50.0),
            trigger_kind: TransistorKind::NEnhancement,
        };
        let slow = estimate(ModelKind::Slope, &tech, &stage, slow_ctx);
        assert!(slow.delay > fast.delay);
        assert!(slow.output_transition > fast.output_transition);
    }

    #[test]
    fn lumped_and_rctree_ignore_input_transition() {
        let tech = Technology::nominal();
        let stage = inverter_stage();
        let slow_ctx = TriggerContext {
            input_transition: Seconds::from_nanos(50.0),
            trigger_kind: TransistorKind::NEnhancement,
        };
        for model in [ModelKind::Lumped, ModelKind::RcTree] {
            let a = estimate(model, &tech, &stage, TriggerContext::step());
            let b = estimate(model, &tech, &stage, slow_ctx);
            assert_eq!(a.delay, b.delay, "{model} must ignore input slope");
        }
    }

    #[test]
    fn rctree_provides_bounds_that_bracket_its_estimate() {
        let tech = Technology::nominal();
        let stage = inverter_stage();
        let r = estimate(ModelKind::RcTree, &tech, &stage, TriggerContext::step());
        let (lo, hi) = r.bounds.expect("rc-tree model reports bounds");
        assert!(lo <= hi);
        // The Elmore estimate is well-known to exceed the true 50% point;
        // it must lie at or above the lower bound.
        assert!(r.delay >= lo);
    }

    #[test]
    fn display_names() {
        assert_eq!(ModelKind::Lumped.to_string(), "lumped");
        assert_eq!(ModelKind::RcTree.to_string(), "rc-tree");
        assert_eq!(ModelKind::Slope.to_string(), "slope");
    }

    #[test]
    fn fallback_chain_descends_to_lumped() {
        assert_eq!(ModelKind::Slope.fallback(), Some(ModelKind::RcTree));
        assert_eq!(ModelKind::RcTree.fallback(), Some(ModelKind::Lumped));
        assert_eq!(ModelKind::Lumped.fallback(), None);
    }

    /// A technology whose slope reff table is non-monotone: physically
    /// impossible (slower input would mean *stronger* drive), so the
    /// slope model must refuse it.
    fn broken_slope_tech() -> Technology {
        use crate::tech::{Direction, DriveParams, SlopeTable};
        use mosnet::units::Ohms;
        let mut tech = Technology::nominal();
        let broken = DriveParams {
            r_square: Ohms(20_000.0),
            reff: SlopeTable::new(vec![(0.0, 1.0), (1.0, 3.0), (2.0, 0.5)])
                .expect("non-monotone values pass construction"),
            tout: SlopeTable::constant(1.0),
        };
        for kind in [
            TransistorKind::NEnhancement,
            TransistorKind::PEnhancement,
            TransistorKind::Depletion,
        ] {
            for dir in [Direction::PullUp, Direction::PullDown] {
                tech.set_drive(kind, dir, broken.clone());
            }
        }
        tech
    }

    #[test]
    fn try_estimate_rejects_non_monotone_slope_table() {
        let tech = broken_slope_tech();
        let stage = inverter_stage();
        let err = try_estimate(ModelKind::Slope, &tech, &stage, TriggerContext::step())
            .expect_err("non-monotone table must fail");
        assert_eq!(err.model, ModelKind::Slope);
        assert!(err.to_string().contains("monotone"), "{err}");
        // The healthy nominal technology passes.
        let ok = try_estimate(
            ModelKind::Slope,
            &Technology::nominal(),
            &stage,
            TriggerContext::step(),
        );
        assert!(ok.is_ok());
    }

    #[test]
    fn fallback_degrades_slope_to_rctree() {
        let tech = broken_slope_tech();
        let stage = inverter_stage();
        let (d, used) =
            estimate_with_fallback(ModelKind::Slope, &tech, &stage, TriggerContext::step())
                .expect("rc-tree rescues the stage");
        assert_eq!(used, ModelKind::RcTree);
        let reference = estimate(ModelKind::RcTree, &tech, &stage, TriggerContext::step());
        assert_eq!(d.delay, reference.delay);
    }

    #[test]
    fn fallback_keeps_requested_model_when_healthy() {
        let tech = Technology::nominal();
        let stage = inverter_stage();
        for model in ModelKind::ALL {
            let (_, used) =
                estimate_with_fallback(model, &tech, &stage, TriggerContext::step()).unwrap();
            assert_eq!(used, model);
        }
    }
}
