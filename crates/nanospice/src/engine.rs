//! The analysis engine: DC operating point and fixed-grid transient with
//! Newton–Raphson per step and automatic sub-stepping on non-convergence.

use crate::circuit::Circuit;
use crate::devices::{Device, NodeRef};
use crate::error::SimError;
use crate::recovery::{RecoveryLog, RecoveryPolicy, RescueStrategy};
use crate::solver::{create_solver, BlockKey, LinearSolver, SolverChoice, Stamp, Stamper};
use crate::waveform::Waveform;
use std::sync::atomic::{AtomicBool, Ordering};

/// Time-integration method for the transient analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Integration {
    /// First-order, L-stable — the robust default.
    #[default]
    BackwardEuler,
    /// Second-order trapezoidal rule — more accurate at coarse steps,
    /// but can ring on sharp edges.
    Trapezoidal,
}

/// Solver options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// Time-integration method.
    pub integration: Integration,
    /// Maximum Newton iterations per solve.
    pub max_nr_iterations: usize,
    /// Absolute voltage convergence tolerance (V).
    pub abstol: f64,
    /// Relative convergence tolerance.
    pub reltol: f64,
    /// Conductance from every node to ground aiding convergence (S).
    pub gmin: f64,
    /// Per-iteration clamp on voltage updates (V).
    pub max_voltage_step: f64,
    /// Maximum times a transient step may be halved before giving up.
    pub max_step_halvings: u32,
    /// Linear-solver backend: dense LU, sparse LU with pattern reuse, or
    /// automatic selection by unknown count.
    pub solver: SolverChoice,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            integration: Integration::BackwardEuler,
            max_nr_iterations: 100,
            abstol: 1e-6,
            reltol: 1e-3,
            gmin: 1e-10,
            max_voltage_step: 2.0,
            max_step_halvings: 12,
            solver: SolverChoice::Auto,
        }
    }
}

/// Transient simulation result: voltages for every unknown node on the
/// output time grid.
#[derive(Debug, Clone)]
pub struct TranResult {
    names: Vec<String>,
    times: Vec<f64>,
    /// `data[step][node]`.
    data: Vec<Vec<f64>>,
}

impl TranResult {
    /// The output time grid (seconds).
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Names of the recorded nodes, in unknown order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Extracts the waveform of a node by [`NodeRef`].
    ///
    /// Ground yields the all-zero waveform.
    pub fn voltage(&self, node: NodeRef) -> Waveform {
        match node {
            NodeRef::Ground => Waveform::new(self.times.clone(), vec![0.0; self.times.len()]),
            NodeRef::Node(i) => Waveform::new(
                self.times.clone(),
                self.data.iter().map(|row| row[i]).collect(),
            ),
        }
    }

    /// Extracts the waveform of a node by name.
    ///
    /// # Errors
    /// Returns [`SimError::UnknownSignal`] when no node has that name.
    pub fn voltage_by_name(&self, name: &str) -> Result<Waveform, SimError> {
        let i =
            self.names
                .iter()
                .position(|n| n == name)
                .ok_or_else(|| SimError::UnknownSignal {
                    name: name.to_string(),
                })?;
        Ok(self.voltage(NodeRef::Node(i)))
    }
}

/// Per-step dynamic context handed to the assembler: the previous
/// accepted solution, the step size, and (for trapezoidal integration)
/// the capacitor currents at the previous accepted step.
#[derive(Debug, Clone, Copy)]
struct DynamicCtx<'a> {
    prev: &'a [f64],
    dt: f64,
    cap_currents: &'a [f64],
    /// Effective method for this step; the very first transient step
    /// always uses backward Euler (the trapezoidal companion needs a
    /// valid current history, which the DC point does not provide across
    /// a source discontinuity).
    method: Integration,
}

/// A simulator bound to one circuit.
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    circuit: &'a Circuit,
    options: Options,
    /// Cooperative-cancellation flag polled between Newton iterations and
    /// transient steps; lives outside [`Options`] because `Options` is
    /// `Copy`. See [`Simulator::with_cancel_flag`].
    cancel: Option<&'a AtomicBool>,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator with default [`Options`].
    pub fn new(circuit: &'a Circuit) -> Simulator<'a> {
        Simulator {
            circuit,
            options: Options::default(),
            cancel: None,
        }
    }

    /// Creates a simulator with explicit options.
    pub fn with_options(circuit: &'a Circuit, options: Options) -> Simulator<'a> {
        Simulator {
            circuit,
            options,
            cancel: None,
        }
    }

    /// Attaches a cooperative-cancellation flag. The solver polls it at
    /// every Newton iteration and every transient step; once it reads
    /// `true`, the run stops with [`SimError::Cancelled`]. An external
    /// watchdog (e.g. the timing analyzer's per-scenario deadline) can
    /// therefore stop a wedged simulation without killing the thread.
    pub fn with_cancel_flag(mut self, cancel: &'a AtomicBool) -> Simulator<'a> {
        self.cancel = Some(cancel);
        self
    }

    /// Solver options in effect.
    pub fn options(&self) -> Options {
        self.options
    }

    /// `Err(SimError::Cancelled)` once the attached cancel flag fired.
    fn check_cancelled(&self) -> Result<(), SimError> {
        match self.cancel {
            Some(flag) if flag.load(Ordering::Acquire) => Err(SimError::Cancelled),
            _ => Ok(()),
        }
    }

    /// DC operating point with sources evaluated at `t = 0`.
    ///
    /// # Errors
    /// Returns [`SimError::NoConvergence`] if Newton iteration fails even
    /// with gmin stepping, or [`SimError::SingularMatrix`] for a
    /// structurally defective circuit.
    pub fn op(&self) -> Result<Vec<f64>, SimError> {
        self.op_at(0.0)
    }

    /// DC operating point with sources evaluated at time `t`.
    ///
    /// # Errors
    /// See [`Self::op`].
    pub fn op_at(&self, t: f64) -> Result<Vec<f64>, SimError> {
        self.circuit.check()?;
        let budget = self.options.max_nr_iterations;
        let n = self.circuit.unknown_count();
        // One solver for the whole DC ladder: the sparsity pattern is
        // identical at every gmin rung, so the sparse backend analyzes
        // once and refactors values-only from the second solve on.
        let mut solver = self.new_solver();
        let mut x = vec![0.0; n];
        match self.newton(
            t,
            None,
            &mut x,
            self.options.gmin,
            budget,
            1.0,
            solver.as_mut(),
        ) {
            Ok(()) => Ok(x),
            Err(_) => {
                // gmin stepping: start heavily damped, relax gradually.
                x.fill(0.0);
                let mut gmin = 1e-2;
                while gmin > self.options.gmin {
                    self.newton(t, None, &mut x, gmin, budget, 1.0, solver.as_mut())
                        .map_err(|e| match e {
                            SimError::NoConvergence { .. } => SimError::NoConvergence {
                                time: t,
                                iterations: budget,
                            },
                            other => other,
                        })?;
                    gmin *= 1e-2;
                }
                self.newton(
                    t,
                    None,
                    &mut x,
                    self.options.gmin,
                    budget,
                    1.0,
                    solver.as_mut(),
                )?;
                Ok(x)
            }
        }
    }

    /// DC operating point with the convergence-rescue ladder: when the
    /// plain solve (including its built-in gmin stepping) fails, retries
    /// under `policy` with gmin stepping at a boosted iteration budget,
    /// then source stepping. Every rung is recorded in the returned
    /// [`RecoveryLog`]; an empty log means no rescue was needed.
    ///
    /// # Errors
    /// Returns [`SimError::RecoveryExhausted`] listing the attempted
    /// strategies when every rung fails (or the original error when the
    /// policy is disabled), and passes through structural errors like
    /// [`SimError::SingularMatrix`] unchanged.
    pub fn op_recovered(
        &self,
        policy: &RecoveryPolicy,
    ) -> Result<(Vec<f64>, RecoveryLog), SimError> {
        let mut log = RecoveryLog::new();
        let x = self.op_rescued(0.0, policy, &mut log)?;
        Ok((x, log))
    }

    /// The rescue ladder for a DC solve at time `t`, appending attempts
    /// to `log`.
    fn op_rescued(
        &self,
        t: f64,
        policy: &RecoveryPolicy,
        log: &mut RecoveryLog,
    ) -> Result<Vec<f64>, SimError> {
        let base = match self.op_at(t) {
            Ok(x) => return Ok(x),
            Err(e @ (SimError::SingularMatrix { .. } | SimError::BadNode { .. })) => return Err(e),
            Err(e) => e,
        };
        if !policy.enabled {
            return Err(base);
        }
        let n = self.circuit.unknown_count();
        let budget = policy.nr_iterations.max(1);
        // Both rescue rungs assemble the same DC pattern — share a solver.
        let mut solver = self.new_solver();

        // Rung 1: gmin stepping with the policy's (boosted) budget.
        let mut x = vec![0.0; n];
        let mut gmin = policy.gmin_start;
        let rung = loop {
            if self
                .newton(t, None, &mut x, gmin, budget, 1.0, solver.as_mut())
                .is_err()
            {
                break Err(());
            }
            if gmin <= self.options.gmin {
                break Ok(());
            }
            gmin = (gmin * policy.gmin_reduction).max(self.options.gmin);
        };
        log.record(RescueStrategy::GminStepping, rung.is_ok(), t);
        if rung.is_ok() {
            return Ok(x);
        }

        // Rung 2: source stepping — ramp the excitation from zero,
        // re-converging at each scale from the previous solution.
        let mut x = vec![0.0; n];
        let steps = policy.source_steps.max(1);
        let rung = (1..=steps).try_for_each(|k| {
            let scale = k as f64 / steps as f64;
            self.newton(
                t,
                None,
                &mut x,
                self.options.gmin,
                budget,
                scale,
                solver.as_mut(),
            )
            .map_err(|_| ())
        });
        log.record(RescueStrategy::SourceStepping, rung.is_ok(), t);
        if rung.is_ok() {
            return Ok(x);
        }

        Err(SimError::RecoveryExhausted {
            attempts: log.strategies_tried(),
        })
    }

    /// Fixed-grid transient analysis from `0` to `tstop` with output step
    /// `dt`. Internally a step is halved (up to
    /// [`Options::max_step_halvings`]) when Newton fails to converge.
    ///
    /// # Errors
    /// Returns [`SimError::BadParameter`] for a non-positive `tstop`/`dt`,
    /// and [`SimError::NoConvergence`] if a step cannot be completed even
    /// at the smallest sub-step.
    pub fn transient(&self, tstop: f64, dt: f64) -> Result<TranResult, SimError> {
        self.transient_impl(tstop, dt, None, None)
    }

    /// [`Self::transient`] with the convergence-rescue ladder: when a
    /// step fails even after the ordinary halvings, the engine retries
    /// the step with gmin stepping at a boosted iteration budget, then
    /// keeps halving through `policy.max_extra_halvings` further
    /// reductions (exponential backoff) before giving up. The initial DC
    /// point is solved through the full DC ladder (gmin stepping, then
    /// source stepping). Every rung is recorded in the returned
    /// [`RecoveryLog`].
    ///
    /// # Errors
    /// As [`Self::transient`], with terminal convergence failures
    /// reported as [`SimError::RecoveryExhausted`].
    pub fn transient_recovered(
        &self,
        tstop: f64,
        dt: f64,
        policy: &RecoveryPolicy,
    ) -> Result<(TranResult, RecoveryLog), SimError> {
        let mut log = RecoveryLog::new();
        let result = self.transient_impl(tstop, dt, None, Some((policy, &mut log)))?;
        Ok((result, log))
    }

    /// Transient analysis "use initial conditions" style: instead of a DC
    /// operating point, the run starts from the supplied node voltages
    /// (`(node index, volts)` pairs; unlisted nodes start at 0 V). The
    /// first step immediately enforces source constraints, so only
    /// capacitor state really carries over — exactly what stored-charge
    /// scenarios need.
    ///
    /// # Errors
    /// As [`Self::transient`], plus [`SimError::BadNode`] for an
    /// out-of-range node index.
    pub fn transient_uic(
        &self,
        tstop: f64,
        dt: f64,
        initial: &[(usize, f64)],
    ) -> Result<TranResult, SimError> {
        for &(node, _) in initial {
            if node >= self.circuit.node_count() {
                return Err(SimError::BadNode { index: node });
            }
        }
        self.transient_impl(tstop, dt, Some(initial), None)
    }

    fn transient_impl(
        &self,
        tstop: f64,
        dt: f64,
        initial: Option<&[(usize, f64)]>,
        mut rescue: Option<(&RecoveryPolicy, &mut RecoveryLog)>,
    ) -> Result<TranResult, SimError> {
        if !(tstop > 0.0 && tstop.is_finite()) {
            return Err(SimError::BadParameter {
                message: format!("tstop must be positive, got {tstop}"),
            });
        }
        if !(dt > 0.0 && dt.is_finite() && dt <= tstop) {
            return Err(SimError::BadParameter {
                message: format!("dt must be positive and at most tstop, got {dt}"),
            });
        }
        let n_nodes = self.circuit.node_count();
        let mut x = match initial {
            None => match rescue.as_mut() {
                Some((policy, log)) => self.op_rescued(0.0, policy, log)?,
                None => self.op()?,
            },
            Some(ics) => {
                self.circuit.check()?;
                let mut x = vec![0.0; self.circuit.unknown_count()];
                for &(node, v) in ics {
                    x[node] = v;
                }
                x
            }
        };
        // Capacitor branch currents, needed by the trapezoidal companion;
        // zero at the DC operating point.
        let n_caps = self
            .circuit
            .devices()
            .iter()
            .filter(|d| matches!(d, Device::Capacitor(_)))
            .count();
        let mut cap_currents = vec![0.0; n_caps];
        let mut first_step = true;
        let steps = (tstop / dt).round() as usize;
        let mut times = Vec::with_capacity(steps + 1);
        let mut data = Vec::with_capacity(steps + 1);
        times.push(0.0);
        data.push(x[..n_nodes].to_vec());
        // One solver for every implicit step (and every rescue rung): the
        // dynamic stamp pattern is fixed for the whole run, so the sparse
        // backend analyzes on the first step only. `x` is the last
        // accepted solution and `x_try` the step being solved; an
        // accepted step swaps them.
        let mut solver = self.new_solver();
        let mut x_try = x.clone();

        for step in 1..=steps {
            self.check_cancelled()?;
            let t_target = step as f64 * dt;
            let mut t_now = (step - 1) as f64 * dt;
            let mut sub_dt = dt;
            let mut halvings = 0u32;
            // Rescue bookkeeping for this output step: the gmin rung runs
            // at most once, and entering the extra-halving region switches
            // to the policy's boosted Newton budget.
            let mut gmin_rescue_tried = false;
            let mut in_reduction = false;
            while t_now < t_target - 1e-18 {
                let t_next = (t_now + sub_dt).min(t_target);
                let h = t_next - t_now;
                x_try.copy_from_slice(&x);
                let method = if first_step {
                    Integration::BackwardEuler
                } else {
                    self.options.integration
                };
                let ctx = DynamicCtx {
                    prev: &x,
                    dt: h,
                    cap_currents: &cap_currents,
                    method,
                };
                let budget = match (&rescue, in_reduction) {
                    (Some((policy, _)), true) => policy.nr_iterations.max(1),
                    _ => self.options.max_nr_iterations,
                };
                match self.newton(
                    t_next,
                    Some(ctx),
                    &mut x_try,
                    self.options.gmin,
                    budget,
                    1.0,
                    solver.as_mut(),
                ) {
                    Ok(()) => {
                        if in_reduction {
                            if let Some((_, log)) = rescue.as_mut() {
                                log.record(RescueStrategy::TimestepReduction, true, t_next);
                            }
                            in_reduction = false;
                        }
                        self.update_cap_currents(&x, &x_try, h, method, &mut cap_currents);
                        std::mem::swap(&mut x, &mut x_try);
                        t_now = t_next;
                        first_step = false;
                        // Regrow a previously halved step so one hard spot
                        // does not pin the rest of the run to tiny steps.
                        if halvings > 0 {
                            sub_dt = (sub_dt * 2.0).min(dt);
                            halvings -= 1;
                        }
                        gmin_rescue_tried = false;
                    }
                    Err(SimError::NoConvergence { .. }) => {
                        halvings += 1;
                        if halvings <= self.options.max_step_halvings {
                            sub_dt *= 0.5;
                            continue;
                        }
                        let Some((policy, log)) = rescue.as_mut().filter(|(p, _)| p.enabled) else {
                            return Err(SimError::NoConvergence {
                                time: t_next,
                                iterations: self.options.max_nr_iterations,
                            });
                        };
                        let policy = *policy;
                        if !gmin_rescue_tried {
                            gmin_rescue_tried = true;
                            let rescued =
                                self.step_gmin_rescue(t_next, ctx, policy, solver.as_mut());
                            log.record(RescueStrategy::GminStepping, rescued.is_some(), t_next);
                            if let Some(x_new) = rescued {
                                self.update_cap_currents(&x, &x_new, h, method, &mut cap_currents);
                                x = x_new;
                                t_now = t_next;
                                first_step = false;
                                if halvings > 0 {
                                    sub_dt = (sub_dt * 2.0).min(dt);
                                    halvings -= 1;
                                }
                                gmin_rescue_tried = false;
                                continue;
                            }
                        }
                        // Timestep reduction: exponential backoff past the
                        // ordinary halving budget, at the boosted budget.
                        if halvings <= self.options.max_step_halvings + policy.max_extra_halvings {
                            in_reduction = true;
                            sub_dt *= 0.5;
                        } else {
                            log.record(RescueStrategy::TimestepReduction, false, t_next);
                            return Err(SimError::RecoveryExhausted {
                                attempts: log.strategies_tried(),
                            });
                        }
                    }
                    Err(other) => return Err(other),
                }
            }
            times.push(t_target);
            data.push(x[..n_nodes].to_vec());
        }

        Ok(TranResult {
            names: (0..n_nodes)
                .map(|i| self.circuit.node_name(i).to_string())
                .collect(),
            times,
            data,
        })
    }

    /// The gmin-stepping rescue rung for one implicit transient step:
    /// re-solves the same step starting from a large gmin shunt, relaxing
    /// geometrically back to the nominal value, all at the policy's
    /// boosted iteration budget. Returns the converged solution or `None`.
    fn step_gmin_rescue(
        &self,
        t: f64,
        ctx: DynamicCtx<'_>,
        policy: &RecoveryPolicy,
        solver: &mut dyn LinearSolver,
    ) -> Option<Vec<f64>> {
        let budget = policy.nr_iterations.max(1);
        let mut x_try = ctx.prev.to_vec();
        let mut gmin = policy.gmin_start;
        loop {
            self.newton(t, Some(ctx), &mut x_try, gmin, budget, 1.0, solver)
                .ok()?;
            if gmin <= self.options.gmin {
                return Some(x_try);
            }
            gmin = (gmin * policy.gmin_reduction).max(self.options.gmin);
        }
    }

    /// Recomputes the capacitor branch currents after an accepted step
    /// (the state the trapezoidal companion needs).
    fn update_cap_currents(
        &self,
        prev: &[f64],
        new: &[f64],
        dt: f64,
        method: Integration,
        currents: &mut [f64],
    ) {
        let mut k = 0;
        for device in self.circuit.devices() {
            if let Device::Capacitor(c) = device {
                let v_prev = c.a.voltage(prev) - c.b.voltage(prev);
                let v_new = c.a.voltage(new) - c.b.voltage(new);
                currents[k] = match method {
                    Integration::BackwardEuler => c.farads / dt * (v_new - v_prev),
                    Integration::Trapezoidal => {
                        2.0 * c.farads / dt * (v_new - v_prev) - currents[k]
                    }
                };
                k += 1;
            }
        }
    }

    /// Adaptive transient analysis: the internal step size is controlled
    /// by a step-doubling local-truncation-error estimate (one full step
    /// compared against two half steps), shrinking through fast edges and
    /// growing up to `dt_max` through quiet intervals. Results are
    /// reported on the uniform `dt_out` grid by linear interpolation.
    ///
    /// # Errors
    /// As [`Self::transient`]; additionally [`SimError::BadParameter`] if
    /// `dt_max < dt_out / 4` (the controller needs room to move).
    pub fn transient_adaptive(
        &self,
        tstop: f64,
        dt_out: f64,
        dt_max: f64,
    ) -> Result<TranResult, SimError> {
        if !(tstop > 0.0 && tstop.is_finite()) {
            return Err(SimError::BadParameter {
                message: format!("tstop must be positive, got {tstop}"),
            });
        }
        if !(dt_out > 0.0 && dt_out.is_finite() && dt_out <= tstop) {
            return Err(SimError::BadParameter {
                message: format!("dt_out must be positive and at most tstop, got {dt_out}"),
            });
        }
        if !(dt_max > 0.0 && dt_max.is_finite()) || dt_max < dt_out / 4.0 {
            return Err(SimError::BadParameter {
                message: format!("dt_max must be at least dt_out/4, got {dt_max}"),
            });
        }
        let n_nodes = self.circuit.node_count();
        let n_caps = self
            .circuit
            .devices()
            .iter()
            .filter(|d| matches!(d, Device::Capacitor(_)))
            .count();
        let mut x = self.op()?;
        let mut cap_currents = vec![0.0; n_caps];
        let mut first_step = true;
        // Shared across every trial step of the run (same dynamic pattern).
        let mut solver = self.new_solver();

        // Voltage LTE tolerance, deliberately looser than the Newton
        // tolerance so the controller reacts to integration error only.
        let tol = 10.0 * self.options.abstol + 1e-3;

        let steps_out = (tstop / dt_out).round() as usize;
        let mut times = Vec::with_capacity(steps_out + 1);
        let mut data = Vec::with_capacity(steps_out + 1);
        times.push(0.0);
        data.push(x[..n_nodes].to_vec());

        let mut t = 0.0;
        let mut h = dt_out.min(dt_max);
        let mut next_out = dt_out;
        let mut guard = 0usize;
        let guard_limit = 200_000;
        // Trial solutions and currents, kept for the whole run: an
        // accepted step swaps the second half step into the state.
        let mut x_full = x.clone();
        let mut x_half = x.clone();
        let mut x_half2 = x.clone();
        let mut i_half = cap_currents.clone();

        while t < tstop - 1e-18 {
            self.check_cancelled()?;
            guard += 1;
            if guard > guard_limit {
                return Err(SimError::NoConvergence {
                    time: t,
                    iterations: guard_limit,
                });
            }
            let h_eff = h.min(tstop - t);
            let method = if first_step {
                Integration::BackwardEuler
            } else {
                self.options.integration
            };
            let attempt = |solver: &mut dyn LinearSolver,
                           target_x: &mut [f64],
                           from_x: &[f64],
                           from_i: &[f64],
                           step: f64,
                           at: f64|
             -> Result<(), SimError> {
                target_x.copy_from_slice(from_x);
                let ctx = DynamicCtx {
                    prev: from_x,
                    dt: step,
                    cap_currents: from_i,
                    method,
                };
                self.newton(
                    at,
                    Some(ctx),
                    target_x,
                    self.options.gmin,
                    self.options.max_nr_iterations,
                    1.0,
                    solver,
                )
            };
            // The full step, then two half steps; any failure rejects.
            let solved = attempt(
                solver.as_mut(),
                &mut x_full,
                &x,
                &cap_currents,
                h_eff,
                t + h_eff,
            )
            .and_then(|()| {
                attempt(
                    solver.as_mut(),
                    &mut x_half,
                    &x,
                    &cap_currents,
                    h_eff / 2.0,
                    t + h_eff / 2.0,
                )
            })
            .and_then(|()| {
                i_half.copy_from_slice(&cap_currents);
                self.update_cap_currents(&x, &x_half, h_eff / 2.0, method, &mut i_half);
                attempt(
                    solver.as_mut(),
                    &mut x_half2,
                    &x_half,
                    &i_half,
                    h_eff / 2.0,
                    t + h_eff,
                )
            });
            let err = solved.ok().map(|()| {
                x_full[..n_nodes]
                    .iter()
                    .zip(&x_half2[..n_nodes])
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f64, f64::max)
            });

            match err.filter(|&err| err <= tol) {
                Some(err) => {
                    // Advance state using the more accurate half-step pair.
                    self.update_cap_currents(&x_half, &x_half2, h_eff / 2.0, method, &mut i_half);
                    let t_new = t + h_eff;
                    // Emit output samples crossed by this step, between
                    // the last accepted point and this one.
                    while next_out <= t_new + 1e-18 && times.len() <= steps_out {
                        let frac = if t_new > t {
                            (next_out - t) / (t_new - t)
                        } else {
                            1.0
                        };
                        let row: Vec<f64> = x[..n_nodes]
                            .iter()
                            .zip(&x_half2[..n_nodes])
                            .map(|(a, b)| a + frac * (b - a))
                            .collect();
                        times.push(next_out);
                        data.push(row);
                        next_out += dt_out;
                    }
                    t = t_new;
                    std::mem::swap(&mut x, &mut x_half2);
                    std::mem::swap(&mut cap_currents, &mut i_half);
                    first_step = false;
                    // Grow when comfortably inside tolerance.
                    if err < 0.25 * tol {
                        h = (h * 1.6).min(dt_max);
                    }
                }
                None => {
                    h *= 0.5;
                    if h < 1e-18 {
                        return Err(SimError::NoConvergence {
                            time: t,
                            iterations: self.options.max_nr_iterations,
                        });
                    }
                }
            }
        }

        Ok(TranResult {
            names: (0..n_nodes)
                .map(|i| self.circuit.node_name(i).to_string())
                .collect(),
            times,
            data,
        })
    }

    /// Creates the linear-solver backend for this circuit according to
    /// [`Options::solver`].
    fn new_solver(&self) -> Box<dyn LinearSolver> {
        create_solver(self.options.solver, self.circuit.unknown_count())
    }

    /// One Newton solve at time `t`. `dynamic` carries the previous
    /// solution and the step size for capacitor companions; `None` means DC
    /// (capacitors open). `budget` caps the iterations (rescue rungs pass
    /// a boosted budget independent of the base options) and
    /// `source_scale` scales every independent source (1.0 outside the
    /// source-stepping rescue rung). `solver` is stamped, factored in
    /// place, and solved every iteration — no matrix copies on the hot
    /// path (the historical `factor(a.clone())` cost one full dense copy
    /// per iteration), and a caller-shared solver lets the sparse backend
    /// reuse its symbolic analysis across iterations and time steps.
    #[allow(clippy::too_many_arguments)]
    fn newton(
        &self,
        t: f64,
        dynamic: Option<DynamicCtx<'_>>,
        x: &mut [f64],
        gmin: f64,
        budget: usize,
        source_scale: f64,
        solver: &mut dyn LinearSolver,
    ) -> Result<(), SimError> {
        let n = self.circuit.unknown_count();
        let n_nodes = self.circuit.node_count();
        debug_assert_eq!(solver.dim(), n);
        let mut rhs = vec![0.0; n];

        for iteration in 0..budget {
            self.check_cancelled()?;
            solver.begin();
            rhs.fill(0.0);
            // One dispatch per assembly: every stamp inside is a direct
            // call into the backend's own stamper.
            match solver.stamper() {
                Stamper::Dense(a) => self.assemble(t, dynamic, x, gmin, source_scale, a, &mut rhs),
                Stamper::Record(a) => self.assemble(t, dynamic, x, gmin, source_scale, a, &mut rhs),
                Stamper::Replay(a) => self.assemble(t, dynamic, x, gmin, source_scale, a, &mut rhs),
            }
            solver.factor()?;
            solver.solve_in_place(&mut rhs);
            let x_new = &rhs;

            // Damped update with convergence check on node voltages.
            let mut max_dv = 0.0f64;
            let mut clamped = false;
            for i in 0..n {
                let mut delta = x_new[i] - x[i];
                if i < n_nodes {
                    max_dv = max_dv.max(delta.abs());
                    let limit = self.options.max_voltage_step;
                    if delta.abs() > limit {
                        delta = delta.signum() * limit;
                        clamped = true;
                    }
                }
                x[i] += delta;
            }
            let tol = self.options.abstol
                + self.options.reltol * x[..n_nodes].iter().fold(0.0f64, |m, v| m.max(v.abs()));
            if !clamped && max_dv < tol && iteration > 0 {
                return Ok(());
            }
            // Linear circuits converge in one solve; detect that cheaply.
            if iteration == 0 && max_dv < self.options.abstol {
                return Ok(());
            }
        }
        Err(SimError::NoConvergence {
            time: t,
            iterations: budget,
        })
    }

    /// Assembles the linearized MNA system at the current iterate. The
    /// stamper is taken by value, so its replay state stays local to this
    /// one assembly (in registers, once the stamps are inlined).
    #[allow(clippy::too_many_arguments)]
    fn assemble<S: Stamp>(
        &self,
        t: f64,
        dynamic: Option<DynamicCtx<'_>>,
        x: &[f64],
        gmin: f64,
        source_scale: f64,
        mut a: S,
        rhs: &mut [f64],
    ) {
        let a = &mut a;
        let n_nodes = self.circuit.node_count();
        a.block(BlockKey([GMIN_BLOCK, n_nodes as u32, 0, 0]));
        for i in 0..n_nodes {
            a.add(i, i, gmin);
        }
        let mut cap_index = 0usize;
        for device in self.circuit.devices() {
            match device {
                Device::Resistor(r) => {
                    a.block(BlockKey([RESISTOR_BLOCK, term(r.a), term(r.b), 0]));
                    stamp_conductance(a, r.a, r.b, r.conductance());
                }
                Device::Capacitor(c) => {
                    let k = cap_index;
                    cap_index += 1;
                    if let Some(ctx) = dynamic {
                        let v_prev = c.a.voltage(ctx.prev) - c.b.voltage(ctx.prev);
                        let (g, ieq) = match ctx.method {
                            Integration::BackwardEuler => c.companion_be(v_prev, ctx.dt),
                            Integration::Trapezoidal => {
                                c.companion_trapezoidal(v_prev, ctx.cap_currents[k], ctx.dt)
                            }
                        };
                        a.block(BlockKey([CAPACITOR_BLOCK, term(c.a), term(c.b), 0]));
                        stamp_conductance(a, c.a, c.b, g);
                        if let Some(i) = c.a.index() {
                            rhs[i] += ieq;
                        }
                        if let Some(i) = c.b.index() {
                            rhs[i] -= ieq;
                        }
                    }
                }
                Device::VSource(v) => {
                    let row = n_nodes + v.branch;
                    a.block(BlockKey([
                        VSOURCE_BLOCK,
                        term(v.pos),
                        term(v.neg),
                        row as u32,
                    ]));
                    if let Some(p) = v.pos.index() {
                        a.add(p, row, 1.0);
                        a.add(row, p, 1.0);
                    }
                    if let Some(m) = v.neg.index() {
                        a.add(m, row, -1.0);
                        a.add(row, m, -1.0);
                    }
                    rhs[row] += source_scale * v.shape.value(t);
                }
                Device::Mosfet(m) => {
                    let vd = m.d.voltage(x);
                    let vg = m.g.voltage(x);
                    let vs = m.s.voltage(x);
                    let st = m.linearize(vd, vg, vs);
                    let key = BlockKey([MOSFET_BLOCK, term(m.d), term(m.g), term(m.s)]);
                    if st.is_zero() && a.skip_zero(key) {
                        continue;
                    }
                    a.block(key);
                    // Current i(d→s) leaves node d and enters node s.
                    if let Some(d) = m.d.index() {
                        add_term(a, d, m.d, st.g_d);
                        add_term(a, d, m.g, st.g_g);
                        add_term(a, d, m.s, st.g_s);
                        rhs[d] -= st.i_eq;
                    }
                    if let Some(s) = m.s.index() {
                        add_term(a, s, m.d, -st.g_d);
                        add_term(a, s, m.g, -st.g_g);
                        add_term(a, s, m.s, -st.g_s);
                        rhs[s] += st.i_eq;
                    }
                }
            }
        }
    }
}

/// The kinds of stamp block, the first word of each [`BlockKey`]. The gmin
/// diagonal is one block.
const GMIN_BLOCK: u32 = 0;
const RESISTOR_BLOCK: u32 = 1;
const CAPACITOR_BLOCK: u32 = 2;
const VSOURCE_BLOCK: u32 = 3;
const MOSFET_BLOCK: u32 = 4;

/// A terminal's word in a [`BlockKey`]: its unknown, or `u32::MAX` for
/// ground.
#[inline(always)]
fn term(node: NodeRef) -> u32 {
    node.index().map_or(u32::MAX, |i| i as u32)
}

#[inline(always)]
fn add_term<S: Stamp>(a: &mut S, row: usize, col: NodeRef, g: f64) {
    if let Some(c) = col.index() {
        a.add(row, c, g);
    }
}

#[inline(always)]
fn stamp_conductance<S: Stamp>(a: &mut S, p: NodeRef, q: NodeRef, g: f64) {
    if let Some(i) = p.index() {
        a.add(i, i, g);
        if let Some(j) = q.index() {
            a.add(i, j, -g);
        }
    }
    if let Some(j) = q.index() {
        a.add(j, j, g);
        if let Some(i) = p.index() {
            a.add(j, i, -g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::Waveshape;

    /// V --R-- out --C-- gnd : the canonical RC low-pass.
    fn rc_circuit(r: f64, c: f64, v: Waveshape) -> Circuit {
        let mut ckt = Circuit::new();
        let src = ckt.add_node("src");
        let out = ckt.add_node("out");
        ckt.add_vsource(src, NodeRef::Ground, v);
        ckt.add_resistor(src, out, r);
        ckt.add_capacitor(out, NodeRef::Ground, c);
        ckt
    }

    #[test]
    fn pre_fired_cancel_flag_stops_every_analysis() {
        let ckt = rc_circuit(1e3, 1e-9, Waveshape::Dc(1.0));
        let cancel = AtomicBool::new(true);
        let sim = Simulator::new(&ckt).with_cancel_flag(&cancel);
        assert_eq!(sim.op(), Err(SimError::Cancelled));
        assert_eq!(
            sim.transient(1e-6, 1e-9).map(|_| ()),
            Err(SimError::Cancelled)
        );
        assert_eq!(
            sim.transient_adaptive(1e-6, 1e-9, 1e-8).map(|_| ()),
            Err(SimError::Cancelled)
        );
    }

    #[test]
    fn clear_cancel_flag_changes_nothing() {
        let ckt = rc_circuit(1e3, 1e-9, Waveshape::Pwl(vec![(0.0, 0.0), (1e-12, 1.0)]));
        let cancel = AtomicBool::new(false);
        let plain = Simulator::new(&ckt).transient(1e-6, 1e-9).unwrap();
        let flagged = Simulator::new(&ckt)
            .with_cancel_flag(&cancel)
            .transient(1e-6, 1e-9)
            .unwrap();
        let a = plain.voltage_by_name("out").unwrap().value_at(5e-7);
        let b = flagged.voltage_by_name("out").unwrap().value_at(5e-7);
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "cancel hook must not perturb results"
        );
    }

    #[test]
    fn dc_divider() {
        let mut ckt = Circuit::new();
        let a = ckt.add_node("a");
        let mid = ckt.add_node("mid");
        ckt.add_vsource(a, NodeRef::Ground, Waveshape::Dc(10.0));
        ckt.add_resistor(a, mid, 1000.0);
        ckt.add_resistor(mid, NodeRef::Ground, 1000.0);
        let sim = Simulator::new(&ckt);
        let x = sim.op().unwrap();
        assert!((x[0] - 10.0).abs() < 1e-6);
        assert!((x[1] - 5.0).abs() < 1e-3);
    }

    #[test]
    fn rc_step_response_matches_analytic() {
        // tau = 1 µs; after 1 tau the output reaches 1 - 1/e of the step.
        let r = 1e3;
        let c = 1e-9;
        let ckt = rc_circuit(r, c, Waveshape::Dc(1.0));
        // Start from a discharged capacitor: use PWL 0 -> 1 at t=0+.
        let ckt2 = rc_circuit(r, c, Waveshape::Pwl(vec![(0.0, 0.0), (1e-12, 1.0)]));
        drop(ckt);
        let sim = Simulator::new(&ckt2);
        let result = sim.transient(5e-6, 1e-8).unwrap();
        let wave = result.voltage_by_name("out").unwrap();
        let tau = r * c;
        for k in 1..=4 {
            let t = k as f64 * tau;
            let expect = 1.0 - (-(t / tau)).exp();
            let got = wave.value_at(t);
            assert!(
                (got - expect).abs() < 0.01,
                "at {k} tau: got {got}, expected {expect}"
            );
        }
    }

    #[test]
    fn rc_charge_conservation_small_steps_vs_large() {
        let ckt = rc_circuit(1e3, 1e-9, Waveshape::Pwl(vec![(0.0, 0.0), (1e-12, 1.0)]));
        let sim = Simulator::new(&ckt);
        let fine = sim.transient(3e-6, 2e-9).unwrap();
        let coarse = sim.transient(3e-6, 5e-8).unwrap();
        let vf = fine.voltage_by_name("out").unwrap().value_at(2e-6);
        let vc = coarse.voltage_by_name("out").unwrap().value_at(2e-6);
        assert!((vf - vc).abs() < 0.02, "fine {vf} vs coarse {vc}");
    }

    #[test]
    fn nmos_inverter_dc_transfer() {
        // CMOS inverter: out high for low input, low for high input.
        use crate::devices::MosParams;
        let build = |vin: f64| {
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
            ckt
        };
        let low_in = build(0.0);
        let x = Simulator::new(&low_in).op().unwrap();
        assert!(x[2] > 4.9, "out should be high, got {}", x[2]);
        let high_in = build(5.0);
        let x = Simulator::new(&high_in).op().unwrap();
        assert!(x[2] < 0.1, "out should be low, got {}", x[2]);
        let mid_in = build(2.5);
        let x = Simulator::new(&mid_in).op().unwrap();
        assert!(x[2] > 0.5 && x[2] < 4.5, "transition region, got {}", x[2]);
    }

    #[test]
    fn nmos_depletion_inverter_levels() {
        use crate::devices::MosParams;
        // nMOS inverter: pull-down 8/2, depletion load 2/8.
        let build = |vin: f64| {
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
            // Load: gate tied to source (out).
            ckt.add_mosfet(vdd, out, out, 2e-6, 8e-6, MosParams::depletion_default());
            ckt
        };
        let x = Simulator::new(&build(0.0)).op().unwrap();
        assert!(x[2] > 4.5, "nMOS high level, got {}", x[2]);
        let x = Simulator::new(&build(5.0)).op().unwrap();
        // Ratioed logic: low level is nonzero but well below threshold.
        assert!(x[2] < 1.0, "nMOS low level, got {}", x[2]);
    }

    #[test]
    fn adaptive_matches_fixed_step_on_rc() {
        let ckt = rc_circuit(1e3, 1e-9, Waveshape::Pwl(vec![(0.0, 0.0), (1e-12, 1.0)]));
        let sim = Simulator::new(&ckt);
        let tau = 1e-6;
        let fixed = sim.transient(3.0 * tau, tau / 500.0).unwrap();
        let adaptive = sim
            .transient_adaptive(3.0 * tau, tau / 20.0, tau / 2.0)
            .unwrap();
        let wf = fixed.voltage_by_name("out").unwrap();
        let wa = adaptive.voltage_by_name("out").unwrap();
        for k in 1..=5 {
            let t = k as f64 * tau / 2.0;
            assert!(
                (wf.value_at(t) - wa.value_at(t)).abs() < 0.02,
                "at {t:e}: fixed {} vs adaptive {}",
                wf.value_at(t),
                wa.value_at(t)
            );
        }
        // The output grid is uniform and complete.
        assert_eq!(adaptive.times().len(), 61);
    }

    #[test]
    fn adaptive_handles_nonlinear_inverter_edge() {
        use crate::devices::MosParams;
        let mut ckt = Circuit::new();
        let vdd = ckt.add_node("vdd");
        let inp = ckt.add_node("in");
        let out = ckt.add_node("out");
        ckt.add_vsource(vdd, NodeRef::Ground, Waveshape::Dc(5.0));
        ckt.add_vsource(inp, NodeRef::Ground, Waveshape::ramp(0.0, 5.0, 2e-9, 2e-10));
        ckt.add_mosfet(
            out,
            inp,
            NodeRef::Ground,
            8e-6,
            2e-6,
            MosParams::nmos_default(),
        );
        ckt.add_mosfet(out, inp, vdd, 16e-6, 2e-6, MosParams::pmos_default());
        ckt.add_capacitor(out, NodeRef::Ground, 100e-15);
        let sim = Simulator::new(&ckt);
        let fixed = sim.transient(8e-9, 5e-12).unwrap();
        let adaptive = sim.transient_adaptive(8e-9, 50e-12, 1e-9).unwrap();
        let t50_fixed = fixed
            .voltage_by_name("out")
            .unwrap()
            .crossing(2.5, false, 0.0)
            .unwrap();
        let t50_adaptive = adaptive
            .voltage_by_name("out")
            .unwrap()
            .crossing(2.5, false, 0.0)
            .unwrap();
        assert!(
            (t50_fixed - t50_adaptive).abs() < 50e-12,
            "fixed {t50_fixed:e} vs adaptive {t50_adaptive:e}"
        );
    }

    #[test]
    fn adaptive_rejects_bad_parameters() {
        let ckt = rc_circuit(1e3, 1e-9, Waveshape::Dc(1.0));
        let sim = Simulator::new(&ckt);
        assert!(matches!(
            sim.transient_adaptive(-1.0, 1e-9, 1e-9),
            Err(SimError::BadParameter { .. })
        ));
        assert!(matches!(
            sim.transient_adaptive(1e-6, 1e-9, 1e-11),
            Err(SimError::BadParameter { .. })
        ));
    }

    #[test]
    fn uic_transient_starts_from_given_charge() {
        // A capacitor precharged to 3 V discharging through a resistor:
        // no source, pure initial-condition decay.
        let mut ckt = Circuit::new();
        let out = ckt.add_node("out");
        ckt.add_resistor(out, NodeRef::Ground, 1e3);
        ckt.add_capacitor(out, NodeRef::Ground, 1e-9);
        let sim = Simulator::new(&ckt);
        let tau = 1e3 * 1e-9;
        let result = sim
            .transient_uic(3.0 * tau, tau / 200.0, &[(0, 3.0)])
            .unwrap();
        let wave = result.voltage_by_name("out").unwrap();
        assert!((wave.first() - 3.0).abs() < 0.05, "starts at IC");
        let expect = 3.0 * (-1.0f64).exp();
        let got = wave.value_at(tau);
        assert!((got - expect).abs() < 0.05, "decay: {got} vs {expect}");
    }

    #[test]
    fn uic_rejects_bad_node_index() {
        let mut ckt = Circuit::new();
        let out = ckt.add_node("out");
        ckt.add_capacitor(out, NodeRef::Ground, 1e-12);
        let sim = Simulator::new(&ckt);
        assert!(matches!(
            sim.transient_uic(1e-9, 1e-12, &[(5, 1.0)]),
            Err(SimError::BadNode { index: 5 })
        ));
    }

    #[test]
    fn trapezoidal_beats_backward_euler_at_coarse_steps() {
        // RC step response at one tau with a coarse grid: trapezoidal
        // (2nd order) must land much closer to the analytic value than
        // backward Euler (1st order).
        let r = 1e3;
        let c = 1e-9;
        let tau = r * c;
        let ckt = rc_circuit(r, c, Waveshape::Pwl(vec![(0.0, 0.0), (1e-12, 1.0)]));
        let analytic = 1.0 - (-1.0f64).exp();
        let dt = tau / 5.0; // deliberately coarse
        let be = Simulator::with_options(
            &ckt,
            Options {
                integration: Integration::BackwardEuler,
                ..Options::default()
            },
        );
        let tr = Simulator::with_options(
            &ckt,
            Options {
                integration: Integration::Trapezoidal,
                ..Options::default()
            },
        );
        let v_be = be
            .transient(2.0 * tau, dt)
            .unwrap()
            .voltage_by_name("out")
            .unwrap()
            .value_at(tau);
        let v_tr = tr
            .transient(2.0 * tau, dt)
            .unwrap()
            .voltage_by_name("out")
            .unwrap()
            .value_at(tau);
        let err_be = (v_be - analytic).abs();
        let err_tr = (v_tr - analytic).abs();
        assert!(
            err_tr < 0.35 * err_be,
            "trapezoidal {err_tr:.4} vs backward-euler {err_be:.4}"
        );
    }

    #[test]
    fn trapezoidal_converges_to_same_answer_as_be_at_fine_steps() {
        let ckt = rc_circuit(1e3, 1e-9, Waveshape::Pwl(vec![(0.0, 0.0), (1e-12, 1.0)]));
        let fine = 1e-8;
        let be = Simulator::new(&ckt)
            .transient(3e-6, fine)
            .unwrap()
            .voltage_by_name("out")
            .unwrap()
            .value_at(2e-6);
        let tr = Simulator::with_options(
            &ckt,
            Options {
                integration: Integration::Trapezoidal,
                ..Options::default()
            },
        )
        .transient(3e-6, fine)
        .unwrap()
        .voltage_by_name("out")
        .unwrap()
        .value_at(2e-6);
        assert!((be - tr).abs() < 5e-3, "be {be} vs trap {tr}");
    }

    #[test]
    fn trapezoidal_handles_nonlinear_inverter() {
        use crate::devices::MosParams;
        let mut ckt = Circuit::new();
        let vdd = ckt.add_node("vdd");
        let inp = ckt.add_node("in");
        let out = ckt.add_node("out");
        ckt.add_vsource(vdd, NodeRef::Ground, Waveshape::Dc(5.0));
        ckt.add_vsource(inp, NodeRef::Ground, Waveshape::ramp(0.0, 5.0, 1e-9, 5e-10));
        ckt.add_mosfet(
            out,
            inp,
            NodeRef::Ground,
            8e-6,
            2e-6,
            MosParams::nmos_default(),
        );
        ckt.add_mosfet(out, inp, vdd, 16e-6, 2e-6, MosParams::pmos_default());
        ckt.add_capacitor(out, NodeRef::Ground, 100e-15);
        let sim = Simulator::with_options(
            &ckt,
            Options {
                integration: Integration::Trapezoidal,
                ..Options::default()
            },
        );
        let result = sim.transient(6e-9, 10e-12).unwrap();
        let out_wave = result.voltage_by_name("out").unwrap();
        assert!(out_wave.first() > 4.9);
        assert!(out_wave.last() < 0.2);
    }

    #[test]
    fn transient_rejects_bad_parameters() {
        let ckt = rc_circuit(1e3, 1e-9, Waveshape::Dc(1.0));
        let sim = Simulator::new(&ckt);
        assert!(matches!(
            sim.transient(-1.0, 1e-9),
            Err(SimError::BadParameter { .. })
        ));
        assert!(matches!(
            sim.transient(1e-6, 0.0),
            Err(SimError::BadParameter { .. })
        ));
        assert!(matches!(
            sim.transient(1e-6, 1.0),
            Err(SimError::BadParameter { .. })
        ));
    }

    #[test]
    fn floating_node_is_singular() {
        let mut ckt = Circuit::new();
        let a = ckt.add_node("a");
        let b = ckt.add_node("b");
        ckt.add_vsource(a, NodeRef::Ground, Waveshape::Dc(1.0));
        // `b` has no DC path at all — with gmin it still solves, so check
        // that gmin keeps it at 0.
        let _ = b;
        let sim = Simulator::new(&ckt);
        let x = sim.op().unwrap();
        assert!((x[1]).abs() < 1e-9);
    }

    #[test]
    fn pulse_drives_transient() {
        let ckt = rc_circuit(
            1e3,
            1e-9,
            Waveshape::Pulse {
                v0: 0.0,
                v1: 1.0,
                delay: 1e-6,
                rise: 1e-8,
                fall: 1e-8,
                width: 2e-6,
                period: f64::INFINITY,
            },
        );
        let sim = Simulator::new(&ckt);
        let result = sim.transient(5e-6, 1e-8).unwrap();
        let out = result.voltage_by_name("out").unwrap();
        assert!(out.value_at(0.9e-6) < 0.01); // before pulse
        assert!(out.value_at(3.0e-6) > 0.8); // charged during pulse
        assert!(out.value_at(5.0e-6) < 0.5); // discharging after
    }

    /// A CMOS inverter mid-transition: nonlinear enough that Newton needs
    /// several iterations, so a starved budget genuinely fails.
    fn inverter_circuit(vin: f64) -> Circuit {
        use crate::devices::MosParams;
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
        ckt
    }

    fn starved_options() -> Options {
        Options {
            max_nr_iterations: 1,
            ..Options::default()
        }
    }

    #[test]
    fn starved_op_fails_without_rescue() {
        let ckt = inverter_circuit(2.5);
        let sim = Simulator::with_options(&ckt, starved_options());
        assert!(sim.op().is_err());
        let err = sim
            .op_recovered(&crate::recovery::RecoveryPolicy::disabled())
            .expect_err("disabled policy must pass the failure through");
        assert!(matches!(err, SimError::NoConvergence { .. }), "{err:?}");
    }

    #[test]
    fn starved_op_rescued_by_default_policy() {
        let ckt = inverter_circuit(2.5);
        let starved = Simulator::with_options(&ckt, starved_options());
        let policy = crate::recovery::RecoveryPolicy::default();
        let (x, log) = starved.op_recovered(&policy).expect("ladder converges");
        assert!(log.needed_rescue());
        assert_eq!(
            log.succeeded_with(),
            Some(crate::recovery::RescueStrategy::GminStepping)
        );
        // The rescued solution matches the unconstrained solve.
        let reference = Simulator::new(&ckt).op().expect("healthy solve");
        for (a, b) in x.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-3, "rescued {a} vs reference {b}");
        }
    }

    #[test]
    fn healthy_op_needs_no_rescue() {
        let ckt = inverter_circuit(0.0);
        let sim = Simulator::new(&ckt);
        let (_, log) = sim
            .op_recovered(&crate::recovery::RecoveryPolicy::default())
            .expect("converges directly");
        assert!(!log.needed_rescue());
        assert_eq!(log.to_string(), "no rescue needed");
    }

    #[test]
    fn impossible_tolerance_exhausts_the_ladder() {
        // abstol = reltol = 0 makes the convergence test unsatisfiable, so
        // every rung fails and the typed exhaustion error lists them all.
        let ckt = inverter_circuit(2.5);
        let sim = Simulator::with_options(
            &ckt,
            Options {
                abstol: 0.0,
                reltol: 0.0,
                max_nr_iterations: 5,
                ..Options::default()
            },
        );
        let err = sim
            .op_recovered(&crate::recovery::RecoveryPolicy::default())
            .expect_err("cannot converge");
        match err {
            SimError::RecoveryExhausted { attempts } => {
                assert_eq!(
                    attempts,
                    vec![
                        crate::recovery::RescueStrategy::GminStepping,
                        crate::recovery::RescueStrategy::SourceStepping,
                    ]
                );
            }
            other => panic!("expected RecoveryExhausted, got {other:?}"),
        }
    }

    #[test]
    fn starved_transient_rescued_matches_healthy_run() {
        // An inverter driven through its switching edge: the starved
        // budget fails every step, the ladder still completes the run and
        // lands on the same waveform as a healthy simulator.
        use crate::devices::MosParams;
        let mut ckt = Circuit::new();
        let vdd = ckt.add_node("vdd");
        let inp = ckt.add_node("in");
        let out = ckt.add_node("out");
        ckt.add_vsource(vdd, NodeRef::Ground, Waveshape::Dc(5.0));
        ckt.add_vsource(inp, NodeRef::Ground, Waveshape::ramp(0.0, 5.0, 1e-9, 5e-10));
        ckt.add_mosfet(
            out,
            inp,
            NodeRef::Ground,
            8e-6,
            2e-6,
            MosParams::nmos_default(),
        );
        ckt.add_mosfet(out, inp, vdd, 16e-6, 2e-6, MosParams::pmos_default());
        ckt.add_capacitor(out, NodeRef::Ground, 100e-15);

        let policy = crate::recovery::RecoveryPolicy::default();
        let starved = Simulator::with_options(&ckt, starved_options());
        assert!(starved.transient(6e-9, 10e-12).is_err());
        let (result, log) = starved
            .transient_recovered(6e-9, 10e-12, &policy)
            .expect("ladder completes the run");
        assert!(log.needed_rescue());
        assert!(log.succeeded_with().is_some());

        let healthy = Simulator::new(&ckt).transient(6e-9, 10e-12).unwrap();
        let w_rescued = result.voltage_by_name("out").unwrap();
        let w_healthy = healthy.voltage_by_name("out").unwrap();
        for k in 1..=5 {
            let t = k as f64 * 1e-9;
            assert!(
                (w_rescued.value_at(t) - w_healthy.value_at(t)).abs() < 0.05,
                "at {t:e}: rescued {} vs healthy {}",
                w_rescued.value_at(t),
                w_healthy.value_at(t)
            );
        }
    }

    #[test]
    fn healthy_transient_recovered_logs_nothing() {
        let ckt = rc_circuit(1e3, 1e-9, Waveshape::Pwl(vec![(0.0, 0.0), (1e-12, 1.0)]));
        let sim = Simulator::new(&ckt);
        let (result, log) = sim
            .transient_recovered(3e-6, 1e-8, &crate::recovery::RecoveryPolicy::default())
            .unwrap();
        assert!(!log.needed_rescue());
        let plain = sim.transient(3e-6, 1e-8).unwrap();
        let a = result.voltage_by_name("out").unwrap().value_at(2e-6);
        let b = plain.voltage_by_name("out").unwrap().value_at(2e-6);
        assert!((a - b).abs() < 1e-9, "recovered path must not perturb");
    }

    #[test]
    fn unknown_signal_error() {
        let ckt = rc_circuit(1e3, 1e-9, Waveshape::Dc(1.0));
        let sim = Simulator::new(&ckt);
        let result = sim.transient(1e-6, 1e-8).unwrap();
        assert!(matches!(
            result.voltage_by_name("nope"),
            Err(SimError::UnknownSignal { .. })
        ));
    }

    #[test]
    fn newton_loop_never_copies_the_matrix() {
        // The nonlinear inverter takes several Newton iterations; the old
        // hot loop cloned the full dense matrix on every one of them
        // (`LuFactors::factor(a.clone())`). The counter is thread-local,
        // so parallel tests cannot perturb the delta.
        let ckt = inverter_circuit(2.5);
        let sim = Simulator::new(&ckt);
        let before = crate::matrix::matrix_copy_count();
        let x = sim.op().unwrap();
        assert!(x[2] > 0.5 && x[2] < 4.5, "sanity: mid-transition output");
        let copies = crate::matrix::matrix_copy_count() - before;
        assert_eq!(copies, 0, "Newton loop made {copies} matrix copies");

        // Transient steps must not copy either.
        let before = crate::matrix::matrix_copy_count();
        let ckt2 = rc_circuit(1e3, 1e-9, Waveshape::Pwl(vec![(0.0, 0.0), (1e-12, 1.0)]));
        Simulator::new(&ckt2).transient(1e-6, 1e-8).unwrap();
        let copies = crate::matrix::matrix_copy_count() - before;
        assert_eq!(copies, 0, "transient made {copies} matrix copies");
    }

    /// A decoder-4 path's circuit: above the dense/sparse threshold, with
    /// address bit 0 ramping and the other bits held low.
    fn decoder4_circuit() -> Circuit {
        use mosnet::generators::{decoder, Style};
        use mosnet::units::Farads;
        let net = decoder(Style::Cmos, 4, Farads::from_femto(50.0)).expect("decoder");
        let models = crate::circuit::MosModelSet::default();
        let drives = net
            .inputs()
            .into_iter()
            .map(|input| {
                let shape = if net.node(input).name() == "a0" {
                    Waveshape::ramp(0.0, models.vdd, 1e-9, 5e-10)
                } else {
                    Waveshape::Dc(0.0)
                };
                (input, shape)
            })
            .collect();
        let ckt = crate::circuit::elaborate(&net, &models, &drives).circuit;
        assert!(ckt.unknown_count() > crate::solver::DENSE_SPARSE_THRESHOLD);
        ckt
    }

    #[test]
    fn sparse_gmin_ladder_and_transient_analyze_once_and_refactor() {
        use crate::sparse::SparseLu;
        let ckt = decoder4_circuit();
        let sim = Simulator::new(&ckt);
        let n = ckt.unknown_count();

        // The DC gmin ladder, every rung restamping one solver.
        let mut ladder = SparseLu::new(n);
        let mut x = vec![0.0; n];
        let mut gmin = 1e-2;
        while gmin > sim.options.gmin {
            sim.newton(0.0, None, &mut x, gmin, 100, 1.0, &mut ladder)
                .expect("rung converges");
            gmin *= 1e-2;
        }
        let c = ladder.counters();
        assert_eq!((c.analyses, c.rebuilds, c.full_factors), (1, 0, 1), "{c:?}");
        assert_eq!(c.stale_pivot_fallbacks, 0, "{c:?}");
        assert!(c.refactors >= 4, "{c:?}");

        // A backward-Euler transient through the input edge, every step
        // restamping one solver.
        let mut stepper = SparseLu::new(n);
        let n_caps = ckt
            .devices()
            .iter()
            .filter(|d| matches!(d, Device::Capacitor(_)))
            .count();
        let mut cap_currents = vec![0.0; n_caps];
        let dt = 20e-12;
        for step in 1..=150 {
            let prev = x.clone();
            let ctx = DynamicCtx {
                prev: &prev,
                dt,
                cap_currents: &cap_currents,
                method: Integration::BackwardEuler,
            };
            sim.newton(
                step as f64 * dt,
                Some(ctx),
                &mut x,
                sim.options.gmin,
                100,
                1.0,
                &mut stepper,
            )
            .expect("step converges");
            sim.update_cap_currents(&prev, &x, dt, Integration::BackwardEuler, &mut cap_currents);
        }
        let c = stepper.counters();
        assert_eq!((c.analyses, c.rebuilds, c.full_factors), (1, 0, 1), "{c:?}");
        assert_eq!(c.stale_pivot_fallbacks, 0, "{c:?}");
        assert!(c.refactors >= 150, "{c:?}");
        // Cutoff devices leave their blocks out, settled columns are left
        // as they were, and every assembly replays block by block.
        assert!(c.skipped_blocks > 0 && c.skipped_columns > 0, "{c:?}");
        assert_eq!(c.per_stamp_fallbacks, 0, "{c:?}");
    }

    #[test]
    fn sparse_solver_matches_dense_on_nonlinear_op_and_transient() {
        // Same circuit solved with both backends explicitly: voltages
        // must agree to far better than the Newton tolerance.
        use crate::devices::MosParams;
        let mut ckt = Circuit::new();
        let vdd = ckt.add_node("vdd");
        let inp = ckt.add_node("in");
        let mid = ckt.add_node("mid");
        let out = ckt.add_node("out");
        ckt.add_vsource(vdd, NodeRef::Ground, Waveshape::Dc(5.0));
        ckt.add_vsource(inp, NodeRef::Ground, Waveshape::ramp(0.0, 5.0, 1e-9, 5e-10));
        for (i, o) in [(inp, mid), (mid, out)] {
            ckt.add_mosfet(o, i, NodeRef::Ground, 8e-6, 2e-6, MosParams::nmos_default());
            ckt.add_mosfet(o, i, vdd, 16e-6, 2e-6, MosParams::pmos_default());
        }
        ckt.add_capacitor(mid, NodeRef::Ground, 50e-15);
        ckt.add_capacitor(out, NodeRef::Ground, 100e-15);

        let dense = Simulator::with_options(
            &ckt,
            Options {
                solver: SolverChoice::Dense,
                ..Options::default()
            },
        );
        let sparse = Simulator::with_options(
            &ckt,
            Options {
                solver: SolverChoice::Sparse,
                ..Options::default()
            },
        );
        let xd = dense.op().unwrap();
        let xs = sparse.op().unwrap();
        for (i, (a, b)) in xd.iter().zip(&xs).enumerate() {
            assert!((a - b).abs() < 1e-9, "op unknown {i}: dense {a} sparse {b}");
        }
        let td = dense.transient(4e-9, 20e-12).unwrap();
        let ts = sparse.transient(4e-9, 20e-12).unwrap();
        for probe in ["mid", "out"] {
            let wd = td.voltage_by_name(probe).unwrap();
            let ws = ts.voltage_by_name(probe).unwrap();
            for k in 1..=8 {
                let t = k as f64 * 0.5e-9;
                assert!(
                    (wd.value_at(t) - ws.value_at(t)).abs() < 1e-6,
                    "{probe} at {t:e}: dense {} sparse {}",
                    wd.value_at(t),
                    ws.value_at(t)
                );
            }
        }
    }
}
