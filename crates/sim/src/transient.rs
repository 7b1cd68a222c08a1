//! Fixed-step transient integrators for polynomial state-space systems.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use vamor_linalg::sparse_lu::SPARSE_AUTO_THRESHOLD;
use vamor_linalg::{
    CsrMatrix, LinalgError, LuFactor, Matrix, MemoryBudget, RunControl, SolverBackend, SparseLu,
    SparseLuSymbolic, StopCause, Vector,
};
use vamor_system::PolynomialStateSpace;

use crate::error::SimError;
use crate::input::InputSignal;
use crate::Result;

/// Time-integration scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntegrationMethod {
    /// Classic explicit fourth-order Runge-Kutta. Cheap per step; appropriate
    /// for the small reduced-order models and mildly stiff full models.
    #[default]
    Rk4,
    /// Implicit trapezoidal rule with a modified Newton iteration, the
    /// work-horse for the stiff diode-line and surge circuits.
    ImplicitTrapezoidal,
    /// Implicit (backward) Euler with a modified Newton iteration. More
    /// damped than the trapezoidal rule; useful for very stiff start-up
    /// transients.
    BackwardEuler,
}

/// How the implicit integrators manage the Newton iteration matrix
/// `M = I − θh·J`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JacobianPolicy {
    /// Re-evaluate and refactor the Jacobian at the predictor of **every**
    /// step — the legacy behaviour, one LU factorization per step.
    EveryStep,
    /// Factor once and keep the LU frozen across steps (the classic modified
    /// Newton), refreshing only when the step size changes or the iteration
    /// fails to converge with the stale matrix. Since the Newton residual is
    /// always evaluated with the exact right-hand side, the accepted states
    /// agree with [`JacobianPolicy::EveryStep`] to within the Newton
    /// tolerance; only the iteration count changes.
    #[default]
    FrozenReuse,
}

/// Options controlling a transient run.
#[derive(Debug, Clone, Copy)]
pub struct TransientOptions {
    /// Start time.
    pub t_start: f64,
    /// End time.
    pub t_end: f64,
    /// Fixed step size.
    pub dt: f64,
    /// Integration scheme.
    pub method: IntegrationMethod,
    /// Newton convergence tolerance (implicit methods).
    pub newton_tol: f64,
    /// Maximum Newton iterations per step (implicit methods).
    pub newton_max_iter: usize,
    /// Jacobian refresh policy of the implicit methods.
    pub jacobian_policy: JacobianPolicy,
    /// Linear-solver backend for the Newton iteration matrix `I − θh·J`.
    /// `Auto` (the default) factors sparsely once the system is large enough
    /// (`n ≥ 256`) *and* provides a CSR Jacobian stamp
    /// ([`vamor_system::PolynomialStateSpace::jacobian_csr`]); small reduced
    /// models stay on the dense path where it is faster. The symbolic
    /// analysis is computed once and reused across every refactorization of
    /// a run, so a step-size change or convergence-triggered refresh costs
    /// only the numeric sweep.
    pub linear_solver: SolverBackend,
    /// Whether to retain the full state trajectory (memory heavy for large
    /// systems; outputs are always retained).
    pub store_states: bool,
    /// Embedded-error step control of the implicit methods (`None` = the
    /// fixed-step behaviour). See [`TransientOptions::with_adaptive_steps`].
    pub adaptive: Option<AdaptiveStepOptions>,
}

/// Controls of the embedded-error step controller of the implicit methods.
///
/// The local error is estimated from the predictor–corrector gap
/// `‖x⁺ − x_pred‖∞` (explicit-Euler predictor against the implicit
/// corrector — the Milne device with the lower-order member, an `O(h²)`
/// curvature estimate that bounds the trapezoidal LTE conservatively). The
/// controller works in **doubling/halving** steps only: a rejected step
/// halves `h` and retries, a comfortably accepted step (estimate below a
/// quarter of the tolerance, twice in a row) doubles it. Power-of-two moves
/// keep the frozen-Jacobian policy effective — the iteration matrix is
/// refactored only on an actual `h` change, a handful of times per
/// transient instead of every step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveStepOptions {
    /// Relative local-error tolerance per step.
    pub tol: f64,
    /// Smallest step the controller may halve down to.
    pub dt_min: f64,
    /// Largest step the controller may double up to.
    pub dt_max: f64,
}

impl TransientOptions {
    /// Creates options for the time span `[t_start, t_end]` with step `dt`
    /// and default solver settings (RK4, Newton tolerance `1e-10`, frozen
    /// Jacobian reuse).
    pub fn new(t_start: f64, t_end: f64, dt: f64) -> Self {
        TransientOptions {
            t_start,
            t_end,
            dt,
            method: IntegrationMethod::Rk4,
            newton_tol: 1e-10,
            newton_max_iter: 25,
            jacobian_policy: JacobianPolicy::default(),
            linear_solver: SolverBackend::default(),
            store_states: false,
            adaptive: None,
        }
    }

    /// Enables the embedded-error step controller for the implicit methods:
    /// `dt` becomes the *initial* step, halved down to `dt_min` while the
    /// predictor–corrector error estimate exceeds `tol` and doubled up to
    /// `dt_max` once it stays comfortably below (see
    /// [`AdaptiveStepOptions`]). Ignored by the explicit RK4 method.
    pub fn with_adaptive_steps(mut self, tol: f64, dt_min: f64, dt_max: f64) -> Self {
        self.adaptive = Some(AdaptiveStepOptions {
            tol,
            dt_min,
            dt_max,
        });
        self
    }

    /// Selects the linear-solver backend of the implicit methods. `Sparse`
    /// falls back to the dense path when the system does not provide a CSR
    /// Jacobian stamp.
    pub fn with_linear_solver(mut self, backend: SolverBackend) -> Self {
        self.linear_solver = backend;
        self
    }

    /// Selects the Jacobian refresh policy of the implicit methods.
    pub fn with_jacobian_policy(mut self, policy: JacobianPolicy) -> Self {
        self.jacobian_policy = policy;
        self
    }

    /// Selects the integration method.
    pub fn with_method(mut self, method: IntegrationMethod) -> Self {
        self.method = method;
        self
    }

    /// Requests that the state trajectory be stored alongside the outputs.
    pub fn with_states(mut self) -> Self {
        self.store_states = true;
        self
    }

    /// Overrides the Newton settings of the implicit methods.
    pub fn with_newton(mut self, tol: f64, max_iter: usize) -> Self {
        self.newton_tol = tol;
        self.newton_max_iter = max_iter;
        self
    }

    fn validate(&self, system: &dyn PolynomialStateSpace, input: &dyn InputSignal) -> Result<()> {
        if self.dt.is_nan() || self.dt <= 0.0 {
            return Err(SimError::InvalidOptions(format!(
                "dt must be positive, got {}",
                self.dt
            )));
        }
        if self.t_end <= self.t_start {
            return Err(SimError::InvalidOptions(format!(
                "empty time span [{}, {}]",
                self.t_start, self.t_end
            )));
        }
        if input.channels() != system.num_inputs() {
            return Err(SimError::InvalidOptions(format!(
                "input has {} channels but the system expects {}",
                input.channels(),
                system.num_inputs()
            )));
        }
        if let Some(a) = &self.adaptive {
            if a.tol <= 0.0 || !a.tol.is_finite() {
                return Err(SimError::InvalidOptions(format!(
                    "adaptive step tolerance must be positive, got {}",
                    a.tol
                )));
            }
            if a.dt_min <= 0.0 || a.dt_min > self.dt || a.dt_max < self.dt {
                return Err(SimError::InvalidOptions(format!(
                    "adaptive step bounds must satisfy 0 < dt_min <= dt <= dt_max, \
                     got dt_min {} dt {} dt_max {}",
                    a.dt_min, self.dt, a.dt_max
                )));
            }
        }
        Ok(())
    }
}

/// Cumulative statistics of a transient run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolverStats {
    /// Number of accepted time steps.
    pub steps: usize,
    /// Total Newton iterations across all steps (implicit methods only).
    pub newton_iterations: usize,
    /// Total linear solves (Jacobian factorizations) performed.
    pub jacobian_factorizations: usize,
    /// How many of those factorizations went through the sparse direct
    /// solver (0 on the dense path).
    pub sparse_factorizations: usize,
    /// Steps rejected (and re-taken at half the size) by the embedded-error
    /// controller (0 on fixed-step runs).
    pub rejected_steps: usize,
    /// Degraded-mode recoveries of the Jacobian factorization path: pivot
    /// threshold escalations plus dense fallbacks taken after a singular
    /// sparse factorization (0 on a healthy run).
    pub pivot_recoveries: usize,
    /// Right-hand-side evaluations: four per RK4 step; one per implicit
    /// step attempt (accepted or rejected) plus one per Newton iteration.
    pub rhs_evaluations: usize,
}

impl SolverStats {
    /// Folds this run's counters into the workspace metrics registry under
    /// the `transient.*` names (called once per simulation, so the registry
    /// lookups here are off any hot path).
    pub fn publish(&self) {
        vamor_obs::counter("transient.runs").inc();
        vamor_obs::counter("transient.steps").add(self.steps as u64);
        vamor_obs::counter("transient.newton_iterations").add(self.newton_iterations as u64);
        vamor_obs::counter("transient.jacobian_factorizations")
            .add(self.jacobian_factorizations as u64);
        vamor_obs::counter("transient.sparse_factorizations")
            .add(self.sparse_factorizations as u64);
        vamor_obs::counter("transient.rejected_steps").add(self.rejected_steps as u64);
        vamor_obs::counter("transient.pivot_recoveries").add(self.pivot_recoveries as u64);
        vamor_obs::counter("transient.rhs_evaluations").add(self.rhs_evaluations as u64);
    }
}

/// Result of a transient simulation.
#[derive(Debug, Clone)]
pub struct TransientResult {
    /// Sample times, including the initial time.
    pub times: Vec<f64>,
    /// System outputs `y(t_k)` at each sample time.
    pub outputs: Vec<Vector>,
    /// State trajectory (only if requested via
    /// [`TransientOptions::with_states`]).
    pub states: Option<Vec<Vector>>,
    /// Solver statistics.
    pub stats: SolverStats,
    /// `Some` when a [`RunControl`] token stopped the run early (see
    /// [`simulate_controlled`]): the trajectory is the valid prefix computed
    /// before the stop. `None` for a run that reached `t_end`.
    pub interrupted: Option<StopCause>,
}

impl TransientResult {
    /// The scalar series of output channel `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn output_channel(&self, k: usize) -> Vec<f64> {
        self.outputs.iter().map(|y| y[k]).collect()
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True if the run produced no samples (never the case for a successful
    /// simulation).
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }
}

/// Simulates `system` driven by `input` from the zero initial state.
///
/// # Errors
///
/// * [`SimError::InvalidOptions`] for inconsistent options or input/channel
///   mismatch.
/// * [`SimError::NewtonFailed`] if an implicit step does not converge.
/// * [`SimError::Diverged`] if the state leaves the finite floating range.
pub fn simulate(
    system: &dyn PolynomialStateSpace,
    input: &dyn InputSignal,
    opts: &TransientOptions,
) -> Result<TransientResult> {
    simulate_impl(system, input, opts, None, None)
}

/// [`simulate`] under a [`RunControl`] token: the stepper checkpoints as
/// `transient-step` before every accepted step. A cancellation or deadline
/// never errors — the run stops cleanly and returns the valid trajectory
/// prefix with [`TransientResult::interrupted`] carrying the [`StopCause`]
/// (at minimum the initial sample is always present).
///
/// # Errors
///
/// Same contract as [`simulate`] — interruption itself is not an error.
pub fn simulate_controlled(
    system: &dyn PolynomialStateSpace,
    input: &dyn InputSignal,
    opts: &TransientOptions,
    control: &RunControl,
) -> Result<TransientResult> {
    simulate_impl(system, input, opts, Some(control), None)
}

/// The budget owner string under which a run's frozen iteration matrix is
/// accounted in a shared session [`MemoryBudget`].
pub const INTEGRATOR_BUDGET_OWNER: &str = "integrator";

/// Monotone run keys so concurrent budgeted runs sharing one ledger never
/// collide on an entry.
static RUN_KEY: AtomicU64 = AtomicU64::new(0);

/// Run-scoped handle charging the frozen iteration matrix against a shared
/// session [`MemoryBudget`] under the [`INTEGRATOR_BUDGET_OWNER`] owner.
/// Each budgeted run owns a unique ledger key; the entry is re-priced on
/// every refactorization, touched on every reuse, and released when the run
/// returns (success or error). If another owner's charge evicts the entry,
/// the integrator honors the eviction cooperatively: the next implicit step
/// drops the frozen factor and refactorizes (re-charging the ledger).
struct BudgetHook<'a> {
    budget: &'a MemoryBudget,
    key: u64,
}

/// [`simulate`] with the frozen-Jacobian factor of the implicit methods
/// accounted against a shared session [`MemoryBudget`]. Explicit (RK4) runs
/// never charge the ledger.
///
/// # Errors
///
/// Same contract as [`simulate`], plus [`SimError::Budget`] when the factor
/// cannot be accounted even after the ledger evicted every unpinned entry —
/// typed backpressure instead of unbudgeted growth.
pub fn simulate_budgeted(
    system: &dyn PolynomialStateSpace,
    input: &dyn InputSignal,
    opts: &TransientOptions,
    budget: &MemoryBudget,
) -> Result<TransientResult> {
    run_budgeted(system, input, opts, None, budget)
}

/// [`simulate_budgeted`] under a [`RunControl`] token (the
/// [`simulate_controlled`] checkpoint contract applies unchanged).
///
/// # Errors
///
/// Same contract as [`simulate_budgeted`].
pub fn simulate_budgeted_controlled(
    system: &dyn PolynomialStateSpace,
    input: &dyn InputSignal,
    opts: &TransientOptions,
    control: &RunControl,
    budget: &MemoryBudget,
) -> Result<TransientResult> {
    run_budgeted(system, input, opts, Some(control), budget)
}

fn run_budgeted(
    system: &dyn PolynomialStateSpace,
    input: &dyn InputSignal,
    opts: &TransientOptions,
    control: Option<&RunControl>,
    budget: &MemoryBudget,
) -> Result<TransientResult> {
    let hook = BudgetHook {
        budget,
        key: RUN_KEY.fetch_add(1, Ordering::Relaxed),
    };
    let out = simulate_impl(system, input, opts, control, Some(&hook));
    // Whatever happened, this run's factor is gone now — release its entry
    // (a no-op if it was never charged or already evicted).
    budget.release(INTEGRATOR_BUDGET_OWNER, hook.key);
    out
}

fn simulate_impl(
    system: &dyn PolynomialStateSpace,
    input: &dyn InputSignal,
    opts: &TransientOptions,
    control: Option<&RunControl>,
    hook: Option<&BudgetHook<'_>>,
) -> Result<TransientResult> {
    let _span = vamor_obs::span!("transient_sim");
    opts.validate(system, input)?;
    let implicit = matches!(
        opts.method,
        IntegrationMethod::ImplicitTrapezoidal | IntegrationMethod::BackwardEuler
    );
    if implicit {
        if let Some(adaptive) = opts.adaptive {
            return simulate_adaptive(system, input, opts, adaptive, control, hook);
        }
    }
    let n = system.order();
    let steps = ((opts.t_end - opts.t_start) / opts.dt).ceil() as usize;
    let mut x = Vector::zeros(n);
    let mut times = Vec::with_capacity(steps + 1);
    let mut outputs = Vec::with_capacity(steps + 1);
    let mut states = if opts.store_states {
        Some(Vec::with_capacity(steps + 1))
    } else {
        None
    };
    let mut stats = SolverStats::default();

    times.push(opts.t_start);
    outputs.push(system.output(&x));
    if let Some(s) = states.as_mut() {
        s.push(x.clone());
    }

    // The frozen iteration matrix of the modified Newton, shared across
    // steps under `JacobianPolicy::FrozenReuse` (tagged with the step size it
    // was factored for), and the RK4 stage buffers reused across steps.
    let mut frozen: Option<FrozenJacobian> = None;
    let mut rk4_ws = Rk4Workspace::new(n);
    let mut newton_ws = NewtonWorkspace::new(n);
    let mut interrupted = None;

    for k in 0..steps {
        let t = opts.t_start + k as f64 * opts.dt;
        let t_next = (t + opts.dt).min(opts.t_end);
        let h = t_next - t;
        if h <= 0.0 {
            break;
        }
        if let Some(c) = control {
            if c.checkpoint_with("transient-step", t).is_err() {
                interrupted = c.stop_cause();
                break;
            }
        }
        let newton_before = stats.newton_iterations;
        match opts.method {
            IntegrationMethod::Rk4 => {
                rk4_step(system, input, t, h, &mut x, &mut rk4_ws);
                stats.rhs_evaluations += 4;
            }
            IntegrationMethod::ImplicitTrapezoidal => {
                x = implicit_step(
                    system,
                    input,
                    t,
                    h,
                    &x,
                    opts,
                    &mut stats,
                    true,
                    &mut frozen,
                    &mut newton_ws,
                    hook,
                )?
                .0;
            }
            IntegrationMethod::BackwardEuler => {
                x = implicit_step(
                    system,
                    input,
                    t,
                    h,
                    &x,
                    opts,
                    &mut stats,
                    false,
                    &mut frozen,
                    &mut newton_ws,
                    hook,
                )?
                .0;
            }
        }
        if !x.is_finite() {
            return Err(SimError::Diverged { time: t_next });
        }
        stats.steps += 1;
        vamor_obs::event!(vamor_obs::Event::NewtonStep {
            step: stats.steps as u64,
            t,
            dt: h,
            iterations: (stats.newton_iterations - newton_before) as u32,
            accepted: true,
        });
        times.push(t_next);
        outputs.push(system.output(&x));
        if let Some(s) = states.as_mut() {
            s.push(x.clone());
        }
    }

    stats.publish();
    Ok(TransientResult {
        times,
        outputs,
        states,
        stats,
        interrupted,
    })
}

/// The embedded-error driver of the implicit methods: step doubling/halving
/// on the predictor–corrector gap (see [`AdaptiveStepOptions`]). The fixed
/// grid path above is untouched — bit-identical trajectories when the
/// controller is off.
fn simulate_adaptive(
    system: &dyn PolynomialStateSpace,
    input: &dyn InputSignal,
    opts: &TransientOptions,
    adaptive: AdaptiveStepOptions,
    control: Option<&RunControl>,
    hook: Option<&BudgetHook<'_>>,
) -> Result<TransientResult> {
    let n = system.order();
    let trapezoidal = opts.method == IntegrationMethod::ImplicitTrapezoidal;
    let mut x = Vector::zeros(n);
    let mut times = Vec::new();
    let mut outputs = Vec::new();
    let mut states = if opts.store_states {
        Some(Vec::new())
    } else {
        None
    };
    let mut stats = SolverStats::default();
    times.push(opts.t_start);
    outputs.push(system.output(&x));
    if let Some(s) = states.as_mut() {
        s.push(x.clone());
    }

    let mut frozen: Option<FrozenJacobian> = None;
    let mut newton_ws = NewtonWorkspace::new(n);
    let mut t = opts.t_start;
    let mut h = opts.dt;
    let mut interrupted = None;
    // Consecutive comfortably-small error estimates before a doubling: one
    // quiet step right after a front is not yet a trend.
    let mut calm_streak = 0usize;
    // vamor: allow(span-coverage, reason = "runs under the transient_sim span opened by simulate_impl, its only caller")
    while t < opts.t_end - 1e-12 * opts.dt {
        if let Some(c) = control {
            if c.checkpoint_with("transient-step", t).is_err() {
                interrupted = c.stop_cause();
                break;
            }
        }
        let h_step = h.min(opts.t_end - t);
        let newton_before = stats.newton_iterations;
        let (x_next, gap) = implicit_step(
            system,
            input,
            t,
            h_step,
            &x,
            opts,
            &mut stats,
            trapezoidal,
            &mut frozen,
            &mut newton_ws,
            hook,
        )?;
        if !x_next.is_finite() {
            return Err(SimError::Diverged { time: t + h_step });
        }
        let scale = x_next.norm_inf().max(1.0);
        let estimate = gap / scale;
        if estimate > adaptive.tol && h_step * 0.5 >= adaptive.dt_min {
            // Reject: halve and retake from the same state. The halved step
            // is remembered, so a sharp front settles at its own step size
            // instead of re-probing every step.
            stats.rejected_steps += 1;
            vamor_obs::event!(vamor_obs::Event::NewtonStep {
                step: stats.steps as u64,
                t,
                dt: h_step,
                iterations: (stats.newton_iterations - newton_before) as u32,
                accepted: false,
            });
            h = h_step * 0.5;
            calm_streak = 0;
            continue;
        }
        t += h_step;
        x = x_next;
        stats.steps += 1;
        vamor_obs::event!(vamor_obs::Event::NewtonStep {
            step: stats.steps as u64,
            t,
            dt: h_step,
            iterations: (stats.newton_iterations - newton_before) as u32,
            accepted: true,
        });
        times.push(t);
        outputs.push(system.output(&x));
        if let Some(s) = states.as_mut() {
            s.push(x.clone());
        }
        if estimate <= 0.25 * adaptive.tol {
            calm_streak += 1;
            if calm_streak >= 2 && h * 2.0 <= adaptive.dt_max {
                h *= 2.0;
                calm_streak = 0;
            }
        } else {
            calm_streak = 0;
        }
    }
    stats.publish();
    Ok(TransientResult {
        times,
        outputs,
        states,
        stats,
        interrupted,
    })
}

/// Reusable buffers for [`rk4_step`]: the state is advanced in place and
/// the stage slopes are evaluated through `rhs_into`, so a step allocates
/// only its three input samples.
struct Rk4Workspace {
    stage: Vector,
    k: [Vector; 4],
    scratch: Vec<f64>,
}

impl Rk4Workspace {
    fn new(n: usize) -> Self {
        Rk4Workspace {
            stage: Vector::zeros(n),
            k: std::array::from_fn(|_| Vector::zeros(n)),
            scratch: Vec::new(),
        }
    }
}

/// Advances `x` by one classic RK4 step in place.
fn rk4_step(
    system: &dyn PolynomialStateSpace,
    input: &dyn InputSignal,
    t: f64,
    h: f64,
    x: &mut Vector,
    ws: &mut Rk4Workspace,
) {
    let u1 = input.sample(t);
    let u2 = input.sample(t + 0.5 * h);
    let u3 = input.sample(t + h);
    let Rk4Workspace { stage, k, scratch } = ws;
    let [k1, k2, k3, k4] = k;
    system.rhs_into(x, &u1, k1, scratch);
    stage.copy_from(x);
    stage.axpy(0.5 * h, k1);
    system.rhs_into(stage, &u2, k2, scratch);
    stage.copy_from(x);
    stage.axpy(0.5 * h, k2);
    system.rhs_into(stage, &u2, k3, scratch);
    stage.copy_from(x);
    stage.axpy(h, k3);
    system.rhs_into(stage, &u3, k4, scratch);
    x.axpy(h / 6.0, k1);
    x.axpy(h / 3.0, k2);
    x.axpy(h / 3.0, k3);
    x.axpy(h / 6.0, k4);
}

/// Buffers [`implicit_step`] reuses across Newton iterations and steps, so
/// the iteration itself does not allocate: the slopes at the step start and
/// at the iterate, the residual, the Newton update, and the scratch of
/// `rhs_into`.
struct NewtonWorkspace {
    f0: Vector,
    fx: Vector,
    residual: Vector,
    update: Vector,
    scratch: Vec<f64>,
}

impl NewtonWorkspace {
    fn new(n: usize) -> Self {
        NewtonWorkspace {
            f0: Vector::zeros(n),
            fx: Vector::zeros(n),
            residual: Vector::zeros(n),
            update: Vector::zeros(n),
            scratch: Vec::new(),
        }
    }
}

/// A factored Newton iteration matrix `I − θh·J`, tagged with the step size
/// it was built for so a trailing partial step triggers a refactorization.
/// On the sparse path the symbolic analysis (fill-reducing ordering) is kept
/// alongside and reused by every refresh of the run.
struct FrozenJacobian {
    factor: LuFactor,
    h: f64,
    symbolic: Option<Arc<SparseLuSymbolic>>,
}

/// Factors the iteration matrix at the current iterate and records it.
#[allow(clippy::too_many_arguments)] // private helper with two call sites; a config struct would just rename the arguments
fn refresh_jacobian(
    system: &dyn PolynomialStateSpace,
    x: &Vector,
    u: &[f64],
    theta: f64,
    h: f64,
    opts: &TransientOptions,
    stats: &mut SolverStats,
    frozen: &mut Option<FrozenJacobian>,
    hook: Option<&BudgetHook<'_>>,
) -> Result<()> {
    let n = system.order();
    let want_sparse = opts.linear_solver.use_sparse(n, SPARSE_AUTO_THRESHOLD);
    let sparse_jac = if want_sparse {
        system.jacobian_csr(x, u)
    } else {
        None
    };
    match sparse_jac {
        Some(jac) => {
            let m = jac.identity_plus_scaled(-theta * h);
            // Reuse the symbolic analysis from the previous factorization —
            // an elimination ordering stays valid for any numeric pattern.
            let symbolic = match frozen.take().and_then(|f| f.symbolic) {
                Some(s) => s,
                None => Arc::new(SparseLuSymbolic::analyze(&m).map_err(SimError::Linalg)?),
            };
            let (factor, recoveries) = factor_sparse_with_ladder(&symbolic, &m)?;
            stats.jacobian_factorizations += 1;
            stats.pivot_recoveries += recoveries;
            if matches!(factor, LuFactor::Sparse(_)) {
                stats.sparse_factorizations += 1;
            }
            *frozen = Some(FrozenJacobian {
                factor,
                h,
                symbolic: Some(symbolic),
            });
        }
        None => {
            let jac = system.jacobian_x(x, u);
            let mut iteration_matrix = Matrix::identity(n);
            iteration_matrix.axpy(-theta * h, &jac);
            #[cfg(feature = "fault-injection")]
            if injected_factor_fault().is_some() {
                // An injected singular first attempt on the dense path:
                // the recovery is a straight refactorization (dense partial
                // pivoting has no threshold to escalate), which is exactly
                // the genuine factorization below.
                stats.pivot_recoveries += 1;
            }
            let lu = iteration_matrix.lu().map_err(SimError::Linalg)?;
            stats.jacobian_factorizations += 1;
            *frozen = Some(FrozenJacobian {
                factor: LuFactor::Dense(lu),
                h,
                symbolic: None,
            });
        }
    }
    if let Some(hook) = hook {
        let bytes = frozen.as_ref().map_or(0, |f| f.factor.approx_bytes());
        if let Err(e) = hook.budget.charge(INTEGRATOR_BUDGET_OWNER, hook.key, bytes) {
            // Typed backpressure: drop the factor the ledger refused to
            // account, so the run never holds unbudgeted memory.
            *frozen = None;
            return Err(SimError::Budget(e));
        }
    }
    Ok(())
}

/// Consults the armed fault plan at the integrator's factorization seam; any
/// planned fault kind maps onto this seam's one failure shape, a singular
/// iteration matrix.
#[cfg(feature = "fault-injection")]
fn injected_factor_fault() -> Option<LinalgError> {
    use vamor_linalg::fault::{maybe, FaultSite};
    maybe(FaultSite::IntegratorFactor).map(|_| {
        LinalgError::Singular("fault injection: forced singular integrator iteration matrix".into())
    })
}

/// Consults the armed fault plan at the integrator's Newton-update solve
/// seam, writing the faulty update into `update`: a planned singular factor
/// becomes a typed error, a NaN solve poisons the update (caught by the
/// stepper's finite guard), a stall writes a zero update — a solve that
/// makes no progress.
#[cfg(feature = "fault-injection")]
fn injected_newton_solve(update: &mut Vector) -> Option<std::result::Result<(), LinalgError>> {
    use vamor_linalg::fault::{maybe, FaultKind, FaultSite};
    Some(match maybe(FaultSite::IntegratorSolve)? {
        FaultKind::SingularFactor => Err(LinalgError::Singular(
            "fault injection: forced singular newton solve".into(),
        )),
        FaultKind::NanSolve => {
            update.as_mut_slice().fill(f64::NAN);
            Ok(())
        }
        FaultKind::AdiStall => {
            update.as_mut_slice().fill(0.0);
            Ok(())
        }
        // Session-level kinds fire at the session seams, not here.
        FaultKind::CacheCorrupt | FaultKind::BudgetPressure | FaultKind::CheckpointTorn => {
            return None
        }
    })
}

/// The degradation ladder of the sparse factorization path: a healthy
/// factorization first; on a singular pivot, escalated (more
/// partial-pivoting-like) thresholds; when the ladder is exhausted, a dense
/// fallback factorization. Returns the factor with the number of recovery
/// rungs taken (0 = healthy).
fn factor_sparse_with_ladder(
    symbolic: &SparseLuSymbolic,
    m: &CsrMatrix,
) -> Result<(LuFactor, usize)> {
    #[cfg(feature = "fault-injection")]
    let first = match injected_factor_fault() {
        Some(e) => Err(e),
        None => SparseLu::factor_with(symbolic, m),
    };
    #[cfg(not(feature = "fault-injection"))]
    let first = SparseLu::factor_with(symbolic, m);
    match first {
        Ok(lu) => Ok((LuFactor::Sparse(lu), 0)),
        Err(LinalgError::Singular(_)) => {
            match SparseLu::factor_shifted_with_recovery(symbolic, m, 0.0) {
                Ok((lu, escalations)) => Ok((LuFactor::Sparse(lu), escalations.max(1))),
                Err(LinalgError::Singular(_)) => {
                    let lu = m.to_dense().lu().map_err(SimError::Linalg)?;
                    // All three threshold rungs failed plus the dense rung.
                    Ok((LuFactor::Dense(lu), 4))
                }
                Err(e) => Err(SimError::Linalg(e)),
            }
        }
        Err(e) => Err(SimError::Linalg(e)),
    }
}

/// Advances one implicit step, returning the accepted state together with
/// the predictor–corrector gap `‖x⁺ − x_pred‖∞` (the raw embedded error
/// estimate consumed by the adaptive controller; ignored on fixed grids).
#[allow(clippy::too_many_arguments)]
fn implicit_step(
    system: &dyn PolynomialStateSpace,
    input: &dyn InputSignal,
    t: f64,
    h: f64,
    x0: &Vector,
    opts: &TransientOptions,
    stats: &mut SolverStats,
    trapezoidal: bool,
    frozen: &mut Option<FrozenJacobian>,
    ws: &mut NewtonWorkspace,
    hook: Option<&BudgetHook<'_>>,
) -> Result<(Vector, f64)> {
    let u0 = input.sample(t);
    let u1 = input.sample(t + h);
    system.rhs_into(x0, &u0, &mut ws.f0, &mut ws.scratch);
    stats.rhs_evaluations += 1;
    // theta = 1/2 for trapezoidal, 1 for backward Euler.
    let theta = if trapezoidal { 0.5 } else { 1.0 };

    // Predictor: explicit Euler.
    let mut x = x0.clone();
    x.axpy(h, &ws.f0);

    // Modified Newton: the iteration matrix is refreshed at the predictor
    // every step under `EveryStep`, and only on the first step / a step-size
    // change under `FrozenReuse` (failure-triggered refreshes happen below).
    // The step size is reconstructed from rounded time points, so successive
    // steps jitter in the last ulp; only a genuine change of step size (the
    // clamped final step) warrants refactorizing the iteration matrix.
    // Cooperative eviction: a budgeted run honors another owner's eviction
    // of its ledger entry by dropping the frozen factor and refactorizing
    // (which re-charges).
    let evicted = match (hook, frozen.as_ref()) {
        (Some(hook), Some(_)) => !hook.budget.contains(INTEGRATOR_BUDGET_OWNER, hook.key),
        _ => false,
    };
    if evicted {
        *frozen = None;
    }
    let stale = match (opts.jacobian_policy, frozen.as_ref()) {
        (JacobianPolicy::FrozenReuse, Some(f)) => (f.h - h).abs() > 1e-9 * h.abs(),
        _ => true,
    };
    if stale {
        refresh_jacobian(system, &x, &u1, theta, h, opts, stats, frozen, hook)?;
    } else if let Some(hook) = hook {
        hook.budget.touch(INTEGRATOR_BUDGET_OWNER, hook.key);
    }

    let x_pred = x.clone();
    let mut residual_norm = f64::INFINITY;
    // Two attempts: one with the (possibly frozen) iteration matrix, and on
    // slow contraction one more with a matrix refreshed at the current
    // iterate. Waiting for the full iteration budget before refreshing both
    // wastes iterations and refreshes at a worse linearization point, so the
    // first attempt bails out as soon as the residual stops contracting
    // geometrically — or blows up outright, which under a stale frozen
    // matrix is a reason to refresh, not to abort.
    for attempt in 0..2 {
        let lu = &frozen
            .as_ref()
            // vamor: allow(panic-freedom, reason = "every path into this loop either found `frozen` fresh or ran refresh_jacobian, which assigns Some; attempt 2 refreshes again before re-entering")
            .expect("iteration matrix factored above")
            .factor;
        let mut prev_residual = f64::INFINITY;
        for iter in 0..opts.newton_max_iter {
            // Residual g(x) = x - x0 - h*((1-θ) f0 + θ f(x, u1)).
            system.rhs_into(&x, &u1, &mut ws.fx, &mut ws.scratch);
            stats.rhs_evaluations += 1;
            let g = &mut ws.residual;
            for ((gi, xi), x0i) in g.iter_mut().zip(x.iter()).zip(x0.iter()) {
                *gi = xi - x0i;
            }
            g.axpy(-h * (1.0 - theta), &ws.f0);
            g.axpy(-h * theta, &ws.fx);
            residual_norm = g.norm_inf();
            stats.newton_iterations += 1;
            let scale = x.norm_inf().max(1.0);
            if residual_norm <= opts.newton_tol * scale {
                let gap = (&x - &x_pred).norm_inf();
                return Ok((x, gap));
            }
            // Stagnation check on the first attempt only: a healthy modified
            // Newton contracts by a solid factor per iteration; once it
            // stops, a refreshed Jacobian converges far faster than grinding
            // out the remaining budget with the stale one.
            if attempt == 0 && iter >= 2 && residual_norm > 0.5 * prev_residual {
                break;
            }
            prev_residual = residual_norm;
            #[cfg(feature = "fault-injection")]
            let solved = match injected_newton_solve(&mut ws.update) {
                Some(injected) => injected,
                None => lu.solve_into(&ws.residual, &mut ws.update),
            };
            #[cfg(not(feature = "fault-injection"))]
            let solved = lu.solve_into(&ws.residual, &mut ws.update);
            solved.map_err(SimError::Linalg)?;
            x.axpy(-1.0, &ws.update);
            if !x.is_finite() {
                if attempt == 0 {
                    // The stale matrix sent the iterate out of the finite
                    // range; restart from the predictor with a fresh
                    // factorization instead of declaring divergence.
                    x.copy_from(&x_pred);
                    break;
                }
                return Err(SimError::Diverged { time: t + h });
            }
        }
        if attempt == 0 {
            // Refresh the Jacobian at the current (finite) iterate and retry.
            refresh_jacobian(system, &x, &u1, theta, h, opts, stats, frozen, hook)?;
        }
    }
    Err(SimError::NewtonFailed {
        time: t + h,
        residual: residual_norm,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{Constant, SinePulse, Step, Zero};
    use vamor_linalg::{CooMatrix, Matrix};
    use vamor_system::{LtiSystem, Qldae, QldaeBuilder};

    fn decay_system(lambda: f64) -> Qldae {
        QldaeBuilder::new(1, 1)
            .g1_entry(0, 0, lambda)
            .b_entry(0, 0, 1.0)
            .output_state(0)
            .build()
            .unwrap()
    }

    #[test]
    fn linear_decay_matches_analytic_solution() {
        // x' = -x + u with a unit step: x(t) = 1 - e^{-t}.
        let sys = decay_system(-1.0);
        let opts = TransientOptions::new(0.0, 5.0, 0.01);
        for method in [
            IntegrationMethod::Rk4,
            IntegrationMethod::ImplicitTrapezoidal,
            IntegrationMethod::BackwardEuler,
        ] {
            let r = simulate(&sys, &Step::new(1.0, 0.0), &opts.with_method(method)).unwrap();
            let y_end = r.outputs.last().unwrap()[0];
            let exact = 1.0 - (-5.0_f64).exp();
            let tol = if method == IntegrationMethod::BackwardEuler {
                1e-2
            } else {
                1e-4
            };
            assert!(
                (y_end - exact).abs() < tol,
                "{method:?}: {y_end} vs {exact}"
            );
            assert_eq!(r.stats.steps, 500);
            assert_eq!(r.len(), 501);
        }
    }

    #[test]
    fn quadratic_system_matches_analytic_riccati_solution() {
        // x' = -x^2 with x(0)=... start from zero state and a constant input:
        // x' = -x^2 + 1, x(0)=0 has solution tanh(t).
        let mut g2 = CooMatrix::new(1, 1);
        g2.push(0, 0, -1.0);
        let sys = Qldae::new(
            Matrix::zeros(1, 1),
            g2.to_csr(),
            Vec::new(),
            Matrix::from_rows(&[&[1.0]]).unwrap(),
            Matrix::from_rows(&[&[1.0]]).unwrap(),
        )
        .unwrap();
        let opts = TransientOptions::new(0.0, 2.0, 0.001)
            .with_method(IntegrationMethod::ImplicitTrapezoidal);
        let r = simulate(&sys, &Constant::new(1.0), &opts).unwrap();
        let y_end = r.outputs.last().unwrap()[0];
        assert!((y_end - 2.0_f64.tanh()).abs() < 1e-5);
        assert!(r.stats.newton_iterations > 0);
    }

    #[test]
    fn rhs_evaluations_are_counted_per_method() {
        use crate::input::ExpPulse;
        let mut g2 = CooMatrix::new(1, 1);
        g2.push(0, 0, -1.0);
        let sys = Qldae::new(
            Matrix::from_rows(&[&[-1.0]]).unwrap(),
            g2.to_csr(),
            Vec::new(),
            Matrix::from_rows(&[&[1.0]]).unwrap(),
            Matrix::from_rows(&[&[1.0]]).unwrap(),
        )
        .unwrap();
        let surge = ExpPulse::new(1.0, 0.02, 4.0);
        let fixed = TransientOptions::new(0.0, 10.0, 0.05)
            .with_method(IntegrationMethod::ImplicitTrapezoidal);
        let s = simulate(&sys, &surge, &fixed).unwrap().stats;
        assert!(s.newton_iterations > s.steps);
        assert_eq!(s.rhs_evaluations, s.steps + s.newton_iterations);

        let adaptive = TransientOptions::new(0.0, 10.0, 0.5)
            .with_method(IntegrationMethod::ImplicitTrapezoidal)
            .with_adaptive_steps(1e-5, 1e-4, 1.0);
        let s = simulate(&sys, &surge, &adaptive).unwrap().stats;
        assert!(s.rejected_steps > 0);
        assert_eq!(
            s.rhs_evaluations,
            s.steps + s.rejected_steps + s.newton_iterations
        );

        let rk4 = TransientOptions::new(0.0, 10.0, 0.05);
        let s = simulate(&sys, &surge, &rk4).unwrap().stats;
        assert_eq!(s.rhs_evaluations, 4 * s.steps);
    }

    #[test]
    fn budgeted_run_accounts_then_releases_the_frozen_factor() {
        let sys = decay_system(-1.0);
        let opts = TransientOptions::new(0.0, 1.0, 0.01)
            .with_method(IntegrationMethod::ImplicitTrapezoidal);
        let budget = MemoryBudget::new(1 << 20);
        let budgeted = simulate_budgeted(&sys, &Step::new(1.0, 0.0), &opts, &budget).unwrap();
        let plain = simulate(&sys, &Step::new(1.0, 0.0), &opts).unwrap();
        assert_eq!(
            budgeted.outputs, plain.outputs,
            "accounting never perturbs the trajectory"
        );
        assert_eq!(budget.used(), 0, "the run releases its ledger entry");
        assert_eq!(budget.evictions(), 0);
    }

    #[test]
    fn exhausted_integrator_budget_is_typed_backpressure() {
        let sys = decay_system(-1.0);
        let opts =
            TransientOptions::new(0.0, 1.0, 0.01).with_method(IntegrationMethod::BackwardEuler);
        // A 1-state dense factor needs 16 B; a 4 B budget with nothing to
        // evict must refuse with the typed error, never panic.
        let budget = MemoryBudget::new(4);
        match simulate_budgeted(&sys, &Step::new(1.0, 0.0), &opts, &budget) {
            Err(SimError::Budget(vamor_linalg::BudgetError::Exhausted {
                requested,
                capacity,
                ..
            })) => {
                assert!(requested > capacity);
                assert_eq!(capacity, 4);
            }
            other => panic!("expected budget backpressure, got {other:?}"),
        }
        assert_eq!(budget.used(), 0, "the refused run leaves no trace");
    }

    #[test]
    fn implicit_method_handles_stiff_decay_with_large_steps() {
        // lambda = -1000 with dt = 0.01 (lambda*dt = -10): RK4 blows up,
        // the implicit methods stay bounded.
        let sys = decay_system(-1000.0);
        let opts = TransientOptions::new(0.0, 1.0, 0.01);
        let explicit = simulate(
            &sys,
            &Step::new(1.0, 0.0),
            &opts.with_method(IntegrationMethod::Rk4),
        );
        match explicit {
            Err(SimError::Diverged { .. }) => {}
            Ok(r) => assert!(r.outputs.last().unwrap()[0].abs() > 10.0),
            Err(e) => panic!("unexpected error {e}"),
        }
        let implicit = simulate(
            &sys,
            &Step::new(1.0, 0.0),
            &opts.with_method(IntegrationMethod::ImplicitTrapezoidal),
        )
        .unwrap();
        let y = implicit.outputs.last().unwrap()[0];
        assert!((y - 1e-3).abs() < 1e-4);
    }

    #[test]
    fn lti_transient_matches_frequency_response_amplitude() {
        // Drive a stable 2-state filter with a sinusoid and compare the
        // steady-state output amplitude against |H(jw)|.
        let a = Matrix::from_rows(&[&[-2.0, 1.0], &[1.0, -2.0]]).unwrap();
        let sys = QldaeBuilder::new(2, 1)
            .g1_entry(0, 0, a[(0, 0)])
            .g1_entry(0, 1, a[(0, 1)])
            .g1_entry(1, 0, a[(1, 0)])
            .g1_entry(1, 1, a[(1, 1)])
            .b_entry(0, 0, 1.0)
            .output_state(1)
            .build()
            .unwrap();
        let lti = LtiSystem::new(
            a,
            Matrix::from_rows(&[&[1.0], &[0.0]]).unwrap(),
            Matrix::from_rows(&[&[0.0, 1.0]]).unwrap(),
        )
        .unwrap();
        let f = 0.25;
        let w = 2.0 * std::f64::consts::PI * f;
        let gain = lti
            .transfer_function(vamor_linalg::Complex::new(0.0, w))
            .unwrap()[(0, 0)]
            .abs();
        let opts = TransientOptions::new(0.0, 40.0, 0.005);
        let r = simulate(&sys, &SinePulse::new(1.0, f), &opts).unwrap();
        // Ignore the first half (transient), take the max of the tail.
        let tail_max = r
            .output_channel(0)
            .iter()
            .skip(r.len() / 2)
            .fold(0.0_f64, |m, &v| m.max(v.abs()));
        assert!(
            (tail_max - gain).abs() < 0.02 * gain.max(1e-6),
            "{tail_max} vs {gain}"
        );
    }

    #[test]
    fn options_are_validated() {
        let sys = decay_system(-1.0);
        assert!(matches!(
            simulate(&sys, &Zero::new(1), &TransientOptions::new(0.0, 1.0, 0.0)),
            Err(SimError::InvalidOptions(_))
        ));
        assert!(matches!(
            simulate(&sys, &Zero::new(1), &TransientOptions::new(1.0, 0.0, 0.1)),
            Err(SimError::InvalidOptions(_))
        ));
        assert!(matches!(
            simulate(&sys, &Zero::new(2), &TransientOptions::new(0.0, 1.0, 0.1)),
            Err(SimError::InvalidOptions(_))
        ));
    }

    #[test]
    fn stored_states_match_outputs() {
        let sys = decay_system(-0.5);
        let opts = TransientOptions::new(0.0, 1.0, 0.1).with_states();
        let r = simulate(&sys, &Step::new(1.0, 0.0), &opts).unwrap();
        let states = r.states.as_ref().unwrap();
        assert_eq!(states.len(), r.len());
        for (x, y) in states.iter().zip(r.outputs.iter()) {
            assert!((x[0] - y[0]).abs() < 1e-15);
        }
    }

    /// The adaptive controller tracks a surge-like front accurately and then
    /// coarsens: far fewer steps than the fixed grid at matched accuracy.
    #[test]
    fn adaptive_steps_cut_post_front_work_on_a_surge() {
        use crate::input::ExpPulse;
        // x' = -x + u with a fast-rise/slow-fall double-exponential surge.
        let sys = decay_system(-1.0);
        let surge = ExpPulse::new(1.0, 0.05, 5.0);
        let dt = 0.005;
        let fixed_opts = TransientOptions::new(0.0, 30.0, dt)
            .with_method(IntegrationMethod::ImplicitTrapezoidal);
        let fixed = simulate(&sys, &surge, &fixed_opts).unwrap();
        let adaptive = simulate(
            &sys,
            &surge,
            &fixed_opts.with_adaptive_steps(1e-5, dt / 8.0, 64.0 * dt),
        )
        .unwrap();
        assert!(
            adaptive.stats.steps < fixed.stats.steps / 4,
            "adaptive took {} steps vs fixed {}",
            adaptive.stats.steps,
            fixed.stats.steps
        );
        // The non-uniform trajectory still matches the fixed reference:
        // compare by linear interpolation of the adaptive output onto the
        // fixed sample times.
        let ya = adaptive.output_channel(0);
        let yf = fixed.output_channel(0);
        let peak = yf.iter().fold(0.0_f64, |m, &v| m.max(v.abs())).max(1e-30);
        let mut worst = 0.0_f64;
        for (i, &tf) in fixed.times.iter().enumerate() {
            let j = adaptive.times.partition_point(|&ta| ta < tf);
            let interp = if j == 0 {
                ya[0]
            } else if j >= adaptive.times.len() {
                *ya.last().unwrap()
            } else {
                let (t0, t1) = (adaptive.times[j - 1], adaptive.times[j]);
                let w = (tf - t0) / (t1 - t0).max(1e-300);
                ya[j - 1] * (1.0 - w) + ya[j] * w
            };
            worst = worst.max((interp - yf[i]).abs() / peak);
        }
        assert!(
            worst < 2e-3,
            "adaptive-vs-fixed trajectory diff {worst:.3e}"
        );
        // The final time is hit exactly.
        assert!((adaptive.times.last().unwrap() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn adaptive_controller_rejects_and_halves_on_a_sharp_front() {
        use crate::input::ExpPulse;
        let sys = decay_system(-1.0);
        // Start with a deliberately coarse step so the surge front forces
        // rejections.
        let surge = ExpPulse::new(1.0, 0.02, 4.0);
        let opts = TransientOptions::new(0.0, 10.0, 0.5)
            .with_method(IntegrationMethod::ImplicitTrapezoidal)
            .with_adaptive_steps(1e-5, 1e-4, 1.0);
        let r = simulate(&sys, &surge, &opts).unwrap();
        assert!(r.stats.rejected_steps > 0, "no rejections on a sharp front");
        // Step sizes vary by at least three doublings between the front and
        // the tail: the controller both halved and recovered.
        let mut hs: Vec<f64> = r.times.windows(2).map(|w| w[1] - w[0]).collect();
        hs.sort_by(f64::total_cmp);
        assert!(
            *hs.last().unwrap() >= 8.0 * hs[0],
            "step sizes did not spread: {:.3e} .. {:.3e}",
            hs[0],
            hs.last().unwrap()
        );
    }

    #[test]
    fn adaptive_options_are_validated() {
        let sys = decay_system(-1.0);
        let bad_tol = TransientOptions::new(0.0, 1.0, 0.1)
            .with_method(IntegrationMethod::ImplicitTrapezoidal)
            .with_adaptive_steps(0.0, 0.01, 1.0);
        assert!(matches!(
            simulate(&sys, &Step::new(1.0, 0.0), &bad_tol),
            Err(SimError::InvalidOptions(_))
        ));
        let bad_bounds = TransientOptions::new(0.0, 1.0, 0.1)
            .with_method(IntegrationMethod::ImplicitTrapezoidal)
            .with_adaptive_steps(1e-6, 0.5, 1.0);
        assert!(matches!(
            simulate(&sys, &Step::new(1.0, 0.0), &bad_bounds),
            Err(SimError::InvalidOptions(_))
        ));
    }

    #[test]
    fn zero_input_stays_at_equilibrium() {
        let sys = decay_system(-1.0);
        let r = simulate(&sys, &Zero::new(1), &TransientOptions::new(0.0, 2.0, 0.05)).unwrap();
        assert!(r.output_channel(0).iter().all(|&v| v.abs() < 1e-15));
        assert_eq!(r.interrupted, None);
    }

    #[test]
    fn cancelled_run_returns_the_valid_prefix_not_an_error() {
        let sys = decay_system(-1.0);
        let opts = TransientOptions::new(0.0, 5.0, 0.01);
        let control = RunControl::new();
        let handle = control.clone();
        // Cancel after 50 accepted steps.
        let control = control.with_progress(move |event| {
            if event.sequence >= 50 {
                handle.cancel();
            }
        });
        let r = simulate_controlled(&sys, &Step::new(1.0, 0.0), &opts, &control).unwrap();
        assert_eq!(r.interrupted, Some(StopCause::Cancelled));
        assert_eq!(r.stats.steps, 49, "50th checkpoint fails before its step");
        assert_eq!(r.len(), 50);
        assert!(r.output_channel(0).iter().all(|v| v.is_finite()));
        // The prefix agrees with the uncontrolled run sample-for-sample.
        let full = simulate(&sys, &Step::new(1.0, 0.0), &opts).unwrap();
        for (a, b) in r.outputs.iter().zip(full.outputs.iter()) {
            assert_eq!(a[0], b[0]);
        }
    }

    #[test]
    fn expired_deadline_yields_only_the_initial_sample() {
        let sys = decay_system(-1.0);
        let opts = TransientOptions::new(0.0, 1.0, 0.1)
            .with_method(IntegrationMethod::ImplicitTrapezoidal);
        let control = RunControl::new().with_deadline(std::time::Duration::ZERO);
        let r = simulate_controlled(&sys, &Step::new(1.0, 0.0), &opts, &control).unwrap();
        assert_eq!(r.interrupted, Some(StopCause::DeadlineExceeded));
        assert_eq!(r.len(), 1, "only the initial sample");
        assert_eq!(r.stats.steps, 0);
    }

    #[test]
    fn adaptive_run_is_cancellable_too() {
        use crate::input::ExpPulse;
        let sys = decay_system(-1.0);
        let opts = TransientOptions::new(0.0, 30.0, 0.005)
            .with_method(IntegrationMethod::ImplicitTrapezoidal)
            .with_adaptive_steps(1e-5, 0.005 / 8.0, 0.32);
        let control = RunControl::new();
        let handle = control.clone();
        let control = control.with_progress(move |event| {
            if event.sequence >= 20 {
                handle.cancel();
            }
        });
        let r = simulate_controlled(&sys, &ExpPulse::new(1.0, 0.05, 5.0), &opts, &control).unwrap();
        assert_eq!(r.interrupted, Some(StopCause::Cancelled));
        assert!(*r.times.last().unwrap() < 30.0);
        assert!(r.output_channel(0).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn an_unbounded_token_changes_nothing() {
        let sys = decay_system(-1.0);
        let opts = TransientOptions::new(0.0, 2.0, 0.01)
            .with_method(IntegrationMethod::ImplicitTrapezoidal);
        let plain = simulate(&sys, &Step::new(1.0, 0.0), &opts).unwrap();
        let controlled =
            simulate_controlled(&sys, &Step::new(1.0, 0.0), &opts, &RunControl::new()).unwrap();
        assert_eq!(controlled.interrupted, None);
        assert_eq!(plain.times, controlled.times);
        for (a, b) in plain.outputs.iter().zip(controlled.outputs.iter()) {
            assert_eq!(a[0], b[0]);
        }
    }
}
