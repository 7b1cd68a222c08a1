//! The traced pass (`--trace 1`): per-layer numbers measured by timing the
//! public entry points of each crate from outside, on the same pinned spec
//! and inputs as the end-to-end pass. The in-program span summary is not
//! used: worker-thread spans have no parent, so its self times do not
//! attribute the reduce's wall time. The layer timings are plain wall
//! times; only `norm.reduce_s` and `norm.sim_s`, measured by the NORM
//! baseline run, are in reference seconds (see `calib`).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use vamor_core::lowrank::LowRankOptions;
use vamor_core::{
    project_cubic, project_qldae, try_parallel_map, AssocMomentGenerator,
    CubicAssocMomentGenerator, LowRankAssocMomentGenerator, MorError, ScaledMoments, SolverBackend,
};
use vamor_linalg::sparse_lu::SPARSE_AUTO_THRESHOLD;
use vamor_linalg::{SparseLu, Vector};
use vamor_system::PolynomialStateSpace;

use crate::check;
use crate::run::{RoundReport, Run};
use crate::workload::{transient, Model};

/// Repeats of the cheap, single-call timings (stamping, factoring,
/// projecting); each metric is their median.
const REPS: usize = 5;
/// Trajectory states the `rhs` / Jacobian timings cycle through.
const STATES: usize = 32;

/// Per-layer metrics in `BENCHMARK.json` order: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("circuits.stamp_s", "s"),
    ("linalg.g1_factor_s", "s"),
    ("linalg.shift_cache.hits", "count"),
    ("linalg.shift_cache.misses", "count"),
    ("linalg.shift_cache.hit_ratio", "ratio"),
    ("core.assoc.build_s", "s"),
    ("core.assoc.h1_s", "s"),
    ("core.assoc.h2_s", "s"),
    ("core.assoc.h3_s", "s"),
    ("core.lowrank.build_s", "s"),
    ("core.lowrank.h1_s", "s"),
    ("core.lowrank.h2_s", "s"),
    ("core.lowrank.h3_s", "s"),
    ("core.lowrank.adi_iterations", "count"),
    ("core.lowrank.chain_basis_dim", "count"),
    ("core.project_s", "s"),
    ("core.reduce.candidates", "count"),
    ("core.reduce.deflated", "count"),
    ("core.reduce.restarts", "count"),
    ("core.reduce.kept_ratio", "ratio"),
    ("core.reduce.timed_share", "ratio"),
    ("system.full.rhs_us", "us"),
    ("system.full.jacobian_us", "us"),
    ("system.rom.rhs_us", "us"),
    ("system.rom.jacobian_us", "us"),
    ("system.rom.g2_nnz", "count"),
    ("system.rom.g3_nnz", "count"),
    ("sim.full.steps", "count"),
    ("sim.full.newton_iterations", "count"),
    ("sim.full.factorizations", "count"),
    ("sim.rom.newton_iterations", "count"),
    ("sim.rom.factorizations", "count"),
    ("obs.trace_overhead", "ratio"),
    ("norm.reduce_s", "s"),
    ("norm.sim_s", "s"),
    ("norm.max_rel_error", "ratio"),
];

const ASSOC: [&str; 4] = [
    "core.assoc.build_s",
    "core.assoc.h1_s",
    "core.assoc.h2_s",
    "core.assoc.h3_s",
];
const LOWRANK: [&str; 4] = [
    "core.lowrank.build_s",
    "core.lowrank.h1_s",
    "core.lowrank.h2_s",
    "core.lowrank.h3_s",
];

/// Per-layer metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn time_median<T>(mut f: impl FnMut() -> T) -> f64 {
    median(
        (0..REPS)
            .map(|_| {
                let start = Instant::now();
                black_box(f());
                start.elapsed().as_secs_f64()
            })
            .collect(),
    )
}

/// Microseconds per call of `f` over `states`: each batch loops over the
/// states until it lasts at least 10 ms; the median of `REPS` batches.
fn per_call_us<T>(states: &[(Vector, Vec<f64>)], f: impl Fn(&Vector, &[f64]) -> T) -> f64 {
    let pass = || {
        for (x, u) in states {
            black_box(f(black_box(x), black_box(u)));
        }
    };
    let mut passes = 1usize;
    loop {
        let start = Instant::now();
        for _ in 0..passes {
            pass();
        }
        if start.elapsed().as_secs_f64() >= 0.01 || passes >= 1 << 20 {
            break;
        }
        passes *= 2;
    }
    let calls = (passes * states.len()) as f64;
    1e6 * time_median(|| {
        for _ in 0..passes {
            pass();
        }
    }) / calls
}

#[derive(Debug, Clone, Copy)]
enum Chain {
    H1(usize),
    H2(usize, usize),
    H3(usize),
}

/// The moment generator `AssocReducer` builds for this model.
enum Generator<'a> {
    Dense(AssocMomentGenerator<'a>),
    DenseCubic(CubicAssocMomentGenerator<'a>),
    LowRank(LowRankAssocMomentGenerator<'a>),
}

impl Generator<'_> {
    fn build(model: Model<'_>) -> Result<Generator<'_>, MorError> {
        let backend = SolverBackend::Auto;
        let opts = LowRankOptions::default();
        Ok(match (model, model.uses_lowrank()) {
            (Model::Qldae(q), false) => {
                Generator::Dense(AssocMomentGenerator::with_options(q, true, backend)?)
            }
            (Model::Cubic(c), false) => {
                Generator::DenseCubic(CubicAssocMomentGenerator::with_options(c, true, backend)?)
            }
            (Model::Qldae(q), true) => {
                Generator::LowRank(LowRankAssocMomentGenerator::new(q, backend, opts)?)
            }
            (Model::Cubic(_), true) => {
                return Err(MorError::Invalid(
                    "no workload reduces a cubic model on the low-rank engine".into(),
                ))
            }
        })
    }

    fn run(&self, chain: Chain, k: [usize; 3]) -> Result<ScaledMoments, MorError> {
        match (self, chain) {
            (Generator::Dense(g), Chain::H1(i)) => g.h1_moments_scaled(i, k[0]),
            (Generator::Dense(g), Chain::H2(a, b)) => g.h2_moments_scaled(a, b, k[1]),
            (Generator::Dense(g), Chain::H3(i)) => g.h3_moments_scaled(i, k[2]),
            (Generator::DenseCubic(g), Chain::H1(i)) => g.h1_moments_scaled(i, k[0]),
            (Generator::DenseCubic(g), Chain::H3(i)) => g.h3_moments_scaled(i, k[2]),
            (Generator::LowRank(g), Chain::H1(i)) => g.h1_moments_scaled(i, k[0]),
            (Generator::LowRank(g), Chain::H2(a, b)) => g.h2_moments_scaled(a, b, k[1]),
            (Generator::LowRank(g), Chain::H3(i)) => g.h3_moments_scaled(i, k[2]),
            (_, Chain::H2(..)) => Err(MorError::Invalid("cubic models have no H2 chain".into())),
        }
    }
}

/// The chains `AssocReducer` runs, in its order: QLDAE — every `H₁`, then
/// every `H₂` pair, then every `H₃`; cubic — `H₁`, `H₃` per input.
fn chains(model: Model<'_>, k: [usize; 3]) -> Vec<Chain> {
    let m = model.num_inputs();
    match model {
        Model::Qldae(_) => {
            let mut out: Vec<Chain> = (0..m).map(Chain::H1).collect();
            if k[1] > 0 {
                for a in 0..m {
                    out.extend((a..m).map(|b| Chain::H2(a, b)));
                }
            }
            if k[2] > 0 {
                out.extend((0..m).map(Chain::H3));
            }
            out
        }
        Model::Cubic(_) => (0..m).flat_map(|i| [Chain::H1(i), Chain::H3(i)]).collect(),
    }
}

/// States (and the inputs at their times) sampled evenly from a trajectory.
fn trajectory_states(
    system: &dyn PolynomialStateSpace,
    run: &Run,
) -> Result<Vec<(Vector, Vec<f64>)>, String> {
    let input = &run.inputs[0];
    let opts = run.workload.transient_options().with_states();
    let result = transient(system, input, &opts)?;
    let states = result.states.ok_or("trajectory states were not recorded")?;
    let signal = input.signal();
    let stride = (states.len() / STATES).max(1);
    Ok(states
        .into_iter()
        .zip(result.times)
        .step_by(stride)
        .take(STATES)
        .map(|(x, t)| (x, signal.sample(t)))
        .collect())
}

/// Times `rhs` and the Jacobian the transient solver factors for this
/// system (`jacobian_csr` where the sparse backend applies, else
/// `jacobian_x`).
fn evaluator_us(system: &dyn PolynomialStateSpace, states: &[(Vector, Vec<f64>)]) -> (f64, f64) {
    let rhs = per_call_us(states, |x, u| system.rhs(x, u));
    let sparse = SolverBackend::Auto.use_sparse(system.order(), SPARSE_AUTO_THRESHOLD)
        && system.jacobian_csr(&states[0].0, &states[0].1).is_some();
    let jacobian = if sparse {
        per_call_us(states, |x, u| system.jacobian_csr(x, u))
    } else {
        per_call_us(states, |x, u| system.jacobian_x(x, u))
    };
    (rhs, jacobian)
}

/// Runs the traced pass: one unarmed round (counts, the reduce wall) and
/// the NORM baseline, one round with the span recorder armed (tracing
/// overhead), then the per-layer timings.
pub fn traced(run: &mut Run) -> Values {
    let mut v = Values::default();
    let unarmed = run.round();
    run.norm_baseline();
    vamor_obs::install();
    let armed = run.round();
    vamor_obs::take_trace();
    v.insert("obs.trace_overhead", armed.wall_s / unarmed.wall_s);
    record_round(run, &unarmed, &mut v);

    let timings = check::contained(|| layer_timings(run, &mut v));
    run.tally.check("per-layer timings", timings);
    v
}

/// Counts and NORM figures read from the unarmed round's public results.
fn record_round(run: &Run, round: &RoundReport, v: &mut Values) {
    let (hits, misses) = round.shift_cache;
    v.insert("linalg.shift_cache.hits", hits as f64);
    v.insert("linalg.shift_cache.misses", misses as f64);
    v.insert(
        "linalg.shift_cache.hit_ratio",
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
    );
    let c = round.counts;
    v.insert("sim.full.steps", c.full_steps as f64);
    v.insert(
        "sim.full.newton_iterations",
        c.full_newton_iterations as f64,
    );
    v.insert("sim.full.factorizations", c.full_factorizations as f64);
    v.insert("sim.rom.newton_iterations", c.rom_newton_iterations as f64);
    v.insert("sim.rom.factorizations", c.rom_factorizations as f64);
    if let Some(rom) = &run.rom {
        let s = rom.stats();
        let candidates = s.total_candidates();
        v.insert("core.reduce.candidates", candidates as f64);
        v.insert("core.reduce.deflated", s.deflated as f64);
        v.insert("core.reduce.restarts", s.restarts as f64);
        v.insert(
            "core.reduce.kept_ratio",
            rom.order() as f64 / candidates.max(1) as f64,
        );
        v.insert("core.lowrank.adi_iterations", s.adi_iterations as f64);
        v.insert("core.lowrank.chain_basis_dim", s.chain_basis_dim as f64);
        v.insert("system.rom.g2_nnz", rom.g2_nnz() as f64);
        v.insert("system.rom.g3_nnz", rom.g3_nnz() as f64);
    }
    // The NORM figures read 0 on workloads without the baseline.
    let norm = run.norm_rom.as_ref();
    v.insert(
        "norm.reduce_s",
        norm.map_or(0.0, |_| run.timings.norm_reduce.median()),
    );
    v.insert(
        "norm.sim_s",
        norm.map_or(0.0, |_| run.timings.norm_sim.median()),
    );
    v.insert(
        "norm.max_rel_error",
        norm.map_or(0.0, |_| run.norm_max_rel_error),
    );
}

/// Times the public calls of every layer the reduce and the transients go
/// through, on the run's circuit, ROM and first input.
fn layer_timings(run: &Run, v: &mut Values) -> Result<(), String> {
    let workload = run.workload;
    let circuit = run.circuit.as_ref().ok_or("no circuit")?;
    let rom = run.rom.as_ref().ok_or("no reduced model")?;
    let model = circuit.model();
    let spec = workload.spec();
    let k = [spec.moments.k1, spec.moments.k2, spec.moments.k3];

    v.insert("circuits.stamp_s", time_median(|| workload.stamp()));
    v.insert(
        "linalg.g1_factor_s",
        if SolverBackend::Auto.use_sparse(model.order(), SPARSE_AUTO_THRESHOLD) {
            time_median(|| SparseLu::factor(model.g1_csr()))
        } else {
            time_median(|| model.g1().lu())
        },
    );

    let start = Instant::now();
    let generator = Generator::build(model).map_err(|e| format!("generator build: {e}"))?;
    let build_s = start.elapsed().as_secs_f64();
    // The chains run on `parallel_map` workers exactly as in the reduce;
    // each call is timed on its own thread.
    let start = Instant::now();
    let results = try_parallel_map(chains(model, k), |chain| {
        let start = Instant::now();
        let out = generator.run(chain, k);
        (
            chain,
            start.elapsed().as_secs_f64(),
            out.map(|m| m.vectors.len()),
        )
    });
    let chains_wall_s = start.elapsed().as_secs_f64();
    let mut h = [0.0f64; 3];
    for result in results {
        let (chain, secs, out) = result.map_err(|e| format!("chain panicked: {e}"))?;
        out.map_err(|e| format!("{chain:?}: {e}"))?;
        h[match chain {
            Chain::H1(_) => 0,
            Chain::H2(..) => 1,
            Chain::H3(_) => 2,
        }] += secs;
    }
    let (used, unused) = if model.uses_lowrank() {
        (LOWRANK, ASSOC)
    } else {
        (ASSOC, LOWRANK)
    };
    for name in unused {
        v.insert(name, 0.0);
    }
    v.insert(used[0], build_s);
    for (name, secs) in used[1..].iter().zip(h) {
        v.insert(name, secs);
    }

    let basis = rom.projection();
    let project_s = match model {
        Model::Qldae(q) => time_median(|| project_qldae(q, basis)),
        Model::Cubic(c) => time_median(|| project_cubic(c, basis)),
    };
    v.insert("core.project_s", project_s);
    v.insert(
        "core.reduce.timed_share",
        (build_s + chains_wall_s + project_s) / run.timings.reduce_wall.median(),
    );

    let full_states = trajectory_states(circuit.system(), run)?;
    let (rhs, jac) = evaluator_us(circuit.system(), &full_states);
    v.insert("system.full.rhs_us", rhs);
    v.insert("system.full.jacobian_us", jac);
    let rom_states = trajectory_states(rom.system(), run)?;
    let (rhs, jac) = evaluator_us(rom.system(), &rom_states);
    v.insert("system.rom.rhs_us", rhs);
    v.insert("system.rom.jacobian_us", jac);
    Ok(())
}
