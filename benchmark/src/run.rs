//! The workload as a user runs it: stamp the circuit and generate the
//! inputs, build the ROM once, then simulate the ROM and the full model on
//! every input and check each result. Every timing is taken between two
//! host-speed probes and recorded in reference seconds (see `calib`).

use std::time::{Duration, Instant};

use vamor_core::ReducedQldae;
use vamor_obs::MetricsSnapshot;
use vamor_sim::SolverStats;
use vamor_system::PolynomialStateSpace;

use crate::calib::{Clock, Lap};
use crate::check::{self, Tally};
use crate::inputs::InputParams;
use crate::stats::Samples;
use crate::workload::{transient, Circuit, Rom, Workload};

/// Set-up batches timed before the first round; `setup_s` is the median of
/// their per-set-up means.
pub const SETUP_BATCHES: usize = 15;

/// Wall time one set-up batch repeats the set-up for. A single set-up takes
/// from microseconds (fig5) to milliseconds (tline-2k), so a batch averages
/// over many.
const SETUP_BATCH_S: f64 = 0.05;

/// Solver counters summed over one round's transients.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounts {
    pub full_steps: usize,
    pub full_newton_iterations: usize,
    pub full_factorizations: usize,
    pub rom_newton_iterations: usize,
    pub rom_factorizations: usize,
}

/// What one round reports beyond the timing samples it adds.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundReport {
    pub wall_s: f64,
    pub counts: SimCounts,
    /// `(hits, misses)` of the dense plus sparse shift caches during the
    /// proposed reduce.
    pub shift_cache: (u64, u64),
}

/// Timing samples of the end-to-end metrics, in reference seconds.
#[derive(Debug, Clone, Default)]
pub struct Timings {
    /// Per-set-up mean of each set-up batch.
    pub setup: Samples,
    pub total: Samples,
    pub reduce: Samples,
    /// Wall seconds of every reduce, uncalibrated (the per-layer timings'
    /// base).
    pub reduce_wall: Samples,
    /// Every ROM / full-model transient. They come in whole sweeps, so
    /// every input is equally represented.
    pub rom_sim: Samples,
    pub full_sim: Samples,
    pub norm_reduce: Samples,
    pub norm_sim: Samples,
    /// Sums over every timed interval of its wall and reference seconds.
    pub raw_s: f64,
    pub reference_s: f64,
}

/// One workload run: its seed, its state and everything measured so far.
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub tally: Tally,
    pub inputs: Vec<InputParams>,
    pub circuit: Option<Circuit>,
    pub rom: Option<Rom>,
    pub norm_rom: Option<ReducedQldae>,
    pub timings: Timings,
    pub clock: Clock,
    /// Full-model output per input from the latest round (`None` where the
    /// transient or its check failed).
    pub references: Vec<Option<Vec<f64>>>,
    /// Maximum ROM-vs-full error over every checked transient (NaN until
    /// one passed).
    pub max_rel_error: f64,
    pub norm_max_rel_error: f64,
}

/// Runs `f` on `clock` and adds its lap to the totals in `timings`.
fn timed<T>(clock: &mut Clock, timings: &mut Timings, f: impl FnOnce() -> T) -> (T, Lap) {
    let (value, lap) = clock.time(f);
    timings.raw_s += lap.raw_s;
    timings.reference_s += lap.reference_s;
    (value, lap)
}

fn nan_max(a: f64, b: f64) -> f64 {
    if a.is_nan() {
        b
    } else {
        a.max(b)
    }
}

impl Run {
    pub fn new(workload: Workload, seed: u64) -> Run {
        Run {
            workload,
            seed,
            tally: Tally::default(),
            inputs: Vec::new(),
            circuit: None,
            rom: None,
            norm_rom: None,
            timings: Timings::default(),
            clock: Clock::new(),
            references: Vec::new(),
            max_rel_error: f64::NAN,
            norm_max_rel_error: f64::NAN,
        }
    }

    /// Stamps the circuit and generates the inputs.
    pub fn setup(&mut self) -> bool {
        let circuit = self.workload.stamp();
        self.inputs = self.workload.inputs(self.seed);
        self.circuit = self.tally.op("stamp circuit", || circuit);
        self.circuit.is_some()
    }

    /// Repeats the set-up for `SETUP_BATCH_S` and records the mean of one
    /// (a `setup_s` sample). The last set-up's circuit and inputs are kept.
    pub fn setup_batch(&mut self) -> bool {
        let (workload, seed) = (self.workload, self.seed);
        let ((built, reps), lap) = timed(&mut self.clock, &mut self.timings, || {
            let start = Instant::now();
            let mut reps = 0usize;
            loop {
                let built = (workload.stamp(), workload.inputs(seed));
                reps += 1;
                if start.elapsed().as_secs_f64() >= SETUP_BATCH_S {
                    break (built, reps);
                }
            }
        });
        let (circuit, inputs) = built;
        self.inputs = inputs;
        self.circuit = self.tally.op("stamp circuit", || circuit);
        self.timings.setup.push(lap.reference_s / reps as f64);
        self.circuit.is_some()
    }

    /// One complete pass of the workload: set-up, the proposed reduce with
    /// its checks, and one checked transient per input on the full model
    /// and on the ROM. Its `total_s` sample is its wall time without the
    /// probes, at the mean reference scale of its timed intervals.
    pub fn round(&mut self) -> RoundReport {
        let start = Instant::now();
        let probe_s = self.clock.probe_s;
        let (raw_s, reference_s) = (self.timings.raw_s, self.timings.reference_s);
        let mut report = RoundReport::default();
        if !self.setup() {
            return report;
        }
        report.shift_cache = self.reduce();
        self.references = vec![None; self.inputs.len()];
        for stats in self.sweep(Sim::Full) {
            report.counts.full_steps += stats.steps;
            report.counts.full_newton_iterations += stats.newton_iterations;
            report.counts.full_factorizations += stats.jacobian_factorizations;
        }
        for stats in self.sweep(Sim::Rom) {
            report.counts.rom_newton_iterations += stats.newton_iterations;
            report.counts.rom_factorizations += stats.jacobian_factorizations;
        }
        report.wall_s = start.elapsed().as_secs_f64();
        let t = &self.timings;
        let scale = (t.reference_s - reference_s) / (t.raw_s - raw_s);
        let unprobed_s = report.wall_s - (self.clock.probe_s - probe_s);
        self.timings.total.push(unprobed_s * scale);
        report
    }

    /// The NORM baseline, where the workload has one, after a round: its
    /// reduce with its checks (Hurwitz `G₁ᵣ`, pinned order) and a checked
    /// transient of the first input. NORM's order-58 ROM takes ~5x the
    /// proposed ROM's transient time, so only the first input is simulated.
    pub fn norm_baseline(&mut self) {
        let workload = self.workload;
        let (Some(norm), Some(circuit)) = (workload.spec().norm, self.circuit.as_ref()) else {
            return;
        };
        let tally = &mut self.tally;
        let (norm_rom, lap) = timed(&mut self.clock, &mut self.timings, || {
            tally.op("NORM reduce", || workload.reduce_norm(circuit))
        });
        if let Some(r) = &norm_rom {
            self.timings.norm_reduce.push(lap.reference_s);
            self.tally
                .check("NORM reduced G1 Hurwitz", check::hurwitz(r.system().g1()));
            self.tally.check(
                "NORM reduced order",
                check::pinned_order(r.order(), norm.pinned_order),
            );
        }
        self.norm_rom = norm_rom;
        if self.norm_rom.is_some() {
            self.simulate(0, Sim::Norm);
        }
    }

    /// The proposed reduce with its checks (Hurwitz `G₁ᵣ`, pinned order).
    /// Returns the `(hits, misses)` of the dense plus sparse shift caches
    /// during the reduce.
    pub fn reduce(&mut self) -> (u64, u64) {
        let Some(circuit) = self.circuit.as_ref() else {
            return (0, 0);
        };
        let workload = self.workload;
        vamor_obs::metrics::reset();
        let tally = &mut self.tally;
        let (rom, lap) = timed(&mut self.clock, &mut self.timings, || {
            tally.op("reduce", || workload.reduce(circuit))
        });
        let snapshot = MetricsSnapshot::capture();
        let counter = |name: &str| snapshot.counter(name).unwrap_or(0);
        if let Some(rom) = &rom {
            self.timings.reduce.push(lap.reference_s);
            self.timings.reduce_wall.push(lap.raw_s);
            self.tally
                .check("reduced G1 Hurwitz", check::hurwitz(rom.g1()));
            self.tally.check(
                "reduced order",
                check::pinned_order(rom.order(), workload.spec().pinned_order),
            );
        }
        self.rom = rom;
        (
            counter("shift_cache.dense.hits") + counter("shift_cache.sparse.hits"),
            counter("shift_cache.dense.misses") + counter("shift_cache.sparse.misses"),
        )
    }

    /// One transient of every input on the full model or the proposed ROM.
    /// Returns the solver statistics of the transients that ran.
    pub fn sweep(&mut self, which: Sim) -> Vec<SolverStats> {
        (0..self.inputs.len())
            .filter_map(|k| self.simulate(k, which))
            .collect()
    }

    /// Full-model transient of input `k`; its output becomes the reference
    /// the reduced models are checked against.
    pub fn simulate_full(&mut self, k: usize) -> Option<SolverStats> {
        let circuit = self.circuit.as_ref()?;
        let opts = self.workload.transient_options();
        let input = &self.inputs[k];
        let tally = &mut self.tally;
        let (run, lap) = timed(&mut self.clock, &mut self.timings, || {
            tally.op("full transient", || {
                transient(circuit.system(), input, &opts)
            })
        });
        let run = run?;
        self.timings.full_sim.push(lap.reference_s);
        let y = run.output_channel(0);
        if self
            .tally
            .check("full output finite", check::finite("full output", &y))
        {
            self.references[k] = Some(y);
        }
        Some(run.stats)
    }

    /// Transient of input `k` on `which` (one operation). A reduced model's
    /// output is checked against the full-model reference (a second
    /// operation; a missing reference fails it).
    pub fn simulate(&mut self, k: usize, which: Sim) -> Option<SolverStats> {
        let spec = self.workload.spec();
        let (label, system, bound, max_err) = match which {
            Sim::Full => return self.simulate_full(k),
            Sim::Rom => (
                "ROM",
                self.rom.as_ref()?.system(),
                spec.error_bound,
                &mut self.max_rel_error,
            ),
            Sim::Norm => (
                "NORM",
                self.norm_rom.as_ref()?.system() as &dyn PolynomialStateSpace,
                spec.norm?.error_bound,
                &mut self.norm_max_rel_error,
            ),
        };
        let opts = self.workload.transient_options();
        let input = &self.inputs[k];
        let tally = &mut self.tally;
        let t = &mut self.timings;
        let (run, lap) = timed(&mut self.clock, t, || {
            tally.op(&format!("{label} transient"), || {
                transient(system, input, &opts)
            })
        });
        let run = run?;
        match which {
            Sim::Norm => t.norm_sim.push(lap.reference_s),
            _ => t.rom_sim.push(lap.reference_s),
        }
        let reference = &self.references[k];
        let err = tally.op(&format!("{label} error"), || match reference {
            Some(y) => check::relative_error(y, &run.output_channel(0), bound),
            None => Err("no full-model reference".into()),
        });
        if let Some(err) = err {
            *max_err = nan_max(*max_err, err);
        }
        Some(run.stats)
    }
}

/// Which model a transient runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sim {
    Full,
    /// The proposed method's ROM.
    Rom,
    /// The NORM baseline's ROM.
    Norm,
}

#[derive(Debug, Clone, Copy)]
enum Step {
    Reduce,
    Full,
    Rom,
}

/// Samples the reduce, the full-model sweep and the ROM sweep each collect,
/// as far as the budget allows, before the fill balances their time.
const MIN_SAMPLES: usize = 2;

/// The end-to-end pass (`--trace 0`): `SETUP_BATCHES` set-up batches, one
/// complete round (so every input is checked at least once), then extra
/// reduces and sweeps while one is predicted to fit in `budget`.
pub fn end_to_end(workload: Workload, seed: u64, budget: Duration) -> Run {
    let start = Instant::now();
    let mut run = Run::new(workload, seed);
    for _ in 0..SETUP_BATCHES {
        run.setup_batch();
    }
    run.round();
    // Fill: first bring every step to `MIN_SAMPLES`, the costliest first
    // while time is left; then repeat whichever has had the least time so
    // far, so each collects samples in proportion to the budget rather than
    // to its cost. A step that no longer fits gives way to a cheaper one.
    while run.rom.is_some() && !run.inputs.is_empty() {
        let t = &run.timings;
        // `(step, samples, time spent, predicted cost)`; a sweep is one
        // sample of its step.
        let n = run.inputs.len();
        let sweep = |all: &Samples| (all.len() / n, all.sum(), n as f64 * all.median());
        let (full, rom) = (sweep(&t.full_sim), sweep(&t.rom_sim));
        let candidates = [
            (
                Step::Reduce,
                t.reduce.len(),
                t.reduce.sum(),
                t.reduce.median(),
            ),
            (Step::Full, full.0, full.1, full.2),
            (Step::Rom, rom.0, rom.1, rom.2),
        ];
        // Back from reference to wall seconds, plus a margin for the probes.
        let to_wall = 1.1 * t.raw_s / t.reference_s;
        let left = budget.as_secs_f64() - start.elapsed().as_secs_f64();
        let next = candidates
            .into_iter()
            .filter(|&(_, _, _, cost)| cost * to_wall <= left)
            .min_by(|a, b| {
                let (ca, cb) = (a.1.min(MIN_SAMPLES), b.1.min(MIN_SAMPLES));
                ca.cmp(&cb).then_with(|| {
                    if ca < MIN_SAMPLES {
                        b.3.total_cmp(&a.3)
                    } else {
                        a.2.total_cmp(&b.2)
                    }
                })
            });
        let Some((step, ..)) = next else {
            break;
        };
        match step {
            Step::Reduce => {
                run.reduce();
            }
            Step::Full => {
                run.sweep(Sim::Full);
            }
            Step::Rom => {
                run.sweep(Sim::Rom);
            }
        }
    }
    run
}
