//! The three workloads: which circuit, which pinned reduction, which input
//! family, and the accuracy each ROM must reach.

use vamor_circuits::{RfReceiver, TransmissionLine, VaristorCircuit};
use vamor_core::{
    AssocReducer, MomentSpec, NormReducer, ReducedCubicOde, ReducedQldae, ReductionEngine,
    ReductionStats,
};
use vamor_linalg::{CsrMatrix, Matrix};
use vamor_sim::{simulate, IntegrationMethod, TransientOptions, TransientResult};
use vamor_system::{CubicOde, PolynomialStateSpace, Qldae};

use crate::inputs::{InputFamily, InputParams};

/// A benchmark workload (see `README.md` for why each was chosen).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig4Receiver,
    Fig5SurgeSweep,
    Tline2k,
}

/// The NORM baseline's pinned reduction, where the workload runs it.
#[derive(Debug, Clone, Copy)]
pub struct NormSpec {
    pub pinned_order: usize,
    pub error_bound: f64,
}

/// Everything that defines a workload apart from its seed.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub family: InputFamily,
    /// Excitations drawn per seed.
    pub inputs: usize,
    pub moments: MomentSpec,
    pub markov: usize,
    pub stabilized: bool,
    /// The reduced order the pinned spec must produce.
    pub pinned_order: usize,
    /// Bound on the maximum relative ROM-vs-full output error.
    pub error_bound: f64,
    pub norm: Option<NormSpec>,
    pub t_end: f64,
    pub dt: f64,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Fig4Receiver,
        Workload::Fig5SurgeSweep,
        Workload::Tline2k,
    ];

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.spec().name == name)
    }

    pub fn spec(self) -> WorkloadSpec {
        match self {
            // Paper size (86 sections, n = 173): spec 8/4/2 with two Markov
            // vectors on the stabilized projection, reduced by both methods.
            Workload::Fig4Receiver => WorkloadSpec {
                name: "fig4-receiver",
                family: InputFamily::TonePair,
                inputs: 6,
                moments: MomentSpec::new(8, 4, 2),
                markov: 2,
                stabilized: true,
                pinned_order: 33,
                error_bound: 1e-1,
                norm: Some(NormSpec {
                    pinned_order: 58,
                    error_bound: 1e-1,
                }),
                t_end: 20.0,
                dt: 0.01,
            },
            // Paper size (98 ladder nodes, n = 102): 6 first- and 2
            // third-order moments on plain Galerkin → order 8.
            Workload::Fig5SurgeSweep => WorkloadSpec {
                name: "fig5-surge-sweep",
                family: InputFamily::Surge,
                inputs: 16,
                moments: MomentSpec::new(6, 0, 2),
                markov: 0,
                stabilized: false,
                pinned_order: 8,
                error_bound: 5e-2,
                norm: None,
                t_end: 30.0,
                dt: 0.01,
            },
            // 2000 stages: `Auto` picks the low-rank engine and the sparse
            // backend; paper-default moments plus two Markov vectors.
            Workload::Tline2k => WorkloadSpec {
                name: "tline-2k",
                family: InputFamily::DampedSine,
                inputs: 3,
                moments: MomentSpec::paper_default(),
                markov: 2,
                stabilized: true,
                pinned_order: 11,
                error_bound: 1e-2,
                norm: None,
                t_end: 30.0,
                dt: 0.01,
            },
        }
    }

    /// Stamps the workload's circuit.
    pub fn stamp(self) -> Result<Circuit, String> {
        let built = match self {
            Workload::Fig4Receiver => RfReceiver::new(86).map(Circuit::Receiver),
            Workload::Fig5SurgeSweep => VaristorCircuit::new(98).map(Circuit::Varistor),
            Workload::Tline2k => TransmissionLine::current_driven(2000).map(Circuit::Line),
        };
        built.map_err(|e| format!("circuit construction failed: {e}"))
    }

    /// The seeded excitations of this workload.
    pub fn inputs(self, seed: u64) -> Vec<InputParams> {
        let spec = self.spec();
        spec.family.generate(seed, spec.inputs)
    }

    fn reducer(self) -> AssocReducer {
        let spec = self.spec();
        AssocReducer::new(spec.moments)
            .with_markov_moments(spec.markov)
            .with_stabilized_projection(spec.stabilized)
    }

    /// `AssocReducer::reduce` / `reduce_cubic` on the pinned spec.
    pub fn reduce(self, circuit: &Circuit) -> Result<Rom, String> {
        let reducer = self.reducer();
        let rom = match circuit.model() {
            Model::Qldae(q) => reducer.reduce(q).map(Rom::Qldae),
            Model::Cubic(c) => reducer.reduce_cubic(c).map(Rom::Cubic),
        };
        rom.map_err(|e| format!("reduce failed: {e}"))
    }

    /// The NORM baseline on the same moment spec (QLDAE workloads only).
    pub fn reduce_norm(self, circuit: &Circuit) -> Result<ReducedQldae, String> {
        match circuit.model() {
            Model::Qldae(q) => NormReducer::new(self.spec().moments)
                .reduce(q)
                .map_err(|e| format!("NORM reduce failed: {e}")),
            Model::Cubic(_) => Err("NORM baseline needs a QLDAE".into()),
        }
    }

    pub fn transient_options(self) -> TransientOptions {
        let spec = self.spec();
        TransientOptions::new(0.0, spec.t_end, spec.dt)
            .with_method(IntegrationMethod::ImplicitTrapezoidal)
    }
}

/// A stamped circuit.
pub enum Circuit {
    Receiver(RfReceiver),
    Varistor(VaristorCircuit),
    Line(TransmissionLine),
}

/// The full model behind a circuit.
#[derive(Clone, Copy)]
pub enum Model<'a> {
    Qldae(&'a Qldae),
    Cubic(&'a CubicOde),
}

impl Circuit {
    pub fn model(&self) -> Model<'_> {
        match self {
            Circuit::Receiver(rx) => Model::Qldae(rx.qldae()),
            Circuit::Line(line) => Model::Qldae(line.qldae()),
            Circuit::Varistor(v) => Model::Cubic(v.ode()),
        }
    }

    pub fn system(&self) -> &dyn PolynomialStateSpace {
        match self.model() {
            Model::Qldae(q) => q,
            Model::Cubic(c) => c,
        }
    }
}

impl Model<'_> {
    pub fn g1(&self) -> &Matrix {
        match self {
            Model::Qldae(q) => q.g1(),
            Model::Cubic(c) => c.g1(),
        }
    }

    pub fn g1_csr(&self) -> &CsrMatrix {
        match self {
            Model::Qldae(q) => q.g1_csr(),
            Model::Cubic(c) => c.g1_csr(),
        }
    }

    pub fn order(&self) -> usize {
        self.g1_csr().rows()
    }

    pub fn num_inputs(&self) -> usize {
        match self {
            Model::Qldae(q) => q.b().cols(),
            Model::Cubic(c) => c.b().cols(),
        }
    }

    /// True when `ReductionEngine::Auto` hands this model to the low-rank
    /// engine.
    pub fn uses_lowrank(&self) -> bool {
        ReductionEngine::Auto.use_lowrank(self.order())
    }
}

/// A reduced model produced by the proposed method.
pub enum Rom {
    Qldae(ReducedQldae),
    Cubic(ReducedCubicOde),
}

impl Rom {
    pub fn system(&self) -> &dyn PolynomialStateSpace {
        match self {
            Rom::Qldae(r) => r.system(),
            Rom::Cubic(r) => r.system(),
        }
    }

    pub fn order(&self) -> usize {
        match self {
            Rom::Qldae(r) => r.order(),
            Rom::Cubic(r) => r.order(),
        }
    }

    pub fn stats(&self) -> &ReductionStats {
        match self {
            Rom::Qldae(r) => r.stats(),
            Rom::Cubic(r) => r.stats(),
        }
    }

    pub fn g1(&self) -> &Matrix {
        match self {
            Rom::Qldae(r) => r.system().g1(),
            Rom::Cubic(r) => r.system().g1(),
        }
    }

    pub fn projection(&self) -> &Matrix {
        match self {
            Rom::Qldae(r) => r.projection(),
            Rom::Cubic(r) => r.projection(),
        }
    }

    /// Stored nonzeros of the reduced quadratic tensor `G₂ᵣ`.
    pub fn g2_nnz(&self) -> usize {
        match self {
            Rom::Qldae(r) => r.system().g2().nnz(),
            Rom::Cubic(r) => r.system().g2().map_or(0, CsrMatrix::nnz),
        }
    }

    /// Stored nonzeros of the reduced cubic tensor `G₃ᵣ` (0 for a QLDAE).
    pub fn g3_nnz(&self) -> usize {
        match self {
            Rom::Qldae(_) => 0,
            Rom::Cubic(r) => r.system().g3().nnz(),
        }
    }
}

/// One transient of `system` under `input`.
pub fn transient(
    system: &dyn PolynomialStateSpace,
    input: &InputParams,
    opts: &TransientOptions,
) -> Result<TransientResult, String> {
    simulate(system, input.signal().as_ref(), opts).map_err(|e| format!("transient failed: {e}"))
}
