//! Moment generation for the *associated* (single-`s`) Volterra transfer
//! functions — the heart of the paper's method.
//!
//! Applying the association of variables to the multivariate kernels of a
//! QLDAE yields single-variable transfer functions with explicit state-space
//! realizations (Eqs. 15–17 of the paper):
//!
//! ```text
//! H₂(s) = (sI − G₁)⁻¹ [ G₂ (sI − G₁⊕G₁)⁻¹ (b ⊗ b) + D₁ b ]
//! H₃(s) = (sI − G₁)⁻¹ [ G₂ H̃₃(s) + D₁² b ]
//! H̃₃(s) = (Iₙ⊗c̃₂)(sI − G₁⊕G̃₂)⁻¹(b⊗b̃₂) + (c̃₂⊗Iₙ)(sI − G̃₂⊕G₁)⁻¹(b̃₂⊗b)
//! ```
//!
//! The Taylor (moment) expansion of these functions around `s = 0` is what
//! the projection matrix must span. [`AssocMomentGenerator`] computes those
//! moment vectors directly from the structured realizations:
//!
//! * the `G₁⊕G₁` resolvent powers of `H₂` are Lyapunov solves
//!   (Bartels–Stewart with the cached Schur form of `G₁`);
//! * the `G₁⊕G̃₂` resolvent powers of `H̃₃` are back-substituted through the
//!   block-triangular `G̃₂ = [[G₁, G₂], [0, G₁⊕G₁]]` block by block. With
//!   the iterate split as `Z = [Z₁; Z₂]`, the bottom block `Z₂` is the
//!   triple-Kronecker chain `(G₁⊕G₁⊕G₁)^{-j} (b⊗b⊗b)`, which stays in the
//!   Schur coordinates of `G₁` for every step
//!   ([`vamor_linalg::TripleKronSchur`], about `3n⁴` flops a step). The top
//!   block takes one `n × n` Lyapunov solve a step,
//!   `G₁Z₁ + Z₁G₁ᵀ = Z₁′ − G₂Z₂`, where `G₂Z₂` reads only the fibers of `Z₂`
//!   on `G₂`'s column support. The two terms of `H̃₃` are transposes of one
//!   another, so one chain serves both;
//! * [`CubicAssocMomentGenerator`] runs the same tensor chain and gathers
//!   it on `G₃`'s column support.
//!
//! With solver caching off, the `H₃` chains instead solve every step as a
//! big-left/small-right Sylvester equation ([`crate::bigsmall`]) against the
//! structured operator [`crate::operators::BlockH2Op`] (or `G₁⊕G₁` for the
//! cubic chain), moving the whole `(n + n²) × n` iterate into and out of
//! Schur coordinates on every solve. That path is kept as the parity oracle
//! of the cached one and as the baseline of the solver-cache speedup.
//!
//! This is the computational structure §2.3 of the paper describes, with the
//! dimension growing as `O(k₁+k₂+k₃)` instead of the `O(k₁+k₂³+k₃⁴)` of
//! multivariate (NORM-style) moment matching.

use std::sync::Arc;

use vamor_linalg::kron::{unvec, vec_of};
use vamor_linalg::sparse_lu::SPARSE_AUTO_THRESHOLD;
use vamor_linalg::{
    kron_vec, CsrMatrix, Matrix, PivotRecovery, SchurDecomposition, SolverBackend, TripleKronSchur,
    Vector,
};
use vamor_system::{CubicOde, Qldae};

use crate::bigsmall::solve_sylvester_big_small;
use crate::error::MorError;
use crate::operators::{BlockH2Op, KronSumOp2, ShiftedSolveOp};
use crate::Result;

// The factorization of `G₁` the moment recursions solve against, in either
// backend (dense and bit-identical to the pre-PR-3 behaviour below the
// shared `SPARSE_AUTO_THRESHOLD`; sparse and near-linear above it).
pub(crate) use vamor_linalg::LuFactor as G1Factor;

/// A chain of moment candidates with per-candidate scaling split off.
///
/// The raw moment chains grow (or decay) geometrically in norm — `G₁⁻¹`
/// applied `k` times multiplies the magnitude by up to `‖G₁⁻¹‖ᵏ` — so late
/// candidates handed to the orthonormalization at their raw scale are either
/// destroyed by cancellation against the deflation test or overflow outright.
/// The scaled generators keep every candidate at unit Euclidean norm and
/// record the discarded magnitude as `log10`, which the reducers surface via
/// [`crate::ReductionStats::moment_log10_peak`]. Only the *span* of the
/// candidates enters the projection, so the scaling is exact.
#[derive(Debug, Clone)]
pub struct ScaledMoments {
    /// Unit-norm candidate vectors (a trailing vector may be zero or
    /// non-finite if the chain collapsed or overflowed; the basis accumulator
    /// deflates those).
    pub vectors: Vec<Vector>,
    /// `log10` of the Euclidean norm each candidate had before normalization
    /// (`-inf` for an exactly zero candidate).
    pub log10_magnitudes: Vec<f64>,
}

impl ScaledMoments {
    /// Largest recorded magnitude (as `log10`), or `0.0` for an empty chain.
    pub fn log10_peak(&self) -> f64 {
        self.log10_magnitudes
            .iter()
            .copied()
            .filter(|m| m.is_finite())
            .fold(0.0, f64::max)
    }

    pub(crate) fn push(&mut self, mut v: Vector, frame_log10: f64) {
        let mag = v.norm2();
        if mag > 0.0 && mag.is_finite() {
            v.scale_mut(1.0 / mag);
            self.log10_magnitudes.push(frame_log10 + mag.log10());
        } else {
            // Zero or overflowed candidate: hand it through untouched so the
            // basis accumulator can count it as deflated.
            self.log10_magnitudes.push(if mag == 0.0 {
                f64::NEG_INFINITY
            } else {
                mag.log10()
            });
        }
        self.vectors.push(v);
    }

    pub(crate) fn with_capacity(count: usize) -> Self {
        ScaledMoments {
            vectors: Vec::with_capacity(count),
            log10_magnitudes: Vec::with_capacity(count),
        }
    }
}

/// The scaled `H₁` chain shared by every generator (dense and low-rank,
/// QLDAE and cubic): repeated `G₁⁻¹` applications with the running iterate
/// renormalized after every solve, the discarded magnitudes tracked as
/// `log10` frames.
pub(crate) fn h1_chain(g1_lu: &G1Factor, seed: Vector, count: usize) -> Result<ScaledMoments> {
    let mut v = seed;
    let mut out = ScaledMoments::with_capacity(count);
    let mut frame = 0.0;
    for _ in 0..count {
        v = g1_lu.solve(&v).map_err(MorError::Linalg)?;
        out.push(v.clone(), frame);
        let mag = v.norm2();
        if mag > 0.0 && mag.is_finite() {
            frame += mag.log10();
            v.scale_mut(1.0 / mag);
        } else {
            break;
        }
    }
    Ok(out)
}

/// Rescales the recursion state of a moment chain so every stored vector
/// stays `O(1)`: the vectors in `state` and the raw buffers in `extra` (a
/// chain's matrix or tensor iterates) share one factor. Returns the `log10`
/// of the applied factor (to be added to the running frame magnitude).
pub(crate) fn rescale_state(state: &mut [&mut Vector], extra: &mut [&mut [f64]]) -> f64 {
    let mut peak = 0.0_f64;
    for v in state.iter() {
        peak = peak.max(v.norm_inf());
    }
    for m in extra.iter() {
        peak = m.iter().fold(peak, |acc, x| acc.max(x.abs()));
    }
    if peak == 0.0 || !peak.is_finite() {
        return 0.0;
    }
    let inv = 1.0 / peak;
    for v in state.iter_mut() {
        v.scale_mut(inv);
    }
    for m in extra.iter_mut() {
        for x in m.iter_mut() {
            *x *= inv;
        }
    }
    peak.log10()
}

/// The triple-Kronecker chain `Y_j = (G₁⊕G₁⊕G₁)^{-j} (b⊗b⊗b)` of the `H₃`
/// realizations, kept in the Schur coordinates of `G₁`, together with the
/// mode-1 fibers `Y_j[:, j, k]` (back in original coordinates) that a
/// sparse tensor `G` reads. Column `c` of `G` names the fiber with
/// `j·n + k = c mod n²`: `G₂` (`n²` columns) multiplies the `n² × n` matrix
/// view of `Y_j`, whose rows are these fibers, and `G₃` (`n³` columns)
/// reads entry `c / n²` of its fiber.
struct TensorChain<'g> {
    kernel: TripleKronSchur<'g>,
    y: Vec<f64>,
    /// Distinct trailing indices `c mod n²` of `G`'s columns, ascending.
    pairs: Vec<usize>,
    /// Mode-1 fiber of `Y_j` for each entry of `pairs`.
    fibers: Vec<f64>,
    work: Vec<f64>,
}

impl<'g> TensorChain<'g> {
    fn new(schur: &'g SchurDecomposition, b: &Vector, g: &CsrMatrix) -> Result<Self> {
        let kernel = TripleKronSchur::new(schur);
        let n = kernel.order();
        let mut pairs: Vec<usize> = g.iter().map(|(_, c, _)| c % (n * n)).collect();
        pairs.sort_unstable();
        pairs.dedup();
        Ok(TensorChain {
            y: kernel.seed(b).map_err(MorError::Linalg)?,
            fibers: vec![0.0; pairs.len() * n],
            work: vec![0.0; kernel.gather_work_len()],
            pairs,
            kernel,
        })
    }

    /// One chain step, `Y_j = (G₁⊕G₁⊕G₁)⁻¹ Y_{j−1}`, then the gather.
    fn step(&mut self) -> Result<()> {
        {
            let _span = vamor_obs::span!("h3_tensor_solve");
            self.kernel
                .solve_into(&mut self.y)
                .map_err(MorError::Linalg)?;
        }
        let _span = vamor_obs::span!("h3_support_gather");
        self.kernel
            .gather_into(&self.y, &self.pairs, &mut self.work, &mut self.fibers)
            .map_err(MorError::Linalg)
    }

    /// The gathered fiber read by column `c` of `G`.
    fn fiber(&self, c: usize) -> Result<&[f64]> {
        let n = self.kernel.order();
        let slot = self.pairs.binary_search(&(c % (n * n))).map_err(|_| {
            MorError::Invalid(format!("column {c} is outside the gathered support"))
        })?;
        Ok(&self.fibers[slot * n..(slot + 1) * n])
    }
}

/// The stamp-keyed solver artifacts a [`ReductionSession`](crate::session)
/// shares across requests: the `s = 0` factorization of `G₁`, its Schur
/// form, and the `G₁ ⊕ G₁` Lyapunov operator. Cheap to clone (all `Arc`s);
/// every artifact is immutable, so one set serves concurrent requests.
#[derive(Debug, Clone)]
pub struct SharedAssocArtifacts {
    pub(crate) g1_lu: Arc<G1Factor>,
    pub(crate) recovery: PivotRecovery,
    pub(crate) kron_op: Arc<KronSumOp2>,
    pub(crate) g1_schur: Arc<SchurDecomposition>,
    pub(crate) n: usize,
}

impl SharedAssocArtifacts {
    /// Factors the shared artifacts for `qldae` once (the caching
    /// configuration of [`AssocMomentGenerator::with_options`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`AssocMomentGenerator::new`] — a singular `G₁` is
    /// reported as a typed error.
    pub fn build(qldae: &Qldae, backend: SolverBackend) -> Result<Self> {
        let g1 = qldae.g1();
        let n = g1.rows();
        let sparse = backend.use_sparse(n, SPARSE_AUTO_THRESHOLD);
        let (g1_lu, recovery) =
            G1Factor::build_with_recovery(qldae.g1_csr(), g1, sparse).map_err(MorError::Linalg)?;
        let kron_op = KronSumOp2::new(g1)?;
        let g1_schur = Arc::new(kron_op.a_schur());
        Ok(SharedAssocArtifacts {
            g1_lu: Arc::new(g1_lu),
            recovery,
            kron_op: Arc::new(kron_op),
            g1_schur,
            n,
        })
    }

    /// System order the artifacts were factored for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The shared `s = 0` factorization of `G₁`.
    pub(crate) fn g1_factor(&self) -> &G1Factor {
        &self.g1_lu
    }

    /// Approximate heap footprint for the session memory-budget governor:
    /// the `G₁` factor, the dense Schur pair of `G₁` (`2n²`) and the
    /// `G₁ ⊕ G₁` Lyapunov operator (`G₁` and the Schur factors it solves
    /// with, `3n²`; its transposed copies are not counted). The chain
    /// iterates, including the `n³` tensor of an `H₃` chain, belong to the
    /// request, not to the stamp.
    pub fn approx_bytes(&self) -> usize {
        let n = self.n;
        self.g1_lu.approx_bytes() + (2 + 3) * n * n * 8
    }
}

/// How the `H₃` chains of a generator solve their steps.
#[derive(Debug)]
enum H3Solver {
    /// Cached: the tensor chain stays in the Schur coordinates of `G₁`.
    Schur(Arc<SchurDecomposition>),
    /// Uncached legacy: big-left/small-right Sylvester solves against the
    /// structured `G̃₂`.
    Legacy(Box<BlockH2Op>),
}

/// The iterate of a QLDAE `H₃` chain, `G̃₂ Z_j + Z_j G₁ᵀ = Z_{j−1}` from
/// `Z₀ = b̃₂ bᵀ`, in the form its solver keeps it.
enum H3Iterate<'g> {
    /// `Z = [Z₁; Z₂]` with the top block `Z₁` (`n × n`) and the bottom
    /// block `Z₂` as the Schur-coordinate tensor chain.
    Schur {
        bottom: TensorChain<'g>,
        top: Matrix,
    },
    /// The whole `(n + n²) × n` iterate.
    Legacy {
        op: &'g BlockH2Op,
        g1t: Matrix,
        z: Matrix,
    },
}

impl H3Iterate<'_> {
    /// The chain state the common rescaling covers.
    fn buffers(&mut self) -> [&mut [f64]; 2] {
        match self {
            H3Iterate::Schur { bottom, top } => [&mut bottom.y, top.as_mut_slice()],
            H3Iterate::Legacy { z, .. } => [z.as_mut_slice(), &mut []],
        }
    }
}

/// Moment-vector generator for the associated transfer functions of a QLDAE.
#[derive(Debug)]
pub struct AssocMomentGenerator<'a> {
    qldae: &'a Qldae,
    g1_lu: Arc<G1Factor>,
    recovery: PivotRecovery,
    kron_op: Arc<KronSumOp2>,
    h3: H3Solver,
}

impl<'a> AssocMomentGenerator<'a> {
    /// Prepares the cached factorizations (`LU(G₁)` and one shared Schur
    /// form of `G₁`).
    ///
    /// # Errors
    ///
    /// Returns an error if `G₁` is singular — expansion about `s = 0`
    /// requires a regular `G₁`, as in the paper.
    pub fn new(qldae: &'a Qldae) -> Result<Self> {
        Self::with_caching(qldae, true)
    }

    /// Prepares the generator with the solver-cache layer switched on or off.
    ///
    /// With `caching` disabled every structured operator refactorizes exactly
    /// as the pre-cache implementation did (duplicate Schur forms, LU per
    /// shifted solve, Schur per Sylvester call, the `H₃` iterate moved into
    /// and out of Schur coordinates on every solve); this path exists so the
    /// speedup and the agreement of the cached path can be measured against
    /// it.
    ///
    /// # Errors
    ///
    /// Same contract as [`AssocMomentGenerator::new`].
    pub fn with_caching(qldae: &'a Qldae, caching: bool) -> Result<Self> {
        Self::with_options(qldae, caching, SolverBackend::Auto)
    }

    /// Prepares the generator with an explicit linear-solver backend for the
    /// `G₁` solves (the repeated `G₁⁻¹` applications of the moment chains,
    /// and the shifted top-block solves of the uncached `H₃` realization).
    /// `Auto` switches to the sparse direct solver at `n ≥ 256`; the
    /// Kronecker-sum Schur machinery is dense in every mode.
    ///
    /// # Errors
    ///
    /// Same contract as [`AssocMomentGenerator::new`].
    pub fn with_options(qldae: &'a Qldae, caching: bool, backend: SolverBackend) -> Result<Self> {
        if caching {
            let shared = SharedAssocArtifacts::build(qldae, backend)?;
            return Ok(Self::from_shared(qldae, &shared));
        }
        let g1 = qldae.g1();
        let sparse = backend.use_sparse(g1.rows(), SPARSE_AUTO_THRESHOLD);
        let (g1_lu, recovery) =
            G1Factor::build_with_recovery(qldae.g1_csr(), g1, sparse).map_err(MorError::Linalg)?;
        let kron_op = KronSumOp2::new_uncached(g1)?;
        let block_kron = KronSumOp2::new_uncached(g1)?;
        let block_op = if sparse {
            BlockH2Op::with_kron_sparse(g1, qldae.g2(), block_kron, false, qldae.g1_csr())?
        } else {
            BlockH2Op::with_kron(g1, qldae.g2(), block_kron, false)?
        };
        Ok(AssocMomentGenerator {
            qldae,
            g1_lu: Arc::new(g1_lu),
            recovery,
            kron_op: Arc::new(kron_op),
            h3: H3Solver::Legacy(Box::new(block_op)),
        })
    }

    /// Builds a generator on top of session-shared artifacts: no
    /// factorization happens here — the `G₁` LU, the Schur form and the
    /// Lyapunov operator are the shared ones, so every request of a session
    /// amortizes the same `s = 0` factorizations.
    ///
    /// # Errors
    ///
    /// Returns [`MorError::Invalid`] when the artifacts were factored for a
    /// different system order than `qldae`.
    pub fn with_shared(qldae: &'a Qldae, shared: &SharedAssocArtifacts) -> Result<Self> {
        if shared.n != qldae.g1().rows() {
            return Err(MorError::Invalid(format!(
                "shared artifacts were factored for order {} but the system has order {}",
                shared.n,
                qldae.g1().rows()
            )));
        }
        Ok(Self::from_shared(qldae, shared))
    }

    fn from_shared(qldae: &'a Qldae, shared: &SharedAssocArtifacts) -> Self {
        AssocMomentGenerator {
            qldae,
            g1_lu: shared.g1_lu.clone(),
            recovery: shared.recovery,
            kron_op: shared.kron_op.clone(),
            h3: H3Solver::Schur(shared.g1_schur.clone()),
        }
    }

    /// What the pivot degradation ladder did while factoring `G₁`
    /// (`PivotRecovery::default()` = healthy first try).
    pub fn pivot_recovery(&self) -> PivotRecovery {
        self.recovery
    }

    /// The cached Schur form of `G₁` (present when solver caching is on), so
    /// downstream consumers (the stabilized projection, the spectral guard)
    /// can reuse it instead of refactorizing.
    pub fn g1_schur(&self) -> Option<&SchurDecomposition> {
        match &self.h3 {
            H3Solver::Schur(schur) => Some(schur),
            H3Solver::Legacy(_) => None,
        }
    }

    fn n(&self) -> usize {
        self.qldae.g1().rows()
    }

    fn b_col(&self, input: usize) -> Result<Vector> {
        if input >= self.qldae.b().cols() {
            return Err(MorError::Invalid(format!(
                "input index {input} out of range for a {}-input system",
                self.qldae.b().cols()
            )));
        }
        Ok(self.qldae.b().col(input))
    }

    fn d1(&self, input: usize) -> Option<&CsrMatrix> {
        self.qldae.d1().get(input)
    }

    /// Moments of `H₁(s) = (sI − G₁)⁻¹ b` about `s = 0`:
    /// `G₁⁻¹ b, G₁⁻² b, …` (signs dropped; only the span matters).
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid input index or a failed solve.
    pub fn h1_moments(&self, input: usize, count: usize) -> Result<Vec<Vector>> {
        let b = self.b_col(input)?;
        let mut out = Vec::with_capacity(count);
        let mut v = b;
        for _ in 0..count {
            v = self.g1_lu.solve(&v).map_err(MorError::Linalg)?;
            out.push(v.clone());
        }
        Ok(out)
    }

    /// [`AssocMomentGenerator::h1_moments`] with per-candidate normalization:
    /// the running Krylov iterate is rescaled to unit norm after every solve,
    /// so arbitrarily long chains neither overflow nor poison the deflation
    /// test, and the discarded magnitudes are reported alongside.
    ///
    /// # Errors
    ///
    /// Same contract as [`AssocMomentGenerator::h1_moments`].
    pub fn h1_moments_scaled(&self, input: usize, count: usize) -> Result<ScaledMoments> {
        h1_chain(&self.g1_lu, self.b_col(input)?, count)
    }

    /// [`AssocMomentGenerator::h2_moments`] with chain scaling: the whole
    /// recursion state (the `w_j` Lyapunov iterate, the Cauchy accumulators
    /// and the `D₁` chain) is rescaled by a common factor after every moment,
    /// which is exact on the spanned subspace and keeps every intermediate
    /// `O(1)`.
    ///
    /// # Errors
    ///
    /// Same contract as [`AssocMomentGenerator::h2_moments`].
    pub fn h2_moments_scaled(
        &self,
        input_a: usize,
        input_b: usize,
        count: usize,
    ) -> Result<ScaledMoments> {
        if count == 0 {
            return Ok(ScaledMoments::with_capacity(0));
        }
        let b_a = self.b_col(input_a)?;
        let b_b = self.b_col(input_b)?;
        let mut d_chain = Vector::zeros(self.n());
        if let Some(da) = self.d1(input_a) {
            d_chain.axpy(1.0, &da.matvec(&b_b));
        }
        if let Some(db) = self.d1(input_b) {
            d_chain.axpy(1.0, &db.matvec(&b_a));
        }
        if input_a == input_b {
            d_chain.scale_mut(0.5);
        }

        let mut w = kron_vec(&b_a, &b_b);
        let mut acc: Vec<Vector> = Vec::with_capacity(count);
        let mut scratch = Vector::zeros(self.n());
        let mut out = ScaledMoments::with_capacity(count);
        let mut frame = 0.0;
        for _ in 0..count {
            w = self.kron_op.solve_shifted(0.0, &w)?;
            let g2w_k = self.qldae.g2().matvec(&w);
            for a in acc.iter_mut() {
                scratch.copy_from(a);
                self.g1_lu
                    .solve_into(&scratch, a)
                    .map_err(MorError::Linalg)?;
            }
            acc.push(self.g1_lu.solve(&g2w_k).map_err(MorError::Linalg)?);
            scratch.copy_from(&d_chain);
            self.g1_lu
                .solve_into(&scratch, &mut d_chain)
                .map_err(MorError::Linalg)?;
            let mut m_k = Vector::zeros(self.n());
            for a in &acc {
                m_k.axpy(1.0, a);
            }
            m_k.axpy(-1.0, &d_chain);
            out.push(m_k, frame);

            let mut state: Vec<&mut Vector> = acc.iter_mut().collect();
            state.push(&mut w);
            state.push(&mut d_chain);
            frame += rescale_state(&mut state, &mut []);
        }
        Ok(out)
    }

    /// [`AssocMomentGenerator::h3_moments`] with chain scaling (see
    /// [`AssocMomentGenerator::h2_moments_scaled`]; here the rescaled state
    /// additionally includes the `Z_j` iterate).
    ///
    /// # Errors
    ///
    /// Same contract as [`AssocMomentGenerator::h3_moments`].
    pub fn h3_moments_scaled(&self, input: usize, count: usize) -> Result<ScaledMoments> {
        if count == 0 {
            return Ok(ScaledMoments::with_capacity(0));
        }
        let n = self.n();
        let (mut iterate, mut d_chain) = self.h3_start(input)?;
        let mut acc: Vec<Vector> = Vec::with_capacity(count);
        let mut scratch = Vector::zeros(n);
        let mut out = ScaledMoments::with_capacity(count);
        let mut frame = 0.0;
        for _ in 0..count {
            let g2nu_k = self.h3_step(&mut iterate)?;
            for a in acc.iter_mut() {
                scratch.copy_from(a);
                self.g1_lu
                    .solve_into(&scratch, a)
                    .map_err(MorError::Linalg)?;
            }
            acc.push(self.g1_lu.solve(&g2nu_k).map_err(MorError::Linalg)?);
            scratch.copy_from(&d_chain);
            self.g1_lu
                .solve_into(&scratch, &mut d_chain)
                .map_err(MorError::Linalg)?;
            let mut m_k = Vector::zeros(n);
            for a in &acc {
                m_k.axpy(1.0, a);
            }
            m_k.axpy(-1.0, &d_chain);
            out.push(m_k, frame);

            let mut state: Vec<&mut Vector> = acc.iter_mut().collect();
            state.push(&mut d_chain);
            frame += rescale_state(&mut state, &mut iterate.buffers());
        }
        Ok(out)
    }

    /// Starts the `H₃` chain of `input` from `Z₀ = b̃₂ bᵀ`; also returns the
    /// `D₁² b` term.
    fn h3_start(&self, input: usize) -> Result<(H3Iterate<'_>, Vector)> {
        let n = self.n();
        let b = self.b_col(input)?;
        let d1b = self.d1(input).map(|d| d.matvec(&b));
        let d1d1b = match (self.d1(input), &d1b) {
            (Some(d), Some(db)) => d.matvec(db),
            _ => Vector::zeros(n),
        };
        let iterate = match &self.h3 {
            H3Solver::Schur(schur) => H3Iterate::Schur {
                bottom: TensorChain::new(schur, &b, self.qldae.g2())?,
                top: match &d1b {
                    Some(db) => Matrix::from_fn(n, n, |i, j| db[i] * b[j]),
                    None => Matrix::zeros(n, n),
                },
            },
            H3Solver::Legacy(op) => {
                let btilde = op.btilde(&b, d1b.as_ref());
                let m = op.dim();
                let mut z = Matrix::zeros(m, n);
                for i in 0..m {
                    for j in 0..n {
                        z[(i, j)] = btilde[i] * b[j];
                    }
                }
                H3Iterate::Legacy {
                    op,
                    g1t: self.qldae.g1().transpose(),
                    z,
                }
            }
        };
        Ok((iterate, d1d1b))
    }

    /// Advances the `H₃` chain by one solve of `G̃₂ Z + Z G₁ᵀ = Z_prev` and
    /// returns `G₂ ν` with `ν = vec(c̃₂ Z) + vec((c̃₂ Z)ᵀ)`.
    fn h3_step(&self, iterate: &mut H3Iterate) -> Result<Vector> {
        let n = self.n();
        let top = match iterate {
            H3Iterate::Legacy { op, g1t, z } => {
                *z = solve_sylvester_big_small(*op, g1t, z)?;
                z
            }
            H3Iterate::Schur { bottom, top } => {
                bottom.step()?;
                let _span = vamor_obs::span!("h3_top_lyapunov");
                // G₁Z₁ + Z₁G₁ᵀ = Z₁′ − G₂Z₂, where row r of G₂Z₂ is
                // Σ_c G₂[r, c] Z₂[c, :] and row c of the n² × n matrix Z₂ is
                // the gathered fiber of column c.
                let g2 = self.qldae.g2();
                for r in 0..n {
                    let (cols, vals) = g2.row_entries(r);
                    for (&c, &g) in cols.iter().zip(vals) {
                        let fiber = bottom.fiber(c)?;
                        for (x, f) in top.row_mut(r).iter_mut().zip(fiber) {
                            *x -= g * f;
                        }
                    }
                }
                let z1 = self.kron_op.solve_shifted(0.0, &vec_of(top))?;
                *top = unvec(&z1, n, n).map_err(MorError::Linalg)?;
                top
            }
        };
        // ν[k] = S[k mod n, k / n] + S[k / n, k mod n], S = the top n × n
        // block.
        let nu = Vector::from_fn(n * n, |k| top[(k % n, k / n)] + top[(k / n, k % n)]);
        Ok(self.qldae.g2().matvec(&nu))
    }

    /// Moments of the associated second-order transfer function `H₂(s)`
    /// about `s = 0` for the input pair `(input_a, input_b)`:
    ///
    /// `m_k = Σ_{i+j=k} G₁^{-(i+1)} G₂ w_j − G₁^{-(k+1)} d`,
    /// with `w_j = (G₁⊕G₁)^{-(j+1)} (b_a ⊗ b_b)` and
    /// `d = D₁ᵃ b_b + D₁ᵇ b_a` (halved for a repeated input so the SISO case
    /// reduces to the paper's `D₁ b`).
    ///
    /// # Errors
    ///
    /// Returns an error for invalid input indices or a singular Kronecker-sum
    /// pencil.
    pub fn h2_moments(&self, input_a: usize, input_b: usize, count: usize) -> Result<Vec<Vector>> {
        if count == 0 {
            return Ok(Vec::new());
        }
        let b_a = self.b_col(input_a)?;
        let b_b = self.b_col(input_b)?;
        // Bilinear contribution of the pair.
        let mut d_vec = Vector::zeros(self.n());
        if let Some(da) = self.d1(input_a) {
            d_vec.axpy(1.0, &da.matvec(&b_b));
        }
        if let Some(db) = self.d1(input_b) {
            d_vec.axpy(1.0, &db.matvec(&b_a));
        }
        if input_a == input_b {
            d_vec.scale_mut(0.5);
        }

        // w_j sequence via repeated Lyapunov solves.
        let mut w = kron_vec(&b_a, &b_b);
        let mut g2w: Vec<Vector> = Vec::with_capacity(count);
        for _ in 0..count {
            w = self.kron_op.solve_shifted(0.0, &w)?;
            g2w.push(self.qldae.g2().matvec(&w));
        }

        // Cauchy-product accumulation of the moments. All repeated `G₁⁻¹`
        // applications run through `solve_into` with one scratch buffer, so
        // the recursion allocates only the vectors it actually keeps.
        let mut acc: Vec<Vector> = Vec::with_capacity(count);
        let mut d_chain = d_vec;
        let mut scratch = Vector::zeros(self.n());
        let mut moments = Vec::with_capacity(count);
        for g2w_k in &g2w {
            // Bring every stored term up by one factor of G₁⁻¹ and add the
            // newly available term G₂ w_k.
            for a in acc.iter_mut() {
                scratch.copy_from(a);
                self.g1_lu
                    .solve_into(&scratch, a)
                    .map_err(MorError::Linalg)?;
            }
            acc.push(self.g1_lu.solve(g2w_k).map_err(MorError::Linalg)?);
            scratch.copy_from(&d_chain);
            self.g1_lu
                .solve_into(&scratch, &mut d_chain)
                .map_err(MorError::Linalg)?;
            let mut m_k = Vector::zeros(self.n());
            for a in &acc {
                m_k.axpy(1.0, a);
            }
            m_k.axpy(-1.0, &d_chain);
            moments.push(m_k);
        }
        Ok(moments)
    }

    /// Moments of the associated third-order transfer function `H₃(s)` about
    /// `s = 0` for a single input, per the realization above.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid input index or singular pencils in the
    /// inner solves.
    pub fn h3_moments(&self, input: usize, count: usize) -> Result<Vec<Vector>> {
        if count == 0 {
            return Ok(Vec::new());
        }
        let n = self.n();
        // Z_j sequence: G̃₂ Z + Z G₁ᵀ = (previous), starting from b̃₂ bᵀ;
        // G₂ ν_j with ν_j = vec(c̃₂ Z_j) + vec((c̃₂ Z_j)ᵀ).
        let (mut iterate, d1d1b) = self.h3_start(input)?;
        let mut g2nu: Vec<Vector> = Vec::with_capacity(count);
        for _ in 0..count {
            g2nu.push(self.h3_step(&mut iterate)?);
        }

        let mut acc: Vec<Vector> = Vec::with_capacity(count);
        let mut d_chain = d1d1b;
        let mut scratch = Vector::zeros(n);
        let mut moments = Vec::with_capacity(count);
        for g2nu_k in &g2nu {
            for a in acc.iter_mut() {
                scratch.copy_from(a);
                self.g1_lu
                    .solve_into(&scratch, a)
                    .map_err(MorError::Linalg)?;
            }
            acc.push(self.g1_lu.solve(g2nu_k).map_err(MorError::Linalg)?);
            scratch.copy_from(&d_chain);
            self.g1_lu
                .solve_into(&scratch, &mut d_chain)
                .map_err(MorError::Linalg)?;
            let mut m_k = Vector::zeros(n);
            for a in &acc {
                m_k.axpy(1.0, a);
            }
            m_k.axpy(-1.0, &d_chain);
            moments.push(m_k);
        }
        Ok(moments)
    }

    /// Explicit dense realization `(G̃₂, b̃₂, c̃₂)` of the associated `H₂(s)`
    /// (Eq. 17). Intended for validation and small-scale ablation only — the
    /// matrix has dimension `n + n²`.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid input index.
    pub fn dense_h2_realization(&self, input: usize) -> Result<(Matrix, Vector, Matrix)> {
        let n = self.n();
        let b = self.b_col(input)?;
        // b̃₂ = [D₁ b; b ⊗ b].
        let btilde = match self.d1(input) {
            Some(d) => d.matvec(&b),
            None => Vector::zeros(n),
        }
        .concat(&kron_vec(&b, &b));
        let dim = n + n * n;
        let mut a = Matrix::zeros(dim, dim);
        a.set_block(0, 0, self.qldae.g1());
        a.set_block(0, n, &self.qldae.g2().to_dense());
        a.set_block(
            n,
            n,
            &vamor_linalg::kron_sum(self.qldae.g1(), self.qldae.g1()),
        );
        let mut c = Matrix::zeros(n, dim);
        for i in 0..n {
            c[(i, i)] = 1.0;
        }
        Ok((a, btilde, c))
    }
}

/// Moment-vector generator for cubic polynomial ODEs (`G₃` nonlinearity),
/// used for the varistor experiment. The associated third-order transfer
/// function of `ẋ = G₁x + G₃ x^{(3⊗)} + b u` is
/// `H₃(s) = (sI − G₁)⁻¹ G₃ (sI − G₁⊕G₁⊕G₁)⁻¹ (b⊗b⊗b)` (Corollary 1 of the
/// paper applied three ways).
#[derive(Debug)]
pub struct CubicAssocMomentGenerator<'a> {
    ode: &'a CubicOde,
    g1_lu: G1Factor,
    recovery: PivotRecovery,
    h3: CubicH3Solver,
}

/// How the `H₃` chains of a [`CubicAssocMomentGenerator`] solve their steps.
#[derive(Debug)]
enum CubicH3Solver {
    /// Cached: the tensor chain stays in the Schur coordinates of `G₁`.
    Schur(SchurDecomposition),
    /// Uncached legacy: big-left/small-right Sylvester solves against
    /// `G₁ ⊕ G₁`.
    Legacy(Box<KronSumOp2>),
}

/// The iterate `w_j = (G₁⊕G₁⊕G₁)^{-j} (b⊗b⊗b)` of a cubic `H₃` chain, in the
/// form its solver keeps it.
enum CubicH3Iterate<'g> {
    Schur(TensorChain<'g>),
    /// `w_j` as the `n² × n` matrix of the big-small Sylvester solve.
    Legacy {
        op: &'g KronSumOp2,
        g1t: Matrix,
        w: Matrix,
    },
}

impl<'a> CubicAssocMomentGenerator<'a> {
    /// Prepares the cached factorizations.
    ///
    /// # Errors
    ///
    /// Returns an error if `G₁` is singular.
    pub fn new(ode: &'a CubicOde) -> Result<Self> {
        Self::with_caching(ode, true)
    }

    /// Prepares the generator with the solver-cache layer switched on or off
    /// (see [`AssocMomentGenerator::with_caching`]).
    ///
    /// # Errors
    ///
    /// Returns an error if `G₁` is singular.
    pub fn with_caching(ode: &'a CubicOde, caching: bool) -> Result<Self> {
        Self::with_options(ode, caching, SolverBackend::Auto)
    }

    /// Prepares the generator with an explicit linear-solver backend for the
    /// `G₁` solves (see [`AssocMomentGenerator::with_options`]).
    ///
    /// # Errors
    ///
    /// Returns an error if `G₁` is singular.
    pub fn with_options(ode: &'a CubicOde, caching: bool, backend: SolverBackend) -> Result<Self> {
        let sparse = backend.use_sparse(ode.g1().rows(), SPARSE_AUTO_THRESHOLD);
        let (g1_lu, recovery) = G1Factor::build_with_recovery(ode.g1_csr(), ode.g1(), sparse)
            .map_err(MorError::Linalg)?;
        let h3 = if caching {
            CubicH3Solver::Schur(SchurDecomposition::new(ode.g1()).map_err(MorError::Linalg)?)
        } else {
            CubicH3Solver::Legacy(Box::new(KronSumOp2::new_uncached(ode.g1())?))
        };
        Ok(CubicAssocMomentGenerator {
            ode,
            g1_lu,
            recovery,
            h3,
        })
    }

    /// What the pivot degradation ladder did while factoring `G₁`.
    pub fn pivot_recovery(&self) -> PivotRecovery {
        self.recovery
    }

    /// The cached Schur form of `G₁` (present when solver caching is on).
    pub fn g1_schur(&self) -> Option<&SchurDecomposition> {
        match &self.h3 {
            CubicH3Solver::Schur(schur) => Some(schur),
            CubicH3Solver::Legacy(_) => None,
        }
    }

    fn n(&self) -> usize {
        self.ode.g1().rows()
    }

    fn b_col(&self, input: usize) -> Result<Vector> {
        if input >= self.ode.b().cols() {
            return Err(MorError::Invalid(format!(
                "input index {input} out of range for a {}-input system",
                self.ode.b().cols()
            )));
        }
        Ok(self.ode.b().col(input))
    }

    /// Moments of `H₁(s)` about `s = 0`.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid input index or a failed solve.
    pub fn h1_moments(&self, input: usize, count: usize) -> Result<Vec<Vector>> {
        let mut v = self.b_col(input)?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            v = self.g1_lu.solve(&v).map_err(MorError::Linalg)?;
            out.push(v.clone());
        }
        Ok(out)
    }

    /// [`CubicAssocMomentGenerator::h1_moments`] with per-candidate
    /// normalization (see [`AssocMomentGenerator::h1_moments_scaled`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`CubicAssocMomentGenerator::h1_moments`].
    pub fn h1_moments_scaled(&self, input: usize, count: usize) -> Result<ScaledMoments> {
        h1_chain(&self.g1_lu, self.b_col(input)?, count)
    }

    /// [`CubicAssocMomentGenerator::h3_moments`] with chain scaling (see
    /// [`AssocMomentGenerator::h2_moments_scaled`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`CubicAssocMomentGenerator::h3_moments`].
    pub fn h3_moments_scaled(&self, input: usize, count: usize) -> Result<ScaledMoments> {
        if count == 0 {
            return Ok(ScaledMoments::with_capacity(0));
        }
        let n = self.n();
        let mut iterate = self.h3_start(input)?;
        let mut acc: Vec<Vector> = Vec::with_capacity(count);
        let mut scratch = Vector::zeros(n);
        let mut out = ScaledMoments::with_capacity(count);
        let mut frame = 0.0;
        for _ in 0..count {
            let g3w_k = self.h3_step(&mut iterate)?;
            for a in acc.iter_mut() {
                scratch.copy_from(a);
                self.g1_lu
                    .solve_into(&scratch, a)
                    .map_err(MorError::Linalg)?;
            }
            acc.push(self.g1_lu.solve(&g3w_k).map_err(MorError::Linalg)?);
            let mut m_k = Vector::zeros(n);
            for a in &acc {
                m_k.axpy(1.0, a);
            }
            out.push(m_k, frame);

            let mut state: Vec<&mut Vector> = acc.iter_mut().collect();
            let buffer = match &mut iterate {
                CubicH3Iterate::Schur(chain) => chain.y.as_mut_slice(),
                CubicH3Iterate::Legacy { w, .. } => w.as_mut_slice(),
            };
            frame += rescale_state(&mut state, &mut [buffer]);
        }
        Ok(out)
    }

    /// Moments of the associated `H₃(s)` about `s = 0`:
    /// `m_k = Σ_{i+j=k} G₁^{-(i+1)} G₃ w_j` with
    /// `w_j = (G₁⊕G₁⊕G₁)^{-(j+1)} (b⊗b⊗b)`.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid input index or singular pencils.
    pub fn h3_moments(&self, input: usize, count: usize) -> Result<Vec<Vector>> {
        if count == 0 {
            return Ok(Vec::new());
        }
        let n = self.n();
        let mut iterate = self.h3_start(input)?;
        let mut g3w: Vec<Vector> = Vec::with_capacity(count);
        for _ in 0..count {
            g3w.push(self.h3_step(&mut iterate)?);
        }

        let mut acc: Vec<Vector> = Vec::with_capacity(count);
        let mut scratch = Vector::zeros(n);
        let mut moments = Vec::with_capacity(count);
        for g3w_k in &g3w {
            for a in acc.iter_mut() {
                scratch.copy_from(a);
                self.g1_lu
                    .solve_into(&scratch, a)
                    .map_err(MorError::Linalg)?;
            }
            acc.push(self.g1_lu.solve(g3w_k).map_err(MorError::Linalg)?);
            let mut m_k = Vector::zeros(n);
            for a in &acc {
                m_k.axpy(1.0, a);
            }
            moments.push(m_k);
        }
        Ok(moments)
    }

    /// Starts the `H₃` chain of `input` from `w₀ = b ⊗ b ⊗ b`.
    fn h3_start(&self, input: usize) -> Result<CubicH3Iterate<'_>> {
        let b = self.b_col(input)?;
        Ok(match &self.h3 {
            CubicH3Solver::Schur(schur) => {
                CubicH3Iterate::Schur(TensorChain::new(schur, &b, self.ode.g3())?)
            }
            CubicH3Solver::Legacy(op) => {
                // w₀ as an n² × n matrix (column-major unvec).
                let n = b.len();
                let bb = kron_vec(&b, &b);
                let mut w = Matrix::zeros(n * n, n);
                for j in 0..n {
                    for i in 0..n * n {
                        w[(i, j)] = b[j] * bb[i];
                    }
                }
                CubicH3Iterate::Legacy {
                    op,
                    g1t: self.ode.g1().transpose(),
                    w,
                }
            }
        })
    }

    /// Advances the chain one step and returns `G₃ w_j`. The legacy path
    /// performs the triple Kronecker-sum solve as a big-left/small-right
    /// Sylvester solve, `(G₁⊕G₁) X + X G₁ᵀ = unvec(w)` with `X ∈ ℝ^{n²×n}`.
    fn h3_step(&self, iterate: &mut CubicH3Iterate) -> Result<Vector> {
        match iterate {
            CubicH3Iterate::Legacy { op, g1t, w } => {
                *w = solve_sylvester_big_small(*op, g1t, w)?;
                Ok(self.ode.g3().matvec(&vec_of(w)))
            }
            CubicH3Iterate::Schur(chain) => {
                chain.step()?;
                // Column c of G₃ reads mode-1 entry c / n² of its fiber.
                let nn = self.n() * self.n();
                let mut g3w = Vector::zeros(self.n());
                for (r, c, g) in self.ode.g3().iter() {
                    g3w[r] += g * chain.fiber(c)?[c / nn];
                }
                Ok(g3w)
            }
        }
    }
}

/// Checks the Kronecker-ordering convention used in the seeds above: the
/// `vec`-space image of `b ⊗ b ⊗ b` as an `n² × n` matrix is `(b⊗b) bᵀ`.
#[cfg(test)]
fn triple_kron_as_matrix(b: &Vector) -> Matrix {
    let n = b.len();
    let bb = kron_vec(b, b);
    Matrix::from_fn(n * n, n, |i, j| b[j] * bb[i])
}

#[cfg(test)]
mod tests {
    use super::*;
    use vamor_linalg::kron::unvec;
    use vamor_linalg::{kron_sum, CooMatrix};
    use vamor_system::QldaeBuilder;

    fn small_qldae(with_d1: bool) -> Qldae {
        let mut builder = QldaeBuilder::new(3, 1)
            .g1_entry(0, 0, -1.0)
            .g1_entry(0, 1, 0.3)
            .g1_entry(1, 1, -2.0)
            .g1_entry(1, 2, 0.2)
            .g1_entry(2, 2, -1.5)
            .g1_entry(2, 0, 0.1)
            .g2_entry(0, 0, 1, 0.4)
            .g2_entry(1, 2, 2, -0.25)
            .g2_entry(2, 0, 0, 0.15)
            .b_entry(0, 0, 1.0)
            .b_entry(2, 0, 0.5)
            .output_state(2);
        if with_d1 {
            builder = builder.d1_entry(0, 1, 1, 0.3).d1_entry(0, 0, 2, -0.2);
        }
        builder.build().unwrap()
    }

    /// Brute-force reference: moments of the associated H2(s) computed from
    /// the explicit dense realization of Eq. 17 by repeated dense solves.
    fn dense_h2_moments(q: &Qldae, count: usize) -> Vec<Vector> {
        let generator = AssocMomentGenerator::new(q).unwrap();
        let (a, btilde, c) = generator.dense_h2_realization(0).unwrap();
        let lu = a.lu().unwrap();
        let mut v = btilde;
        let mut out = Vec::new();
        for _ in 0..count {
            v = lu.solve(&v).unwrap();
            // Moment of the full realization output = c (A^{-(k+1)}) b̃ (sign dropped).
            out.push(c.matvec(&v));
        }
        out
    }

    #[test]
    fn h2_moments_match_dense_realization() {
        for with_d1 in [false, true] {
            let q = small_qldae(with_d1);
            let generator = AssocMomentGenerator::new(&q).unwrap();
            let ours = generator.h2_moments(0, 0, 4).unwrap();
            let reference = dense_h2_moments(&q, 4);
            for (k, (a, b)) in ours.iter().zip(reference.iter()).enumerate() {
                // Both sequences are the Taylor coefficients of the same
                // rational function up to sign conventions; compare spans by
                // checking proportionality of each coefficient vector.
                let diff_plus = (a - b).norm_inf();
                let diff_minus = (&a.scaled(-1.0) - b).norm_inf();
                let tol = 1e-9 * (1.0 + b.norm_inf());
                assert!(
                    diff_plus < tol || diff_minus < tol,
                    "moment {k} mismatch (d1={with_d1}): |a-b|={diff_plus:.3e}, |a+b|={diff_minus:.3e}"
                );
            }
        }
    }

    #[test]
    fn h1_moments_are_rational_krylov_vectors() {
        let q = small_qldae(false);
        let generator = AssocMomentGenerator::new(&q).unwrap();
        let m = generator.h1_moments(0, 3).unwrap();
        let g1 = q.g1();
        // G1 * m_0 = b, G1 * m_{k+1} = m_k.
        assert!((&g1.matvec(&m[0]) - &q.b().col(0)).norm_inf() < 1e-12);
        assert!((&g1.matvec(&m[1]) - &m[0]).norm_inf() < 1e-12);
        assert!((&g1.matvec(&m[2]) - &m[1]).norm_inf() < 1e-12);
        assert!(generator.h1_moments(1, 2).is_err());
    }

    #[test]
    fn h3_moments_match_brute_force_dense_computation() {
        let q = small_qldae(true);
        let n = 3;
        let generator = AssocMomentGenerator::new(&q).unwrap();
        let ours = generator.h3_moments(0, 2).unwrap();

        // Brute force from the dense realizations: build G̃2 densely, then the
        // (n·(n+n²)) matrix G1 ⊕ G̃2 and compute the H̃3 moments explicitly.
        let (gt2, btilde, ctilde) = generator.dense_h2_realization(0).unwrap();
        let g1 = q.g1();
        let b = q.b().col(0);
        let m_dim = n + n * n;
        let big = kron_sum(g1, &gt2); // n·m dimensional
        let big_lu = big.lu().unwrap();
        let seed = kron_vec(&b, &btilde);
        let d1 = &q.d1()[0];
        let d1b = d1.matvec(&b);
        let d1d1b = d1.matvec(&d1b);
        let g1_lu = g1.lu().unwrap();

        let mut z = seed;
        let mut g2nu = Vec::new();
        for _ in 0..2 {
            z = big_lu.solve(&z).unwrap();
            // term1: (I ⊗ c̃2) z ; term2 equals the "transposed" pairing.
            let zmat = unvec(&z, m_dim, n).unwrap();
            let s = ctilde.matmul(&zmat); // n×n
            let mut nu = vec_of(&s);
            nu.axpy(1.0, &vec_of(&s.transpose()));
            g2nu.push(q.g2().matvec(&nu));
        }
        let mut acc: Vec<Vector> = Vec::new();
        let mut d_chain = d1d1b;
        let mut reference = Vec::new();
        for g2nu_k in &g2nu {
            for a in acc.iter_mut() {
                *a = g1_lu.solve(a).unwrap();
            }
            acc.push(g1_lu.solve(g2nu_k).unwrap());
            d_chain = g1_lu.solve(&d_chain).unwrap();
            let mut m_k = Vector::zeros(n);
            for a in &acc {
                m_k.axpy(1.0, a);
            }
            m_k.axpy(-1.0, &d_chain);
            reference.push(m_k);
        }

        for (k, (a, b)) in ours.iter().zip(reference.iter()).enumerate() {
            assert!(
                (a - b).norm_inf() < 1e-9 * (1.0 + b.norm_inf()),
                "H3 moment {k} mismatch: {:?} vs {:?}",
                a.as_slice(),
                b.as_slice()
            );
        }
    }

    #[test]
    fn cubic_h3_moments_match_dense_triple_kron_sum() {
        // Small cubic system: n = 2.
        let n = 2;
        let g1 = Matrix::from_rows(&[&[-1.0, 0.2], &[0.0, -3.0]]).unwrap();
        let mut g3 = CooMatrix::new(n, n * n * n);
        g3.push(0, 0, 0.5); // x0^3
        g3.push(1, 7, -0.3); // x1^3 (index 1*4+1*2+1)
        g3.push(1, 1, 0.1); // x0 x0 x1
        let b = Matrix::from_rows(&[&[1.0], &[0.4]]).unwrap();
        let c = Matrix::from_rows(&[&[1.0, 0.0]]).unwrap();
        let ode = CubicOde::new(g1.clone(), None, g3.to_csr(), b.clone(), c).unwrap();
        let generator = CubicAssocMomentGenerator::new(&ode).unwrap();
        let ours = generator.h3_moments(0, 3).unwrap();

        // Dense reference with the explicit n³ Kronecker sum.
        let m3 = kron_sum(&g1, &kron_sum(&g1, &g1));
        let m3_lu = m3.lu().unwrap();
        let bvec = b.col(0);
        let seed = kron_vec(&bvec, &kron_vec(&bvec, &bvec));
        let g1_lu = g1.lu().unwrap();
        let mut w = seed;
        let mut g3w = Vec::new();
        for _ in 0..3 {
            w = m3_lu.solve(&w).unwrap();
            g3w.push(ode.g3().matvec(&w));
        }
        let mut acc: Vec<Vector> = Vec::new();
        let mut reference = Vec::new();
        for g3w_k in &g3w {
            for a in acc.iter_mut() {
                *a = g1_lu.solve(a).unwrap();
            }
            acc.push(g1_lu.solve(g3w_k).unwrap());
            let mut m_k = Vector::zeros(n);
            for a in &acc {
                m_k.axpy(1.0, a);
            }
            reference.push(m_k);
        }
        for (k, (a, b)) in ours.iter().zip(reference.iter()).enumerate() {
            assert!(
                (a - b).norm_inf() < 1e-10 * (1.0 + b.norm_inf()),
                "cubic H3 moment {k} mismatch"
            );
        }
        assert!(generator.h1_moments(0, 2).unwrap().len() == 2);
        assert!(generator.h1_moments(3, 1).is_err());
    }

    #[test]
    fn triple_kron_matrix_matches_vec_convention() {
        let b = Vector::from_slice(&[2.0, -1.0]);
        let m = triple_kron_as_matrix(&b);
        let direct = kron_vec(&b, &kron_vec(&b, &b));
        assert!((&vec_of(&m) - &direct).norm_inf() < 1e-15);
    }

    #[test]
    fn zero_moment_requests_return_empty() {
        let q = small_qldae(false);
        let generator = AssocMomentGenerator::new(&q).unwrap();
        assert!(generator.h2_moments(0, 0, 0).unwrap().is_empty());
        assert!(generator.h3_moments(0, 0).unwrap().is_empty());
        assert!(generator
            .h2_moments_scaled(0, 0, 0)
            .unwrap()
            .vectors
            .is_empty());
        assert!(generator
            .h3_moments_scaled(0, 0)
            .unwrap()
            .vectors
            .is_empty());
    }

    /// The scaled chain must span exactly the same directions as the raw one:
    /// each scaled candidate is the unit-normalized raw moment, and the
    /// recorded `log10` magnitude reconstructs the raw norm.
    fn assert_scaled_matches_raw(raw: &[Vector], scaled: &ScaledMoments) {
        assert_eq!(raw.len(), scaled.vectors.len());
        for (k, (r, s)) in raw.iter().zip(scaled.vectors.iter()).enumerate() {
            let mag = r.norm2();
            assert!(
                (s.norm2() - 1.0).abs() < 1e-12,
                "scaled candidate {k} is not unit norm"
            );
            let unit = r.scaled(1.0 / mag);
            assert!(
                (&unit - s).norm_inf() < 1e-9,
                "scaled candidate {k} is not parallel to the raw moment"
            );
            let rec = 10.0_f64.powf(scaled.log10_magnitudes[k]);
            assert!(
                (rec - mag).abs() < 1e-6 * mag,
                "magnitude {k}: raw {mag:.6e}, reconstructed {rec:.6e}"
            );
        }
    }

    #[test]
    fn scaled_chains_match_raw_chains_on_small_systems() {
        for with_d1 in [false, true] {
            let q = small_qldae(with_d1);
            let generator = AssocMomentGenerator::new(&q).unwrap();
            assert_scaled_matches_raw(
                &generator.h1_moments(0, 5).unwrap(),
                &generator.h1_moments_scaled(0, 5).unwrap(),
            );
            assert_scaled_matches_raw(
                &generator.h2_moments(0, 0, 4).unwrap(),
                &generator.h2_moments_scaled(0, 0, 4).unwrap(),
            );
            assert_scaled_matches_raw(
                &generator.h3_moments(0, 3).unwrap(),
                &generator.h3_moments_scaled(0, 3).unwrap(),
            );
        }
    }

    #[test]
    fn scaled_cubic_chains_match_raw_chains() {
        let n = 2;
        let g1 = Matrix::from_rows(&[&[-1.0, 0.2], &[0.0, -3.0]]).unwrap();
        let mut g3 = CooMatrix::new(n, n * n * n);
        g3.push(0, 0, 0.5);
        g3.push(1, 7, -0.3);
        let b = Matrix::from_rows(&[&[1.0], &[0.4]]).unwrap();
        let c = Matrix::from_rows(&[&[1.0, 0.0]]).unwrap();
        let ode = CubicOde::new(g1, None, g3.to_csr(), b, c).unwrap();
        let generator = CubicAssocMomentGenerator::new(&ode).unwrap();
        assert_scaled_matches_raw(
            &generator.h1_moments(0, 4).unwrap(),
            &generator.h1_moments_scaled(0, 4).unwrap(),
        );
        assert_scaled_matches_raw(
            &generator.h3_moments(0, 3).unwrap(),
            &generator.h3_moments_scaled(0, 3).unwrap(),
        );
    }

    #[test]
    fn long_scaled_chains_stay_finite_where_raw_chains_overflow() {
        // G1 with an eigenvalue far inside the unit circle: G1^{-k} b grows
        // like 5^k and the raw chain overflows past ~440 iterations, while
        // the scaled chain keeps every candidate at unit norm.
        let q = QldaeBuilder::new(2, 1)
            .g1_entry(0, 0, -0.2)
            .g1_entry(1, 1, -0.25)
            .g2_entry(0, 0, 1, 0.1)
            .b_entry(0, 0, 1.0)
            .b_entry(1, 0, 1.0)
            .output_state(1)
            .build()
            .unwrap();
        let generator = AssocMomentGenerator::new(&q).unwrap();
        let scaled = generator.h1_moments_scaled(0, 500).unwrap();
        assert_eq!(scaled.vectors.len(), 500);
        assert!(scaled.vectors.iter().all(|v| v.is_finite()));
        // The discarded magnitude is astronomically large and faithfully
        // tracked in log10 space (5^500 ≈ 10^349).
        assert!(scaled.log10_peak() > 300.0);
        // The raw chain cannot represent those magnitudes.
        let raw = generator.h1_moments(0, 500).unwrap();
        assert!(raw
            .last()
            .unwrap()
            .as_slice()
            .iter()
            .any(|x| !x.is_finite()));
    }
}
