//! Sylvester and Lyapunov equation solvers (Bartels–Stewart).
//!
//! The associated-transform MOR flow leans heavily on the fact that the
//! Kronecker-sum resolvent solves `(σ I − G₁ ⊕ G₁) y = r` appearing in the
//! single-`s` realizations of `H₂(s)` and `H₃(s)` are Sylvester equations in
//! disguise: with `Y = unvec(y)` the solve becomes
//! `(G₁ − σI) Y + Y G₁ᵀ = −R`, which Bartels–Stewart handles in `O(n³)` using
//! only the `n × n` Schur factorization of `G₁`.
//!
//! [`SylvesterSolver`] caches the Schur factorizations of its two coefficient
//! matrices so that the many repeated solves of moment generation cost a
//! single quasi-triangular back-substitution each. Complex-shifted solves
//! (needed when an outer recursion walks over 2×2 Schur blocks of another
//! matrix) are supported as well.

use crate::complex::Complex;
use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::schur::{SchurBlock, SchurDecomposition};
use crate::vector::Vector;
use crate::zmatrix::{ZMatrix, ZVector};
use crate::Result;

/// Cached Bartels–Stewart solver for `A X + X B = C` with fixed `A`, `B`.
///
/// ```
/// use vamor_linalg::{Matrix, SylvesterSolver};
/// # fn main() -> Result<(), vamor_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[-3.0, 1.0], &[0.0, -2.0]])?;
/// let b = Matrix::from_rows(&[&[-1.0, 0.0], &[2.0, -4.0]])?;
/// let c = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]])?;
/// let solver = SylvesterSolver::new(&a, &b)?;
/// let x = solver.solve(&c)?;
/// let residual = &(&a.matmul(&x) + &x.matmul(&b)) - &c;
/// assert!(residual.max_abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SylvesterSolver {
    na: usize,
    nb: usize,
    /// Schur factors of `A`: `A = Qa Ta Qaᵀ`.
    qa: Matrix,
    ta: Matrix,
    blocks_a: Vec<SchurBlock>,
    /// Schur factors of `Bᵀ`: `Qb Tb Qbᵀ` (so `Qbᵀ B Qb = Tbᵀ`).
    qb: Matrix,
    tb: Matrix,
    blocks_b: Vec<SchurBlock>,
    /// Precomputed `Qaᵀ` / `Qbᵀ`, so the hot solve paths never re-allocate
    /// transposes.
    qat: Matrix,
    qbt: Matrix,
    /// When true (default), the per-block back-substitution systems (at most
    /// 4×4) are solved on the stack. The legacy heap-allocating path is kept
    /// selectable so the solver-cache benchmarks can compare against the
    /// original implementation faithfully.
    fast_blocks: bool,
}

impl SylvesterSolver {
    /// Builds the solver from the coefficient matrices of `A X + X B = C`.
    ///
    /// # Errors
    ///
    /// Returns an error if either matrix is not square or a Schur
    /// factorization fails to converge.
    pub fn new(a: &Matrix, b: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        if !b.is_square() {
            return Err(LinalgError::NotSquare {
                rows: b.rows(),
                cols: b.cols(),
            });
        }
        let sa = SchurDecomposition::new(a)?;
        let sb = SchurDecomposition::new(&b.transpose())?;
        Ok(SylvesterSolver {
            na: a.rows(),
            nb: b.rows(),
            qa: sa.q().clone(),
            ta: sa.t().clone(),
            blocks_a: sa.blocks().to_vec(),
            qb: sb.q().clone(),
            tb: sb.t().clone(),
            blocks_b: sb.blocks().to_vec(),
            qat: sa.q().transpose(),
            qbt: sb.q().transpose(),
            fast_blocks: true,
        })
    }

    /// Builds the solver with the legacy heap-allocating per-block
    /// back-substitution, reproducing the pre-optimization implementation for
    /// A/B benchmarks.
    ///
    /// # Errors
    ///
    /// Same contract as [`SylvesterSolver::new`].
    pub fn new_legacy(a: &Matrix, b: &Matrix) -> Result<Self> {
        let mut solver = Self::new(a, b)?;
        solver.fast_blocks = false;
        Ok(solver)
    }

    /// Builds a solver for the Lyapunov-structured equation `A X + X Aᵀ = C`
    /// with a **single** Schur factorization.
    ///
    /// [`SylvesterSolver::new`] called with `(A, Aᵀ)` computes the Schur form
    /// of `A` twice (once for the left coefficient, once for `(Aᵀ)ᵀ`); the
    /// Kronecker-sum operators of the MOR hot path always have this symmetric
    /// shape, so sharing the factorization halves their setup cost.
    ///
    /// # Errors
    ///
    /// Returns an error if `a` is not square or its Schur factorization fails.
    pub fn new_lyapunov(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let sa = SchurDecomposition::new(a)?;
        Ok(SylvesterSolver {
            na: a.rows(),
            nb: a.rows(),
            qa: sa.q().clone(),
            ta: sa.t().clone(),
            blocks_a: sa.blocks().to_vec(),
            qb: sa.q().clone(),
            tb: sa.t().clone(),
            blocks_b: sa.blocks().to_vec(),
            qat: sa.q().transpose(),
            qbt: sa.q().transpose(),
            fast_blocks: true,
        })
    }

    /// Builds a Lyapunov-structured solver (`A X + X Aᵀ = C`) from an
    /// already computed Schur form of `A`, skipping the QR iteration entirely.
    ///
    /// The MOR reducers hold a cached Schur form of `G₁`; the stabilized
    /// projection needs one extra Lyapunov solve against `G₁ᵀ`
    /// ([`lyapunov_weight_with_schur`]), which this constructor (combined with
    /// [`crate::SchurDecomposition::adjoint`]) makes an `O(n²)` setup instead
    /// of a second `O(n³)` factorization.
    pub fn new_lyapunov_from_schur(sa: &SchurDecomposition) -> Self {
        SylvesterSolver {
            na: sa.dim(),
            nb: sa.dim(),
            qa: sa.q().clone(),
            ta: sa.t().clone(),
            blocks_a: sa.blocks().to_vec(),
            qb: sa.q().clone(),
            tb: sa.t().clone(),
            blocks_b: sa.blocks().to_vec(),
            qat: sa.q().transpose(),
            qbt: sa.q().transpose(),
            fast_blocks: true,
        }
    }

    /// The Schur factorization of the `A` coefficient as a standalone
    /// decomposition (cloned), so callers can reuse it for other
    /// `A`-spectrum-driven recursions without refactorizing.
    pub fn a_schur_decomposition(&self) -> crate::schur::SchurDecomposition {
        crate::schur::SchurDecomposition::from_parts(
            self.qa.clone(),
            self.ta.clone(),
            self.blocks_a.clone(),
        )
    }

    /// Row dimension (`A` side).
    pub fn rows(&self) -> usize {
        self.na
    }

    /// Column dimension (`B` side).
    pub fn cols(&self) -> usize {
        self.nb
    }

    /// The Schur factors `(Q, T)` of the `A` coefficient.
    pub fn a_schur(&self) -> (&Matrix, &Matrix) {
        (&self.qa, &self.ta)
    }

    /// Solves `A X + X B = C`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] for a wrongly shaped `C`
    /// and [`LinalgError::Singular`] if `λ_i(A) + λ_j(B) = 0` for some pair.
    pub fn solve(&self, c: &Matrix) -> Result<Matrix> {
        self.solve_shifted(0.0, c)
    }

    /// Solves `(A + σ I) X + X B = C` for a real shift `σ`.
    ///
    /// # Errors
    ///
    /// Same as [`SylvesterSolver::solve`], with singularity now meaning
    /// `λ_i(A) + σ + λ_j(B) = 0`.
    pub fn solve_shifted(&self, shift: f64, c: &Matrix) -> Result<Matrix> {
        if c.rows() != self.na || c.cols() != self.nb {
            return Err(LinalgError::DimensionMismatch(format!(
                "sylvester solve: rhs is {}x{}, expected {}x{}",
                c.rows(),
                c.cols(),
                self.na,
                self.nb
            )));
        }
        if self.fast_blocks {
            return self.solve_shifted_fast(shift, c);
        }
        // Transform to Schur coordinates: Ta Y + Y Tbᵀ = Qaᵀ C Qb.
        let ctil = self.qa.transpose().matmul(c).matmul(&self.qb);
        let mut y = Matrix::zeros(self.na, self.nb);

        for jb in self.blocks_b.iter().rev() {
            let (j0, sj) = (jb.start, jb.size);
            // Right-hand side for this column block, with contributions from
            // already-solved (later) column blocks moved over.
            let mut rhs = ctil.submatrix(0, self.na, j0, j0 + sj);
            for cl in 0..sj {
                let j = j0 + cl;
                for k in (j0 + sj)..self.nb {
                    let coef = self.tb[(j, k)];
                    if coef != 0.0 {
                        for r in 0..self.na {
                            rhs[(r, cl)] -= coef * y[(r, k)];
                        }
                    }
                }
            }
            // S is the transposed diagonal block of Tb (acts from the right).
            let s_block = Matrix::from_fn(sj, sj, |p, q| self.tb[(j0 + q, j0 + p)]);

            for ib in self.blocks_a.iter().rev() {
                let (i0, si) = (ib.start, ib.size);
                let dim = si * sj;
                // Legacy path: heap-allocated local block, dense LU.
                let mut local = rhs.submatrix(i0, i0 + si, 0, sj);
                for rl in 0..si {
                    let i = i0 + rl;
                    for k in (i0 + si)..self.na {
                        let coef = self.ta[(i, k)];
                        if coef != 0.0 {
                            for cl in 0..sj {
                                local[(rl, cl)] -= coef * y[(k, j0 + cl)];
                            }
                        }
                    }
                }
                let mut m = Matrix::zeros(dim, dim);
                for p in 0..si {
                    for q in 0..si {
                        let mut v = self.ta[(i0 + p, i0 + q)];
                        if p == q {
                            v += shift;
                        }
                        if v != 0.0 {
                            for cc in 0..sj {
                                m[(cc * si + p, cc * si + q)] += v;
                            }
                        }
                    }
                }
                for p in 0..sj {
                    for q in 0..sj {
                        let v = s_block[(q, p)];
                        if v != 0.0 {
                            for rr in 0..si {
                                m[(p * si + rr, q * si + rr)] += v;
                            }
                        }
                    }
                }
                let rhs_vec = Vector::from_fn(dim, |k| local[(k % si, k / si)]);
                let w = m
                    .lu()
                    .map_err(|_| sylvester_singular(shift))?
                    .solve(&rhs_vec)?;
                for cl in 0..sj {
                    for rl in 0..si {
                        y[(i0 + rl, j0 + cl)] = w[cl * si + rl];
                    }
                }
            }
        }
        Ok(self.qa.matmul(&y).matmul(&self.qb.transpose()))
    }

    /// Optimized back-substitution: the iterate `Y` and the transformed
    /// right-hand side are held *transposed* so every coupling update is a
    /// contiguous slice operation, and the ≤4×4 block systems are solved on
    /// the stack instead of through heap-allocated LU objects.
    fn solve_shifted_fast(&self, shift: f64, c: &Matrix) -> Result<Matrix> {
        // C̃ᵀ = (Qaᵀ C Qb)ᵀ = Qbᵀ Cᵀ Qa, rows of `ctil_t` are columns of C̃.
        let ctil_t = self.qbt.matmul(&c.transpose()).matmul(&self.qa);
        // Rows of `yt` are columns of Y.
        let mut yt = Matrix::zeros(self.nb, self.na);
        // Reusable right-hand-side rows for the current column block (sj ≤ 2).
        let mut rhs_rows = Matrix::zeros(2, self.na);

        for jb in self.blocks_b.iter().rev() {
            let (j0, sj) = (jb.start, jb.size);
            // rhs row cl = C̃ᵀ row (j0+cl) − Σ_{k ≥ j0+sj} Tb[j0+cl, k] · Y col k.
            for cl in 0..sj {
                let j = j0 + cl;
                rhs_rows.row_mut(cl).copy_from_slice(ctil_t.row(j));
                for k in (j0 + sj)..self.nb {
                    let coef = self.tb[(j, k)];
                    if coef != 0.0 {
                        let ycol = yt.row(k);
                        for (r, &v) in rhs_rows.row_mut(cl).iter_mut().zip(ycol.iter()) {
                            *r -= coef * v;
                        }
                    }
                }
            }
            // S is the transposed diagonal block of Tb (acts from the right).
            let mut s_block = [[0.0f64; 2]; 2];
            for (p, row) in s_block.iter_mut().enumerate().take(sj) {
                for (q, v) in row.iter_mut().enumerate().take(sj) {
                    *v = self.tb[(j0 + q, j0 + p)];
                }
            }

            for ib in self.blocks_a.iter().rev() {
                let (i0, si) = (ib.start, ib.size);
                let dim = si * sj;
                // Local RHS minus coupling with already-solved row blocks;
                // both the Ta row and the Y column are contiguous slices.
                let mut w = [0.0f64; 4];
                for cl in 0..sj {
                    let ycol = yt.row(j0 + cl);
                    for rl in 0..si {
                        let i = i0 + rl;
                        let ta_row = self.ta.row(i);
                        let mut acc = rhs_rows[(cl, i)];
                        for (t, v) in ta_row[(i0 + si)..].iter().zip(ycol[(i0 + si)..].iter()) {
                            acc -= t * v;
                        }
                        w[cl * si + rl] = acc;
                    }
                }
                // Small system (I ⊗ (Ta_ii + σI) + Sᵀ ⊗ I) vec(W) = vec(local).
                let mut m = [[0.0f64; 4]; 4];
                for p in 0..si {
                    for q in 0..si {
                        let mut v = self.ta[(i0 + p, i0 + q)];
                        if p == q {
                            v += shift;
                        }
                        if v != 0.0 {
                            for cc in 0..sj {
                                m[cc * si + p][cc * si + q] += v;
                            }
                        }
                    }
                }
                for p in 0..sj {
                    for q in 0..sj {
                        let v = s_block[q][p];
                        if v != 0.0 {
                            for rr in 0..si {
                                m[p * si + rr][q * si + rr] += v;
                            }
                        }
                    }
                }
                solve_small_real(dim, &mut m, &mut w, 0.0)
                    .ok_or_else(|| sylvester_singular(shift))?;
                for cl in 0..sj {
                    for rl in 0..si {
                        yt[(j0 + cl, i0 + rl)] = w[cl * si + rl];
                    }
                }
            }
        }
        // X = Qa Y Qbᵀ = (Qb Yᵀᵀ…): with Y = Ytᵀ, X = (Qb Yt Qaᵀ)ᵀ.
        Ok(self.qb.matmul(&yt).matmul(&self.qat).transpose())
    }

    /// Solves `(A + λ I) X + X B = C` with a complex shift `λ` and a complex
    /// right-hand side `C = C_re + i C_im`. Returns `(X_re, X_im)`.
    ///
    /// This is used when an outer Bartels–Stewart recursion over *another*
    /// matrix hits a 2×2 (complex-pair) Schur block and the per-eigenvalue
    /// shifted solves become complex.
    ///
    /// # Errors
    ///
    /// Same as [`SylvesterSolver::solve_shifted`], with the shifted pencil
    /// being singular when `λ_i(A) + λ + λ_j(B) = 0`.
    pub fn solve_shifted_complex(
        &self,
        shift: Complex,
        c_re: &Matrix,
        c_im: &Matrix,
    ) -> Result<(Matrix, Matrix)> {
        if c_re.rows() != self.na
            || c_re.cols() != self.nb
            || c_im.rows() != self.na
            || c_im.cols() != self.nb
        {
            return Err(LinalgError::DimensionMismatch(format!(
                "sylvester complex solve: rhs is {}x{} / {}x{}, expected {}x{}",
                c_re.rows(),
                c_re.cols(),
                c_im.rows(),
                c_im.cols(),
                self.na,
                self.nb
            )));
        }
        let ctil_re = self.qa.transpose().matmul(c_re).matmul(&self.qb);
        let ctil_im = self.qa.transpose().matmul(c_im).matmul(&self.qb);
        let mut y_re = Matrix::zeros(self.na, self.nb);
        let mut y_im = Matrix::zeros(self.na, self.nb);

        for jb in self.blocks_b.iter().rev() {
            let (j0, sj) = (jb.start, jb.size);
            let mut rhs_re = ctil_re.submatrix(0, self.na, j0, j0 + sj);
            let mut rhs_im = ctil_im.submatrix(0, self.na, j0, j0 + sj);
            for cl in 0..sj {
                let j = j0 + cl;
                for k in (j0 + sj)..self.nb {
                    let coef = self.tb[(j, k)];
                    if coef != 0.0 {
                        for r in 0..self.na {
                            rhs_re[(r, cl)] -= coef * y_re[(r, k)];
                            rhs_im[(r, cl)] -= coef * y_im[(r, k)];
                        }
                    }
                }
            }
            let s_block = Matrix::from_fn(sj, sj, |p, q| self.tb[(j0 + q, j0 + p)]);

            for ib in self.blocks_a.iter().rev() {
                let (i0, si) = (ib.start, ib.size);
                let dim = si * sj;
                if self.fast_blocks {
                    let mut w = [Complex::ZERO; 4];
                    for cl in 0..sj {
                        for rl in 0..si {
                            let i = i0 + rl;
                            let mut acc = Complex::new(rhs_re[(i, cl)], rhs_im[(i, cl)]);
                            for k in (i0 + si)..self.na {
                                let coef = self.ta[(i, k)];
                                if coef != 0.0 {
                                    acc -= Complex::new(y_re[(k, j0 + cl)], y_im[(k, j0 + cl)])
                                        * Complex::from_real(coef);
                                }
                            }
                            w[cl * si + rl] = acc;
                        }
                    }
                    let mut m = [[Complex::ZERO; 4]; 4];
                    for p in 0..si {
                        for q in 0..si {
                            let mut v = Complex::from_real(self.ta[(i0 + p, i0 + q)]);
                            if p == q {
                                v += shift;
                            }
                            if v.abs() != 0.0 {
                                for cc in 0..sj {
                                    m[cc * si + p][cc * si + q] += v;
                                }
                            }
                        }
                    }
                    for p in 0..sj {
                        for q in 0..sj {
                            let v = s_block[(q, p)];
                            if v != 0.0 {
                                for rr in 0..si {
                                    m[p * si + rr][q * si + rr] += Complex::from_real(v);
                                }
                            }
                        }
                    }
                    solve_small_complex(dim, &mut m, &mut w)
                        .ok_or_else(|| sylvester_singular(shift.re))?;
                    for cl in 0..sj {
                        for rl in 0..si {
                            y_re[(i0 + rl, j0 + cl)] = w[cl * si + rl].re;
                            y_im[(i0 + rl, j0 + cl)] = w[cl * si + rl].im;
                        }
                    }
                } else {
                    let mut local_re = rhs_re.submatrix(i0, i0 + si, 0, sj);
                    let mut local_im = rhs_im.submatrix(i0, i0 + si, 0, sj);
                    for rl in 0..si {
                        let i = i0 + rl;
                        for k in (i0 + si)..self.na {
                            let coef = self.ta[(i, k)];
                            if coef != 0.0 {
                                for cl in 0..sj {
                                    local_re[(rl, cl)] -= coef * y_re[(k, j0 + cl)];
                                    local_im[(rl, cl)] -= coef * y_im[(k, j0 + cl)];
                                }
                            }
                        }
                    }
                    let mut m = ZMatrix::zeros(dim, dim);
                    for p in 0..si {
                        for q in 0..si {
                            let mut v = Complex::from_real(self.ta[(i0 + p, i0 + q)]);
                            if p == q {
                                v += shift;
                            }
                            if v.abs() != 0.0 {
                                for cc in 0..sj {
                                    m[(cc * si + p, cc * si + q)] += v;
                                }
                            }
                        }
                    }
                    for p in 0..sj {
                        for q in 0..sj {
                            let v = s_block[(q, p)];
                            if v != 0.0 {
                                for rr in 0..si {
                                    m[(p * si + rr, q * si + rr)] += Complex::from_real(v);
                                }
                            }
                        }
                    }
                    let rhs_vec = ZVector::from(
                        (0..dim)
                            .map(|k| {
                                Complex::new(local_re[(k % si, k / si)], local_im[(k % si, k / si)])
                            })
                            .collect::<Vec<_>>(),
                    );
                    let w = m
                        .solve(&rhs_vec)
                        .map_err(|_| sylvester_singular(shift.re))?;
                    for cl in 0..sj {
                        for rl in 0..si {
                            y_re[(i0 + rl, j0 + cl)] = w[cl * si + rl].re;
                            y_im[(i0 + rl, j0 + cl)] = w[cl * si + rl].im;
                        }
                    }
                }
            }
        }
        let x_re = self.qa.matmul(&y_re).matmul(&self.qb.transpose());
        let x_im = self.qa.matmul(&y_im).matmul(&self.qb.transpose());
        Ok((x_re, x_im))
    }
}

/// Solves the leading `dim × dim` real system of an at-most-`N×N` array in
/// place by Gaussian elimination with partial pivoting, entirely on the
/// stack. Returns `None` when a pivot's magnitude is at most `tol` (a zero
/// pivot for `tol = 0`).
#[allow(clippy::needless_range_loop)] // rows i and k of `a` are borrowed simultaneously
pub(crate) fn solve_small_real<const N: usize>(
    dim: usize,
    a: &mut [[f64; N]; N],
    b: &mut [f64; N],
    tol: f64,
) -> Option<()> {
    for k in 0..dim {
        let mut piv = k;
        for i in (k + 1)..dim {
            if a[i][k].abs() > a[piv][k].abs() {
                piv = i;
            }
        }
        if a[piv][k].abs() <= tol {
            return None;
        }
        if piv != k {
            a.swap(piv, k);
            b.swap(piv, k);
        }
        for i in (k + 1)..dim {
            let f = a[i][k] / a[k][k];
            if f != 0.0 {
                for j in (k + 1)..dim {
                    a[i][j] -= f * a[k][j];
                }
                b[i] -= f * b[k];
            }
        }
    }
    for i in (0..dim).rev() {
        let mut acc = b[i];
        for j in (i + 1)..dim {
            acc -= a[i][j] * b[j];
        }
        b[i] = acc / a[i][i];
    }
    Some(())
}

/// Complex analogue of [`solve_small_real`].
#[allow(clippy::needless_range_loop)] // rows i and k of `a` are borrowed simultaneously
fn solve_small_complex(dim: usize, a: &mut [[Complex; 4]; 4], b: &mut [Complex; 4]) -> Option<()> {
    for k in 0..dim {
        let mut piv = k;
        for i in (k + 1)..dim {
            if a[i][k].abs() > a[piv][k].abs() {
                piv = i;
            }
        }
        if a[piv][k].abs() == 0.0 {
            return None;
        }
        if piv != k {
            a.swap(piv, k);
            b.swap(piv, k);
        }
        for i in (k + 1)..dim {
            let f = a[i][k] / a[k][k];
            if f.abs() != 0.0 {
                for j in (k + 1)..dim {
                    let akj = a[k][j];
                    a[i][j] -= f * akj;
                }
                let bk = b[k];
                b[i] -= f * bk;
            }
        }
    }
    for i in (0..dim).rev() {
        let mut acc = b[i];
        for j in (i + 1)..dim {
            acc -= a[i][j] * b[j];
        }
        b[i] = acc / a[i][i];
    }
    Some(())
}

fn sylvester_singular(shift: f64) -> LinalgError {
    LinalgError::Singular(format!(
        "sylvester equation is singular (eigenvalue sum hits zero, shift {shift})"
    ))
}

/// One-shot solve of `A X + X B = C`.
///
/// # Errors
///
/// See [`SylvesterSolver::solve`].
pub fn solve_sylvester(a: &Matrix, b: &Matrix, c: &Matrix) -> Result<Matrix> {
    SylvesterSolver::new(a, b)?.solve(c)
}

/// One-shot solve of the Lyapunov-type equation `A X + X Aᵀ = C`.
///
/// # Errors
///
/// See [`SylvesterSolver::solve`].
pub fn solve_lyapunov(a: &Matrix, c: &Matrix) -> Result<Matrix> {
    SylvesterSolver::new(a, &a.transpose())?.solve(c)
}

/// Gram matrix `M` of the energy inner product of a Hurwitz matrix `A`:
/// the unique symmetric positive definite solution of
///
/// ```text
/// Aᵀ M + M A = −I.
/// ```
///
/// In the inner product `⟨u, v⟩_M = uᵀ M v`, `A` is *dissipative*: for any
/// basis `V` with `Vᵀ M V = I`, the Galerkin-reduced matrix
/// `A_r = Vᵀ M A V` satisfies `A_r + A_rᵀ = Vᵀ (M A + Aᵀ M) V = −VᵀV ≺ 0`
/// and is therefore Hurwitz — the stability guarantee behind the stabilized
/// projection of the MOR flow.
///
/// # Errors
///
/// Propagates Schur/Sylvester failures; returns
/// [`LinalgError::Singular`] (from the downstream Cholesky) only indirectly —
/// for a non-Hurwitz `A` the solution exists but is not positive definite.
pub fn lyapunov_weight(a: &Matrix) -> Result<Matrix> {
    let schur = SchurDecomposition::new(a)?;
    lyapunov_weight_with_schur(&schur)
}

/// [`lyapunov_weight`] reusing an existing Schur form of `A` (the adjoint
/// form needed for the transposed equation is derived in `O(n²)`).
///
/// # Errors
///
/// Same contract as [`lyapunov_weight`].
pub fn lyapunov_weight_with_schur(schur_of_a: &SchurDecomposition) -> Result<Matrix> {
    let n = schur_of_a.dim();
    // Aᵀ M + M A = −I  is Lyapunov-structured in Aᵀ.
    let solver = SylvesterSolver::new_lyapunov_from_schur(&schur_of_a.adjoint());
    let mut neg_i = Matrix::zeros(n, n);
    for i in 0..n {
        neg_i[(i, i)] = -1.0;
    }
    let m = solver.solve(&neg_i)?;
    // The analytic solution is symmetric; symmetrize away solver roundoff so
    // downstream Cholesky sees an exactly symmetric matrix.
    Ok(m.symmetric_part())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stable_matrix(n: usize, seed: u64) -> Matrix {
        let mut state = seed.max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let mut m = Matrix::from_fn(n, n, |_, _| next() * 0.5);
        for i in 0..n {
            m[(i, i)] -= 2.0 + i as f64 * 0.1;
        }
        m
    }

    fn residual(a: &Matrix, b: &Matrix, c: &Matrix, x: &Matrix) -> f64 {
        (&(&a.matmul(x) + &x.matmul(b)) - c).max_abs()
    }

    #[test]
    fn solves_random_stable_equations() {
        for (na, nb, seed) in [(3, 3, 1), (5, 4, 2), (8, 6, 3), (12, 12, 4), (1, 5, 5)] {
            let a = stable_matrix(na, seed);
            let b = stable_matrix(nb, seed + 100);
            let c = Matrix::from_fn(na, nb, |i, j| ((i + 1) * (j + 2)) as f64 / 7.0);
            let x = solve_sylvester(&a, &b, &c).unwrap();
            assert!(residual(&a, &b, &c, &x) < 1e-9, "na={na}, nb={nb}");
        }
    }

    #[test]
    fn lyapunov_solution_of_stable_system_is_found() {
        let a = stable_matrix(7, 42);
        let c = Matrix::identity(7).scaled(-1.0);
        let x = solve_lyapunov(&a, &c).unwrap();
        let res = (&(&a.matmul(&x) + &x.matmul(&a.transpose())) - &c).max_abs();
        assert!(res < 1e-9);
        // For a Hurwitz A and C = -I the solution is symmetric positive definite.
        assert!((&x - &x.transpose()).max_abs() < 1e-8);
        for i in 0..7 {
            assert!(x[(i, i)] > 0.0);
        }
    }

    #[test]
    fn lyapunov_weight_is_spd_and_satisfies_the_equation() {
        for (n, seed) in [(5usize, 11u64), (9, 12)] {
            let a = stable_matrix(n, seed);
            let m = lyapunov_weight(&a).unwrap();
            // Aᵀ M + M A = -I.
            let res = &(&a.transpose().matmul(&m) + &m.matmul(&a)) + &Matrix::identity(n);
            assert!(res.max_abs() < 1e-9, "residual {}", res.max_abs());
            // Exactly symmetric (post-symmetrization) and positive definite.
            assert!((&m - &m.transpose()).max_abs() == 0.0);
            assert!(crate::cholesky::CholeskyDecomposition::new(&m).is_ok());
            // The cached-Schur variant agrees.
            let schur = SchurDecomposition::new(&a).unwrap();
            let m2 = lyapunov_weight_with_schur(&schur).unwrap();
            assert!((&m - &m2).max_abs() < 1e-10);
        }
    }

    #[test]
    fn lyapunov_from_schur_matches_fresh_factorization() {
        let a = stable_matrix(6, 31);
        let c = Matrix::from_fn(6, 6, |i, j| ((i * 3 + j) % 7) as f64 - 3.0);
        let fresh = SylvesterSolver::new_lyapunov(&a)
            .unwrap()
            .solve(&c)
            .unwrap();
        let schur = SchurDecomposition::new(&a).unwrap();
        let reused = SylvesterSolver::new_lyapunov_from_schur(&schur)
            .solve(&c)
            .unwrap();
        assert!((&fresh - &reused).max_abs() < 1e-10);
    }

    #[test]
    fn complex_pair_blocks_are_handled() {
        // A with complex eigenvalues (-1 ± 2i) and (-3 ± 1i).
        let a = Matrix::from_rows(&[
            &[-1.0, 2.0, 0.3, 0.0],
            &[-2.0, -1.0, 0.0, 0.1],
            &[0.0, 0.0, -3.0, 1.0],
            &[0.0, 0.0, -1.0, -3.0],
        ])
        .unwrap();
        let b = stable_matrix(5, 9);
        let c = Matrix::from_fn(4, 5, |i, j| (i as f64 - j as f64) / 3.0 + 1.0);
        let x = solve_sylvester(&a, &b, &c).unwrap();
        assert!(residual(&a, &b, &c, &x) < 1e-9);
    }

    #[test]
    fn shifted_solve_matches_explicitly_shifted_matrix() {
        let a = stable_matrix(6, 11);
        let b = stable_matrix(4, 12);
        let c = Matrix::from_fn(6, 4, |i, j| (i * j) as f64 + 1.0);
        let sigma = 0.75;
        let solver = SylvesterSolver::new(&a, &b).unwrap();
        let x1 = solver.solve_shifted(sigma, &c).unwrap();
        let mut a_shift = a.clone();
        for i in 0..6 {
            a_shift[(i, i)] += sigma;
        }
        let x2 = solve_sylvester(&a_shift, &b, &c).unwrap();
        assert!((&x1 - &x2).max_abs() < 1e-9);
    }

    #[test]
    fn complex_shifted_solve_has_small_residual() {
        let a = stable_matrix(5, 21);
        let b = stable_matrix(3, 22);
        let c_re = Matrix::from_fn(5, 3, |i, j| (i + j) as f64);
        let c_im = Matrix::from_fn(5, 3, |i, j| (i as f64 - j as f64) * 0.5);
        let shift = Complex::new(0.3, 1.7);
        let solver = SylvesterSolver::new(&a, &b).unwrap();
        let (x_re, x_im) = solver.solve_shifted_complex(shift, &c_re, &c_im).unwrap();
        // Residual of (A + λI) X + X B - C in real/imag parts.
        let res_re = &(&(&a.matmul(&x_re) + &x_re.matmul(&b))
            + &(&x_re.scaled(shift.re) - &x_im.scaled(shift.im)))
            - &c_re;
        let res_im = &(&(&a.matmul(&x_im) + &x_im.matmul(&b))
            + &(&x_im.scaled(shift.re) + &x_re.scaled(shift.im)))
            - &c_im;
        assert!(res_re.max_abs() < 1e-9, "re residual {}", res_re.max_abs());
        assert!(res_im.max_abs() < 1e-9, "im residual {}", res_im.max_abs());
    }

    #[test]
    fn singular_equation_is_reported() {
        // λ(A) = {1, -1}, λ(B) = {1, -1}: sums hit zero.
        let a = Matrix::from_diagonal(&[1.0, -1.0]);
        let b = Matrix::from_diagonal(&[1.0, -1.0]);
        let c = Matrix::identity(2);
        assert!(matches!(
            solve_sylvester(&a, &b, &c),
            Err(LinalgError::Singular(_))
        ));
    }

    #[test]
    fn shape_validation() {
        let a = stable_matrix(3, 1);
        let b = stable_matrix(2, 2);
        let solver = SylvesterSolver::new(&a, &b).unwrap();
        assert_eq!(solver.rows(), 3);
        assert_eq!(solver.cols(), 2);
        assert!(solver.solve(&Matrix::zeros(2, 3)).is_err());
        assert!(SylvesterSolver::new(&Matrix::zeros(2, 3), &b).is_err());
    }

    #[test]
    fn kron_sum_equivalence() {
        // Solving A X + X B = C is the same as (Bᵀ ⊕ A) vec(X) = vec(C).
        let a = stable_matrix(3, 31);
        let b = stable_matrix(3, 32);
        let c = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64 - 4.0);
        let x = solve_sylvester(&a, &b, &c).unwrap();
        let big = crate::kron::kron_sum(&b.transpose(), &a);
        let lhs = big.matvec(&crate::kron::vec_of(&x));
        let rhs = crate::kron::vec_of(&c);
        assert!((&lhs - &rhs).norm_inf() < 1e-9);
    }
}
