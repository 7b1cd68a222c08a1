//! The one evaluator of the polynomial terms `G (x ⊗ … ⊗ x)`.
//!
//! Every quadratic and cubic term — of a full circuit model or of a
//! projected reduced-order model — is evaluated as
//!
//! ```text
//! z = P x,     t = T (z ⊗ … ⊗ z),     out += Lᵀ t.
//! ```
//!
//! For a full model and for a dense ROM tensor, `P` and `L` are absent
//! (identities) and `T` is the stored `n × nᵈ` CSR tensor itself. A
//! [`FactoredTensor`] instead keeps the *full* model's tensor restricted to
//! its nonlinear support: with `S` the states `G` reads and `R` the rows it
//! writes, `T = G[R, S^{⊗d}]`, `P = V[S,:]` and `L = W[R,:]`. That is exact,
//! since `Gᵣ = Wᵀ G (V ⊗ … ⊗ V)` never touches a state outside `S` or a row
//! outside `R` — the interpolation-free analogue of DEIM for circuit
//! nonlinearities, which are device-local.

use vamor_linalg::{CooMatrix, CsrMatrix, Matrix, Vector};

use crate::error::SystemError;
use crate::Result;

/// The factored form `Gᵣ (x^{⊗d}) = Lᵀ T ((P x)^{⊗d})` of a projected
/// polynomial tensor `Gᵣ = Wᵀ G (V ⊗ … ⊗ V)` (see the module docs).
///
/// One evaluation costs [`FactoredTensor::flops`] `= q(|S| + |R|) +
/// (d + 1)·nnz(T)` multiply–adds, against `(d + 1)·nnz(Gᵣ)` for the dense
/// projected tensor (up to `(d + 1)·q^{d+1}`); [`FactoredTensor::is_cheaper_than`]
/// compares the two.
#[derive(Debug, Clone)]
pub struct FactoredTensor {
    degree: usize,
    /// `V[S,:]` (`|S| × q`).
    p: Matrix,
    /// `W[R,:]` (`|R| × q`).
    l: Matrix,
    /// `G[R, S^{⊗d}]` (`|R| × |S|ᵈ`), entries in the order of `G`.
    local: CsrMatrix,
}

impl FactoredTensor {
    /// Restricts the full model's degree-`d` tensor `g` (`n × nᵈ`, `d ∈ {2, 3}`)
    /// to its support and pairs it with the matching rows of the trial basis
    /// `V` and the test basis `W` (both `n × q`).
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::Invalid`] for a degree other than 2 or 3 and
    /// [`SystemError::Dimension`] when `g`, `V` and `W` disagree on `n`.
    pub fn restrict(g: &CsrMatrix, degree: usize, v: &Matrix, w: &Matrix) -> Result<Self> {
        if degree != 2 && degree != 3 {
            return Err(SystemError::Invalid(format!(
                "factored tensors have degree 2 or 3, got {degree}"
            )));
        }
        let n = v.rows();
        if w.shape() != v.shape() || g.rows() != n || g.cols() != n.pow(degree as u32) {
            return Err(SystemError::Dimension(format!(
                "cannot restrict a {}x{} degree-{degree} tensor with bases {}x{} and {}x{}",
                g.rows(),
                g.cols(),
                v.rows(),
                v.cols(),
                w.rows(),
                w.cols()
            )));
        }
        // Mark the support, then number it in increasing state order: the
        // renumbering is monotone, so every row of `local` keeps `G`'s
        // entry order.
        const NONE: usize = usize::MAX;
        let mut state_pos = vec![NONE; n];
        let mut row_pos = vec![NONE; n];
        for (i, col, _) in g.iter() {
            row_pos[i] = 0;
            for idx in digits(col, n, degree) {
                state_pos[idx] = 0;
            }
        }
        let support = number_marked(&mut state_pos);
        let rows = number_marked(&mut row_pos);
        let m = support.len();
        let mut local = CooMatrix::new(rows.len(), m.pow(degree as u32));
        for (i, col, value) in g.iter() {
            let local_col = digits(col, n, degree).fold(0, |acc, idx| acc * m + state_pos[idx]);
            local.push(row_pos[i], local_col, value);
        }
        let q = v.cols();
        let p = Matrix::from_fn(m, q, |s, j| v[(support[s], j)]);
        let l = Matrix::from_fn(rows.len(), q, |r, j| w[(rows[r], j)]);
        Ok(FactoredTensor {
            degree,
            p,
            l,
            local: local.into_csr(),
        })
    }

    /// Polynomial degree `d` of the term.
    pub(crate) fn degree(&self) -> usize {
        self.degree
    }

    /// Reduced order `q` the factored term acts on.
    pub(crate) fn order(&self) -> usize {
        self.p.cols()
    }

    /// `|S|`, the number of full-model states the term reads.
    pub fn support_len(&self) -> usize {
        self.p.rows()
    }

    /// `|R|`, the number of full-model rows the term writes.
    pub fn row_support_len(&self) -> usize {
        self.l.rows()
    }

    /// Multiply–adds per evaluation: `q(|S| + |R|)` for `P x` and `Lᵀ t`,
    /// plus `d + 1` per stored entry of the local tensor.
    pub fn flops(&self) -> usize {
        self.order() * (self.support_len() + self.row_support_len())
            + (self.degree + 1) * self.local.nnz()
    }

    /// True when evaluating through this factored form costs fewer flops
    /// than contracting the dense projected tensor `dense` (`(d + 1)` per
    /// stored entry).
    pub fn is_cheaper_than(&self, dense: &CsrMatrix) -> bool {
        self.flops() < (self.degree + 1) * dense.nnz()
    }
}

/// The `d` state indices `(p, q[, s])` encoded by column `col` of an
/// `n × nᵈ` tensor, most significant first.
fn digits(col: usize, n: usize, degree: usize) -> impl Iterator<Item = usize> {
    (0..degree).rev().map(move |k| (col / n.pow(k as u32)) % n)
}

/// Replaces every marked (non-`usize::MAX`) slot by its rank among the
/// marked slots and returns the marked indices in increasing order.
fn number_marked(pos: &mut [usize]) -> Vec<usize> {
    let mut marked = Vec::new();
    for (idx, slot) in pos.iter_mut().enumerate() {
        if *slot != usize::MAX {
            *slot = marked.len();
            marked.push(idx);
        }
    }
    marked
}

/// A degree-`d` term of a polynomial system: the analysis tensor the
/// Volterra and moment code reads, plus the factored evaluator when the
/// projection chose one.
#[derive(Debug, Clone)]
pub(crate) struct PolyTerm {
    degree: usize,
    tensor: CsrMatrix,
    factored: Option<FactoredTensor>,
}

impl PolyTerm {
    pub(crate) fn new(tensor: CsrMatrix, degree: usize) -> Self {
        PolyTerm {
            degree,
            tensor,
            factored: None,
        }
    }

    /// The `n × nᵈ` tensor (projected, for a ROM).
    pub(crate) fn tensor(&self) -> &CsrMatrix {
        &self.tensor
    }

    pub(crate) fn factored(&self) -> Option<&FactoredTensor> {
        self.factored.as_ref()
    }

    /// Makes `factored` the evaluator of this term.
    pub(crate) fn set_factored(&mut self, factored: FactoredTensor) -> Result<()> {
        if factored.degree != self.degree || factored.order() != self.tensor.rows() {
            return Err(SystemError::Dimension(format!(
                "factored degree-{} tensor of order {} cannot evaluate a degree-{} term of order {}",
                factored.degree,
                factored.order(),
                self.degree,
                self.tensor.rows()
            )));
        }
        self.factored = Some(factored);
        Ok(())
    }

    /// `out += G (x^{⊗d})`. `scratch` holds `z = P x` of a factored term; it
    /// grows until its capacity covers the largest support, then is reused.
    pub(crate) fn accumulate_into(&self, x: &Vector, out: &mut Vector, scratch: &mut Vec<f64>) {
        match &self.factored {
            None => {
                for r in 0..self.tensor.rows() {
                    out[r] += contract_row(&self.tensor, r, x.as_slice(), self.degree);
                }
            }
            Some(f) => {
                scratch.clear();
                scratch.extend((0..f.p.rows()).map(|s| dot(f.p.row(s), x.as_slice())));
                for r in 0..f.local.rows() {
                    let t = contract_row(&f.local, r, scratch, self.degree);
                    for (o, &l) in out.as_mut_slice().iter_mut().zip(f.l.row(r)) {
                        *o += t * l;
                    }
                }
            }
        }
    }

    /// Calls `sink(i, j, v)` with contributions `v` to `∂[G (x^{⊗d})]ᵢ/∂xⱼ`
    /// (repeated `(i, j)` pairs add up). Unfactored terms emit one
    /// contribution per factor of every stored monomial, in entry order; a
    /// factored term emits the dense `q × q` product `Lᵀ (∂t/∂z) P`.
    pub(crate) fn jacobian_entries(&self, x: &Vector, mut sink: impl FnMut(usize, usize, f64)) {
        match &self.factored {
            None => partials(&self.tensor, x.as_slice(), self.degree, sink),
            Some(f) => {
                let z = f.p.matvec(x);
                let mut local = Matrix::zeros(f.l.rows(), f.p.rows());
                partials(&f.local, z.as_slice(), self.degree, |r, s, v| {
                    local[(r, s)] += v;
                });
                let contribution = f.l.transpose().matmul(&local.matmul(&f.p));
                for i in 0..contribution.rows() {
                    for (j, &v) in contribution.row(i).iter().enumerate() {
                        sink(i, j, v);
                    }
                }
            }
        }
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).fold(0.0, |acc, (x, y)| acc + x * y)
}

/// `[T (z^{⊗d})]_r`, accumulated in entry order as `g·z_p·z_q(·z_s)`.
fn contract_row(t: &CsrMatrix, r: usize, z: &[f64], degree: usize) -> f64 {
    let (cols, vals) = t.row_entries(r);
    let m = z.len();
    let mut acc = 0.0;
    if degree == 2 {
        for (&c, &g) in cols.iter().zip(vals) {
            acc += g * z[c / m] * z[c % m];
        }
    } else {
        for (&c, &g) in cols.iter().zip(vals) {
            acc += g * z[c / (m * m)] * z[(c / m) % m] * z[c % m];
        }
    }
    acc
}

/// Calls `sink(r, s, v)` with `v = ∂(g·z_p·z_q(·z_s))/∂z_s` for every factor
/// of every stored monomial of `T`, in entry order.
fn partials(t: &CsrMatrix, z: &[f64], degree: usize, mut sink: impl FnMut(usize, usize, f64)) {
    let m = z.len();
    for (r, c, g) in t.iter() {
        if degree == 2 {
            let (p, q) = (c / m, c % m);
            sink(r, p, g * z[q]);
            sink(r, q, g * z[p]);
        } else {
            let (p, q, s) = (c / (m * m), (c / m) % m, c % m);
            sink(r, p, g * z[q] * z[s]);
            sink(r, q, g * z[p] * z[s]);
            sink(r, s, g * z[p] * z[q]);
        }
    }
}

/// `out += α · B[:, k]` without materializing the column.
pub(crate) fn add_scaled_column(out: &mut Vector, alpha: f64, b: &Matrix, k: usize) {
    for (i, o) in out.as_mut_slice().iter_mut().enumerate() {
        *o += alpha * b[(i, k)];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_g2() -> CsrMatrix {
        // n = 4: x1·x3 into row 0, x3² into row 2.
        let mut g = CooMatrix::new(4, 16);
        g.push(0, 4 + 3, 0.5);
        g.push(2, 3 * 4 + 3, -1.5);
        g.into_csr()
    }

    #[test]
    fn restriction_keeps_only_the_support() {
        let v = Matrix::from_fn(4, 2, |i, j| 0.1 * (i + 1) as f64 + j as f64);
        let w = Matrix::from_fn(4, 2, |i, j| 0.3 * i as f64 - 0.2 * j as f64);
        let f = FactoredTensor::restrict(&toy_g2(), 2, &v, &w).unwrap();
        assert_eq!((f.support_len(), f.row_support_len()), (2, 2));
        assert_eq!(f.flops(), 2 * (2 + 2) + 3 * 2);
        assert!(FactoredTensor::restrict(&toy_g2(), 4, &v, &w).is_err());
        assert!(FactoredTensor::restrict(&toy_g2(), 3, &v, &w).is_err());
    }

    #[test]
    fn factored_term_matches_the_projected_tensor() {
        let v = Matrix::from_fn(4, 2, |i, j| 0.1 * (i + 1) as f64 + j as f64);
        let w = Matrix::from_fn(4, 2, |i, j| 0.3 * i as f64 - 0.2 * j as f64);
        let g = toy_g2();
        let x = Vector::from_slice(&[0.7, -0.4]);
        let xf = v.matvec(&x);
        let expected = w.matvec_transpose(&g.matvec_kron(&xf, &xf));
        let mut term = PolyTerm::new(CooMatrix::new(2, 4).into_csr(), 2);
        term.set_factored(FactoredTensor::restrict(&g, 2, &v, &w).unwrap())
            .unwrap();
        let mut out = Vector::zeros(2);
        term.accumulate_into(&x, &mut out, &mut Vec::new());
        assert!((&out - &expected).norm_inf() < 1e-15);
    }
}
