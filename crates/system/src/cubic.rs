//! Cubic polynomial ODE systems (`G₃ x ⊗ x ⊗ x` nonlinearity).

use std::sync::OnceLock;

use vamor_linalg::{CooMatrix, CsrMatrix, Matrix, Vector};

use crate::error::SystemError;
use crate::lti::LtiSystem;
use crate::poly::{add_scaled_column, FactoredTensor, PolyTerm};
use crate::traits::PolynomialStateSpace;
use crate::Result;

/// A cubic polynomial ODE as used in the paper's §3.4 (ZnO varistor surge
/// protector):
///
/// ```text
/// ẋ = G₁ x + G₂ (x ⊗ x) + G₃ (x ⊗ x ⊗ x) + B u,     y = C x,
/// ```
///
/// where the quadratic part `G₂` is optional (the varistor model only has the
/// cubic term). `G₃` has shape `n × n³` and is stored sparsely. `G₁` is also
/// stored sparsely with a lazily materialized dense view, mirroring
/// [`crate::Qldae`]. A projected ROM may evaluate `G₂`/`G₃` through a
/// [`FactoredTensor`] (see [`CubicOde::with_factored`]).
#[derive(Debug, Clone)]
pub struct CubicOde {
    g1: CsrMatrix,
    g1_dense: OnceLock<Matrix>,
    g2: Option<PolyTerm>,
    g3: PolyTerm,
    b: Matrix,
    c: Matrix,
}

impl CubicOde {
    /// Creates a cubic system from a dense `G₁`, validating all shapes.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::Dimension`] on shape mismatches and
    /// [`SystemError::Invalid`] for an empty state space.
    pub fn new(
        g1: Matrix,
        g2: Option<CsrMatrix>,
        g3: CsrMatrix,
        b: Matrix,
        c: Matrix,
    ) -> Result<Self> {
        if !g1.is_square() {
            return Err(SystemError::Dimension(format!(
                "G1 must be square, got {}x{}",
                g1.rows(),
                g1.cols()
            )));
        }
        let g1_csr = CsrMatrix::from_dense(&g1, 0.0);
        let dense = OnceLock::new();
        let _ = dense.set(g1);
        Self::from_parts(g1_csr, dense, g2, g3, b, c)
    }

    /// Creates a cubic system from a sparse `G₁` stamp; the dense view is
    /// materialized only when [`CubicOde::g1`] is first called.
    ///
    /// # Errors
    ///
    /// Same contract as [`CubicOde::new`].
    pub fn new_sparse(
        g1: CsrMatrix,
        g2: Option<CsrMatrix>,
        g3: CsrMatrix,
        b: Matrix,
        c: Matrix,
    ) -> Result<Self> {
        Self::from_parts(g1, OnceLock::new(), g2, g3, b, c)
    }

    fn from_parts(
        g1: CsrMatrix,
        g1_dense: OnceLock<Matrix>,
        g2: Option<CsrMatrix>,
        g3: CsrMatrix,
        b: Matrix,
        c: Matrix,
    ) -> Result<Self> {
        if g1.rows() != g1.cols() {
            return Err(SystemError::Dimension(format!(
                "G1 must be square, got {}x{}",
                g1.rows(),
                g1.cols()
            )));
        }
        let n = g1.rows();
        if n == 0 {
            return Err(SystemError::Invalid(
                "cubic ODE must have at least one state".into(),
            ));
        }
        if let Some(ref g2m) = g2 {
            if g2m.rows() != n || g2m.cols() != n * n {
                return Err(SystemError::Dimension(format!(
                    "G2 must be {n}x{}, got {}x{}",
                    n * n,
                    g2m.rows(),
                    g2m.cols()
                )));
            }
        }
        if g3.rows() != n || g3.cols() != n * n * n {
            return Err(SystemError::Dimension(format!(
                "G3 must be {n}x{}, got {}x{}",
                n * n * n,
                g3.rows(),
                g3.cols()
            )));
        }
        if b.rows() != n {
            return Err(SystemError::Dimension(format!(
                "B has {} rows, expected {n}",
                b.rows()
            )));
        }
        if c.cols() != n {
            return Err(SystemError::Dimension(format!(
                "C has {} columns, expected {n}",
                c.cols()
            )));
        }
        Ok(CubicOde {
            g1,
            g1_dense,
            g2: g2.map(|g2| PolyTerm::new(g2, 2)),
            g3: PolyTerm::new(g3, 3),
            b,
            c,
        })
    }

    /// The linear state matrix `G₁` as a dense matrix (lazily materialized
    /// and cached; see [`CubicOde::g1_csr`] for the sparse stamp).
    pub fn g1(&self) -> &Matrix {
        self.g1_dense.get_or_init(|| self.g1.to_dense())
    }

    /// The linear state matrix `G₁` as the sparse stamp it was built from.
    pub fn g1_csr(&self) -> &CsrMatrix {
        &self.g1
    }

    /// The optional quadratic coupling matrix `G₂`.
    pub fn g2(&self) -> Option<&CsrMatrix> {
        self.g2.as_ref().map(PolyTerm::tensor)
    }

    /// The cubic coupling matrix `G₃` (`n × n³`, sparse).
    pub fn g3(&self) -> &CsrMatrix {
        self.g3.tensor()
    }

    /// The factored evaluator of `G₂`, if the projection chose one.
    pub fn g2_factored(&self) -> Option<&FactoredTensor> {
        self.g2.as_ref().and_then(PolyTerm::factored)
    }

    /// The factored evaluator of `G₃`, if the projection chose one.
    pub fn g3_factored(&self) -> Option<&FactoredTensor> {
        self.g3.factored()
    }

    /// Evaluates the term of `factored`'s degree (`G₂` or `G₃`) through it
    /// from now on. [`CubicOde::g2`]/[`CubicOde::g3`] keep returning the
    /// stored tensors, so `factored` must represent the one it replaces (as
    /// [`FactoredTensor::restrict`] of the full model's tensor with the
    /// bases that projected it does).
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::Dimension`] when the order differs from this
    /// system's and [`SystemError::Invalid`] for a quadratic factor on a
    /// system without `G₂`.
    pub fn with_factored(mut self, factored: FactoredTensor) -> Result<Self> {
        match (factored.degree(), self.g2.as_mut()) {
            (3, _) => self.g3.set_factored(factored)?,
            (_, Some(g2)) => g2.set_factored(factored)?,
            (_, None) => {
                return Err(SystemError::Invalid(
                    "a factored quadratic term needs a system with G2".into(),
                ))
            }
        }
        Ok(self)
    }

    /// The input matrix `B`.
    pub fn b(&self) -> &Matrix {
        &self.b
    }

    /// The output matrix `C`.
    pub fn c(&self) -> &Matrix {
        &self.c
    }

    /// Column `k` of the input matrix.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.num_inputs()`.
    pub fn input_column(&self, k: usize) -> Vector {
        self.b.col(k)
    }

    /// Evaluates `G₃ (x ⊗ x ⊗ x)` without forming the Kronecker cube.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.order()`.
    pub fn cubic_term(&self, x: &Vector) -> Vector {
        let n = self.order();
        assert_eq!(x.len(), n, "cubic_term: dimension mismatch");
        let mut out = Vector::zeros(n);
        self.g3.accumulate_into(x, &mut out, &mut Vec::new());
        out
    }

    /// Evaluates `G₂ (x ⊗ x)` (zero when the quadratic part is absent).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.order()`.
    pub fn quadratic_term(&self, x: &Vector) -> Vector {
        let n = self.order();
        assert_eq!(x.len(), n, "quadratic_term: dimension mismatch");
        let mut out = Vector::zeros(n);
        if let Some(g2) = &self.g2 {
            g2.accumulate_into(x, &mut out, &mut Vec::new());
        }
        out
    }

    /// The linearization around the origin.
    ///
    /// # Errors
    ///
    /// Propagates construction errors (cannot occur for a valid system).
    pub fn linearized(&self) -> Result<LtiSystem> {
        LtiSystem::new(self.g1().clone(), self.b.clone(), self.c.clone())
    }
}

impl PolynomialStateSpace for CubicOde {
    fn order(&self) -> usize {
        self.g1.rows()
    }

    fn num_inputs(&self) -> usize {
        self.b.cols()
    }

    fn num_outputs(&self) -> usize {
        self.c.rows()
    }

    fn rhs_into(&self, x: &Vector, u: &[f64], out: &mut Vector, scratch: &mut Vec<f64>) {
        assert_eq!(x.len(), self.order(), "cubic rhs: state dimension mismatch");
        assert_eq!(
            u.len(),
            self.num_inputs(),
            "cubic rhs: input dimension mismatch"
        );
        self.g1.matvec_into(x, out);
        if let Some(g2) = &self.g2 {
            g2.accumulate_into(x, out, scratch);
        }
        self.g3.accumulate_into(x, out, scratch);
        for (k, &uk) in u.iter().enumerate() {
            if uk != 0.0 {
                add_scaled_column(out, uk, &self.b, k);
            }
        }
    }

    fn jacobian_x(&self, x: &Vector, u: &[f64]) -> Matrix {
        assert_eq!(
            x.len(),
            self.order(),
            "cubic jacobian: state dimension mismatch"
        );
        assert_eq!(
            u.len(),
            self.num_inputs(),
            "cubic jacobian: input dimension mismatch"
        );
        let n = self.order();
        let mut jac = Matrix::zeros(n, n);
        for (i, j, v) in self.g1.iter() {
            jac[(i, j)] += v;
        }
        for term in self.g2.iter().chain([&self.g3]) {
            term.jacobian_entries(x, |i, j, v| jac[(i, j)] += v);
        }
        jac
    }

    fn jacobian_csr(&self, x: &Vector, u: &[f64]) -> Option<CsrMatrix> {
        assert_eq!(
            x.len(),
            self.order(),
            "cubic jacobian: state dimension mismatch"
        );
        assert_eq!(
            u.len(),
            self.num_inputs(),
            "cubic jacobian: input dimension mismatch"
        );
        let n = self.order();
        let mut coo = CooMatrix::new(n, n);
        for (i, j, v) in self.g1.iter() {
            coo.push(i, j, v);
        }
        for term in self.g2.iter().chain([&self.g3]) {
            term.jacobian_entries(x, |i, j, v| coo.push(i, j, v));
        }
        Some(coo.into_csr())
    }

    fn output(&self, x: &Vector) -> Vector {
        self.c.matvec(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vamor_linalg::CooMatrix;

    fn toy() -> CubicOde {
        // x1' = -x1 - 0.2 x1^3 + u
        // x2' = -3 x2 + 0.1 x1 x2^2
        // y = x1
        let n = 2;
        let g1 = Matrix::from_rows(&[&[-1.0, 0.0], &[0.0, -3.0]]).unwrap();
        let mut g3 = CooMatrix::new(n, n * n * n);
        g3.push(0, 0, -0.2); // x1*x1*x1 -> index (0,0,0)
        g3.push(1, n + 1, 0.1); // x1*x2*x2 -> index (0,1,1)
        let b = Matrix::from_rows(&[&[1.0], &[0.0]]).unwrap();
        let c = Matrix::from_rows(&[&[1.0, 0.0]]).unwrap();
        CubicOde::new(g1, None, g3.to_csr(), b, c).unwrap()
    }

    #[test]
    fn rhs_matches_hand_computation() {
        let sys = toy();
        let x = Vector::from_slice(&[2.0, -1.0]);
        let dx = sys.rhs(&x, &[3.0]);
        assert!((dx[0] - (-2.0 - 0.2 * 8.0 + 3.0)).abs() < 1e-14);
        assert!((dx[1] - (3.0 + 0.1 * 2.0 * 1.0)).abs() < 1e-14);
        assert_eq!(sys.output(&x).as_slice(), &[2.0]);
        assert_eq!(sys.quadratic_term(&x), Vector::zeros(2));
    }

    #[test]
    fn jacobian_matches_finite_differences() {
        let sys = toy();
        let x = Vector::from_slice(&[0.9, -0.4]);
        let u = [0.2];
        let jac = sys.jacobian_x(&x, &u);
        let h = 1e-6;
        for j in 0..2 {
            let mut xp = x.clone();
            xp[j] += h;
            let mut xm = x.clone();
            xm[j] -= h;
            let df = &sys.rhs(&xp, &u) - &sys.rhs(&xm, &u);
            for i in 0..2 {
                let fd = df[i] / (2.0 * h);
                assert!((jac[(i, j)] - fd).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn sparse_jacobian_matches_dense_jacobian() {
        let sys = toy();
        let x = Vector::from_slice(&[0.9, -0.4]);
        let u = [0.2];
        let sparse = sys.jacobian_csr(&x, &u).expect("cubic provides CSR stamps");
        assert!((&sparse.to_dense() - &sys.jacobian_x(&x, &u)).max_abs() < 1e-14);
    }

    #[test]
    fn shape_validation() {
        let g1 = Matrix::identity(2);
        let g3_bad = CooMatrix::new(2, 4).to_csr();
        assert!(CubicOde::new(
            g1.clone(),
            None,
            g3_bad,
            Matrix::zeros(2, 1),
            Matrix::zeros(1, 2)
        )
        .is_err());
        let g3 = CooMatrix::new(2, 8).to_csr();
        let g2_bad = Some(CooMatrix::new(2, 3).to_csr());
        assert!(CubicOde::new(
            g1.clone(),
            g2_bad,
            g3.clone(),
            Matrix::zeros(2, 1),
            Matrix::zeros(1, 2)
        )
        .is_err());
        assert!(CubicOde::new(g1, None, g3, Matrix::zeros(1, 1), Matrix::zeros(1, 2)).is_err());
    }

    #[test]
    fn optional_quadratic_part_contributes() {
        let n = 1;
        let g1 = Matrix::from_rows(&[&[-1.0]]).unwrap();
        let mut g2 = CooMatrix::new(n, n * n);
        g2.push(0, 0, 2.0);
        let mut g3 = CooMatrix::new(n, n * n * n);
        g3.push(0, 0, -1.0);
        let sys = CubicOde::new(
            g1,
            Some(g2.to_csr()),
            g3.to_csr(),
            Matrix::from_rows(&[&[1.0]]).unwrap(),
            Matrix::from_rows(&[&[1.0]]).unwrap(),
        )
        .unwrap();
        let dx = sys.rhs(&Vector::from_slice(&[2.0]), &[0.0]);
        // -2 + 2*4 - 8 = -2
        assert!((dx[0] + 2.0).abs() < 1e-14);
        assert!(sys.g2().is_some());
        assert!(sys.linearized().unwrap().is_stable().unwrap());
    }
}
