//! Galerkin / Petrov–Galerkin projection of polynomial systems onto a
//! reduced basis.
//!
//! The classic one-sided flow uses `W = V` with Euclidean-orthonormal `V`.
//! The *stabilized* flow of [`crate::AssocReducer`] instead orthonormalizes
//! `V` in an energy inner product `⟨u, v⟩_M` and projects with `W = M V`
//! (so `Wᵀ V = I`); [`project_qldae_petrov`] / [`project_cubic_petrov`]
//! implement that oblique projection. Moment matching only depends on the
//! *column span* of `V`, so the associated-transform matching properties are
//! unaffected by the choice of `W`.
//!
//! The projected nonlinear tensors are what the Volterra and moment code
//! reads, but a dense `q × q^d` tensor is a poor evaluator when the full
//! model's nonlinearity is device-local: each projection also restricts the
//! full tensor to its nonlinear support ([`FactoredTensor`]) and keeps
//! whichever form costs fewer flops per evaluation.

use vamor_linalg::{CooMatrix, CsrMatrix, Matrix, Vector};
use vamor_system::{CubicOde, FactoredTensor, Qldae};

use crate::error::MorError;
use crate::Result;

/// Projects a QLDAE onto the column space of `V` (`n × q`, orthonormal
/// columns):
///
/// ```text
/// G₁ᵣ = Vᵀ G₁ V,   G₂ᵣ = Vᵀ G₂ (V ⊗ V),   D₁ᵣ = Vᵀ D₁ V,
/// Bᵣ = Vᵀ B,       Cᵣ = C V.
/// ```
///
/// # Errors
///
/// Returns [`MorError::Invalid`] if `V` has the wrong row count or more
/// columns than rows, and propagates construction errors of the reduced
/// system.
pub fn project_qldae(qldae: &Qldae, v: &Matrix) -> Result<Qldae> {
    project_qldae_petrov(qldae, v, v)
}

/// Oblique (Petrov–Galerkin) projection of a QLDAE with test basis `W`
/// (`Wᵀ V = I` is the caller's responsibility):
///
/// ```text
/// G₁ᵣ = Wᵀ G₁ V,   G₂ᵣ = Wᵀ G₂ (V ⊗ V),   D₁ᵣ = Wᵀ D₁ V,
/// Bᵣ = Wᵀ B,       Cᵣ = C V.
/// ```
///
/// The reduced quadratic coupling is assembled column-by-column through the
/// Kronecker-structured product `G₂ (v_p ⊗ v_q)` so the `n × n²` matrix is
/// never densified, and each reduced bilinear term `D₁ₖ` is likewise built
/// one sparse matvec per basis column — no `O(n²)` densification.
///
/// # Evaluator
///
/// [`Qldae::g2`] of the result is always `G₂ᵣ` above. The ROM *evaluates*
/// the quadratic term through whichever of two exact forms costs fewer
/// flops per call, decided from sizes alone:
///
/// * dense: contract `G₂ᵣ`, `3·nnz(G₂ᵣ)` (up to `3q³`);
/// * factored: with `S` the states `G₂` reads and `R` the rows it writes,
///   `Wᵀ G₂ ((Vx) ⊗ (Vx)) = W[R,:]ᵀ G₂[R, S⊗S] ((V[S,:] x) ⊗ (V[S,:] x))`,
///   `q(|S| + |R|) + 3·nnz(G₂)` (see [`FactoredTensor`]).
///
/// A device-local nonlinearity (the RF receiver's diodes) factors; one that
/// touches every node (the diode transmission line) keeps the dense tensor.
///
/// # Errors
///
/// Same contract as [`project_qldae`], plus a shape check on `W`.
pub fn project_qldae_petrov(qldae: &Qldae, v: &Matrix, w: &Matrix) -> Result<Qldae> {
    let n = qldae.g1_csr().rows();
    validate_basis_pair(v, w, n)?;
    let q = v.cols();

    // G₁V through the CSR stamp: sorted-row CSR adds the same nonzero terms
    // in the same order as the dense row sweep, so the result is bit-equal
    // to the dense product — and a 10⁴-state reduction never materializes
    // the 800 MB dense G₁ just to project it.
    let g1r = w
        .transpose()
        .matmul(&crate::lowrank::csr_matmul(qldae.g1_csr(), v));
    let br = w.transpose().matmul(qldae.b());
    let cr = qldae.c().matmul(v);

    // Reduced quadratic term.
    let mut g2r = CooMatrix::new(q, q * q);
    let columns: Vec<Vector> = (0..q).map(|j| v.col(j)).collect();
    for (p, vp) in columns.iter().enumerate() {
        for (r, vr) in columns.iter().enumerate() {
            let col = qldae.g2().matvec_kron(vp, vr);
            let reduced = w.matvec_transpose(&col);
            for i in 0..q {
                if reduced[i] != 0.0 {
                    g2r.push(i, p * q + r, reduced[i]);
                }
            }
        }
    }

    // Reduced bilinear terms, row-by-row via the allocation-free transposed
    // sparse matvec: (D₁ᵣ)ᵢⱼ = wᵢᵀ D₁ vⱼ = (D₁ᵀ wᵢ)·vⱼ, with one shared
    // buffer for every D₁ᵀ wᵢ product (the old implementation densified
    // every D₁ₖ into an n×n matrix, then allocated a fresh vector per
    // column).
    let mut d1r = Vec::with_capacity(qldae.d1().len());
    if !qldae.d1().is_empty() {
        let w_columns: Vec<Vector> = (0..q).map(|i| w.col(i)).collect();
        let mut buf = Vector::zeros(n);
        for dk in qldae.d1() {
            let mut reduced = Matrix::zeros(q, q);
            for (i, wi) in w_columns.iter().enumerate() {
                dk.matvec_transpose_into(wi, &mut buf);
                for (j, vj) in columns.iter().enumerate() {
                    reduced[(i, j)] = buf.dot(vj);
                }
            }
            d1r.push(CsrMatrix::from_dense(&reduced, 0.0));
        }
    }

    let g2r = g2r.into_csr();
    let factored = cheaper_factored(qldae.g2(), 2, &g2r, v, w)?;
    let rom = Qldae::new(g1r, g2r, d1r, br, cr).map_err(MorError::System)?;
    match factored {
        Some(f) => rom.with_factored(f).map_err(MorError::System),
        None => Ok(rom),
    }
}

/// The factored form of `Wᵀ G (V ⊗ … ⊗ V)` when it evaluates in fewer
/// flops than the dense projected tensor `gr`.
fn cheaper_factored(
    g: &CsrMatrix,
    degree: usize,
    gr: &CsrMatrix,
    v: &Matrix,
    w: &Matrix,
) -> Result<Option<FactoredTensor>> {
    let factored = FactoredTensor::restrict(g, degree, v, w).map_err(MorError::System)?;
    Ok(factored.is_cheaper_than(gr).then_some(factored))
}

/// Projects a cubic ODE onto the column space of `V`:
/// `G₃ᵣ = Vᵀ G₃ (V ⊗ V ⊗ V)` (and `G₂ᵣ` analogously when present).
///
/// # Errors
///
/// Same contract as [`project_qldae`].
pub fn project_cubic(ode: &CubicOde, v: &Matrix) -> Result<CubicOde> {
    project_cubic_petrov(ode, v, v)
}

/// Oblique (Petrov–Galerkin) projection of a cubic ODE (see
/// [`project_qldae_petrov`] for the conventions).
///
/// Each nonlinear term is evaluated through the cheaper of its dense
/// projected tensor and its factored form, as in [`project_qldae_petrov`]:
/// for `G₃`, `4·nnz(G₃ᵣ)` (up to `4q⁴`) against `q(|S| + |R|) + 4·nnz(G₃)`.
/// The ZnO varistor's `G₃` has two nonzeros on two states, so its ROM
/// evaluates the cubic term in `4q + 8` flops instead of `4q⁴`.
///
/// # Errors
///
/// Same contract as [`project_qldae_petrov`].
pub fn project_cubic_petrov(ode: &CubicOde, v: &Matrix, w: &Matrix) -> Result<CubicOde> {
    let n = ode.g1_csr().rows();
    validate_basis_pair(v, w, n)?;
    let q = v.cols();

    // CSR-based G₁V (see `project_qldae_petrov`).
    let g1r = w
        .transpose()
        .matmul(&crate::lowrank::csr_matmul(ode.g1_csr(), v));
    let br = w.transpose().matmul(ode.b());
    let cr = ode.c().matmul(v);
    let columns: Vec<Vector> = (0..q).map(|j| v.col(j)).collect();

    let g2r = match ode.g2() {
        Some(g2) => {
            let mut coo = CooMatrix::new(q, q * q);
            for (p, vp) in columns.iter().enumerate() {
                for (r, vr) in columns.iter().enumerate() {
                    let col = g2.matvec_kron(vp, vr);
                    let reduced = w.matvec_transpose(&col);
                    for i in 0..q {
                        if reduced[i] != 0.0 {
                            coo.push(i, p * q + r, reduced[i]);
                        }
                    }
                }
            }
            Some(coo.into_csr())
        }
        None => None,
    };

    let mut g3r = CooMatrix::new(q, q * q * q);
    for (p, vp) in columns.iter().enumerate() {
        for (r, vr) in columns.iter().enumerate() {
            for (s, vs) in columns.iter().enumerate() {
                let col = cubic_matvec_kron(ode.g3(), vp, vr, vs);
                let reduced = w.matvec_transpose(&col);
                for i in 0..q {
                    if reduced[i] != 0.0 {
                        g3r.push(i, p * q * q + r * q + s, reduced[i]);
                    }
                }
            }
        }
    }

    let g3r = g3r.into_csr();
    let mut factored = Vec::new();
    if let (Some(g2), Some(g2r)) = (ode.g2(), g2r.as_ref()) {
        factored.extend(cheaper_factored(g2, 2, g2r, v, w)?);
    }
    factored.extend(cheaper_factored(ode.g3(), 3, &g3r, v, w)?);
    let mut rom = CubicOde::new(g1r, g2r, g3r, br, cr).map_err(MorError::System)?;
    for f in factored {
        rom = rom.with_factored(f).map_err(MorError::System)?;
    }
    Ok(rom)
}

/// `G₃ (x ⊗ y ⊗ z)` without materializing the Kronecker product.
///
/// # Panics
///
/// Panics if `x`, `y`, `z` do not all have the same length `n` with
/// `g3.cols() == n³`. (This used to be a `debug_assert!`, which let release
/// builds index out of bounds or silently fold mismatched coordinates.)
pub fn cubic_matvec_kron(g3: &CsrMatrix, x: &Vector, y: &Vector, z: &Vector) -> Vector {
    let n = x.len();
    assert_eq!(
        y.len(),
        n,
        "cubic_matvec_kron: x has length {n} but y has length {}",
        y.len()
    );
    assert_eq!(
        z.len(),
        n,
        "cubic_matvec_kron: x has length {n} but z has length {}",
        z.len()
    );
    assert_eq!(
        g3.cols(),
        n * n * n,
        "cubic_matvec_kron: G3 has {} columns, expected {n}^3 = {}",
        g3.cols(),
        n * n * n
    );
    let mut out = Vector::zeros(g3.rows());
    for (i, col, g) in g3.iter() {
        let p = col / (n * n);
        let q = (col / n) % n;
        let r = col % n;
        out[i] += g * x[p] * y[q] * z[r];
    }
    out
}

fn validate_basis_pair(v: &Matrix, w: &Matrix, n: usize) -> Result<()> {
    if v.rows() != n {
        return Err(MorError::Invalid(format!(
            "projection basis has {} rows, expected {n}",
            v.rows()
        )));
    }
    if v.cols() == 0 || v.cols() > n {
        return Err(MorError::Invalid(format!(
            "projection basis has {} columns for an order-{n} system",
            v.cols()
        )));
    }
    if w.shape() != v.shape() {
        return Err(MorError::Invalid(format!(
            "left projection basis is {}x{}, expected {}x{}",
            w.rows(),
            w.cols(),
            v.rows(),
            v.cols()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vamor_linalg::{kron_vec, OrthoBasis};
    use vamor_system::{PolynomialStateSpace, QldaeBuilder};

    fn toy_qldae() -> Qldae {
        QldaeBuilder::new(3, 1)
            .g1_entry(0, 0, -1.0)
            .g1_entry(1, 1, -2.0)
            .g1_entry(2, 2, -3.0)
            .g1_entry(0, 1, 0.5)
            .g2_entry(0, 1, 2, 0.7)
            .g2_entry(2, 0, 0, -0.4)
            .d1_entry(0, 1, 0, 0.2)
            .b_entry(0, 0, 1.0)
            .b_entry(1, 0, 0.3)
            .output_state(2)
            .build()
            .unwrap()
    }

    fn identity_basis(n: usize) -> Matrix {
        Matrix::identity(n)
    }

    #[test]
    fn projection_with_identity_basis_is_lossless() {
        let q = toy_qldae();
        let reduced = project_qldae(&q, &identity_basis(3)).unwrap();
        let x = Vector::from_slice(&[0.3, -0.2, 0.5]);
        let u = [0.7];
        assert!((&q.rhs(&x, &u) - &reduced.rhs(&x, &u)).norm_inf() < 1e-12);
        assert!((&q.output(&x) - &reduced.output(&x)).norm_inf() < 1e-12);
    }

    #[test]
    fn projected_rhs_is_galerkin_consistent() {
        // For any x_r, the reduced RHS equals Vᵀ f(V x_r) restricted to
        // quadratic + linear terms (the Galerkin identity for polynomial
        // systems).
        let q = toy_qldae();
        let mut basis = OrthoBasis::new(3);
        basis.insert(Vector::from_slice(&[1.0, 1.0, 0.0])).unwrap();
        basis.insert(Vector::from_slice(&[0.0, 1.0, 1.0])).unwrap();
        let v = basis.to_matrix().unwrap();
        let reduced = project_qldae(&q, &v).unwrap();
        let xr = Vector::from_slice(&[0.4, -0.3]);
        let u = [0.25];
        let x_full = v.matvec(&xr);
        let expected = v.matvec_transpose(&q.rhs(&x_full, &u));
        let got = reduced.rhs(&xr, &u);
        assert!((&expected - &got).norm_inf() < 1e-12);
        // Output consistency.
        assert!((&q.output(&x_full) - &reduced.output(&xr)).norm_inf() < 1e-12);
    }

    #[test]
    fn petrov_projection_is_oblique_galerkin_consistent() {
        // Any W with the right shape: the reduced RHS must equal Wᵀ f(V x_r).
        let q = toy_qldae();
        let mut basis = OrthoBasis::new(3);
        basis.insert(Vector::from_slice(&[1.0, 0.5, 0.0])).unwrap();
        basis.insert(Vector::from_slice(&[0.0, 0.5, 1.0])).unwrap();
        let v = basis.to_matrix().unwrap();
        let w = Matrix::from_fn(3, 2, |i, j| 0.3 * (i as f64 + 1.0) - 0.7 * j as f64);
        let reduced = project_qldae_petrov(&q, &v, &w).unwrap();
        let xr = Vector::from_slice(&[0.2, -0.4]);
        let u = [0.3];
        let x_full = v.matvec(&xr);
        let expected = w.matvec_transpose(&q.rhs(&x_full, &u));
        let got = reduced.rhs(&xr, &u);
        assert!((&expected - &got).norm_inf() < 1e-12);
        // The output side only involves V.
        assert!((&q.output(&x_full) - &reduced.output(&xr)).norm_inf() < 1e-12);
        // Shape mismatch on W is rejected.
        assert!(project_qldae_petrov(&q, &v, &Matrix::zeros(3, 1)).is_err());
        assert!(project_qldae_petrov(&q, &v, &Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn cubic_projection_is_galerkin_consistent() {
        let n = 3;
        let g1 =
            Matrix::from_rows(&[&[-1.0, 0.0, 0.2], &[0.0, -2.0, 0.0], &[0.0, 0.3, -1.5]]).unwrap();
        let mut g3 = CooMatrix::new(n, n * n * n);
        g3.push(0, 0, 0.4);
        g3.push(1, 14, -0.2);
        g3.push(2, 5, 0.1);
        let ode = CubicOde::new(
            g1,
            None,
            g3.to_csr(),
            Matrix::from_rows(&[&[1.0], &[0.0], &[0.5]]).unwrap(),
            Matrix::from_rows(&[&[0.0, 0.0, 1.0]]).unwrap(),
        )
        .unwrap();
        let mut basis = OrthoBasis::new(3);
        basis.insert(Vector::from_slice(&[1.0, 0.5, 0.0])).unwrap();
        basis.insert(Vector::from_slice(&[0.0, 0.5, 1.0])).unwrap();
        let v = basis.to_matrix().unwrap();
        let reduced = project_cubic(&ode, &v).unwrap();
        let xr = Vector::from_slice(&[0.2, -0.6]);
        let x_full = v.matvec(&xr);
        let expected = v.matvec_transpose(&ode.rhs(&x_full, &[0.1]));
        let got = reduced.rhs(&xr, &[0.1]);
        assert!((&expected - &got).norm_inf() < 1e-12);
    }

    #[test]
    fn cubic_matvec_kron_matches_explicit_kron() {
        let n = 2;
        let mut g3 = CooMatrix::new(n, n * n * n);
        g3.push(0, 3, 2.0);
        g3.push(1, 6, -1.5);
        g3.push(1, 0, 0.5);
        let g3 = g3.to_csr();
        let x = Vector::from_slice(&[1.0, -2.0]);
        let y = Vector::from_slice(&[0.5, 3.0]);
        let z = Vector::from_slice(&[-1.0, 0.25]);
        let explicit = g3.matvec(&kron_vec(&x, &kron_vec(&y, &z)));
        let structured = cubic_matvec_kron(&g3, &x, &y, &z);
        assert!((&explicit - &structured).norm_inf() < 1e-14);
    }

    #[test]
    #[should_panic(expected = "cubic_matvec_kron: G3 has")]
    fn cubic_matvec_kron_rejects_dimension_mismatch_in_release_too() {
        // G3 sized for n = 2 but fed n = 3 vectors: before the fix this was a
        // debug_assert, so release builds read garbage indices.
        let mut g3 = CooMatrix::new(2, 8);
        g3.push(0, 3, 1.0);
        let g3 = g3.to_csr();
        let x = Vector::zeros(3);
        let _ = cubic_matvec_kron(&g3, &x, &x, &x);
    }

    #[test]
    #[should_panic(expected = "cubic_matvec_kron: x has length")]
    fn cubic_matvec_kron_rejects_mixed_operand_lengths() {
        let mut g3 = CooMatrix::new(2, 8);
        g3.push(0, 3, 1.0);
        let g3 = g3.to_csr();
        let _ = cubic_matvec_kron(
            &g3.clone(),
            &Vector::zeros(2),
            &Vector::zeros(3),
            &Vector::zeros(2),
        );
    }

    #[test]
    fn reduced_d1_matches_dense_reference() {
        // The sparse column-by-column D1 projection must agree with the old
        // densified computation Vᵀ (D1_dense) V.
        let q = toy_qldae();
        let mut basis = OrthoBasis::new(3);
        basis.insert(Vector::from_slice(&[1.0, -1.0, 0.5])).unwrap();
        basis.insert(Vector::from_slice(&[0.2, 0.9, -0.3])).unwrap();
        let v = basis.to_matrix().unwrap();
        let reduced = project_qldae(&q, &v).unwrap();
        let dense_ref = v.transpose().matmul(&q.d1()[0].to_dense().matmul(&v));
        assert!((&reduced.d1()[0].to_dense() - &dense_ref).max_abs() < 1e-13);
    }

    #[test]
    fn invalid_bases_are_rejected() {
        let q = toy_qldae();
        assert!(project_qldae(&q, &Matrix::zeros(2, 1)).is_err());
        assert!(project_qldae(&q, &Matrix::zeros(3, 4)).is_err());
    }
}
