//! The polynomial state-space interface shared by full and reduced models.

use vamor_linalg::{CsrMatrix, Matrix, Vector};

/// A polynomial (linear + quadratic + cubic + bilinear-input) state-space
/// system
///
/// ```text
/// ẋ = G₁ x + G₂ (x ⊗ x) + G₃ (x ⊗ x ⊗ x) + Σ_k D₁ᵏ x u_k + B u,
/// y = C x,
/// ```
///
/// where any of the higher-order terms may be absent. Both the original
/// circuit models and the projected reduced-order models implement this
/// trait, so the transient simulator treats them uniformly.
pub trait PolynomialStateSpace {
    /// Number of states.
    fn order(&self) -> usize;

    /// Number of inputs.
    fn num_inputs(&self) -> usize;

    /// Number of outputs.
    fn num_outputs(&self) -> usize;

    /// Right-hand side `f(x, u)` of `ẋ = f(x, u)`, written into `out`
    /// (length [`PolynomialStateSpace::order`]; overwritten, not added to).
    ///
    /// This is the one evaluation every system implements; steppers call it
    /// with buffers they own, so an integration loop does not allocate.
    /// `scratch` is caller-owned working memory (for the factored ROM terms,
    /// `z = P x`): pass the same vector to every call — it grows on the first
    /// call and is reused after that. Keeping scratch with the caller, rather
    /// than in the system, leaves `&dyn PolynomialStateSpace` shareable across
    /// threads.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `x.len() != self.order()`,
    /// `u.len() != self.num_inputs()` or `out.len() != self.order()`.
    fn rhs_into(&self, x: &Vector, u: &[f64], out: &mut Vector, scratch: &mut Vec<f64>);

    /// Right-hand side `f(x, u)` as a fresh vector: a convenience wrapper
    /// over [`PolynomialStateSpace::rhs_into`] for callers off the hot path.
    ///
    /// # Panics
    ///
    /// As for [`PolynomialStateSpace::rhs_into`].
    fn rhs(&self, x: &Vector, u: &[f64]) -> Vector {
        let mut out = Vector::zeros(self.order());
        self.rhs_into(x, u, &mut out, &mut Vec::new());
        out
    }

    /// Jacobian `∂f/∂x` evaluated at `(x, u)`, used by implicit integrators.
    ///
    /// # Panics
    ///
    /// Implementations may panic on dimension mismatch, as for
    /// [`PolynomialStateSpace::rhs`].
    fn jacobian_x(&self, x: &Vector, u: &[f64]) -> Matrix;

    /// Jacobian `∂f/∂x` as a sparse CSR stamp, for systems whose coefficient
    /// matrices are structurally sparse (circuit MNA stamps). Implicit
    /// integrators factor this through the sparse direct solver instead of
    /// densifying, which is what unlocks 10⁴-state transients. The default
    /// returns `None`, meaning "only the dense Jacobian is available".
    ///
    /// # Panics
    ///
    /// Implementations may panic on dimension mismatch, as for
    /// [`PolynomialStateSpace::rhs`].
    fn jacobian_csr(&self, _x: &Vector, _u: &[f64]) -> Option<CsrMatrix> {
        None
    }

    /// Output map `y = C x`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `x.len() != self.order()`.
    fn output(&self, x: &Vector) -> Vector;
}
