//! Triple Kronecker-sum solves carried out in Schur coordinates.
//!
//! The cubic moment chains of the associated transforms apply
//! `(A ⊕ A ⊕ A)⁻¹` repeatedly to an `n³`-vector. With the real Schur form
//! `A = Q T Qᵀ` the operator factors as `Q₃ (T ⊕ T ⊕ T) Q₃ᵀ` with
//! `Q₃ = Q ⊗ Q ⊗ Q`, so a chain that starts from `b ⊗ b ⊗ b` can stay in the
//! transformed coordinates `Y = Q₃ᵀ w` for every step:
//!
//! * [`TripleKronSchur::seed`] forms `Y₀ = (Qᵀb)^{⊗3}` directly;
//! * [`TripleKronSchur::solve_into`] solves `(T ⊕ T ⊕ T) Y = R` in place by
//!   back-substitution over triples of Schur blocks (Bartels & Stewart,
//!   CACM 1972), in the blocked triangular order of Jonsson & Kågström
//!   (ACM TOMS 2002): every local system is at most 8×8 and lives on the
//!   stack, and the couplings to already solved slabs, fibers and entries
//!   are contiguous axpys;
//! * [`TripleKronSchur::gather_into`] maps back to the original coordinates
//!   only the fibers of `Q₃ Y` that a sparse tensor's columns read.
//!
//! A solve costs about `3n⁴` flops and allocates nothing; moving the whole
//! `n³` iterate into and out of the Schur basis on every step would cost
//! another `6n⁴`.
//!
//! ## Layout
//!
//! `y[(i·n + j)·n + k]` holds entry `(i, j, k)`: the layout of
//! `kron_vec(x, kron_vec(y, z))`, and equally the column-major `vec` of the
//! `n² × n` matrix whose entry `(j·n + k, i)` it is. Mode 1 (`i`) is the
//! slowest index, mode 3 (`k`) the fastest.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::schur::{SchurBlock, SchurDecomposition};
use crate::sylvester::solve_small_real;
use crate::vector::Vector;
use crate::Result;

/// Groups of [`TripleKronSchur::gather_into`] staged per pass over the
/// tensor.
const GATHER_BATCH: usize = 4;

/// Solves and gathers for `A ⊕ A ⊕ A` in the Schur coordinates of `A`,
/// borrowing a precomputed [`SchurDecomposition`].
///
/// ```
/// use vamor_linalg::kron3::TripleKronSchur;
/// use vamor_linalg::{kron_sum, kron_vec, Matrix, SchurDecomposition, Vector};
/// # fn main() -> Result<(), vamor_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[-1.0, 2.0], &[-2.0, -1.5]])?;
/// let schur = SchurDecomposition::new(&a)?;
/// let kernel = TripleKronSchur::new(&schur);
/// let b = Vector::from_slice(&[1.0, 0.5]);
/// let mut y = kernel.seed(&b)?;
/// kernel.solve_into(&mut y)?;
/// // Map every fiber back and compare with the explicit 8×8 solve.
/// let pairs: Vec<usize> = (0..4).collect();
/// let mut work = vec![0.0; kernel.gather_work_len()];
/// let mut fibers = vec![0.0; 8];
/// kernel.gather_into(&y, &pairs, &mut work, &mut fibers)?;
/// let m3 = kron_sum(&a, &kron_sum(&a, &a));
/// let w = m3.solve(&kron_vec(&b, &kron_vec(&b, &b)))?;
/// for (s, fiber) in fibers.chunks(2).enumerate() {
///     for (i, v) in fiber.iter().enumerate() {
///         assert!((v - w[i * 4 + s]).abs() < 1e-12);
///     }
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TripleKronSchur<'a> {
    schur: &'a SchurDecomposition,
    /// `Tᵀ`, so the mode-3 coupling reads columns of `T` contiguously.
    tt: Matrix,
}

impl<'a> TripleKronSchur<'a> {
    /// Wraps the Schur form `A = Q T Qᵀ`.
    pub fn new(schur: &'a SchurDecomposition) -> Self {
        TripleKronSchur {
            schur,
            tt: schur.t().transpose(),
        }
    }

    /// The order `n` of `A`.
    pub fn order(&self) -> usize {
        self.schur.dim()
    }

    /// Length `n³` of a tensor iterate.
    pub fn tensor_len(&self) -> usize {
        let n = self.order();
        n * n * n
    }

    /// Length of the `work` buffer [`TripleKronSchur::gather_into`] needs:
    /// `4n² + n`.
    pub fn gather_work_len(&self) -> usize {
        let n = self.order();
        GATHER_BATCH * n * n + n
    }

    /// The seed `Y₀ = (Qᵀb)^{⊗3}` of a chain started from `b ⊗ b ⊗ b`.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `b` does not have length `n`,
    /// [`LinalgError::InvalidArgument`] if `n³` overflows.
    pub fn seed(&self, b: &Vector) -> Result<Vec<f64>> {
        let n = self.order();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch(format!(
                "triple kronecker seed: vector of length {}, expected {n}",
                b.len()
            )));
        }
        let len = n.checked_pow(3).ok_or_else(|| {
            LinalgError::InvalidArgument(format!("triple kronecker tensor of order {n} overflows"))
        })?;
        let bh = self.schur.to_schur_coords(b);
        let bh = bh.as_slice();
        let mut y = Vec::with_capacity(len);
        for &bi in bh {
            for &bj in bh {
                let bij = bi * bj;
                y.extend(bh.iter().map(|&bk| bij * bk));
            }
        }
        Ok(y)
    }

    /// Solves `(T ⊕ T ⊕ T) Y = R` in place: `y` holds `R` on entry and `Y`
    /// on return.
    ///
    /// The blocks of mode 1 are walked from last to first. A slab (fixed
    /// mode-1 block) first subtracts its coupling to every solved slab; the
    /// slab's fibers (fixed mode-1 and mode-2 blocks) then do the same
    /// against the solved fibers of that slab, and are solved block by
    /// block of mode 3 from last to first, each solved block pushing its
    /// mode-3 coupling onto the entries before it.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `y` does not have length `n³`;
    /// [`LinalgError::Singular`] if a local system has a pivot at roundoff
    /// level, i.e. `λᵢ + λⱼ + λₖ = 0` for eigenvalues of `A`. `y` is then
    /// partially overwritten but finite.
    pub fn solve_into(&self, y: &mut [f64]) -> Result<()> {
        let n = self.order();
        let nn = n * n;
        if y.len() != self.tensor_len() {
            return Err(LinalgError::DimensionMismatch(format!(
                "triple kronecker solve: tensor of length {}, expected {}",
                y.len(),
                self.tensor_len()
            )));
        }
        let t = self.schur.t().as_slice();
        let blocks = self.schur.blocks();
        for bi in blocks.iter().rev() {
            let i1 = bi.start + bi.size;
            let (head, solved) = y.split_at_mut(i1 * nn);
            let slab = &mut head[bi.start * nn..];
            subtract_coupling(t, n, bi, solved, slab, nn);
            for bj in blocks.iter().rev() {
                let j1 = bj.start + bj.size;
                for row in slab.chunks_exact_mut(nn) {
                    let (head, solved) = row.split_at_mut(j1 * n);
                    subtract_coupling(t, n, bj, solved, &mut head[bj.start * n..], n);
                }
                self.solve_fibers(bi, bj, slab)?;
            }
        }
        Ok(())
    }

    /// Solves the fibers `(I, J, :)` of a slab whose mode-1 and mode-2
    /// couplings are subtracted: with the `m = |I|·|J|` fibers as the rows
    /// of `F`, this is `S F + F Tᵀ = R` for `S = T_II ⊕ T_JJ`, solved one
    /// mode-3 block `K` at a time through the at most 8×8 system
    /// `S ⊗ I + I ⊗ T_KK`.
    fn solve_fibers(&self, bi: &SchurBlock, bj: &SchurBlock, slab: &mut [f64]) -> Result<()> {
        let n = self.order();
        let t = self.schur.t().as_slice();
        let tt = self.tt.as_slice();
        let entry = |a: usize, b: usize| t[a * n + b];
        // Fiber f = r·|J| + jj is row j₀ + jj of slab row r.
        let m = bi.size * bj.size;
        let mut offset = [0usize; 4];
        let mut s = [[0.0f64; 4]; 4];
        for r in 0..bi.size {
            for jj in 0..bj.size {
                let f = r * bj.size + jj;
                offset[f] = r * n * n + (bj.start + jj) * n;
                for r2 in 0..bi.size {
                    s[f][r2 * bj.size + jj] += entry(bi.start + r, bi.start + r2);
                }
                for j2 in 0..bj.size {
                    s[f][r * bj.size + j2] += entry(bj.start + jj, bj.start + j2);
                }
            }
        }
        let s_scale = s.iter().flatten().fold(0.0f64, |acc, v| acc.max(v.abs()));
        for bk in self.schur.blocks().iter().rev() {
            let (k0, sk) = (bk.start, bk.size);
            let dim = m * sk;
            // Local index f·|K| + kk.
            let mut w = [0.0f64; 8];
            let mut l = [[0.0f64; 8]; 8];
            let mut k_scale = 0.0f64;
            for f in 0..m {
                for kk in 0..sk {
                    let row = f * sk + kk;
                    w[row] = slab[offset[f] + k0 + kk];
                    for f2 in 0..m {
                        l[row][f2 * sk + kk] = s[f][f2];
                    }
                    for k2 in 0..sk {
                        let v = entry(k0 + kk, k0 + k2);
                        l[row][f * sk + k2] += v;
                        k_scale = k_scale.max(v.abs());
                    }
                }
            }
            let tol = f64::EPSILON * dim as f64 * (s_scale + k_scale);
            solve_small_real(dim, &mut l, &mut w, tol).ok_or_else(|| {
                LinalgError::Singular(format!(
                    "triple kronecker sum: eigenvalue sum hits zero at schur blocks ({}, {}, {k0})",
                    bi.start, bj.start
                ))
            })?;
            // Store the block and push its coupling T[c, K] onto c < k₀.
            for f in 0..m {
                let (head, tail) = slab[offset[f]..offset[f] + n].split_at_mut(k0);
                let col = |kk: usize| &tt[(k0 + kk) * n..(k0 + kk) * n + k0];
                if sk == 2 {
                    let (w0, w1) = (w[2 * f], w[2 * f + 1]);
                    tail[0] = w0;
                    tail[1] = w1;
                    for ((x, a), b) in head.iter_mut().zip(col(0)).zip(col(1)) {
                        *x -= w0 * a + w1 * b;
                    }
                } else {
                    let w0 = w[f];
                    tail[0] = w0;
                    for (x, a) in head.iter_mut().zip(col(0)) {
                        *x -= w0 * a;
                    }
                }
            }
        }
        Ok(())
    }

    /// Gathers mode-1 fibers of `X = (Q ⊗ Q ⊗ Q) Y`: for the `s`-th entry
    /// `p = j·n + k` of `pairs`, writes `X[:, j, k]` to
    /// `out[s·n..(s+1)·n]`. These are the rows of the `n² × n` matrix view
    /// of `X` that a sparse tensor whose columns index `(j, k)` reads.
    ///
    /// The pairs are grouped by `k`: each group costs one `n³` contraction
    /// of `Y` over mode 3 with a row of `Q`, four groups sharing a pass over
    /// `Y`, and each pair `2n²` more.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] for a wrongly sized `y`, `work`
    /// (see [`TripleKronSchur::gather_work_len`]) or `out`
    /// (`pairs.len()·n`); [`LinalgError::InvalidArgument`] for a pair
    /// `≥ n²`.
    pub fn gather_into(
        &self,
        y: &[f64],
        pairs: &[usize],
        work: &mut [f64],
        out: &mut [f64],
    ) -> Result<()> {
        let n = self.order();
        let nn = n * n;
        if y.len() != self.tensor_len()
            || work.len() != self.gather_work_len()
            || out.len() != pairs.len() * n
        {
            return Err(LinalgError::DimensionMismatch(format!(
                "triple kronecker gather: tensor {}, work {}, out {} for {} pairs \
                 (expected {}, {}, {})",
                y.len(),
                work.len(),
                out.len(),
                pairs.len(),
                self.tensor_len(),
                self.gather_work_len(),
                pairs.len() * n
            )));
        }
        if let Some(&bad) = pairs.iter().find(|&&p| p >= nn) {
            return Err(LinalgError::InvalidArgument(format!(
                "triple kronecker gather: pair index {bad} out of range for order {n}"
            )));
        }
        // A group starts at the first pair carrying its `k`.
        let first = |s: usize| pairs[..s].iter().all(|&p| p % n != pairs[s] % n);

        let q = self.schur.q().as_slice();
        let (u, w) = work.split_at_mut(GATHER_BATCH * nn);
        let mut starts = (0..pairs.len()).filter(|&s| first(s)).peekable();
        while starts.peek().is_some() {
            // Up to GATHER_BATCH groups share one pass over Y: (first pair,
            // k) of each.
            let mut batch = [(0usize, 0usize); GATHER_BATCH];
            let mut size = 0;
            for (slot, s) in batch.iter_mut().zip(&mut starts) {
                *slot = (s, pairs[s] % n);
                size += 1;
            }
            let batch = &batch[..size];
            // U_g[i, b] = Σ_c Y[i, b, c] Q[k_g, c].
            for (row, yrow) in y.chunks_exact(n).enumerate() {
                for (g, &(_, k)) in batch.iter().enumerate() {
                    u[g * nn + row] = dot(yrow, &q[k * n..(k + 1) * n]);
                }
            }
            for (g, &(start, k)) in batch.iter().enumerate() {
                let ug = &u[g * nn..(g + 1) * nn];
                for (&pair, fiber) in pairs.iter().zip(out.chunks_exact_mut(n)).skip(start) {
                    if pair % n != k {
                        continue;
                    }
                    // w[i] = Σ_b U[i, b] Q[j, b]: mode 2.
                    let j = pair / n;
                    let qj = &q[j * n..(j + 1) * n];
                    for (wv, urow) in w.iter_mut().zip(ug.chunks_exact(n)) {
                        *wv = dot(urow, qj);
                    }
                    // X[:, j, k] = Q w: mode 1 back to the original
                    // coordinates.
                    for (xv, qrow) in fiber.iter_mut().zip(q.chunks_exact(n)) {
                        *xv = dot(qrow, w);
                    }
                }
            }
        }
        Ok(())
    }
}

/// `dst[r] −= Σ_s T[b.start + r, b.start + b.size + s] · src[s]`, with `dst`
/// and `src` split into chunks of `len`: the coupling of the rows of block
/// `b` to the solved rows after it. Each pass over a destination row
/// applies four source chunks.
fn subtract_coupling(
    t: &[f64],
    n: usize,
    b: &SchurBlock,
    src: &[f64],
    dst: &mut [f64],
    len: usize,
) {
    let r1 = b.start + b.size;
    for (r, d) in dst.chunks_exact_mut(len).enumerate() {
        let row = b.start + r;
        let coef = &t[row * n + r1..(row + 1) * n];
        let mut c4 = coef.chunks_exact(4);
        let mut s4 = src.chunks_exact(4 * len);
        for (c, s) in (&mut c4).zip(&mut s4) {
            let (s0, rest) = s.split_at(len);
            let (s1, rest) = rest.split_at(len);
            let (s2, s3) = rest.split_at(len);
            for ((((x, a), b), e), g) in d.iter_mut().zip(s0).zip(s1).zip(s2).zip(s3) {
                *x -= (c[0] * a + c[1] * b) + (c[2] * e + c[3] * g);
            }
        }
        for (&c, s) in c4.remainder().iter().zip(s4.remainder().chunks_exact(len)) {
            for (x, sv) in d.iter_mut().zip(s) {
                *x -= c * sv;
            }
        }
    }
}

/// Dot product with four independent partial sums, so the reduction
/// vectorizes.
pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let (a4, b4) = (a.chunks_exact(4), b.chunks_exact(4));
    let tail: f64 = a4
        .remainder()
        .iter()
        .zip(b4.remainder())
        .map(|(x, y)| x * y)
        .sum();
    for (x, y) in a4.zip(b4) {
        for ((s, xv), yv) in acc.iter_mut().zip(x).zip(y) {
            *s += xv * yv;
        }
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kron::{kron, kron_sum};

    fn rng(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed.max(1);
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) - 0.5
        }
    }

    /// A Schur form with the given block sizes (1 = real eigenvalue, 2 =
    /// standardized complex pair), a random strictly upper part and a
    /// random orthogonal `Q`; returns it with `A = Q T Qᵀ`.
    fn schur_with_blocks(sizes: &[usize], seed: u64) -> (SchurDecomposition, Matrix) {
        let mut next = rng(seed);
        let n: usize = sizes.iter().sum();
        let mut t = Matrix::zeros(n, n);
        let mut blocks = Vec::new();
        let mut start = 0;
        for &size in sizes {
            let re = -1.0 - 2.0 * (next() + 0.5);
            t[(start, start)] = re;
            if size == 2 {
                t[(start + 1, start + 1)] = re;
                t[(start, start + 1)] = 1.0 + next();
                t[(start + 1, start)] = -0.8 + 0.5 * next();
            }
            blocks.push(SchurBlock { start, size });
            start += size;
        }
        let block_of: Vec<usize> = sizes
            .iter()
            .enumerate()
            .flat_map(|(b, &size)| std::iter::repeat_n(b, size))
            .collect();
        for i in 0..n {
            for j in 0..n {
                if block_of[j] > block_of[i] {
                    t[(i, j)] = next();
                }
            }
        }
        let q = Matrix::from_fn(n, n, |_, _| next())
            .qr()
            .unwrap()
            .q()
            .clone();
        let a = q.matmul(&t).matmul(&q.transpose());
        (SchurDecomposition::from_parts(q, t, blocks), a)
    }

    /// All-real, all-complex-pair (even `n`) and mixed block patterns.
    fn patterns(n: usize) -> Vec<Vec<usize>> {
        let mut out = vec![vec![1; n]];
        if n.is_multiple_of(2) {
            out.push(vec![2; n / 2]);
        }
        match n {
            3 => out.push(vec![2, 1]),
            4 => out.push(vec![1, 2, 1]),
            5 => out.push(vec![2, 1, 2]),
            6 => out.push(vec![1, 2, 1, 2]),
            _ => {}
        }
        out
    }

    fn all_fibers(kernel: &TripleKronSchur, y: &[f64]) -> Vector {
        let n = kernel.order();
        let pairs: Vec<usize> = (0..n * n).collect();
        let mut work = vec![0.0; kernel.gather_work_len()];
        let mut fibers = vec![0.0; n * n * n];
        kernel
            .gather_into(y, &pairs, &mut work, &mut fibers)
            .unwrap();
        // Fiber s = j·n + k holds X[:, j, k]; reorder to the tensor layout.
        Vector::from_fn(n * n * n, |idx| fibers[(idx % (n * n)) * n + idx / (n * n)])
    }

    #[test]
    fn solve_matches_the_explicit_triple_kronecker_sum() {
        for n in 1..=6 {
            for (p, sizes) in patterns(n).into_iter().enumerate() {
                assert_eq!(sizes.iter().sum::<usize>(), n, "{sizes:?}");
                let (schur, a) = schur_with_blocks(&sizes, 11 + 7 * n as u64 + p as u64);
                let kernel = TripleKronSchur::new(&schur);
                let m3 = kron_sum(&a, &kron_sum(&a, &a));
                let q3 = kron(schur.q(), &kron(schur.q(), schur.q()));
                let mut next = rng(97 + n as u64 * 3 + p as u64);
                let r = Vector::from_fn(n * n * n, |_| next());
                let mut y = q3.matvec_transpose(&r).into_vec();
                kernel.solve_into(&mut y).unwrap();
                let w = all_fibers(&kernel, &y);
                let residual = (&m3.matvec(&w) - &r).norm2();
                let scale = m3.norm_fro() * w.norm2() + r.norm2();
                assert!(
                    residual <= 1e-12 * scale,
                    "n={n} blocks {sizes:?}: residual {residual:.3e} vs scale {scale:.3e}"
                );
            }
        }
    }

    #[test]
    fn solve_satisfies_the_schur_coordinate_system() {
        let (schur, _) = schur_with_blocks(&[2, 1, 2, 1], 5);
        let kernel = TripleKronSchur::new(&schur);
        let t3 = kron_sum(schur.t(), &kron_sum(schur.t(), schur.t()));
        let mut next = rng(3);
        let r = Vector::from_fn(216, |_| next());
        let mut y = r.as_slice().to_vec();
        kernel.solve_into(&mut y).unwrap();
        let res = (&t3.matvec(&Vector::from_vec(y)) - &r).norm_inf();
        assert!(res < 1e-12, "residual {res:.3e}");
    }

    #[test]
    fn seed_is_the_cube_of_the_transformed_input() {
        let (schur, _) = schur_with_blocks(&[1, 2], 9);
        let kernel = TripleKronSchur::new(&schur);
        let b = Vector::from_slice(&[0.3, -1.0, 2.0]);
        let bh = schur.to_schur_coords(&b);
        let expect = crate::kron_vec(&bh, &crate::kron_vec(&bh, &bh));
        let seed = Vector::from_vec(kernel.seed(&b).unwrap());
        assert!((&seed - &expect).norm_inf() < 1e-14 * expect.norm_inf());
        assert!(kernel.seed(&Vector::zeros(2)).is_err());
    }

    #[test]
    fn gather_equals_rows_of_the_explicit_back_transform() {
        let (schur, _) = schur_with_blocks(&[2, 1, 1, 2], 21);
        let n = 6;
        let kernel = TripleKronSchur::new(&schur);
        let q3 = kron(schur.q(), &kron(schur.q(), schur.q()));
        let mut next = rng(4);
        let y: Vec<f64> = (0..n * n * n).map(|_| next()).collect();
        let x = q3.matvec(&Vector::from_slice(&y));
        // Unsorted and repeated pairs: 4 distinct `k` (one batch), and 6
        // distinct `k` in the second and third sets (two batches).
        for pairs in [
            &[7, 0, 35, 8, 7, 12, 13][..],
            &[6, 7, 8, 9, 10, 11, 0],
            &[35, 0, 7, 14, 21, 28, 1],
        ] {
            let mut work = vec![0.0; kernel.gather_work_len()];
            let mut out = vec![0.0; pairs.len() * n];
            kernel.gather_into(&y, pairs, &mut work, &mut out).unwrap();
            for (s, &pair) in pairs.iter().enumerate() {
                for i in 0..n {
                    let want = x[i * n * n + pair];
                    let got = out[s * n + i];
                    assert!(
                        (got - want).abs() < 1e-13,
                        "pair {pair} row {i}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn gather_rejects_bad_shapes() {
        let (schur, _) = schur_with_blocks(&[1, 1], 2);
        let kernel = TripleKronSchur::new(&schur);
        let y = vec![0.0; 8];
        let mut work = vec![0.0; kernel.gather_work_len()];
        let mut out = vec![0.0; 2];
        assert!(kernel.gather_into(&y, &[4], &mut work, &mut out).is_err());
        assert!(kernel
            .gather_into(&y, &[1, 2], &mut work, &mut out)
            .is_err());
        assert!(kernel
            .gather_into(&y[..7], &[1], &mut work, &mut out)
            .is_err());
        assert!(kernel.solve_into(&mut [0.0; 7]).is_err());
    }

    #[test]
    fn zero_eigenvalue_sums_are_reported_as_singular() {
        // Real spectrum {1, −2}: 1 + 1 − 2 = 0.
        let q = Matrix::identity(2);
        let t = Matrix::from_rows(&[&[1.0, 0.3], &[0.0, -2.0]]).unwrap();
        let blocks = vec![
            SchurBlock { start: 0, size: 1 },
            SchurBlock { start: 1, size: 1 },
        ];
        // Complex pair 1 ± i with the real eigenvalue −2: (1+i) + (1−i) − 2 = 0.
        let tc =
            Matrix::from_rows(&[&[1.0, 1.0, 0.4], &[-1.0, 1.0, 0.2], &[0.0, 0.0, -2.0]]).unwrap();
        let blocks_c = vec![
            SchurBlock { start: 0, size: 2 },
            SchurBlock { start: 2, size: 1 },
        ];
        for schur in [
            SchurDecomposition::from_parts(q, t, blocks),
            SchurDecomposition::from_parts(Matrix::identity(3), tc, blocks_c),
        ] {
            let kernel = TripleKronSchur::new(&schur);
            let mut next = rng(8);
            let mut y: Vec<f64> = (0..kernel.tensor_len()).map(|_| next()).collect();
            let err = kernel.solve_into(&mut y).unwrap_err();
            assert!(matches!(err, LinalgError::Singular(_)), "{err:?}");
            assert!(y.iter().all(|v| v.is_finite()));
        }
    }
}
