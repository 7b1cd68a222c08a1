//! Regression tests for the solver-cache layer: the cached path (shifted-LU
//! memoization, shared Schur forms, single-factorization Lyapunov setup) must
//! reproduce the legacy factor-per-call implementation to floating-point
//! accuracy, while demonstrably serving repeated shifts from the cache.

use vamor_circuits::{RfReceiver, TransmissionLine, VaristorCircuit};
use vamor_core::{
    AssocMomentGenerator, AssocReducer, BlockH2Op, CubicAssocMomentGenerator, MomentSpec,
    ScaledMoments, ShiftedSolveOp, VolterraKernels,
};
use vamor_linalg::{Complex, Matrix, Vector};

/// Largest residual of any column of `b` after projection onto the column
/// space of `a` — zero iff span(b) ⊆ span(a). The stabilized reducers return
/// bases that are orthonormal in the *energy* inner product rather than the
/// Euclidean one, so both inputs are re-orthonormalized with a QR pass before
/// the Euclidean comparison.
fn subspace_residual(a: &Matrix, b: &Matrix) -> f64 {
    let a = a.qr().expect("qr of left basis").q().clone();
    let b = b.qr().expect("qr of right basis").q().clone();
    let mut worst = 0.0_f64;
    for j in 0..b.cols() {
        let col = b.col(j);
        let coeffs = a.matvec_transpose(&col);
        let mut residual = col;
        residual.axpy(-1.0, &a.matvec(&coeffs));
        worst = worst.max(residual.norm2());
    }
    worst
}

#[test]
fn cached_reduction_matches_uncached_reduction() {
    let line = TransmissionLine::current_driven(35).expect("circuit");
    let full = line.qldae();
    let spec = MomentSpec::paper_default();
    let cached = AssocReducer::new(spec).reduce(full).expect("cached");
    let uncached = AssocReducer::new(spec)
        .with_solver_caching(false)
        .reduce(full)
        .expect("legacy");

    assert_eq!(
        cached.order(),
        uncached.order(),
        "projection dimensions must agree"
    );
    // The individual basis entries may differ in the last few ulps (the fast
    // back-substitution reassociates floating-point sums, the cached and
    // fresh Schur forms behind the Lyapunov weight round differently, and
    // Gram-Schmidt amplifies both near deflation ties); the spanned subspace
    // is the invariant that matters for the projection.
    let forward = subspace_residual(cached.projection(), uncached.projection());
    let backward = subspace_residual(uncached.projection(), cached.projection());
    assert!(
        forward <= 1e-6 && backward <= 1e-6,
        "subspaces diverged: {forward:.3e}/{backward:.3e}"
    );

    // Moment-match agreement of the two reduced models near the expansion
    // point (the acceptance criterion of the solver-cache layer).
    let kern_cached = VolterraKernels::new(cached.system(), 0).expect("cached kernels");
    let kern_uncached = VolterraKernels::new(uncached.system(), 0).expect("legacy kernels");
    for s in [Complex::new(0.0, 0.02), Complex::new(0.01, 0.05)] {
        let a = kern_cached.output_h1(s).unwrap();
        let b = kern_uncached.output_h1(s).unwrap();
        assert!(
            (a - b).abs() <= 1e-9 * (1.0 + b.abs()),
            "H1 mismatch at {s}: {a} vs {b}"
        );
    }
    let (s1, s2) = (Complex::new(0.0, 0.03), Complex::new(0.01, 0.02));
    let a = kern_cached.output_h2(s1, s2).unwrap();
    let b = kern_uncached.output_h2(s1, s2).unwrap();
    assert!(
        (a - b).abs() <= 1e-9 * (1.0 + b.abs()),
        "H2 mismatch: {a} vs {b}"
    );
}

#[test]
fn cached_moments_match_fresh_factorization_moments() {
    for stages in [12usize, 21] {
        let line = TransmissionLine::voltage_driven(stages).expect("circuit");
        let q = line.qldae();
        let cached = AssocMomentGenerator::new(q).expect("cached generator");
        let fresh = AssocMomentGenerator::with_caching(q, false).expect("legacy generator");
        for (a, b) in [(0usize, 0usize)] {
            let m_cached = cached.h2_moments(a, b, 3).expect("cached h2");
            let m_fresh = fresh.h2_moments(a, b, 3).expect("fresh h2");
            for (k, (x, y)) in m_cached.iter().zip(m_fresh.iter()).enumerate() {
                let diff = (x - y).norm_inf();
                assert!(
                    diff <= 1e-10 * (1.0 + y.norm_inf()),
                    "h2 moment {k} diff {diff:.3e}"
                );
            }
        }
        let m_cached = cached.h3_moments(0, 2).expect("cached h3");
        let m_fresh = fresh.h3_moments(0, 2).expect("fresh h3");
        for (k, (x, y)) in m_cached.iter().zip(m_fresh.iter()).enumerate() {
            let diff = (x - y).norm_inf();
            assert!(
                diff <= 1e-10 * (1.0 + y.norm_inf()),
                "h3 moment {k} diff {diff:.3e}"
            );
        }
    }
}

/// Unit-norm candidates and their `log10` magnitudes agree to 1e-10.
fn assert_scaled_agree(label: &str, cached: &ScaledMoments, legacy: &ScaledMoments) {
    assert_eq!(
        cached.vectors.len(),
        legacy.vectors.len(),
        "{label}: length"
    );
    for (k, (x, y)) in cached.vectors.iter().zip(&legacy.vectors).enumerate() {
        let diff = (x - y).norm_inf();
        assert!(diff <= 1e-10, "{label} vector {k}: diff {diff:.3e}");
        let (a, b) = (cached.log10_magnitudes[k], legacy.log10_magnitudes[k]);
        assert!((a - b).abs() <= 1e-10, "{label} magnitude {k}: {a} vs {b}");
    }
}

/// The cached `H₃` chains (the triple-Kronecker recursion in the Schur
/// coordinates of `G₁`) against the legacy big-small Sylvester chains, on a
/// multi-input QLDAE with a complex spectrum and on the cubic varistor.
#[test]
fn schur_tensor_h3_chains_match_the_legacy_chains() {
    let receiver = RfReceiver::new(20).expect("receiver");
    let q = receiver.qldae();
    let cached = AssocMomentGenerator::new(q).expect("cached generator");
    let legacy = AssocMomentGenerator::with_caching(q, false).expect("legacy generator");
    assert!(cached.g1_schur().is_some() && legacy.g1_schur().is_none());
    for input in 0..q.b().cols() {
        assert_scaled_agree(
            &format!("receiver input {input}"),
            &cached.h3_moments_scaled(input, 3).expect("cached h3"),
            &legacy.h3_moments_scaled(input, 3).expect("legacy h3"),
        );
    }

    let varistor = VaristorCircuit::new(16).expect("varistor");
    let cached = CubicAssocMomentGenerator::new(varistor.ode()).expect("cached generator");
    let legacy =
        CubicAssocMomentGenerator::with_caching(varistor.ode(), false).expect("legacy generator");
    assert_scaled_agree(
        "varistor",
        &cached.h3_moments_scaled(0, 3).expect("cached h3"),
        &legacy.h3_moments_scaled(0, 3).expect("legacy h3"),
    );
}

#[test]
fn cached_cubic_reduction_matches_uncached() {
    let circuit = VaristorCircuit::new(16).expect("circuit");
    let spec = MomentSpec::new(6, 0, 2);
    let cached = AssocReducer::new(spec)
        .reduce_cubic(circuit.ode())
        .expect("cached");
    let uncached = AssocReducer::new(spec)
        .with_solver_caching(false)
        .reduce_cubic(circuit.ode())
        .expect("legacy");
    assert_eq!(cached.order(), uncached.order());
    let forward = subspace_residual(cached.projection(), uncached.projection());
    let backward = subspace_residual(uncached.projection(), cached.projection());
    assert!(
        forward <= 1e-6 && backward <= 1e-6,
        "cubic subspaces diverged: {forward:.3e}/{backward:.3e}"
    );
}

#[test]
fn repeated_shifted_solves_hit_the_cache() {
    let line = TransmissionLine::current_driven(10).expect("circuit");
    let q = line.qldae();
    let op = BlockH2Op::new(q.g1(), q.g2()).expect("block op");
    let rhs = Vector::from_fn(op.dim(), |i| (i % 7) as f64 - 3.0);
    let a = op.solve_shifted(0.25, &rhs).expect("first solve");
    let hits_before = op.shift_cache().hits();
    let b = op.solve_shifted(0.25, &rhs).expect("second solve");
    assert!(
        op.shift_cache().hits() > hits_before,
        "second solve must reuse the cached LU"
    );
    assert_eq!(
        a.as_slice(),
        b.as_slice(),
        "cached solve must be bit-identical"
    );

    // The cached generator's H3 chain solves no shifted systems (its tensor
    // chain stays in the Schur coordinates of G1); it must still run.
    let generator = AssocMomentGenerator::new(q).expect("generator");
    generator.h3_moments(0, 2).expect("h3 moments");
}
