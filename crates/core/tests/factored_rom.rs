//! Factored evaluation of the projected nonlinear tensors, at paper size.
//!
//! The projection evaluates `Wᵀ G (Vx ⊗ … ⊗ Vx)` restricted to the full
//! model's nonlinear support whenever that costs fewer flops than the dense
//! projected tensor. Each factored ROM here is compared against the same
//! ROM rebuilt through `Qldae::new` / `CubicOde::new` from its public
//! coefficient tensors, which evaluates the dense form.

use vamor_circuits::{RfReceiver, TransmissionLine, VaristorCircuit};
use vamor_core::{project_cubic_petrov, project_qldae_petrov, AssocReducer, MomentSpec};
use vamor_linalg::{CooMatrix, Matrix, Vector};
use vamor_sim::{
    simulate, ExpPulse, InputSignal, IntegrationMethod, MultiChannel, SinePulse, TransientOptions,
};
use vamor_system::{CubicOde, PolynomialStateSpace, Qldae, QldaeBuilder};

/// The Fig. 4 receiver ROM (n = 173 → q = 33) and its dense-form twin.
fn receiver_roms() -> (Qldae, Qldae) {
    let rx = RfReceiver::new(86).expect("circuit");
    let rom = AssocReducer::new(MomentSpec::new(8, 4, 2))
        .with_markov_moments(2)
        .with_stabilized_projection(true)
        .reduce(rx.qldae())
        .expect("receiver reduction")
        .system()
        .clone();
    let dense = Qldae::new(
        rom.g1().clone(),
        rom.g2().clone(),
        rom.d1().to_vec(),
        rom.b().clone(),
        rom.c().clone(),
    )
    .expect("dense twin");
    (rom, dense)
}

/// The Fig. 5 varistor ROM (n = 102 → q = 8) and its dense-form twin.
fn varistor_roms() -> (CubicOde, CubicOde) {
    let varistor = VaristorCircuit::new(98).expect("circuit");
    let rom = AssocReducer::new(MomentSpec::new(6, 0, 2))
        .with_stabilized_projection(false)
        .reduce_cubic(varistor.ode())
        .expect("varistor reduction")
        .system()
        .clone();
    let dense = CubicOde::new(
        rom.g1().clone(),
        rom.g2().cloned(),
        rom.g3().clone(),
        rom.b().clone(),
        rom.c().clone(),
    )
    .expect("dense twin");
    (rom, dense)
}

fn receiver_drive() -> MultiChannel {
    MultiChannel::new(vec![
        Box::new(SinePulse::damped(0.3, 0.06, 0.05)),
        Box::new(SinePulse::new(0.12, 0.11)),
    ])
}

fn surge_drive() -> ExpPulse {
    ExpPulse::new(VaristorCircuit::surge_amplitude(), 0.5, 6.0)
}

fn trapezoidal(t_end: f64) -> TransientOptions {
    TransientOptions::new(0.0, t_end, 0.01).with_method(IntegrationMethod::ImplicitTrapezoidal)
}

/// `max |a − b| / max |b|` over two output trajectories.
fn peak_relative_gap(a: &[Vector], b: &[Vector]) -> f64 {
    let peak = b.iter().map(Vector::norm_inf).fold(0.0, f64::max);
    let gap = a
        .iter()
        .zip(b)
        .map(|(x, y)| (x - y).norm_inf())
        .fold(0.0, f64::max);
    gap / peak
}

/// `rhs` and `jacobian_x` of `rom` and `dense` agree to 1e-12 relative at
/// 32 states of a trajectory of `dense`.
fn assert_evaluations_agree(
    rom: &dyn PolynomialStateSpace,
    dense: &dyn PolynomialStateSpace,
    input: &dyn InputSignal,
    t_end: f64,
) {
    let run = simulate(dense, input, &trapezoidal(t_end).with_states()).expect("transient");
    let states = run.states.expect("states were requested");
    let stride = states.len() / 32;
    for k in 0..32 {
        let i = (k + 1) * stride - 1;
        let (x, u) = (&states[i], input.sample(run.times[i]));
        let (f, f_dense) = (rom.rhs(x, &u), dense.rhs(x, &u));
        let scale = f_dense.norm_inf().max(f64::MIN_POSITIVE);
        assert!(
            (&f - &f_dense).norm_inf() <= 1e-12 * scale,
            "rhs gap at state {i}: {:e} of {scale:e}",
            (&f - &f_dense).norm_inf()
        );
        let (j, j_dense) = (rom.jacobian_x(x, &u), dense.jacobian_x(x, &u));
        let scale = j_dense.max_abs();
        assert!(
            (&j - &j_dense).max_abs() <= 1e-12 * scale,
            "Jacobian gap at state {i}: {:e} of {scale:e}",
            (&j - &j_dense).max_abs()
        );
    }
}

#[test]
fn receiver_rom_evaluates_factored_and_matches_the_dense_form() {
    let (rom, dense) = receiver_roms();
    assert_eq!(rom.g1().rows(), 33);
    let factored = rom.g2_factored().expect("the receiver's diodes are local");
    assert_eq!(
        (factored.support_len(), factored.row_support_len()),
        (45, 23)
    );
    assert!(factored.is_cheaper_than(rom.g2()));
    assert!(dense.g2_factored().is_none());

    assert_evaluations_agree(&rom, &dense, &receiver_drive(), 20.0);
    let opts = trapezoidal(20.0);
    let a = simulate(&rom, &receiver_drive(), &opts).expect("factored transient");
    let b = simulate(&dense, &receiver_drive(), &opts).expect("dense transient");
    let gap = peak_relative_gap(&a.outputs, &b.outputs);
    assert!(gap <= 1e-12, "factored vs dense transient gap {gap:e}");
}

#[test]
fn varistor_rom_evaluates_factored_and_matches_the_dense_form() {
    let (rom, dense) = varistor_roms();
    assert_eq!(rom.g1().rows(), 8);
    let factored = rom.g3_factored().expect("the varistor is device-local");
    assert_eq!((factored.support_len(), factored.row_support_len()), (2, 2));
    assert!(rom.g2().is_none() && rom.g2_factored().is_none());
    assert!(dense.g3_factored().is_none());

    assert_evaluations_agree(&rom, &dense, &surge_drive(), 30.0);
    let opts = trapezoidal(30.0);
    let a = simulate(&rom, &surge_drive(), &opts).expect("factored transient");
    let b = simulate(&dense, &surge_drive(), &opts).expect("dense transient");
    let gap = peak_relative_gap(&a.outputs, &b.outputs);
    assert!(gap <= 1e-12, "factored vs dense transient gap {gap:e}");
}

/// The diode line's nonlinearity touches every node, so the factored form
/// (`q(|S| + |R|)` with `|S| = |R| = 2000`) costs more than the dense
/// `q × q²` tensor and the projection keeps the dense one.
#[test]
fn transmission_line_rom_keeps_the_dense_tensor() {
    let line = TransmissionLine::current_driven(2000).expect("circuit");
    let rom = AssocReducer::new(MomentSpec::paper_default())
        .with_markov_moments(2)
        .with_stabilized_projection(true)
        .reduce(line.qldae())
        .expect("line reduction");
    assert_eq!(rom.order(), 11);
    assert!(rom.system().g2_factored().is_none());
}

/// Finite-difference check of both Jacobians of factored toy systems,
/// quadratic (with a bilinear input term) and cubic.
#[test]
fn factored_jacobians_match_finite_differences() {
    let full = QldaeBuilder::new(6, 1)
        .g1_entry(0, 0, -1.0)
        .g1_entry(1, 1, -2.0)
        .g1_entry(2, 2, -1.5)
        .g1_entry(3, 3, -3.0)
        .g1_entry(4, 4, -1.2)
        .g1_entry(5, 5, -2.5)
        .g1_entry(1, 0, 0.4)
        .g2_entry(1, 2, 4, 0.7)
        .g2_entry(4, 2, 2, -0.3)
        .d1_entry(0, 0, 3, 0.2)
        .b_entry(0, 0, 1.0)
        .output_state(4)
        .build()
        .expect("toy qldae");
    let v = Matrix::from_fn(6, 3, |i, j| ((i * 3 + j) as f64 * 0.7).sin());
    let w = Matrix::from_fn(6, 3, |i, j| ((i + 2 * j) as f64 * 0.3).cos());
    let rom = project_qldae_petrov(&full, &v, &w).expect("projection");
    assert!(rom.g2_factored().is_some());
    let x = Vector::from_slice(&[0.3, -0.8, 0.5]);
    check_jacobians(&rom, &x, &[0.6]);

    let mut g3 = CooMatrix::new(6, 216);
    g3.push(2, 2 * 36 + 5 * 6 + 5, -0.4);
    g3.push(5, 5 * 36 + 5 * 6 + 5, 0.9);
    let mut g2 = CooMatrix::new(6, 36);
    g2.push(0, 6 + 1, 0.25);
    let full = CubicOde::new(
        full.g1().clone(),
        Some(g2.into_csr()),
        g3.into_csr(),
        full.b().clone(),
        full.c().clone(),
    )
    .expect("toy cubic");
    let rom = project_cubic_petrov(&full, &v, &w).expect("projection");
    assert!(rom.g2_factored().is_some() && rom.g3_factored().is_some());
    check_jacobians(&rom, &x, &[0.6]);
}

fn check_jacobians(sys: &dyn PolynomialStateSpace, x: &Vector, u: &[f64]) {
    let jac = sys.jacobian_x(x, u);
    let csr = sys
        .jacobian_csr(x, u)
        .expect("polynomial systems stamp CSR");
    assert!((&csr.to_dense() - &jac).max_abs() < 1e-14);
    let h = 1e-6;
    for j in 0..x.len() {
        let (mut xp, mut xm) = (x.clone(), x.clone());
        xp[j] += h;
        xm[j] -= h;
        let df = &sys.rhs(&xp, u) - &sys.rhs(&xm, u);
        for i in 0..x.len() {
            let fd = df[i] / (2.0 * h);
            assert!(
                (jac[(i, j)] - fd).abs() < 1e-7,
                "jac[{i},{j}] = {} vs fd {fd}",
                jac[(i, j)]
            );
        }
    }
}
