//! Chaos coverage of the integrator seams. The armed fault plan is
//! process-global, so this test has a binary of its own: run beside the
//! library's unit tests, the plan also fired inside their transients.
#![cfg(feature = "fault-injection")]

use vamor_linalg::fault::{arm, disarm, injected, FaultKind, FaultPlan};
use vamor_sim::{simulate, IntegrationMethod, JacobianPolicy, SimError, Step, TransientOptions};
use vamor_system::QldaeBuilder;

/// Injected factorization and solve faults must end in a finite trajectory
/// plus a recovery count, or a typed error — never a panic, never silent NaN
/// output — and the seams must fire in the buffer-reusing Newton loop.
#[test]
fn injected_integrator_faults_recover_or_fail_typed() {
    let sys = QldaeBuilder::new(1, 1)
        .g1_entry(0, 0, -1000.0)
        .b_entry(0, 0, 1.0)
        .output_state(0)
        .build()
        .unwrap();
    let opts = TransientOptions::new(0.0, 1.0, 0.01)
        .with_method(IntegrationMethod::ImplicitTrapezoidal)
        .with_jacobian_policy(JacobianPolicy::EveryStep);
    for kind in [
        FaultKind::SingularFactor,
        FaultKind::NanSolve,
        FaultKind::AdiStall,
    ] {
        for seed in [1u64, 7, 42] {
            arm(FaultPlan::new(seed, kind));
            let outcome = simulate(&sys, &Step::new(1.0, 0.0), &opts);
            let fired = injected();
            disarm();
            assert!(
                fired > 0,
                "{kind:?}/{seed}: the integrator seams never fired"
            );
            match outcome {
                Ok(r) => {
                    assert!(
                        r.output_channel(0).iter().all(|v| v.is_finite()),
                        "{kind:?}/{seed}: non-finite output leaked through"
                    );
                    // Factor faults land on the dense path here (1-state
                    // system), each one a counted recovery.
                    if kind == FaultKind::SingularFactor {
                        assert!(
                            r.stats.pivot_recoveries > 0,
                            "{kind:?}/{seed}: recovery went uncounted"
                        );
                    }
                }
                Err(
                    SimError::NewtonFailed { .. } | SimError::Diverged { .. } | SimError::Linalg(_),
                ) => {}
                Err(e) => panic!("{kind:?}/{seed}: unexpected error shape {e}"),
            }
        }
    }
}
