//! Correctness bookkeeping: every reduce, transient and check is one
//! operation; an error, a failed check or a panic counts it as failed and
//! the run carries on.

use std::panic::{catch_unwind, AssertUnwindSafe};

use vamor_linalg::{eigenvalues, Matrix};

/// Attempted / failed operation counts plus a description of each failure.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
}

impl Tally {
    /// Runs one operation, containing panics. Returns `None` (and records a
    /// failure) when it errs or panics.
    pub fn op<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match contained(f) {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(what, e);
                None
            }
        }
    }

    /// Records one check.
    pub fn check(&mut self, what: &str, result: Result<(), String>) -> bool {
        self.op(what, || result).is_some()
    }

    fn fail(&mut self, what: &str, why: String) {
        self.failed += 1;
        self.failures.push(format!("{what}: {why}"));
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Runs `f`, turning a panic into an error.
pub fn contained<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f))
        .unwrap_or_else(|payload| Err(format!("panicked: {}", panic_message(payload.as_ref()))))
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Checks a ROM transient against the full-model reference and returns the
/// maximum relative error (`vamor_sim::max_relative_error`, normalized by
/// the reference peak). Rejects, instead of panicking, the inputs that
/// function cannot take: mismatched lengths and an identically zero
/// reference. Non-finite samples and an error above `bound` also fail.
pub fn relative_error(reference: &[f64], test: &[f64], bound: f64) -> Result<f64, String> {
    if reference.len() != test.len() {
        return Err(format!(
            "length mismatch: reference {} vs test {}",
            reference.len(),
            test.len()
        ));
    }
    finite("reference output", reference)?;
    finite("reduced output", test)?;
    if reference.iter().all(|&v| v == 0.0) {
        return Err("reference output is identically zero".into());
    }
    let err = vamor_sim::max_relative_error(reference, test);
    if err.is_finite() && err <= bound {
        Ok(err)
    } else {
        Err(format!(
            "max relative error {err:e} exceeds bound {bound:e}"
        ))
    }
}

/// Fails when any sample is NaN or infinite.
pub fn finite(what: &str, series: &[f64]) -> Result<(), String> {
    match series.iter().position(|v| !v.is_finite()) {
        None => Ok(()),
        Some(k) => Err(format!("{what} is not finite at sample {k}")),
    }
}

/// Independent Hurwitz check of a reduced `G₁ᵣ` (recomputes the spectrum
/// rather than trusting the reducer's own guard).
pub fn hurwitz(g1r: &Matrix) -> Result<(), String> {
    let eig = eigenvalues(g1r).map_err(|e| format!("eigenvalues failed: {e}"))?;
    if eig.is_hurwitz() {
        Ok(())
    } else {
        Err(format!(
            "reduced G1 is not Hurwitz (abscissa {:e})",
            eig.spectral_abscissa()
        ))
    }
}

/// The reduced order must equal the workload's pinned order.
pub fn pinned_order(order: usize, pinned: usize) -> Result<(), String> {
    if order == pinned {
        Ok(())
    } else {
        Err(format!("reduced order {order}, pinned {pinned}"))
    }
}
