//! Seeded inputs, count metrics and correctness checks must repeat exactly,
//! and the metric names must match `BENCHMARK.json`.

use vamor_benchmark::check::{self, Tally};
use vamor_benchmark::layers::PER_LAYER;
use vamor_benchmark::report::END_TO_END;
use vamor_benchmark::run::Run;
use vamor_benchmark::workload::Workload;

#[test]
fn same_seed_gives_bit_identical_inputs() {
    for workload in Workload::ALL {
        let bits =
            |seed| -> Vec<Vec<u64>> { workload.inputs(seed).iter().map(|p| p.bits()).collect() };
        assert_eq!(bits(7), bits(7), "{workload:?}");
        assert_ne!(bits(7), bits(8), "{workload:?}");
        assert_eq!(workload.inputs(7).len(), workload.spec().inputs);
    }
}

/// Everything a round reports that must not depend on timing.
fn round_fingerprint(workload: Workload, seed: u64) -> Vec<u64> {
    let mut run = Run::new(workload, seed);
    let report = run.round();
    run.norm_baseline();
    assert_eq!(run.tally.failed, 0, "{:?}", run.tally.failures);
    let rom = run.rom.as_ref().expect("reduce succeeded");
    let s = rom.stats();
    let c = report.counts;
    let mut out = vec![
        c.full_steps,
        c.full_newton_iterations,
        c.full_factorizations,
        c.rom_newton_iterations,
        c.rom_factorizations,
        s.total_candidates(),
        s.deflated,
        s.restarts,
        s.adi_iterations,
        s.chain_basis_dim,
        rom.g2_nnz(),
        rom.g3_nnz(),
        rom.order(),
        run.tally.attempted,
    ]
    .into_iter()
    .map(|v| v as u64)
    .collect::<Vec<_>>();
    // Cache lookups repeat exactly. Their hit/miss split does not on
    // `tline-2k`: the low-rank chains run on parallel workers, and when two
    // of them miss the same shift at once, both count a miss.
    out.push(report.shift_cache.0 + report.shift_cache.1);
    out.push(run.max_rel_error.to_bits());
    out.push(run.norm_max_rel_error.to_bits());
    out
}

#[test]
fn counts_order_and_error_repeat_for_a_seed() {
    for workload in Workload::ALL {
        assert_eq!(
            round_fingerprint(workload, 3),
            round_fingerprint(workload, 3),
            "{workload:?}"
        );
    }
}

#[test]
fn corrupted_rom_output_is_counted_as_failed() {
    let reference = vec![0.0, 1.0, -2.0, 0.5];
    let good = vec![0.0, 1.01, -2.0, 0.5];
    let mut corrupted = good.clone();
    corrupted[2] = f64::NAN;

    let mut tally = Tally::default();
    let ok = tally.op("ROM error", || {
        check::relative_error(&reference, &good, 1e-2)
    });
    assert!((ok.expect("within the bound") - 0.005).abs() < 1e-15);
    assert!(tally
        .op("ROM error", || check::relative_error(
            &reference, &corrupted, 1e-2
        ))
        .is_none());
    // Off by 50 % of the peak: outside the bound.
    let wrong = vec![0.0, 2.0, -2.0, 0.5];
    assert!(tally
        .op("ROM error", || check::relative_error(
            &reference, &wrong, 1e-2
        ))
        .is_none());
    // `max_relative_error` panics on an all-zero reference; the check must
    // reject it before calling it.
    let zeros = vec![0.0; 4];
    assert!(tally
        .op("ROM error", || check::relative_error(&zeros, &good, 1e-2))
        .is_none());
    // A panic inside an operation is one failure, not an abort.
    assert!(tally
        .op::<()>("panicking op", || panic!("injected"))
        .is_none());
    assert_eq!((tally.attempted, tally.failed), (5, 4));
    assert!(tally.failures[2].contains("identically zero"));
    assert!(tally.failures[3].contains("injected"));
}

#[test]
fn pinned_order_and_hurwitz_checks() {
    assert!(check::pinned_order(8, 8).is_ok());
    assert!(check::pinned_order(7, 8).is_err());
    let stable = vamor_linalg::Matrix::from_fn(2, 2, |i, j| if i == j { -1.0 } else { 0.5 });
    let unstable = vamor_linalg::Matrix::from_fn(2, 2, |i, j| if i == j { 0.1 } else { 0.0 });
    assert!(check::hurwitz(&stable).is_ok());
    assert!(check::hurwitz(&unstable).is_err());
}

#[test]
fn metric_names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let declared = json.matches("\"unit\":").count();
    assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    for workload in Workload::ALL {
        let entry = format!("\"name\": \"{}\"", workload.spec().name);
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}
