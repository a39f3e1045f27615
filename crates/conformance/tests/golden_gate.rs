//! The gate's reason for existing: a silent change to the defect model
//! must trip at least one golden statistic.

use conformance::golden::{check, golden_file, GoldenSet};
use conformance::metrics::temperature_metrics;
use toolchain::Suite;

/// The quick golden set restricted to the `temperature.*` metrics (the
/// ones `temperature_metrics` measures; checking the full set against a
/// partial measurement would fail on the missing names alone).
fn temperature_golden() -> GoldenSet {
    let file = golden_file();
    let quick = file.set("quick").expect("quick set is checked in");
    GoldenSet {
        mode: quick.mode.clone(),
        metrics: quick
            .metrics
            .iter()
            .filter(|m| m.name.starts_with("temperature."))
            .cloned()
            .collect(),
    }
}

#[test]
fn pristine_defect_model_passes_the_temperature_panel() {
    let suite = Suite::standard();
    let mix1 = silicon::catalog::by_name("MIX1").unwrap().processor;
    let golden = temperature_golden();
    assert_eq!(golden.metrics.len(), 2, "fit r and t_min are recorded");
    let report = check(&golden, &temperature_metrics(&suite, &mix1, true));
    assert!(report.passed(), "control run failed:\n{}", report.render());
}

#[test]
fn perturbed_trigger_floor_trips_the_gate() {
    // Raise MIX1's tricky defect's minimum triggering temperature from
    // 59 ℃ to 73 ℃ — the kind of one-line model drift the gate exists
    // to catch. Testcase C then cannot fail below 73 ℃ and the measured
    // `temperature.mix1_t_min_c` leaves its 70 ±2 ℃ band.
    let suite = Suite::standard();
    let mut perturbed = silicon::catalog::by_name("MIX1").unwrap().processor;
    perturbed.defects[1].trigger.t_min_c = 73.0;
    let report = check(
        &temperature_golden(),
        &temperature_metrics(&suite, &perturbed, true),
    );
    assert!(
        !report.passed(),
        "perturbation went undetected:\n{}",
        report.render()
    );
    let failures = report.failures();
    assert!(
        failures
            .iter()
            .any(|f| f.name == "temperature.mix1_t_min_c"),
        "wrong metric tripped: {failures:?}"
    );
}

#[test]
fn perturbed_trigger_rate_trips_the_fit() {
    // A 20× hotter base rate floods the sweep: every window sees errors,
    // the frequency/temperature relation flattens relative to the
    // recorded exponential, and the fit's r leaves its band — drift in a
    // *rate* parameter is caught by a different statistic than drift in
    // a *floor* parameter.
    let suite = Suite::standard();
    let mut perturbed = silicon::catalog::by_name("MIX1").unwrap().processor;
    perturbed.defects[1].trigger.base_rate *= 20.0;
    let report = check(
        &temperature_golden(),
        &temperature_metrics(&suite, &perturbed, true),
    );
    assert!(
        !report.passed(),
        "perturbation went undetected:\n{}",
        report.render()
    );
}
