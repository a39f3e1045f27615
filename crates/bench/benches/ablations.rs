//! Ablations of Farron's design choices.
//!
//! Each ablation disables one mechanism and prints its effect once:
//!
//! 1. testcase prioritization on/off;
//! 2. burn-in preheating on/off (coverage of temperature-gated SDCs);
//! 3. adaptive vs. fixed temperature boundary (backoff frequency).
//!
//! Fine-grained vs. whole-processor decommission (capacity retained) is
//! printed by `repro ext` (`farron::capacity_report`).
//!
//! ```text
//! cargo bench -p bench --bench ablations
//! ```

use analysis::study::{run_case, StudyConfig};
use farron::baseline::Baseline;
use farron::online::{simulate_online, AppProfile, OnlineConfig};
use farron::priority::PriorityBook;
use farron::schedule::FarronScheduler;
use fleet::screening::StaticSuiteProfile;
use sdc_model::{DetRng, Duration, Feature};
use silicon::catalog;
use toolchain::{framework, ExecConfig, Suite, TestPlan};

fn burn_in() -> ExecConfig {
    ExecConfig {
        preheat_c: Some(58.0),
        stress_idle_cores: true,
        ..ExecConfig::default()
    }
}

fn coverage(
    processor: &silicon::Processor,
    suite: &Suite,
    plan: &TestPlan,
    exec: ExecConfig,
    known: &[sdc_model::TestcaseId],
    seed: u64,
) -> f64 {
    let mut rng = DetRng::new(seed);
    let report = framework::run_plan(processor, suite, plan, exec, &mut rng);
    report
        .failing_testcases()
        .iter()
        .filter(|t| known.contains(t))
        .count() as f64
        / known.len().max(1) as f64
}

fn ablation_prioritization_and_burn_in(suite: &Suite) {
    let case = catalog::by_name("FPU2").expect("catalog");
    let processor = &case.processor;
    let profiles = StaticSuiteProfile::build(suite, processor.physical_cores as usize);
    let reference = run_case(
        &case,
        suite,
        &profiles,
        &StudyConfig {
            per_testcase: Duration::from_mins(10),
            seed: 1,
            max_candidates: None,
            exec: burn_in(),
            threads: 0,
        },
    );
    let known = reference.failing.clone();
    let mut book = PriorityBook::new();
    for &id in &known {
        book.record_processor_detection(processor.id.0, id);
    }
    let farron_plan =
        FarronScheduler::default().plan(suite, &book, processor.id, &[Feature::Fpu], 58.0);
    // Ablation 1: no prioritization — same total budget spread equally.
    let equal_plan = TestPlan::equal_allocation(suite, farron_plan.total_duration());
    // Ablation 2: prioritization but no burn-in.
    let cov_full = coverage(processor, suite, &farron_plan, burn_in(), &known, 10);
    let cov_no_prio = coverage(processor, suite, &equal_plan, burn_in(), &known, 11);
    let cov_no_burn = coverage(
        processor,
        suite,
        &farron_plan,
        ExecConfig::default(),
        &known,
        12,
    );
    let cov_baseline = coverage(
        processor,
        suite,
        &Baseline::default().plan(suite),
        ExecConfig::default(),
        &known,
        13,
    );
    eprintln!(
        "[ablation/FPU2] coverage: full {cov_full:.2}, -prioritization {cov_no_prio:.2}, -burn-in {cov_no_burn:.2}, baseline {cov_baseline:.2}"
    );
}

fn ablation_boundary(suite: &Suite) {
    let mix1 = catalog::by_name("MIX1").expect("catalog").processor;
    let app = AppProfile {
        testcase: bench::find(suite, "fpu/f64/fam2"),
        utilization: 0.4,
        burst_amplitude: 0.25,
        burst_period: Duration::from_secs(120),
        spike_prob: 0.002,
    };
    let cores: Vec<u16> = (0..16).collect();
    // Adaptive (learning up to the 57 ℃ cap) vs a fixed low boundary.
    let adaptive = OnlineConfig {
        duration: Duration::from_hours(2),
        ..Default::default()
    };
    let fixed = OnlineConfig {
        duration: Duration::from_hours(2),
        boundary_init_c: 50.0,
        max_boundary_c: 50.0, // never learns: every warm period backs off
        ..Default::default()
    };
    let mut rng = DetRng::new(30);
    let a = simulate_online(&mix1, suite, &app, &cores, &adaptive, &mut rng);
    let f = simulate_online(&mix1, suite, &app, &cores, &fixed, &mut rng);
    eprintln!(
        "[ablation/boundary] backoff: adaptive {:.1} s/h vs fixed-50℃ {:.1} s/h (SDCs: {} vs {})",
        a.backoff_secs_per_hour, f.backoff_secs_per_hour, a.sdc_events, f.sdc_events
    );
}

fn main() {
    let suite = Suite::standard();
    ablation_prioritization_and_burn_in(&suite);
    ablation_boundary(&suite);
}
