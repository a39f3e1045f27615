//! Campaign-scale hot path: per-stage timing of the fleet pipeline —
//! sample (1.05M-CPU population), screen (closed-form campaign),
//! execute (the executor-driven deep study, fast event-skipping path
//! vs [`toolchain::Executor::try_run_reference`]) and analyze (the
//! columnar record corpus passes) — mirroring `BENCH_softcore.json`.
//!
//! Two modes:
//!
//! * default — measures every stage at the default 1.05M-CPU fleet,
//!   cross-checks that the fast executor's study is bitwise identical
//!   to the reference path at 1 and 8 threads, writes
//!   `BENCH_campaign.json` at the repo root;
//! * `--quick` — tier-1 regression gate: re-measures the single-case
//!   executor speedup (fast vs reference chunk loop) and fails
//!   (exit 1) if it regressed more than 20% against the checked-in
//!   artifact. Like the softcore gate it compares the speedup *ratio*,
//!   so it is meaningful across machines of different absolute speed.
//!
//! Unit profiles are warmed before timing (one untimed fast run), so
//! the execute stages compare the chunk loops themselves — profiling
//! costs are identical on both paths (`ProfileKey` does not include
//! `reference_executor`; see `tests/executor_equivalence.rs`).

use analysis::study::{run_case_cached, run_deep_study_with, StudyConfig, StudyData};
use fleet::screening::{StaticSuiteProfile, SuiteProfileCache};
use fleet::{run_campaign_on, FleetConfig, FleetPopulation};
use sdc_model::{DataType, Duration};
use silicon::catalog;
use std::sync::Arc;
use std::time::Instant;
use toolchain::{ExecConfig, ProfileCache, Suite};

const ARTIFACT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_campaign.json");

/// The study behind the execute stage: the default deep-study shape
/// (seed 27, record cap 128) at a campaign-scale per-testcase duration,
/// long enough that the thermal trajectory converges and the
/// steady-state draw path carries most chunks — exactly the regime the
/// ROADMAP's weeks-long virtual campaigns live in.
fn execute_cfg(reference: bool, threads: usize) -> StudyConfig {
    StudyConfig {
        per_testcase: Duration::from_mins(30),
        seed: 27,
        max_candidates: None,
        exec: ExecConfig {
            max_records: 128,
            reference_executor: reference,
            ..ExecConfig::default()
        },
        threads,
    }
}

/// Field-wise study equality (CaseData has no PartialEq derive).
fn studies_identical(a: &StudyData, b: &StudyData) -> bool {
    a.cases.len() == b.cases.len()
        && a.cases.iter().zip(&b.cases).all(|(x, y)| {
            x.name == y.name
                && x.failing == y.failing
                && x.tested == y.tested
                && x.records == y.records
                && x.freq_per_setting == y.freq_per_setting
        })
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// The analyze stage: one corpus build plus every ported record pass,
/// the way `conformance::metrics::study_metrics` consumes a study.
fn analyze(study: &StudyData) -> f64 {
    let corpus = study.corpus();
    let shares = analysis::datatypes::figure3_from(&corpus);
    let mut acc = shares.iter().map(|s| s.proportion).sum::<f64>();
    acc += corpus.records.zero_to_one_share();
    acc += corpus.records.fraction_part_share(DataType::F64);
    for dt in [DataType::I32, DataType::F32, DataType::F64, DataType::F64X] {
        acc += analysis::bitflips::msb_share(&corpus.records.bit_histogram(dt), 4);
    }
    let mined = corpus.records.mine_patterns();
    acc += mined.iter().map(|s| s.pattern_share).sum::<f64>();
    acc += corpus
        .records
        .flip_multiplicity_with(&mined, DataType::F64)
        .one;
    acc += analysis::reproducibility::summarize(study).share_above_one_per_min;
    acc += analysis::observations::obs5_types(study).computation as f64;
    acc
}

/// Single-case executor speedup (fast vs reference chunk loop) on a
/// shared, pre-warmed unit-profile cache — the quantity the `--quick`
/// gate tracks. FPU1's candidate set is small, so this stays fast. The
/// fast leg runs in well under a millisecond, where one-shot wall
/// clocks are dominated by scheduler noise, so each leg is timed as
/// the minimum over several alternating iterations.
fn single_case_speedup(per_testcase: Duration) -> f64 {
    let suite = Suite::standard();
    let case = catalog::by_name("FPU1").expect("catalog");
    let profiles = StaticSuiteProfile::build(&suite, case.processor.physical_cores as usize);
    let cache = Arc::new(ProfileCache::with_capacity(256));
    let cfg = |reference: bool| StudyConfig {
        per_testcase,
        ..execute_cfg(reference, 1)
    };
    // Warm the unit-profile cache so every timed run hits it.
    run_case_cached(
        &case,
        &suite,
        &profiles,
        &cfg(false),
        Some(Arc::clone(&cache)),
    );
    let (mut fast_secs, mut ref_secs) = (f64::INFINITY, f64::INFINITY);
    let mut first = None;
    for _ in 0..7 {
        let (fast, secs) = timed(|| {
            run_case_cached(
                &case,
                &suite,
                &profiles,
                &cfg(false),
                Some(Arc::clone(&cache)),
            )
        });
        fast_secs = fast_secs.min(secs);
        let (reference, secs) = timed(|| {
            run_case_cached(
                &case,
                &suite,
                &profiles,
                &cfg(true),
                Some(Arc::clone(&cache)),
            )
        });
        ref_secs = ref_secs.min(secs);
        assert_eq!(
            fast.records, reference.records,
            "fast path must be bitwise identical"
        );
        assert_eq!(fast.freq_per_setting, reference.freq_per_setting);
        let run = first.get_or_insert_with(|| fast.records.clone());
        assert_eq!(*run, fast.records, "repeated runs must be deterministic");
    }
    ref_secs / fast_secs
}

/// Reads a numeric field out of the checked-in artifact (the harness
/// has no JSON parser; the artifact is flat and written by this bench).
fn artifact_field(json: &str, field: &str) -> Option<f64> {
    let key = format!("\"{field}\":");
    let rest = &json[json.find(&key)? + key.len()..];
    let end = rest.find([',', '\n', '}'])?;
    rest[..end].trim().parse().ok()
}

fn artifact() {
    let suite = Suite::standard();

    // Stage 1: sample the default production-scale fleet.
    let fleet_cfg = FleetConfig::default();
    let (pop, sample_secs) = timed(|| FleetPopulation::sample(&fleet_cfg));

    // Stage 2: screen it (closed-form fates, no executor).
    let (outcome, screen_secs) = timed(|| run_campaign_on(&fleet_cfg, &suite, &pop));
    assert!(outcome.escaped() > 0, "campaign produces escapes at scale");

    // Stage 3: execute — the executor-driven study, fast vs reference,
    // threads 1 and 8. All runs share one suite-profile and one unit-
    // profile cache, warmed by an untimed run, the way a campaign that
    // studies many processors amortizes profiling: every timed run pays
    // the same (zero) profiling cost and the chunk loops are what is
    // measured. Both caches are result-transparent (`ProfileKey`
    // excludes `reference_executor`), so all five studies are identical.
    let suite_cache = SuiteProfileCache::new();
    let unit_cache = ProfileCache::shared();
    let deep = |reference: bool, threads: usize| {
        run_deep_study_with(
            &execute_cfg(reference, threads),
            &suite_cache,
            Arc::clone(&unit_cache),
        )
    };
    deep(false, 0);
    let (fast_t1, exec_fast_t1) = timed(|| deep(false, 1));
    let (fast_t8, exec_fast_t8) = timed(|| deep(false, 8));
    let (ref_t1, exec_ref_t1) = timed(|| deep(true, 1));
    let (ref_t8, exec_ref_t8) = timed(|| deep(true, 8));
    let identical = studies_identical(&fast_t1, &ref_t1)
        && studies_identical(&fast_t8, &ref_t8)
        && studies_identical(&fast_t1, &fast_t8)
        && studies_identical(&ref_t1, &ref_t8);
    assert!(identical, "fast executor diverged from reference");

    // Stage 4: analyze — the columnar corpus passes.
    let (_, analyze_secs) = timed(|| analyze(&fast_t1));

    let speedup_t1 = exec_ref_t1 / exec_fast_t1;
    let speedup_t8 = exec_ref_t8 / exec_fast_t8;
    let fixed = sample_secs + screen_secs + analyze_secs;
    let campaign_speedup = (fixed + exec_ref_t1) / (fixed + exec_fast_t1);
    let speedup_quick = single_case_speedup(Duration::from_mins(20));

    eprintln!(
        "[campaign_hotpath] sample {sample_secs:.2}s, screen {screen_secs:.2}s, \
         execute fast {exec_fast_t1:.2}s/{exec_fast_t8:.2}s vs reference \
         {exec_ref_t1:.2}s/{exec_ref_t8:.2}s (t1/t8), analyze {analyze_secs:.3}s; \
         executor speedup {speedup_t1:.2}x (t1) {speedup_t8:.2}x (t8), \
         end-to-end {campaign_speedup:.2}x, quick-config {speedup_quick:.2}x"
    );
    let json = format!(
        "{{\n  \"fleet_cpus\": {},\n  \"defective_cpus\": {},\n  \
         \"stage_sample_secs\": {sample_secs:.4},\n  \
         \"stage_screen_secs\": {screen_secs:.4},\n  \
         \"stage_execute_fast_t1_secs\": {exec_fast_t1:.4},\n  \
         \"stage_execute_fast_t8_secs\": {exec_fast_t8:.4},\n  \
         \"stage_execute_reference_t1_secs\": {exec_ref_t1:.4},\n  \
         \"stage_execute_reference_t8_secs\": {exec_ref_t8:.4},\n  \
         \"stage_analyze_secs\": {analyze_secs:.4},\n  \
         \"results_identical\": {identical},\n  \
         \"speedup_execute_t1\": {speedup_t1:.4},\n  \
         \"speedup_execute_t8\": {speedup_t8:.4},\n  \
         \"campaign_speedup\": {campaign_speedup:.4},\n  \
         \"speedup_quick\": {speedup_quick:.4}\n}}\n",
        pop.total(),
        pop.defective.len(),
    );
    std::fs::write(ARTIFACT, json).expect("write BENCH_campaign.json");
    eprintln!("[campaign_hotpath] wrote {ARTIFACT}");
}

/// Tier-1 regression gate (`--quick`): exits nonzero if the executor
/// fast path's speedup over the reference chunk loop fell more than
/// 20% below the checked-in artifact.
fn quick_gate() {
    let json = match std::fs::read_to_string(ARTIFACT) {
        Ok(j) => j,
        Err(_) => {
            eprintln!("[campaign_hotpath] no {ARTIFACT}; run without --quick to create it");
            return;
        }
    };
    let recorded = artifact_field(&json, "speedup_quick")
        .expect("BENCH_campaign.json has no speedup_quick field");
    let current = single_case_speedup(Duration::from_mins(20));
    eprintln!(
        "[campaign_hotpath] quick gate: executor speedup {current:.2}x \
         (recorded {recorded:.2}x, floor {:.2}x)",
        recorded * 0.8
    );
    if current < recorded * 0.8 {
        eprintln!("[campaign_hotpath] FAIL: campaign executor speedup regressed >20%");
        std::process::exit(1);
    }
}

fn main() {
    if std::env::args().any(|a| a == "--quick") {
        quick_gate();
        return;
    }
    artifact();
}
