//! Key-parallel cold profiling: the deep study and the Farron evaluation
//! profile every distinct (testcase × core count) key once, up front,
//! and their per-item loops then only hit the cache — without changing
//! any result at any thread count.

use analysis::study::{candidates, run_deep_study_with, StudyConfig};
use farron::eval::{evaluate, EvalConfig};
use fleet::screening::SuiteProfileCache;
use sdc_model::Duration;
use silicon::catalog;
use std::collections::BTreeSet;
use std::sync::Arc;
use toolchain::{ProfileCache, Suite};

/// The `repro --quick` study, as the benchmark's `conform_quick` runs it.
fn quick_study(threads: usize) -> StudyConfig {
    StudyConfig {
        per_testcase: Duration::from_secs(30),
        seed: 27,
        max_candidates: Some(40),
        threads,
        ..StudyConfig::default()
    }
}

/// On fresh caches the quick study computes each distinct candidate key
/// exactly once (769, the count recorded before keys were prefetched),
/// and every per-case lookup is a hit.
#[test]
fn quick_study_computes_each_candidate_key_once() {
    let cfg = quick_study(2);
    let suite_cache = SuiteProfileCache::new();
    let unit_cache = ProfileCache::shared();
    let data = run_deep_study_with(&cfg, &suite_cache, Arc::clone(&unit_cache));

    let suite = Suite::standard();
    let mut keys = BTreeSet::new();
    for case in catalog::deep_study_set() {
        let cores = case.processor.physical_cores as usize;
        let profiles = suite_cache.get_or_build(&suite, cores, cfg.threads);
        let tested = candidates(&case.processor, &profiles, &suite, &cfg);
        let studied = data.case(case.name).expect("studied case");
        assert_eq!(studied.tested, tested, "{}", case.name);
        keys.extend(tested.into_iter().map(|id| (id, cores)));
    }
    let lookups: usize = data.cases.iter().map(|c| c.tested.len()).sum();

    let stats = unit_cache.stats();
    assert_eq!(keys.len(), 769);
    assert_eq!(stats.misses, keys.len() as u64, "one computation per key");
    assert_eq!(stats.hits, lookups as u64, "the per-case loop only hits");
    assert_eq!(stats.evictions, 0);
}

/// Farron evaluation rows are identical at 1, 2 and 8 threads.
#[test]
fn eval_rows_identical_across_thread_counts() {
    let cfg = |threads: usize| EvalConfig {
        reference_per_testcase: Duration::from_mins(1),
        seed: 909,
        online_duration: Duration::from_mins(15),
        rounds: 1,
        threads,
    };
    let serial = evaluate(&cfg(1));
    assert_eq!(serial.len(), farron::eval::EVAL_NAMES.len());
    for threads in [2, 8] {
        assert_eq!(evaluate(&cfg(threads)), serial, "{threads} threads");
    }
}
