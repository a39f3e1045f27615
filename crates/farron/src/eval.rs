//! The Farron evaluation (§7.2): Figure 11 and Table 4.
//!
//! Per faulty processor:
//!
//! 1. **Known errors** come from an adequate reference study (long
//!    burn-in testing of every candidate testcase) — the paper's "total
//!    known errors in the faulty processor".
//! 2. The reference results seed the [`PriorityBook`] (adequate
//!    pre-production testing accumulates the suspected set, §7.1).
//! 3. One **Farron regular round** (prioritized slots, burn-in
//!    environment) and one **baseline round** (equal 60 s slots, no
//!    burn-in) each measure coverage = detected / known (Figure 11).
//! 4. Overheads (Table 4): testing = round duration over the three-month
//!    cadence; control = the online simulation's backoff fraction.

use crate::baseline::Baseline;
use crate::online::{simulate_online, AppProfile, OnlineConfig};
use crate::priority::PriorityBook;
use crate::requeue::run_plan_requeue;
use crate::schedule::FarronScheduler;
use analysis::study::{run_case_cached, StudyConfig};
use fleet::chaos::FaultPlan;
use fleet::checkpoint::{
    self, check_fault_counts, run_resumable, CheckpointError, CheckpointStore, Fingerprint,
    Snapshot,
};
use fleet::screening::SuiteProfileCache;
use fleet::supervisor::{AttritionStats, RetryPolicy};
use sdc_model::{DetRng, Duration, Feature, TestcaseId};
use serde::{Deserialize, Serialize};
use silicon::catalog;
use std::sync::Arc;
use toolchain::{framework, ExecConfig, ProfileCache, Suite};

/// Evaluation parameters.
#[derive(Debug, Clone, Copy)]
pub struct EvalConfig {
    /// Reference ("adequate") per-testcase duration.
    pub reference_per_testcase: Duration,
    /// Seed.
    pub seed: u64,
    /// Online simulation length for control overhead.
    pub online_duration: Duration,
    /// Independent regular rounds averaged into each coverage figure.
    pub rounds: usize,
    /// Worker threads across evaluated processors (`0` = available
    /// parallelism). Each processor's randomness is forked from its name,
    /// so rows are identical for every value.
    pub threads: usize,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            reference_per_testcase: Duration::from_mins(10),
            seed: 711,
            online_duration: Duration::from_hours(6),
            rounds: 4,
            threads: 0,
        }
    }
}

/// One Figure 11 / Table 4 row.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRow {
    /// Processor name.
    pub name: &'static str,
    /// Known errors (failing testcases in the reference study).
    pub known_errors: usize,
    /// Farron one-round coverage (Figure 11).
    pub farron_coverage: f64,
    /// Baseline one-round coverage (Figure 11).
    pub baseline_coverage: f64,
    /// Farron round duration, hours (paper average: 1.02 h).
    pub farron_round_hours: f64,
    /// Baseline round duration, hours (paper: 10.55 h).
    pub baseline_round_hours: f64,
    /// Farron testing overhead (Table 4 "Test").
    pub farron_test_overhead: f64,
    /// Farron temperature-control overhead (Table 4 "Control").
    pub farron_control_overhead: f64,
    /// Baseline testing overhead (Table 4 baseline column, 0.488%).
    pub baseline_test_overhead: f64,
    /// Backoff seconds per hour in the online simulation.
    pub backoff_secs_per_hour: f64,
    /// Online SDC events under Farron protection (paper: none).
    pub protected_sdc_events: u64,
}

/// The six processors of Figure 11 / Table 4.
pub const EVAL_NAMES: [&str; 6] = ["MIX1", "SIMD1", "FPU1", "FPU2", "CNST1", "CNST2"];

/// The burn-in environment of Farron's regular tests: every core busy,
/// package preheated ("Farron initiates the testing by running burn-in
/// workloads and tests every core in a processor simultaneously").
fn burn_in_exec() -> ExecConfig {
    ExecConfig {
        preheat_c: Some(58.0),
        stress_idle_cores: true,
        ..ExecConfig::default()
    }
}

/// Shared per-evaluation context: the suite, both schedulers, and the
/// result-transparent profile caches.
struct EvalCtx {
    suite: Suite,
    baseline: Baseline,
    scheduler: FarronScheduler,
    suite_cache: SuiteProfileCache,
    unit_cache: Arc<ProfileCache>,
}

impl EvalCtx {
    fn fresh() -> EvalCtx {
        EvalCtx {
            suite: Suite::standard(),
            baseline: Baseline::default(),
            scheduler: FarronScheduler::default(),
            suite_cache: SuiteProfileCache::new(),
            unit_cache: ProfileCache::shared(),
        }
    }

    /// Profiles, key-parallel on `threads` workers, every unit profile the
    /// rows `names` read: the whole suite on each row's core count. The
    /// baseline plan runs every testcase on every core; the reference
    /// study and the Farron plan read subsets of the same keys. Both run
    /// configurations key identically ([`burn_in_exec`] changes only knobs
    /// outside [`toolchain::ProfileKey`]).
    fn prefetch(&self, names: &[&str], threads: usize) {
        let keys = names.iter().flat_map(|name| {
            let cores = catalog::by_name(name)
                .expect("catalog name")
                .processor
                .physical_cores as usize;
            self.suite.testcases().iter().map(move |t| (t.id, cores))
        });
        fleet::parallel::prefetch_profiles(
            &self.suite,
            keys,
            &burn_in_exec(),
            &self.unit_cache,
            threads,
        );
    }
}

/// How the regular rounds of one evaluation row execute.
#[derive(Clone, Copy)]
enum RoundMode<'a> {
    /// In-order execution of every window — the seed-pinned Figure 11
    /// path; its numbers must never change.
    Plain,
    /// Chaos-exposed execution: faults interrupt windows, interrupted
    /// windows are re-queued at the end of the round
    /// ([`run_plan_requeue`]).
    Chaos {
        plan: &'a FaultPlan,
        policy: &'a RetryPolicy,
    },
}

/// Evaluates one processor row. Pure in `(cfg, name, mode)`: randomness
/// is forked from the name, caches only memoize pure functions.
fn eval_row(
    cfg: &EvalConfig,
    name: &'static str,
    mode: RoundMode<'_>,
    ctx: &EvalCtx,
) -> (EvalRow, AttritionStats) {
    let suite = &ctx.suite;
    let case = catalog::by_name(name).expect("catalog name");
    let processor = &case.processor;
    let n_cores = processor.physical_cores as usize;
    let profiles = ctx.suite_cache.get_or_build(suite, n_cores, cfg.threads);

    // 1. Adequate reference study → known errors.
    let reference = run_case_cached(
        &case,
        suite,
        &profiles,
        &StudyConfig {
            per_testcase: cfg.reference_per_testcase,
            seed: cfg.seed,
            max_candidates: None,
            exec: burn_in_exec(),
            threads: 1,
        },
        Some(Arc::clone(&ctx.unit_cache)),
    );
    let known: Vec<TestcaseId> = reference.failing.clone();

    // 2. Seed priorities from the adequate testing.
    let mut book = PriorityBook::new();
    for &id in &known {
        book.record_processor_detection(processor.id.0, id);
    }
    // The protected application engages the implicated features.
    let app_features: Vec<Feature> = {
        let mut v: Vec<Feature> = known.iter().map(|&id| suite.get(id).feature).collect();
        v.sort();
        v.dedup();
        if v.is_empty() {
            vec![Feature::Alu]
        } else {
            v
        }
    };

    // 3. Regular rounds, averaged: Farron (prioritized + burn-in)
    // vs. baseline (equal slots, no burn-in).
    let boundary_c = 58.0;
    let farron_plan = ctx
        .scheduler
        .plan(suite, &book, processor.id, &app_features, boundary_c);
    let baseline_plan = ctx.baseline.plan(suite);
    let known_n = known.len().max(1);
    // Coverage sums of the Farron (leg 0) and baseline (leg 1) rounds.
    let mut cov_sums = [0.0; 2];
    let mut attrition = AttritionStats::default();
    let coverage = |report: &toolchain::TestReport| {
        report
            .failing_testcases()
            .iter()
            .filter(|t| known.contains(t))
            .count() as f64
            / known_n as f64
    };
    for round in 0..cfg.rounds.max(1) {
        let legs = [
            (&farron_plan, burn_in_exec(), cfg.seed + round as u64),
            (
                &baseline_plan,
                ExecConfig::default(),
                cfg.seed ^ 0xb ^ round as u64,
            ),
        ];
        for (leg, (test_plan, exec, seed)) in legs.into_iter().enumerate() {
            let mut rng = DetRng::new(seed).fork_str(name);
            let cache = Some(Arc::clone(&ctx.unit_cache));
            let report = match mode {
                RoundMode::Plain => {
                    framework::run_plan_cached(processor, suite, test_plan, exec, &mut rng, cache)
                }
                RoundMode::Chaos { plan, policy } => {
                    let label = crate::requeue::round_label(name, round as u64, leg as u64);
                    let out = run_plan_requeue(
                        processor, suite, test_plan, exec, &rng, cache, label, plan, policy,
                    );
                    attrition.merge(&out.attrition);
                    out.report
                }
            };
            cov_sums[leg] += coverage(&report);
        }
    }
    let rounds = cfg.rounds.max(1) as f64;

    // 4. Online control overhead: the impacted workload simulated with
    // the toolchain (§7.2) at production-like utilization; among the
    // known failing testcases pick the coolest profile (applications
    // are diluted relative to instruction loops).
    let app_testcase = known
        .iter()
        .copied()
        .max_by(|&a, &b| {
            let pa = fleet::screening::StaticProfile::of(suite.get(a), n_cores).power;
            let pb = fleet::screening::StaticProfile::of(suite.get(b), n_cores).power;
            pa.partial_cmp(&pb).expect("finite power")
        })
        .unwrap_or(TestcaseId(0));
    // Run the hottest impacted workload at moderate utilization so the
    // die sits near the learned boundary; occasional request storms
    // (spikes) push past it and trigger the rare backoffs of Table 4.
    let app = AppProfile {
        testcase: app_testcase,
        utilization: 0.25,
        burst_amplitude: 0.12,
        burst_period: Duration::from_secs(120),
        spike_prob: 0.002,
    };
    let cores: Vec<u16> = (0..processor.physical_cores).collect();
    let mut rng_o = DetRng::new(cfg.seed).fork_str(name);
    let online = simulate_online(
        processor,
        suite,
        &app,
        &cores,
        &OnlineConfig {
            duration: cfg.online_duration,
            ..OnlineConfig::default()
        },
        &mut rng_o,
    );

    let cadence_secs = ctx.baseline.cadence.as_secs_f64();
    let row = EvalRow {
        name,
        known_errors: known.len(),
        farron_coverage: cov_sums[0] / rounds,
        baseline_coverage: cov_sums[1] / rounds,
        farron_round_hours: farron_plan.total_duration().as_hours_f64(),
        baseline_round_hours: baseline_plan.total_duration().as_hours_f64(),
        farron_test_overhead: farron_plan.total_duration().as_secs_f64() / cadence_secs,
        farron_control_overhead: online.backoff_fraction,
        baseline_test_overhead: ctx.baseline.test_overhead(suite),
        backoff_secs_per_hour: online.backoff_secs_per_hour,
        protected_sdc_events: online.sdc_events,
    };
    (row, attrition)
}

/// Runs the full evaluation.
///
/// Processors are sharded across `cfg.threads` workers; each one's
/// randomness is forked from its name and the shared caches are
/// result-transparent, so the rows are identical for every thread count.
pub fn evaluate(cfg: &EvalConfig) -> Vec<EvalRow> {
    match eval_rows(cfg, RoundMode::Plain, None, &EvalCtx::fresh()) {
        Ok(EvalRun::Completed { rows, .. }) => rows,
        other => unreachable!("a store-less evaluation always completes, got {other:?}"),
    }
}

/// Format version of the evaluation row checkpoint.
pub const EVAL_FORMAT_VERSION: u32 = 1;

/// One completed evaluation row plus its attrition accounting, in a
/// serializable shape (`name` travels as a string and is mapped back to
/// the [`EVAL_NAMES`] entry on restore).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalRowRecord {
    /// Processor name (must be one of [`EVAL_NAMES`]).
    pub name: String,
    /// [`EvalRow::known_errors`].
    pub known_errors: u64,
    /// [`EvalRow::farron_coverage`].
    pub farron_coverage: f64,
    /// [`EvalRow::baseline_coverage`].
    pub baseline_coverage: f64,
    /// [`EvalRow::farron_round_hours`].
    pub farron_round_hours: f64,
    /// [`EvalRow::baseline_round_hours`].
    pub baseline_round_hours: f64,
    /// [`EvalRow::farron_test_overhead`].
    pub farron_test_overhead: f64,
    /// [`EvalRow::farron_control_overhead`].
    pub farron_control_overhead: f64,
    /// [`EvalRow::baseline_test_overhead`].
    pub baseline_test_overhead: f64,
    /// [`EvalRow::backoff_secs_per_hour`].
    pub backoff_secs_per_hour: f64,
    /// [`EvalRow::protected_sdc_events`].
    pub protected_sdc_events: u64,
    /// Attrition: test windows supervised across this row's rounds.
    pub att_items: u64,
    /// Attrition: windows that completed.
    pub att_completed: u64,
    /// Attrition: windows lost after exhausting retries.
    pub att_lost: u64,
    /// Attrition: extra attempts beyond the first.
    pub att_retries: u64,
    /// Attrition: faults by [`fleet::chaos::OpFault::index`] (length 5).
    pub att_faults: Vec<u64>,
    /// Attrition: accounted backoff seconds.
    pub att_backoff_secs: f64,
}

serde::impl_json_struct!(EvalRowRecord {
    name,
    known_errors,
    farron_coverage,
    baseline_coverage,
    farron_round_hours,
    baseline_round_hours,
    farron_test_overhead,
    farron_control_overhead,
    baseline_test_overhead,
    backoff_secs_per_hour,
    protected_sdc_events,
    att_items,
    att_completed,
    att_lost,
    att_retries,
    att_faults,
    att_backoff_secs,
});

impl EvalRowRecord {
    /// Captures one completed row.
    pub fn of(row: &EvalRow, attrition: &AttritionStats) -> EvalRowRecord {
        EvalRowRecord {
            name: row.name.to_string(),
            known_errors: row.known_errors as u64,
            farron_coverage: row.farron_coverage,
            baseline_coverage: row.baseline_coverage,
            farron_round_hours: row.farron_round_hours,
            baseline_round_hours: row.baseline_round_hours,
            farron_test_overhead: row.farron_test_overhead,
            farron_control_overhead: row.farron_control_overhead,
            baseline_test_overhead: row.baseline_test_overhead,
            backoff_secs_per_hour: row.backoff_secs_per_hour,
            protected_sdc_events: row.protected_sdc_events,
            att_items: attrition.items,
            att_completed: attrition.completed,
            att_lost: attrition.lost,
            att_retries: attrition.retries,
            att_faults: attrition.faults_by_kind.to_vec(),
            att_backoff_secs: attrition.backoff_secs,
        }
    }

    /// Restores the row; `None` when the stored name is not an
    /// evaluation processor.
    pub fn to_row(&self) -> Option<EvalRow> {
        let name = *EVAL_NAMES.iter().find(|&&n| n == self.name)?;
        Some(EvalRow {
            name,
            known_errors: self.known_errors as usize,
            farron_coverage: self.farron_coverage,
            baseline_coverage: self.baseline_coverage,
            farron_round_hours: self.farron_round_hours,
            baseline_round_hours: self.baseline_round_hours,
            farron_test_overhead: self.farron_test_overhead,
            farron_control_overhead: self.farron_control_overhead,
            baseline_test_overhead: self.baseline_test_overhead,
            backoff_secs_per_hour: self.backoff_secs_per_hour,
            protected_sdc_events: self.protected_sdc_events,
        })
    }

    /// Restores the row's attrition accounting.
    pub fn attrition(&self) -> AttritionStats {
        let mut stats = AttritionStats {
            items: self.att_items,
            completed: self.att_completed,
            lost: self.att_lost,
            retries: self.att_retries,
            backoff_secs: self.att_backoff_secs,
            ..AttritionStats::default()
        };
        for (acc, &n) in stats.faults_by_kind.iter_mut().zip(self.att_faults.iter()) {
            *acc = n;
        }
        stats
    }
}

/// A versioned, fingerprinted snapshot of completed evaluation rows.
///
/// The fingerprint reuses the campaign [`Fingerprint`] shape; the
/// evaluation has no fleet, so the capacity seat carries the round
/// count instead (see [`eval_fingerprint`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalCheckpoint {
    /// Format version ([`EVAL_FORMAT_VERSION`]).
    pub version: u32,
    /// Which evaluation this snapshot belongs to.
    pub fingerprint: Fingerprint,
    /// Completed rows, in completion (not [`EVAL_NAMES`]) order.
    pub rows: Vec<EvalRowRecord>,
}

serde::impl_json_struct!(EvalCheckpoint {
    version,
    fingerprint,
    rows,
});

/// Identity of a chaos evaluation for checkpoint validation: seed,
/// round count (in the fingerprint's capacity seat), and the canonical
/// fault-plan spec.
pub fn eval_fingerprint(cfg: &EvalConfig, plan: &FaultPlan) -> Fingerprint {
    Fingerprint {
        seed: cfg.seed,
        total_cpus: cfg.rounds as u64,
        plan: plan.spec(),
    }
}

impl EvalCheckpoint {
    /// An empty snapshot for `fingerprint`.
    pub fn empty(fingerprint: Fingerprint) -> EvalCheckpoint {
        EvalCheckpoint {
            version: EVAL_FORMAT_VERSION,
            fingerprint,
            rows: Vec::new(),
        }
    }
}

impl Snapshot for EvalCheckpoint {
    type Record = EvalRowRecord;
    const VERSION: u32 = EVAL_FORMAT_VERSION;

    fn header(&self) -> (u32, &Fingerprint) {
        (self.version, &self.fingerprint)
    }

    fn records(&mut self) -> &mut Vec<EvalRowRecord> {
        &mut self.rows
    }

    fn item_index(record: &EvalRowRecord) -> Option<usize> {
        EVAL_NAMES.iter().position(|&n| n == record.name)
    }

    fn check(record: &EvalRowRecord) -> Result<(), String> {
        if Self::item_index(record).is_none() {
            return Err(format!("unknown eval row '{}'", record.name));
        }
        check_fault_counts(&record.att_faults)
    }
}

/// The outcome of a resumable evaluation run.
#[derive(Debug)]
pub enum EvalRun {
    /// Every row evaluated or restored, in [`EVAL_NAMES`] order.
    Completed {
        /// The Figure 11 / Table 4 rows.
        rows: Vec<EvalRow>,
        /// Aggregated attrition across all rows.
        attrition: AttritionStats,
    },
    /// The store's kill hook stopped the run; the snapshot on disk
    /// holds the rows completed so far.
    Interrupted,
}

/// Runs the evaluation with every regular round exposed to `plan`:
/// interrupted test windows are re-queued ([`run_plan_requeue`]), lost
/// windows are dropped from coverage, and the aggregated attrition is
/// returned alongside the rows.
///
/// Note the quiet-plan rows differ from [`evaluate`]'s: the re-queue
/// path forks each window's RNG from its plan index (so windows can be
/// re-ordered), while the plain path draws sequentially. Within the
/// chaos path, supervision is transparent — see the requeue tests.
///
/// With a `store`, completed rows are checkpointed. If the store's
/// snapshot exists it is loaded and validated against
/// [`eval_fingerprint`]; its rows are restored instead of re-evaluated,
/// so interrupt-plus-resume returns exactly what an uninterrupted run
/// would. A snapshot is written every `store.every` completed rows and
/// once at the end ([`run_resumable`]); rows are few and expensive, so
/// callers pass 1. `store.kill_after` simulates SIGKILL after that many
/// new rows. Without a store the run always completes.
pub fn evaluate_chaos(
    cfg: &EvalConfig,
    plan: &FaultPlan,
    policy: &RetryPolicy,
    store: Option<&CheckpointStore>,
) -> Result<EvalRun, CheckpointError> {
    eval_rows(
        cfg,
        RoundMode::Chaos { plan, policy },
        store,
        &EvalCtx::fresh(),
    )
}

/// The row loop behind both drivers, on a given context; only the rows
/// the snapshot does not hold are profiled.
fn eval_rows(
    cfg: &EvalConfig,
    mode: RoundMode<'_>,
    store: Option<&CheckpointStore>,
    ctx: &EvalCtx,
) -> Result<EvalRun, CheckpointError> {
    let plan = match mode {
        RoundMode::Plain => &FaultPlan::default(),
        RoundMode::Chaos { plan, .. } => plan,
    };
    let fingerprint = eval_fingerprint(cfg, plan);
    let prior = match store {
        Some(store) if store.path().exists() => checkpoint::load(store.path(), &fingerprint)?,
        _ => EvalCheckpoint::empty(fingerprint),
    };
    let todo: Vec<&str> = EVAL_NAMES
        .iter()
        .copied()
        .filter(|name| !prior.rows.iter().any(|r| r.name == *name))
        .collect();
    ctx.prefetch(&todo, cfg.threads);

    let records = run_resumable(&EVAL_NAMES, cfg.threads, store, prior, |_, &name| {
        let (row, attrition) = eval_row(cfg, name, mode, ctx);
        EvalRowRecord::of(&row, &attrition)
    })?;
    let Some(records) = records else {
        return Ok(EvalRun::Interrupted);
    };
    let mut rows = Vec::with_capacity(EVAL_NAMES.len());
    let mut total = AttritionStats::default();
    for record in records {
        let row = record.to_row().ok_or_else(|| {
            CheckpointError::Corrupt(format!("unknown eval row '{}'", record.name))
        })?;
        total.merge(&record.attrition());
        rows.push(row);
    }
    Ok(EvalRun::Completed {
        rows,
        attrition: total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::study::run_case;
    use fleet::screening::StaticSuiteProfile;

    /// One processor end to end (the full six run in the bench harness).
    #[test]
    fn simd1_round_beats_baseline() {
        let suite = Suite::standard();
        let case = catalog::by_name("SIMD1").unwrap();
        let profiles = StaticSuiteProfile::build(&suite, case.processor.physical_cores as usize);
        let reference = run_case(
            &case,
            &suite,
            &profiles,
            &StudyConfig {
                per_testcase: Duration::from_mins(10),
                seed: 5,
                max_candidates: None,
                exec: burn_in_exec(),
                threads: 1,
            },
        );
        assert!(!reference.failing.is_empty());
        let mut book = PriorityBook::new();
        for &id in &reference.failing {
            book.record_processor_detection(case.processor.id.0, id);
        }
        let plan = FarronScheduler::default().plan(
            &suite,
            &book,
            case.processor.id,
            &[Feature::VecUnit],
            58.0,
        );
        // Farron's round is far shorter than the 10.55 h baseline.
        assert!(plan.total_duration().as_hours_f64() < 3.0);
        let mut rng = DetRng::new(6);
        let report = framework::run_plan(&case.processor, &suite, &plan, burn_in_exec(), &mut rng);
        let farron_detected = report
            .failing_testcases()
            .iter()
            .filter(|t| reference.failing.contains(t))
            .count();
        let farron_coverage = farron_detected as f64 / reference.failing.len() as f64;

        let mut rng_b = DetRng::new(7);
        let baseline_report = framework::run_plan(
            &case.processor,
            &suite,
            &Baseline::default().plan(&suite),
            ExecConfig::default(),
            &mut rng_b,
        );
        let baseline_detected = baseline_report
            .failing_testcases()
            .iter()
            .filter(|t| reference.failing.contains(t))
            .count();
        let baseline_coverage = baseline_detected as f64 / reference.failing.len() as f64;
        assert!(
            farron_coverage >= baseline_coverage,
            "farron {farron_coverage} vs baseline {baseline_coverage}"
        );
        assert!(
            farron_coverage > 0.55,
            "farron one-round coverage {farron_coverage}"
        );
    }

    /// Small enough to evaluate all six processors a few times in a test.
    fn tiny_cfg() -> EvalConfig {
        EvalConfig {
            reference_per_testcase: Duration::from_mins(1),
            seed: 909,
            online_duration: Duration::from_mins(15),
            rounds: 1,
            threads: 0,
        }
    }

    fn storm() -> FaultPlan {
        FaultPlan {
            seed: 21,
            offline: 0.05,
            crash: 0.03,
            preempt: 0.10,
            read_error: 0.05,
            timeout: 0.02,
        }
    }

    /// A made-up completed row for snapshot tests.
    fn record(name: &'static str, known_errors: usize) -> EvalRowRecord {
        let row = EvalRow {
            name,
            known_errors,
            farron_coverage: 1.0,
            baseline_coverage: 0.5,
            farron_round_hours: 1.0,
            baseline_round_hours: 10.0,
            farron_test_overhead: 0.0,
            farron_control_overhead: 0.0,
            baseline_test_overhead: 0.0,
            backoff_secs_per_hour: 0.0,
            protected_sdc_events: 0,
        };
        EvalRowRecord::of(&row, &AttritionStats::default())
    }

    /// The rows and attrition of a run that must complete.
    fn completed(run: Result<EvalRun, CheckpointError>) -> (Vec<EvalRow>, AttritionStats) {
        match run {
            Ok(EvalRun::Completed { rows, attrition }) => (rows, attrition),
            other => panic!("expected a completed evaluation, got {other:?}"),
        }
    }

    #[test]
    fn quiet_chaos_eval_loses_nothing() {
        let (rows, attrition) = completed(evaluate_chaos(
            &tiny_cfg(),
            &FaultPlan::default(),
            &RetryPolicy::default(),
            None,
        ));
        assert_eq!(rows.len(), EVAL_NAMES.len());
        assert_eq!(attrition.lost, 0);
        assert_eq!(attrition.retries, 0);
        assert_eq!(attrition.total_faults(), 0);
        assert_eq!(attrition.coverage(), 1.0);
        for row in &rows {
            assert!((0.0..=1.0).contains(&row.farron_coverage), "{}", row.name);
        }
    }

    #[test]
    fn burn_in_and_default_runs_share_profile_keys() {
        let suite = Suite::standard();
        for tc in suite.testcases() {
            assert_eq!(
                toolchain::ProfileKey::of(tc.id, 24, &burn_in_exec()),
                toolchain::ProfileKey::of(tc.id, 24, &ExecConfig::default()),
            );
        }
    }

    #[test]
    fn resuming_a_complete_snapshot_profiles_nothing() {
        let cfg = tiny_cfg();
        let path = std::env::temp_dir().join("sdc-eval-ck-complete.json");
        let mut snapshot = EvalCheckpoint::empty(eval_fingerprint(&cfg, &storm()));
        for (i, name) in EVAL_NAMES.iter().enumerate() {
            snapshot.rows.push(record(name, i));
        }
        let store = CheckpointStore::new(path.clone(), 1);
        store.write(&snapshot).unwrap();

        let ctx = EvalCtx::fresh();
        let mode = RoundMode::Chaos {
            plan: &storm(),
            policy: &RetryPolicy::default(),
        };
        let run = eval_rows(&cfg, mode, Some(&store), &ctx).unwrap();
        let EvalRun::Completed { rows, .. } = run else {
            panic!("resume run has no kill hook");
        };
        let known: Vec<usize> = rows.iter().map(|r| r.known_errors).collect();
        assert_eq!(known, (0..EVAL_NAMES.len()).collect::<Vec<_>>());
        assert_eq!(ctx.unit_cache.stats().misses, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpointed_eval_interrupt_resume_matches_uninterrupted() {
        let cfg = tiny_cfg();
        let policy = RetryPolicy::default();
        let dir = std::env::temp_dir().join("sdc-eval-ck-test");
        std::fs::create_dir_all(&dir).unwrap();

        let full_store = CheckpointStore::new(dir.join("full.json"), 1);
        let (full_rows, full_att) =
            match evaluate_chaos(&cfg, &storm(), &policy, Some(&full_store)).unwrap() {
                EvalRun::Completed { rows, attrition } => (rows, attrition),
                EvalRun::Interrupted => panic!("run without a kill hook cannot be interrupted"),
            };
        assert_eq!(full_rows.len(), EVAL_NAMES.len());
        assert!(
            full_att.total_faults() > 0,
            "storm must interrupt something"
        );

        // Kill after two new rows, then resume from the snapshot.
        let mut killer = CheckpointStore::new(dir.join("killed.json"), 1);
        killer.kill_after = Some(2);
        assert!(matches!(
            evaluate_chaos(&cfg, &storm(), &policy, Some(&killer)).unwrap(),
            EvalRun::Interrupted
        ));
        let resume_store = CheckpointStore::new(dir.join("killed.json"), 1);
        let (rows, attrition) =
            match evaluate_chaos(&cfg, &storm(), &policy, Some(&resume_store)).unwrap() {
                EvalRun::Completed { rows, attrition } => (rows, attrition),
                EvalRun::Interrupted => panic!("resume run has no kill hook"),
            };
        assert_eq!(rows, full_rows);
        assert_eq!(attrition, full_att);

        // A snapshot never resumes the wrong evaluation.
        let mut other = cfg;
        other.seed ^= 1;
        assert!(matches!(
            evaluate_chaos(&other, &storm(), &policy, Some(&resume_store)),
            Err(CheckpointError::Mismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_does_not_change_eval_results() {
        // One context for every run: profiles are result-transparent, and
        // sharing them keeps the six evaluations cheap.
        let ctx = EvalCtx::fresh();
        let policy = RetryPolicy::default();
        let mode = RoundMode::Chaos {
            plan: &storm(),
            policy: &policy,
        };
        let dir = std::env::temp_dir().join(format!("sdc-eval-ck-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for threads in [1, 2] {
            let cfg = EvalConfig {
                threads,
                ..tiny_cfg()
            };
            let (rows, attrition) = completed(eval_rows(&cfg, mode, None, &ctx));
            assert!(
                attrition.total_faults() > 0,
                "storm must interrupt something"
            );
            for every in [1, 4] {
                let store =
                    CheckpointStore::new(dir.join(format!("t{threads}-e{every}.json")), every);
                let (stored_rows, stored_att) =
                    completed(eval_rows(&cfg, mode, Some(&store), &ctx));
                assert_eq!(stored_rows, rows, "threads {threads}, every {every}");
                assert_eq!(stored_att, attrition, "threads {threads}, every {every}");
                // The final snapshot holds every row.
                let snapshot: EvalCheckpoint =
                    checkpoint::load(store.path(), &eval_fingerprint(&cfg, &storm())).unwrap();
                assert_eq!(snapshot.rows.len(), EVAL_NAMES.len());
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unwritable_checkpoint_store_is_a_typed_error_not_a_panic() {
        // Pointing the store at a directory that does not exist makes the
        // first snapshot write fail; the evaluation must surface that as
        // CheckpointError::Io instead of panicking.
        let path = std::env::temp_dir()
            .join(format!("sdc-eval-no-such-dir-{}", std::process::id()))
            .join("ckpt.json");
        let store = CheckpointStore::new(&path, 1);
        let result = evaluate_chaos(&tiny_cfg(), &storm(), &RetryPolicy::default(), Some(&store));
        match result {
            Err(CheckpointError::Io(_)) => {}
            other => panic!("expected CheckpointError::Io, got {other:?}"),
        }
    }

    #[test]
    fn resume_rejects_unknown_rows_and_short_fault_vectors() {
        let cfg = tiny_cfg();
        let policy = RetryPolicy::default();
        let mode = RoundMode::Chaos {
            plan: &storm(),
            policy: &policy,
        };
        let dir = std::env::temp_dir().join(format!("sdc-eval-ck-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store = CheckpointStore::new(dir.join("ck.json"), 1);
        let mut unknown = record("FPU1", 3);
        unknown.name = "FPU9".into();
        let mut short = record("FPU1", 3);
        short.att_faults.pop();
        for (bad, error) in [
            (unknown, "record 1: unknown eval row 'FPU9'"),
            (short, "record 1: 4 fault counts, expected 5"),
        ] {
            let mut snapshot = EvalCheckpoint::empty(eval_fingerprint(&cfg, &storm()));
            snapshot.rows = vec![record("MIX1", 2), bad];
            store.write(&snapshot).unwrap();
            // Rejected at load, before anything is profiled or evaluated.
            let ctx = EvalCtx::fresh();
            match eval_rows(&cfg, mode, Some(&store), &ctx) {
                Err(CheckpointError::Corrupt(e)) => assert_eq!(e, error),
                other => panic!("expected CheckpointError::Corrupt, got {other:?}"),
            }
            assert_eq!(ctx.unit_cache.stats().misses, 0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
