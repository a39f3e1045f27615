//! The end-to-end test campaign: lifecycle over the whole fleet.

use crate::chaos::{FaultPlan, OpFault};
use crate::checkpoint::{
    run_resumable, CampaignCheckpoint, CheckpointError, CheckpointStore, Fingerprint, ItemRecord,
};
use crate::lifecycle::{Stage, StageSpec};
use crate::population::{FleetConfig, FleetPopulation};
use crate::screening::{stage_detection_probability, SuiteProfileCache};
use crate::supervisor::{run_slot, AttritionStats, RetryPolicy, SlotError};
use sdc_model::{ArchId, DetRng};
use silicon::Processor;
use std::collections::HashMap;
use toolchain::{CacheStats, Suite};

/// Samples the age (years after factory delivery) at which a defect
/// starts producing errors.
///
/// Manufacturing defects split into born-active parts and early-life
/// degraders: some are detectable at the factory gate, most manifest
/// during the burn-in window before production, and a tail activates
/// months later — the processors that "have even passed several rounds of
/// regular tests" before failing (Observation 2).
fn sample_activation_age(rng: &mut DetRng) -> f64 {
    let x = rng.unit();
    if x < 0.26 {
        0.0
    } else if x < 0.34 {
        rng.range_f64(0.005, 0.02)
    } else if x < 0.87 {
        rng.range_f64(0.03, 0.12)
    } else {
        rng.range_f64(0.13, 1.5)
    }
}

/// Where a defective processor was (first) caught, if at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Caught at a lifecycle stage; for `Stage::Regular` the payload is
    /// the zero-based round index (Observation 2: "some have even passed
    /// several rounds of regular tests").
    Caught(Stage, u32),
    /// Escaped every test (a latent producer of production SDCs).
    Escaped,
}

/// The campaign result: everything needed for Tables 1 and 2.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// Fleet size.
    pub total_cpus: u64,
    /// Packages per architecture.
    pub per_arch_total: Vec<(ArchId, u64)>,
    /// (architecture, fate) of every defective package, in population
    /// order — identical for every thread count.
    pub fates: Vec<(ArchId, Fate)>,
    /// Suite-profile cache counters: one miss per distinct package core
    /// count, a hit for every other defective processor.
    pub suite_cache: CacheStats,
}

impl CampaignOutcome {
    /// Detected count at `stage`.
    pub fn caught_at(&self, stage: Stage) -> u64 {
        self.fates
            .iter()
            .filter(|&&(_, f)| matches!(f, Fate::Caught(s, _) if s == stage))
            .count() as u64
    }

    /// Defective processors first caught at regular round `round` or
    /// later (round is zero-based).
    pub fn caught_in_regular_round_at_least(&self, round: u32) -> u64 {
        self.fates
            .iter()
            .filter(|&&(_, f)| matches!(f, Fate::Caught(Stage::Regular, r) if r >= round))
            .count() as u64
    }

    /// Total detected across all stages.
    pub fn total_caught(&self) -> u64 {
        self.fates
            .iter()
            .filter(|&&(_, f)| matches!(f, Fate::Caught(..)))
            .count() as u64
    }

    /// Defective packages that escaped all testing.
    pub fn escaped(&self) -> u64 {
        self.fates
            .iter()
            .filter(|&&(_, f)| f == Fate::Escaped)
            .count() as u64
    }

    /// Failure rate in ‱ (per ten thousand) at `stage` — a Table 1 cell.
    pub fn rate_bp(&self, stage: Stage) -> f64 {
        self.caught_at(stage) as f64 / self.total_cpus as f64 * 10_000.0
    }

    /// Total detected failure rate in ‱ — Table 1's Total cell.
    pub fn total_rate_bp(&self) -> f64 {
        self.total_caught() as f64 / self.total_cpus as f64 * 10_000.0
    }

    /// Table 1 as (label, rate in ‱) rows.
    pub fn table1(&self) -> Vec<(String, f64)> {
        let mut rows: Vec<(String, f64)> = Stage::ORDER
            .iter()
            .map(|&s| (s.label().to_string(), self.rate_bp(s)))
            .collect();
        rows.push(("Total".to_string(), self.total_rate_bp()));
        rows
    }

    /// Table 2 as (arch, detected rate in ‱) rows plus the average.
    pub fn table2(&self) -> Vec<(String, f64)> {
        let mut per_arch_caught: HashMap<ArchId, u64> = HashMap::new();
        for &(a, f) in &self.fates {
            if matches!(f, Fate::Caught(..)) {
                *per_arch_caught.entry(a).or_insert(0) += 1;
            }
        }
        let mut rows = Vec::new();
        for &(a, total) in &self.per_arch_total {
            let caught = per_arch_caught.get(&a).copied().unwrap_or(0);
            rows.push((a.to_string(), caught as f64 / total as f64 * 10_000.0));
        }
        rows.push(("avg".to_string(), self.total_rate_bp()));
        rows
    }
}

/// Runs the four-stage campaign over a sampled fleet.
///
/// Static suite profiles are computed once per distinct core count; each
/// defective processor then walks the lifecycle, getting caught at a
/// stage with the screening probability (regular testing is applied once
/// per three-month round of the processor's age).
///
/// Defective processors are sharded across `cfg.threads` workers
/// ([`crate::parallel::run_indexed`]); each processor's randomness is a
/// stream forked from `(cfg.seed, processor id)`, so the outcome is
/// bitwise identical for every thread count.
pub fn run_campaign(cfg: &FleetConfig, suite: &Suite) -> CampaignOutcome {
    let pop = FleetPopulation::sample(cfg);
    run_campaign_on(cfg, suite, &pop)
}

/// [`run_campaign`] over an already-sampled population (lets callers
/// reuse one fleet across serial/parallel comparison runs).
pub fn run_campaign_on(cfg: &FleetConfig, suite: &Suite, pop: &FleetPopulation) -> CampaignOutcome {
    let pipeline = StageSpec::default_pipeline();
    let clock_hz = 1e7;
    let root = DetRng::new(cfg.seed).fork_str("fleet-campaign");
    let profile_cache = SuiteProfileCache::new();

    let fates = crate::parallel::run_indexed(&pop.defective, cfg.threads, |_, processor| {
        let mut rng = root.fork(processor.id.0);
        let profiles =
            profile_cache.get_or_build(suite, processor.physical_cores as usize, cfg.threads);
        let fate = processor_fate(processor, suite, &profiles, &pipeline, clock_hz, &mut rng);
        (processor.arch, fate)
    });
    CampaignOutcome {
        total_cpus: pop.total(),
        per_arch_total: pop.per_arch_total.clone(),
        fates,
        suite_cache: profile_cache.stats(),
    }
}

/// A campaign outcome under supervision: possibly-partial coverage plus
/// explicit attrition accounting instead of a panic.
#[derive(Debug)]
pub struct SupervisedCampaign {
    /// The (partial) campaign outcome. `fates` holds only the slots
    /// that completed, still in population order, so every table is
    /// computed over the covered subset.
    pub outcome: CampaignOutcome,
    /// Retry/fault/backoff accounting over all slots.
    pub attrition: AttritionStats,
    /// Population indices of the slots lost after exhausting retries.
    pub lost: Vec<u64>,
}

/// How a resumable campaign run ended.
#[derive(Debug)]
pub enum ResumableRun {
    /// Every slot was driven to completion or loss.
    Completed(SupervisedCampaign),
    /// The simulated kill fired ([`CheckpointStore::kill_after`]); the
    /// last written snapshot is on disk, ready for resume.
    Interrupted,
}

/// The checkpoint identity of a `(config, fault plan)` campaign.
pub fn campaign_fingerprint(cfg: &FleetConfig, plan: &FaultPlan) -> Fingerprint {
    Fingerprint {
        seed: cfg.seed,
        total_cpus: cfg.total_cpus,
        plan: plan.spec(),
    }
}

/// The supervised, checkpointable campaign driver: [`run_campaign`]
/// under a fault plan and retry policy. Slots that draw operational
/// faults retry with backoff; slots that exhaust the budget are dropped
/// from the outcome and reported in the attrition stats.
///
/// Each slot is a pure function of `(cfg.seed, plan, population
/// index)`, so `resume` only needs the completed [`ItemRecord`]s:
/// workers skip those indices and recompute the rest, and the assembled
/// outcome is bitwise identical to an uninterrupted run at any thread
/// count. With a `store`, snapshots are written as
/// [`run_resumable`] describes; `store.kill_after` simulates SIGKILL
/// for the determinism tests. Without a store the run always completes.
pub fn run_campaign_resumable(
    cfg: &FleetConfig,
    suite: &Suite,
    pop: &FleetPopulation,
    plan: &FaultPlan,
    policy: &RetryPolicy,
    store: Option<&CheckpointStore>,
    resume: Option<&CampaignCheckpoint>,
) -> Result<ResumableRun, CheckpointError> {
    let pipeline = StageSpec::default_pipeline();
    let clock_hz = 1e7;
    let root = DetRng::new(cfg.seed).fork_str("fleet-campaign");
    let profile_cache = SuiteProfileCache::new();
    let prior = resume
        .cloned()
        .unwrap_or_else(|| CampaignCheckpoint::empty(campaign_fingerprint(cfg, plan)));

    let records = run_resumable(&pop.defective, cfg.threads, store, prior, |i, processor| {
        let label = processor.id.0;
        let slot = run_slot(policy, plan, label, |attempt| {
            let fail_read = match attempt.injected {
                Some(OpFault::ProfileRead) => Some(attempt.index),
                Some(fault) => return Err(SlotError::Fault(fault)),
                None => None,
            };
            let profiles = profile_cache.get_or_build_fallible(
                suite,
                processor.physical_cores as usize,
                cfg.threads,
                fail_read,
            )?;
            // Re-fork the fate stream from scratch every attempt:
            // supervision is transparent to a successful slot's result.
            let mut rng = root.fork(label);
            Ok(processor_fate(
                processor, suite, &profiles, &pipeline, clock_hz, &mut rng,
            ))
        });
        ItemRecord::of(i, processor.arch, slot.result, &slot.report)
    })?;
    let Some(records) = records else {
        return Ok(ResumableRun::Interrupted);
    };

    let mut fates = Vec::new();
    let mut attrition = AttritionStats::default();
    let mut lost = Vec::new();
    for rec in &records {
        let report = rec.report();
        match rec.fate() {
            Some(fate) => {
                attrition.record(true, &report);
                fates.push((ArchId(rec.arch), fate));
            }
            None => {
                attrition.record(false, &report);
                lost.push(rec.index);
            }
        }
    }
    Ok(ResumableRun::Completed(SupervisedCampaign {
        outcome: CampaignOutcome {
            total_cpus: pop.total(),
            per_arch_total: pop.per_arch_total.clone(),
            fates,
            suite_cache: profile_cache.stats(),
        },
        attrition,
        lost,
    }))
}

/// Walks one defective processor through the lifecycle; `rng` is its
/// private stream.
fn processor_fate(
    processor: &Processor,
    suite: &Suite,
    profiles: &crate::screening::StaticSuiteProfile,
    pipeline: &[StageSpec],
    clock_hz: f64,
    rng: &mut DetRng,
) -> Fate {
    let activation = sample_activation_age(rng);
    for spec in pipeline {
        if spec.stage == Stage::Regular {
            // One round every three months for the processor's life.
            for round in 0..StageSpec::regular_rounds(processor.age_years) {
                let round_age = spec.age_years + 0.25 * round as f64;
                if round_age < activation {
                    continue;
                }
                let p = stage_detection_probability(processor, suite, profiles, spec, clock_hz);
                if rng.chance(p) {
                    return Fate::Caught(Stage::Regular, round);
                }
            }
        } else {
            if spec.age_years < activation {
                continue;
            }
            let p = stage_detection_probability(processor, suite, profiles, spec, clock_hz);
            if rng.chance(p) {
                return Fate::Caught(spec.stage, 0);
            }
        }
    }
    Fate::Escaped
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A smaller fleet keeps the test fast while preserving the shape.
    fn small_campaign() -> CampaignOutcome {
        let cfg = FleetConfig {
            total_cpus: 400_000,
            seed: 2021,
            threads: 2,
        };
        run_campaign(&cfg, &Suite::standard())
    }

    /// A store-less supervised campaign over a freshly sampled fleet.
    fn supervised(
        cfg: &FleetConfig,
        suite: &Suite,
        plan: &FaultPlan,
        policy: &RetryPolicy,
    ) -> SupervisedCampaign {
        let pop = FleetPopulation::sample(cfg);
        match run_campaign_resumable(cfg, suite, &pop, plan, policy, None, None) {
            Ok(ResumableRun::Completed(run)) => run,
            other => panic!("a store-less campaign always completes, got {other:?}"),
        }
    }

    #[test]
    fn campaign_shape_matches_table1() {
        let out = small_campaign();
        let total = out.total_rate_bp();
        // Observation 1: ~3.61‱ overall.
        assert!((2.0..6.0).contains(&total), "total rate {total}‱");
        // Pre-production dominates (Observation 2: 90.4% pre-production).
        let pre = out.rate_bp(Stage::Factory)
            + out.rate_bp(Stage::Datacenter)
            + out.rate_bp(Stage::Reinstall);
        let share = pre / total;
        assert!(share > 0.75, "pre-production share {share}");
        // Re-install is the dominant single stage.
        for s in [Stage::Factory, Stage::Datacenter, Stage::Regular] {
            assert!(
                out.rate_bp(Stage::Reinstall) > out.rate_bp(s),
                "re-install must dominate {s}"
            );
        }
        // Regular testing still catches some (Observation 2: 0.348‱).
        assert!(out.caught_at(Stage::Regular) > 0);
        // And some escape even so (§2.2's production incidents).
        assert!(out.escaped() > 0);
    }

    #[test]
    fn table2_is_nonmonotone_in_arch_age() {
        let out = small_campaign();
        let t2 = out.table2();
        assert_eq!(t2.len(), 10);
        let rate = |label: &str| t2.iter().find(|(l, _)| l == label).unwrap().1;
        // Observation 3: the failure rate does not decrease with newer
        // chips — M8 (newer) far exceeds M4 (older).
        assert!(rate("M8") > rate("M4"));
        // Most architectures produce faulty parts even in a 400k fleet;
        // full coverage of all nine (the paper's 1M+, 32-month scale) is
        // asserted in the workspace integration tests.
        let faulty_archs = t2.iter().filter(|(l, r)| l != "avg" && *r > 0.0).count();
        assert!(faulty_archs >= 6, "faulty archs {faulty_archs}");
    }

    #[test]
    fn table1_rows_are_complete() {
        let out = small_campaign();
        let t1 = out.table1();
        assert_eq!(t1.len(), 5);
        assert_eq!(t1[4].0, "Total");
        let sum: f64 = t1[..4].iter().map(|(_, r)| r).sum();
        assert!((sum - t1[4].1).abs() < 1e-9, "stages sum to total");
    }

    #[test]
    fn some_processors_pass_several_regular_rounds_before_failing() {
        // Observation 2: "These faulty processors have passed
        // pre-production tests and some have even passed several rounds
        // of regular tests."
        let out = small_campaign();
        assert!(out.caught_at(Stage::Regular) > 0);
        assert!(
            out.caught_in_regular_round_at_least(1) > 0,
            "late activations are caught in a later round"
        );
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = small_campaign();
        let b = small_campaign();
        assert_eq!(a.fates, b.fates);
    }

    #[test]
    fn thread_count_does_not_change_fates() {
        let suite = Suite::standard();
        let mut cfg = FleetConfig {
            total_cpus: 150_000,
            seed: 77,
            threads: 1,
        };
        let pop = FleetPopulation::sample(&cfg);
        let serial = run_campaign_on(&cfg, &suite, &pop);
        cfg.threads = 4;
        let parallel = run_campaign_on(&cfg, &suite, &pop);
        assert_eq!(serial.fates, parallel.fates);
        assert_eq!(serial.total_cpus, parallel.total_cpus);
        assert_eq!(serial.per_arch_total, parallel.per_arch_total);
    }

    #[test]
    fn quiet_supervision_matches_unsupervised_campaign() {
        let cfg = FleetConfig {
            total_cpus: 150_000,
            seed: 77,
            threads: 2,
        };
        let suite = Suite::standard();
        let plain = run_campaign(&cfg, &suite);
        let supervised = supervised(&cfg, &suite, &FaultPlan::default(), &RetryPolicy::default());
        assert_eq!(supervised.outcome.fates, plain.fates);
        assert_eq!(supervised.attrition.lost, 0);
        assert_eq!(supervised.attrition.retries, 0);
        assert_eq!(supervised.attrition.coverage(), 1.0);
        assert!(supervised.lost.is_empty());
    }

    #[test]
    fn stormy_campaign_completes_and_reports_attrition() {
        // The acceptance scenario: 5% machine-offline + 10% preemption.
        let cfg = FleetConfig {
            total_cpus: 150_000,
            seed: 77,
            threads: 2,
        };
        let plan = FaultPlan {
            seed: 7,
            offline: 0.05,
            preempt: 0.10,
            ..FaultPlan::default()
        };
        let suite = Suite::standard();
        let run = supervised(&cfg, &suite, &plan, &RetryPolicy::default());
        assert_eq!(
            run.attrition.items,
            run.outcome.fates.len() as u64 + run.lost.len() as u64
        );
        assert!(run.attrition.total_faults() > 0, "a storm must leave marks");
        assert!(run.attrition.retries > 0);
        assert!(run.attrition.backoff_secs > 0.0);
        assert!(run.attrition.coverage() > 0.9, "most slots survive retries");
        // Completed slots carry the same fates as a fault-free run: the
        // supervisor re-forks each slot's stream per attempt.
        let plain = run_campaign(&cfg, &suite);
        let completed: Vec<_> = plain
            .fates
            .iter()
            .enumerate()
            .filter(|(i, _)| !run.lost.contains(&(*i as u64)))
            .map(|(_, f)| *f)
            .collect();
        assert_eq!(run.outcome.fates, completed);
    }

    #[test]
    fn stormy_campaign_is_thread_invariant() {
        let suite = Suite::standard();
        let plan = FaultPlan {
            seed: 3,
            offline: 0.05,
            crash: 0.05,
            preempt: 0.10,
            read_error: 0.05,
            timeout: 0.02,
        };
        let mut cfg = FleetConfig {
            total_cpus: 100_000,
            seed: 41,
            threads: 1,
        };
        let serial = supervised(&cfg, &suite, &plan, &RetryPolicy::default());
        cfg.threads = 8;
        let parallel = supervised(&cfg, &suite, &plan, &RetryPolicy::default());
        assert_eq!(serial.outcome.fates, parallel.outcome.fates);
        assert_eq!(serial.attrition, parallel.attrition);
        assert_eq!(serial.lost, parallel.lost);
    }

    #[test]
    fn store_does_not_change_campaign_results() {
        // Snapshot writes, every completion or every 64, never perturb a
        // storm's results.
        let plan = FaultPlan {
            seed: 7,
            offline: 0.05,
            crash: 0.02,
            preempt: 0.10,
            read_error: 0.04,
            timeout: 0.02,
        };
        let suite = Suite::standard();
        let dir =
            std::env::temp_dir().join(format!("sdc-campaign-ck-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for threads in [1, 2] {
            let cfg = FleetConfig {
                total_cpus: 400_000,
                seed: 2021,
                threads,
            };
            let pop = FleetPopulation::sample(&cfg);
            assert!(
                pop.defective.len() > 64,
                "every = 64 must also write mid-run"
            );
            let run = |store: Option<&CheckpointStore>| match run_campaign_resumable(
                &cfg,
                &suite,
                &pop,
                &plan,
                &RetryPolicy::default(),
                store,
                None,
            ) {
                Ok(ResumableRun::Completed(run)) => run,
                other => panic!("expected a completed campaign, got {other:?}"),
            };
            let bare = run(None);
            assert!(
                bare.attrition.total_faults() > 0,
                "storm must interrupt something"
            );
            for every in [1, 64] {
                let store =
                    CheckpointStore::new(dir.join(format!("t{threads}-e{every}.json")), every);
                let stored = run(Some(&store));
                assert_eq!(
                    stored.outcome.fates, bare.outcome.fates,
                    "threads {threads}, every {every}"
                );
                assert_eq!(
                    stored.attrition, bare.attrition,
                    "threads {threads}, every {every}"
                );
                assert_eq!(stored.lost, bare.lost, "threads {threads}, every {every}");
                // The final snapshot holds every item.
                let snapshot =
                    CampaignCheckpoint::load(store.path(), &campaign_fingerprint(&cfg, &plan))
                        .unwrap();
                assert_eq!(snapshot.items.len(), pop.defective.len());
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unwritable_checkpoint_store_is_a_typed_error_not_a_panic() {
        // Pointing the store at a directory that does not exist makes the
        // first snapshot write fail; the campaign must surface that as
        // CheckpointError::Io instead of panicking mid-fleet.
        let cfg = FleetConfig {
            total_cpus: 100_000,
            seed: 2021,
            threads: 2,
        };
        let suite = Suite::standard();
        let pop = FleetPopulation::sample(&cfg);
        let path = std::env::temp_dir()
            .join(format!("sdc-no-such-dir-{}", std::process::id()))
            .join("ckpt.json");
        let store = crate::checkpoint::CheckpointStore::new(&path, 1);
        let result = run_campaign_resumable(
            &cfg,
            &suite,
            &pop,
            &FaultPlan::default(),
            &RetryPolicy::default(),
            Some(&store),
            None,
        );
        match result {
            Err(crate::checkpoint::CheckpointError::Io(_)) => {}
            other => panic!("expected CheckpointError::Io, got {other:?}"),
        }
    }

    #[test]
    fn suite_cache_builds_once_per_core_count() {
        let out = small_campaign();
        let s = out.suite_cache;
        let shapes = s.entries as u64;
        assert!(shapes >= 1);
        assert_eq!(s.misses, shapes, "one build per distinct core count");
        assert_eq!(
            s.hits + s.misses,
            out.fates.len() as u64,
            "one lookup per defective processor"
        );
        assert!(s.hit_rate() > 0.9, "hit rate {}", s.hit_rate());
    }
}
