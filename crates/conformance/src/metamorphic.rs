//! Metamorphic invariants: relations that must hold across layers no
//! matter how the simulation is driven.
//!
//! * **Population-scale invariance** — detected failure rates are
//!   intensive quantities: a 10k-CPU fleet and a 100k-CPU fleet drawn
//!   from the same generative model agree within sampling granularity.
//! * **Defect-mask monotonicity** — adding a defect to a processor never
//!   *removes* SDC records: each defect draws from its own forked RNG
//!   stream (see `silicon::Injector`), and control flow in the softcore
//!   ISA is data-independent on single-threaded testcases, so the
//!   retire/draw sequences of existing defects are untouched.
//! * **Transparency** — thread count, checkpoint/resume and operational
//!   chaos change how work is scheduled, never what is computed. All
//!   three reduce to [`check_transparent`]: run the same computation
//!   under every variant and require identical results.

use fleet::chaos::FaultPlan;
use fleet::checkpoint::{CampaignCheckpoint, CheckpointStore};
use fleet::screening::StaticSuiteProfile;
use fleet::supervisor::RetryPolicy;
use fleet::{
    campaign_fingerprint, run_campaign, run_campaign_on, run_campaign_resumable, FleetConfig,
    FleetPopulation, ResumableRun,
};
use sdc_model::{DetRng, Duration};
use silicon::Processor;
use toolchain::{ExecConfig, Executor, Suite};

/// Verdict of one metamorphic invariant.
#[derive(Debug, Clone)]
pub struct InvariantReport {
    /// Invariant name.
    pub name: String,
    /// Whether it held.
    pub pass: bool,
    /// Human-readable evidence (measured quantities; the failure on a
    /// miss).
    pub detail: String,
}

impl InvariantReport {
    fn of(name: &str, result: Result<String, String>) -> InvariantReport {
        match result {
            Ok(detail) => InvariantReport {
                name: name.to_string(),
                pass: true,
                detail,
            },
            Err(detail) => InvariantReport {
                name: name.to_string(),
                pass: false,
                detail,
            },
        }
    }
}

/// Runs `run` once per variant and requires every result to equal the
/// first; the error names the diverging variant.
pub fn check_transparent<T, F>(label: &str, variants: &[&str], mut run: F) -> Result<(), String>
where
    T: PartialEq + std::fmt::Debug,
    F: FnMut(&str) -> T,
{
    assert!(!variants.is_empty(), "need at least one variant");
    let baseline = run(variants[0]);
    for &v in &variants[1..] {
        let got = run(v);
        if got != baseline {
            return Err(format!(
                "{label}: variant {v:?} diverged from {:?}\n  {:?}\n  vs\n  {baseline:?}",
                variants[0], got
            ));
        }
    }
    Ok(())
}

/// [`check_transparent`], panicking with the diagnostic on divergence
/// (for use in tests).
pub fn assert_transparent<T, F>(label: &str, variants: &[&str], run: F)
where
    T: PartialEq + std::fmt::Debug,
    F: FnMut(&str) -> T,
{
    if let Err(e) = check_transparent(label, variants, run) {
        panic!("{e}");
    }
}

/// Maximum allowed |rate(10k) − rate(100k)| in ‱. At 10k CPUs one
/// defective processor moves the total rate by a full 1‱ and the
/// binomial sampling std of a ~3.3‱ rate is ~1.8‱; the band covers
/// 2σ of that granularity. The comparison itself is deterministic —
/// the band exists for model changes, not run-to-run noise.
pub const SCALE_BAND_BP: f64 = 3.6;

/// Population-scale invariance: 10k-CPU and 100k-CPU campaigns agree on
/// the total detected rate within [`SCALE_BAND_BP`].
pub fn population_scale_invariance(threads: usize) -> InvariantReport {
    let suite = Suite::standard();
    let rate = |total_cpus: u64| {
        run_campaign(
            &FleetConfig {
                total_cpus,
                seed: 2021,
                threads,
            },
            &suite,
        )
        .total_rate_bp()
    };
    let small = rate(10_000);
    let large = rate(100_000);
    let diff = (small - large).abs();
    InvariantReport::of(
        "population_scale_invariance",
        if diff <= SCALE_BAND_BP {
            Ok(format!(
                "total rate 10k: {small:.3}bp, 100k: {large:.3}bp, |diff| {diff:.3} <= {SCALE_BAND_BP}"
            ))
        } else {
            Err(format!(
                "total rate 10k: {small:.3}bp vs 100k: {large:.3}bp differ by {diff:.3} > {SCALE_BAND_BP}"
            ))
        },
    )
}

/// The per-defect-prefix SDC record counts of `processor` on its
/// matching single-threaded testcases.
fn prefix_record_counts(processor: &Processor, suite: &Suite, seed: u64) -> Vec<u64> {
    // One probe testcase per defect: the single-threaded suite testcase
    // that the defect's selectivity gate admits AND that executes the
    // most instructions of the defect's classes per cycle — the
    // selectivity hash alone admits testcases that never touch the
    // defective unit, which would leave the defect unexercised and the
    // check vacuous. Single-threaded so control flow — and therefore
    // every defect's draw sequence — is independent of the values other
    // defects corrupt.
    let profiles = StaticSuiteProfile::build(suite, processor.physical_cores as usize);
    let probes: Vec<_> = processor
        .defects
        .iter()
        .filter(|d| d.kind.is_computation())
        .filter_map(|d| {
            let classes = d.kind.classes();
            suite
                .testcases()
                .iter()
                .filter(|t| t.threads <= 1 && d.applies_to(t.id))
                .map(|t| {
                    let usage: f64 = profiles
                        .get(t.id.0 as usize)
                        .sites_per_cycle
                        .iter()
                        .filter(|((class, _), _)| classes.contains(class))
                        .map(|(_, &per_cycle)| per_cycle)
                        .sum();
                    (t.id, usage)
                })
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite usage"))
                .map(|(id, _)| id)
        })
        .collect();
    let cores: Vec<u16> = (0..processor.physical_cores).collect();
    // Held at 85 ℃ so temperature-gated triggers (e.g. MIX1's 59 ℃
    // floor) fire often enough that every prefix count is nonzero.
    let cfg = ExecConfig {
        hold_temp_c: Some(85.0),
        ..ExecConfig::default()
    };
    (1..=processor.defects.len())
        .map(|k| {
            let mut truncated = processor.clone();
            truncated.defects.truncate(k);
            let mut total = 0u64;
            for &tc in &probes {
                let mut ex = Executor::new(&truncated, cfg);
                let mut rng = DetRng::new(seed);
                let run = ex.run(suite.get(tc), &cores, Duration::from_secs(60), &mut rng);
                total += run.records.len() as u64;
            }
            total
        })
        .collect()
}

/// Defect-mask monotonicity: for catalog processors, running with the
/// first `k` defects produces at most as many SDC records as running
/// with the first `k+1`, for every `k`.
pub fn defect_mask_monotonicity() -> InvariantReport {
    let suite = Suite::standard();
    let mut detail = String::new();
    for name in ["MIX1", "MIX2"] {
        let processor = silicon::catalog::by_name(name)
            .expect("invariant violated: monotonicity cases are in the catalog")
            .processor;
        let counts = prefix_record_counts(&processor, &suite, 9);
        if counts.last().is_none_or(|&n| n == 0) {
            return InvariantReport::of(
                "defect_mask_monotonicity",
                Err(format!(
                    "{name}: no defect fired ({counts:?}); the check is vacuous"
                )),
            );
        }
        for pair in counts.windows(2) {
            if pair[1] < pair[0] {
                return InvariantReport::of(
                    "defect_mask_monotonicity",
                    Err(format!(
                        "{name}: record counts per defect prefix {counts:?} are not monotone"
                    )),
                );
            }
        }
        detail.push_str(&format!("{name}: {counts:?}  "));
    }
    InvariantReport::of(
        "defect_mask_monotonicity",
        Ok(detail.trim_end().to_string()),
    )
}

/// Thread-count transparency: the same campaign at 1/2/4 worker threads
/// produces identical tables.
pub fn thread_transparency() -> InvariantReport {
    let suite = Suite::standard();
    let result = check_transparent("campaign tables vs threads", &["1", "2", "4"], |v| {
        let threads: usize = v.parse().expect("variant is a thread count");
        let out = run_campaign(
            &FleetConfig {
                total_cpus: 20_000,
                seed: 2021,
                threads,
            },
            &suite,
        );
        (out.table1(), out.table2(), out.escaped())
    });
    InvariantReport::of(
        "thread_transparency",
        result.map(|()| "tables identical at 1/2/4 threads (20k CPUs)".to_string()),
    )
}

/// Checkpoint transparency: a campaign killed mid-run and resumed from
/// its snapshot matches the uninterrupted campaign exactly.
pub fn checkpoint_transparency() -> InvariantReport {
    let suite = Suite::standard();
    // 100k CPUs yields ~34 defective items; at 10k there are only ~3,
    // too few for the kill hook below to fire before the run drains.
    let cfg = FleetConfig {
        total_cpus: 100_000,
        seed: 2021,
        threads: 2,
    };
    let pop = FleetPopulation::sample(&cfg);
    let plan = FaultPlan::default();
    let policy = RetryPolicy::default();
    let plain = run_campaign_on(&cfg, &suite, &pop);

    let path = std::env::temp_dir().join(format!("conformance-ckpt-{}.json", std::process::id()));
    let run = || -> Result<String, String> {
        // A snapshot lands on disk only every `every` completions and no
        // final write happens at the interrupt, so `every` must stay <=
        // `kill_after` for the resume below to have anything to load.
        let mut store = CheckpointStore::new(&path, 2);
        store.kill_after = Some(5);
        match run_campaign_resumable(&cfg, &suite, &pop, &plan, &policy, Some(&store), None) {
            Ok(ResumableRun::Interrupted) => {}
            Ok(ResumableRun::Completed(_)) => {
                return Err("kill hook never fired; population too small?".into())
            }
            Err(e) => return Err(format!("checkpointed run failed: {e:?}")),
        }
        let snapshot = CampaignCheckpoint::load(&path, &campaign_fingerprint(&cfg, &plan))
            .map_err(|e| format!("snapshot load failed: {e:?}"))?;
        let resumed =
            match run_campaign_resumable(&cfg, &suite, &pop, &plan, &policy, None, Some(&snapshot))
            {
                Ok(ResumableRun::Completed(run)) => run,
                other => return Err(format!("resume did not complete: {other:?}")),
            };
        if resumed.outcome.table1() != plain.table1()
            || resumed.outcome.table2() != plain.table2()
            || resumed.outcome.escaped() != plain.escaped()
        {
            return Err("resumed outcome differs from uninterrupted run".into());
        }
        Ok(format!(
            "kill@5 + resume == uninterrupted (100k CPUs, {} checkpointed items)",
            snapshot.items.len()
        ))
    };
    let result = run();
    let _ = std::fs::remove_file(&path);
    InvariantReport::of("checkpoint_transparency", result)
}

/// Chaos transparency: a stormy Farron round agrees with the quiet
/// round on every window the storm eventually completed.
pub fn chaos_transparency() -> InvariantReport {
    use farron::requeue::run_plan_requeue;
    use sdc_model::TestcaseId;
    use toolchain::{PlanEntry, TestPlan};

    let suite = Suite::standard();
    let simd1 = silicon::catalog::by_name("SIMD1")
        .expect("invariant violated: SIMD1 is in the catalog")
        .processor;
    let plan = TestPlan {
        entries: [0u32, 140, 300, 450, 560]
            .iter()
            .map(|&i| PlanEntry {
                testcase: TestcaseId(i),
                duration: Duration::from_secs(20),
            })
            .collect(),
    };
    let root = DetRng::new(55);
    let run = |chaos: &FaultPlan| {
        run_plan_requeue(
            &simd1,
            &suite,
            &plan,
            ExecConfig::default(),
            &root,
            None,
            0xabc,
            chaos,
            &RetryPolicy::default(),
        )
    };
    let quiet = run(&FaultPlan::default());
    let storm = run(&FaultPlan {
        seed: 13,
        offline: 0.10,
        crash: 0.05,
        preempt: 0.15,
        read_error: 0.10,
        timeout: 0.05,
    });
    let mut si = 0usize;
    for idx in 0..plan.entries.len() {
        if storm.lost.contains(&idx) {
            continue;
        }
        let q = &quiet.report.runs[idx];
        let s = &storm.report.runs[si];
        si += 1;
        if q.testcase != s.testcase || q.error_count != s.error_count || q.records != s.records {
            return InvariantReport::of(
                "chaos_transparency",
                Err(format!(
                    "window {idx} differs between quiet and stormy rounds"
                )),
            );
        }
    }
    InvariantReport::of(
        "chaos_transparency",
        Ok(format!(
            "storm lost {} of {} windows; all completed windows identical to quiet round",
            storm.lost.len(),
            plan.entries.len()
        )),
    )
}

/// Runs every metamorphic invariant.
pub fn run_all(threads: usize) -> Vec<InvariantReport> {
    vec![
        population_scale_invariance(threads),
        defect_mask_monotonicity(),
        thread_transparency(),
        checkpoint_transparency(),
        chaos_transparency(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transparent_helper_flags_the_diverging_variant() {
        assert!(check_transparent("same", &["a", "b"], |_| 7u32).is_ok());
        let err = check_transparent("differs", &["a", "b"], |v| v.to_string()).unwrap_err();
        assert!(err.contains("\"b\""), "diverging variant named: {err}");
    }

    #[test]
    #[should_panic(expected = "diverging")]
    fn assert_transparent_panics_on_divergence() {
        assert_transparent("diverging", &["x", "y"], |v| {
            v.len() + v.starts_with('y') as usize
        });
    }
}
