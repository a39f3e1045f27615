//! Stage-level detection probabilities from static workload profiles.
//!
//! Running the full accelerated executor for every (defective CPU ×
//! 633 testcases × stage) would dominate a million-CPU campaign, so
//! fleet screening uses a closed form: for each testcase the programs are
//! *walked* (not executed) to count retire sites per (class, datatype)
//! and cycles per iteration; steady-state temperatures come from the
//! thermal model; the per-stage detection probability is then
//! `1 − Π exp(−λ_tc · D)`. The deep-study analyses use the full executor;
//! an integration test cross-checks the two paths.

use crate::lifecycle::StageSpec;
use sdc_model::DataType;
use silicon::defect::DefectKind;
use silicon::Processor;
use softcore::{Inst, InstClass, Program};
use std::collections::HashMap;
use std::sync::Arc;
use thermal::{ThermalConfig, ThermalModel};
use toolchain::{builders, CacheStats, MemoCache, Suite, Testcase};

/// Static profile of one testcase instantiated on a given core count.
#[derive(Debug, Clone)]
pub struct StaticProfile {
    /// (class, dt) → retire sites per cycle, for the *busiest* instance.
    pub sites_per_cycle: HashMap<(InstClass, DataType), f64>,
    /// Energy per cycle (thermal power proxy).
    pub power: f64,
    /// Estimated cache-invalidation deliveries per cycle per core
    /// (multi-threaded testcases only).
    pub invalidations_per_cycle: f64,
    /// Estimated conflicted transactional commits per cycle per core.
    pub tx_conflicts_per_cycle: f64,
    /// Whether the testcase is multi-threaded.
    pub multithread: bool,
}

/// Result of walking one program: (site counts, cycles, energy,
/// shared writes, transactional commits).
type WalkSummary = (HashMap<(InstClass, DataType), f64>, f64, f64, f64, f64);

/// Walks a program, accumulating per-(class, dt) site counts, cycles,
/// energy, and shared-memory traffic with loop multipliers.
fn walk(program: &Program) -> WalkSummary {
    let mut sites: HashMap<(InstClass, DataType), f64> = HashMap::new();
    let mut cycles = 0f64;
    let mut energy = 0f64;
    let mut shared_writes = 0f64;
    let mut commits = 0f64;
    let mut mult: Vec<f64> = vec![1.0];
    for inst in program.insts() {
        let m = *mult
            .last()
            .expect("invariant violated: the loop-multiplier stack always keeps its base entry");
        match *inst {
            Inst::LoopStart { count } => {
                cycles += m;
                energy += m * InstClass::Control.energy();
                mult.push(m * count as f64);
                continue;
            }
            Inst::LoopEnd => {
                let inner = mult
                    .pop()
                    .expect("invariant violated: LoopEnd must close a matching LoopStart");
                cycles += inner;
                energy += inner * InstClass::Control.energy();
                continue;
            }
            _ => {}
        }
        let class = inst.class();
        cycles += m * class.cycles() as f64;
        energy += m * class.energy();
        match *inst {
            Inst::IntOp { dt, .. } => {
                *sites.entry((class, dt)).or_insert(0.0) += m;
            }
            Inst::FOp { prec, .. } | Inst::FFma { prec, .. } | Inst::FAtan { prec, .. } => {
                *sites.entry((class, prec.datatype())).or_insert(0.0) += m;
            }
            Inst::XOp { .. } | Inst::XAtan { .. } => {
                *sites.entry((class, DataType::F64X)).or_insert(0.0) += m;
            }
            Inst::VOp { lane, .. } => {
                *sites.entry((class, lane.datatype())).or_insert(0.0) += m * lane.lanes() as f64;
            }
            Inst::Crc32Step { .. } => {
                *sites.entry((class, DataType::Bin32)).or_insert(0.0) += m;
            }
            Inst::HashMix { .. } => {
                *sites.entry((class, DataType::Bin64)).or_insert(0.0) += m;
            }
            Inst::Store { .. }
            | Inst::Cas { .. }
            | Inst::LockAcquire { .. }
            | Inst::LockRelease { .. } => {
                shared_writes += m;
            }
            Inst::TxCommit { .. } => {
                commits += m;
            }
            _ => {}
        }
    }
    (sites, cycles.max(1.0), energy, shared_writes, commits)
}

impl StaticProfile {
    /// Profiles `tc` as instantiated on `machine_cores` cores.
    pub fn of(tc: &Testcase, machine_cores: usize) -> StaticProfile {
        let built = builders::build(tc, machine_cores, 8, 0x57a71c);
        let mut best: Option<WalkSummary> = None;
        for program in built.programs.iter().flatten() {
            let w = walk(program);
            let better = match &best {
                None => true,
                Some(b) => w.1 > b.1,
            };
            if better {
                best = Some(w);
            }
        }
        let (sites, cycles, energy, shared_writes, commits) =
            best.expect("invariant violated: every testcase builds at least one program");
        let multithread = tc.threads > 1;
        StaticProfile {
            sites_per_cycle: sites.into_iter().map(|(k, v)| (k, v / cycles)).collect(),
            power: energy / cycles,
            // Each shared write invalidates the sharing peers' copies
            // roughly once; conflicts hit a fraction of commits.
            invalidations_per_cycle: if multithread {
                shared_writes / cycles
            } else {
                0.0
            },
            tx_conflicts_per_cycle: if multithread {
                commits * 0.2 / cycles
            } else {
                0.0
            },
            multithread,
        }
    }
}

/// Static profiles of a whole suite on one core count, computed once and
/// shared across every processor of that shape.
#[derive(Debug)]
pub struct StaticSuiteProfile {
    profiles: Vec<StaticProfile>,
    cores: usize,
}

impl StaticSuiteProfile {
    /// Profiles every testcase of `suite` for `machine_cores` cores.
    pub fn build(suite: &Suite, machine_cores: usize) -> StaticSuiteProfile {
        StaticSuiteProfile::build_threaded(suite, machine_cores, 1)
    }

    /// [`StaticSuiteProfile::build`] sharded across `threads` workers
    /// (`0` = available parallelism). Profiling walks programs with no
    /// randomness, so the result is identical for every thread count.
    pub fn build_threaded(
        suite: &Suite,
        machine_cores: usize,
        threads: usize,
    ) -> StaticSuiteProfile {
        StaticSuiteProfile {
            profiles: crate::parallel::run_indexed(suite.testcases(), threads, |_, tc| {
                StaticProfile::of(tc, machine_cores)
            }),
            cores: machine_cores,
        }
    }

    /// The profile of testcase `idx` (suite ids are dense).
    pub fn get(&self, idx: usize) -> &StaticProfile {
        &self.profiles[idx]
    }

    /// Core count these profiles were built for.
    pub fn cores(&self) -> usize {
        self.cores
    }
}

/// Shared, thread-safe memoization of [`StaticSuiteProfile`]s by core
/// count: an unbounded [`MemoCache`] (core counts are few, so it never
/// evicts). A campaign's workers all need the suite profile for each
/// package shape; this cache builds each one once.
#[derive(Debug, Default)]
pub struct SuiteProfileCache(MemoCache<usize, StaticSuiteProfile>);

impl SuiteProfileCache {
    /// An empty cache.
    pub fn new() -> SuiteProfileCache {
        SuiteProfileCache::default()
    }

    /// The suite profile for `machine_cores`, built on first use with
    /// `build_threads` workers. Concurrent callers asking for the same
    /// core count build once; the rest block on the entry.
    pub fn get_or_build(
        &self,
        suite: &Suite,
        machine_cores: usize,
        build_threads: usize,
    ) -> Arc<StaticSuiteProfile> {
        self.0.get_or_compute(machine_cores, || {
            StaticSuiteProfile::build_threaded(suite, machine_cores, build_threads)
        })
    }

    /// Fallible [`SuiteProfileCache::get_or_build`]: when the fault
    /// plan injects a transient profile-read error into the calling
    /// attempt (`fail_attempt` is `Some`), the read fails *before*
    /// touching the cache — nothing is cached, counters don't move, and
    /// a retry with `fail_attempt == None` serves the identical profile.
    /// The sentinel testcase id 0 marks a suite-level (not per-testcase)
    /// read in the error.
    pub fn get_or_build_fallible(
        &self,
        suite: &Suite,
        machine_cores: usize,
        build_threads: usize,
        fail_attempt: Option<u32>,
    ) -> Result<Arc<StaticSuiteProfile>, toolchain::ExecError> {
        if let Some(attempt) = fail_attempt {
            return Err(toolchain::ExecError::ProfileRead {
                testcase: sdc_model::TestcaseId(0),
                attempt,
            });
        }
        Ok(self.get_or_build(suite, machine_cores, build_threads))
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.0.stats()
    }
}

/// Probability that one full pass of `stage` over the suite detects
/// `processor`.
///
/// Temperatures are the steady-state targets of a package running the
/// testcase on every core (the framework tests all cores simultaneously)
/// plus the stage's temperature offset.
pub fn stage_detection_probability(
    processor: &Processor,
    suite: &Suite,
    profiles: &StaticSuiteProfile,
    stage: &StageSpec,
    clock_hz: f64,
) -> f64 {
    let n_cores = processor.physical_cores as usize;
    let thermal_probe = ThermalModel::new(n_cores, ThermalConfig::default());
    let mut log_survive = 0f64;
    for (idx, tc) in suite.testcases().iter().enumerate() {
        if idx % stage.suite_stride.max(1) != 0 {
            continue;
        }
        let profile = profiles.get(idx);
        // Steady-state temperature: every core at the workload's power.
        let mut t = thermal_probe.clone();
        t.set_all_powers(profile.power);
        let temp = t.target_temp(0) + stage.temp_offset_c;
        let secs = stage.per_testcase.as_secs_f64();
        for defect in &processor.defects {
            if !defect.applies_to(tc.id) {
                continue;
            }
            // Aggregate rate over all cores of the package.
            let mut lambda = 0f64;
            for core in 0..processor.physical_cores {
                let rate = defect.rate(core, temp);
                if rate <= 0.0 {
                    continue;
                }
                let events_per_cycle = match &defect.kind {
                    DefectKind::Computation { .. } => profile
                        .sites_per_cycle
                        .iter()
                        .filter(|((class, dt), _)| defect.matches(*class, *dt))
                        .map(|(_, v)| v)
                        .sum::<f64>(),
                    DefectKind::CoherenceDrop => profile.invalidations_per_cycle,
                    DefectKind::TxIsolation => profile.tx_conflicts_per_cycle,
                };
                if !profile.multithread && !matches!(defect.kind, DefectKind::Computation { .. }) {
                    continue;
                }
                lambda += events_per_cycle * clock_hz * rate;
            }
            log_survive += -(lambda * secs);
            if log_survive < -40.0 {
                return 1.0;
            }
        }
        let _ = tc;
    }
    1.0 - log_survive.exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdc_model::Duration;
    use silicon::catalog;

    #[test]
    fn walk_counts_loop_multiplied_sites() {
        use softcore::{IntOpKind, ProgramBuilder};
        let mut b = ProgramBuilder::new();
        b.mov_imm(0, 1);
        b.loop_start(10);
        b.int_op(IntOpKind::Add, DataType::I32, 1, 0, 0);
        b.loop_end();
        let (sites, cycles, energy, _, _) = walk(&b.build());
        assert_eq!(sites[&(InstClass::IntArith, DataType::I32)], 10.0);
        assert!(cycles >= 10.0);
        assert!(energy > 0.0);
    }

    #[test]
    fn profiles_distinguish_features() {
        let suite = Suite::standard();
        let atan_id = suite
            .testcases()
            .iter()
            .find(|t| t.name.starts_with("fpu/atan/f64/"))
            .unwrap()
            .id;
        let p = StaticProfile::of(suite.get(atan_id), 4);
        assert!(p
            .sites_per_cycle
            .contains_key(&(InstClass::FloatAtan, DataType::F64)));
        assert!(!p
            .sites_per_cycle
            .contains_key(&(InstClass::VecFma, DataType::F32)));
        assert!(!p.multithread);
    }

    #[test]
    fn multithread_profiles_estimate_events() {
        let suite = Suite::standard();
        let lock_id = suite
            .testcases()
            .iter()
            .find(|t| t.name.starts_with("cache/lock"))
            .unwrap()
            .id;
        let p = StaticProfile::of(suite.get(lock_id), 4);
        assert!(p.multithread);
        assert!(p.invalidations_per_cycle > 0.0);
        let tx_id = suite
            .testcases()
            .iter()
            .find(|t| t.name.starts_with("trx/"))
            .unwrap()
            .id;
        let p = StaticProfile::of(suite.get(tx_id), 4);
        assert!(p.tx_conflicts_per_cycle > 0.0);
    }

    #[test]
    fn heavyweight_stage_detects_apparent_defect() {
        let suite = Suite::standard();
        let simd1 = catalog::by_name("SIMD1").unwrap().processor;
        let profiles = StaticSuiteProfile::build(&suite, simd1.physical_cores as usize);
        let heavy = StageSpec {
            stage: crate::Stage::Reinstall,
            per_testcase: Duration::from_secs(90),
            temp_offset_c: 6.0,
            suite_stride: 1,
            age_years: 0.12,
        };
        let p = stage_detection_probability(&simd1, &suite, &profiles, &heavy, 1e7);
        assert!(
            p > 0.99,
            "apparent defect must be caught by the burn-in screen: {p}"
        );
    }

    #[test]
    fn healthy_processor_never_detected() {
        let suite = Suite::standard();
        let healthy = Processor::healthy(sdc_model::CpuId(5000), sdc_model::ArchId(2), 1.0);
        let profiles = StaticSuiteProfile::build(&suite, 16);
        let heavy = StageSpec {
            stage: crate::Stage::Reinstall,
            per_testcase: Duration::from_secs(90),
            temp_offset_c: 6.0,
            suite_stride: 1,
            age_years: 0.12,
        };
        let p = stage_detection_probability(&healthy, &suite, &profiles, &heavy, 1e7);
        assert_eq!(p, 0.0);
    }

    #[test]
    fn weak_stage_detects_less_than_strong_stage() {
        let suite = Suite::standard();
        let fpu2 = catalog::by_name("FPU2").unwrap().processor;
        let profiles = StaticSuiteProfile::build(&suite, fpu2.physical_cores as usize);
        let weak = StageSpec {
            stage: crate::Stage::Datacenter,
            per_testcase: Duration::from_millis(200),
            temp_offset_c: -32.0, // actively cooled bench: near idle temps
            suite_stride: 8,
            age_years: 0.02,
        };
        let strong = StageSpec {
            stage: crate::Stage::Reinstall,
            per_testcase: Duration::from_secs(120),
            temp_offset_c: 8.0,
            suite_stride: 1,
            age_years: 0.12,
        };
        let pw = stage_detection_probability(&fpu2, &suite, &profiles, &weak, 1e7);
        let ps = stage_detection_probability(&fpu2, &suite, &profiles, &strong, 1e7);
        assert!(ps > pw, "strong {ps} vs weak {pw}");
    }
}
