//! The two-mode testcase executor.
//!
//! **Accelerated mode** ([`Executor::run`]) is how all long-horizon
//! studies run: one unit of the workload executes in the VM under a
//! [`Profiler`], yielding per-core retire-site rates, per-core power and
//! coherence/transaction event rates; the executor then advances a
//! discrete-event model in time chunks — thermal state first, then
//! Poisson-sampled defect firings at the current temperatures. This is
//! the only practical way to observe a 0.01-errors-per-minute defect
//! (Observation 9's low end) over simulated weeks of testing.
//!
//! **Execute mode** ([`Executor::run_vm`]) runs the whole workload in the
//! VM against both a golden machine and a fault-injected machine and
//! derives SDC records from output differences and invariant violations —
//! the ground-truth path used to validate the accelerated model.

use crate::builders;
use crate::cache::{CachedUnitProfile, ProfileCache, ProfileKey};
use crate::error::ExecError;
use crate::profile::{Profiler, SiteSamples};
use crate::testcase::{CheckKind, Invariant, OutputRegion, Testcase};
use rand::RngCore as _;
use sdc_model::{CoreId, DataType, DetRng, Duration, SdcRecord, SdcType, SettingId, VirtualClock};
use silicon::defect::{Defect, DefectKind};
use silicon::{Injector, Processor};
use softcore::{InstClass, Machine, NoFaults};
use std::sync::Arc;
use thermal::{ThermalConfig, ThermalModel};

/// Executor configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Simulated core clock in Hz (virtual time = cycles / clock).
    pub clock_hz: f64,
    /// Loop iterations of the profiling unit run.
    pub unit_iters: u32,
    /// Discrete-event time chunk.
    pub chunk: Duration,
    /// Cap on materialized SDC records per testcase run (the error *count*
    /// is exact; only record materialization is capped).
    pub max_records: usize,
    /// Preheat all cores to this temperature before each run (burn-in).
    pub preheat_c: Option<f64>,
    /// Hold the whole package at this temperature for the entire run —
    /// the paper's controlled-temperature methodology (§5: stress-tool
    /// preheating to a desired temperature while measuring occurrence
    /// frequency). Overrides thermal dynamics.
    pub hold_temp_c: Option<f64>,
    /// Keep non-tested cores busy with stress load during the run
    /// (Farron's whole-package heating; also the paper's §5 method to
    /// separate utilization from temperature).
    pub stress_idle_cores: bool,
    /// Step budget for VM runs (guards against spin-heavy interleavings).
    pub max_unit_steps: u64,
    /// Run accelerated mode through the seed chunk loop
    /// ([`Executor::try_run_reference`]) instead of the event-skipping
    /// fast path. Results are bitwise identical either way (proven by
    /// `tests/executor_equivalence.rs`); the reference path exists for
    /// differential testing and the campaign bench baseline. Not part of
    /// the profile cache key — both paths see identical unit profiles.
    pub reference_executor: bool,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            clock_hz: 1e7,
            unit_iters: 4,
            chunk: Duration::from_secs(1),
            max_records: 2048,
            preheat_c: None,
            hold_temp_c: None,
            stress_idle_cores: false,
            max_unit_steps: 40_000_000,
            reference_executor: false,
        }
    }
}

/// Result of one testcase run on one processor.
#[derive(Debug, Clone, PartialEq)]
pub struct TestcaseRun {
    /// The testcase executed.
    pub testcase: sdc_model::TestcaseId,
    /// Physical cores the workload ran on.
    pub cores: Vec<u16>,
    /// Allotted virtual duration.
    pub duration: Duration,
    /// Materialized SDC records (capped at `max_records`).
    pub records: Vec<SdcRecord>,
    /// Exact number of SDC events.
    pub error_count: u64,
    /// Exact SDC events per entry of `cores` (same indexing).
    pub errors_per_core: Vec<u64>,
    /// Mean of per-chunk hottest-tested-core temperatures.
    pub mean_temp_c: f64,
    /// Hottest temperature any tested core reached.
    pub max_temp_c: f64,
}

impl TestcaseRun {
    /// True if the run detected at least one SDC.
    pub fn detected(&self) -> bool {
        self.error_count > 0
    }

    /// Errors per virtual minute — the paper's occurrence frequency.
    pub fn occurrence_frequency(&self) -> f64 {
        let mins = self.duration.as_mins_f64();
        if mins == 0.0 {
            0.0
        } else {
            self.error_count as f64 / mins
        }
    }
}

/// Per-(class, datatype) site rates for one machine core.
#[derive(Debug, Clone, Default)]
pub(crate) struct CoreProfile {
    /// (class, dt) → retired results per second.
    site_rates: Vec<((InstClass, DataType), f64)>,
    /// Average energy per cycle (thermal power proxy).
    power: f64,
    /// Cache invalidations received per second.
    invalidations_per_sec: f64,
    /// Conflicted transactional commits per second.
    tx_conflicts_per_sec: f64,
}

/// Precomputed computation-site weights for one (defect, tested core):
/// which sites the defect can corrupt, their sampling weights, and the
/// weights' sum. All three are temperature-independent, so the
/// accelerated run builds them once instead of once per time chunk.
struct CompSites {
    keys: Vec<(InstClass, DataType)>,
    weights: Vec<f64>,
    total_rate: f64,
}

/// Event source of one retained (defect, tested core) pair in the fast
/// path: the per-second base rate the trigger rate multiplies into a
/// chunk's Poisson mean.
enum PairEvents {
    /// Computation defect with its precomputed corruptible sites.
    Comp(CompSites),
    /// Coherence drop at this core's invalidation rate.
    Coherence(f64),
    /// Transaction-isolation violation at this core's conflict rate.
    Tx(f64),
}

impl PairEvents {
    /// Events per second before the trigger rate is applied.
    fn base_per_sec(&self) -> f64 {
        match self {
            PairEvents::Comp(sites) => sites.total_rate,
            PairEvents::Coherence(per) | PairEvents::Tx(per) => *per,
        }
    }
}

/// One (defect, tested core) pair the fast path keeps, in the seed
/// loop's draw order (defect-major, tested-core-minor). Pairs whose
/// rate is provably zero at every temperature — zero core scale, zero
/// trigger base rate, or zero event base rate — are pruned at build
/// time: the reference loop `continue`s (Poisson with a non-positive
/// mean draws nothing), so skipping them consumes no randomness.
struct ActivePair<'d> {
    defect: &'d Defect,
    /// Index into `cores` / `errors_per_core`.
    idx: usize,
    pcore: u16,
    events: PairEvents,
}

/// Per-pair memo once the thermal trajectory reaches its fixed point:
/// temperatures stop changing, so the chunk's Poisson mean (and its
/// `exp(-lambda)`) are constants.
struct SteadyPair {
    /// Index into the run's `ActivePair` list.
    active_i: usize,
    temp: f64,
    lambda: f64,
    exp_neg_lambda: f64,
}

/// Steady-state snapshot of a run's chunk loop: reached when the
/// integrated temperatures stop changing bitwise (or immediately under
/// `hold_temp_c`).
struct SteadyState {
    hottest: f64,
    pairs: Vec<SteadyPair>,
}

/// Key of one cached thermal trajectory: the relaxation step plus the
/// exact start temperatures and per-core targets (bit patterns — the
/// integration below is bitwise deterministic in these).
#[derive(PartialEq, Eq, Hash)]
struct TrajKey {
    alpha: u64,
    temps: Vec<u64>,
    targets: Vec<u64>,
}

impl TrajKey {
    fn of(alpha: f64, temps: &[f64], targets: &[f64]) -> Self {
        TrajKey {
            alpha: alpha.to_bits(),
            temps: temps.iter().map(|t| t.to_bits()).collect(),
            targets: targets.iter().map(|t| t.to_bits()).collect(),
        }
    }
}

/// One integrated thermal curve: temperatures after each full chunk,
/// stored until the sequence reaches a bitwise fixed point.
///
/// Exponential relaxation `t += (target - t) * alpha` with `alpha <
/// 0.5` moves each core monotonically toward its target without
/// overshoot, so in f64 the per-core sequence is monotone over a finite
/// value set and must land on an exact fixed point — after which every
/// further chunk is a no-op and `converged` is set.
#[derive(Clone, Default)]
struct Trajectory {
    steps: Vec<Vec<f64>>,
    converged: bool,
}

/// Transient prefix cap per cached trajectory (the default 1 s chunk /
/// 15 s tau converges in well under 1k steps; pathological tiny-alpha
/// configs fall back to live stepping past the cap).
const MAX_TRAJ_STEPS: usize = 4096;
/// Cached trajectories per executor (keys differ by start temperature,
/// so sequential runs with remaining heat each get an entry).
const MAX_TRAJ_ENTRIES: usize = 32;

/// Extends `traj` with integration steps until it covers `need` chunks,
/// hits the storage cap, or converges.
fn extend_trajectory(
    traj: &mut Trajectory,
    start: &[f64],
    targets: &[f64],
    alpha: f64,
    need: usize,
) {
    while !traj.converged && traj.steps.len() < need.min(MAX_TRAJ_STEPS) {
        let cur: &[f64] = traj.steps.last().map(|v| v.as_slice()).unwrap_or(start);
        let next: Vec<f64> = cur
            .iter()
            .zip(targets)
            .map(|(&t, &target)| t + (target - t) * alpha)
            .collect();
        if next
            .iter()
            .zip(cur)
            .all(|(a, b)| a.to_bits() == b.to_bits())
        {
            traj.converged = true;
        } else {
            traj.steps.push(next);
        }
    }
}

/// Advances `temps` by one chunk in place with the exact
/// [`thermal::ThermalModel::advance`] arithmetic; returns `true` when
/// nothing changed bitwise (the trajectory's fixed point).
fn step_temps(temps: &mut [f64], targets: &[f64], alpha: f64) -> bool {
    let mut unchanged = true;
    for (t, &target) in temps.iter_mut().zip(targets) {
        let next = *t + (target - *t) * alpha;
        if next.to_bits() != t.to_bits() {
            unchanged = false;
        }
        *t = next;
    }
    unchanged
}

/// Materializes up to `max_records − records.len()` computation records
/// for `k` events of one pair — the same draws, in the same order, as
/// the seed loop's materialization block.
#[allow(clippy::too_many_arguments)]
fn materialize_computation(
    sites: &CompSites,
    defect: &Defect,
    sampler_samples: &SiteSamples,
    setting: SettingId,
    temp: f64,
    at: Duration,
    k: u64,
    max_records: usize,
    records: &mut Vec<SdcRecord>,
    rng: &mut DetRng,
) {
    let materialize = (k as usize).min(max_records.saturating_sub(records.len()));
    for _ in 0..materialize {
        let (class, dt_) = sites.keys[rng.weighted(&sites.weights)];
        let samples = sampler_samples.get(class, dt_);
        let expected = if samples.is_empty() {
            0
        } else {
            samples[rng.below(samples.len() as u64) as usize]
        };
        let mask = defect.choose_mask(dt_, rng);
        records.push(SdcRecord {
            setting,
            kind: SdcType::Computation,
            datatype: dt_,
            expected,
            actual: expected ^ mask,
            temp_c: temp,
            at,
        });
    }
}

/// Operational-fault hook for profile reads: `(key, read attempt)` →
/// "this read fails". Must be a pure function of its arguments for
/// deterministic campaigns.
pub type ProfileFaultHook = Arc<dyn Fn(&ProfileKey, u32) -> bool + Send + Sync>;

/// Executes testcases against one (possibly defective) processor.
pub struct Executor<'p> {
    /// The processor under test.
    pub processor: &'p Processor,
    /// Package thermal state (persists across runs: remaining heat).
    pub thermal: ThermalModel,
    /// Virtual wall clock (persists across runs).
    pub clock: VirtualClock,
    cfg: ExecConfig,
    /// Shared unit-profile memoization; `None` computes every profile.
    cache: Option<Arc<ProfileCache>>,
    /// Operational-fault hook for profile reads: when it returns `true`
    /// for a key, that read fails with [`ExecError::ProfileRead`]. Used
    /// by the chaos layer to model transient infrastructure errors; the
    /// hook must be a pure function of its arguments for determinism.
    profile_fault: Option<ProfileFaultHook>,
    /// Profile reads attempted so far (feeds the fault hook's attempt
    /// counter and the supervisor's per-item accounting).
    profile_reads: u32,
    /// Thermal trajectory cache: `(alpha, start temps, targets)` →
    /// integrated curve. Hits when runs repeat a power configuration
    /// from the same starting temperatures (burn-in preheat makes this
    /// the common case in Farron evals).
    trajectories: std::collections::HashMap<TrajKey, Arc<Trajectory>>,
}

impl std::fmt::Debug for Executor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("processor", &self.processor.id)
            .field("cfg", &self.cfg)
            .field("cached", &self.cache.is_some())
            .field("profile_fault_hook", &self.profile_fault.is_some())
            .finish()
    }
}

impl<'p> Executor<'p> {
    /// A fresh executor for `processor` at idle temperature.
    pub fn new(processor: &'p Processor, cfg: ExecConfig) -> Self {
        Executor {
            processor,
            thermal: ThermalModel::new(processor.physical_cores as usize, ThermalConfig::default()),
            clock: VirtualClock::new(),
            cfg,
            cache: None,
            profile_fault: None,
            profile_reads: 0,
            trajectories: std::collections::HashMap::new(),
        }
    }

    /// A fresh executor sharing `cache` for unit profiles. Profiling
    /// streams are derived from the cache key, so results are bitwise
    /// identical with or without a cache.
    pub fn with_cache(processor: &'p Processor, cfg: ExecConfig, cache: Arc<ProfileCache>) -> Self {
        let mut e = Executor::new(processor, cfg);
        e.cache = Some(cache);
        e
    }

    /// Attaches (or detaches) a shared unit-profile cache.
    pub fn set_cache(&mut self, cache: Option<Arc<ProfileCache>>) {
        self.cache = cache;
    }

    /// Installs an operational-fault hook for profile reads. The hook is
    /// called with the profile key and a 0-based read-attempt counter;
    /// returning `true` fails that read with [`ExecError::ProfileRead`].
    /// For deterministic campaigns the hook must be a pure function of
    /// its arguments (e.g. a seeded fault-plan draw).
    pub fn set_profile_fault_hook(&mut self, hook: Option<ProfileFaultHook>) {
        self.profile_fault = hook;
    }

    /// The active configuration.
    pub fn config(&self) -> &ExecConfig {
        &self.cfg
    }

    /// Profiles one unit of `tc` on the VM (through the shared cache when
    /// one is attached). The profile is a pure function of the
    /// [`ProfileKey`] — the RNG driving the unit run is derived from the
    /// key, not from the caller's stream — so every executor observes the
    /// same profile for the same key.
    ///
    /// Fails with [`ExecError::ProfileRead`] when the installed fault
    /// hook fires for this read; nothing is cached in that case, so a
    /// retry re-reads (and, absent another fault, succeeds with the
    /// identical profile). Fails with [`ExecError::StepBudget`] when the
    /// unit run overruns `max_unit_steps`.
    fn try_profile_unit(
        &mut self,
        tc: &Testcase,
        cores: &[u16],
    ) -> Result<Arc<CachedUnitProfile>, ExecError> {
        let key = ProfileKey::of(tc.id, cores.len(), &self.cfg);
        let attempt = self.profile_reads;
        self.profile_reads = self.profile_reads.wrapping_add(1);
        if let Some(hook) = &self.profile_fault {
            if hook(&key, attempt) {
                return Err(ExecError::ProfileRead {
                    testcase: tc.id,
                    attempt,
                });
            }
        }
        match &self.cache {
            Some(cache) => cache.profile(tc, key.cores, &self.cfg),
            None => compute_unit_profile(tc, key, &self.cfg).map(Arc::new),
        }
    }

    /// Validates the core selection shared by both run modes.
    fn check_cores(&self, tc: &Testcase, cores: &[u16]) -> Result<(), ExecError> {
        if cores.is_empty() {
            return Err(ExecError::NoCores);
        }
        if let Some(&bad) = cores.iter().find(|&&c| c >= self.processor.physical_cores) {
            return Err(ExecError::CoreOutOfRange {
                core: bad,
                physical_cores: self.processor.physical_cores,
            });
        }
        if cores.len() < tc.threads as usize {
            return Err(ExecError::TooFewCores {
                cores: cores.len(),
                threads: tc.threads as usize,
            });
        }
        Ok(())
    }

    /// Accelerated run of `tc` on physical `cores` for `duration`.
    ///
    /// # Panics
    ///
    /// Panics if the core selection violates [`Executor::try_run`]'s
    /// invariants, the unit run overruns its step budget, or an
    /// installed profile-fault hook fires — infallible callers (studies,
    /// figures) never install one.
    pub fn run(
        &mut self,
        tc: &Testcase,
        cores: &[u16],
        duration: Duration,
        rng: &mut DetRng,
    ) -> TestcaseRun {
        self.try_run(tc, cores, duration, rng)
            .unwrap_or_else(|e| panic!("invariant violated: executor run of {}: {e}", tc.name))
    }

    /// Fallible accelerated run: validates the core selection and the
    /// profile read instead of panicking, so a supervisor can retry
    /// transient failures.
    ///
    /// This is the event-skipping fast path. It is bitwise identical to
    /// [`Executor::try_run_reference`] — same [`TestcaseRun`], same RNG
    /// stream consumption, same final thermal/clock state — via three
    /// draw-equivalent shortcuts:
    ///
    /// * **zero-rate pruning** — (defect, core) pairs whose rate is zero
    ///   at every temperature (zero core scale, zero trigger base rate,
    ///   zero event base rate) never reach a Poisson draw in the seed
    ///   loop (`continue`, or a non-positive mean that returns before
    ///   consuming randomness), so they are dropped up front;
    /// * **thermal trajectory cache** — the chunk loop's temperature
    ///   curve is a pure function of (step alpha, start temps, targets);
    ///   it is integrated once outside [`ThermalModel`] with the exact
    ///   `advance` arithmetic ([`ThermalModel::step_alpha`]), cached,
    ///   and replayed until it reaches its bitwise fixed point;
    /// * **steady-state memoization** — past the fixed point every
    ///   chunk's Poisson mean is a constant, so the trigger's `powf`
    ///   and `exp(-lambda)` are hoisted and draws go through
    ///   [`DetRng::poisson_with_exp`], which consumes the identical
    ///   uniform stream.
    pub fn try_run(
        &mut self,
        tc: &Testcase,
        cores: &[u16],
        duration: Duration,
        rng: &mut DetRng,
    ) -> Result<TestcaseRun, ExecError> {
        // A zero chunk never advances `elapsed`; leave that degenerate
        // config to the reference loop rather than divide by zero here.
        if self.cfg.reference_executor || self.cfg.chunk == Duration::ZERO {
            return self.try_run_reference(tc, cores, duration, rng);
        }
        self.check_cores(tc, cores)?;
        let unit = self.try_profile_unit(tc, cores)?;
        let profiles = &unit.profiles;
        let sampler_samples = &unit.samples;
        let processor = self.processor;

        if let Some(t) = self.cfg.preheat_c {
            self.thermal.preheat(t);
        }
        // Tested-core lookup built once — replaces the seed loop's
        // per-core `position` scan and `tested` HashSet (first index
        // wins, matching `position` if a core is listed twice).
        let phys = processor.physical_cores as usize;
        let mut core_index: Vec<Option<usize>> = vec![None; phys];
        for (idx, &c) in cores.iter().enumerate() {
            let slot = &mut core_index[c as usize];
            if slot.is_none() {
                *slot = Some(idx);
            }
        }
        for (pc, slot) in core_index.iter().enumerate() {
            let power = match slot {
                Some(idx) => profiles[*idx].power,
                None if self.cfg.stress_idle_cores => 1.2,
                None => 0.0,
            };
            self.thermal.set_power(pc, power);
        }

        // Retained (defect, tested core) pairs in the seed loop's draw
        // order (defect-major, core-minor); see `ActivePair` for the
        // pruning argument.
        let mut active: Vec<ActivePair<'_>> = Vec::new();
        for defect in processor.defects.iter().filter(|d| d.applies_to(tc.id)) {
            if defect.trigger.base_rate <= 0.0 {
                continue;
            }
            for (idx, &pcore) in cores.iter().enumerate() {
                if defect.scope.core_scale(pcore) <= 0.0 {
                    continue;
                }
                let events = match &defect.kind {
                    DefectKind::Computation { .. } => {
                        let matching: Vec<((InstClass, DataType), f64)> = profiles[idx]
                            .site_rates
                            .iter()
                            .filter(|((class, dt_), _)| defect.matches(*class, *dt_))
                            .copied()
                            .collect();
                        let sites = CompSites {
                            keys: matching.iter().map(|&(k, _)| k).collect(),
                            weights: matching.iter().map(|&(_, v)| v).collect(),
                            total_rate: matching.iter().map(|&(_, v)| v).sum(),
                        };
                        if sites.total_rate <= 0.0 {
                            continue;
                        }
                        PairEvents::Comp(sites)
                    }
                    DefectKind::CoherenceDrop => {
                        let per = profiles[idx].invalidations_per_sec;
                        if per <= 0.0 {
                            continue;
                        }
                        PairEvents::Coherence(per)
                    }
                    DefectKind::TxIsolation => {
                        let per = profiles[idx].tx_conflicts_per_sec;
                        if per <= 0.0 {
                            continue;
                        }
                        PairEvents::Tx(per)
                    }
                };
                active.push(ActivePair {
                    defect,
                    idx,
                    pcore,
                    events,
                });
            }
        }

        let start = self.clock.now();
        let mut elapsed = Duration::ZERO;
        let mut records = Vec::new();
        let mut error_count = 0u64;
        let mut errors_per_core = vec![0u64; cores.len()];
        let mut temp_sum = 0.0;
        let mut temp_chunks = 0u64;
        let mut max_temp = f64::NEG_INFINITY;

        let chunk = self.cfg.chunk;
        let chunk_secs = chunk.as_secs_f64();
        let full_chunks = (duration.as_micros() / chunk.as_micros()) as usize;
        let partial = Duration::from_micros(duration.as_micros() % chunk.as_micros());
        let any_chunk = full_chunks > 0 || partial > Duration::ZERO;

        // Rates, means and exp(-mean) memoized at a temperature fixed
        // point. Pairs whose rate is zero *at these temperatures* (e.g.
        // below the trigger's t_min floor) are dropped drawlessly, the
        // same way the reference loop `continue`s on them every chunk.
        let make_steady = |temps: &[f64]| -> SteadyState {
            let hottest = cores
                .iter()
                .map(|&c| temps[c as usize])
                .fold(f64::NEG_INFINITY, f64::max);
            let mut pairs = Vec::new();
            for (active_i, pair) in active.iter().enumerate() {
                let temp = temps[pair.pcore as usize];
                let rate = pair.defect.rate(pair.pcore, temp);
                if rate <= 0.0 {
                    continue;
                }
                let lambda = pair.events.base_per_sec() * rate * chunk_secs;
                if lambda <= 0.0 {
                    continue;
                }
                let exp_neg_lambda = if lambda <= 64.0 { (-lambda).exp() } else { 0.0 };
                pairs.push(SteadyPair {
                    active_i,
                    temp,
                    lambda,
                    exp_neg_lambda,
                });
            }
            SteadyState { hottest, pairs }
        };

        let hold = self.cfg.hold_temp_c;
        let alpha = self.thermal.step_alpha(chunk);
        let mut targets: Vec<f64> = Vec::new();
        let mut traj: Option<Arc<Trajectory>> = None;
        let mut steady: Option<SteadyState> = None;
        let mut temps: Vec<f64>;
        if let Some(h) = hold {
            // Held temperatures are constant from the first chunk on:
            // the run is steady-state throughout.
            if any_chunk {
                self.thermal.preheat(h);
            }
            temps = self.thermal.temps().to_vec();
            if any_chunk {
                let st = make_steady(&temps);
                max_temp = max_temp.max(st.hottest);
                steady = Some(st);
            }
        } else {
            // Targets are fixed while powers are fixed; hoist the
            // O(cores²) target computation out of the chunk loop.
            targets = (0..phys).map(|c| self.thermal.target_temp(c)).collect();
            temps = self.thermal.temps().to_vec();
            if full_chunks > 0 {
                let key = TrajKey::of(alpha, &temps, &targets);
                traj = Some(match self.trajectories.get_mut(&key) {
                    Some(entry) => {
                        extend_trajectory(
                            Arc::make_mut(entry),
                            &temps,
                            &targets,
                            alpha,
                            full_chunks,
                        );
                        Arc::clone(entry)
                    }
                    None => {
                        let mut fresh = Trajectory::default();
                        extend_trajectory(&mut fresh, &temps, &targets, alpha, full_chunks);
                        let fresh = Arc::new(fresh);
                        if self.trajectories.len() < MAX_TRAJ_ENTRIES {
                            self.trajectories.insert(key, Arc::clone(&fresh));
                        }
                        fresh
                    }
                });
            }
        }

        // Counts the `k` events drawn for `pair` in one chunk and
        // materializes them (up to the record cap). Record details are
        // drawn from `rng` right after the pair's Poisson draw, as in the
        // reference loop.
        let mut emit =
            |pair: &ActivePair<'_>, k: u64, temp: f64, at: Duration, rng: &mut DetRng| {
                if k == 0 {
                    return;
                }
                error_count += k;
                errors_per_core[pair.idx] += k;
                match &pair.events {
                    PairEvents::Comp(sites) => materialize_computation(
                        sites,
                        pair.defect,
                        sampler_samples,
                        SettingId {
                            cpu: processor.id,
                            core: CoreId(pair.pcore),
                            testcase: tc.id,
                        },
                        temp,
                        at,
                        k,
                        self.cfg.max_records,
                        &mut records,
                        rng,
                    ),
                    PairEvents::Coherence(_) | PairEvents::Tx(_) => {
                        self.push_consistency(&mut records, k, pair.pcore, tc, temp, at);
                    }
                }
            };

        for chunk_i in 0..full_chunks {
            if steady.is_none() {
                let traj = traj
                    .as_ref()
                    .expect("dynamic full chunks have a trajectory");
                let mut now_steady = false;
                if chunk_i < traj.steps.len() {
                    temps.copy_from_slice(&traj.steps[chunk_i]);
                } else if traj.converged {
                    now_steady = true;
                } else {
                    // Past the trajectory storage cap: integrate live
                    // (same arithmetic) and watch for the fixed point.
                    now_steady = step_temps(&mut temps, &targets, alpha);
                }
                if now_steady {
                    let st = make_steady(&temps);
                    max_temp = max_temp.max(st.hottest);
                    steady = Some(st);
                }
            }
            if let Some(st) = &steady {
                temp_sum += st.hottest;
                temp_chunks += 1;
                for sp in &st.pairs {
                    let k = rng.poisson_with_exp(sp.lambda, sp.exp_neg_lambda);
                    emit(&active[sp.active_i], k, sp.temp, start + elapsed, rng);
                }
            } else {
                // Transient chunk: the seed loop's per-chunk arithmetic
                // on the locally integrated temperatures.
                let hottest = cores
                    .iter()
                    .map(|&c| temps[c as usize])
                    .fold(f64::NEG_INFINITY, f64::max);
                temp_sum += hottest;
                temp_chunks += 1;
                max_temp = max_temp.max(hottest);
                for pair in &active {
                    let temp = temps[pair.pcore as usize];
                    let rate = pair.defect.rate(pair.pcore, temp);
                    if rate <= 0.0 {
                        continue;
                    }
                    let lambda = pair.events.base_per_sec() * rate * chunk_secs;
                    let k = rng.poisson(lambda);
                    emit(pair, k, temp, start + elapsed, rng);
                }
            }
            elapsed += chunk;
        }

        // Final partial chunk (if the duration is not a whole number of
        // chunks): a different dt means a different alpha and Poisson
        // mean, so it is stepped and drawn exactly like the reference.
        if partial > Duration::ZERO {
            let dt_secs = partial.as_secs_f64();
            if hold.is_none() {
                step_temps(&mut temps, &targets, self.thermal.step_alpha(partial));
            }
            let hottest = cores
                .iter()
                .map(|&c| temps[c as usize])
                .fold(f64::NEG_INFINITY, f64::max);
            temp_sum += hottest;
            temp_chunks += 1;
            max_temp = max_temp.max(hottest);
            for pair in &active {
                let temp = temps[pair.pcore as usize];
                let rate = pair.defect.rate(pair.pcore, temp);
                if rate <= 0.0 {
                    continue;
                }
                let lambda = pair.events.base_per_sec() * rate * dt_secs;
                let k = rng.poisson(lambda);
                emit(pair, k, temp, start + elapsed, rng);
            }
            elapsed += partial;
        }
        debug_assert_eq!(elapsed, duration);

        // Write the integrated temperatures back so remaining heat
        // persists across runs exactly as the reference leaves it.
        if any_chunk && hold.is_none() {
            self.thermal.set_temps(&temps);
        }
        // Workload ends: power returns to idle, remaining heat persists.
        for (pc, slot) in core_index.iter().enumerate() {
            if slot.is_some() || self.cfg.stress_idle_cores {
                self.thermal.set_power(pc, 0.0);
            }
        }
        self.clock.advance(duration);
        Ok(TestcaseRun {
            testcase: tc.id,
            cores: cores.to_vec(),
            duration,
            records,
            error_count,
            errors_per_core,
            mean_temp_c: if temp_chunks > 0 {
                temp_sum / temp_chunks as f64
            } else {
                0.0
            },
            max_temp_c: if max_temp.is_finite() { max_temp } else { 0.0 },
        })
    }

    /// The seed chunk loop, kept verbatim for differential testing: the
    /// oracle `tests/executor_equivalence.rs` (and the campaign bench
    /// baseline via [`ExecConfig::reference_executor`]) compare
    /// [`Executor::try_run`] against this path bit for bit.
    pub fn try_run_reference(
        &mut self,
        tc: &Testcase,
        cores: &[u16],
        duration: Duration,
        rng: &mut DetRng,
    ) -> Result<TestcaseRun, ExecError> {
        self.check_cores(tc, cores)?;
        let unit = self.try_profile_unit(tc, cores)?;
        let profiles = &unit.profiles;
        let sampler_samples = &unit.samples;

        if let Some(t) = self.cfg.preheat_c {
            self.thermal.preheat(t);
        }
        // Set package power: tested cores burn the workload's power, the
        // rest idle or run stress load.
        let tested: std::collections::HashSet<u16> = cores.iter().copied().collect();
        for pc in 0..self.processor.physical_cores {
            let power = if let Some(idx) = cores.iter().position(|&c| c == pc) {
                profiles[idx].power
            } else if self.cfg.stress_idle_cores {
                1.2
            } else {
                0.0
            };
            self.thermal.set_power(pc as usize, power);
        }

        // The defect loop below runs every chunk of a possibly weeks-long
        // virtual duration; everything temperature-independent — which
        // defects apply, and which sites each can corrupt on each tested
        // core — is hoisted out of it.
        let applicable: Vec<(&Defect, Option<Vec<CompSites>>)> = self
            .processor
            .defects
            .iter()
            .filter(|d| d.applies_to(tc.id))
            .map(|defect| {
                let sites = match &defect.kind {
                    DefectKind::Computation { .. } => Some(
                        (0..cores.len())
                            .map(|idx| {
                                let matching: Vec<((InstClass, DataType), f64)> = profiles[idx]
                                    .site_rates
                                    .iter()
                                    .filter(|((class, dt_), _)| defect.matches(*class, *dt_))
                                    .copied()
                                    .collect();
                                CompSites {
                                    keys: matching.iter().map(|&(k, _)| k).collect(),
                                    weights: matching.iter().map(|&(_, v)| v).collect(),
                                    total_rate: matching.iter().map(|&(_, v)| v).sum(),
                                }
                            })
                            .collect(),
                    ),
                    _ => None,
                };
                (defect, sites)
            })
            .collect();

        let start = self.clock.now();
        let mut elapsed = Duration::ZERO;
        let mut records = Vec::new();
        let mut error_count = 0u64;
        let mut errors_per_core = vec![0u64; cores.len()];
        let mut temp_sum = 0.0;
        let mut temp_chunks = 0u64;
        let mut max_temp = f64::NEG_INFINITY;

        while elapsed < duration {
            let dt = std::cmp::min(self.cfg.chunk, duration - elapsed);
            if let Some(hold) = self.cfg.hold_temp_c {
                self.thermal.preheat(hold);
            } else {
                self.thermal.advance(dt);
            }
            let dt_secs = dt.as_secs_f64();
            let hottest_tested = cores
                .iter()
                .map(|&c| self.thermal.temp(c as usize))
                .fold(f64::NEG_INFINITY, f64::max);
            temp_sum += hottest_tested;
            temp_chunks += 1;
            max_temp = max_temp.max(hottest_tested);

            for &(defect, ref comp_sites) in &applicable {
                for (idx, &pcore) in cores.iter().enumerate() {
                    let temp = self.thermal.temp(pcore as usize);
                    let rate = defect.rate(pcore, temp);
                    if rate <= 0.0 {
                        continue;
                    }
                    match &defect.kind {
                        DefectKind::Computation { .. } => {
                            let sites =
                                &comp_sites.as_ref().expect("computation defect has sites")[idx];
                            if sites.total_rate <= 0.0 {
                                continue;
                            }
                            let lambda = sites.total_rate * rate * dt_secs;
                            let k = rng.poisson(lambda);
                            error_count += k;
                            errors_per_core[idx] += k;
                            let materialize = (k as usize)
                                .min(self.cfg.max_records.saturating_sub(records.len()));
                            for _ in 0..materialize {
                                let (class, dt_) = sites.keys[rng.weighted(&sites.weights)];
                                let samples = sampler_samples.get(class, dt_);
                                let expected = if samples.is_empty() {
                                    0
                                } else {
                                    samples[rng.below(samples.len() as u64) as usize]
                                };
                                let mask = defect.choose_mask(dt_, rng);
                                records.push(SdcRecord {
                                    setting: SettingId {
                                        cpu: self.processor.id,
                                        core: CoreId(pcore),
                                        testcase: tc.id,
                                    },
                                    kind: SdcType::Computation,
                                    datatype: dt_,
                                    expected,
                                    actual: expected ^ mask,
                                    temp_c: temp,
                                    at: start + elapsed,
                                });
                            }
                        }
                        DefectKind::CoherenceDrop => {
                            let lambda = profiles[idx].invalidations_per_sec * rate * dt_secs;
                            let k = rng.poisson(lambda);
                            error_count += k;
                            errors_per_core[idx] += k;
                            self.push_consistency(
                                &mut records,
                                k,
                                pcore,
                                tc,
                                temp,
                                start + elapsed,
                            );
                        }
                        DefectKind::TxIsolation => {
                            let lambda = profiles[idx].tx_conflicts_per_sec * rate * dt_secs;
                            let k = rng.poisson(lambda);
                            error_count += k;
                            errors_per_core[idx] += k;
                            self.push_consistency(
                                &mut records,
                                k,
                                pcore,
                                tc,
                                temp,
                                start + elapsed,
                            );
                        }
                    }
                }
            }
            elapsed += dt;
        }
        // Workload ends: power returns to idle, remaining heat persists.
        for pc in 0..self.processor.physical_cores {
            if tested.contains(&pc) || self.cfg.stress_idle_cores {
                self.thermal.set_power(pc as usize, 0.0);
            }
        }
        self.clock.advance(duration);
        Ok(TestcaseRun {
            testcase: tc.id,
            cores: cores.to_vec(),
            duration,
            records,
            error_count,
            errors_per_core,
            mean_temp_c: if temp_chunks > 0 {
                temp_sum / temp_chunks as f64
            } else {
                0.0
            },
            max_temp_c: if max_temp.is_finite() { max_temp } else { 0.0 },
        })
    }

    fn push_consistency(
        &self,
        records: &mut Vec<SdcRecord>,
        k: u64,
        pcore: u16,
        tc: &Testcase,
        temp: f64,
        at: Duration,
    ) {
        let materialize = (k as usize).min(self.cfg.max_records.saturating_sub(records.len()));
        for _ in 0..materialize {
            records.push(SdcRecord {
                setting: SettingId {
                    cpu: self.processor.id,
                    core: CoreId(pcore),
                    testcase: tc.id,
                },
                kind: SdcType::Consistency,
                datatype: DataType::Bin64,
                expected: 0,
                actual: 0,
                temp_c: temp,
                at,
            });
        }
    }

    /// Full-VM validation run: executes `iters` iterations on both a
    /// golden and a fault-injected machine and derives SDC records from
    /// output mismatches (computation testcases) or invariant violations
    /// (consistency testcases). Temperatures are taken from the current
    /// thermal state and held for the (short) run.
    ///
    /// # Panics
    ///
    /// Panics where [`Executor::try_run_vm`] would return an error.
    pub fn run_vm(
        &mut self,
        tc: &Testcase,
        cores: &[u16],
        iters: u32,
        rng: &mut DetRng,
    ) -> TestcaseRun {
        self.try_run_vm(tc, cores, iters, rng)
            .unwrap_or_else(|e| panic!("invariant violated: VM run of {}: {e}", tc.name))
    }

    /// Fallible full-VM validation run: a spin-heavy interleaving that
    /// exceeds the step budget surfaces as [`ExecError::StepBudget`]
    /// instead of a panic, so supervised suites can retry or skip it.
    pub fn try_run_vm(
        &mut self,
        tc: &Testcase,
        cores: &[u16],
        iters: u32,
        rng: &mut DetRng,
    ) -> Result<TestcaseRun, ExecError> {
        self.check_cores(tc, cores)?;
        let seed = rng.next_u64();
        let built = builders::build(tc, cores.len(), iters, seed);

        // Only the defects whose trigger paths this testcase reaches
        // participate (§4.1's selectivity). Cloned once per testcase, not
        // once per machine run.
        let mut gated = self.processor.clone();
        gated.defects.retain(|d| d.applies_to(tc.id));

        // One machine serves both runs: programs are loaded (and
        // predecoded) once, and `restart` rewinds architectural state
        // between the golden and faulty executions.
        let mut machine = Machine::new(cores.len(), built.mem_bytes);
        for (c, p) in built.programs.iter().enumerate() {
            if let Some(p) = p {
                machine.load(c, p.clone());
            }
        }
        let budget_exceeded = |out: &softcore::RunOutcome| {
            if out.completed {
                Ok(())
            } else {
                Err(ExecError::StepBudget {
                    testcase: tc.id,
                    budget: self.cfg.max_unit_steps,
                })
            }
        };

        // Golden run.
        let golden_rng = rng.fork(1);
        for &(addr, val) in &built.mem_init {
            machine.mem.raw_write_u64(addr, val);
        }
        let mut interleave = golden_rng.fork(0x5150);
        let out = machine.run(&mut NoFaults, &mut interleave, self.cfg.max_unit_steps);
        budget_exceeded(&out)?;
        // Capture everything the comparison needs from the golden machine
        // before it is restarted for the faulty run.
        let golden_cycles = out.cycles;
        let golden_elems: Vec<Vec<u128>> = match &built.check {
            CheckKind::GoldenCompare => built
                .outputs
                .iter()
                .map(|region| {
                    (0..region.count)
                        .map(|i| read_element(&machine, region, i))
                        .collect()
                })
                .collect(),
            CheckKind::Invariants(_) => Vec::new(),
        };

        // Faulty run on the same (restarted) machine.
        machine.restart();
        let faulty_rng = rng.fork(2);
        for &(addr, val) in &built.mem_init {
            machine.mem.raw_write_u64(addr, val);
        }
        let mut interleave = faulty_rng.fork(0x5150);
        let temps: Vec<f64> = cores
            .iter()
            .map(|&c| self.thermal.temp(c as usize))
            .collect();
        let mut injector = Injector::new(&gated, cores.to_vec(), 45.0, faulty_rng.fork(0x1f));
        injector.set_temps(&temps);
        let out = machine.run(&mut injector, &mut interleave, self.cfg.max_unit_steps);
        budget_exceeded(&out)?;
        let faulty = machine;

        let mut records = Vec::new();
        let temp = self.thermal.max_temp();
        match &built.check {
            CheckKind::GoldenCompare => {
                for (ri, region) in built.outputs.iter().enumerate() {
                    // Attribute the region to the machine core that owns
                    // it (regions were appended per instance in order).
                    let per_instance = built.outputs.len() / cores.len().max(1);
                    let instance = ri.checked_div(per_instance).unwrap_or(0);
                    let pcore = cores[instance.min(cores.len() - 1)];
                    for i in 0..region.count {
                        let e = golden_elems[ri][i as usize];
                        let a = read_element(&faulty, region, i);
                        if e != a {
                            records.push(SdcRecord {
                                setting: SettingId {
                                    cpu: self.processor.id,
                                    core: CoreId(pcore),
                                    testcase: tc.id,
                                },
                                kind: SdcType::Computation,
                                datatype: region.dt,
                                expected: e,
                                actual: a,
                                temp_c: temp,
                                at: self.clock.now(),
                            });
                        }
                    }
                }
            }
            CheckKind::Invariants(invs) => {
                let violations = count_violations(&faulty, invs);
                for _ in 0..violations {
                    records.push(SdcRecord {
                        setting: SettingId {
                            cpu: self.processor.id,
                            core: CoreId(cores[0]),
                            testcase: tc.id,
                        },
                        kind: SdcType::Consistency,
                        datatype: DataType::Bin64,
                        expected: 0,
                        actual: 0,
                        temp_c: temp,
                        at: self.clock.now(),
                    });
                }
            }
        }
        let error_count = records.len() as u64;
        let mut errors_per_core = vec![0u64; cores.len()];
        for r in &records {
            if let Some(idx) = cores.iter().position(|&c| c == r.setting.core.0) {
                errors_per_core[idx] += 1;
            }
        }
        let duration = Duration::from_secs_f64(golden_cycles as f64 / self.cfg.clock_hz);
        self.clock.advance(duration);
        Ok(TestcaseRun {
            testcase: tc.id,
            cores: cores.to_vec(),
            duration,
            records,
            error_count,
            errors_per_core,
            mean_temp_c: temp,
            max_temp_c: temp,
        })
    }
}

/// Runs one unit of `tc` in the VM under a profiler and condenses the
/// result into a [`CachedUnitProfile`]. All randomness comes from
/// [`ProfileKey::stream`], making the result a pure function of
/// `(tc, key, cfg)`. A unit run that overruns `cfg.max_unit_steps` fails
/// with [`ExecError::StepBudget`].
pub(crate) fn compute_unit_profile(
    tc: &Testcase,
    key: ProfileKey,
    cfg: &ExecConfig,
) -> Result<CachedUnitProfile, ExecError> {
    let mut rng = key.stream();
    let built = builders::build(tc, key.cores, cfg.unit_iters, rng.next_u64());
    let mut machine = Machine::new(key.cores, built.mem_bytes);
    for &(addr, val) in &built.mem_init {
        machine.mem.raw_write_u64(addr, val);
    }
    let mut loaded = 0usize;
    for (c, p) in built.programs.iter().enumerate() {
        if let Some(p) = p {
            machine.load(c, p.clone());
            loaded += 1;
        }
    }
    let mut profiler = Profiler::new(rng.fork(0x9821));
    let mut interleave = rng.fork(0x77aa);
    let out = machine.run(&mut profiler, &mut interleave, cfg.max_unit_steps);
    if !out.completed {
        return Err(ExecError::StepBudget {
            testcase: tc.id,
            budget: cfg.max_unit_steps,
        });
    }
    let unit_secs = (out.cycles.max(1)) as f64 / cfg.clock_hz;
    let mut profiles = vec![CoreProfile::default(); key.cores];
    for ((core, class, dt), count) in profiler.counts() {
        profiles[core]
            .site_rates
            .push(((class, dt), count as f64 / unit_secs));
    }
    for (c, profile) in profiles.iter_mut().enumerate() {
        profile.site_rates.sort_by_key(|a| a.0);
        profile.power = match machine.usage.cycles(c) {
            0 => 0.0,
            cycles => machine.usage.energy(c) / cycles as f64,
        };
        let (commits, aborts) = machine.core(c).tx_stats();
        // Conflicted-commit opportunities: observed aborts, floored at
        // a small share of commits (conflicts the golden interleaving
        // happened to miss).
        let conflicts = (aborts as f64).max(commits as f64 * 0.05);
        profile.tx_conflicts_per_sec = conflicts / unit_secs;
        profile.invalidations_per_sec = if loaded > 0 {
            machine.mem.stats.invalidations as f64 / loaded as f64 / unit_secs
        } else {
            0.0
        };
    }
    Ok(CachedUnitProfile {
        profiles,
        unit_secs,
        samples: profiler.into_samples(),
    })
}

/// Reads one element of an output region from flushed machine memory.
fn read_element(machine: &Machine, region: &OutputRegion, i: u64) -> u128 {
    let addr = region.addr + i * region.stride;
    match (region.dt.bits(), region.stride) {
        (80, _) => machine.mem.raw_read_u128(addr) & region.dt.mask(),
        (32, 4) => {
            // Packed 32-bit lanes inside 64-bit words.
            let word = machine.mem.raw_read_u64(addr & !7);
            let shift = (addr & 7) * 8;
            ((word >> shift) & 0xffff_ffff) as u128
        }
        (32, _) if region.dt == DataType::F32 => {
            // Scalar f32 results are stored widened to f64.
            let word = machine.mem.raw_read_u64(addr);
            (f64::from_bits(word) as f32).to_bits() as u128
        }
        _ => machine.mem.raw_read_u64(addr) as u128 & region.dt.mask(),
    }
}

/// Counts invariant violations on a halted machine.
fn count_violations(machine: &Machine, invs: &[Invariant]) -> u64 {
    let mut violations = 0;
    for inv in invs {
        match inv {
            Invariant::Equals { addr, value } => {
                let got = machine.mem.raw_read_u64(*addr);
                if got != *value {
                    violations += got.abs_diff(*value).min(16);
                }
            }
            Invariant::Zero { addr } => {
                violations += machine.mem.raw_read_u64(*addr).min(16);
            }
            Invariant::CounterMatchesSuccesses {
                counter,
                success_addrs,
            } => {
                let total: u64 = success_addrs
                    .iter()
                    .map(|a| machine.mem.raw_read_u64(*a))
                    .sum();
                let got = machine.mem.raw_read_u64(*counter);
                if got != total {
                    violations += got.abs_diff(total).min(16);
                }
            }
        }
    }
    violations
}
