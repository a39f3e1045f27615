//! Retry/backoff supervision for fault-exposed work slots.
//!
//! A slot is one unit of campaign work (one defective processor's
//! lifecycle walk, one eval round). Under a [`FaultPlan`] a slot attempt
//! can be hit by infrastructure faults or fail with a transient
//! [`ExecError`]; the supervisor retries with exponential backoff +
//! jitter — *accounted*, never slept, since campaign time is simulated —
//! and gives up after a bounded number of attempts, marking the slot
//! lost instead of panicking. Because every attempt re-forks the slot's
//! RNG from scratch, a slot that eventually succeeds produces exactly
//! the result an unsupervised run would have: supervision is transparent
//! to outcomes (the property test in `crates/fleet/tests/prop.rs`).

use crate::chaos::{FaultPlan, OpFault};
use sdc_model::DetRng;
use toolchain::ExecError;

/// Why a slot attempt produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlotError {
    /// An injected operational fault hit the attempt.
    Fault(OpFault),
    /// The executor failed (transient or not — see
    /// [`ExecError::is_transient`]).
    Exec(ExecError),
}

impl SlotError {
    /// True when a later attempt can succeed.
    pub fn is_retryable(&self) -> bool {
        match self {
            // All injected infrastructure faults are transient by
            // definition: the machine comes back, the runner restarts.
            SlotError::Fault(_) => true,
            SlotError::Exec(e) => e.is_transient(),
        }
    }

    /// The fault-kind counter this error belongs to, if any.
    pub fn fault_kind(&self) -> Option<OpFault> {
        match self {
            SlotError::Fault(f) => Some(*f),
            SlotError::Exec(ExecError::ProfileRead { .. }) => Some(OpFault::ProfileRead),
            SlotError::Exec(_) => None,
        }
    }
}

impl std::fmt::Display for SlotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SlotError::Fault(fault) => write!(f, "injected fault: {fault}"),
            SlotError::Exec(e) => write!(f, "executor error: {e}"),
        }
    }
}

impl From<ExecError> for SlotError {
    fn from(e: ExecError) -> Self {
        SlotError::Exec(e)
    }
}

/// Bounded-retry policy with exponential backoff + jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Attempts per slot before it is marked lost (≥ 1).
    pub max_attempts: u32,
    /// Backoff after the first failed attempt, in seconds.
    pub base_backoff_secs: f64,
    /// Backoff ceiling, in seconds.
    pub max_backoff_secs: f64,
    /// Jitter fraction: the accounted backoff is scaled by a factor
    /// drawn uniformly from `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    /// Six attempts, 30 s base doubling to a 10 min ceiling, ±25%
    /// jitter — the shape of a fleet scanner's slot scheduler.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            base_backoff_secs: 30.0,
            max_backoff_secs: 600.0,
            jitter: 0.25,
        }
    }
}

impl RetryPolicy {
    /// The accounted backoff after failed attempt `attempt` (0-based).
    ///
    /// Deterministic: the jitter stream is forked from `(plan seed,
    /// slot label, attempt)`, never from wall-clock or shared state.
    pub fn backoff_secs(&self, plan: &FaultPlan, label: u64, attempt: u32) -> f64 {
        let exp = (self.base_backoff_secs * 2f64.powi(attempt as i32)).min(self.max_backoff_secs);
        if self.jitter <= 0.0 {
            return exp;
        }
        let mut rng = DetRng::new(plan.seed)
            .fork_str("backoff")
            .fork(label)
            .fork(attempt as u64);
        exp * rng.range_f64(1.0 - self.jitter, 1.0 + self.jitter)
    }
}

/// One slot attempt, as seen by the work closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attempt {
    /// 0-based attempt index.
    pub index: u32,
    /// The injected fault hitting this attempt, if any. The closure
    /// decides how it surfaces — most map it straight to
    /// `Err(SlotError::Fault(..))` via [`Attempt::surface_fault`];
    /// profile-read faults instead route through the fallible profile
    /// accessor so the real error path is exercised.
    pub injected: Option<OpFault>,
}

impl Attempt {
    /// Errors out if an injected fault hit this attempt.
    pub fn surface_fault(&self) -> Result<(), SlotError> {
        match self.injected {
            Some(f) => Err(SlotError::Fault(f)),
            None => Ok(()),
        }
    }
}

/// Per-slot supervision accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotReport {
    /// Attempts made (≥ 1).
    pub attempts: u32,
    /// Faults observed, by [`OpFault::index`].
    pub faults_by_kind: [u64; OpFault::ALL.len()],
    /// Accounted (not slept) backoff seconds.
    pub backoff_secs: f64,
    /// The error that exhausted the attempt budget, if the slot was
    /// lost.
    pub lost: Option<SlotError>,
}

impl Default for SlotReport {
    fn default() -> Self {
        SlotReport {
            attempts: 0,
            faults_by_kind: [0; OpFault::ALL.len()],
            backoff_secs: 0.0,
            lost: None,
        }
    }
}

/// The supervised result of one slot.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotOutcome<R> {
    /// The slot's result; `None` when the slot was lost.
    pub result: Option<R>,
    /// Supervision accounting.
    pub report: SlotReport,
}

/// Runs one slot under `policy` and `plan`.
///
/// `work` is invoked once per attempt with the attempt descriptor (its
/// index and injected fault) and must be a pure function of it — in particular
/// it must re-fork any RNG it uses from scratch, so a retried success is
/// bitwise identical to a first-attempt success. Retryable failures
/// accrue backoff and try again; a non-retryable failure or an exhausted
/// attempt budget loses the slot (graceful degradation — the caller gets
/// `None` plus accounting, not a panic).
pub fn run_slot<R>(
    policy: &RetryPolicy,
    plan: &FaultPlan,
    label: u64,
    mut work: impl FnMut(Attempt) -> Result<R, SlotError>,
) -> SlotOutcome<R> {
    assert!(policy.max_attempts >= 1, "retry policy with zero attempts");
    let mut report = SlotReport::default();
    for index in 0..policy.max_attempts {
        report.attempts += 1;
        let attempt = Attempt {
            index,
            injected: plan.draw(label, index),
        };
        match work(attempt) {
            Ok(result) => {
                return SlotOutcome {
                    result: Some(result),
                    report,
                }
            }
            Err(e) => {
                if let Some(kind) = e.fault_kind() {
                    report.faults_by_kind[kind.index()] += 1;
                }
                let last = index + 1 == policy.max_attempts;
                if !e.is_retryable() || last {
                    report.lost = Some(e);
                    return SlotOutcome {
                        result: None,
                        report,
                    };
                }
                report.backoff_secs += policy.backoff_secs(plan, label, index);
            }
        }
    }
    unreachable!("attempt loop returns on success, loss, or exhaustion");
}

/// Aggregated supervision accounting over a whole campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttritionStats {
    /// Slots supervised.
    pub items: u64,
    /// Slots that produced a result.
    pub completed: u64,
    /// Slots lost after exhausting retries (or a permanent error).
    pub lost: u64,
    /// Extra attempts beyond the first, summed over slots.
    pub retries: u64,
    /// Faults observed, by [`OpFault::index`].
    pub faults_by_kind: [u64; OpFault::ALL.len()],
    /// Accounted backoff seconds, summed over slots.
    pub backoff_secs: f64,
}

impl Default for AttritionStats {
    fn default() -> Self {
        AttritionStats {
            items: 0,
            completed: 0,
            lost: 0,
            retries: 0,
            faults_by_kind: [0; OpFault::ALL.len()],
            backoff_secs: 0.0,
        }
    }
}

impl AttritionStats {
    /// Folds one slot's accounting in.
    pub fn record(&mut self, completed: bool, report: &SlotReport) {
        self.items += 1;
        if completed {
            self.completed += 1;
        } else {
            self.lost += 1;
        }
        self.retries += (report.attempts.saturating_sub(1)) as u64;
        for (acc, n) in self.faults_by_kind.iter_mut().zip(report.faults_by_kind) {
            *acc += n;
        }
        self.backoff_secs += report.backoff_secs;
    }

    /// Folds another aggregate in (e.g. per-row stats into a run-wide
    /// total).
    pub fn merge(&mut self, other: &AttritionStats) {
        self.items += other.items;
        self.completed += other.completed;
        self.lost += other.lost;
        self.retries += other.retries;
        for (acc, n) in self.faults_by_kind.iter_mut().zip(other.faults_by_kind) {
            *acc += n;
        }
        self.backoff_secs += other.backoff_secs;
    }

    /// Fraction of slots that completed (1.0 for an empty campaign).
    pub fn coverage(&self) -> f64 {
        if self.items == 0 {
            1.0
        } else {
            self.completed as f64 / self.items as f64
        }
    }

    /// Total faults across all kinds.
    pub fn total_faults(&self) -> u64 {
        self.faults_by_kind.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn storm() -> FaultPlan {
        FaultPlan {
            seed: 7,
            offline: 0.05,
            crash: 0.03,
            preempt: 0.10,
            read_error: 0.04,
            timeout: 0.02,
        }
    }

    #[test]
    fn quiet_plan_is_single_attempt_passthrough() {
        let plan = FaultPlan::default();
        let out = run_slot(&RetryPolicy::default(), &plan, 1, |a| {
            assert_eq!(a.injected, None);
            a.surface_fault()?;
            Ok::<_, SlotError>(42u32)
        });
        assert_eq!(out.result, Some(42));
        assert_eq!(out.report.attempts, 1);
        assert_eq!(out.report.backoff_secs, 0.0);
        assert!(out.report.lost.is_none());
    }

    #[test]
    fn faulted_attempts_retry_and_account_backoff() {
        let plan = storm();
        // Find a slot whose first attempt is faulted but which succeeds
        // within the budget.
        let policy = RetryPolicy::default();
        let label = (0..5000u64)
            .find(|&l| plan.draw(l, 0).is_some() && plan.draw(l, 1).is_none())
            .expect("a fault-then-clear slot exists");
        let out = run_slot(&policy, &plan, label, |a| {
            a.surface_fault()?;
            Ok::<_, SlotError>(7u32)
        });
        assert_eq!(out.result, Some(7));
        assert!(out.report.attempts >= 2);
        assert!(out.report.backoff_secs > 0.0);
        assert!(out.report.faults_by_kind.iter().sum::<u64>() >= 1);
    }

    #[test]
    fn exhausted_budget_loses_the_slot() {
        let plan = FaultPlan {
            seed: 1,
            preempt: 1.0,
            ..FaultPlan::default()
        };
        let policy = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        let out = run_slot(&policy, &plan, 9, |a| {
            a.surface_fault()?;
            Ok::<_, SlotError>(0u32)
        });
        assert_eq!(out.result, None);
        assert_eq!(out.report.attempts, 3);
        assert_eq!(out.report.lost, Some(SlotError::Fault(OpFault::Preempted)));
        assert_eq!(out.report.faults_by_kind[OpFault::Preempted.index()], 3);
    }

    #[test]
    fn permanent_errors_do_not_retry() {
        let plan = FaultPlan::default();
        let mut calls = 0;
        let out = run_slot(&RetryPolicy::default(), &plan, 2, |_| {
            calls += 1;
            Err::<u32, _>(SlotError::Exec(ExecError::NoCores))
        });
        assert_eq!(calls, 1, "permanent errors must not retry");
        assert_eq!(out.result, None);
        assert_eq!(out.report.lost, Some(SlotError::Exec(ExecError::NoCores)));
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_capped() {
        let plan = storm();
        let policy = RetryPolicy::default();
        let a = policy.backoff_secs(&plan, 5, 0);
        let b = policy.backoff_secs(&plan, 5, 0);
        assert_eq!(a, b, "jitter must come from the forked stream");
        // Jitter bounds.
        assert!(a >= policy.base_backoff_secs * 0.75 && a <= policy.base_backoff_secs * 1.25);
        // Exponential growth up to the cap.
        let far = policy.backoff_secs(&plan, 5, 20);
        assert!(far <= policy.max_backoff_secs * 1.25);
        assert!(far >= policy.max_backoff_secs * 0.75);
    }

    #[test]
    fn attrition_stats_aggregate() {
        let mut stats = AttritionStats::default();
        let mut r1 = SlotReport::default();
        r1.attempts = 3;
        r1.faults_by_kind[OpFault::Preempted.index()] = 2;
        r1.backoff_secs = 60.0;
        stats.record(true, &r1);
        let mut r2 = SlotReport::default();
        r2.attempts = 6;
        r2.lost = Some(SlotError::Fault(OpFault::MachineOffline));
        stats.record(false, &r2);
        assert_eq!(stats.items, 2);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.lost, 1);
        assert_eq!(stats.retries, 2 + 5);
        assert_eq!(stats.total_faults(), 2);
        assert!((stats.coverage() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn profile_read_exec_error_counts_as_profile_fault() {
        let e = SlotError::Exec(ExecError::ProfileRead {
            testcase: sdc_model::TestcaseId(0),
            attempt: 0,
        });
        assert!(e.is_retryable());
        assert_eq!(e.fault_kind(), Some(OpFault::ProfileRead));
        assert_eq!(SlotError::Exec(ExecError::NoCores).fault_kind(), None);
    }
}
