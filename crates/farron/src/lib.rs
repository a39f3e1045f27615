//! Farron: the paper's SDC mitigation system (§7).
//!
//! Farron layers four mechanisms on top of the plain testing baseline:
//!
//! * **Prioritized testing** ([`priority`], [`schedule`]): testcases carry
//!   `basic` / `active` / `suspected` priorities from testing history;
//!   regular rounds give long slots to suspected and active testcases
//!   whose targeted feature the protected application uses, and a
//!   best-effort sliver to the rest — the source of the 10× round-time
//!   reduction (1.02 h vs. 10.55 h).
//! * **Adaptive temperature boundary + workload backoff** ([`boundary`],
//!   [`online`]): a window of temperature records learns the application's
//!   normal working temperature; excursions beyond the learned boundary
//!   trigger workload backoff until the die cools — mitigating *tricky*
//!   SDCs that testing can't economically cover (Observation 10).
//! * **Burn-in test environment**: regular tests run every core
//!   simultaneously and preheat the package so testing covers the
//!   application's execution temperatures.
//! * **Fine-grained decommission** ([`decommission`]): defective cores are
//!   masked and the rest keep serving from a reliable resource pool;
//!   processors with more than two defective cores are deprecated whole.
//!
//! The [`eval`] module reproduces Figure 11 (one-round coverage vs. the
//! baseline) and Table 4 (testing + control overhead per processor);
//! [`baseline`] implements Alibaba's pre-Farron strategy.

pub mod baseline;
pub mod boundary;
pub mod capacity;
pub mod decommission;
pub mod eval;
pub mod online;
pub mod priority;
pub mod requeue;
pub mod schedule;
pub mod state;

pub use boundary::{AdaptiveBoundary, BoundaryAction};
pub use capacity::{capacity_report, CapacityReport};
pub use decommission::{DecommissionDecision, ReliablePool};
pub use eval::{
    eval_fingerprint, evaluate, evaluate_chaos, EvalCheckpoint, EvalConfig, EvalRow, EvalRowRecord,
    EvalRun,
};
pub use online::{simulate_online, AppProfile, ControlMode, OnlineConfig, OnlineReport};
pub use priority::{PriorityBook, TestPriority};
pub use requeue::{round_label, run_plan_requeue, RequeueReport};
pub use schedule::FarronScheduler;
pub use state::{FarronState, StateMachine};
