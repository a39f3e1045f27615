//! Fleet-scale test campaigns (Tables 1 and 2).
//!
//! The paper tests >1M processors over 32 months across a four-stage
//! lifecycle (Figure 1): factory delivery, datacenter delivery, system
//! re-installation, and regular in-production rounds. This crate
//! reproduces that pipeline at full population scale:
//!
//! * [`population`] samples the fleet — healthy packages are only
//!   counted, defective ones are materialized from the `silicon`
//!   samplers;
//! * [`screening`] computes, for one defective processor and one test
//!   stage, the probability that the stage's toolchain pass detects it —
//!   using *static* workload profiles (instruction counts per testcase
//!   walked from the programs, steady-state temperatures from the thermal
//!   model) so a million-CPU campaign runs in seconds;
//! * [`lifecycle`] defines the stages and their intensities;
//! * [`campaign`] runs the whole pipeline and produces the per-stage and
//!   per-architecture failure rates of Tables 1 and 2.

pub mod campaign;
pub mod chaos;
pub mod checkpoint;
pub mod exposure;
pub mod lifecycle;
pub mod parallel;
pub mod population;
pub mod screening;
pub mod supervisor;

pub use campaign::{
    campaign_fingerprint, run_campaign, run_campaign_on, run_campaign_resumable, CampaignOutcome,
    Fate, ResumableRun, SupervisedCampaign,
};
pub use chaos::{FaultPlan, OpFault};
pub use checkpoint::{
    CampaignCheckpoint, CheckpointError, CheckpointStore, Fingerprint, ItemRecord,
};
pub use exposure::{exposure_report, ExposureReport};
pub use lifecycle::{Stage, StageSpec};
pub use parallel::{resolve_threads, run_indexed};
pub use population::{FleetConfig, FleetPopulation};
pub use screening::{stage_detection_probability, StaticSuiteProfile, SuiteProfileCache};
pub use supervisor::{
    run_slot, Attempt, AttritionStats, RetryPolicy, SlotError, SlotOutcome, SlotReport,
};
