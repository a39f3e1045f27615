//! Conformance gate: machine-checks that the simulated population still
//! reproduces the paper.
//!
//! Three layers, all wired into `repro conform [--quick]`:
//!
//! 1. **Golden statistics** ([`golden`], [`metrics`]): replay the study
//!    deterministically and assert every paper-reproducible statistic
//!    (Table 1 failure rates, feature/datatype shares, bitflip structure,
//!    temperature curves, Farron eval deltas) against the checked-in
//!    [`GOLDEN.json`](https://example.invalid) with explicit per-metric
//!    tolerance bands.
//! 2. **Differential softcore oracle** ([`oracle`], [`reference`]):
//!    property-based instruction streams executed both on a defect-free
//!    [`softcore::Machine`] and on an independent pure-Rust reference
//!    semantics; divergences are minimized to a shrunk repro case.
//! 3. **Metamorphic invariants** ([`metamorphic`]): population-scale
//!    invariance, defect-mask monotonicity, and chaos / checkpoint /
//!    thread-count transparency, folded into one reusable
//!    [`metamorphic::assert_transparent`] helper.

pub mod golden;
pub mod metamorphic;
pub mod metrics;
pub mod oracle;
pub mod reference;

pub use golden::{
    golden_file, ConformanceReport, GoldenFile, GoldenMetric, GoldenSet, MetricCheck,
};
pub use metrics::{collect_metrics, Metric};
pub use oracle::{Divergence, OracleConfig, SweepOutcome};
