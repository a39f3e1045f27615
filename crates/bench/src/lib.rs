//! Shared helpers for the bench targets.
//!
//! `softcore_hotpath` and `campaign_hotpath` write `BENCH_softcore.json`
//! and `BENCH_campaign.json` and, with `--quick`, gate their speedup
//! ratios against those artifacts; `ablations` prints the effect of
//! disabling each Farron design choice. Cold, per-layer timings of the
//! paper's pipeline come from `perfbench/`; the regenerated tables and
//! figures come from the `repro` binary.

use sdc_model::TestcaseId;
use toolchain::Suite;

/// Finds a testcase id by name prefix.
///
/// # Panics
///
/// Panics if no testcase matches.
pub fn find(suite: &Suite, prefix: &str) -> TestcaseId {
    suite
        .testcases()
        .iter()
        .find(|t| t.name.starts_with(prefix))
        .unwrap_or_else(|| panic!("no testcase with prefix {prefix}"))
        .id
}
