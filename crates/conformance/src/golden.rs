//! The golden-statistics file and the pass/fail conformance report.
//!
//! `GOLDEN.json` is checked into the crate and embedded at compile time.
//! It holds one metric set per mode (`quick`, `full`); each metric is a
//! `(name, value, tol)` triple and passes when the measured value lands
//! in the closed band `[value − tol, value + tol]`. The simulation is
//! fully deterministic, so golden values are *exact* reproductions of a
//! past run and bands exist only to absorb deliberate, reviewed model
//! changes — they are chosen tight enough that a perturbed defect-model
//! parameter trips the gate (see `tests/golden_gate.rs`).

use crate::metrics::Metric;
use serde::{Deserialize, Serialize};

/// The embedded golden file (regenerate with `repro conform --quick
/// --write-golden crates/conformance/GOLDEN.json`).
pub const GOLDEN_JSON: &str = include_str!("../GOLDEN.json");

/// One golden statistic: the recorded value and its tolerance band.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GoldenMetric {
    /// Metric name, e.g. `table1.total_bp` or `fig2.fpu`.
    pub name: String,
    /// Recorded golden value.
    pub value: f64,
    /// Half-width of the acceptance band around `value`.
    pub tol: f64,
}

serde::impl_json_struct!(GoldenMetric { name, value, tol });

/// All golden metrics of one mode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GoldenSet {
    /// `"quick"` or `"full"`.
    pub mode: String,
    /// The metrics, in report order.
    pub metrics: Vec<GoldenMetric>,
}

serde::impl_json_struct!(GoldenSet { mode, metrics });

/// The whole golden file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GoldenFile {
    /// Bumped when the metric naming scheme changes incompatibly.
    pub version: u32,
    /// One set per mode.
    pub sets: Vec<GoldenSet>,
}

serde::impl_json_struct!(GoldenFile { version, sets });

impl GoldenFile {
    /// The set for `mode`, if recorded.
    pub fn set(&self, mode: &str) -> Option<&GoldenSet> {
        self.sets.iter().find(|s| s.mode == mode)
    }
}

/// Parses the embedded `GOLDEN.json`. Panics on malformed content — the
/// file is a checked-in build artifact, not runtime input.
pub fn golden_file() -> GoldenFile {
    parse_golden(GOLDEN_JSON).expect("invariant violated: embedded GOLDEN.json parses")
}

/// Parses golden-file JSON from a string (used for regeneration and by
/// tests that perturb the file).
pub fn parse_golden(json: &str) -> Result<GoldenFile, String> {
    serde_json::from_str(json).map_err(|e| e.to_string())
}

/// One line of the conformance report.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricCheck {
    /// Metric name.
    pub name: String,
    /// Measured value (`NaN` when the collector did not produce it).
    pub value: f64,
    /// Golden value.
    pub golden: f64,
    /// Band half-width.
    pub tol: f64,
    /// Whether `value` is inside `[golden − tol, golden + tol]`.
    pub pass: bool,
}

/// The result of checking a measured metric vector against a golden set.
#[derive(Debug, Clone)]
pub struct ConformanceReport {
    /// The mode checked.
    pub mode: String,
    /// Per-metric verdicts, golden-set order; measured metrics missing
    /// from the golden set are appended as failures (the set must be
    /// regenerated whenever the collector grows).
    pub checks: Vec<MetricCheck>,
}

impl ConformanceReport {
    /// True when every metric is inside its band.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    /// The failing checks.
    pub fn failures(&self) -> Vec<&MetricCheck> {
        self.checks.iter().filter(|c| !c.pass).collect()
    }

    /// Renders the report: every metric, its value, the golden value and
    /// the band, with a verdict column.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "conformance report ({} mode): {} metrics, {} failing\n",
            self.mode,
            self.checks.len(),
            self.failures().len()
        ));
        out.push_str(&format!(
            "{:<34} {:>12} {:>12} {:>10}  verdict\n",
            "metric", "measured", "golden", "band"
        ));
        for c in &self.checks {
            out.push_str(&format!(
                "{:<34} {:>12.4} {:>12.4} {:>10}  {}\n",
                c.name,
                c.value,
                c.golden,
                format!("±{:.4}", c.tol),
                if c.pass { "ok" } else { "FAIL" }
            ));
        }
        out
    }
}

/// Checks measured metrics against a golden set. Every golden metric
/// must be measured and in band; every measured metric must be golden
/// (strict in both directions, so the set cannot silently rot).
pub fn check(set: &GoldenSet, measured: &[Metric]) -> ConformanceReport {
    let mut checks = Vec::with_capacity(set.metrics.len());
    for g in &set.metrics {
        let m = measured.iter().find(|m| m.name == g.name);
        let value = m.map(|m| m.value).unwrap_or(f64::NAN);
        let pass = m.is_some() && (value - g.value).abs() <= g.tol;
        checks.push(MetricCheck {
            name: g.name.clone(),
            value,
            golden: g.value,
            tol: g.tol,
            pass,
        });
    }
    for m in measured {
        if !set.metrics.iter().any(|g| g.name == m.name) {
            checks.push(MetricCheck {
                name: format!("{} (not in golden set)", m.name),
                value: m.value,
                golden: f64::NAN,
                tol: 0.0,
                pass: false,
            });
        }
    }
    ConformanceReport {
        mode: set.mode.clone(),
        checks,
    }
}

/// Default band half-width for a newly recorded metric, by name shape.
/// Deterministic replay reproduces golden values exactly; bands only
/// leave room for deliberate model adjustments while staying tight
/// enough that a perturbed defect parameter trips the gate.
pub fn default_tol(name: &str, value: f64) -> f64 {
    if name.starts_with("table1.") || name.starts_with("table2.") {
        // Rates in ‱: generous relative slack, floored for tiny rates.
        (0.10 * value.abs()).max(0.25)
    } else if name.starts_with("temperature.") && name.ends_with("t_min_c") {
        // Grid steps are 2 ℃; one step of drift is tolerated.
        2.0
    } else if name.ends_with("_r") || name.contains("correlation") {
        // Pearson correlations.
        0.12
    } else if name.ends_with("_count")
        || name.ends_with("_events")
        || name.starts_with("obs4.")
        || name.starts_with("obs5.")
        || name.starts_with("obs11.")
        || name.contains("known_errors")
        || name.contains("escaped")
    {
        // Counts.
        (0.10 * value.abs()).max(2.0)
    } else if name.contains("hours") || name.contains("overhead") {
        (0.15 * value.abs()).max(0.02)
    } else {
        // Shares / proportions in [0, 1].
        0.06
    }
}

/// Builds a regenerated golden set from measured values, keeping each
/// existing metric's reviewed tolerance and applying [`default_tol`] to
/// new metrics.
pub fn regenerate(existing: Option<&GoldenSet>, mode: &str, measured: &[Metric]) -> GoldenSet {
    GoldenSet {
        mode: mode.to_string(),
        metrics: measured
            .iter()
            .map(|m| {
                let tol = existing
                    .and_then(|s| s.metrics.iter().find(|g| g.name == m.name))
                    .map(|g| g.tol)
                    .unwrap_or_else(|| default_tol(&m.name, m.value));
                GoldenMetric {
                    name: m.name.clone(),
                    value: m.value,
                    tol,
                }
            })
            .collect(),
    }
}

/// Serializes a golden file as indented-enough JSON (one metric per
/// line, so diffs of regenerated files review cleanly).
pub fn render_golden(file: &GoldenFile) -> String {
    let mut out = String::new();
    out.push_str(&format!("{{\"version\":{},\"sets\":[", file.version));
    for (i, set) in file.sets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n{{\"mode\":\"{}\",\"metrics\":[\n", set.mode));
        for (j, m) in set.metrics.iter().enumerate() {
            if j > 0 {
                out.push_str(",\n");
            }
            let mut line = String::new();
            m.serialize_json(&mut line);
            out.push_str(&line);
        }
        out.push_str("\n]}");
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::metric;

    fn set() -> GoldenSet {
        GoldenSet {
            mode: "quick".into(),
            metrics: vec![
                GoldenMetric {
                    name: "a".into(),
                    value: 1.0,
                    tol: 0.1,
                },
                GoldenMetric {
                    name: "b".into(),
                    value: 2.0,
                    tol: 0.5,
                },
            ],
        }
    }

    #[test]
    fn in_band_metrics_pass_and_out_of_band_fail() {
        let r = check(&set(), &[metric("a", 1.05), metric("b", 2.6)]);
        assert!(!r.passed());
        assert!(r.checks[0].pass);
        assert!(!r.checks[1].pass, "2.6 is outside 2.0 ± 0.5");
        assert_eq!(r.failures().len(), 1);
    }

    #[test]
    fn band_edges_are_inclusive() {
        // b's lower edge 2.0 − 0.5 = 1.5 is exactly representable, so the
        // closed-interval check is observable without FP rounding noise.
        let r = check(&set(), &[metric("a", 1.0), metric("b", 1.5)]);
        assert!(r.passed(), "{}", r.render());
    }

    #[test]
    fn missing_and_unknown_metrics_fail() {
        let r = check(&set(), &[metric("a", 1.0), metric("c", 9.0)]);
        assert!(!r.passed());
        assert!(r.checks.iter().any(|c| c.name == "b" && !c.pass));
        assert!(r.checks.iter().any(|c| c.name.contains('c') && !c.pass));
    }

    #[test]
    fn render_names_every_metric_value_golden_and_band() {
        let r = check(&set(), &[metric("a", 1.0), metric("b", 2.0)]);
        let text = r.render();
        for needle in ["a", "b", "1.0000", "2.0000", "±0.1000", "±0.5000", "ok"] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn golden_roundtrip_through_json() {
        let file = GoldenFile {
            version: 1,
            sets: vec![set()],
        };
        let text = render_golden(&file);
        let back = parse_golden(&text).unwrap();
        assert_eq!(back, file);
    }

    #[test]
    fn embedded_golden_file_parses_and_has_both_modes() {
        let file = golden_file();
        assert!(file.set("quick").is_some(), "quick set recorded");
        for set in &file.sets {
            for m in &set.metrics {
                assert!(m.tol > 0.0, "{} must have a nonzero band", m.name);
                assert!(m.value.is_finite(), "{} must be finite", m.name);
            }
        }
    }

    #[test]
    fn regenerate_keeps_reviewed_tolerances() {
        let old = set();
        let new = regenerate(Some(&old), "quick", &[metric("a", 1.02), metric("z", 0.5)]);
        assert_eq!(new.metrics[0].tol, 0.1, "existing band kept");
        assert_eq!(new.metrics[0].value, 1.02, "value refreshed");
        assert!(new.metrics[1].tol > 0.0, "new metric gets a default band");
    }
}
