//! Metric collectors: one number per paper-reproducible statistic.
//!
//! Each collector mirrors the corresponding `repro` artifact exactly
//! (same configs, seeds and derivations), so the conformance gate checks
//! the statistics a reader of EXPERIMENTS.md actually sees. The eval
//! collector is the exception: quick mode uses a deliberately small
//! evaluation (one round, short windows) so the CI thread matrix stays
//! fast — its golden values are recorded from the same small config.

use analysis::study::{run_deep_study, StudyConfig, StudyData};
use analysis::{
    bitflips, datatypes, features, observations, precision, reproducibility, temperature,
};
use farron::eval::{evaluate, EvalConfig, EvalRow};
use fleet::{run_campaign, CampaignOutcome, FleetConfig};
use sdc_model::{DataType, Duration};
use silicon::Processor;
use toolchain::Suite;

/// One measured statistic.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Dotted name, e.g. `fig2.fpu`.
    pub name: String,
    /// Measured value.
    pub value: f64,
}

/// Shorthand constructor.
pub fn metric(name: impl Into<String>, value: f64) -> Metric {
    Metric {
        name: name.into(),
        value,
    }
}

/// The campaign config behind Tables 1–2; `repro table1` runs this config.
pub fn campaign_config(quick: bool, threads: usize) -> FleetConfig {
    FleetConfig {
        total_cpus: if quick { 200_000 } else { 1_050_000 },
        seed: 2021,
        threads,
    }
}

/// The deep-study config; `repro fig2`/`fig3`/… run this config.
pub fn study_config(quick: bool, threads: usize) -> StudyConfig {
    StudyConfig {
        per_testcase: if quick {
            Duration::from_secs(30)
        } else {
            Duration::from_mins(2)
        },
        seed: 27,
        max_candidates: if quick { Some(40) } else { None },
        threads,
        ..StudyConfig::default()
    }
}

/// The Farron evaluation config. Quick mode is a one-round miniature
/// (see module docs); full mode matches `repro table4`.
pub fn eval_config(quick: bool, threads: usize) -> EvalConfig {
    if quick {
        EvalConfig {
            reference_per_testcase: Duration::from_mins(1),
            seed: 711,
            online_duration: Duration::from_mins(15),
            rounds: 1,
            threads,
        }
    } else {
        EvalConfig {
            threads,
            ..EvalConfig::default()
        }
    }
}

fn slug(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

/// Table 1 / Table 2 metrics from a campaign outcome.
pub fn campaign_metrics(out: &CampaignOutcome) -> Vec<Metric> {
    let mut v = Vec::new();
    for (label, rate) in out.table1() {
        v.push(metric(format!("table1.{}_bp", slug(&label)), rate));
    }
    v.push(metric("table1.escaped_count", out.escaped() as f64));
    let summary = analysis::failure_rates::summarize(out);
    v.push(metric(
        "table1.pre_production_share",
        summary.pre_production_share,
    ));
    for (label, rate) in out.table2() {
        v.push(metric(format!("table2.{}_bp", slug(&label)), rate));
    }
    v
}

/// Study-derived metrics: Figures 2–7 and Observations 4–11.
pub fn study_metrics(study: &StudyData, suite: &Suite) -> Vec<Metric> {
    let mut v = Vec::new();
    for share in features::figure2(study, suite) {
        v.push(metric(
            format!("fig2.{}", slug(share.feature.label())),
            share.proportion,
        ));
    }
    // One columnar corpus serves every record-derived statistic below —
    // the record vector is collected once, not once per figure.
    let corpus = study.corpus();
    let shares = datatypes::figure3_from(&corpus);
    for s in &shares {
        v.push(metric(
            format!("fig3.{}", slug(s.datatype.label())),
            s.proportion,
        ));
    }
    let (float_share, other_share) = datatypes::float_vs_other_share(&shares);
    v.push(metric("fig3.float_mean_share", float_share));
    v.push(metric("fig3.other_mean_share", other_share));

    v.push(metric(
        "bitflips.zero_to_one_share",
        corpus.records.zero_to_one_share(),
    ));
    v.push(metric(
        "bitflips.f64_fraction_share",
        corpus.records.fraction_part_share(DataType::F64),
    ));
    let hist = corpus.records.bit_histogram(DataType::F64);
    v.push(metric(
        "bitflips.f64_msb4_share",
        bitflips::msb_share(&hist, 4),
    ));

    let settings = corpus.records.mine_patterns();
    let big: Vec<_> = settings.iter().filter(|s| s.n_records >= 20).collect();
    let mean_share = big.iter().map(|s| s.pattern_share).sum::<f64>() / big.len().max(1) as f64;
    v.push(metric("patterns.mean_share_20plus", mean_share));
    let mult = corpus
        .records
        .flip_multiplicity_with(&settings, DataType::F64);
    v.push(metric("patterns.f64_single_flip_share", mult.one));

    v.push(metric(
        "precision.f64_below_0p02pct",
        precision::loss_cdf(study.all_records(), DataType::F64).fraction_below(2e-4),
    ));

    v.push(metric(
        "obs9.share_above_one_per_min",
        reproducibility::summarize(study).share_above_one_per_min,
    ));

    let scope = observations::obs4_scope(study);
    v.push(metric("obs4.single_core_count", scope.single_core as f64));
    v.push(metric("obs4.multi_core_count", scope.multi_core as f64));
    let types = observations::obs5_types(study);
    v.push(metric("obs5.computation_count", types.computation as f64));
    v.push(metric("obs5.consistency_count", types.consistency as f64));
    v.push(metric(
        "obs5.single_type_invariant",
        if types.single_type_invariant {
            1.0
        } else {
            0.0
        },
    ));
    let eff = observations::obs11_effectiveness(study, suite);
    v.push(metric("obs11.ineffective_count", eff.ineffective as f64));
    v
}

/// Figure 8 / Figure 9 temperature metrics for the MIX1 panel.
///
/// Takes the processor as a parameter so tests can perturb a defect's
/// trigger model (`tests/golden_gate.rs`) and watch the gate trip.
pub fn temperature_metrics(suite: &Suite, processor: &Processor, quick: bool) -> Vec<Metric> {
    // Mirrors the MIX1 panel of `repro fig8`: defect 1 drives the panel,
    // the sweep runs on the defect's hottest-rate core, on the first
    // fpu/f64/fam2 testcase the defect's code paths reach.
    let didx = 1.min(processor.defects.len().saturating_sub(1));
    let defect = &processor.defects[didx];
    let core = (0..processor.physical_cores)
        .max_by(|&a, &b| {
            defect
                .rate(a, 70.0)
                .partial_cmp(&defect.rate(b, 70.0))
                .expect("invariant violated: defect rates are finite")
        })
        .unwrap_or(0);
    let tc = suite
        .testcases()
        .iter()
        .filter(|t| t.name.starts_with("fpu/f64/fam2"))
        .find(|t| defect.applies_to(t.id))
        .map(|t| t.id);
    let Some(tc) = tc else {
        // A perturbed selectivity seed can detach the defect from every
        // panel testcase; report sentinel values so the gate fails loudly
        // instead of panicking.
        return vec![
            metric("temperature.mix1_fit_r", f64::NAN),
            metric("temperature.mix1_t_min_c", f64::NAN),
        ];
    };
    // `repro fig8 --quick` uses 10-minute windows; at that length the
    // cooler half of the range measures zero (or a degenerate constant
    // frequency) and the fit is meaningless, so the gate uses the full
    // 60-minute window in both modes — the sweep is a small fraction of
    // the gate's total cost.
    let window = Duration::from_mins(60);
    let temps: Vec<f64> = (60..=76).step_by(2).map(f64::from).collect();
    let sweep = temperature::temperature_sweep(processor, suite, tc, core, &temps, window, 88);
    let mut v = vec![metric(
        "temperature.mix1_fit_r",
        sweep.fit.map(|f| f.r).unwrap_or(f64::NAN),
    )];
    let grid: Vec<f64> = (46..=80).step_by(2).map(f64::from).collect();
    let trig_window = if quick {
        Duration::from_mins(10)
    } else {
        Duration::from_mins(30)
    };
    let point = temperature::min_trigger_temp(
        processor,
        suite,
        tc,
        core,
        &grid,
        trig_window,
        90 + processor.id.0,
    );
    v.push(metric(
        "temperature.mix1_t_min_c",
        point.map(|p| p.min_trigger_temp_c).unwrap_or(f64::NAN),
    ));
    v
}

/// Table 4 / Figure 11 metrics from Farron evaluation rows.
pub fn eval_metrics(rows: &[EvalRow]) -> Vec<Metric> {
    let n = rows.len().max(1) as f64;
    let mean = |f: &dyn Fn(&EvalRow) -> f64| rows.iter().map(f).sum::<f64>() / n;
    vec![
        metric(
            "fig11.known_errors_total",
            rows.iter().map(|r| r.known_errors as f64).sum(),
        ),
        metric("fig11.mean_farron_coverage", mean(&|r| r.farron_coverage)),
        metric(
            "fig11.mean_baseline_coverage",
            mean(&|r| r.baseline_coverage),
        ),
        metric(
            "table4.mean_farron_round_hours",
            mean(&|r| r.farron_round_hours),
        ),
        metric(
            "table4.mean_baseline_round_hours",
            mean(&|r| r.baseline_round_hours),
        ),
        metric(
            "table4.mean_farron_test_overhead",
            mean(&|r| r.farron_test_overhead),
        ),
        metric(
            "table4.protected_sdc_events",
            rows.iter().map(|r| r.protected_sdc_events as f64).sum(),
        ),
    ]
}

/// Runs every collector and concatenates the metric vector. `progress`
/// is called before each expensive stage.
pub fn collect_metrics(quick: bool, threads: usize, mut progress: impl FnMut(&str)) -> Vec<Metric> {
    let suite = Suite::standard();
    let mut v = Vec::new();

    progress("campaign (tables 1-2)");
    let outcome = run_campaign(&campaign_config(quick, threads), &suite);
    v.extend(campaign_metrics(&outcome));

    progress("deep study (figures 2-7, observations 4-11)");
    let study = run_deep_study(&study_config(quick, threads));
    v.extend(study_metrics(&study, &suite));

    progress("temperature sweep (figures 8-9, MIX1 panel)");
    let mix1 = silicon::catalog::by_name("MIX1")
        .expect("invariant violated: MIX1 is in the catalog")
        .processor;
    v.extend(temperature_metrics(&suite, &mix1, quick));

    progress("farron evaluation (table 4, figure 11)");
    let rows = evaluate(&eval_config(quick, threads));
    v.extend(eval_metrics(&rows));

    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slugs_are_lowercase_identifiers() {
        assert_eq!(slug("Re-install"), "re_install");
        assert_eq!(slug("FPU"), "fpu");
        assert_eq!(slug("float64x"), "float64x");
    }

    #[test]
    fn quick_configs_mirror_the_cli() {
        let c = campaign_config(true, 2);
        assert_eq!((c.total_cpus, c.seed, c.threads), (200_000, 2021, 2));
        let s = study_config(true, 2);
        assert_eq!(s.per_testcase, Duration::from_secs(30));
        assert_eq!(s.max_candidates, Some(40));
        assert_eq!(s.seed, 27);
        let e = eval_config(true, 2);
        assert_eq!(e.rounds, 1);
    }

    #[test]
    fn campaign_metrics_name_every_table1_row() {
        let out = run_campaign(
            &FleetConfig {
                total_cpus: 20_000,
                seed: 2021,
                threads: 1,
            },
            &Suite::standard(),
        );
        let m = campaign_metrics(&out);
        for want in [
            "table1.factory_bp",
            "table1.total_bp",
            "table1.escaped_count",
            "table1.pre_production_share",
            "table2.avg_bp",
        ] {
            assert!(m.iter().any(|x| x.name == want), "missing {want}");
        }
    }
}
