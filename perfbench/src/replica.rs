//! Traced replicas of the two `repro` workloads.
//!
//! Each replica makes the library calls `repro all` and
//! `repro conform --quick` make, with the same configurations and in the
//! same order, minus the printing, and puts a span around each call into
//! a layer; the span name says which layer did the work. It announces
//! its stages on stderr with `repro`'s own `[repro] …` lines, then
//! `[perfbench] replica done`; the harness fails the traced run when the
//! stages or their durations drift from those of an untraced `repro`.
//! After the replica, the deep study is re-run warm on its own caches (an
//! extra span), and cold minus warm is recorded as a derived
//! `toolchain.profile.unit` child of the cold study span.

use crate::trace::Tracer;
use analysis::study::{run_deep_study_with, StudyConfig, StudyData};
use analysis::{
    bitflips, casebook, datatypes, features, observations, precision, reproducibility, suspects,
    temperature, RecordCorpus,
};
use conformance::{golden, metamorphic, metrics, oracle};
use farron::eval::{evaluate, EvalConfig};
use farron::{simulate_online, AppProfile, ControlMode, OnlineConfig};
use fleet::screening::{StaticSuiteProfile, SuiteProfileCache};
use fleet::{run_campaign_on, CampaignOutcome, FleetConfig, FleetPopulation};
use sdc_model::{DataType, DetRng, Duration};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use toolchain::{ProfileCache, Suite};

/// Worker threads of every workload (the benchmark host has two cores).
pub const THREADS: usize = 2;

/// The cold study plus what the warm re-run needs afterwards.
struct Study {
    data: StudyData,
    cfg: StudyConfig,
    span: usize,
    suite_cache: SuiteProfileCache,
    unit_cache: Arc<ProfileCache>,
}

fn cold_study(t: &mut Tracer, cfg: StudyConfig) -> Study {
    let suite_cache = SuiteProfileCache::new();
    let unit_cache = ProfileCache::shared();
    let (data, span) = t.timed("analysis.study", false, || {
        run_deep_study_with(&cfg, &suite_cache, Arc::clone(&unit_cache))
    });
    let units = unit_cache.stats();
    let suites = suite_cache.stats();
    t.count("toolchain.profile.unit_computed", units.misses);
    t.count("toolchain.profile.unit_hits", units.hits);
    t.count("fleet.screening.suite_computed", suites.misses);
    t.count("fleet.screening.suite_hits", suites.hits);
    Study {
        data,
        cfg,
        span,
        suite_cache,
        unit_cache,
    }
}

/// Re-runs the study on the cold run's caches; the difference is the
/// cold profiling the study paid.
fn warm_rerun(t: &mut Tracer, s: &Study) {
    let (_, warm) = t.timed("toolchain.executor.chunk_loop", true, || {
        black_box(run_deep_study_with(
            &s.cfg,
            &s.suite_cache,
            Arc::clone(&s.unit_cache),
        ))
    });
    let profiling = t.duration(s.span) - t.duration(warm);
    t.derive_child(s.span, "toolchain.profile.unit", profiling);
}

/// Ends the replica's stages; what follows is extra work.
fn done() {
    eprintln!("[perfbench] replica done");
}

fn campaign(t: &mut Tracer, cfg: &FleetConfig, suite: &Suite) -> CampaignOutcome {
    let pop = t.time("fleet.population.sample", || FleetPopulation::sample(cfg));
    let out = t.time("fleet.campaign.screen", || {
        run_campaign_on(cfg, suite, &pop)
    });
    t.count("fleet.campaign.slots", pop.defective.len() as u64);
    t.count("fleet.screening.suite_computed", out.suite_cache.misses);
    t.count("fleet.screening.suite_hits", out.suite_cache.hits);
    out
}

/// `repro all --threads 2` (`--quick` when `quick`).
pub fn paper_full(t: &mut Tracer, quick: bool) -> Result<(), String> {
    let suite = t.time("toolchain.suite", Suite::standard);

    // Tables 1-2.
    let cfg = FleetConfig {
        total_cpus: if quick { 200_000 } else { 1_050_000 },
        seed: 2021,
        threads: THREADS,
    };
    eprintln!(
        "[repro] running the fleet campaign over {} CPUs…",
        cfg.total_cpus
    );
    let out = campaign(t, &cfg, &suite);
    t.time("fleet.campaign.tables", || {
        black_box((
            out.table1(),
            out.escaped(),
            fleet::exposure_report(&out),
            out.table2(),
        ))
    });

    // Table 3, figures 2-7 and 9, observations: the deep study.
    eprintln!("[repro] running the 27-processor deep study…");
    let study = cold_study(
        t,
        StudyConfig {
            per_testcase: if quick {
                Duration::from_secs(30)
            } else {
                Duration::from_mins(2)
            },
            seed: 27,
            max_candidates: if quick { Some(40) } else { None },
            threads: THREADS,
            ..StudyConfig::default()
        },
    );
    let data = &study.data;
    t.time("analysis.summaries", || {
        black_box((
            casebook::table3(data),
            features::figure2(data, &suite),
            datatypes::figure3(data),
        ))
    });
    t.time("analysis.corpus", || figures_4_to_7(data));
    t.time("analysis.temperature.sweep", || figure8(&suite, quick));
    t.time("analysis.temperature.sweep", || {
        figure9(data, &suite, quick)
    });
    t.time("analysis.summaries", || {
        black_box((
            observations::obs4_scope(data),
            observations::obs5_types(data),
            observations::obs6_7_floats(data),
            reproducibility::summarize(data),
            observations::obs11_effectiveness(data, &suite),
        ))
    });

    // Table 4 and figure 11.
    eprintln!("[repro] running the Farron evaluation…");
    let rows = t.time("farron.eval", || {
        evaluate(&EvalConfig {
            reference_per_testcase: if quick {
                Duration::from_mins(3)
            } else {
                Duration::from_mins(10)
            },
            rounds: if quick { 2 } else { 4 },
            threads: THREADS,
            ..EvalConfig::default()
        })
    });
    t.time("ftol.audit", || black_box(ftol::audit_all(2000, 12)));
    extensions(t, data, &suite);
    done();

    warm_rerun(t, &study);
    if data.cases.len() != 27 || rows.len() != farron::eval::EVAL_NAMES.len() {
        return Err(format!(
            "paper_full replica: {} study cases, {} eval rows",
            data.cases.len(),
            rows.len()
        ));
    }
    Ok(())
}

fn figures_4_to_7(study: &StudyData) {
    let corpus = RecordCorpus::collect(study.all_records());
    for dt in [DataType::I32, DataType::F32, DataType::F64, DataType::F64X] {
        black_box(bitflips::msb_share(&corpus.bit_histogram(dt), 4));
    }
    black_box(corpus.zero_to_one_share());
    for dt in [DataType::I32, DataType::F32, DataType::F64, DataType::F64X] {
        let cdf = precision::loss_cdf(study.all_records(), dt);
        if !cdf.log10_cdf.is_empty() {
            black_box((cdf.fraction_below(2e-5), cdf.fraction_below(2e-4)));
        }
    }
    for dt in [DataType::Bin32, DataType::Bin64] {
        black_box(corpus.bit_histogram(dt));
    }
    let corpus = RecordCorpus::collect(study.all_records());
    let mined = corpus.mine_patterns();
    for dt in [
        DataType::F32,
        DataType::F64,
        DataType::F64X,
        DataType::I32,
        DataType::Byte,
    ] {
        black_box(corpus.flip_multiplicity_with(&mined, dt));
    }
}

fn figure8(suite: &Suite, quick: bool) {
    let window = if quick {
        Duration::from_mins(10)
    } else {
        Duration::from_mins(60)
    };
    type Panel = (&'static str, usize, Option<u16>, &'static str, Vec<f64>);
    let panels: [Panel; 3] = [
        (
            "MIX1",
            1,
            None,
            "fpu/f64/fam2",
            (60..=76).step_by(2).map(f64::from).collect(),
        ),
        (
            "MIX2",
            1,
            None,
            "fpu/f64/fam1",
            (56..=68).step_by(2).map(f64::from).collect(),
        ),
        (
            "FPU2",
            0,
            Some(8),
            "fpu/atan/f64/",
            (48..=56).step_by(2).map(f64::from).collect(),
        ),
    ];
    for (name, didx, core, prefix, temps) in panels {
        let processor = silicon::catalog::by_name(name)
            .expect("figure 8 panels name catalog processors")
            .processor;
        let defect = processor.defects[didx].clone();
        let core = core.unwrap_or_else(|| {
            (0..processor.physical_cores)
                .max_by(|&a, &b| {
                    defect
                        .rate(a, 70.0)
                        .partial_cmp(&defect.rate(b, 70.0))
                        .expect("defect rates are finite")
                })
                .unwrap_or(0)
        });
        let tc = suite
            .testcases()
            .iter()
            .filter(|t| t.name.starts_with(prefix))
            .find(|t| defect.applies_to(t.id))
            .expect("every figure 8 panel defect matches a suite testcase")
            .id;
        black_box(temperature::temperature_sweep(
            &processor, suite, tc, core, &temps, window, 88,
        ));
    }
}

fn figure9(study: &StudyData, suite: &Suite, quick: bool) {
    let grid: Vec<f64> = (46..=80).step_by(2).map(f64::from).collect();
    let window = if quick {
        Duration::from_mins(10)
    } else {
        Duration::from_mins(30)
    };
    let mut points = Vec::new();
    for case in &study.cases {
        let mut ranked = case.freq_per_setting.clone();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("frequencies are finite"));
        let mut picked: Vec<(u16, sdc_model::TestcaseId)> = Vec::new();
        for &(s, _) in &ranked {
            if picked.len() >= 2 {
                break;
            }
            if picked.iter().any(|&(_, t)| t == s.testcase) {
                continue;
            }
            picked.push((s.core.0, s.testcase));
        }
        for (core, tc) in picked {
            if let Some(p) = temperature::min_trigger_temp(
                &case.processor,
                suite,
                tc,
                core,
                &grid,
                window,
                90 + case.processor.id.0,
            ) {
                points.push(p);
            }
        }
    }
    black_box(temperature::figure9_correlation(&points));
}

fn extensions(t: &mut Tracer, study: &StudyData, suite: &Suite) {
    let mut profiles: HashMap<usize, StaticSuiteProfile> = HashMap::new();
    for name in ["MIX1", "SIMD1", "FPU1", "FPU2", "CNST1", "CNST2"] {
        let Some(case) = study.case(name) else {
            continue;
        };
        let cores = case.processor.physical_cores as usize;
        let built = profiles.entry(cores).or_insert_with(|| {
            t.time("fleet.screening.suite_profile", || {
                StaticSuiteProfile::build(suite, cores)
            })
        });
        t.time("analysis.suspects", || {
            let ranked = suspects::rank_suspects(case, suite, built);
            black_box(suspects::localizes(&ranked, suspects::LOCALIZE_MIN_SCORE))
        });
    }

    t.time("ftol.sdc_code", || {
        let mut mask_rng = DetRng::new(41);
        let mut value_rng = DetRng::new(42);
        let values: Vec<u64> = (0..20_000)
            .map(|_| value_rng.range_f64(1e-3, 1e9).to_bits())
            .collect();
        black_box(ftol::sdc_code::compare(values, || {
            silicon::defect::gen_mask(DataType::F64, &mut mask_rng) as u64
        }))
    });

    let mix1 = silicon::catalog::by_name("MIX1")
        .expect("MIX1 is a catalog processor")
        .processor;
    let tricky = mix1.defects[1].clone();
    let tc = suite
        .testcases()
        .iter()
        .filter(|t| t.name.starts_with("fpu/f64/fam2"))
        .find(|t| tricky.applies_to(t.id))
        .expect("MIX1's tricky defect matches a suite workload")
        .id;
    let app = AppProfile {
        testcase: tc,
        utilization: 0.5,
        burst_amplitude: 0.3,
        burst_period: Duration::from_secs(120),
        spike_prob: 0.002,
    };
    let cores: Vec<u16> = (0..16).collect();
    let cfg = OnlineConfig {
        duration: Duration::from_hours(2),
        ..OnlineConfig::default()
    };
    for control in [
        cfg.control,
        ControlMode::CoolingDevice { boost_factor: 0.5 },
    ] {
        t.time("farron.online", || {
            let mut rng = DetRng::new(51);
            let cfg = OnlineConfig { control, ..cfg };
            black_box(simulate_online(&mix1, suite, &app, &cores, &cfg, &mut rng))
        });
    }

    t.time("farron.capacity", || {
        let set = silicon::catalog::deep_study_set();
        black_box(farron::capacity_report(set.iter().map(|c| &c.processor)))
    });
}

/// `repro conform --quick --threads 2`.
pub fn conform_quick(t: &mut Tracer) -> Result<(), String> {
    let quick = true;
    let announce = |stage: &str| eprintln!("[repro] conform: {stage}…");
    // `repro` builds the suite once for itself and once inside
    // `conformance::collect_metrics`.
    black_box(t.time("toolchain.suite", Suite::standard));
    let suite = t.time("toolchain.suite", Suite::standard);
    let mut measured = Vec::new();

    announce("campaign (tables 1-2)");
    let out = campaign(t, &metrics::campaign_config(quick, THREADS), &suite);
    measured.extend(t.time("conformance.metrics", || metrics::campaign_metrics(&out)));

    announce("deep study (figures 2-7, observations 4-11)");
    let study = cold_study(t, metrics::study_config(quick, THREADS));
    measured.extend(t.time("conformance.metrics", || {
        metrics::study_metrics(&study.data, &suite)
    }));

    announce("temperature sweep (figures 8-9, MIX1 panel)");
    let mix1 = silicon::catalog::by_name("MIX1")
        .expect("MIX1 is in the catalog")
        .processor;
    measured.extend(t.time("analysis.temperature.sweep", || {
        metrics::temperature_metrics(&suite, &mix1, quick)
    }));

    announce("farron evaluation (table 4, figure 11)");
    let rows = t.time("farron.eval", || {
        evaluate(&metrics::eval_config(quick, THREADS))
    });
    measured.extend(t.time("conformance.metrics", || metrics::eval_metrics(&rows)));

    let report = t.time("conformance.metrics", || {
        let file = golden::golden_file();
        let set = file.set("quick").ok_or("no quick golden set")?;
        let report = golden::check(set, &measured);
        black_box(report.render());
        Ok::<_, String>(report)
    })?;
    t.count("conformance.metrics.count", measured.len() as u64);
    t.count(
        "conformance.metrics.failing",
        report.failures().len() as u64,
    );

    announce("metamorphic invariants");
    let invariants = t.time("conformance.metamorphic", || metamorphic::run_all(THREADS));
    let failed_invariants: Vec<&str> = invariants
        .iter()
        .filter(|inv| !inv.pass)
        .map(|inv| inv.name.as_str())
        .collect();

    let streams = 10_000;
    announce(&format!("differential oracle ({streams} streams)"));
    let sweep = t.time("conformance.oracle", || {
        oracle::sweep(streams, THREADS, &oracle::OracleConfig::default())
    });
    t.count("conformance.oracle.streams", sweep.streams);
    t.count(
        "conformance.oracle.divergences",
        sweep.divergences.len() as u64,
    );
    done();

    warm_rerun(t, &study);
    if !report.passed() || !failed_invariants.is_empty() || !sweep.divergences.is_empty() {
        return Err(format!(
            "conform_quick replica: {} failing metrics, failed invariants {:?}, {} divergences",
            report.failures().len(),
            failed_invariants,
            sweep.divergences.len()
        ));
    }
    Ok(())
}
