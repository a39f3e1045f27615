//! The benchmark's own program, driven by `perfbench/run.py`.
//!
//! ```text
//! perfbench fleet-chaos --phase kill|resume|reference --cpus N --fleet-seed S
//!           --plan SPEC --checkpoint PATH [--trace-out PATH]
//! perfbench replica paper_full|paper_quick|conform_quick --trace-out PATH
//! perfbench probe [--stride N] --trace-out PATH
//! ```
//!
//! `fleet-chaos` is the library-driven campaign workload: `kill` samples
//! the fleet and runs the checkpointed campaign until half the slots are
//! done, `resume` continues it from the checkpoint in a fresh process and
//! prints the outcome, `reference` runs it uninterrupted without a
//! checkpoint and prints the same outcome. `replica` and `probe` are the
//! traced runs; they write spans and counts to `--trace-out`.

mod probe;
mod replica;
mod trace;

use analysis::AttritionReport;
use fleet::{
    campaign_fingerprint, run_campaign_resumable, CampaignCheckpoint, CheckpointStore, FaultPlan,
    FleetConfig, FleetPopulation, ResumableRun, RetryPolicy, SupervisedCampaign,
};
use std::collections::HashMap;
use std::process::ExitCode;
use toolchain::Suite;
use trace::Tracer;

/// Campaign items between checkpoint snapshots (as in `repro`).
const CHECKPOINT_EVERY: usize = 64;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Splits `--flag value` pairs after the positional arguments.
fn parse(args: &[String]) -> Result<(Vec<&str>, HashMap<&str, &str>), String> {
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(flag) = arg.strip_prefix("--") {
            let value = it.next().ok_or(format!("--{flag} needs a value"))?;
            flags.insert(flag, value.as_str());
        } else {
            positional.push(arg.as_str());
        }
    }
    Ok((positional, flags))
}

fn flag<'a>(flags: &HashMap<&str, &'a str>, name: &str) -> Result<&'a str, String> {
    flags.get(name).copied().ok_or(format!("missing --{name}"))
}

fn number<T: std::str::FromStr>(flags: &HashMap<&str, &str>, name: &str) -> Result<T, String> {
    let v = flag(flags, name)?;
    v.parse()
        .map_err(|_| format!("--{name}: not a number: '{v}'"))
}

fn run(args: &[String]) -> Result<(), String> {
    let (positional, flags) = parse(args)?;
    let trace_out = flags.get("trace-out").copied();
    let mut t = Tracer::new();
    match positional.as_slice() {
        ["fleet-chaos"] => fleet_chaos(&mut t, &flags)?,
        ["replica", "paper_full"] => replica::paper_full(&mut t, false)?,
        ["replica", "paper_quick"] => replica::paper_full(&mut t, true)?,
        ["replica", "conform_quick"] => replica::conform_quick(&mut t)?,
        ["probe"] => {
            let stride = flags
                .get("stride")
                .map_or(Ok(1), |_| number(&flags, "stride"))?;
            probe::run(&mut t, stride.max(1));
        }
        other => return Err(format!("unknown command {other:?}")),
    }
    t.write(trace_out)
        .map_err(|e| format!("cannot write the trace: {e}"))
}

fn fleet_chaos(t: &mut Tracer, flags: &HashMap<&str, &str>) -> Result<(), String> {
    let cfg = FleetConfig {
        total_cpus: number(flags, "cpus")?,
        seed: number(flags, "fleet-seed")?,
        threads: replica::THREADS,
    };
    let plan = FaultPlan::parse(flag(flags, "plan")?)?;
    let policy = RetryPolicy::default();
    let path = flag(flags, "checkpoint")?;
    let phase = flag(flags, "phase")?;
    let extra = phase == "reference";
    let suite = t.timed("toolchain.suite", extra, Suite::standard).0;

    let resume = if phase == "resume" {
        let ck = t.time("fleet.checkpoint.load", || {
            CampaignCheckpoint::load(path.as_ref(), &campaign_fingerprint(&cfg, &plan))
        });
        Some(ck.map_err(|e| format!("cannot resume: {e}"))?)
    } else {
        None
    };
    let pop = t
        .timed("fleet.population.sample", extra, || {
            FleetPopulation::sample(&cfg)
        })
        .0;
    eprintln!("[perfbench] population sampled");

    let mut store = CheckpointStore::new(path, CHECKPOINT_EVERY);
    let (span, store) = match phase {
        "kill" => {
            store.kill_after = Some(pop.defective.len() / 2);
            ("fleet.campaign.until_kill", Some(&store))
        }
        "resume" => ("fleet.checkpoint.resume", Some(&store)),
        "reference" => ("fleet.campaign.screen", None),
        other => return Err(format!("unknown --phase '{other}'")),
    };
    let run = t
        .timed(span, extra, || {
            run_campaign_resumable(&cfg, &suite, &pop, &plan, &policy, store, resume.as_ref())
        })
        .0
        .map_err(|e| format!("checkpoint failure: {e}"))?;
    match (phase, run) {
        ("kill", ResumableRun::Interrupted) => Ok(()),
        ("kill", ResumableRun::Completed(_)) => Err("the kill hook never fired".into()),
        (_, ResumableRun::Completed(run)) => {
            let report = t.timed("analysis.attrition", extra, || render(&run)).0;
            print!("{report}");
            t.count("fleet.campaign.slots", run.attrition.items);
            t.count("fleet.supervisor.retries", run.attrition.retries);
            t.count("fleet.supervisor.lost", run.lost.len() as u64);
            if phase == "resume" {
                let bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
                t.count("fleet.checkpoint.bytes", bytes);
            }
            Ok(())
        }
        (_, ResumableRun::Interrupted) => Err("interrupted without a kill hook".into()),
    }
}

/// The outcome compared between the resumed and the uninterrupted run:
/// Tables 1-2 (exact values) plus the attrition report.
fn render(run: &SupervisedCampaign) -> String {
    let out = &run.outcome;
    let mut s = String::new();
    for (label, bp) in out.table1() {
        s += &format!("table1 {label} {bp:?}\n");
    }
    for (label, bp) in out.table2() {
        s += &format!("table2 {label} {bp:?}\n");
    }
    s += &format!("escaped {}\n{}\n", out.escaped(), AttritionReport::of(run));
    s
}
