//! Layer probes: the softcore VM and unit profiling over the suite's own
//! programs on a 16-core package, and the static suite profiles of the
//! deep-study package shapes. They run in a process of their own after
//! a traced replica, so they add nothing to its wall time.

use crate::trace::Tracer;
use fleet::screening::StaticSuiteProfile;
use sdc_model::{ArchId, CpuId, DetRng, Duration};
use silicon::Processor;
use softcore::{Machine, NoFaults};
use std::collections::BTreeSet;
use toolchain::{builders, ExecConfig, Executor, ProfileCache, Suite, Testcase};

/// Package size the multi-thread testcases contend on.
const CORES: usize = 16;

/// Runs every probe; `stride` > 1 takes every `stride`-th testcase.
pub fn run(t: &mut Tracer, stride: usize) {
    let suite = Suite::standard();
    let picked: Vec<&Testcase> = suite.testcases().iter().step_by(stride).collect();

    suite_profiles(t, &suite);
    for (multi, layer) in [(true, "contended"), (false, "single")] {
        let tcs: Vec<&Testcase> = picked
            .iter()
            .copied()
            .filter(|tc| (tc.threads > 1) == multi)
            .collect();
        softcore_runs(t, &tcs, layer);
        unit_profiles(t, &tcs, if multi { "mt" } else { "st" });
    }
}

/// Cold static suite profiles, one per distinct deep-study core count.
fn suite_profiles(t: &mut Tracer, suite: &Suite) {
    let shapes: BTreeSet<usize> = silicon::catalog::deep_study_set()
        .iter()
        .map(|c| c.processor.physical_cores as usize)
        .collect();
    for cores in shapes {
        t.time("fleet.screening.suite_profile", || {
            std::hint::black_box(StaticSuiteProfile::build(suite, cores))
        });
    }
}

/// `Machine::run` under `NoFaults` on each testcase's programs; the
/// program build is a child span so the softcore span's self time is
/// the VM alone.
fn softcore_runs(t: &mut Tracer, tcs: &[&Testcase], layer: &str) {
    let cfg = ExecConfig::default();
    let span = t.enter(&format!("softcore.{layer}"));
    let mut steps = 0;
    for tc in tcs {
        let built = t.time("toolchain.builders.build", || {
            builders::build(tc, CORES, cfg.unit_iters, 0x5eed ^ u64::from(tc.id.0))
        });
        let mut machine = Machine::new(CORES, built.mem_bytes);
        for &(addr, val) in &built.mem_init {
            machine.mem.raw_write_u64(addr, val);
        }
        for (core, program) in built.programs.into_iter().enumerate() {
            if let Some(program) = program {
                machine.load(core, program);
            }
        }
        let mut rng = DetRng::new(u64::from(tc.id.0));
        steps += machine
            .run(&mut NoFaults, &mut rng, cfg.max_unit_steps)
            .steps;
    }
    t.exit(span);
    t.count(&format!("softcore.{layer}.steps"), steps);
}

/// Each testcase profiled cold through `Executor::run` on a fresh cache,
/// then run again warm; the harness sums cold minus warm.
fn unit_profiles(t: &mut Tracer, tcs: &[&Testcase], kind: &str) {
    let mut processor = Processor::healthy(CpuId(0), ArchId(1), 1.0);
    processor.physical_cores = CORES as u16;
    let cores: Vec<u16> = (0..CORES as u16).collect();
    let window = Duration::from_secs(60);
    let (cold, warm) = (
        format!("toolchain.profile.unit_{kind}.cold"),
        format!("toolchain.profile.unit_{kind}.warm"),
    );
    for tc in tcs {
        let mut exec =
            Executor::with_cache(&processor, ExecConfig::default(), ProfileCache::shared());
        let mut rng = DetRng::new(u64::from(tc.id.0));
        t.time(&cold, || exec.run(tc, &cores, window, &mut rng));
        t.time(&warm, || exec.run(tc, &cores, window, &mut rng));
    }
}
