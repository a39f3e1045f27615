//! Softcore interpreter hot-path throughput: the monomorphized,
//! predecoded fast path ([`Machine::run`]) vs the seed interpreter kept
//! verbatim as [`Machine::run_reference`], for golden (NoFaults) and
//! fault-injected single-core runs, and for contended runs: diluted
//! lock-counter and TSX-counter testcases from the suite on a 16-core
//! package, the multi-thread unit profiles that dominate cold profiling.
//!
//! Two modes:
//!
//! * default — measures all paths, writes `BENCH_softcore.json` at the
//!   repo root (instructions/sec plus the fast-path speedups over the
//!   seed baseline), then runs criterion benches for tracking;
//! * `--quick` — regression gate for tier-1: re-measures the golden and
//!   contended fast paths and their reference baselines, and fails
//!   (exit 1) if either speedup regressed more than 20% against the
//!   checked-in artifact. The gate compares speedup *ratios*, not raw
//!   instructions/sec, so it is meaningful across machines of different
//!   absolute speed.

use sdc_model::{ArchId, CpuId, DataType, DetRng};
use silicon::{BitPattern, Defect, DefectKind, DefectScope, Injector, Processor, Trigger};
use softcore::{DecodedProgram, InstClass, IntOpKind, Machine, NoFaults, Program, ProgramBuilder};
use std::time::Instant;
use toolchain::{builders, ExecConfig, Suite};

const ARTIFACT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_softcore.json");

/// The integer hot loop every profiling run is dominated by: two ALU
/// ops per iteration, all three fusion shapes reachable.
fn hot_program(iters: u32) -> Program {
    let mut b = ProgramBuilder::new();
    b.mov_imm(0, 3).mov_imm(1, 5).loop_start(iters);
    b.int_op(IntOpKind::Add, DataType::I32, 2, 0, 1);
    b.int_op(IntOpKind::Xor, DataType::I32, 0, 0, 2);
    b.loop_end();
    b.build()
}

/// A lightly defective single-core processor: low flat rate so the
/// injected bench measures retire-path dispatch, not event handling.
fn defective_processor() -> Processor {
    let mut p = Processor::healthy(CpuId(1), ArchId(2), 1.0);
    p.physical_cores = 4;
    p.defects.push(Defect::new(
        DefectKind::Computation {
            classes: vec![InstClass::IntArith],
            datatypes: vec![DataType::I32],
            patterns: vec![BitPattern {
                mask: 0b100,
                weight: 1.0,
            }],
            pattern_dt: DataType::I32,
            random_mask_prob: 0.0,
        },
        DefectScope::SingleCore(0),
        Trigger::flat(1e-4),
    ));
    p
}

#[derive(Clone, Copy, PartialEq)]
enum Path {
    /// Fast path (predecode + fusion + monomorphized NoFaults).
    Golden,
    /// Seed interpreter, NoFaults through the same generic entry.
    Reference,
    /// Fast path with a sparse-indexed injector attached.
    Injected,
}

/// Instructions/sec of one interpreter path, measured by repeating the
/// hot program on one reused machine until `budget_secs` elapses.
fn measure_ips(path: Path, budget_secs: f64) -> f64 {
    let program = hot_program(10_000);
    let mut machine = Machine::new(1, 4096);
    machine.load(0, program);
    let proc_ = defective_processor();
    let run_once = |machine: &mut Machine| -> u64 {
        machine.restart();
        let mut rng = DetRng::new(1);
        let out = match path {
            Path::Golden => machine.run(&mut NoFaults, &mut rng, u64::MAX),
            Path::Reference => machine.run_reference(&mut NoFaults, &mut rng, u64::MAX),
            Path::Injected => {
                let mut injector = Injector::new(&proc_, vec![0], 45.0, DetRng::new(0x1f));
                injector.set_temps(&[62.0]);
                machine.run(&mut injector, &mut rng, u64::MAX)
            }
        };
        assert!(out.completed);
        out.steps
    };
    run_once(&mut machine); // warm-up, untimed
    let mut steps = 0u64;
    let mut reps = 0u32;
    let t = Instant::now();
    loop {
        steps += run_once(&mut machine);
        reps += 1;
        if reps >= 3 && t.elapsed().as_secs_f64() >= budget_secs {
            break;
        }
    }
    steps as f64 / t.elapsed().as_secs_f64()
}

/// Package size of the contended runs.
const CONTENDED_CORES: usize = 16;

/// The contended testcases (the first suite testcase of each shape;
/// names carry a `#id` suffix): 4-thread lock and TSX counters at
/// dilution 16, built for unit profiling on a 16-core package.
const CONTENDED_TESTCASES: [&str; 2] = ["cache/lock/t4/r2/d16", "trx/counter/t4/r2/d16"];

/// Instructions/sec of the contended runs on `run` (`reference` false)
/// or `run_reference`, repeating both testcases on reused machines until
/// `budget_secs` elapses.
fn measure_contended_ips(reference: bool, budget_secs: f64) -> f64 {
    let suite = Suite::standard();
    let cfg = ExecConfig::default();
    let mut units: Vec<(Machine, Vec<(u64, u64)>)> = CONTENDED_TESTCASES
        .iter()
        .map(|name| {
            let tc = suite
                .testcases()
                .iter()
                .find(|tc| tc.name.split('#').next() == Some(name))
                .expect("the suite has the contended testcase");
            let built = builders::build(tc, CONTENDED_CORES, cfg.unit_iters, 0x5eed);
            let mut machine = Machine::new(CONTENDED_CORES, built.mem_bytes);
            for (core, program) in built.programs.into_iter().enumerate() {
                if let Some(program) = program {
                    machine.load(core, program);
                }
            }
            (machine, built.mem_init)
        })
        .collect();
    let mut run_all = || -> u64 {
        let mut steps = 0;
        for (machine, mem_init) in &mut units {
            machine.restart();
            for &(addr, val) in mem_init.iter() {
                machine.mem.raw_write_u64(addr, val);
            }
            let mut rng = DetRng::new(1);
            let out = if reference {
                machine.run_reference(&mut NoFaults, &mut rng, cfg.max_unit_steps)
            } else {
                machine.run(&mut NoFaults, &mut rng, cfg.max_unit_steps)
            };
            assert!(out.completed);
            steps += out.steps;
        }
        steps
    };
    run_all(); // warm-up, untimed
    let mut steps = 0u64;
    let mut reps = 0u32;
    let t = Instant::now();
    loop {
        steps += run_all();
        reps += 1;
        if reps >= 3 && t.elapsed().as_secs_f64() >= budget_secs {
            break;
        }
    }
    steps as f64 / t.elapsed().as_secs_f64()
}

/// Reads a numeric field out of the checked-in artifact (the harness
/// has no JSON parser; the artifact is flat and written by this bench).
fn artifact_field(json: &str, field: &str) -> Option<f64> {
    let key = format!("\"{field}\":");
    let rest = &json[json.find(&key)? + key.len()..];
    let end = rest.find([',', '\n', '}'])?;
    rest[..end].trim().parse().ok()
}

fn artifact() {
    let golden = measure_ips(Path::Golden, 1.0);
    let reference = measure_ips(Path::Reference, 1.0);
    let injected = measure_ips(Path::Injected, 1.0);
    let contended = measure_contended_ips(false, 1.0);
    let reference_contended = measure_contended_ips(true, 1.0);
    let fused = DecodedProgram::decode(&hot_program(10_000)).fused_pairs();
    let speedup_golden = golden / reference;
    let speedup_injected = injected / reference;
    let speedup_contended = contended / reference_contended;
    eprintln!(
        "[softcore_hotpath] golden {golden:.0} inst/s, reference {reference:.0} inst/s \
         ({speedup_golden:.2}x), injected {injected:.0} inst/s ({speedup_injected:.2}x), \
         {fused} fused pair sites; contended {contended:.0} inst/s, reference \
         {reference_contended:.0} inst/s ({speedup_contended:.2}x)"
    );
    let json = format!(
        "{{\n  \"golden_ips\": {golden:.0},\n  \"reference_ips\": {reference:.0},\n  \
         \"injected_ips\": {injected:.0},\n  \"speedup_golden\": {speedup_golden:.4},\n  \
         \"speedup_injected\": {speedup_injected:.4},\n  \"fused_pair_sites\": {fused},\n  \
         \"contended_ips\": {contended:.0},\n  \
         \"reference_contended_ips\": {reference_contended:.0},\n  \
         \"speedup_contended\": {speedup_contended:.4}\n}}\n"
    );
    std::fs::write(ARTIFACT, json).expect("write BENCH_softcore.json");
    eprintln!("[softcore_hotpath] wrote {ARTIFACT}");
}

/// Tier-1 regression gate (`--quick`): exits nonzero if the golden or
/// the contended fast path's speedup over the seed interpreter fell more
/// than 20% below the checked-in artifact.
fn quick_gate() {
    let json = match std::fs::read_to_string(ARTIFACT) {
        Ok(j) => j,
        Err(_) => {
            eprintln!("[softcore_hotpath] no {ARTIFACT}; run without --quick to create it");
            return;
        }
    };
    let golden = measure_ips(Path::Golden, 0.4) / measure_ips(Path::Reference, 0.4);
    let contended = measure_contended_ips(false, 0.4) / measure_contended_ips(true, 0.4);
    let mut failed = false;
    for (field, current, what) in [
        ("speedup_golden", golden, "golden-run"),
        ("speedup_contended", contended, "contended-run"),
    ] {
        let recorded = artifact_field(&json, field)
            .unwrap_or_else(|| panic!("BENCH_softcore.json has no {field} field"));
        eprintln!(
            "[softcore_hotpath] quick gate: {field} {current:.2}x \
             (recorded {recorded:.2}x, floor {:.2}x)",
            recorded * 0.8
        );
        if current < recorded * 0.8 {
            eprintln!("[softcore_hotpath] FAIL: {what} throughput regressed >20%");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

fn main() {
    if std::env::args().any(|a| a == "--quick") {
        quick_gate();
        return;
    }
    artifact();
    let mut c = criterion::Criterion::default().sample_size(20);
    let mut group = c.benchmark_group("softcore_hotpath");
    let program = hot_program(10_000);
    let steps = program.estimated_steps();
    group.throughput(criterion::Throughput::Elements(steps));
    for (name, path) in [
        ("golden_fast", Path::Golden),
        ("reference", Path::Reference),
        ("injected", Path::Injected),
    ] {
        let proc_ = defective_processor();
        let mut machine = Machine::new(1, 4096);
        machine.load(0, program.clone());
        group.bench_function(name, |b| {
            b.iter(|| {
                machine.restart();
                let mut rng = DetRng::new(1);
                match path {
                    Path::Golden => machine.run(&mut NoFaults, &mut rng, u64::MAX),
                    Path::Reference => machine.run_reference(&mut NoFaults, &mut rng, u64::MAX),
                    Path::Injected => {
                        let mut injector =
                            Injector::new(&proc_, vec![0], 45.0, DetRng::new(0x1f));
                        injector.set_temps(&[62.0]);
                        machine.run(&mut injector, &mut rng, u64::MAX)
                    }
                }
            })
        });
    }
    group.finish();
}
