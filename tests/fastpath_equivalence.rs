//! Fast-path equivalence: the optimized interpreter — predecoded
//! programs, fused instruction pairs, the single-live-core loop, the
//! contended loop's batched picks and deferred core-local steps, and
//! monomorphized fault hooks — must emit bits identical to the
//! seed-faithful reference interpreter ([`Machine::run_reference`])
//! under every hook, across seeds and core counts, and leave the
//! interleave stream at the same position. A `dyn`-dispatched hook must
//! also match its monomorphized form exactly.

use conformance::metamorphic::assert_transparent;
use rand::RngCore;
use sdc_model::{ArchId, CpuId, DataType, DetRng};
use silicon::{BitPattern, Defect, DefectKind, DefectScope, Injector, Processor, Trigger};
use softcore::{
    FaultHook, InstClass, IntOpKind, LaneType, Machine, NoFaults, Precision, Program,
    ProgramBuilder, VOpKind,
};
use toolchain::profile::Profiler;
use toolchain::{builders, BuiltTestcase, Suite};

/// Everything observable about a finished run, in comparable form.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    completed: bool,
    steps: u64,
    out_cycles: u64,
    events: Vec<(usize, InstClass, DataType, u128, u128)>,
    /// Per core, per class: the histogram cycles and energy derive from.
    usage: Vec<Vec<u64>>,
    cycles: Vec<u64>,
    energy_bits: Vec<u64>,
    tx: Vec<(u64, u64)>,
    /// FNV-1a over every memory word.
    mem_hash: u64,
    /// The interleave stream's next `next_u64` after the run.
    next_draw: u64,
}

fn fingerprint(m: &Machine, out: softcore::RunOutcome, interleave: &mut DetRng) -> Fingerprint {
    Fingerprint {
        completed: out.completed,
        steps: out.steps,
        out_cycles: out.cycles,
        events: m
            .events
            .iter()
            .map(|e| (e.core, e.class, e.dt, e.expected, e.actual))
            .collect(),
        usage: (0..m.num_cores())
            .map(|c| InstClass::ALL.map(|class| m.usage.count(c, class)).to_vec())
            .collect(),
        cycles: (0..m.num_cores()).map(|c| m.usage.cycles(c)).collect(),
        energy_bits: (0..m.num_cores())
            .map(|c| m.usage.energy(c).to_bits())
            .collect(),
        tx: (0..m.num_cores()).map(|c| m.core(c).tx_stats()).collect(),
        mem_hash: (0..m.mem.size_bytes() / 8).fold(0xcbf2_9ce4_8422_2325, |h, i| {
            (h ^ m.mem.raw_read_u64(i * 8)).wrapping_mul(0x1000_0000_01b3)
        }),
        next_draw: interleave.next_u64(),
    }
}

/// A mixed per-core program exercising fusable pairs (`MovImm`+`IntOp`,
/// `IntOp`+`IntOp`, `IntOp`+`LoopEnd`), floats, vectors, CRC, memory
/// traffic, locks, and transactions.
fn mixed_program(core: usize, iters: u32) -> Program {
    let mut b = ProgramBuilder::new();
    b.mov_imm(0, 3 + core as u64).mov_imm(1, 5);
    b.mov_imm(4, 64); // shared counter address
    b.mov_imm(5, 1);
    b.fmov_imm(0, 1.01).fmov_imm(1, 0.93);
    b.loop_start(iters);
    // MovImm+IntOp fusion candidate.
    b.mov_imm(2, 7);
    b.int_op(IntOpKind::Add, DataType::I32, 2, 0, 2);
    // IntOp+IntOp fusion candidate.
    b.int_op(IntOpKind::Xor, DataType::U32, 0, 0, 2);
    b.int_op(IntOpKind::Mul, DataType::I16, 3, 2, 1);
    b.ffma(Precision::F64, 2, 0, 1, 0);
    b.vop(VOpKind::Fma, LaneType::F32x8, 1, 0, 1, 2);
    b.crc32_step(6, 6, 2);
    b.lock_acquire(4);
    b.load(7, 4, 0);
    b.int_op(IntOpKind::Add, DataType::Bin64, 7, 7, 5);
    b.store(7, 4, 0);
    b.lock_release(4);
    b.tx_begin();
    b.store(3, 4, 128 + 8 * core as u64);
    b.tx_commit(8);
    // IntOp+LoopEnd fusion candidate (macro-fused compare+branch).
    b.int_op(IntOpKind::Sub, DataType::I32, 3, 3, 5);
    b.loop_end();
    b.store(0, 4, 256 + 8 * core as u64);
    b.build()
}

/// An integer-only hot loop: the best case for fusion and the
/// single-core fast path.
fn int_loop(iters: u32) -> Program {
    let mut b = ProgramBuilder::new();
    b.mov_imm(0, 3).mov_imm(1, 5).loop_start(iters);
    b.int_op(IntOpKind::Add, DataType::I32, 2, 0, 1);
    b.int_op(IntOpKind::Xor, DataType::I32, 0, 0, 2);
    b.loop_end();
    b.mov_imm(3, 512);
    b.store(0, 3, 0);
    b.build()
}

fn defective_processor() -> Processor {
    let mut p = Processor::healthy(CpuId(7), ArchId(2), 1.5);
    p.physical_cores = 8;
    p.defects.push(Defect::new(
        DefectKind::Computation {
            classes: vec![InstClass::IntArith, InstClass::VecFma],
            datatypes: vec![DataType::I32, DataType::F32],
            patterns: vec![BitPattern {
                mask: 0b100,
                weight: 1.0,
            }],
            pattern_dt: DataType::I32,
            random_mask_prob: 0.1,
        },
        DefectScope::SingleCore(0),
        Trigger::flat(0.02),
    ));
    p.defects.push(Defect::new(
        DefectKind::CoherenceDrop,
        DefectScope::SingleCore(1),
        Trigger::flat(0.05),
    ));
    p
}

/// A machine with `programs` loaded on its first cores.
fn machine(cores: usize, programs: &[Program]) -> Machine {
    let mut m = Machine::new(cores, 1 << 14);
    for (c, p) in programs.iter().enumerate() {
        m.load(c, p.clone());
    }
    m
}

/// A machine set up as the executor sets one up for a built testcase.
fn built_machine(cores: usize, built: &BuiltTestcase) -> Machine {
    let mut m = Machine::new(cores, built.mem_bytes);
    for &(addr, val) in &built.mem_init {
        m.mem.raw_write_u64(addr, val);
    }
    for (c, p) in built.programs.iter().enumerate() {
        if let Some(p) = p {
            m.load(c, p.clone());
        }
    }
    m
}

/// Runs `m` under the named interpreter variant with the given hook and
/// step budget, and fingerprints the result. Fresh identically-seeded
/// interleave streams per variant; where each ends up is part of the
/// fingerprint.
fn run_machine<H: FaultHook>(
    variant: &str,
    mut m: Machine,
    seed: u64,
    max_steps: u64,
    hook: &mut H,
) -> Fingerprint {
    let mut interleave = DetRng::new(seed);
    let out = match variant {
        "fast" => m.run(hook, &mut interleave, max_steps),
        "dyn" => {
            let dyn_hook: &mut dyn FaultHook = hook;
            m.run(dyn_hook, &mut interleave, max_steps)
        }
        "reference" => m.run_reference(hook, &mut interleave, max_steps),
        other => panic!("unknown variant {other}"),
    };
    fingerprint(&m, out, &mut interleave)
}

/// [`run_machine`] on `programs` loaded from core 0, with no step budget.
fn run_variant<H: FaultHook>(
    variant: &str,
    cores: usize,
    seed: u64,
    programs: &[Program],
    hook: &mut H,
) -> Fingerprint {
    run_machine(variant, machine(cores, programs), seed, u64::MAX, hook)
}

const VARIANTS: [&str; 3] = ["fast", "dyn", "reference"];

#[test]
fn golden_runs_identical_across_interpreters() {
    for cores in [1usize, 2, 4] {
        for seed in [1u64, 7, 42] {
            let programs: Vec<Program> = (0..cores).map(|c| mixed_program(c, 300)).collect();
            assert_transparent(&format!("golden c{cores} s{seed}"), &VARIANTS, |variant| {
                run_variant(variant, cores, seed, &programs, &mut NoFaults)
            });
        }
    }
}

#[test]
fn injected_runs_identical_across_interpreters() {
    let proc_ = defective_processor();
    for cores in [1usize, 2, 4] {
        for seed in [3u64, 11] {
            let programs: Vec<Program> = (0..cores).map(|c| mixed_program(c, 300)).collect();
            let core_map: Vec<u16> = (0..cores as u16).collect();
            assert_transparent(
                &format!("injected c{cores} s{seed}"),
                &VARIANTS,
                |variant| {
                    // A fresh, identically-seeded injector per variant.
                    let mut injector =
                        Injector::new(&proc_, core_map.clone(), 45.0, DetRng::new(seed ^ 0x1f));
                    injector.set_temps(&vec![62.0; cores]);
                    run_variant(variant, cores, seed, &programs, &mut injector)
                },
            );
        }
    }
}

#[test]
fn profiled_runs_identical_across_interpreters() {
    for cores in [1usize, 2] {
        let programs: Vec<Program> = (0..cores).map(|c| mixed_program(c, 300)).collect();
        assert_transparent(&format!("profiled c{cores}"), &VARIANTS, |variant| {
            let mut profiler = Profiler::new(DetRng::new(0x9821));
            let fp = run_variant(variant, cores, 5, &programs, &mut profiler);
            let counts: Vec<_> = profiler.counts().collect();
            let samples: Vec<_> = profiler
                .site_kinds()
                .into_iter()
                .map(|(class, dt)| profiler.samples(class, dt).to_vec())
                .collect();
            (fp, counts, samples)
        });
    }
}

#[test]
fn single_core_hot_loop_identical_and_fused() {
    let program = int_loop(10_000);
    let decoded = softcore::DecodedProgram::decode(&program);
    assert!(
        decoded.fused_pairs() > 0,
        "the integer hot loop must contain fused pairs"
    );
    for seed in [1u64, 9, 1234] {
        assert_transparent(&format!("hot loop s{seed}"), &VARIANTS, |variant| {
            run_variant(
                variant,
                1,
                seed,
                std::slice::from_ref(&program),
                &mut NoFaults,
            )
        });
    }
}

/// A package-wide processor with the two consistency defects: coherence
/// drops on one core and transaction-isolation failures on every core.
fn consistency_processor(cores: usize) -> Processor {
    let mut p = Processor::healthy(CpuId(9), ArchId(2), 1.5);
    p.physical_cores = cores as u16;
    p.defects.push(Defect::new(
        DefectKind::CoherenceDrop,
        DefectScope::SingleCore(1),
        Trigger::flat(0.05),
    ));
    p.defects.push(Defect::new(
        DefectKind::TxIsolation,
        DefectScope::AllCores {
            per_core_scale: vec![1.0; cores],
        },
        Trigger::flat(0.3),
    ));
    p
}

/// Every multi-thread testcase of the suite, built as the executor builds
/// it for a `cores`-core package, under the golden hook, the profiler,
/// and an injector with coherence and TSX defects. The filler loops of
/// diluted variants are what the contended loop defers.
fn contended_testcases_identical_across_interpreters(cores: usize) {
    let suite = Suite::standard();
    let multi: Vec<_> = suite
        .testcases()
        .iter()
        .filter(|tc| tc.threads > 1)
        .collect();
    assert!(multi.len() > 100, "the suite's cache and TSX testcases");
    let proc_ = consistency_processor(cores);
    let core_map: Vec<u16> = (0..cores as u16).collect();
    for tc in &multi {
        let seed = u64::from(tc.id.0) ^ ((cores as u64) << 32);
        let built = builders::build(tc, cores, 1, seed);
        let label = format!("{} c{cores}", tc.name);
        assert_transparent(&format!("{label} golden"), &VARIANTS, |variant| {
            run_machine(
                variant,
                built_machine(cores, &built),
                seed,
                u64::MAX,
                &mut NoFaults,
            )
        });
        assert_transparent(&format!("{label} profiled"), &VARIANTS, |variant| {
            let mut profiler = Profiler::new(DetRng::new(seed ^ 0x9821));
            let fp = run_machine(
                variant,
                built_machine(cores, &built),
                seed,
                u64::MAX,
                &mut profiler,
            );
            (fp, profiler.counts().collect::<Vec<_>>())
        });
        assert_transparent(&format!("{label} injected"), &VARIANTS, |variant| {
            let mut injector =
                Injector::new(&proc_, core_map.clone(), 45.0, DetRng::new(seed ^ 0x1f));
            injector.set_temps(&vec![62.0; cores]);
            run_machine(
                variant,
                built_machine(cores, &built),
                seed,
                50_000_000,
                &mut injector,
            )
        });
    }
}

#[test]
fn contended_testcases_identical_on_16_cores() {
    contended_testcases_identical_across_interpreters(16);
}

#[test]
fn contended_testcases_identical_on_24_cores() {
    contended_testcases_identical_across_interpreters(24);
}

#[test]
fn contended_testcases_identical_on_64_cores() {
    contended_testcases_identical_across_interpreters(64);
}

/// Core `c` spins through a filler loop whose trip count differs per
/// core, touching shared memory between rounds, so cores halt at
/// staggered points — almost always in the middle of a pick batch — and
/// most picks land on deferred local steps.
fn filler_program(core: usize, rounds: u32) -> Program {
    let mut b = ProgramBuilder::new();
    b.mov_imm(0, 64).mov_imm(1, 1);
    b.loop_start(rounds);
    b.loop_start(37 + 13 * core as u32);
    b.pause();
    b.loop_end();
    b.lock_acquire(0);
    b.load(2, 0, 8);
    b.add_imm(2, 2, 1);
    b.store(2, 0, 8);
    b.lock_release(0);
    b.mov(3, 2).cmp_ne(4, 3, 1).fmov_imm(1, 0.5);
    b.loop_end();
    b.build()
}

#[test]
fn filler_heavy_runs_halt_mid_batch_identically() {
    for cores in [2usize, 3, 16, 24] {
        let programs: Vec<Program> = (0..cores).map(|c| filler_program(c, 6)).collect();
        for seed in [1u64, 77] {
            assert_transparent(&format!("filler c{cores} s{seed}"), &VARIANTS, |variant| {
                let fp = run_machine(
                    variant,
                    machine(cores, &programs),
                    seed,
                    u64::MAX,
                    &mut NoFaults,
                );
                assert!(fp.completed);
                fp
            });
        }
    }
}

/// Step budgets that run out inside a pick batch (not a multiple of the
/// batch size) while cores have deferred local steps pending; the run
/// stops incomplete at exactly the budget on every interpreter.
#[test]
fn step_budget_inside_batch_and_pending_local_run() {
    let cores = 16;
    let programs: Vec<Program> = (0..cores).map(|c| filler_program(c, 6)).collect();
    for max_steps in [1u64, 255, 257, 1_000, 4_099, 20_003] {
        assert_transparent(&format!("budget {max_steps}"), &VARIANTS, |variant| {
            let fp = run_machine(
                variant,
                machine(cores, &programs),
                5,
                max_steps,
                &mut NoFaults,
            );
            assert!(!fp.completed, "budget {max_steps} ends the run early");
            assert_eq!(fp.steps, max_steps);
            fp
        });
    }
}
