//! The multi-core machine: cores, shared memory, and a deterministic
//! random interleaver.

use crate::cpu::Core;
use crate::decode::DecodedProgram;
use crate::hooks::FaultHook;
use crate::inst::InstClass;
use crate::mem::MemSystem;
use crate::program::Program;
use crate::usage::UsageCounters;
use sdc_model::{DataType, DetRng};

/// Ground-truth log entry: the fault hook replaced a result.
///
/// This is the *injector's* view, used to validate detection machinery;
/// the toolchain detects SDCs independently, by comparing outputs against
/// a golden run (it never reads this log).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorruptionEvent {
    /// Core that retired the corrupted instruction.
    pub core: usize,
    /// Instruction class.
    pub class: InstClass,
    /// Result datatype.
    pub dt: DataType,
    /// Correct bits.
    pub expected: u128,
    /// Corrupted bits.
    pub actual: u128,
}

/// Outcome of a machine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// True if every core halted within the step budget.
    pub completed: bool,
    /// Total instructions executed across cores.
    pub steps: u64,
    /// Maximum per-core cycle count (wall-clock proxy for the run),
    /// derived from the usage counters.
    pub cycles: u64,
}

/// A multi-core machine executing one program per core.
#[derive(Debug)]
pub struct Machine {
    /// The shared memory system.
    pub mem: MemSystem,
    cores: Vec<Core>,
    programs: Vec<Option<Program>>,
    decoded: Vec<Option<DecodedProgram>>,
    /// Instruction-usage counters (the Pin-instrumentation equivalent).
    pub usage: UsageCounters,
    /// Ground-truth corruption log.
    pub events: Vec<CorruptionEvent>,
}

impl Machine {
    /// A machine with `cores` cores sharing `mem_bytes` of memory.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    pub fn new(cores: usize, mem_bytes: u64) -> Self {
        assert!(cores > 0, "need at least one core");
        Machine {
            mem: MemSystem::new(cores, mem_bytes),
            cores: (0..cores).map(Core::new).collect(),
            programs: vec![None; cores],
            decoded: vec![None; cores],
            usage: UsageCounters::new(cores),
            events: Vec::new(),
        }
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Loads `program` onto `core` and predecodes it. Cores without a
    /// program stay halted.
    pub fn load(&mut self, core: usize, program: Program) {
        self.decoded[core] = Some(DecodedProgram::decode(&program));
        self.programs[core] = Some(program);
        self.cores[core].restart();
    }

    /// Read access to a core's registers (for result extraction in tests).
    pub fn core(&self, core: usize) -> &Core {
        &self.cores[core]
    }

    /// Runs until every loaded core halts or `max_steps` instructions have
    /// executed, interleaving cores uniformly at random (deterministic
    /// under `rng`). Flushes caches on completion so raw memory reads see
    /// final state. Per-core cycles and energy are derived from the usage
    /// counters ([`UsageCounters::cycles`], [`UsageCounters::energy`]);
    /// the outcome's `cycles` is their maximum, computed once at the end.
    ///
    /// Bit-identical to [`Machine::run_reference`] in every observable
    /// product (hook call sequence, corruption events, usage counters,
    /// memory, the returned outcome) and in the position of `rng`
    /// afterwards, which is exact. It runs in three phases:
    ///
    /// 1. **Contended** (more than one live core): the picks are the
    ///    reference's `below(live)` draws, made in batches by
    ///    [`DetRng::fill_below`]. A pick of a core whose next step the
    ///    decoder guarantees is core-local is only counted; the pending
    ///    steps run in one `Core::run_local` before that core's next
    ///    non-local step, which is the only kind that touches memory, the
    ///    hook, the event log or the halt state. When a core halts
    ///    mid-batch the stream is rewound and re-advanced by exactly the
    ///    picks used.
    /// 2. **Single live core** (the whole run for golden/profiling
    ///    workloads): the schedule is forced, so fused pairs run
    ///    straight-line and the reference's `below(1)` draws are owed to
    ///    the stream ([`DetRng::skip_forced`]) rather than made.
    /// 3. **Flush**: pending local steps run whenever the contended phase
    ///    ends, including when the step budget runs out inside it; caches
    ///    are then written back.
    pub fn run<H: FaultHook + ?Sized>(
        &mut self,
        hook: &mut H,
        rng: &mut DetRng,
        max_steps: u64,
    ) -> RunOutcome {
        let mut live: Vec<usize> = (0..self.cores.len())
            .filter(|&i| self.programs[i].is_some())
            .collect();
        if live.is_empty() {
            return self.outcome(true, 0);
        }
        live.retain(|&i| !self.cores[i].halted());

        let mut steps = 0;
        if live.len() > 1 {
            steps = self.run_contended(hook, rng, max_steps, &mut live);
        }

        // Single-live-core phase: the schedule is forced, so its draws are
        // owed rather than made, and fused pairs execute straight-line
        // when the step budget allows both micro-ops.
        if let [core_idx] = live[..] {
            let prog = self.decoded[core_idx].as_ref().expect("loaded");
            let core = &mut self.cores[core_idx];
            let forced_from = steps;
            while !core.halted && steps < max_steps {
                if steps + 2 <= max_steps {
                    if let Some(fused) = prog.fused_at(core.pc) {
                        core.exec_fused(fused, hook, &mut self.usage, &mut self.events);
                        steps += 2;
                        continue;
                    }
                }
                core.step_decoded(prog, &mut self.mem, hook, &mut self.usage, &mut self.events);
                steps += 1;
            }
            rng.skip_forced(steps - forced_from);
            if core.halted {
                live.clear();
            }
        }

        self.mem.flush_all();
        self.outcome(live.is_empty(), steps)
    }

    /// The outcome of a finished run: `cycles` is the largest per-core
    /// cycle count derived from the usage counters.
    fn outcome(&self, completed: bool, steps: u64) -> RunOutcome {
        RunOutcome {
            completed,
            steps,
            cycles: (0..self.cores.len())
                .map(|c| self.usage.cycles(c))
                .max()
                .unwrap_or(0),
        }
    }

    /// The contended phase of [`Machine::run`]: steps until at most one
    /// core is live or `max_steps` picks are made, removing halted cores
    /// from `live` as the reference does, and returns the picks made.
    /// Every deferred local step has run when it returns.
    fn run_contended<H: FaultHook + ?Sized>(
        &mut self,
        hook: &mut H,
        rng: &mut DetRng,
        max_steps: u64,
        live: &mut Vec<usize>,
    ) -> u64 {
        /// Picks drawn per batch.
        const BATCH: usize = 256;
        let cores = self.cores.len();
        // Per core: picks counted but not yet run, and how many more of
        // its steps are guaranteed local.
        let mut pending = vec![0u64; cores];
        let mut local = vec![0u64; cores];
        for &c in live.iter() {
            let prog = self.decoded[c].as_ref().expect("loaded");
            local[c] = prog.local_budget(self.cores[c].pc, self.cores[c].loop_top());
        }
        let mut picks = [0u64; BATCH];
        let mut steps = 0u64;
        while live.len() > 1 && steps < max_steps {
            let n = live.len() as u64;
            let batch = (max_steps - steps).min(BATCH as u64) as usize;
            let snapshot = rng.clone();
            rng.fill_below(n, &mut picks[..batch]);
            let mut used = 0;
            while used < batch {
                let pick = picks[used] as usize;
                used += 1;
                let c = live[pick];
                if local[c] > 0 {
                    local[c] -= 1;
                    pending[c] += 1;
                    continue;
                }
                let prog = self.decoded[c].as_ref().expect("loaded");
                let core = &mut self.cores[c];
                core.run_local(prog, pending[c], &mut self.usage);
                pending[c] = 0;
                core.step_decoded(prog, &mut self.mem, hook, &mut self.usage, &mut self.events);
                if core.halted {
                    live.swap_remove(pick);
                    break;
                }
                local[c] = prog.local_budget(core.pc, core.loop_top());
            }
            steps += used as u64;
            if used < batch {
                // The live set changed: the rest of the batch was drawn
                // for the old count, so draw only the picks used.
                *rng = snapshot;
                rng.fill_below(n, &mut picks[..used]);
            }
        }
        for &c in live.iter() {
            let prog = self.decoded[c].as_ref().expect("loaded");
            self.cores[c].run_local(prog, pending[c], &mut self.usage);
        }
        steps
    }

    /// The seed interpreter loop, kept verbatim: un-predecoded dispatch
    /// and one scheduling draw per step regardless of live-core count.
    /// The conformance gate and `tests/fastpath_equivalence.rs` compare
    /// [`Machine::run`] against this to prove the fast path emits
    /// identical bits.
    pub fn run_reference<H: FaultHook + ?Sized>(
        &mut self,
        hook: &mut H,
        rng: &mut DetRng,
        max_steps: u64,
    ) -> RunOutcome {
        let mut steps = 0u64;
        let runnable: Vec<usize> = (0..self.cores.len())
            .filter(|&i| self.programs[i].is_some())
            .collect();
        if runnable.is_empty() {
            return self.outcome(true, 0);
        }
        let mut live: Vec<usize> = runnable
            .iter()
            .copied()
            .filter(|&i| !self.cores[i].halted())
            .collect();
        while !live.is_empty() && steps < max_steps {
            let pick = rng.below(live.len() as u64) as usize;
            let core_idx = live[pick];
            let prog = self.programs[core_idx].as_ref().expect("loaded");
            self.cores[core_idx].step(prog, &mut self.mem, hook, &mut self.usage, &mut self.events);
            steps += 1;
            if self.cores[core_idx].halted() {
                live.swap_remove(pick);
            }
        }
        self.mem.flush_all();
        self.outcome(live.is_empty(), steps)
    }

    /// Cold restart: zeroed memory, fresh caches and stats, zeroed
    /// registers, cleared run products — indistinguishable from a newly
    /// constructed machine except that loaded programs (and their decoded
    /// images) are kept. Lets callers reuse one `Machine` across unit
    /// iterations instead of reallocating memory and re-decoding.
    pub fn restart(&mut self) {
        self.mem.reset();
        for c in &mut self.cores {
            *c = Core::new(c.id);
        }
        self.usage.reset();
        self.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NoFaults;
    use crate::inst::IntOpKind;
    use crate::program::ProgramBuilder;
    use sdc_model::DataType;

    fn counter_program(lock_addr: u64, counter_addr: u64, rounds: u32) -> Program {
        let mut b = ProgramBuilder::new();
        b.mov_imm(0, lock_addr);
        b.mov_imm(1, counter_addr);
        b.mov_imm(2, 1);
        b.loop_start(rounds);
        b.lock_acquire(0);
        b.load(3, 1, 0);
        b.int_op(IntOpKind::Add, DataType::Bin64, 3, 3, 2);
        b.store(3, 1, 0);
        b.lock_release(0);
        b.loop_end();
        b.build()
    }

    #[test]
    fn single_core_runs_to_halt() {
        let mut m = Machine::new(1, 4096);
        let mut b = ProgramBuilder::new();
        b.mov_imm(0, 7);
        m.load(0, b.build());
        let mut rng = DetRng::new(1);
        let out = m.run(&mut NoFaults, &mut rng, 1_000);
        assert!(out.completed);
        assert_eq!(m.core(0).regs.int(0), 7);
        assert!(out.cycles > 0);
    }

    #[test]
    fn unloaded_cores_do_not_block_completion() {
        let mut m = Machine::new(4, 4096);
        let mut b = ProgramBuilder::new();
        b.mov_imm(0, 1);
        m.load(2, b.build());
        let mut rng = DetRng::new(2);
        let out = m.run(&mut NoFaults, &mut rng, 1_000);
        assert!(out.completed);
    }

    #[test]
    fn step_budget_stops_runaway() {
        let mut m = Machine::new(1, 4096);
        let mut b = ProgramBuilder::new();
        b.loop_start(u32::MAX);
        b.mov_imm(0, 1);
        b.loop_end();
        m.load(0, b.build());
        let mut rng = DetRng::new(3);
        let out = m.run(&mut NoFaults, &mut rng, 10_000);
        assert!(!out.completed);
        assert_eq!(out.steps, 10_000);
    }

    #[test]
    fn step_budget_is_exact_with_fused_pairs() {
        // The runaway body is IntOp+LoopEnd, a fused pair; odd budgets
        // force the fast path to fall back to single-step dispatch for
        // the final instruction.
        let mut m = Machine::new(1, 4096);
        let mut b = ProgramBuilder::new();
        b.mov_imm(0, 1);
        b.loop_start(u32::MAX);
        b.int_op(IntOpKind::Add, DataType::Bin64, 0, 0, 0);
        b.loop_end();
        m.load(0, b.build());
        let mut rng = DetRng::new(3);
        let out = m.run(&mut NoFaults, &mut rng, 10_001);
        assert!(!out.completed);
        assert_eq!(out.steps, 10_001);
    }

    #[test]
    fn lock_counter_is_exact_with_healthy_coherence() {
        let mut m = Machine::new(4, 1 << 16);
        for c in 0..4 {
            m.load(c, counter_program(0, 64, 25));
        }
        let mut rng = DetRng::new(4);
        let out = m.run(&mut NoFaults, &mut rng, 10_000_000);
        assert!(out.completed, "all cores finish");
        assert_eq!(m.mem.raw_read_u64(64), 100, "no lost updates");
    }

    #[test]
    fn interleaving_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut m = Machine::new(2, 1 << 16);
            for c in 0..2 {
                m.load(c, counter_program(0, 64, 10));
            }
            let mut rng = DetRng::new(seed);
            let out = m.run(&mut NoFaults, &mut rng, 1_000_000);
            (out.steps, m.mem.raw_read_u64(64))
        };
        assert_eq!(run(7), run(7));
        // Different seeds interleave differently but are equally correct.
        assert_eq!(run(7).1, run(8).1);
    }

    #[test]
    fn energy_and_cycles_accumulate() {
        let mut m = Machine::new(2, 4096);
        let mut b = ProgramBuilder::new();
        b.fmov_imm(0, 1.0);
        b.fatan(crate::inst::Precision::F64, 1, 0);
        m.load(0, b.build());
        let mut rng = DetRng::new(5);
        let out = m.run(&mut NoFaults, &mut rng, 1_000);
        // `FMovImm` and the `Halt` that `build` appends are `Control`.
        let (atan, control) = (InstClass::FloatAtan, InstClass::Control);
        assert_eq!(m.usage.cycles(0), atan.cycles() + 2 * control.cycles());
        assert_eq!(m.usage.energy(0), atan.energy() + 2.0 * control.energy());
        assert_eq!(out.cycles, m.usage.cycles(0));
        assert_eq!(m.usage.cycles(1), 0, "idle core consumes nothing");
        assert_eq!(m.usage.energy(1), 0.0, "idle core consumes nothing");
    }

    #[test]
    fn restart_matches_fresh_machine() {
        let program = counter_program(0, 64, 10);
        let mut reused = Machine::new(1, 1 << 16);
        reused.load(0, program.clone());
        let mut rng = DetRng::new(9);
        reused.run(&mut NoFaults, &mut rng, 1_000_000);
        reused.restart();
        let mut rng = DetRng::new(9);
        let out_reused = reused.run(&mut NoFaults, &mut rng, 1_000_000);

        let mut fresh = Machine::new(1, 1 << 16);
        fresh.load(0, program);
        let mut rng = DetRng::new(9);
        let out_fresh = fresh.run(&mut NoFaults, &mut rng, 1_000_000);

        assert_eq!(out_reused, out_fresh);
        assert_eq!(reused.mem.raw_read_u64(64), fresh.mem.raw_read_u64(64));
        assert_eq!(reused.usage.cycles(0), fresh.usage.cycles(0));
        assert_eq!(
            reused.core(0).regs.int(3),
            fresh.core(0).regs.int(3),
            "registers match after restart"
        );
    }

    #[test]
    fn fast_path_matches_reference_interpreter() {
        for cores in [1usize, 2, 4] {
            for seed in [1u64, 7, 42] {
                let build = || {
                    let mut m = Machine::new(cores, 1 << 16);
                    for c in 0..cores {
                        m.load(c, counter_program(0, 64, 12));
                    }
                    m
                };
                let mut fast = build();
                let mut rng = DetRng::new(seed);
                let out_fast = fast.run(&mut NoFaults, &mut rng, 5_000_000);
                let mut reference = build();
                let mut rng = DetRng::new(seed);
                let out_ref = reference.run_reference(&mut NoFaults, &mut rng, 5_000_000);
                assert_eq!(out_fast, out_ref, "cores={cores} seed={seed}");
                assert_eq!(fast.mem.raw_read_u64(64), reference.mem.raw_read_u64(64));
                for c in 0..cores {
                    assert_eq!(fast.usage.cycles(c), reference.usage.cycles(c));
                }
                assert_eq!(fast.usage.profile(), reference.usage.profile());
            }
        }
    }
}
