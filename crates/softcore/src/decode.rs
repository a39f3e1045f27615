//! Predecoded programs: the interpreter fast path's flattened form.
//!
//! `DecodedProgram::decode` runs once per loaded program and precomputes
//! everything `Core::step` otherwise rederives on every retire:
//!
//! * per-instruction class;
//! * the `loop_end + 1` skip target of every `LoopStart`, flattening the
//!   `HashMap` lookup out of zero-count loop entry;
//! * per-`IntOp` datatype masks and shift widths;
//! * superinstruction marks fusing common adjacent pairs
//!   (`MovImm`+`IntOp`, `IntOp`+`IntOp`, and the compare-and-branch
//!   analogue `IntOp`+`LoopEnd`) for the single-live-core execution
//!   phase;
//! * local-run marks for the contended phase. The core-local ops are
//!   `MovImm`, `Mov`, `AddImm`, `FMovImm`, `Pause` and `CmpNe`: they
//!   touch no memory, fault hook, event log or halt state, only the
//!   core's own registers and pc. Per pc the decoder stores how many steps
//!   the local straight-line run starting there takes, counting a whole
//!   loop whose body is entirely local (its trip count is static) as part
//!   of the run, and it stores the span of every such local loop. From
//!   these and the core's top loop-stack entry, `local_budget` tells the
//!   machine how many more steps of a core are guaranteed local, so it
//!   can defer them.
//!
//! The decoded form keeps a strict 1:1 pc mapping with the source
//! program — fusion is a per-pc mark consulted at dispatch, not a
//! rewrite — so control transfers (loop back-edges, zero-count skips,
//! lock spins) land on exactly the same pcs as undecoded execution.
//!
//! The decoded form carries no costs: cycles and energy are derived from
//! the usage counters every path records (`UsageCounters::cycles` and
//! `UsageCounters::energy`).

use crate::inst::{Inst, InstClass, IntOpKind};
use crate::program::Program;
use sdc_model::DataType;

/// One predecoded instruction: the original `Inst` plus everything the
/// dispatch loop needs without recomputation.
#[derive(Debug, Clone)]
pub(crate) struct DecodedOp {
    pub(crate) inst: Inst,
    pub(crate) class: InstClass,
    /// For `LoopStart`: the pc after the matching `LoopEnd` (taken when
    /// the trip count is zero). Unused for every other instruction.
    pub(crate) skip_to: u32,
}

/// A predecoded `IntOp` with its datatype mask and shift width resolved.
#[derive(Debug, Clone)]
pub(crate) struct AluOp {
    pub(crate) op: IntOpKind,
    pub(crate) dt: DataType,
    pub(crate) mask: u64,
    pub(crate) width: u64,
    pub(crate) dst: u8,
    pub(crate) a: u8,
    pub(crate) b: u8,
    pub(crate) class: InstClass,
}

/// The fusable pair shapes. All operands stay in registers and neither
/// micro-op can transfer control out of the pair except the trailing
/// `LoopEnd`, which is exactly the macro-fused decrement-compare-branch.
#[derive(Debug, Clone)]
pub(crate) enum FusedKind {
    MovImmIntOp { imm_dst: u8, imm: u64, alu: AluOp },
    IntOpIntOp { first: AluOp, second: AluOp },
    IntOpLoopEnd { alu: AluOp },
}

/// The decoded image of one `Program`.
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    ops: Vec<DecodedOp>,
    /// Per-pc index into `fused`, `u32::MAX` when the pair starting at
    /// that pc is not fusable. A jump landing mid-pair simply uses the
    /// landing pc's own entry.
    fuse_idx: Vec<u32>,
    fused: Vec<FusedKind>,
    /// Per pc, plus one entry for the off-the-end pc: the steps of the
    /// local run starting there, a local loop entered at its `LoopStart`
    /// counting with its static trip count.
    local_run: Vec<u64>,
    /// Per pc: the `LoopStart` pc of the local loop whose body or
    /// `LoopEnd` holds it, `NO_LOOP` outside local loops.
    local_loop: Vec<u32>,
}

const NO_FUSE: u32 = u32::MAX;
const NO_LOOP: u32 = u32::MAX;

/// Whether `inst` is core-local: it reads and writes only the core's
/// registers and advances its pc by one.
fn is_local(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::MovImm { .. }
            | Inst::Mov { .. }
            | Inst::AddImm { .. }
            | Inst::FMovImm { .. }
            | Inst::Pause
            | Inst::CmpNe { .. }
    )
}

fn alu_of(inst: &Inst) -> Option<AluOp> {
    if let Inst::IntOp { op, dt, dst, a, b } = *inst {
        Some(AluOp {
            op,
            dt,
            mask: dt.mask() as u64,
            width: dt.bits() as u64,
            dst,
            a,
            b,
            class: op.class(),
        })
    } else {
        None
    }
}

impl DecodedProgram {
    /// Decodes a program. Pure: depends only on the instruction stream.
    pub fn decode(program: &Program) -> Self {
        let insts = program.insts();
        let ops = insts
            .iter()
            .enumerate()
            .map(|(pc, &inst)| {
                let class = inst.class();
                let skip_to = match inst {
                    Inst::LoopStart { .. } => (program.loop_end_of(pc) + 1) as u32,
                    _ => 0,
                };
                DecodedOp {
                    inst,
                    class,
                    skip_to,
                }
            })
            .collect::<Vec<_>>();

        let mut fuse_idx = vec![NO_FUSE; insts.len()];
        let mut fused = Vec::new();
        for pc in 0..insts.len().saturating_sub(1) {
            let kind = match (&insts[pc], &insts[pc + 1]) {
                (&Inst::MovImm { dst, imm }, second @ &Inst::IntOp { .. }) => {
                    Some(FusedKind::MovImmIntOp {
                        imm_dst: dst,
                        imm,
                        alu: alu_of(second).expect("IntOp"),
                    })
                }
                (first @ &Inst::IntOp { .. }, second @ &Inst::IntOp { .. }) => {
                    Some(FusedKind::IntOpIntOp {
                        first: alu_of(first).expect("IntOp"),
                        second: alu_of(second).expect("IntOp"),
                    })
                }
                (first @ &Inst::IntOp { .. }, &Inst::LoopEnd) => Some(FusedKind::IntOpLoopEnd {
                    alu: alu_of(first).expect("IntOp"),
                }),
                _ => None,
            };
            if let Some(kind) = kind {
                fuse_idx[pc] = fused.len() as u32;
                fused.push(kind);
            }
        }
        // Local runs, computed backwards so each pc can extend the run
        // after it. A loop is local when its body is all local ops; its
        // steps from `LoopStart` are the `LoopStart` itself plus `count`
        // iterations of body and `LoopEnd` (a zero count skips past the
        // `LoopEnd` in one step).
        let mut local_run = vec![0u64; insts.len() + 1];
        let mut local_loop = vec![NO_LOOP; insts.len()];
        for pc in (0..insts.len()).rev() {
            local_run[pc] = match insts[pc] {
                inst if is_local(&inst) => local_run[pc + 1].saturating_add(1),
                Inst::LoopStart { count } => {
                    let end = program.loop_end_of(pc);
                    if insts[pc + 1..end].iter().all(is_local) {
                        local_loop[pc + 1..=end].fill(pc as u32);
                        let iteration = (end - pc) as u64;
                        let own = 1 + u64::from(count).saturating_mul(iteration);
                        own.saturating_add(local_run[end + 1])
                    } else {
                        0
                    }
                }
                _ => 0,
            };
        }
        DecodedProgram {
            ops,
            fuse_idx,
            fused,
            local_run,
            local_loop,
        }
    }

    /// How many more steps of a core at `pc` are guaranteed local, given
    /// the core's top loop-stack entry `(LoopStart pc, trips left)`.
    ///
    /// Inside a local loop the count runs to the end of the current
    /// iteration, through the trips left, and on along the local run
    /// after the loop. Anywhere else it is the static local run at `pc`,
    /// which stops before any `LoopEnd` it cannot see the count of. Zero
    /// means the next step may touch shared state or halt.
    pub(crate) fn local_budget(&self, pc: usize, top: Option<(usize, u32)>) -> u64 {
        match (self.local_loop.get(pc), top) {
            (Some(&start), Some((top_start, left))) if start as usize == top_start => {
                let end = self.ops[top_start].skip_to as usize - 1;
                let iteration = (end - top_start) as u64;
                let rest_of_trip = (end + 1 - pc) as u64;
                u64::from(left - 1)
                    .saturating_mul(iteration)
                    .saturating_add(rest_of_trip)
                    .saturating_add(self.local_run[end + 1])
            }
            _ => self.local_run.get(pc).copied().unwrap_or(0),
        }
    }

    #[inline]
    pub(crate) fn op(&self, pc: usize) -> Option<&DecodedOp> {
        self.ops.get(pc)
    }

    /// The fused pair starting at `pc`, if the decoder marked one.
    #[inline]
    pub(crate) fn fused_at(&self, pc: usize) -> Option<&FusedKind> {
        match self.fuse_idx.get(pc) {
            Some(&i) if i != NO_FUSE => Some(&self.fused[i as usize]),
            _ => None,
        }
    }

    /// Number of predecoded instructions (same as the program length).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of fusable pair marks found (diagnostics and benches).
    pub fn fused_pairs(&self) -> usize {
        self.fused.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;

    #[test]
    fn decode_preserves_pc_mapping_and_classes() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(0, 3).mov_imm(1, 5).loop_start(10);
        b.int_op(IntOpKind::Add, DataType::I32, 2, 0, 1);
        b.int_op(IntOpKind::Xor, DataType::I32, 0, 0, 2);
        b.loop_end();
        let prog = b.build();
        let d = DecodedProgram::decode(&prog);
        assert_eq!(d.len(), prog.len());
        for (pc, inst) in prog.insts().iter().enumerate() {
            let op = d.op(pc).expect("1:1 mapping");
            assert_eq!(op.class, inst.class());
        }
    }

    #[test]
    fn loop_start_skip_targets_match_program() {
        let mut b = ProgramBuilder::new();
        b.loop_start(0);
        b.mov_imm(0, 1);
        b.loop_end();
        b.mov_imm(0, 2);
        let prog = b.build();
        let d = DecodedProgram::decode(&prog);
        assert_eq!(
            d.op(0).expect("pc 0").skip_to as usize,
            prog.loop_end_of(0) + 1
        );
    }

    #[test]
    fn fusion_marks_expected_pairs() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(0, 3); // pc 0: MovImm followed by IntOp -> fused
        b.int_op(IntOpKind::Add, DataType::I32, 1, 0, 0); // pc 1: IntOp+IntOp -> fused
        b.int_op(IntOpKind::Xor, DataType::I32, 2, 1, 0); // pc 2: IntOp before fmov -> not fused
        b.fmov_imm(0, 1.0); // pc 3
        let prog = b.build();
        let d = DecodedProgram::decode(&prog);
        assert!(d.fused_at(0).is_some(), "MovImm+IntOp fuses");
        assert!(d.fused_at(1).is_some(), "IntOp+IntOp fuses");
        assert!(d.fused_at(2).is_none(), "IntOp+FMovImm does not fuse");
        assert_eq!(d.fused_pairs(), 2);
    }

    #[test]
    fn local_runs_count_whole_local_loops() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(0, 1); // pc 0
        b.loop_start(3); // pc 1: local loop, 1 + 3 * 3 steps
        b.pause(); // pc 2
        b.cmp_ne(1, 0, 0); // pc 3
        b.loop_end(); // pc 4
        b.fmov_imm(0, 1.0); // pc 5
        b.load(2, 0, 0); // pc 6: touches memory
        b.loop_start(0); // pc 7: zero-count local loop, one step
        b.pause(); // pc 8
        b.loop_end(); // pc 9
        b.loop_start(2); // pc 10: not local (the body stores)
        b.store(0, 0, 0); // pc 11
        b.loop_end(); // pc 12
        let prog = b.build();
        let d = DecodedProgram::decode(&prog);
        assert_eq!(d.local_budget(0, None), 1 + 10 + 1);
        assert_eq!(d.local_budget(1, None), 10 + 1);
        assert_eq!(d.local_budget(5, None), 1);
        assert_eq!(d.local_budget(6, None), 0, "a load is not local");
        assert_eq!(d.local_budget(7, None), 1);
        assert_eq!(
            d.local_budget(10, None),
            0,
            "a loop with a store is not local"
        );
        assert_eq!(d.local_budget(13, None), 0, "running off the end halts");
        // Inside the local loop on its second trip (two left): the rest
        // of this trip, one more trip, then the `FMovImm`.
        assert_eq!(d.local_budget(3, Some((1, 2))), 2 + 3 + 1);
        assert_eq!(d.local_budget(4, Some((1, 1))), 1 + 1);
        // A `LoopEnd` whose loop is not on top of the stack is not counted.
        assert_eq!(d.local_budget(4, None), 0);
        assert_eq!(d.local_budget(12, Some((10, 1))), 0);
    }

    #[test]
    fn int_loop_body_fuses_with_loop_end() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(0, 1).loop_start(4);
        b.int_op(IntOpKind::Add, DataType::Bin64, 0, 0, 0);
        b.loop_end();
        let prog = b.build();
        let d = DecodedProgram::decode(&prog);
        let f = d.fused_at(2).expect("IntOp+LoopEnd fuses");
        assert!(matches!(f, FusedKind::IntOpLoopEnd { .. }));
    }
}
