//! The block CFG of a register-validated program: the input of
//! [`crate::threaded::ThreadedProgram`].
//!
//! [`DecodedProgram::compile`] checks every register operand once and
//! partitions the program into **basic blocks** (leaders: entry, every
//! branch target, every instruction after a branch/jump/halt; region
//! markers stay inside blocks as zero-cost entries). Each block carries
//! a precomputed batch of its *input-independent* statistics —
//! instruction classes, static energy events, CRC beats — which the
//! threaded interpreter adds in one shot when a superblock retires
//! instead of incrementing a dozen counters per instruction. Counts that
//! depend on runtime state (cache level served, queue stalls, branch
//! bubbles, config-gated LUT probes) stay per-instruction, which is why
//! the resulting [`crate::stats::RunStats`] is bit-identical to the
//! legacy instruction-at-a-time interpreter.
//!
//! The CFG depends only on the instructions and the latency model — not
//! on the memoization config, cache sizes, or inputs. It is not executed
//! directly: its blocks, counts and superblock chains
//! ([`DecodedProgram::superblocks`]) are what
//! [`ThreadedProgram::compile`](crate::threaded::ThreadedProgram::compile)
//! lowers, straight from the [`Inst`]s, into fused ops.

use crate::ir::{FBinOp, FUnOp, IAluOp, Inst, Program};
use crate::memo::crc_beats;
use crate::pipeline::LatencyModel;

/// Input-independent statistics of one basic block, accumulated once at
/// compile time and added to the run's counters in one shot when the
/// block retires. Only counters whose value is fully determined by the
/// static instruction sequence live here; anything input-, config- or
/// timing-dependent (cache levels, queue stalls, branch bubbles,
/// L2-LUT/ECC charges) is counted per-instruction by the interpreter.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BlockCounts {
    // Instruction classes (flushed to telemetry at end of run).
    pub ialu: u64,
    pub fbin: u64,
    pub fun: u64,
    pub load: u64,
    pub store: u64,
    pub mov: u64,
    pub branch: u64,
    pub jump: u64,
    pub memo: u64,
    // Static energy events.
    pub int_alu_ops: u64,
    pub int_mul_ops: u64,
    pub int_div_ops: u64,
    pub fp_ops: u64,
    pub fp_div_ops: u64,
    pub fp_libm_ops: u64,
    pub l1d_accesses: u64,
    pub crc_beats: u64,
    pub hvr_accesses: u64,
    pub l1_lut_accesses: u64,
    // Memoization-overhead instructions (ld_crc excluded, matching the
    // paper's accounting).
    pub memo_insts: u64,
}

impl BlockCounts {
    /// Accumulate another block's counts (used to build the cumulative
    /// exit tables of the threaded tier's superblocks).
    pub(crate) fn absorb(&mut self, o: &BlockCounts) {
        self.ialu += o.ialu;
        self.fbin += o.fbin;
        self.fun += o.fun;
        self.load += o.load;
        self.store += o.store;
        self.mov += o.mov;
        self.branch += o.branch;
        self.jump += o.jump;
        self.memo += o.memo;
        self.int_alu_ops += o.int_alu_ops;
        self.int_mul_ops += o.int_mul_ops;
        self.int_div_ops += o.int_div_ops;
        self.fp_ops += o.fp_ops;
        self.fp_div_ops += o.fp_div_ops;
        self.fp_libm_ops += o.fp_libm_ops;
        self.l1d_accesses += o.l1d_accesses;
        self.crc_beats += o.crc_beats;
        self.hvr_accesses += o.hvr_accesses;
        self.l1_lut_accesses += o.l1_lut_accesses;
        self.memo_insts += o.memo_insts;
    }

    /// Accumulate one instruction's static contribution, mirroring the
    /// per-arm increments of the legacy interpreter exactly.
    fn add(&mut self, inst: &Inst) {
        match *inst {
            Inst::IAlu { op, .. } => {
                self.ialu += 1;
                match op {
                    IAluOp::Mul => self.int_mul_ops += 1,
                    IAluOp::Div | IAluOp::Rem => self.int_div_ops += 1,
                    _ => self.int_alu_ops += 1,
                }
            }
            Inst::FBin { op, .. } => {
                self.fbin += 1;
                if op == FBinOp::Div {
                    self.fp_div_ops += 1;
                } else {
                    self.fp_ops += 1;
                }
            }
            Inst::FUn { op, .. } => {
                self.fun += 1;
                match op {
                    FUnOp::Exp | FUnOp::Log | FUnOp::Sin | FUnOp::Cos | FUnOp::Atan => {
                        self.fp_libm_ops += 1
                    }
                    FUnOp::Sqrt => self.fp_div_ops += 1,
                    _ => self.fp_ops += 1,
                }
            }
            Inst::Ld { .. } => {
                self.load += 1;
                self.l1d_accesses += 1;
            }
            Inst::St { .. } => {
                self.store += 1;
                self.l1d_accesses += 1;
            }
            Inst::MovImm { .. } | Inst::Mov { .. } => {
                self.mov += 1;
                self.int_alu_ops += 1;
            }
            Inst::Branch { .. } => {
                self.branch += 1;
                self.int_alu_ops += 1;
            }
            Inst::Jump { .. } => {
                self.jump += 1;
                self.int_alu_ops += 1;
            }
            Inst::BranchMemoHit { .. } => {
                self.memo += 1;
                self.memo_insts += 1;
                self.int_alu_ops += 1;
            }
            Inst::MemoLdCrc { width, .. } => {
                self.memo += 1;
                self.l1d_accesses += 1;
                self.crc_beats += crc_beats(width);
                self.hvr_accesses += 1;
            }
            Inst::MemoRegCrc { width, .. } => {
                self.memo += 1;
                self.crc_beats += crc_beats(width);
                self.hvr_accesses += 1;
                self.memo_insts += 1;
            }
            Inst::MemoLookup { .. } => {
                self.memo += 1;
                self.hvr_accesses += 1;
                self.l1_lut_accesses += 1;
                self.memo_insts += 1;
            }
            Inst::MemoUpdate { .. } => {
                self.memo += 1;
                self.l1_lut_accesses += 1;
                self.memo_insts += 1;
            }
            Inst::MemoInvalidate { .. } => {
                self.memo += 1;
                self.memo_insts += 1;
            }
            // Markers and Halt contribute nothing (dynamic_insts and
            // energy.instructions are counted by the interpreter, which
            // needs the running total for the InstLimit check anyway).
            Inst::RegionBegin { .. } | Inst::RegionEnd { .. } | Inst::Halt => {}
        }
    }
}

/// One basic block: instructions `[start, end)` of the program,
/// where `start` is the block's leader and the terminator (if any) is
/// the last instruction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Block {
    /// Leader index (debug-asserted on entry; every control transfer
    /// lands on a leader by construction).
    pub start: u32,
    /// One past the last instruction.
    pub end: u32,
    /// Input-independent statistics of the whole block.
    pub counts: BlockCounts,
}

/// The block CFG of a register-validated program: the input of
/// [`ThreadedProgram::compile`](crate::threaded::ThreadedProgram::compile).
///
/// It depends only on the instruction sequence and the [`LatencyModel`].
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    /// The source instructions (branch targets, error PCs, and
    /// predictor indices are instruction indices).
    pub(crate) insts: Vec<Inst>,
    /// Basic blocks covering `insts` exactly.
    pub(crate) blocks: Vec<Block>,
    /// Containing block of every instruction index.
    pub(crate) block_of: Vec<u32>,
    /// The latency model the program is lowered against.
    latency: LatencyModel,
}

impl DecodedProgram {
    /// Validate `program`'s registers and build its block CFG for
    /// lowering against `latency`.
    ///
    /// Out-of-range branch targets are preserved as-is (the interpreter
    /// reports the same [`crate::cpu::SimError::PcOutOfRange`] the
    /// legacy loop would); `Program::validate` is deliberately not
    /// required.
    /// # Panics
    ///
    /// If any instruction names a register outside `x0..x31`. The
    /// legacy interpreter would panic on such an instruction when (and
    /// if) it executed; rejecting it up front is what lets the fast
    /// path use mask-based register indexing with no bounds checks.
    pub fn compile(program: &Program, latency: &LatencyModel) -> Self {
        let n = program.insts.len();
        // Pass 0: register range validation (see Panics above).
        for (i, inst) in program.insts.iter().enumerate() {
            for r in inst_regs(inst) {
                assert!(
                    (r as usize) < crate::ir::NUM_REGS,
                    "inst {i}: register x{r} out of range"
                );
            }
        }
        // Pass 1: block leaders.
        let mut leader = vec![false; n];
        if n > 0 {
            leader[0] = true;
        }
        for (i, inst) in program.insts.iter().enumerate() {
            match *inst {
                Inst::Branch { target, .. }
                | Inst::Jump { target }
                | Inst::BranchMemoHit { target } => {
                    if target < n {
                        leader[target] = true;
                    }
                    if i + 1 < n {
                        leader[i + 1] = true;
                    }
                }
                // Region markers are zero-cost and do not transfer
                // control, so they stay inside blocks (splitting on
                // them would shrink blocks below the batching
                // break-even in marker-dense memoized code).
                Inst::Halt if i + 1 < n => {
                    leader[i + 1] = true;
                }
                _ => {}
            }
        }
        // Pass 2: blocks and the pc → block map.
        let mut blocks = Vec::new();
        let mut block_of = vec![0u32; n];
        let mut start = 0usize;
        while start < n {
            let mut end = start + 1;
            while end < n && !leader[end] {
                end += 1;
            }
            let mut counts = BlockCounts::default();
            for inst in &program.insts[start..end] {
                counts.add(inst);
            }
            let idx = blocks.len() as u32;
            for slot in &mut block_of[start..end] {
                *slot = idx;
            }
            blocks.push(Block {
                start: start as u32,
                end: end as u32,
                counts,
            });
            start = end;
        }
        Self {
            insts: program.insts.clone(),
            blocks,
            block_of,
            latency: *latency,
        }
    }

    /// The latency model this program is lowered against (a prepared
    /// run must use a simulator configured with an equal model).
    pub fn latency(&self) -> &LatencyModel {
        &self.latency
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Number of basic blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The block a fused chain continues into after `blk`, under static
    /// prediction, and whether that edge is the terminator's taken edge;
    /// `None` if the chain must stop there. This is the one place the
    /// fused direction of an edge is decided; the threaded lowering
    /// reads it back from the chain.
    ///
    /// - unconditional jump → the target block, taken (stop if the
    ///   target is out of range — the runtime reports `PcOutOfRange`);
    /// - conditional branch → the statically predicted direction: a
    ///   backward target (`target <= pc` — a loop back-edge) is
    ///   predicted **taken** and the chain follows it; anything else is
    ///   predicted not-taken and the chain falls through;
    /// - `branch_memo_hit` → predicted **hit** (taken), following the
    ///   in-range target; an out-of-range target is predicted not-hit
    ///   and the chain falls through;
    /// - plain fall-through into the next leader → the next block;
    /// - `halt` (or falling off the end of the program) → stop.
    fn fused_successor(&self, blk: &Block) -> Option<(usize, bool)> {
        let n = self.insts.len();
        let last = blk.end as usize - 1;
        let taken = |target: usize| (target < n).then(|| (self.block_of[target] as usize, true));
        let fallthrough = || {
            let end = blk.end as usize;
            (end < n).then(|| (self.block_of[end] as usize, false))
        };
        match self.insts[last] {
            Inst::Jump { target } => taken(target),
            Inst::Branch { target, .. } if target <= last => taken(target),
            Inst::BranchMemoHit { target } => taken(target).or_else(fallthrough),
            Inst::Halt => None,
            _ => fallthrough(),
        }
    }

    /// Build one [`Superblock`] per basic block: the straight-line
    /// chain of blocks execution follows from that leader under static
    /// branch prediction (see `fused_successor` for the edge
    /// rules). Revisits are allowed — a tiny loop's back-edge is fused
    /// over and over, unrolling many iterations into one superblock —
    /// and chains terminate purely on the [`MAX_SUPERBLOCK_BLOCKS`] and
    /// [`MAX_SUPERBLOCK_OPS`] caps (or a `halt` / chain-ending edge).
    ///
    /// ```
    /// use axmemo_sim::pipeline::LatencyModel;
    /// use axmemo_sim::ir::{Cond, IAluOp, Operand};
    /// use axmemo_sim::{DecodedProgram, ProgramBuilder};
    ///
    /// let mut b = ProgramBuilder::new();
    /// b.movi(1, 0).movi(2, 100);
    /// let top = b.label("top");
    /// b.bind(top);
    /// b.alu(IAluOp::Add, 1, 1, Operand::Imm(1));
    /// b.branch(Cond::LtS, 1, Operand::Reg(2), top);
    /// b.halt();
    /// let program = b.build().unwrap();
    ///
    /// let decoded = DecodedProgram::compile(&program, &LatencyModel::default());
    /// let chains = decoded.superblocks();
    /// // One superblock per basic-block leader…
    /// assert_eq!(chains.len(), decoded.block_count());
    /// // …and the loop body's chain fuses its own backward edge many
    /// // times over, unrolling iterations of the two-instruction body
    /// // into a single superblock.
    /// let body = chains.iter().find(|sb| sb.entry_pc() == 2).unwrap();
    /// assert!(body.len() > 8);
    /// ```
    pub fn superblocks(&self) -> Vec<Superblock> {
        (0..self.blocks.len())
            .map(|head| {
                let mut blocks = Vec::new();
                let mut ops = 0usize;
                let mut cur = head;
                loop {
                    let blk = &self.blocks[cur];
                    let len = (blk.end - blk.start) as usize;
                    // The head block is always included, even if it
                    // alone exceeds the op cap — it cannot be split.
                    if !blocks.is_empty()
                        && (blocks.len() >= MAX_SUPERBLOCK_BLOCKS || ops + len > MAX_SUPERBLOCK_OPS)
                    {
                        break;
                    }
                    let next = self.fused_successor(blk);
                    blocks.push((cur as u32, next.is_some_and(|(_, taken)| taken)));
                    ops += len;
                    match next {
                        Some((next, _)) => cur = next,
                        None => break,
                    }
                }
                Superblock {
                    blocks,
                    entry_pc: self.blocks[head].start,
                }
            })
            .collect()
    }
}

/// Fusion cap: a superblock chains at most this many basic blocks.
/// Together with [`MAX_SUPERBLOCK_OPS`] this bounds unrolling — chains
/// may revisit blocks (loop back-edges fuse into straight-line unrolled
/// iterations), so the caps are the only termination condition.
pub const MAX_SUPERBLOCK_BLOCKS: usize = 32;

/// Fusion cap: a superblock carries at most this many source
/// instructions (region markers included), except that a single head
/// block larger than the cap still forms a one-block superblock.
pub const MAX_SUPERBLOCK_OPS: usize = 256;

/// A straight-line chain of basic blocks fused under static branch
/// prediction, built by [`DecodedProgram::superblocks`]. The threaded
/// tier lowers each superblock into a flat run of fused ops executed
/// with one dispatch per superblock; conditional edges inside the chain
/// become side exits that fall back to the outer loop when the runtime
/// direction disagrees with the prediction.
#[derive(Debug, Clone)]
pub struct Superblock {
    /// `(index into DecodedProgram::blocks, taken)`, in execution order.
    /// Repeats are expected (unrolled loop iterations). `taken` records
    /// whether the block's fused successor is its terminator's taken
    /// edge; the lowering fuses that direction unless the block is last.
    blocks: Vec<(u32, bool)>,
    /// The leader pc of the head block — the only valid entry point.
    entry_pc: u32,
}

impl Superblock {
    /// The leader pc of the head block (the chain's only entry point).
    pub fn entry_pc(&self) -> usize {
        self.entry_pc as usize
    }

    /// Number of chained basic blocks (repeats counted).
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the chain is empty (never true for built superblocks).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The chained `(block index, taken)` pairs, in execution order.
    pub(crate) fn chain(&self) -> &[(u32, bool)] {
        &self.blocks
    }
}

/// Every register an instruction names (for compile-time validation).
/// Register 0 — always valid — pads unused slots.
fn inst_regs(inst: &Inst) -> impl Iterator<Item = u8> {
    use crate::ir::Operand;
    let op_reg = |o: Operand| match o {
        Operand::Reg(r) => r,
        Operand::Imm(_) => 0,
    };
    let rs: [u8; 3] = match *inst {
        Inst::IAlu { rd, ra, rb, .. } => [rd, ra, op_reg(rb)],
        Inst::FBin { rd, ra, rb, .. } => [rd, ra, rb],
        Inst::FUn { rd, ra, .. } => [rd, ra, 0],
        Inst::Ld { rd, base, .. } => [rd, base, 0],
        Inst::St { rs, base, .. } => [rs, base, 0],
        Inst::MovImm { rd, .. } => [rd, 0, 0],
        Inst::Mov { rd, ra } => [rd, ra, 0],
        Inst::Branch { ra, rb, .. } => [ra, op_reg(rb), 0],
        Inst::MemoLdCrc { rd, base, .. } => [rd, base, 0],
        Inst::MemoRegCrc { src, .. } => [src, 0, 0],
        Inst::MemoLookup { rd, .. } => [rd, 0, 0],
        Inst::MemoUpdate { src, .. } => [src, 0, 0],
        Inst::Jump { .. }
        | Inst::BranchMemoHit { .. }
        | Inst::MemoInvalidate { .. }
        | Inst::RegionBegin { .. }
        | Inst::RegionEnd { .. }
        | Inst::Halt => [0, 0, 0],
    };
    rs.into_iter()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::ir::{Cond, Operand};
    use crate::threaded::{FusedOp, ThreadedProgram};

    /// The chain's block indices, in execution order.
    fn blocks_of(sb: &Superblock) -> Vec<u32> {
        sb.chain().iter().map(|&(b, _)| b).collect()
    }

    /// The flat fused-op array `p` lowers to (the entry superblock's ops
    /// come first).
    fn lowered(p: &Program) -> Vec<FusedOp> {
        ThreadedProgram::compile(&DecodedProgram::compile(p, &LatencyModel::default())).ops
    }

    fn looped_program() -> Program {
        let mut b = ProgramBuilder::new();
        b.movi(1, 0).movi(2, 100);
        let top = b.label("top");
        b.bind(top);
        b.alu(IAluOp::Add, 1, 1, Operand::Imm(1));
        b.branch(Cond::LtS, 1, Operand::Reg(2), top);
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn blocks_partition_the_program() {
        let p = looped_program();
        let d = DecodedProgram::compile(&p, &LatencyModel::default());
        assert_eq!(d.len(), p.len());
        assert_eq!(d.block_of.len(), p.len());
        // Blocks tile [0, n) exactly, in order.
        let mut expect = 0u32;
        for b in &d.blocks {
            assert_eq!(b.start, expect);
            assert!(b.end > b.start);
            expect = b.end;
        }
        assert_eq!(expect as usize, p.len());
        // Every branch target is a block leader.
        for inst in &p.insts {
            if let Inst::Branch { target, .. } = *inst {
                let blk = d.blocks[d.block_of[target] as usize];
                assert_eq!(blk.start as usize, target);
            }
        }
    }

    #[test]
    fn block_counts_match_whole_program_totals() {
        let p = looped_program();
        let d = DecodedProgram::compile(&p, &LatencyModel::default());
        let total: u64 = d
            .blocks
            .iter()
            .map(|b| {
                let c = b.counts;
                c.ialu + c.fbin + c.fun + c.load + c.store + c.mov + c.branch + c.jump + c.memo
            })
            .sum();
        // movi ×2 + add + branch (halt carries no class).
        assert_eq!(total, 4);
    }

    #[test]
    #[should_panic(expected = "register x40 out of range")]
    fn out_of_range_register_is_rejected_at_decode() {
        let p = Program {
            insts: vec![Inst::Mov { rd: 40, ra: 1 }, Inst::Halt],
        };
        DecodedProgram::compile(&p, &LatencyModel::default());
    }

    #[test]
    fn out_of_range_target_is_preserved() {
        let p = Program {
            insts: vec![Inst::Jump { target: 5 }, Inst::Halt],
        };
        assert!(matches!(lowered(&p)[0], FusedOp::JumpExit { target: 5 }));
    }

    #[test]
    fn superblock_chain_unrolls_backward_edges_within_caps() {
        let p = looped_program();
        let d = DecodedProgram::compile(&p, &LatencyModel::default());
        let chains = d.superblocks();
        assert_eq!(chains.len(), d.block_count());
        // The loop body ([2,4): add + blt) fuses its own back-edge up
        // to the block cap; the entry block fuses into it too.
        let body = chains.iter().find(|sb| sb.entry_pc() == 2).unwrap();
        assert_eq!(body.len(), MAX_SUPERBLOCK_BLOCKS);
        assert!(blocks_of(body).iter().all(|&b| b == 1));
        // Every back-edge is the taken edge of its branch.
        assert!(body.chain().iter().all(|&(_, taken)| taken));
        let entry = chains.iter().find(|sb| sb.entry_pc() == 0).unwrap();
        assert_eq!(entry.len(), MAX_SUPERBLOCK_BLOCKS);
        assert_eq!(blocks_of(entry)[0], 0);
        assert!(blocks_of(entry)[1..].iter().all(|&b| b == 1));
        // The halt block chains nothing.
        let tail = chains.iter().find(|sb| sb.entry_pc() == 4).unwrap();
        assert_eq!(tail.len(), 1);
    }

    #[test]
    fn forward_branches_are_predicted_not_taken() {
        // if (r1 < r2) { r3 += 1 } ; r4 += 1 ; halt
        let mut b = ProgramBuilder::new();
        let skip = b.label("skip");
        b.branch(Cond::GeS, 1, Operand::Reg(2), skip);
        b.alu(IAluOp::Add, 3, 3, Operand::Imm(1));
        b.bind(skip);
        b.alu(IAluOp::Add, 4, 4, Operand::Imm(1));
        b.halt();
        let p = b.build().unwrap();
        let d = DecodedProgram::compile(&p, &LatencyModel::default());
        let chains = d.superblocks();
        // The head chain falls through the forward branch and runs to
        // the halt: all three blocks fused, no revisits.
        let head = chains.iter().find(|sb| sb.entry_pc() == 0).unwrap();
        assert_eq!(head.len(), 3);
        let mut seen = blocks_of(head);
        seen.dedup();
        assert_eq!(seen.len(), 3);
        assert!(head.chain().iter().all(|&(_, taken)| !taken));
    }

    #[test]
    fn op_cap_bounds_unrolling_of_wide_loops() {
        // A loop body much wider than MAX_SUPERBLOCK_OPS still forms a
        // (one-block) superblock; a moderately wide one unrolls only
        // until the op cap.
        let mut b = ProgramBuilder::new();
        let top = b.label("top");
        b.bind(top);
        for _ in 0..100 {
            b.alu(IAluOp::Add, 1, 1, Operand::Imm(1));
        }
        b.branch(Cond::LtS, 1, Operand::Reg(2), top);
        b.halt();
        let p = b.build().unwrap();
        let d = DecodedProgram::compile(&p, &LatencyModel::default());
        let chains = d.superblocks();
        let body = chains.iter().find(|sb| sb.entry_pc() == 0).unwrap();
        // 101 ops per iteration: two fit under 256, a third does not.
        assert_eq!(body.len(), 2);
    }

    #[test]
    fn immediates_are_preresolved() {
        let p = Program {
            insts: vec![
                Inst::IAlu {
                    op: IAluOp::Add,
                    rd: 1,
                    ra: 1,
                    rb: Operand::Imm(-2),
                },
                Inst::Halt,
            ],
        };
        assert!(matches!(
            lowered(&p)[0],
            FusedOp::AluRI {
                imm,
                lat: 1,
                ..
            } if imm == (-2i64) as u64
        ));
    }
}
