//! Threaded-code execution tier: superblock fusion over a program's
//! block CFG.
//!
//! [`ThreadedProgram::compile`] takes the **superblocks** of a
//! [`DecodedProgram`] — straight-line chains of basic blocks fused
//! across unconditional jumps and statically predicted conditional
//! edges (see [`DecodedProgram::superblocks`]) — and lowers each chain
//! straight from its [`Inst`]s into a dense run of fused ops. The hot
//! loop then pays one outer dispatch per *superblock* instead of one
//! block lookup per basic block and one [`Inst`] match per instruction:
//!
//! - loop back-edges are fused repeatedly, so a tiny hot loop executes
//!   as dozens of unrolled iterations of straight-line fused ops;
//! - each fused op bakes its functional-unit class into the variant, so
//!   the scoreboard call is a monomorphic specialized helper
//!   (`Pipeline::issue_int` and friends) instead of the generic
//!   `Pipeline::issue`;
//! - branches carry their statically predicted direction; when the
//!   runtime direction disagrees, a **side exit** applies the precise
//!   cumulative block counts for the executed chain prefix and falls
//!   back to the outer loop at the architecturally correct pc.
//!
//! Exactness is by construction, not by sampling: every op performs the
//! same error check, pipeline call, and telemetry call in the same
//! order as the legacy loop ([`Simulator::run_reference`]), and the
//! same watchdog guard unless its superblock was shown at entry not to
//! reach the instruction budget, so `RunStats`, machine state, error
//! values, fault-injector draws, and telemetry event streams are
//! bit-identical across tiers (pinned by
//! `tests/decode_equivalence.rs`). Runs of consecutive region
//! markers compress into one guard op — valid because the watchdog
//! state cannot change between two zero-cost markers, so one check is
//! equivalent to N.

use crate::cpu::{
    charge_mem_levels, cond_taken, fbin, funop, ialu, ialu_simple, Machine, SimError, Simulator,
};
use crate::decoded::{Block, BlockCounts, DecodedProgram};
use crate::ir::{Cond, FBinOp, FUnOp, IAluOp, Inst, MemWidth, Operand};
use crate::memo::{CrcInput, MemoTiming};
use crate::pipeline::{FuClass, LatencyModel, Pipeline};
use crate::predictor::BranchPredictor;
use crate::stats::{InstClassCounts, RunStats};
use axmemo_core::ids::LutId;
use axmemo_telemetry::PhaseId;

/// One fused op. The functional-unit class is the variant — the
/// interpreter's match arm calls the corresponding monomorphic
/// `Pipeline` helper directly, with no per-op `FuClass` dispatch.
/// Branch-like variants carry their side-exit binding: `exit_pc` (the
/// architectural pc to resume at) and `exit` (index into the program's
/// cumulative exit-count table for the chain prefix ending at this op's
/// block).
#[derive(Debug, Clone, Copy)]
pub(crate) enum FusedOp {
    /// Simple ALU op (infallible subset; `IntAlu` unit).
    AluRR {
        op: IAluOp,
        rd: u8,
        ra: u8,
        rb: u8,
        lat: u64,
    },
    /// Simple ALU op against an immediate.
    AluRI {
        op: IAluOp,
        rd: u8,
        ra: u8,
        imm: u64,
        lat: u64,
    },
    /// Integer multiply (`IntMul` unit).
    MulRR { rd: u8, ra: u8, rb: u8, lat: u64 },
    /// Integer multiply against an immediate.
    MulRI { rd: u8, ra: u8, imm: u64, lat: u64 },
    /// Integer divide/remainder (`IntDiv` unit; `pc` for `DivByZero`).
    DivRR {
        op: IAluOp,
        rd: u8,
        ra: u8,
        rb: u8,
        lat: u64,
        pc: u32,
    },
    /// Integer divide/remainder against an immediate.
    DivRI {
        op: IAluOp,
        rd: u8,
        ra: u8,
        imm: u64,
        lat: u64,
        pc: u32,
    },
    /// Pipelined f32 binary op (`Fp` unit).
    FBinP {
        op: FBinOp,
        rd: u8,
        ra: u8,
        rb: u8,
        lat: u64,
    },
    /// f32 divide (`FpLong`: unpipelined use of the FP unit).
    FBinLong { rd: u8, ra: u8, rb: u8, lat: u64 },
    /// Pipelined f32 unary op.
    FUnP { op: FUnOp, rd: u8, ra: u8, lat: u64 },
    /// Unpipelined f32 unary op (sqrt / libm pseudo-ops).
    FUnLong { op: FUnOp, rd: u8, ra: u8, lat: u64 },
    /// Load (`LdSt` unit; latency from the cache model at run time).
    Ld {
        width: MemWidth,
        rd: u8,
        base: u8,
        offset: i32,
    },
    /// Store.
    St {
        width: MemWidth,
        rs: u8,
        base: u8,
        offset: i32,
    },
    /// Load immediate.
    MovImm { rd: u8, imm: u64 },
    /// Register move.
    Mov { rd: u8, ra: u8 },
    /// Conditional branch, register-register form. `expect_taken` is
    /// the fused direction; disagreement side-exits to `exit_pc`.
    BranchRR {
        cond: Cond,
        ra: u8,
        rb: u8,
        pc: u32,
        exit_pc: u32,
        exit: u32,
        expect_taken: bool,
    },
    /// Conditional branch against an immediate.
    BranchRI {
        cond: Cond,
        ra: u8,
        imm: u64,
        pc: u32,
        exit_pc: u32,
        exit: u32,
        expect_taken: bool,
    },
    /// Unconditional jump whose target is the next block in the chain:
    /// timing only (issue + bubble), no control transfer.
    JumpFused,
    /// Unconditional jump ending the chain (out-of-range target or
    /// fusion cap): exits to `target` with the chain's total counts.
    JumpExit { target: u32 },
    /// `branch_memo_hit` with fused expectation on the condition code.
    MemoBranchHit {
        exit_pc: u32,
        exit: u32,
        expect_hit: bool,
    },
    /// `ld_crc` (timing in [`crate::memo`], as for every memo op).
    MemoLdCrc {
        width: MemWidth,
        rd: u8,
        base: u8,
        offset: i32,
        lut: LutId,
        trunc: u8,
        pc: u32,
    },
    /// `reg_crc`.
    MemoRegCrc {
        width: MemWidth,
        src: u8,
        lut: LutId,
        trunc: u8,
        pc: u32,
    },
    /// `lookup`.
    MemoLookup { rd: u8, lut: LutId, pc: u32 },
    /// `update`.
    MemoUpdate { src: u8, lut: LutId, pc: u32 },
    /// `invalidate`.
    MemoInvalidate { lut: LutId, pc: u32 },
    /// Watchdog check standing in for a maximal run of consecutive
    /// region markers (not a dynamic instruction).
    Guard,
    /// Stop execution, applying the chain's total counts.
    Halt,
}

/// Per-superblock metadata.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SbMeta {
    /// Fused ops `[ops_start, ops_end)` of the flat op array.
    pub(crate) ops_start: u32,
    pub(crate) ops_end: u32,
    /// The leader pc of the head block (entry invariant).
    pub(crate) entry_pc: u32,
    /// Architectural pc after falling off the end of the chain (the
    /// last block's `end`).
    pub(crate) fall_pc: u32,
    /// Exit-count index holding the whole chain's cumulative counts.
    pub(crate) total_exit: u32,
}

/// A program lowered to the threaded-dispatch form: fused superblock
/// chains over a [`DecodedProgram`].
///
/// Like its block CFG, a threaded program depends only on the
/// instruction sequence and the [`LatencyModel`] — share one behind an
/// `Arc` across simulators, sweep cells, and threads, and run it via
/// `Simulator::run_prepared_threaded`.
///
/// ```
/// use axmemo_sim::pipeline::LatencyModel;
/// use axmemo_sim::{DecodedProgram, ProgramBuilder, ThreadedProgram};
///
/// let mut b = ProgramBuilder::new();
/// b.movi(1, 41);
/// b.alu(axmemo_sim::ir::IAluOp::Add, 1, 1, axmemo_sim::ir::Operand::Imm(1));
/// b.halt();
/// let program = b.build().unwrap();
///
/// let decoded = DecodedProgram::compile(&program, &LatencyModel::default());
/// let threaded = ThreadedProgram::compile(&decoded);
/// // One superblock per basic block of the CFG.
/// assert_eq!(threaded.superblock_count(), decoded.block_count());
/// assert!(threaded.op_count() >= decoded.len());
/// ```
#[derive(Debug, Clone)]
pub struct ThreadedProgram {
    /// Flat fused-op array; superblocks are contiguous runs.
    pub(crate) ops: Vec<FusedOp>,
    /// Per op, the pc of the instruction it stands for (a `Guard`'s
    /// first marker): where a watchdog trip before that op stops.
    pub(crate) op_pcs: Vec<u32>,
    /// One superblock per basic block, in block order (so the CFG's
    /// `block_of` table maps a leader pc straight to its superblock).
    pub(crate) superblocks: Vec<SbMeta>,
    /// Containing block — and therefore superblock — of every pc.
    pub(crate) block_of: Vec<u32>,
    /// Cumulative [`BlockCounts`] per chain position, per superblock:
    /// a side exit at chain position `j` applies entry `base + j` in
    /// one shot.
    pub(crate) exit_counts: Vec<BlockCounts>,
    /// Per-superblock pc ranges for profiler attribution:
    /// `(entry_pc, max end over the chain)`.
    pub(crate) ranges: Vec<(u32, u32)>,
    /// The latency model the program was lowered against.
    latency: LatencyModel,
}

impl ThreadedProgram {
    /// Lower a program's block CFG into fused superblocks.
    pub fn compile(dp: &DecodedProgram) -> Self {
        let chains = dp.superblocks();
        let mut ops = Vec::new();
        let mut op_pcs = Vec::new();
        let mut superblocks = Vec::with_capacity(chains.len());
        let mut exit_counts = Vec::with_capacity(chains.len());
        let mut ranges = Vec::with_capacity(chains.len());
        for sb in &chains {
            let chain = sb.chain();
            let ops_start = ops.len() as u32;
            let base_exit = exit_counts.len() as u32;
            let mut cum = BlockCounts::default();
            let mut max_end = 0u32;
            for (j, &(b, taken)) in chain.iter().enumerate() {
                let blk = &dp.blocks[b as usize];
                cum.absorb(&blk.counts);
                exit_counts.push(cum);
                max_end = max_end.max(blk.end);
                let last_in_chain = j + 1 == chain.len();
                let exit = base_exit + j as u32;
                let fused_taken = taken && !last_in_chain;
                lower_block(dp, blk, exit, fused_taken, &mut ops, &mut op_pcs);
            }
            let (last, _) = *chain.last().expect("chains are non-empty");
            let last_blk = &dp.blocks[last as usize];
            superblocks.push(SbMeta {
                ops_start,
                ops_end: ops.len() as u32,
                entry_pc: sb.entry_pc() as u32,
                fall_pc: last_blk.end,
                total_exit: base_exit + (chain.len() - 1) as u32,
            });
            ranges.push((sb.entry_pc() as u32, max_end));
        }
        Self {
            ops,
            op_pcs,
            superblocks,
            block_of: dp.block_of.clone(),
            exit_counts,
            ranges,
            latency: *dp.latency(),
        }
    }

    /// The latency model this program was lowered against (a prepared
    /// run must use a simulator configured with an equal model).
    pub fn latency(&self) -> &LatencyModel {
        &self.latency
    }

    /// Number of superblocks (always equal to the CFG's
    /// basic-block count: one chain per leader).
    pub fn superblock_count(&self) -> usize {
        self.superblocks.len()
    }

    /// Total fused ops across all superblocks (unrolling makes this
    /// larger than the static instruction count).
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }
}

/// Append one basic block's fused ops, lowered straight from its
/// instructions and bound to exit-count slot `exit`, and each op's pc
/// to `pcs`. `fused_taken` says whether the chain continues along the
/// terminator's taken edge (as decided by
/// `DecodedProgram::fused_successor`): a branch then expects taken and
/// side-exits to the fall-through, a jump reduces to timing; otherwise
/// a branch expects not-taken and side-exits to its target, and a jump
/// ends the chain.
fn lower_block(
    dp: &DecodedProgram,
    blk: &Block,
    exit: u32,
    fused_taken: bool,
    ops: &mut Vec<FusedOp>,
    pcs: &mut Vec<u32>,
) {
    let latency = dp.latency();
    let start = blk.start as usize;
    let end = blk.end as usize;
    // Side-exit pc of the block's conditional terminator.
    let side_exit = |target: usize| {
        if fused_taken {
            end as u32
        } else {
            target as u32
        }
    };
    let mut in_region_run = false;
    for pc in start..end {
        let inst = dp.insts[pc];
        if matches!(inst, Inst::RegionBegin { .. } | Inst::RegionEnd { .. }) {
            if !in_region_run {
                ops.push(FusedOp::Guard);
                pcs.push(pc as u32);
                in_region_run = true;
            }
            continue;
        }
        in_region_run = false;
        let pc32 = pc as u32;
        let fused = match inst {
            Inst::IAlu { op, rd, ra, rb } => {
                let (lat, fu) = latency.ialu(op);
                match (fu, rb) {
                    (FuClass::IntMul, Operand::Reg(rb)) => FusedOp::MulRR { rd, ra, rb, lat },
                    (FuClass::IntMul, Operand::Imm(i)) => FusedOp::MulRI {
                        rd,
                        ra,
                        imm: i as u64,
                        lat,
                    },
                    (FuClass::IntDiv, Operand::Reg(rb)) => FusedOp::DivRR {
                        op,
                        rd,
                        ra,
                        rb,
                        lat,
                        pc: pc32,
                    },
                    (FuClass::IntDiv, Operand::Imm(i)) => FusedOp::DivRI {
                        op,
                        rd,
                        ra,
                        imm: i as u64,
                        lat,
                        pc: pc32,
                    },
                    (_, Operand::Reg(rb)) => FusedOp::AluRR {
                        op,
                        rd,
                        ra,
                        rb,
                        lat,
                    },
                    (_, Operand::Imm(i)) => FusedOp::AluRI {
                        op,
                        rd,
                        ra,
                        imm: i as u64,
                        lat,
                    },
                }
            }
            Inst::FBin { op, rd, ra, rb } => match latency.fbin(op) {
                (lat, FuClass::FpLong) => FusedOp::FBinLong { rd, ra, rb, lat },
                (lat, _) => FusedOp::FBinP {
                    op,
                    rd,
                    ra,
                    rb,
                    lat,
                },
            },
            Inst::FUn { op, rd, ra } => match latency.fun(op) {
                (lat, FuClass::FpLong) => FusedOp::FUnLong { op, rd, ra, lat },
                (lat, _) => FusedOp::FUnP { op, rd, ra, lat },
            },
            Inst::Ld {
                width,
                rd,
                base,
                offset,
            } => FusedOp::Ld {
                width,
                rd,
                base,
                offset,
            },
            Inst::St {
                width,
                rs,
                base,
                offset,
            } => FusedOp::St {
                width,
                rs,
                base,
                offset,
            },
            Inst::MovImm { rd, imm } => FusedOp::MovImm { rd, imm },
            Inst::Mov { rd, ra } => FusedOp::Mov { rd, ra },
            Inst::Branch {
                cond,
                ra,
                rb,
                target,
            } => {
                debug_assert_eq!(pc, end - 1, "branch must terminate its block");
                let (pc, exit_pc, expect_taken) = (pc32, side_exit(target), fused_taken);
                match rb {
                    Operand::Reg(rb) => FusedOp::BranchRR {
                        cond,
                        ra,
                        rb,
                        pc,
                        exit_pc,
                        exit,
                        expect_taken,
                    },
                    Operand::Imm(i) => FusedOp::BranchRI {
                        cond,
                        ra,
                        imm: i as u64,
                        pc,
                        exit_pc,
                        exit,
                        expect_taken,
                    },
                }
            }
            // The chain's next block is the jump target by construction:
            // the jump reduces to pure timing.
            Inst::Jump { .. } if fused_taken => FusedOp::JumpFused,
            Inst::Jump { target } => FusedOp::JumpExit {
                target: target as u32,
            },
            Inst::BranchMemoHit { target } => FusedOp::MemoBranchHit {
                exit_pc: side_exit(target),
                exit,
                expect_hit: fused_taken,
            },
            Inst::MemoLdCrc {
                width,
                rd,
                base,
                offset,
                lut,
                trunc,
            } => FusedOp::MemoLdCrc {
                width,
                rd,
                base,
                offset,
                lut,
                trunc,
                pc: pc32,
            },
            Inst::MemoRegCrc {
                width,
                src,
                lut,
                trunc,
            } => FusedOp::MemoRegCrc {
                width,
                src,
                lut,
                trunc,
                pc: pc32,
            },
            Inst::MemoLookup { rd, lut } => FusedOp::MemoLookup { rd, lut, pc: pc32 },
            Inst::MemoUpdate { src, lut } => FusedOp::MemoUpdate { src, lut, pc: pc32 },
            Inst::MemoInvalidate { lut } => FusedOp::MemoInvalidate { lut, pc: pc32 },
            Inst::Halt => FusedOp::Halt,
            Inst::RegionBegin { .. } | Inst::RegionEnd { .. } => unreachable!("handled above"),
        };
        ops.push(fused);
        pcs.push(pc32);
    }
}

/// Per-run interpreter state that the ops of every superblock update.
struct RunState {
    pipe: Pipeline,
    predictor: Option<BranchPredictor>,
    stats: RunStats,
    memo: MemoTiming,
    /// Dynamic instructions retired so far.
    insts: u64,
}

/// Where a superblock's op run left off.
struct BlockEnd {
    /// Exit-count row for the chain prefix that ran.
    exit: u32,
    /// Architectural pc to continue at; `None` after `halt`.
    next_pc: Option<usize>,
}

impl Simulator {
    /// The threaded-dispatch interpreter: executes fused superblocks.
    /// Every observable — `RunStats`, error values, telemetry event
    /// streams, fault-injector draws — matches `run_reference` exactly;
    /// equivalence tests pin this.
    pub(crate) fn run_threaded(
        &mut self,
        tp: &ThreadedProgram,
        machine: &mut Machine,
    ) -> Result<RunStats, SimError> {
        let mut st = RunState {
            pipe: Pipeline::new(),
            predictor: self.config.predictor.map(BranchPredictor::new),
            stats: RunStats::default(),
            memo: MemoTiming::new(self.memo.as_ref()),
            insts: 0,
        };
        let mut classes = InstClassCounts::default();
        // Cache statistics accumulate across runs; snapshot for deltas.
        let l1d_before = self.cache.l1d_stats();
        let l2_before = self.cache.l2_stats();
        let max_insts = self.config.max_insts;
        let mut pc = 0usize;
        // Profiler plumbing: with profiling on, each superblock retire
        // attributes its cycle/instruction deltas to the superblock's pc
        // range and charges a `dispatch.threaded` leaf with whatever
        // share of those cycles the LUT leaves did not already claim —
        // so the Dispatch phase's exclusive time shrinks to the unfused
        // residue (outer-loop transfers, side exits). A lookup latency
        // can outlast its superblock; the excess is `overcharged`, and
        // the next superblock's charge pays it back, so the leaves sum
        // to the pipeline's cycles exactly.
        let prof_on = self.telemetry.profiler().is_enabled();
        let mut overcharged = 0u64;
        if prof_on {
            self.telemetry.profiler_mut().begin_blocks(&tp.ranges);
        }
        self.telemetry.profiler_mut().enter(PhaseId::Dispatch);

        loop {
            let Some(&sb_idx) = tp.block_of.get(pc) else {
                return Err(SimError::PcOutOfRange { pc });
            };
            let sb = &tp.superblocks[sb_idx as usize];
            debug_assert_eq!(
                sb.entry_pc as usize, pc,
                "control transfer into the middle of a superblock"
            );
            let (sb_cycle0, sb_inst0, sb_charged0) = if prof_on {
                (
                    st.pipe.now(),
                    st.insts,
                    self.telemetry.profiler().open_charged(),
                )
            } else {
                (0, 0, 0)
            };
            // The instruction count rises by at most one per op, so a
            // superblock whose op count fits in what is left of the
            // instruction budget cannot trip the watchdog: its ops skip
            // the per-op guard. Any other superblock checks before every
            // op, exactly as `run_reference` does before every instruction.
            let len = u64::from(sb.ops_end - sb.ops_start);
            let end = if st.insts + len <= max_insts {
                self.run_superblock::<false>(&mut st, tp, sb, machine)?
            } else {
                self.run_superblock::<true>(&mut st, tp, sb, machine)?
            };
            st.stats
                .apply_block(&mut classes, &tp.exit_counts[end.exit as usize]);
            if prof_on {
                let cyc = st.pipe.now().saturating_sub(sb_cycle0);
                let prof = self.telemetry.profiler_mut();
                prof.block_retire(sb_idx as usize, cyc, st.insts - sb_inst0);
                let charged = prof.open_charged() - sb_charged0 + overcharged;
                prof.leaf(PhaseId::DispatchThreaded, cyc.saturating_sub(charged));
                overcharged = charged.saturating_sub(cyc);
            }
            let Some(next_pc) = end.next_pc else {
                break;
            };
            pc = next_pc;
        }

        let mut stats = st.stats;
        stats.dynamic_insts = st.insts;
        stats.energy.instructions = st.insts;
        stats.cycles = st.pipe.drain();
        self.telemetry.profiler_mut().exit_cycles(stats.cycles);
        if let Some(unit) = self.memo.as_ref() {
            stats.energy.quality_compares = unit.stats().sampled_misses;
        }
        let predictor_stats = st.predictor.as_ref().map(|bp| bp.stats());
        self.flush_run_telemetry(&stats, &classes, predictor_stats, l1d_before, l2_before);
        Ok(stats)
    }

    /// Executes the fused ops of superblock `sb` until it falls off its
    /// end, side-exits or halts. With `GUARD`, every op first checks the
    /// watchdog in the legacy loop's order, so trip points match bit for
    /// bit; without it the caller has shown that no op of `sb` can trip.
    #[inline(always)]
    fn run_superblock<const GUARD: bool>(
        &mut self,
        st: &mut RunState,
        tp: &ThreadedProgram,
        sb: &SbMeta,
        machine: &mut Machine,
    ) -> Result<BlockEnd, SimError> {
        let max_insts = self.config.max_insts;
        let taken_bubble = self.config.latency.taken_branch_bubble;
        let RunState {
            pipe,
            predictor,
            stats,
            memo,
            insts: dyn_insts,
        } = st;
        let ops = sb.ops_start as usize..sb.ops_end as usize;
        for (at, op) in tp.ops[ops.clone()].iter().enumerate() {
            if GUARD && *dyn_insts >= max_insts {
                return Err(SimError::InstLimit {
                    limit: max_insts,
                    pc: tp.op_pcs[ops.start + at],
                });
            }
            match *op {
                FusedOp::Guard => {
                    continue; // stands in for a run of region markers
                }
                FusedOp::Halt => {
                    *dyn_insts += 1;
                    return Ok(BlockEnd {
                        exit: sb.total_exit,
                        next_pc: None,
                    });
                }
                FusedOp::AluRR {
                    op,
                    rd,
                    ra,
                    rb,
                    lat,
                } => {
                    let v = ialu_simple(op, machine.reg(ra), machine.reg(rb));
                    machine.set_reg(rd, v);
                    let e = pipe.src_ready(ra).max(pipe.src_ready(rb));
                    pipe.issue_int(e, rd, lat);
                }
                FusedOp::AluRI {
                    op,
                    rd,
                    ra,
                    imm,
                    lat,
                } => {
                    let v = ialu_simple(op, machine.reg(ra), imm);
                    machine.set_reg(rd, v);
                    pipe.issue_int(pipe.src_ready(ra), rd, lat);
                }
                FusedOp::MulRR { rd, ra, rb, lat } => {
                    let v = machine.reg(ra).wrapping_mul(machine.reg(rb));
                    machine.set_reg(rd, v);
                    let e = pipe.src_ready(ra).max(pipe.src_ready(rb));
                    pipe.issue_mul(e, rd, lat);
                }
                FusedOp::MulRI { rd, ra, imm, lat } => {
                    let v = machine.reg(ra).wrapping_mul(imm);
                    machine.set_reg(rd, v);
                    pipe.issue_mul(pipe.src_ready(ra), rd, lat);
                }
                FusedOp::DivRR {
                    op,
                    rd,
                    ra,
                    rb,
                    lat,
                    pc: at,
                } => {
                    let a = machine.reg(ra);
                    let b = machine.reg(rb);
                    let v = ialu(op, a, b).ok_or(SimError::DivByZero { pc: at as usize })?;
                    machine.set_reg(rd, v);
                    let e = pipe.src_ready(ra).max(pipe.src_ready(rb));
                    pipe.issue_div(e, rd, lat);
                }
                FusedOp::DivRI {
                    op,
                    rd,
                    ra,
                    imm,
                    lat,
                    pc: at,
                } => {
                    let a = machine.reg(ra);
                    let v = ialu(op, a, imm).ok_or(SimError::DivByZero { pc: at as usize })?;
                    machine.set_reg(rd, v);
                    pipe.issue_div(pipe.src_ready(ra), rd, lat);
                }
                FusedOp::FBinP {
                    op,
                    rd,
                    ra,
                    rb,
                    lat,
                } => {
                    let v = fbin(op, machine.reg_f32(ra), machine.reg_f32(rb));
                    machine.set_reg_f32(rd, v);
                    let e = pipe.src_ready(ra).max(pipe.src_ready(rb));
                    pipe.issue_fp(e, rd, lat);
                }
                FusedOp::FBinLong { rd, ra, rb, lat } => {
                    let v = machine.reg_f32(ra) / machine.reg_f32(rb);
                    machine.set_reg_f32(rd, v);
                    let e = pipe.src_ready(ra).max(pipe.src_ready(rb));
                    pipe.issue_fp_long(e, rd, lat);
                }
                FusedOp::FUnP { op, rd, ra, lat } => {
                    let v = funop(op, machine.reg(ra));
                    machine.set_reg(rd, v);
                    pipe.issue_fp(pipe.src_ready(ra), rd, lat);
                }
                FusedOp::FUnLong { op, rd, ra, lat } => {
                    let v = funop(op, machine.reg(ra));
                    machine.set_reg(rd, v);
                    pipe.issue_fp_long(pipe.src_ready(ra), rd, lat);
                }
                FusedOp::Ld {
                    width,
                    rd,
                    base,
                    offset,
                } => {
                    let addr = machine.reg(base).wrapping_add_signed(offset.into());
                    let v = machine.load(addr, width)?;
                    machine.set_reg(rd, v);
                    let (latency, served) = self.cache.access_served(addr);
                    charge_mem_levels(stats, served);
                    pipe.issue_ldst(pipe.src_ready(base), Some(rd), latency);
                }
                FusedOp::St {
                    width,
                    rs,
                    base,
                    offset,
                } => {
                    let addr = machine.reg(base).wrapping_add_signed(offset.into());
                    machine.store(addr, width, machine.reg(rs))?;
                    let (_, served) = self.cache.access_served(addr);
                    charge_mem_levels(stats, served);
                    let e = pipe.src_ready(rs).max(pipe.src_ready(base));
                    pipe.issue_ldst(e, None, 0);
                }
                FusedOp::MovImm { rd, imm } => {
                    machine.set_reg(rd, imm);
                    pipe.issue_int(0, rd, 1);
                }
                FusedOp::Mov { rd, ra } => {
                    machine.set_reg(rd, machine.reg(ra));
                    pipe.issue_int(pipe.src_ready(ra), rd, 1);
                }
                FusedOp::BranchRR {
                    cond,
                    ra,
                    rb,
                    pc: bpc,
                    exit_pc,
                    exit: ex,
                    expect_taken,
                } => {
                    let taken = cond_taken(cond, machine.reg(ra), machine.reg(rb));
                    let e = pipe.src_ready(ra).max(pipe.src_ready(rb));
                    pipe.issue_branch(e);
                    match predictor.as_mut() {
                        Some(bp) => {
                            let stall = bp.resolve(bpc as usize, taken);
                            if stall > 0 {
                                pipe.branch_bubble(stall);
                                stats.branch_bubbles += 1;
                            }
                        }
                        None if taken => {
                            pipe.branch_bubble(taken_bubble);
                            stats.branch_bubbles += 1;
                        }
                        None => {}
                    }
                    if taken != expect_taken {
                        *dyn_insts += 1;
                        return Ok(BlockEnd {
                            exit: ex,
                            next_pc: Some(exit_pc as usize),
                        });
                    }
                }
                FusedOp::BranchRI {
                    cond,
                    ra,
                    imm,
                    pc: bpc,
                    exit_pc,
                    exit: ex,
                    expect_taken,
                } => {
                    let taken = cond_taken(cond, machine.reg(ra), imm);
                    pipe.issue_branch(pipe.src_ready(ra));
                    match predictor.as_mut() {
                        Some(bp) => {
                            let stall = bp.resolve(bpc as usize, taken);
                            if stall > 0 {
                                pipe.branch_bubble(stall);
                                stats.branch_bubbles += 1;
                            }
                        }
                        None if taken => {
                            pipe.branch_bubble(taken_bubble);
                            stats.branch_bubbles += 1;
                        }
                        None => {}
                    }
                    if taken != expect_taken {
                        *dyn_insts += 1;
                        return Ok(BlockEnd {
                            exit: ex,
                            next_pc: Some(exit_pc as usize),
                        });
                    }
                }
                FusedOp::JumpFused => {
                    pipe.issue_branch(0);
                    pipe.branch_bubble(taken_bubble);
                    stats.branch_bubbles += 1;
                }
                FusedOp::JumpExit { target } => {
                    pipe.issue_branch(0);
                    pipe.branch_bubble(taken_bubble);
                    stats.branch_bubbles += 1;
                    *dyn_insts += 1;
                    return Ok(BlockEnd {
                        exit: sb.total_exit,
                        next_pc: Some(target as usize),
                    });
                }
                FusedOp::MemoBranchHit {
                    exit_pc,
                    exit: ex,
                    expect_hit,
                } => {
                    pipe.issue_branch(0);
                    if machine.memo_hit {
                        pipe.branch_bubble(taken_bubble);
                        stats.branch_bubbles += 1;
                    }
                    if machine.memo_hit != expect_hit {
                        *dyn_insts += 1;
                        return Ok(BlockEnd {
                            exit: ex,
                            next_pc: Some(exit_pc as usize),
                        });
                    }
                }
                FusedOp::MemoLdCrc {
                    width,
                    rd,
                    base,
                    offset,
                    lut,
                    trunc,
                    pc: at_pc,
                } => {
                    let at_pc = at_pc as usize;
                    // A missing unit faults before the load can.
                    self.memo
                        .as_ref()
                        .ok_or(SimError::NoMemoUnit { pc: at_pc })?;
                    let addr = machine.reg(base).wrapping_add_signed(offset.into());
                    let raw = machine.load(addr, width)?;
                    machine.set_reg(rd, raw);
                    let (latency, served) = self.cache.access_served(addr);
                    charge_mem_levels(stats, served);
                    let port = self.memo_port(pipe, stats, at_pc)?;
                    let input = CrcInput {
                        lut,
                        width,
                        raw,
                        trunc,
                    };
                    memo.ld_crc(port, base, rd, latency, input);
                }
                FusedOp::MemoRegCrc {
                    width,
                    src,
                    lut,
                    trunc,
                    pc: at_pc,
                } => {
                    let port = self.memo_port(pipe, stats, at_pc as usize)?;
                    let input = CrcInput {
                        lut,
                        width,
                        raw: machine.reg(src),
                        trunc,
                    };
                    memo.reg_crc(port, src, input);
                }
                FusedOp::MemoLookup { rd, lut, pc: at_pc } => {
                    let port = self.memo_port(pipe, stats, at_pc as usize)?;
                    memo.lookup(port, machine, rd, lut);
                }
                FusedOp::MemoUpdate {
                    src,
                    lut,
                    pc: at_pc,
                } => {
                    let data = machine.reg(src);
                    let port = self.memo_port(pipe, stats, at_pc as usize)?;
                    memo.update(port, src, lut, data);
                }
                FusedOp::MemoInvalidate { lut, pc: at_pc } => {
                    let port = self.memo_port(pipe, stats, at_pc as usize)?;
                    memo.invalidate(port, lut);
                }
            }
            *dyn_insts += 1;
        }
        Ok(BlockEnd {
            exit: sb.total_exit,
            next_pc: Some(sb.fall_pc as usize),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::cpu::SimConfig;
    use crate::ir::{Operand, Program};

    /// Run `p` on a fresh baseline simulator: on the legacy loop when
    /// `reference`, else on the threaded tier.
    fn run_tier(p: &Program, reference: bool) -> Result<(RunStats, [u64; 32]), SimError> {
        run_tier_with(SimConfig::baseline(), p, reference, 64 * 1024)
    }

    fn run_tier_with(
        cfg: SimConfig,
        p: &Program,
        reference: bool,
        mem: usize,
    ) -> Result<(RunStats, [u64; 32]), SimError> {
        let mut sim = Simulator::new(cfg).unwrap();
        let mut m = Machine::new(mem);
        let stats = if reference {
            sim.run_reference(p, &mut m, None)?
        } else {
            sim.run(p, &mut m)?
        };
        Ok((stats, m.regs))
    }

    fn assert_tiers_agree(p: &Program) {
        assert_eq!(run_tier(p, false), run_tier(p, true));
    }

    #[test]
    fn unrolled_loop_matches_reference() {
        let mut b = ProgramBuilder::new();
        b.movi(1, 0).movi(2, 1000);
        let top = b.label("top");
        b.bind(top);
        b.alu(IAluOp::Add, 1, 1, Operand::Imm(1));
        b.branch(Cond::LtS, 1, Operand::Reg(2), top);
        b.halt();
        assert_tiers_agree(&b.build().unwrap());
    }

    #[test]
    fn side_exit_on_forward_branch_taken() {
        // The forward branch is fused not-taken but IS taken on some
        // iterations: every taken instance side-exits mid-superblock.
        let mut b = ProgramBuilder::new();
        b.movi(1, 0).movi(2, 100).movi(3, 0);
        let top = b.label("top");
        let skip = b.label("skip");
        b.bind(top);
        b.alu(IAluOp::And, 4, 1, Operand::Imm(1));
        b.branch(Cond::Ne, 4, Operand::Imm(0), skip);
        b.alu(IAluOp::Add, 3, 3, Operand::Imm(7));
        b.bind(skip);
        b.alu(IAluOp::Add, 1, 1, Operand::Imm(1));
        b.branch(Cond::LtS, 1, Operand::Reg(2), top);
        b.halt();
        assert_tiers_agree(&b.build().unwrap());
    }

    #[test]
    fn loop_exit_side_exits_the_unrolled_chain() {
        // A backward branch fused taken exits the chain exactly once,
        // on the final iteration — the not-taken side exit.
        let mut b = ProgramBuilder::new();
        b.movi(1, 0).movi(2, 7); // 7 iterations: mid-chain exit
        let top = b.label("top");
        b.bind(top);
        b.alu(IAluOp::Add, 1, 1, Operand::Imm(1));
        b.branch(Cond::LtS, 1, Operand::Reg(2), top);
        b.alu(IAluOp::Add, 5, 1, Operand::Imm(100));
        b.halt();
        assert_tiers_agree(&b.build().unwrap());
    }

    #[test]
    fn div_by_zero_mid_chain_reports_original_pc() {
        let mut b = ProgramBuilder::new();
        b.movi(1, 10).movi(2, 0);
        b.alu(IAluOp::Div, 3, 1, Operand::Reg(2));
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(run_tier(&p, false), Err(SimError::DivByZero { pc: 2 }));
        assert_eq!(run_tier(&p, true), Err(SimError::DivByZero { pc: 2 }));
    }

    #[test]
    fn trailing_region_markers_keep_watchdog_semantics() {
        // A region marker after the last counted instruction: the
        // InstLimit trip must fire at the marker's guard check in every
        // tier (not fall off the end as PcOutOfRange), and stop at the
        // marker's pc.
        let mut b = ProgramBuilder::new();
        b.movi(1, 1);
        b.region_begin(1);
        b.alu(IAluOp::Add, 1, 1, Operand::Imm(1));
        b.region_end(1);
        b.halt();
        let p = b.build().unwrap();
        for (max_insts, stop) in [(0, Some(0)), (1, Some(1)), (2, Some(3)), (3, None)] {
            let run = |reference: bool| {
                let cfg = SimConfig {
                    max_insts,
                    ..SimConfig::baseline()
                };
                run_tier_with(cfg, &p, reference, 64)
            };
            assert_eq!(run(false), run(true), "insts {max_insts}");
            let pc = match run(true) {
                Err(SimError::InstLimit { pc, .. }) => Some(pc),
                _ => None,
            };
            assert_eq!(pc, stop, "insts {max_insts}");
        }
    }

    #[test]
    fn jump_to_out_of_range_target_matches_reference() {
        let p = Program {
            insts: vec![crate::ir::Inst::Jump { target: 9 }],
        };
        let r = run_tier(&p, false);
        assert_eq!(r, run_tier(&p, true));
        assert_eq!(r, Err(SimError::PcOutOfRange { pc: 9 }));
    }

    #[test]
    fn lowering_fuses_backward_branches_and_unrolls() {
        let mut b = ProgramBuilder::new();
        b.movi(1, 0);
        let top = b.label("top");
        b.bind(top);
        b.alu(IAluOp::Add, 1, 1, Operand::Imm(1));
        b.branch(Cond::LtS, 1, Operand::Imm(100), top);
        b.halt();
        let p = b.build().unwrap();
        let dp = DecodedProgram::compile(&p, &LatencyModel::default());
        let tp = ThreadedProgram::compile(&dp);
        assert_eq!(tp.superblock_count(), dp.block_count());
        // Unrolling multiplies the op count well past the static count.
        assert!(tp.op_count() > 4 * dp.len(), "ops {}", tp.op_count());
        // The loop-body superblock's branches are all fused-taken
        // except the last (chain-ending) copy.
        let sb = &tp.superblocks[1];
        let branches: Vec<bool> = tp.ops[sb.ops_start as usize..sb.ops_end as usize]
            .iter()
            .filter_map(|op| match *op {
                FusedOp::BranchRI { expect_taken, .. } => Some(expect_taken),
                _ => None,
            })
            .collect();
        assert!(branches.len() > 8);
        assert!(branches[..branches.len() - 1].iter().all(|&t| t));
        assert!(!branches[branches.len() - 1]);
    }

    #[test]
    fn memo_hit_fuses_taken_except_at_the_chain_end() {
        // lookup; branch_memo_hit top — a backward memo-hit edge, so the
        // chain unrolls the block up to the block cap.
        let lut = LutId::new(0).unwrap();
        let mut b = ProgramBuilder::new();
        let top = b.label("top");
        b.bind(top);
        b.memo_lookup(1, lut);
        b.branch_memo_hit(top);
        b.halt();
        let p = b.build().unwrap();
        let tp = ThreadedProgram::compile(&DecodedProgram::compile(&p, &LatencyModel::default()));
        let sb = &tp.superblocks[0];
        let hits: Vec<(u32, bool)> = tp.ops[sb.ops_start as usize..sb.ops_end as usize]
            .iter()
            .filter_map(|op| match *op {
                FusedOp::MemoBranchHit {
                    exit_pc,
                    expect_hit,
                    ..
                } => Some((exit_pc, expect_hit)),
                _ => None,
            })
            .collect();
        assert_eq!(hits.len(), crate::decoded::MAX_SUPERBLOCK_BLOCKS);
        // Mid-chain: expect a hit, side-exit to the fall-through (pc 2).
        assert!(hits[..hits.len() - 1].iter().all(|&h| h == (2, true)));
        // Last in the chain: expect a miss, side-exit to the target.
        assert_eq!(hits[hits.len() - 1], (0, false));
    }

    #[test]
    fn predictor_equivalence_across_tiers() {
        use crate::predictor::PredictorConfig;
        let mut b = ProgramBuilder::new();
        b.movi(1, 0).movi(2, 300);
        let top = b.label("top");
        let skip = b.label("skip");
        b.bind(top);
        b.alu(IAluOp::And, 4, 1, Operand::Imm(3));
        b.branch(Cond::Ne, 4, Operand::Imm(0), skip);
        b.alu(IAluOp::Add, 3, 3, Operand::Imm(1));
        b.bind(skip);
        b.alu(IAluOp::Add, 1, 1, Operand::Imm(1));
        b.branch(Cond::LtS, 1, Operand::Reg(2), top);
        b.halt();
        let p = b.build().unwrap();
        let run = |reference: bool| {
            let cfg = SimConfig {
                predictor: Some(PredictorConfig::default()),
                ..SimConfig::baseline()
            };
            run_tier_with(cfg, &p, reference, 64 * 1024).unwrap()
        };
        assert_eq!(run(false), run(true));
    }
}
