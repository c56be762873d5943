//! The simulator's RISC-style intermediate representation.
//!
//! The paper evaluates AxMemo on ARM-v8a binaries running in gem5. Our
//! substitute is a compact RISC-like IR rich enough to express the ten
//! benchmark kernels: 32 general 64-bit registers, int/FP ALU ops,
//! byte-addressed loads/stores, compare-and-branch, and the five AxMemo
//! extension instructions of §4.
//!
//! Floating-point operates on IEEE `f32` values held in the low 32 bits
//! of a register (all AxBench kernels are single-precision). `Exp`,
//! `Log`, `Sin`, `Cos` are *fused libm pseudo-instructions*: in real
//! binaries these are multi-instruction library calls; we model them as
//! single long-latency ops (the same abstraction ALADDIN applies to its
//! DDDG vertices), with latencies chosen to match their typical
//! software cost on an in-order core.
//!
//! Regions that the AxMemo compiler may memoize are delimited with the
//! zero-cost [`Inst::RegionBegin`]/[`Inst::RegionEnd`] markers carrying a
//! region id; they are ignored by the pipeline and energy models.

use axmemo_core::ids::LutId;
use core::fmt;

/// Register index (x0..x31). x0 is an ordinary register (not wired to
/// zero) — the builder reserves nothing.
pub type Reg = u8;

/// Number of architectural registers.
pub const NUM_REGS: usize = 32;

/// Second ALU operand: register or immediate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    /// Register operand.
    Reg(Reg),
    /// Sign-extended immediate.
    Imm(i64),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "x{r}"),
            Operand::Imm(i) => write!(f, "#{i}"),
        }
    }
}

/// Integer ALU operations (64-bit two's-complement).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IAluOp {
    /// `rd = ra + rb`
    Add,
    /// `rd = ra - rb`
    Sub,
    /// `rd = ra * rb` (low 64 bits)
    Mul,
    /// `rd = ra / rb` (signed; zero divisor traps)
    Div,
    /// `rd = ra % rb` (signed)
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left (rb mod 64).
    Shl,
    /// Logical shift right.
    Shr,
    /// Arithmetic shift right.
    Sar,
    /// Signed set-less-than (`rd = (ra < rb) as u64`).
    SltS,
    /// Unsigned set-less-than.
    SltU,
    /// `rd = (rb << 32) | (ra & 0xFFFF_FFFF)` — packs two 32-bit values
    /// into one register (multi-output memoization support, §3.3's
    /// "pack as many outputs into the 8-byte LUT data field").
    PackLo32,
}

/// Binary f32 operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FBinOp {
    /// `rd = ra + rb`
    Add,
    /// `rd = ra - rb`
    Sub,
    /// `rd = ra * rb`
    Mul,
    /// `rd = ra / rb`
    Div,
    /// `rd = min(ra, rb)`
    Min,
    /// `rd = max(ra, rb)`
    Max,
    /// `rd = if ra < rb { 1.0 } else { 0.0 }` (branchless select support).
    CmpLt,
}

/// Unary f32 operations (including the fused libm pseudo-ops).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FUnOp {
    /// Square root (hardware FSQRT).
    Sqrt,
    /// Fused `expf` pseudo-instruction.
    Exp,
    /// Fused `logf` pseudo-instruction.
    Log,
    /// Fused `sinf` pseudo-instruction.
    Sin,
    /// Fused `cosf` pseudo-instruction.
    Cos,
    /// Fused `atanf` pseudo-instruction.
    Atan,
    /// Negate.
    Neg,
    /// Absolute value.
    Abs,
    /// Round toward negative infinity.
    Floor,
    /// f32 → i64 (truncating), result is an integer register value.
    ToInt,
    /// i64 → f32.
    FromInt,
}

/// Compare-and-branch conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Integer equal.
    Eq,
    /// Integer not equal.
    Ne,
    /// Signed less-than.
    LtS,
    /// Signed greater-or-equal.
    GeS,
    /// Unsigned less-than.
    LtU,
    /// Unsigned greater-or-equal.
    GeU,
    /// f32 less-than.
    FLt,
    /// f32 greater-or-equal.
    FGe,
}

/// Memory access width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// One byte (zero-extended on load).
    B1,
    /// Four bytes.
    B4,
    /// Eight bytes.
    B8,
}

impl MemWidth {
    /// Width in bytes.
    pub fn bytes(self) -> usize {
        match self {
            MemWidth::B1 => 1,
            MemWidth::B4 => 4,
            MemWidth::B8 => 8,
        }
    }
}

/// Resolved jump target: an absolute instruction index within the
/// program. The builder resolves symbolic labels to these.
pub type Target = usize;

/// One IR instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Inst {
    /// Integer ALU: `rd = ra op rb/imm`.
    IAlu {
        /// Operation.
        op: IAluOp,
        /// Destination.
        rd: Reg,
        /// First source.
        ra: Reg,
        /// Second source (register or immediate).
        rb: Operand,
    },
    /// f32 binary op: `rd = ra op rb`.
    FBin {
        /// Operation.
        op: FBinOp,
        /// Destination.
        rd: Reg,
        /// First source.
        ra: Reg,
        /// Second source.
        rb: Reg,
    },
    /// f32 unary op: `rd = op ra`.
    FUn {
        /// Operation.
        op: FUnOp,
        /// Destination.
        rd: Reg,
        /// Source.
        ra: Reg,
    },
    /// Load: `rd = mem[ra + offset]`.
    Ld {
        /// Access width.
        width: MemWidth,
        /// Destination.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Byte offset.
        offset: i32,
    },
    /// Store: `mem[ra + offset] = rs`.
    St {
        /// Access width.
        width: MemWidth,
        /// Source register.
        rs: Reg,
        /// Base address register.
        base: Reg,
        /// Byte offset.
        offset: i32,
    },
    /// Load immediate: `rd = imm` (64-bit; assembler fiction for a
    /// movz/movk pair).
    MovImm {
        /// Destination.
        rd: Reg,
        /// Immediate value (raw bits).
        imm: u64,
    },
    /// Register move: `rd = ra`.
    Mov {
        /// Destination.
        rd: Reg,
        /// Source.
        ra: Reg,
    },
    /// Conditional branch: `if ra cond rb goto target`.
    Branch {
        /// Condition.
        cond: Cond,
        /// Left operand.
        ra: Reg,
        /// Right operand.
        rb: Operand,
        /// Branch target (instruction index).
        target: Target,
    },
    /// Unconditional jump.
    Jump {
        /// Target (instruction index).
        target: Target,
    },
    /// Branch taken iff the last `lookup` hit (reads the memoization
    /// condition code, §3.4).
    BranchMemoHit {
        /// Target (instruction index).
        target: Target,
    },
    /// `ld_crc`: load + stream the loaded value into the CRC unit
    /// (the ISA's `ld_crc` plus the access width).
    MemoLdCrc {
        /// Access width of the load / CRC beat.
        width: MemWidth,
        /// Destination of the load.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Byte offset.
        offset: i32,
        /// Target logical LUT.
        lut: LutId,
        /// Truncated LSBs.
        trunc: u8,
    },
    /// `reg_crc`: stream a register into the CRC unit (the ISA's
    /// `reg_crc` plus the beat width).
    MemoRegCrc {
        /// Beat width (4 or 8 bytes).
        width: MemWidth,
        /// Source register.
        src: Reg,
        /// Target logical LUT.
        lut: LutId,
        /// Truncated LSBs.
        trunc: u8,
    },
    /// `lookup`: probe the LUT, set the memo condition code, and on a
    /// hit write the memoized output into `rd`.
    MemoLookup {
        /// Destination for the memoized output.
        rd: Reg,
        /// Target logical LUT.
        lut: LutId,
    },
    /// `update`: store the recomputed output after a miss.
    MemoUpdate {
        /// Register holding the output to store.
        src: Reg,
        /// Target logical LUT.
        lut: LutId,
    },
    /// `invalidate`: clear a logical LUT.
    MemoInvalidate {
        /// Target logical LUT.
        lut: LutId,
    },
    /// Zero-cost marker: start of memoizable-candidate region `id`.
    RegionBegin {
        /// Region identifier (matches [`Inst::RegionEnd`]).
        id: u32,
    },
    /// Zero-cost marker: end of region `id`.
    RegionEnd {
        /// Region identifier.
        id: u32,
    },
    /// Stop execution.
    Halt,
}

/// A complete program: a flat instruction sequence with resolved
/// targets, plus the region table the compiler uses.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// The instructions. Execution starts at index 0.
    pub insts: Vec<Inst>,
}

impl Program {
    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Validate structural invariants: every branch target is in range
    /// and region markers are properly paired.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.insts.len();
        let mut open: Vec<u32> = Vec::new();
        for (i, inst) in self.insts.iter().enumerate() {
            match *inst {
                Inst::Branch { target, .. }
                | Inst::Jump { target }
                | Inst::BranchMemoHit { target }
                    if target >= n =>
                {
                    return Err(format!("inst {i}: branch target {target} out of range"));
                }
                Inst::RegionBegin { id } => open.push(id),
                Inst::RegionEnd { id } if open.pop() != Some(id) => {
                    return Err(format!("inst {i}: unbalanced RegionEnd({id})"));
                }
                _ => {}
            }
        }
        if let Some(id) = open.pop() {
            return Err(format!("RegionBegin({id}) never closed"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_catches_out_of_range_target() {
        let p = Program {
            insts: vec![Inst::Jump { target: 5 }, Inst::Halt],
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_catches_unbalanced_regions() {
        let p = Program {
            insts: vec![Inst::RegionBegin { id: 1 }, Inst::Halt],
        };
        assert!(p.validate().is_err());
        let p = Program {
            insts: vec![
                Inst::RegionBegin { id: 1 },
                Inst::RegionEnd { id: 2 },
                Inst::Halt,
            ],
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_accepts_wellformed() {
        let p = Program {
            insts: vec![
                Inst::RegionBegin { id: 1 },
                Inst::IAlu {
                    op: IAluOp::Add,
                    rd: 0,
                    ra: 0,
                    rb: Operand::Imm(1),
                },
                Inst::RegionEnd { id: 1 },
                Inst::Halt,
            ],
        };
        assert!(p.validate().is_ok());
    }

    #[test]
    fn mem_width_bytes() {
        assert_eq!(MemWidth::B1.bytes(), 1);
        assert_eq!(MemWidth::B4.bytes(), 4);
        assert_eq!(MemWidth::B8.bytes(), 8);
    }
}
