//! # axmemo-isa
//!
//! The five AxMemo ISA extensions (§4 of the paper) as standalone
//! instruction definitions: semantics and a 32-bit binary encoding.
//! Their costs are the Table 4 values in `axmemo_core::unit::UnitTiming`,
//! and the program-ordering rule (the "dummy register" dependency that
//! serialises `ld_crc`/`reg_crc`/`lookup` within one logical LUT) is
//! enforced by `axmemo-sim`'s per-LUT CRC chain on both dispatch tiers.
//!
//! The host ISA is modelled abstractly — `axmemo-sim` defines its own
//! RISC-style IR with width-carrying forms of these instructions; no
//! simulator or compiler path depends on this crate.
//!
//! ```
//! use axmemo_isa::{MemoInst, encode, decode};
//! use axmemo_core::ids::LutId;
//!
//! let inst = MemoInst::Lookup { dst: 3, lut: LutId::new(1).unwrap() };
//! let word = encode(inst);
//! assert_eq!(decode(word).unwrap(), inst);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod encoding;

pub use encoding::{decode, encode, DecodeError};

use axmemo_core::ids::LutId;
use core::fmt;

/// A CPU register index (the host ISA has 32 general registers, matching
/// ARM-v8a's X0–X30 + zero register).
pub type Reg = u8;

/// Number of addressable registers in encodings.
pub const NUM_REGS: usize = 32;

/// Maximum truncation bits encodable in the 6-bit `n` field.
pub const MAX_TRUNC_BITS: u8 = 63;

/// The five AxMemo instructions (§4), all encodable in 32 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoInst {
    /// `ld_crc dst, [addr], LUT_ID, n` — load memory at the address in
    /// register `addr` into `dst` **and** stream the loaded value (with
    /// `n` LSBs truncated) into the CRC unit for `lut`. Replaces the
    /// normal load of a memoization-input variable.
    LdCrc {
        /// Destination register for the loaded value.
        dst: Reg,
        /// Register holding the load address.
        addr: Reg,
        /// Target logical LUT.
        lut: LutId,
        /// Truncated LSBs (0 disables approximation).
        trunc: u8,
    },
    /// `reg_crc src, LUT_ID, n` — stream the value of register `src`
    /// (with `n` LSBs truncated) into the CRC unit for `lut`. Used when a
    /// memoization input is produced by computation rather than a load
    /// (e.g. FFT).
    RegCrc {
        /// Source register.
        src: Reg,
        /// Target logical LUT.
        lut: LutId,
        /// Truncated LSBs.
        trunc: u8,
    },
    /// `lookup dst, LUT_ID` — perform the LUT lookup; on a hit write the
    /// memoized output to `dst` and set the condition code so the
    /// following branch skips the computation.
    Lookup {
        /// Destination register for the memoized output.
        dst: Reg,
        /// Target logical LUT.
        lut: LutId,
    },
    /// `update src, LUT_ID` — after a miss, store the recomputed output
    /// in `src` into the entry allocated by the preceding lookup.
    Update {
        /// Register holding the freshly computed output.
        src: Reg,
        /// Target logical LUT.
        lut: LutId,
    },
    /// `invalidate LUT_ID` — clear every entry of a logical LUT (end of
    /// program, or when the LUT is reused for a different code block).
    Invalidate {
        /// Target logical LUT.
        lut: LutId,
    },
}

impl MemoInst {
    /// Assembly mnemonic.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            MemoInst::LdCrc { .. } => "ld_crc",
            MemoInst::RegCrc { .. } => "reg_crc",
            MemoInst::Lookup { .. } => "lookup",
            MemoInst::Update { .. } => "update",
            MemoInst::Invalidate { .. } => "invalidate",
        }
    }
}

impl fmt::Display for MemoInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            MemoInst::LdCrc {
                dst,
                addr,
                lut,
                trunc,
            } => write!(f, "ld_crc x{dst}, [x{addr}], {lut}, {trunc}"),
            MemoInst::RegCrc { src, lut, trunc } => {
                write!(f, "reg_crc x{src}, {lut}, {trunc}")
            }
            MemoInst::Lookup { dst, lut } => write!(f, "lookup x{dst}, {lut}"),
            MemoInst::Update { src, lut } => write!(f, "update x{src}, {lut}"),
            MemoInst::Invalidate { lut } => write!(f, "invalidate {lut}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lut(i: u8) -> LutId {
        LutId::new(i).unwrap()
    }

    #[test]
    fn display_matches_paper_syntax() {
        let i = MemoInst::LdCrc {
            dst: 1,
            addr: 2,
            lut: lut(3),
            trunc: 8,
        };
        assert_eq!(i.to_string(), "ld_crc x1, [x2], LUT3, 8");
        assert_eq!(
            MemoInst::Invalidate { lut: lut(0) }.to_string(),
            "invalidate LUT0"
        );
    }

    #[test]
    fn mnemonics() {
        assert_eq!(
            MemoInst::Invalidate { lut: lut(7) }.mnemonic(),
            "invalidate"
        );
        assert_eq!(
            MemoInst::RegCrc {
                src: 0,
                lut: lut(0),
                trunc: 0
            }
            .mnemonic(),
            "reg_crc"
        );
    }
}
