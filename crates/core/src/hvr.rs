//! Hash Value Registers (HVRs) — §3.2.
//!
//! The HVRs hold the *in-flight* CRC state for each `{LUT_ID, TID}` pair,
//! acting as the hardware context of the CRC calculation when the
//! processor interleaves inputs destined for different logical LUTs (or
//! from different SMT threads). `{LUT_ID, TID}` is the architectural name
//! of a register.

use crate::crc::{CrcState, TableCrc};
use crate::ids::{LutId, ThreadId, MAX_LUTS};

/// The Hash Value Register file.
///
/// Sized as `MAX_LUTS × smt_threads` registers (the paper's example: 8
/// LUTs × 2 threads = 16 × 32-bit registers for CRC-32).
///
/// # Examples
///
/// ```
/// use axmemo_core::crc::{CrcWidth, TableCrc};
/// use axmemo_core::hvr::HashValueRegisters;
/// use axmemo_core::ids::{LutId, ThreadId};
///
/// let crc = TableCrc::new(CrcWidth::W32);
/// let mut hvr = HashValueRegisters::new(&crc, 2);
/// let (lut, tid) = (LutId::new(0).unwrap(), ThreadId(0));
/// hvr.accumulate(&crc, lut, tid, &42u32.to_le_bytes());
/// let tag = hvr.take(&crc, lut, tid);
/// assert_eq!(tag, crc.checksum(&42u32.to_le_bytes()));
/// ```
#[derive(Debug, Clone)]
pub struct HashValueRegisters {
    regs: Vec<CrcState>,
    threads: usize,
}

impl HashValueRegisters {
    /// Allocate the register file for `threads` SMT threads, with every
    /// register preset to the CRC init state.
    pub fn new(crc: &TableCrc, threads: usize) -> Self {
        assert!(threads > 0, "at least one thread");
        Self {
            regs: vec![crc.init(); MAX_LUTS * threads],
            threads,
        }
    }

    fn slot(&self, lut: LutId, tid: ThreadId) -> usize {
        assert!(
            tid.index() < self.threads,
            "thread {tid} out of range (have {})",
            self.threads
        );
        tid.index() * MAX_LUTS + lut.index()
    }

    /// Stream `data` into the register named `{lut, tid}`.
    pub fn accumulate(&mut self, crc: &TableCrc, lut: LutId, tid: ThreadId, data: &[u8]) {
        let i = self.slot(lut, tid);
        crc.feed(&mut self.regs[i], data);
    }

    /// Read out the finalised CRC value and reset the register for the
    /// next memoization instance (done as part of `lookup`/`update`).
    pub fn take(&mut self, crc: &TableCrc, lut: LutId, tid: ThreadId) -> u64 {
        let i = self.slot(lut, tid);
        let v = crc.finalize(self.regs[i]);
        self.regs[i] = crc.init();
        v
    }

    /// Read the finalised value without resetting (used by `update`,
    /// which must observe the same CRC the preceding `lookup` computed —
    /// the unit latches it; see [`crate::unit::MemoizationUnit`]).
    pub fn peek(&self, crc: &TableCrc, lut: LutId, tid: ThreadId) -> u64 {
        crc.finalize(self.regs[self.slot(lut, tid)])
    }

    /// Reset one register (abandoning a partially-hashed input set).
    pub fn reset(&mut self, crc: &TableCrc, lut: LutId, tid: ThreadId) {
        let i = self.slot(lut, tid);
        self.regs[i] = crc.init();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc::CrcWidth;

    fn setup() -> (TableCrc, HashValueRegisters) {
        let crc = TableCrc::new(CrcWidth::W32);
        let hvr = HashValueRegisters::new(&crc, 2);
        (crc, hvr)
    }

    #[test]
    fn interleaved_streams_do_not_interfere() {
        let (crc, mut hvr) = setup();
        let (a, b) = (LutId::new(0).unwrap(), LutId::new(1).unwrap());
        let t = ThreadId(0);
        // Interleave two input streams.
        hvr.accumulate(&crc, a, t, b"AAAA");
        hvr.accumulate(&crc, b, t, b"BB");
        hvr.accumulate(&crc, a, t, b"aaaa");
        hvr.accumulate(&crc, b, t, b"bb");
        assert_eq!(hvr.take(&crc, a, t), crc.checksum(b"AAAAaaaa"));
        assert_eq!(hvr.take(&crc, b, t), crc.checksum(b"BBbb"));
    }

    #[test]
    fn threads_are_isolated() {
        let (crc, mut hvr) = setup();
        let lut = LutId::new(2).unwrap();
        hvr.accumulate(&crc, lut, ThreadId(0), b"thread0");
        hvr.accumulate(&crc, lut, ThreadId(1), b"thread1");
        assert_eq!(hvr.take(&crc, lut, ThreadId(0)), crc.checksum(b"thread0"));
        assert_eq!(hvr.take(&crc, lut, ThreadId(1)), crc.checksum(b"thread1"));
    }

    #[test]
    fn take_resets_for_next_instance() {
        let (crc, mut hvr) = setup();
        let (lut, t) = (LutId::new(0).unwrap(), ThreadId(0));
        hvr.accumulate(&crc, lut, t, b"first");
        let first = hvr.take(&crc, lut, t);
        hvr.accumulate(&crc, lut, t, b"first");
        assert_eq!(hvr.take(&crc, lut, t), first);
    }

    #[test]
    fn peek_is_nondestructive() {
        let (crc, mut hvr) = setup();
        let (lut, t) = (LutId::new(4).unwrap(), ThreadId(1));
        hvr.accumulate(&crc, lut, t, b"xyz");
        let p = hvr.peek(&crc, lut, t);
        assert_eq!(p, hvr.peek(&crc, lut, t));
        assert_eq!(p, hvr.take(&crc, lut, t));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_thread() {
        let (crc, mut hvr) = setup();
        hvr.accumulate(&crc, LutId::new(0).unwrap(), ThreadId(5), b"x");
    }
}
