//! Cyclic redundancy check (CRC) hashing units.
//!
//! AxMemo uses CRC to compress an arbitrary-length stream of memoization
//! inputs into a fixed-size lookup-table tag (§3.1 of the paper). CRC is
//! chosen because it is streaming (inputs can be "accumulated" as they
//! arrive, hiding hash latency behind the original loads), every input bit
//! affects the output, the hardware is cheap, and the width is
//! configurable (16/32/64 bits).
//!
//! Two implementations are provided, mirroring Fig. 3:
//!
//! * [`SerialCrc`] — the LFSR-with-input-XOR reference that processes one
//!   *bit* per step. It is the specification against which [`TableCrc`]
//!   is property-tested.
//! * [`TableCrc`] — the byte-parallel (n = 8) implementation. In hardware
//!   this needs a `2^8 × m`-bit constant RAM; in software it is the classic
//!   table-driven algorithm. This is what the memoization unit instantiates.
//!
//! Hashing is functional only: the simulator models the synthesised
//! unit's timing (4× unrolled and pipelined, §6.1) at
//! `axmemo_sim::memo::CRC_BYTES_PER_CYCLE`.
//!
//! # Examples
//!
//! ```
//! use axmemo_core::crc::{CrcWidth, TableCrc};
//!
//! let crc = TableCrc::new(CrcWidth::W32);
//! let mut state = crc.init();
//! crc.feed(&mut state, &42u32.to_le_bytes());
//! crc.feed(&mut state, &7u32.to_le_bytes());
//! let tag = crc.finalize(state);
//! assert_ne!(tag, crc.finalize(crc.init()));
//! ```

use core::fmt;

/// Supported CRC widths (§3.1: "16-bit CRC, 32-bit CRC, 64-bit CRC etc.").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum CrcWidth {
    /// 16-bit CRC (CCITT polynomial).
    W16,
    /// 32-bit CRC (IEEE 802.3 polynomial). The paper's evaluated design.
    #[default]
    W32,
    /// 64-bit CRC (ECMA-182 polynomial).
    W64,
}

impl CrcWidth {
    /// Number of bits in the CRC value.
    pub fn bits(self) -> u32 {
        match self {
            CrcWidth::W16 => 16,
            CrcWidth::W32 => 32,
            CrcWidth::W64 => 64,
        }
    }

    /// The reflected generator polynomial used for this width.
    pub fn polynomial(self) -> u64 {
        match self {
            // CRC-16/CCITT (reflected 0x1021)
            CrcWidth::W16 => 0x8408,
            // CRC-32 (reflected 0x04C11DB7), as used by Ethernet/zlib
            CrcWidth::W32 => 0xEDB8_8320,
            // CRC-64/XZ (reflected ECMA-182)
            CrcWidth::W64 => 0xC96C_5795_D787_0F42,
        }
    }

    /// Mask selecting the low `bits()` bits of a `u64`.
    pub fn mask(self) -> u64 {
        match self {
            CrcWidth::W16 => 0xFFFF,
            CrcWidth::W32 => 0xFFFF_FFFF,
            CrcWidth::W64 => u64::MAX,
        }
    }
}

impl fmt::Display for CrcWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CRC{}", self.bits())
    }
}

/// In-flight CRC state. Stored in a Hash Value Register between input
/// beats; see [`crate::hvr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CrcState {
    /// Current shift-register contents (low `width.bits()` bits valid).
    value: u64,
    width: CrcWidth,
}

/// Bit-serial CRC: the linear-feedback shift register with the input bit
/// XORed into the feedback path (Fig. 3, "serial CRC unit").
///
/// Processes one input bit per step; in hardware this is the cheapest
/// (but slowest) implementation. Used here as the executable
/// specification, independent of [`TableCrc`]'s table.
#[derive(Debug, Clone, Copy)]
pub struct SerialCrc {
    width: CrcWidth,
}

impl SerialCrc {
    /// Create a bit-serial CRC unit of the given width.
    pub fn new(width: CrcWidth) -> Self {
        Self { width }
    }

    /// Hash a complete buffer: all-ones preset, final XOR with all-ones.
    pub fn checksum(&self, data: &[u8]) -> u64 {
        let poly = self.width.polynomial();
        let mask = self.width.mask();
        let mut crc = mask;
        for &byte in data {
            crc ^= u64::from(byte);
            for _ in 0..8 {
                // Reflected form: shift right, XOR polynomial on carry-out.
                let lsb = crc & 1;
                crc >>= 1;
                if lsb == 1 {
                    crc ^= poly;
                }
            }
        }
        (crc ^ mask) & mask
    }
}

/// Byte-parallel, table-driven CRC (Fig. 3, "n-bit parallel"; n = 8).
///
/// In hardware the 256-entry constant table is a `2^8 × m`-bit RAM (1 KB
/// for CRC-32). Processes one byte per cycle, matching Table 4's latency
/// for `ld_crc`/`reg_crc`.
#[derive(Debug, Clone)]
pub struct TableCrc {
    width: CrcWidth,
    table: Box<[u64; 256]>,
}

impl TableCrc {
    /// Build the unit, precomputing the 256-entry constant RAM.
    pub fn new(width: CrcWidth) -> Self {
        let poly = width.polynomial();
        let mask = width.mask();
        let mut table = Box::new([0u64; 256]);
        for (i, slot) in table.iter_mut().enumerate() {
            let mut crc = i as u64;
            for _ in 0..8 {
                let lsb = crc & 1;
                crc >>= 1;
                if lsb == 1 {
                    crc ^= poly;
                }
            }
            *slot = crc & mask;
        }
        Self { width, table }
    }

    /// Fresh state (all-ones preset, the conventional CRC init).
    pub fn init(&self) -> CrcState {
        CrcState {
            value: self.width.mask(),
            width: self.width,
        }
    }

    /// Absorb `data` into `state`, one byte at a time in order.
    pub fn feed(&self, state: &mut CrcState, data: &[u8]) {
        debug_assert_eq!(state.width, self.width, "state/unit width mismatch");
        let mask = self.width.mask();
        let mut crc = state.value;
        for &byte in data {
            let idx = ((crc ^ u64::from(byte)) & 0xFF) as usize;
            crc = (crc >> 8) ^ self.table[idx];
        }
        state.value = crc & mask;
    }

    /// Produce the final CRC value (final XOR with all-ones, masked to
    /// width).
    pub fn finalize(&self, state: CrcState) -> u64 {
        (state.value ^ state.width.mask()) & state.width.mask()
    }

    /// The width of CRC values produced.
    pub fn width(&self) -> CrcWidth {
        self.width
    }

    /// Convenience: hash a complete buffer in one call.
    pub fn checksum(&self, data: &[u8]) -> u64 {
        let mut s = self.init();
        self.feed(&mut s, data);
        self.finalize(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known-answer test vectors for the standard check input
    /// "123456789" (the conventional CRC validation string).
    #[test]
    fn crc32_known_answer() {
        let crc = TableCrc::new(CrcWidth::W32);
        assert_eq!(crc.checksum(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc16_known_answer() {
        let crc = TableCrc::new(CrcWidth::W16);
        // CRC-16/X-25 check value (reflected CCITT polynomial with
        // all-ones preset and final XOR, matching our init/finalize).
        assert_eq!(crc.checksum(b"123456789"), 0x906E);
    }

    #[test]
    fn crc64_known_answer() {
        let crc = TableCrc::new(CrcWidth::W64);
        // CRC-64/XZ check value.
        assert_eq!(crc.checksum(b"123456789"), 0x995D_C9BB_DF19_39FA);
    }

    #[test]
    fn serial_matches_table_on_basic_inputs() {
        for width in [CrcWidth::W16, CrcWidth::W32, CrcWidth::W64] {
            let serial = SerialCrc::new(width);
            let table = TableCrc::new(width);
            for input in [&b""[..], b"a", b"123456789", b"\x00\x00\x00\x00"] {
                assert_eq!(
                    serial.checksum(input),
                    table.checksum(input),
                    "width {width} input {input:?}"
                );
            }
        }
    }

    #[test]
    fn streaming_equals_oneshot() {
        let crc = TableCrc::new(CrcWidth::W32);
        let mut s = crc.init();
        crc.feed(&mut s, b"hello ");
        crc.feed(&mut s, b"world");
        assert_eq!(crc.finalize(s), crc.checksum(b"hello world"));
    }

    #[test]
    fn empty_input_hashes_to_zero_xor() {
        // init ^ final-xor cancels for the empty message.
        let crc = TableCrc::new(CrcWidth::W32);
        assert_eq!(crc.checksum(b""), 0);
    }

    #[test]
    fn every_bit_affects_output() {
        // Property claimed in §3.1 item (2): flip any single bit of a
        // 9-float (36-byte) input and the CRC changes.
        let crc = TableCrc::new(CrcWidth::W32);
        let base = [0xA5u8; 36];
        let reference = crc.checksum(&base);
        for byte in 0..36 {
            for bit in 0..8 {
                let mut flipped = base;
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc.checksum(&flipped), reference, "byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn width_display_and_mask() {
        assert_eq!(CrcWidth::W32.to_string(), "CRC32");
        assert_eq!(CrcWidth::W16.mask(), 0xFFFF);
        assert_eq!(CrcWidth::W64.mask(), u64::MAX);
        assert_eq!(CrcWidth::default(), CrcWidth::W32);
    }
}
