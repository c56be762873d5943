//! Input truncation — AxMemo's approximation knob (§3.1).
//!
//! Before a memoization input is streamed into the CRC unit, its `n`
//! least-significant bits are zeroed. For IEEE floating-point values this
//! rounds the value down by a *relative* precision (the dropped bits are
//! mantissa LSBs); for integers it rounds down by an *absolute* precision.
//! The number of truncated bits is chosen per input variable by the
//! compiler's profiling pass (the `axmemo-compiler` crate) and encoded in the
//! `ld_crc`/`reg_crc` instructions' `n` field.
//!
//! Truncation only affects the bytes sent to the hash unit — the program
//! still computes with (and the LUT stores) full-precision values, so the
//! approximation error comes purely from treating *similar* inputs as
//! equal.
//!
//! # Examples
//!
//! ```
//! use axmemo_core::truncate::{truncate_bits, InputValue};
//!
//! // Two nearby floats hash identically after 16-bit truncation:
//! let a = InputValue::F32(1.000001);
//! let b = InputValue::F32(1.000003);
//! assert_eq!(a.truncated_bytes(16), b.truncated_bytes(16));
//! // ...but not with truncation disabled (n = 0):
//! assert_ne!(a.truncated_bytes(0), b.truncated_bytes(0));
//!
//! assert_eq!(truncate_bits(0b1011_1111, 4), 0b1011_0000);
//! ```

/// Zero the `n` least-significant bits of a raw bit pattern.
///
/// `n >= 64` clears the whole word. This is the hardware operation the
/// `ld_crc`/`reg_crc` truncation field performs.
pub fn truncate_bits(bits: u64, n: u32) -> u64 {
    if n >= 64 {
        0
    } else {
        bits & !((1u64 << n) - 1)
    }
}

/// A typed memoization input value, as named in the `ld_crc`/`reg_crc`
/// instructions.
///
/// The type determines the byte width sent to the CRC unit and how
/// truncation is interpreted (relative for floats, absolute for ints).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InputValue {
    /// 32-bit IEEE-754 float.
    F32(f32),
    /// 64-bit IEEE-754 float.
    F64(f64),
    /// 32-bit integer (signedness is irrelevant to hashing).
    I32(i32),
    /// 64-bit integer.
    I64(i64),
    /// Single byte (used by JPEG's pixel inputs).
    U8(u8),
}

impl InputValue {
    /// Width in bytes as streamed to the CRC unit.
    pub fn byte_width(self) -> usize {
        match self {
            InputValue::F32(_) | InputValue::I32(_) => 4,
            InputValue::F64(_) | InputValue::I64(_) => 8,
            InputValue::U8(_) => 1,
        }
    }

    /// Raw bit pattern, zero-extended to 64 bits.
    pub fn raw_bits(self) -> u64 {
        match self {
            InputValue::F32(v) => u64::from(v.to_bits()),
            InputValue::F64(v) => v.to_bits(),
            InputValue::I32(v) => u64::from(v as u32),
            InputValue::I64(v) => v as u64,
            InputValue::U8(v) => u64::from(v),
        }
    }

    /// The value reconstructed from truncated bits, i.e. what the hash
    /// effectively "sees". Used by the compiler's error profiler.
    pub fn truncated(self, n: u32) -> InputValue {
        let bits = truncate_bits(self.raw_bits(), n);
        match self {
            InputValue::F32(_) => InputValue::F32(f32::from_bits(bits as u32)),
            InputValue::F64(_) => InputValue::F64(f64::from_bits(bits)),
            InputValue::I32(_) => InputValue::I32(bits as u32 as i32),
            InputValue::I64(_) => InputValue::I64(bits as i64),
            InputValue::U8(_) => InputValue::U8(bits as u8),
        }
    }

    /// Little-endian bytes of the value after truncating `n` LSBs —
    /// exactly the beat sequence sent to the memoization unit's input
    /// queue. At most 8 bytes; the `usize` is the valid length.
    pub fn truncated_bytes(&self, n: u32) -> ([u8; 8], usize) {
        // `raw_bits` zero-extends, so the bytes past `byte_width` are
        // already zero and no partial copy is needed.
        (
            truncate_bits(self.raw_bits(), n).to_le_bytes(),
            self.byte_width(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncate_bits_basics() {
        assert_eq!(truncate_bits(0xFFFF, 0), 0xFFFF);
        assert_eq!(truncate_bits(0xFFFF, 8), 0xFF00);
        assert_eq!(truncate_bits(0xFFFF, 16), 0);
        assert_eq!(truncate_bits(u64::MAX, 63), 1 << 63);
        assert_eq!(truncate_bits(u64::MAX, 64), 0);
        assert_eq!(truncate_bits(u64::MAX, 70), 0);
    }

    #[test]
    fn float_truncation_is_relative_rounding_down() {
        // Truncating mantissa bits rounds toward zero with a bound
        // relative to the magnitude.
        for &v in &[1.0f32, 1.5, 3.25, 1000.125, 1e-3] {
            for n in [4u32, 8, 12, 16] {
                let t = match InputValue::F32(v).truncated(n) {
                    InputValue::F32(t) => t,
                    _ => unreachable!(),
                };
                assert!(t <= v, "v={v} n={n} t={t}");
                let rel = (v - t) / v;
                // Dropping n mantissa LSBs of a 23-bit mantissa bounds the
                // relative error by 2^(n-23).
                let bound = 2f32.powi(n as i32 - 23);
                assert!(rel <= bound, "v={v} n={n} rel={rel} bound={bound}");
            }
        }
    }

    #[test]
    fn int_truncation_is_absolute_rounding_down() {
        let v = InputValue::I32(1000);
        assert_eq!(v.truncated(4), InputValue::I32(992));
        assert_eq!(v.truncated(0), v);
        // Absolute error bounded by 2^n - 1.
        for n in 0..16 {
            if let InputValue::I32(t) = v.truncated(n) {
                assert!(i64::from(1000 - t) < (1i64 << n));
            }
        }
    }

    #[test]
    fn zero_truncation_is_identity_bytes() {
        let v = InputValue::F64(2.71875);
        let (bytes, len) = v.truncated_bytes(0);
        assert_eq!(len, 8);
        assert_eq!(&bytes[..8], &2.71875f64.to_bits().to_le_bytes());
    }

    #[test]
    fn widths_match_types() {
        assert_eq!(InputValue::F32(0.0).byte_width(), 4);
        assert_eq!(InputValue::F64(0.0).byte_width(), 8);
        assert_eq!(InputValue::I32(0).byte_width(), 4);
        assert_eq!(InputValue::I64(0).byte_width(), 8);
        assert_eq!(InputValue::U8(0).byte_width(), 1);
    }

    #[test]
    fn similar_inputs_collide_after_truncation() {
        let a = InputValue::F32(0.500_001);
        let b = InputValue::F32(0.500_009);
        assert_ne!(a.truncated_bytes(0), b.truncated_bytes(0));
        assert_eq!(a.truncated_bytes(12), b.truncated_bytes(12));
    }
}
