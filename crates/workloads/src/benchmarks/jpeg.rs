//! JPEG — image compression front end (AxBench).
//!
//! A reduced-coefficient transform-coding pipeline standing in for the
//! full JPEG encoder (documented substitution in DESIGN.md): per 8×8
//! image block the kernel performs two passes, each memoized in its own
//! logical LUT exactly as the paper's two memoized blocks with 16-byte
//! inputs and (2, 7) truncation bits (Table 2):
//!
//! * **Block A (LUT 0, trunc 2)** — a 16-pixel row-pair partial DCT:
//!   takes 16 × u8 = 16 bytes of level-shifted pixels and produces the
//!   4 lowest-frequency cosine coefficients, quantised to i16 and packed
//!   into the 8-byte LUT entry.
//! * **Block B (LUT 1, trunc 3; the paper lists 7 — see the note at
//!   `TRUNC_B`)** — coefficient requantisation: takes the 16 bytes
//!   produced by two Block-A invocations and emits the 8-byte coarsely
//!   requantised band record.
//!
//! Truncation on u8 pixel inputs is *absolute* (2 bits ≈ ignore the two
//! low pixel bits); block B's 7-bit truncation coarsens the i16
//! coefficients.
//!
//! Dataset: a tiled image — 16-pixel-aligned tiles are either flat (one
//! of 16 gray levels, as in photos' smooth regions) or textured (random
//! pixels). Flat tiles produce exactly repeating 16-byte records, which
//! is where JPEG's (modest, 19%-coverage) reuse comes from.

use crate::gen::{Rng, SmoothField};
use crate::meta::{Metric, WorkloadMeta};
use crate::{Benchmark, Dataset, Scale};
use axmemo_compiler::{InputLoad, RegionSpec};
use axmemo_core::config::DataWidth;
use axmemo_core::ids::LutId;
use axmemo_sim::builder::ProgramBuilder;
use axmemo_sim::cpu::Machine;
use axmemo_sim::ir::{Cond, FBinOp, FUnOp, IAluOp, MemWidth, Operand, Program};

const IN_BASE: u64 = 0x1_0000;
/// Intermediate coefficient records (8 bytes per row-pair).
const MID_BASE: u64 = 0x40_0000;
const OUT_BASE: u64 = 0x80_0000;
const TRUNC_A: u8 = 2;
// The paper's Table 2 lists 7 truncated bits for the second block; in
// our reduced pipeline the block-B inputs are packed i16 coefficient
// records whose low lane a 7-bit truncation would coarsen by ±128 —
// far beyond the 1% image bound. 3 bits keeps the same mechanism at a
// tolerable step (deviation recorded in EXPERIMENTS.md).
const TRUNC_B: u8 = 3;

fn dim(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 32,
        Scale::Small => 128,
        Scale::Full => 512,
    }
}

/// The jpeg benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Jpeg;

/// Cosine basis value for coefficient `k` at position `t` of 16.
fn basis(k: usize, t: usize) -> f32 {
    ((2 * t + 1) as f32 * k as f32 * std::f32::consts::PI / 32.0).cos()
}

/// Golden Block A: 16 level-shifted pixels -> 4 quantised i16
/// coefficients (matches the IR op-for-op).
pub fn row_pair_dct(pixels: &[u8; 16]) -> [i16; 4] {
    let mut out = [0i16; 4];
    for (k, slot) in out.iter_mut().enumerate() {
        let mut acc = 0.0f32;
        for (t, &p) in pixels.iter().enumerate() {
            let shifted = p as f32 - 128.0;
            acc += shifted * basis(k, t);
        }
        // Quantise by 8 (the luminance low-band step).
        *slot = (acc / 8.0) as i16;
    }
    out
}

/// Golden Block B: two packed Block-A records (16 bytes as 8 i16) ->
/// coarsely requantised band (4 i16, step 4).
pub fn requantise(coeffs: &[i16; 8]) -> [i16; 4] {
    let mut out = [0i16; 4];
    for (k, slot) in out.iter_mut().enumerate() {
        let sum = i32::from(coeffs[k]) + i32::from(coeffs[k + 4]);
        *slot = (sum / 4) as i16;
    }
    out
}

impl Benchmark for Jpeg {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "jpeg",
            suite: "AxBench",
            domain: "Compression",
            description: "Transform-coding front end of a JPEG encoder",
            dataset: "posterised smooth image quantised to u8",
            input_bytes: &[16, 16],
            truncated_bits: &[TRUNC_A, TRUNC_B],
            metric: Metric::Image,
        }
    }

    fn data_width(&self) -> DataWidth {
        DataWidth::W8
    }

    fn program(&self, scale: Scale) -> (Program, Vec<RegionSpec>) {
        let d = dim(scale);
        let pairs = d * d / 16; // 16-pixel records covering the image
        let lut_a = LutId::new(0).unwrap();
        let lut_b = LutId::new(1).unwrap();
        let mut b = ProgramBuilder::new();

        // ---- Pass A: for each row-pair record, 16 pixels -> 4 i16 ----
        b.movi(1, 0); // record index
        let a_top = b.label("a_top");
        b.bind(a_top);
        b.alu(IAluOp::Shl, 5, 1, Operand::Imm(4)); // ×16 bytes of pixels
        b.alu(IAluOp::Add, 5, 5, Operand::Imm(IN_BASE as i64));
        b.alu(IAluOp::Shl, 6, 1, Operand::Imm(3)); // ×8 bytes per record
        b.alu(IAluOp::Add, 6, 6, Operand::Imm(MID_BASE as i64));
        // 16 pixel loads r10..r25 (u8 each).
        let load_a0 = b.here();
        for k in 0..16u8 {
            b.ld(MemWidth::B1, 10 + k, 5, i32::from(k));
        }
        b.region_begin(1);
        // Four coefficients; each is Σ (p−128)·basis, quantised /8.
        // Accumulate coefficient k into r26; pack pairs into r30.
        b.movf(30, 0.0); // we build the packed value in integer form
        b.movi(30, 0);
        for k in 0..4usize {
            b.movf(26, 0.0);
            for t in 0..16usize {
                b.fun(FUnOp::FromInt, 27, 10 + t as u8);
                b.movf(28, 128.0);
                b.fbin(FBinOp::Sub, 27, 27, 28);
                b.movf(28, basis(k, t));
                b.fbin(FBinOp::Mul, 27, 27, 28);
                b.fbin(FBinOp::Add, 26, 26, 27);
            }
            b.movf(27, 8.0);
            b.fbin(FBinOp::Div, 26, 26, 27);
            b.fun(FUnOp::ToInt, 26, 26); // i64 coefficient
            b.alu(IAluOp::And, 26, 26, Operand::Imm(0xFFFF));
            b.alu(IAluOp::Shl, 26, 26, Operand::Imm(16 * k as i64));
            b.alu(IAluOp::Or, 30, 30, Operand::Reg(26));
        }
        b.region_end(1);
        b.st(MemWidth::B8, 30, 6, 0);
        b.alu(IAluOp::Add, 1, 1, Operand::Imm(1));
        b.branch(Cond::LtS, 1, Operand::Imm(pairs as i64), a_top);

        // ---- Pass B: two records (16 bytes) -> 4 requantised i16 ----
        b.movi(1, 0);
        let b_top = b.label("b_top");
        b.bind(b_top);
        b.alu(IAluOp::Shl, 5, 1, Operand::Imm(4)); // ×16 bytes (2 records)
        b.alu(IAluOp::Add, 5, 5, Operand::Imm(MID_BASE as i64));
        b.alu(IAluOp::Shl, 6, 1, Operand::Imm(3));
        b.alu(IAluOp::Add, 6, 6, Operand::Imm(OUT_BASE as i64));
        let load_b0 = b.here();
        b.ld(MemWidth::B8, 10, 5, 0); // record 0 (4 × i16)
        b.ld(MemWidth::B8, 11, 5, 8); // record 1
        b.region_begin(2);
        b.movi(30, 0);
        for k in 0..4i64 {
            // c0 = sign-extended 16-bit lane k of r10; c1 likewise r11.
            b.alu(IAluOp::Shl, 20, 10, Operand::Imm(48 - 16 * k));
            b.alu(IAluOp::Sar, 20, 20, Operand::Imm(48));
            b.alu(IAluOp::Shl, 21, 11, Operand::Imm(48 - 16 * k));
            b.alu(IAluOp::Sar, 21, 21, Operand::Imm(48));
            b.alu(IAluOp::Add, 20, 20, Operand::Reg(21));
            b.movi(21, 4);
            b.alu(IAluOp::Div, 20, 20, Operand::Reg(21));
            b.alu(IAluOp::And, 20, 20, Operand::Imm(0xFFFF));
            b.alu(IAluOp::Shl, 20, 20, Operand::Imm(16 * k));
            b.alu(IAluOp::Or, 30, 30, Operand::Reg(20));
        }
        b.region_end(2);
        b.st(MemWidth::B8, 30, 6, 0);
        b.alu(IAluOp::Add, 1, 1, Operand::Imm(1));
        b.branch(Cond::LtS, 1, Operand::Imm(pairs as i64 / 2), b_top);
        b.halt();

        let program = b.build().expect("jpeg builds");
        let specs = vec![
            RegionSpec {
                region: 1,
                lut: lut_a,
                input_loads: (0..16)
                    .map(|k| InputLoad {
                        index: load_a0 + k,
                        trunc: TRUNC_A,
                    })
                    .collect(),
                reg_inputs: vec![],
                output: 30,
            },
            RegionSpec {
                region: 2,
                lut: lut_b,
                input_loads: (0..2)
                    .map(|k| InputLoad {
                        index: load_b0 + k,
                        trunc: TRUNC_B,
                    })
                    .collect(),
                reg_inputs: vec![],
                output: 30,
            },
        ];
        (program, specs)
    }

    fn setup(&self, scale: Scale, dataset: Dataset) -> Machine {
        let d = dim(scale);
        let mut machine = Machine::new(OUT_BASE as usize + d * d + 4096);
        let mut rng = Rng::new(dataset.seed() ^ 0x19E6u64);
        let field = SmoothField {
            w: d / 16,
            h: d,
            cycles: 1.0,
            noise: 0.0,
            offset: 0.0,
            amplitude: 1.0,
        };
        let tiles = field.generate(&mut rng);
        let mut pixels = vec![0u8; d * d];
        for ty in 0..d {
            for tx in 0..d / 16 {
                let v = tiles[ty * (d / 16) + tx];
                let textured = rng.f32() < 0.3;
                for k in 0..16usize {
                    let level = if textured {
                        (rng.index(256)) as u8
                    } else {
                        // Flat tile: one of 16 gray levels plus noise
                        // below the 2-bit absolute truncation step.
                        let base = ((v.clamp(0.0, 1.0) * 15.0).floor() * 16.0) as u8;
                        base.saturating_add(rng.index(3) as u8)
                    };
                    pixels[ty * d + tx * 16 + k] = level;
                }
            }
        }
        machine
            .store_bytes(IN_BASE, &pixels)
            .expect("jpeg pixels fit in memory");
        machine
    }

    fn outputs(&self, machine: &Machine, scale: Scale) -> Vec<f64> {
        let d = dim(scale);
        let pairs = (d / 2) * (d / 16);
        let mut records = vec![0u8; 8 * (pairs / 2)];
        machine
            .load_bytes(OUT_BASE, &mut records)
            .expect("jpeg records lie in memory");
        let mut out = Vec::with_capacity(4 * (pairs / 2));
        for rec in records.chunks_exact(8) {
            let rec = u64::from_le_bytes(rec.try_into().expect("eight bytes"));
            for k in 0..4 {
                let lane = ((rec >> (16 * k)) & 0xFFFF) as u16 as i16;
                out.push(f64::from(lane));
            }
        }
        out
    }

    fn golden(&self, machine: &Machine, scale: Scale) -> Vec<f64> {
        let d = dim(scale);
        let pairs = (d / 2) * (d / 16);
        // Pass A.
        let mut pixels = vec![0u8; 16 * pairs];
        machine
            .load_bytes(IN_BASE, &mut pixels)
            .expect("jpeg pixels lie in memory");
        let records: Vec<[i16; 4]> = pixels
            .chunks_exact(16)
            .map(|px| row_pair_dct(px.try_into().expect("sixteen pixels")))
            .collect();
        // Pass B.
        let mut out = Vec::new();
        for i in 0..pairs / 2 {
            let mut c = [0i16; 8];
            c[..4].copy_from_slice(&records[2 * i]);
            c[4..].copy_from_slice(&records[2 * i + 1]);
            for v in requantise(&c) {
                out.push(f64::from(v));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::test_support::{check_golden, check_memoized};

    #[test]
    fn flat_block_has_dc_only() {
        let px = [200u8; 16];
        let c = row_pair_dct(&px);
        assert!(c[0] > 0, "DC {}", c[0]);
        assert_eq!(&c[1..], &[0, 0, 0]);
    }

    #[test]
    fn requantise_averages_bands() {
        let c = [8, 4, 0, -8, 8, 4, 0, -8];
        assert_eq!(requantise(&c), [4, 2, 0, -4]);
    }

    #[test]
    fn ir_matches_golden() {
        check_golden(&Jpeg, 1e-6);
    }

    #[test]
    fn memoized_run_is_accurate_and_hits() {
        let hit_rate = check_memoized(&Jpeg, 0.05);
        assert!(hit_rate > 0.2, "hit rate {hit_rate}");
    }
}
