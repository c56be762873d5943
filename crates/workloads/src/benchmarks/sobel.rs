//! Sobel — 3×3 edge-detection filter (AxBench).
//!
//! Per interior pixel the kernel loads its 3×3 neighbourhood (9 × f32 =
//! 36 bytes, the paper's marquee example of why concatenated tags are
//! infeasible), convolves with the Sobel Gx/Gy masks, and writes the
//! clamped gradient magnitude. Truncation 16 (Table 2): neighbourhoods
//! in smooth image areas collapse into the same LUT tag once 16 mantissa
//! LSBs are dropped.
//!
//! Dataset: a posterized smooth image — large near-constant patches
//! (as in real photos' sky/wall regions) carrying per-pixel noise kept
//! below the truncation step, standing in for the 512×512 RGB photo.
//! Windows inside a flat patch collapse to one LUT tag after
//! truncation; with truncation disabled the noise keeps every window
//! distinct (the Fig. 11 contrast).

use super::{interior, load_f32s, store_f32s};
use crate::gen::{Rng, SmoothField};
use crate::meta::{Metric, WorkloadMeta};
use crate::{Benchmark, Dataset, Scale};
use axmemo_compiler::{InputLoad, RegionSpec};
use axmemo_core::ids::LutId;
use axmemo_sim::builder::ProgramBuilder;
use axmemo_sim::cpu::Machine;
use axmemo_sim::ir::{Cond, FBinOp, FUnOp, IAluOp, MemWidth, Operand, Program};

const IN_BASE: u64 = 0x1_0000;
const OUT_BASE: u64 = 0x40_0000;
const TRUNC: u8 = 16;

fn dim(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 32,
        Scale::Small => 128,
        Scale::Full => 512,
    }
}

/// The sobel benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Sobel;

/// Golden per-window kernel (window in row-major order).
pub fn magnitude(w: &[f32; 9]) -> f32 {
    // Grouped exactly as the IR kernel associates the sums (FP addition
    // is not associative; near-cancelling windows would otherwise
    // diverge from the simulated binary).
    let dx1 = w[2] - w[0];
    let dx2 = w[5] - w[3];
    let gx = dx1 + (dx2 + dx2) + (w[8] - w[6]);
    let dy1 = w[6] - w[0];
    let dy2 = w[7] - w[1];
    let gy = dy1 + (dy2 + dy2) + (w[8] - w[2]);
    (gx * gx + gy * gy).sqrt().min(1.0)
}

impl Benchmark for Sobel {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "sobel",
            suite: "AxBench",
            domain: "Image Processing",
            description: "Applies the Sobel filter to an image",
            dataset: "smooth synthetic grayscale image",
            input_bytes: &[36],
            truncated_bits: &[TRUNC],
            metric: Metric::Image,
        }
    }

    fn program(&self, scale: Scale) -> (Program, Vec<RegionSpec>) {
        let d = dim(scale) as i64;
        let lut = LutId::new(0).unwrap();
        let mut b = ProgramBuilder::new();
        // r1 = y (1..d-1), r2 = x (1..d-1)
        b.movi(1, 1);
        let y_top = b.label("y");
        b.bind(y_top);
        b.movi(2, 1);
        let x_top = b.label("x");
        b.bind(x_top);
        // r5 = &in[y][x] ; r6 = &out[y][x]
        b.movi(0, 4 * d as u64);
        b.alu(IAluOp::Mul, 5, 1, Operand::Reg(0));
        b.alu(IAluOp::Shl, 6, 2, Operand::Imm(2));
        b.alu(IAluOp::Add, 5, 5, Operand::Reg(6));
        b.alu(IAluOp::Add, 6, 5, Operand::Imm(OUT_BASE as i64));
        b.alu(IAluOp::Add, 5, 5, Operand::Imm(IN_BASE as i64));
        // 9 window loads r10..r18 (rows at -stride, 0, +stride).
        let stride = 4 * d as i32;
        let load0 = b.here();
        b.ld(MemWidth::B4, 10, 5, -stride - 4);
        b.ld(MemWidth::B4, 11, 5, -stride);
        b.ld(MemWidth::B4, 12, 5, -stride + 4);
        b.ld(MemWidth::B4, 13, 5, -4);
        b.ld(MemWidth::B4, 14, 5, 0);
        b.ld(MemWidth::B4, 15, 5, 4);
        b.ld(MemWidth::B4, 16, 5, stride - 4);
        b.ld(MemWidth::B4, 17, 5, stride);
        b.ld(MemWidth::B4, 18, 5, stride + 4);
        b.region_begin(1);
        // gx = -w0 + w2 - 2w3 + 2w5 - w6 + w8 -> r20
        b.fbin(FBinOp::Sub, 20, 12, 10);
        b.fbin(FBinOp::Sub, 21, 15, 13);
        b.fbin(FBinOp::Add, 21, 21, 21); // 2(w5-w3)
        b.fbin(FBinOp::Add, 20, 20, 21);
        b.fbin(FBinOp::Sub, 21, 18, 16);
        b.fbin(FBinOp::Add, 20, 20, 21);
        // gy = -w0 - 2w1 - w2 + w6 + 2w7 + w8 -> r22
        b.fbin(FBinOp::Sub, 22, 16, 10);
        b.fbin(FBinOp::Sub, 23, 17, 11);
        b.fbin(FBinOp::Add, 23, 23, 23);
        b.fbin(FBinOp::Add, 22, 22, 23);
        b.fbin(FBinOp::Sub, 23, 18, 12);
        b.fbin(FBinOp::Add, 22, 22, 23);
        // mag = min(sqrt(gx² + gy²), 1) -> r30
        b.fbin(FBinOp::Mul, 20, 20, 20);
        b.fbin(FBinOp::Mul, 22, 22, 22);
        b.fbin(FBinOp::Add, 20, 20, 22);
        b.fun(FUnOp::Sqrt, 30, 20);
        b.movf(23, 1.0);
        b.fbin(FBinOp::Min, 30, 30, 23);
        b.region_end(1);
        b.st(MemWidth::B4, 30, 6, 0);
        b.alu(IAluOp::Add, 2, 2, Operand::Imm(1));
        b.branch(Cond::LtS, 2, Operand::Imm(d - 1), x_top);
        b.alu(IAluOp::Add, 1, 1, Operand::Imm(1));
        b.branch(Cond::LtS, 1, Operand::Imm(d - 1), y_top);
        b.halt();
        let program = b.build().expect("sobel builds");
        let specs = vec![RegionSpec {
            region: 1,
            lut,
            input_loads: (0..9)
                .map(|k| InputLoad {
                    index: load0 + k,
                    trunc: TRUNC,
                })
                .collect(),
            reg_inputs: vec![],
            output: 30,
        }];
        (program, specs)
    }

    fn setup(&self, scale: Scale, dataset: Dataset) -> Machine {
        let d = dim(scale);
        let mut machine = Machine::new(OUT_BASE as usize + d * d * 4 + 4096);
        let mut rng = Rng::new(dataset.seed() ^ 0x50B);
        let field = SmoothField {
            w: d,
            h: d,
            cycles: 1.5,
            noise: 0.0,
            offset: 0.1,
            amplitude: 0.8,
        };
        // Posterize into 12 flat levels, then add noise below the
        // 16-bit truncation step so only truncated hashing collapses it.
        let image: Vec<f32> = field
            .generate(&mut rng)
            .into_iter()
            .map(|v| {
                let level = (v * 12.0).floor() / 12.0 + 0.08;
                level + 2e-4 * rng.f32()
            })
            .collect();
        store_f32s(&mut machine, IN_BASE, &image);
        machine
    }

    fn outputs(&self, machine: &Machine, scale: Scale) -> Vec<f64> {
        interior(&load_f32s(machine, OUT_BASE, dim(scale).pow(2)), dim(scale))
    }

    fn golden(&self, machine: &Machine, scale: Scale) -> Vec<f64> {
        let d = dim(scale);
        let image = load_f32s(machine, IN_BASE, d * d);
        let px = |x: usize, y: usize| image[y * d + x];
        let mut out = Vec::new();
        for y in 1..d - 1 {
            for x in 1..d - 1 {
                let w = [
                    px(x - 1, y - 1),
                    px(x, y - 1),
                    px(x + 1, y - 1),
                    px(x - 1, y),
                    px(x, y),
                    px(x + 1, y),
                    px(x - 1, y + 1),
                    px(x, y + 1),
                    px(x + 1, y + 1),
                ];
                out.push(f64::from(magnitude(&w)));
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
    fn flat_window_has_zero_magnitude() {
        assert_eq!(magnitude(&[0.5; 9]), 0.0);
    }

    #[test]
    fn vertical_edge_detected() {
        let w = [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0];
        assert!(magnitude(&w) > 0.9);
    }

    #[test]
    fn ir_matches_golden() {
        check_golden(&Sobel, 1e-4);
    }

    #[test]
    fn memoized_run_is_accurate_and_hits() {
        let hit_rate = check_memoized(&Sobel, 0.01);
        assert!(hit_rate > 0.3, "hit rate {hit_rate}");
    }
}
