//! SRAD — speckle-reducing anisotropic diffusion (Rodinia).
//!
//! One diffusion-coefficient pass of the SRAD denoiser. Per interior
//! pixel the kernel takes 6 × f32 = 24 bytes (Table 2): the centre
//! intensity, its four neighbours, and the global speckle statistic
//! q0², and computes the diffusion coefficient
//!
//! ```text
//! G  = (dN² + dS² + dW² + dE²) / J²       (normalised gradient)
//! L  = (dN + dS + dW + dE) / J            (normalised Laplacian)
//! q² = (G/2 − (L/4)²) / (1 + L/2)²
//! c  = clamp(1 / (1 + (q² − q0²) / (q0² (1 + q0²))), 0, 1)
//! ```
//!
//! Truncation 18 (the most aggressive in Table 2): the coefficient is a
//! saturating function, so coarse inputs barely move the output.
//!
//! Dataset: a posterised smooth field standing in for the 458×502
//! ultrasound image (speckle modelled as sub-truncation noise).

use super::{interior, load_f32s, store_f32s};
use crate::gen::{Rng, SmoothField};
use crate::meta::{Metric, WorkloadMeta};
use crate::{Benchmark, Dataset, Scale};
use axmemo_compiler::{InputLoad, RegInput, RegionSpec};
use axmemo_core::ids::LutId;
use axmemo_sim::builder::ProgramBuilder;
use axmemo_sim::cpu::Machine;
use axmemo_sim::ir::{Cond, FBinOp, IAluOp, MemWidth, Operand, Program};

const IN_BASE: u64 = 0x1_0000;
const OUT_BASE: u64 = 0x40_0000;
const TRUNC: u8 = 18;
const Q0SQR: f32 = 0.05;

fn dim(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 32,
        Scale::Small => 128,
        Scale::Full => 480,
    }
}

/// The srad benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Srad;

/// Golden diffusion coefficient (op-for-op the IR region).
pub fn coefficient(j: f32, n: f32, s: f32, w: f32, e: f32, q0sqr: f32) -> f32 {
    let dn = n - j;
    let ds = s - j;
    let dw = w - j;
    let de = e - j;
    let jj = j * j;
    let g = (dn * dn + ds * ds + dw * dw + de * de) / jj;
    let l = (dn + ds + dw + de) / j;
    let num = 0.5 * g - 0.0625 * (l * l);
    let den = 1.0 + 0.5 * l;
    let qsqr = num / (den * den);
    let c = 1.0 / (1.0 + (qsqr - q0sqr) / (q0sqr * (1.0 + q0sqr)));
    c.clamp(0.0, 1.0)
}

impl Benchmark for Srad {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "srad",
            suite: "Rodinia",
            domain: "Medical Imaging",
            description: "Speckle-reducing anisotropic diffusion denoising",
            dataset: "posterised smooth field with sub-truncation speckle",
            input_bytes: &[24],
            truncated_bits: &[TRUNC],
            metric: Metric::Image,
        }
    }

    fn program(&self, scale: Scale) -> (Program, Vec<RegionSpec>) {
        let d = dim(scale) as i64;
        let stride = 4 * d as i32;
        let lut = LutId::new(0).unwrap();
        let mut b = ProgramBuilder::new();
        b.movi(1, 1); // y
        let y_top = b.label("y");
        b.bind(y_top);
        b.movi(2, 1); // x
        let x_top = b.label("x");
        b.bind(x_top);
        b.movi(0, 4 * d as u64);
        b.alu(IAluOp::Mul, 5, 1, Operand::Reg(0));
        b.alu(IAluOp::Shl, 6, 2, Operand::Imm(2));
        b.alu(IAluOp::Add, 5, 5, Operand::Reg(6));
        b.alu(IAluOp::Add, 6, 5, Operand::Imm(OUT_BASE as i64));
        b.alu(IAluOp::Add, 5, 5, Operand::Imm(IN_BASE as i64));
        let load0 = b.here();
        b.ld(MemWidth::B4, 10, 5, 0); // J
        b.ld(MemWidth::B4, 11, 5, -stride); // N
        b.ld(MemWidth::B4, 12, 5, stride); // S
        b.ld(MemWidth::B4, 13, 5, -4); // W
        b.ld(MemWidth::B4, 14, 5, 4); // E
        b.movf(15, Q0SQR); // the 6th input: global statistic in a reg
        b.region_begin(1);
        // deltas
        b.fbin(FBinOp::Sub, 20, 11, 10); // dN
        b.fbin(FBinOp::Sub, 21, 12, 10); // dS
        b.fbin(FBinOp::Sub, 22, 13, 10); // dW
        b.fbin(FBinOp::Sub, 23, 14, 10); // dE
                                         // G = (ΣdX²)/J² -> r24
        b.fbin(FBinOp::Mul, 24, 20, 20);
        b.fbin(FBinOp::Mul, 25, 21, 21);
        b.fbin(FBinOp::Add, 24, 24, 25);
        b.fbin(FBinOp::Mul, 25, 22, 22);
        b.fbin(FBinOp::Add, 24, 24, 25);
        b.fbin(FBinOp::Mul, 25, 23, 23);
        b.fbin(FBinOp::Add, 24, 24, 25);
        b.fbin(FBinOp::Mul, 25, 10, 10);
        b.fbin(FBinOp::Div, 24, 24, 25);
        // L = (ΣdX)/J -> r26
        b.fbin(FBinOp::Add, 26, 20, 21);
        b.fbin(FBinOp::Add, 26, 26, 22);
        b.fbin(FBinOp::Add, 26, 26, 23);
        b.fbin(FBinOp::Div, 26, 26, 10);
        // q² = (G/2 − (L/4)²) / (1 + L/2)² -> r27
        b.movf(25, 0.5);
        b.fbin(FBinOp::Mul, 27, 24, 25);
        b.movf(25, 0.25);
        b.fbin(FBinOp::Mul, 28, 26, 25);
        b.fbin(FBinOp::Mul, 28, 28, 28);
        b.fbin(FBinOp::Sub, 27, 27, 28);
        b.movf(25, 0.5);
        b.fbin(FBinOp::Mul, 28, 26, 25);
        b.movf(25, 1.0);
        b.fbin(FBinOp::Add, 28, 28, 25);
        b.fbin(FBinOp::Mul, 28, 28, 28);
        b.fbin(FBinOp::Div, 27, 27, 28);
        // c = 1 / (1 + (q² − q0²)/(q0²(1+q0²))) clamped -> r30
        b.fbin(FBinOp::Sub, 27, 27, 15);
        b.movf(25, 1.0);
        b.fbin(FBinOp::Add, 28, 25, 15);
        b.fbin(FBinOp::Mul, 28, 28, 15);
        b.fbin(FBinOp::Div, 27, 27, 28);
        b.fbin(FBinOp::Add, 27, 27, 25);
        b.fbin(FBinOp::Div, 30, 25, 27);
        b.movf(25, 0.0);
        b.fbin(FBinOp::Max, 30, 30, 25);
        b.movf(25, 1.0);
        b.fbin(FBinOp::Min, 30, 30, 25);
        b.region_end(1);
        b.st(MemWidth::B4, 30, 6, 0);
        b.alu(IAluOp::Add, 2, 2, Operand::Imm(1));
        b.branch(Cond::LtS, 2, Operand::Imm(d - 1), x_top);
        b.alu(IAluOp::Add, 1, 1, Operand::Imm(1));
        b.branch(Cond::LtS, 1, Operand::Imm(d - 1), y_top);
        b.halt();
        let program = b.build().expect("srad builds");
        let specs = vec![RegionSpec {
            region: 1,
            lut,
            input_loads: (0..5)
                .map(|k| InputLoad {
                    index: load0 + k,
                    trunc: TRUNC,
                })
                .collect(),
            reg_inputs: vec![RegInput {
                reg: 15,
                width: MemWidth::B4,
                trunc: TRUNC,
            }],
            output: 30,
        }];
        (program, specs)
    }

    fn setup(&self, scale: Scale, dataset: Dataset) -> Machine {
        let d = dim(scale);
        let mut machine = Machine::new(OUT_BASE as usize + d * d * 4 + 4096);
        let mut rng = Rng::new(dataset.seed() ^ 0x5AD);
        let field = SmoothField {
            w: d,
            h: d,
            cycles: 1.0,
            noise: 0.0,
            offset: 0.3,
            amplitude: 0.5,
        };
        // Posterise to tissue-intensity bands; speckle below the (very
        // coarse) 18-bit truncation step.
        let image: Vec<f32> = field
            .generate(&mut rng)
            .into_iter()
            .map(|v| (v * 10.0).floor() / 10.0 + 0.15 + 5e-4 * rng.f32())
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
                out.push(f64::from(coefficient(
                    px(x, y),
                    px(x, y - 1),
                    px(x, y + 1),
                    px(x - 1, y),
                    px(x + 1, y),
                    Q0SQR,
                )));
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
    fn flat_region_diffuses_fully() {
        // No gradient: q² = 0 < q0² so c saturates at (or above) 1 and
        // clamps to 1 — flat regions diffuse freely.
        let c = coefficient(0.5, 0.5, 0.5, 0.5, 0.5, Q0SQR);
        assert!((c - 1.0).abs() < 1e-6, "c {c}");
    }

    #[test]
    fn strong_edge_blocks_diffusion() {
        let c = coefficient(0.2, 0.9, 0.9, 0.9, 0.9, Q0SQR);
        assert!(c < 0.3, "c {c}");
    }

    #[test]
    fn ir_matches_golden() {
        check_golden(&Srad, 1e-3);
    }

    #[test]
    fn memoized_run_is_accurate_and_hits() {
        let hit_rate = check_memoized(&Srad, 0.01);
        assert!(hit_rate > 0.3, "hit rate {hit_rate}");
    }
}
