//! Hotspot — thermal simulation of an IC (Rodinia).
//!
//! One explicit time step of a 2-D heat diffusion stencil. The memoized
//! block takes 4 × f32 = 16 bytes (Table 2): the centre temperature, the
//! pre-summed horizontal and vertical neighbour temperatures, and the
//! local power dissipation. The neighbour sums are computed *outside*
//! the region with ordinary adds — matching the paper's 16-byte input
//! budget while keeping the expensive update inside the LUT.
//! Truncation 8.
//!
//! Dataset: smooth power and temperature maps (the physical fields the
//! 512×512 Rodinia inputs describe), posterised power so identical
//! (temp, power) neighbourhoods recur.

use super::{interior, load_f32s, store_f32s};
use crate::gen::{Rng, SmoothField};
use crate::meta::{Metric, WorkloadMeta};
use crate::{Benchmark, Dataset, Scale};
use axmemo_compiler::{RegInput, RegionSpec};
use axmemo_core::ids::LutId;
use axmemo_sim::builder::ProgramBuilder;
use axmemo_sim::cpu::Machine;
use axmemo_sim::ir::{Cond, FBinOp, IAluOp, MemWidth, Operand, Program};

const TEMP_BASE: u64 = 0x1_0000;
const POWER_BASE: u64 = 0x40_0000;
const OUT_BASE: u64 = 0x80_0000;
const TRUNC: u8 = 8;

/// Stencil coefficients (lumped thermal RC constants).
const C_CENTER: f32 = 0.996;
const C_NEIGH: f32 = 0.018;
const C_POWER: f32 = 0.35;
const T_AMB: f32 = 80.0;

fn dim(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 32,
        Scale::Small => 128,
        Scale::Full => 512,
    }
}

/// The hotspot benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Hotspot;

/// Golden one-point update (op-for-op the IR region).
pub fn update(center: f32, horiz_sum: f32, vert_sum: f32, power: f32) -> f32 {
    let neigh = horiz_sum + vert_sum - 4.0 * center;
    center * C_CENTER + neigh * C_NEIGH + power * C_POWER + (T_AMB - center) * 0.004
}

impl Benchmark for Hotspot {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "hotspot",
            suite: "Rodinia",
            domain: "Physics Simulation",
            description: "Simulates the temperature of an IC chip",
            dataset: "smooth temperature field + posterised power map",
            input_bytes: &[16],
            truncated_bits: &[TRUNC],
            metric: Metric::Numeric,
        }
    }

    fn program(&self, scale: Scale) -> (Program, Vec<RegionSpec>) {
        let d = dim(scale) as i64;
        let lut = LutId::new(0).unwrap();
        let stride = 4 * d as i32;
        let mut b = ProgramBuilder::new();
        b.movi(1, 1); // y
        let y_top = b.label("y");
        b.bind(y_top);
        b.movi(2, 1); // x
        let x_top = b.label("x");
        b.bind(x_top);
        // r5 = &temp[y][x], r6 = &power[y][x], r7 = &out[y][x]
        b.movi(0, 4 * d as u64);
        b.alu(IAluOp::Mul, 5, 1, Operand::Reg(0));
        b.alu(IAluOp::Shl, 8, 2, Operand::Imm(2));
        b.alu(IAluOp::Add, 5, 5, Operand::Reg(8));
        b.alu(IAluOp::Add, 6, 5, Operand::Imm(POWER_BASE as i64));
        b.alu(IAluOp::Add, 7, 5, Operand::Imm(OUT_BASE as i64));
        b.alu(IAluOp::Add, 5, 5, Operand::Imm(TEMP_BASE as i64));
        // Loads: center, 4 neighbours, power. Neighbour sums are plain
        // arithmetic before the region.
        b.ld(MemWidth::B4, 10, 5, 0); // center
        b.ld(MemWidth::B4, 11, 5, -4); // west
        b.ld(MemWidth::B4, 12, 5, 4); // east
        b.ld(MemWidth::B4, 13, 5, -stride); // north
        b.ld(MemWidth::B4, 14, 5, stride); // south
        b.ld(MemWidth::B4, 15, 6, 0); // power
        b.fbin(FBinOp::Add, 16, 11, 12); // horiz sum
        b.fbin(FBinOp::Add, 17, 13, 14); // vert sum
        b.region_begin(1);
        // neigh = h + v - 4c -> r20
        b.fbin(FBinOp::Add, 20, 16, 17);
        b.movf(21, 4.0);
        b.fbin(FBinOp::Mul, 21, 21, 10);
        b.fbin(FBinOp::Sub, 20, 20, 21);
        // out = c·C_CENTER + neigh·C_NEIGH + p·C_POWER + (T_AMB−c)·0.004
        b.movf(21, C_CENTER);
        b.fbin(FBinOp::Mul, 21, 21, 10);
        b.movf(22, C_NEIGH);
        b.fbin(FBinOp::Mul, 22, 22, 20);
        b.fbin(FBinOp::Add, 21, 21, 22);
        b.movf(22, C_POWER);
        b.fbin(FBinOp::Mul, 22, 22, 15);
        b.fbin(FBinOp::Add, 21, 21, 22);
        b.movf(22, T_AMB);
        b.fbin(FBinOp::Sub, 22, 22, 10);
        b.movf(23, 0.004);
        b.fbin(FBinOp::Mul, 22, 22, 23);
        b.fbin(FBinOp::Add, 30, 21, 22);
        b.region_end(1);
        b.st(MemWidth::B4, 30, 7, 0);
        b.alu(IAluOp::Add, 2, 2, Operand::Imm(1));
        b.branch(Cond::LtS, 2, Operand::Imm(d - 1), x_top);
        b.alu(IAluOp::Add, 1, 1, Operand::Imm(1));
        b.branch(Cond::LtS, 1, Operand::Imm(d - 1), y_top);
        b.halt();
        let program = b.build().expect("hotspot builds");
        let specs = vec![RegionSpec {
            region: 1,
            lut,
            input_loads: vec![],
            reg_inputs: [10u8, 16, 17, 15]
                .iter()
                .map(|&reg| RegInput {
                    reg,
                    width: MemWidth::B4,
                    trunc: TRUNC,
                })
                .collect(),
            output: 30,
        }];
        (program, specs)
    }

    fn setup(&self, scale: Scale, dataset: Dataset) -> Machine {
        let d = dim(scale);
        let mut machine = Machine::new(OUT_BASE as usize + d * d * 4 + 4096);
        let mut rng = Rng::new(dataset.seed() ^ 0x407);
        let temp_field = SmoothField {
            w: d,
            h: d,
            cycles: 1.0,
            noise: 0.0,
            offset: 315.0,
            amplitude: 10.0,
        };
        // Posterise temperature into 0.25-degree steps (sensor/ADC
        // granularity) with sub-truncation jitter.
        let temps: Vec<f32> = temp_field
            .generate(&mut rng)
            .into_iter()
            .map(|v| (v * 4.0).floor() / 4.0 + 1e-4 * rng.f32())
            .collect();
        store_f32s(&mut machine, TEMP_BASE, &temps);
        // Power map: blocky functional units (posterised to 8 levels).
        let power_field = SmoothField {
            w: d,
            h: d,
            cycles: 2.0,
            noise: 0.0,
            offset: 0.0,
            amplitude: 1.0,
        };
        let powers: Vec<f32> = power_field
            .generate(&mut rng)
            .into_iter()
            .map(|v| (v * 8.0).floor() / 8.0 * 0.6)
            .collect();
        store_f32s(&mut machine, POWER_BASE, &powers);
        machine
    }

    fn outputs(&self, machine: &Machine, scale: Scale) -> Vec<f64> {
        interior(&load_f32s(machine, OUT_BASE, dim(scale).pow(2)), dim(scale))
    }

    fn golden(&self, machine: &Machine, scale: Scale) -> Vec<f64> {
        let d = dim(scale);
        let temps = load_f32s(machine, TEMP_BASE, d * d);
        let powers = load_f32s(machine, POWER_BASE, d * d);
        let t = |x: usize, y: usize| temps[y * d + x];
        let p = |x: usize, y: usize| powers[y * d + x];
        let mut out = Vec::new();
        for y in 1..d - 1 {
            for x in 1..d - 1 {
                let h = t(x - 1, y) + t(x + 1, y);
                let v = t(x, y - 1) + t(x, y + 1);
                out.push(f64::from(update(t(x, y), h, v, p(x, y))));
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
    fn equilibrium_point_is_stable() {
        // Uniform field at ambient with no power stays near ambient.
        let next = update(T_AMB, 2.0 * T_AMB, 2.0 * T_AMB, 0.0);
        assert!((next - T_AMB).abs() < 2.0, "next {next}");
    }

    #[test]
    fn power_heats_the_cell() {
        let base = update(320.0, 640.0, 640.0, 0.0);
        let powered = update(320.0, 640.0, 640.0, 0.5);
        assert!(powered > base);
    }

    #[test]
    fn ir_matches_golden() {
        check_golden(&Hotspot, 1e-4);
    }

    #[test]
    fn memoized_run_is_accurate_and_hits() {
        let hit_rate = check_memoized(&Hotspot, 1e-3);
        assert!(hit_rate > 0.2, "hit rate {hit_rate}");
    }
}
