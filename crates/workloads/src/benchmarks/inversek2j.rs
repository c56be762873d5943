//! Inversek2j — inverse kinematics of a two-joint arm (AxBench).
//!
//! Per target point (x, y) the kernel solves the standard two-link
//! inverse-kinematics closed form for the joint angles (θ1, θ2):
//!
//! ```text
//! θ2 = acos((x² + y² − l1² − l2²) / (2 l1 l2))
//! θ1 = atan(y/x) − atan(l2 sin θ2 / (l1 + l2 cos θ2))
//! ```
//!
//! acos is expanded as `π/2 − atan(z / √(1−z²))` over our `Atan`
//! pseudo-instruction, and sin/cos of θ2 are recovered from z without
//! extra trig (`cos θ2 = z`, `sin θ2 = √(1−z²)`). Memoization input:
//! 2 × f32 = 8 bytes, truncation 8 (Table 2); output: (θ1, θ2) packed
//! into an 8-byte LUT entry.
//!
//! Dataset: the paper uses 1.24M angle pairs. We synthesise targets by
//! forward kinematics from a quantised angle grid plus jitter *below*
//! the 8-bit truncation step — near-identical targets that only collapse
//! into LUT hits when truncation is enabled (the Fig. 11 contrast).

use super::{load_f32s, load_f64s, store_f32s};
use crate::gen::Rng;
use crate::meta::{Metric, WorkloadMeta};
use crate::{Benchmark, Dataset, Scale};
use axmemo_compiler::{InputLoad, RegionSpec};
use axmemo_core::config::DataWidth;
use axmemo_core::ids::LutId;
use axmemo_sim::builder::ProgramBuilder;
use axmemo_sim::cpu::Machine;
use axmemo_sim::ir::{Cond, FBinOp, FUnOp, IAluOp, MemWidth, Operand, Program};

const IN_BASE: u64 = 0x1_0000;
const OUT_BASE: u64 = 0x40_0000;
const L1: f32 = 0.5;
const L2: f32 = 0.5;
const TRUNC: u8 = 8;

fn count(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 1024,
        Scale::Small => 30_000,
        Scale::Full => 300_000,
    }
}

/// The inversek2j benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Inversek2j;

/// Joint-angle grid: `GRID_A1 × GRID_A2` = 384 poses.
const GRID_A1: usize = 24;
const GRID_A2: usize = 16;

/// End-effector position of joint angles `(a1, a2)`.
fn forward(a1: f32, a2: f32) -> (f32, f32) {
    (
        L1 * a1.cos() + L2 * (a1 + a2).cos(),
        L1 * a1.sin() + L2 * (a1 + a2).sin(),
    )
}

/// The position of every grid pose, at index `a1 * GRID_A2 + a2`.
fn pose_table() -> Vec<(f32, f32)> {
    (0..GRID_A1)
        .flat_map(|a1| (0..GRID_A2).map(move |a2| (a1, a2)))
        .map(|(a1, a2)| {
            forward(
                0.2 + 1.2 * a1 as f32 / GRID_A1 as f32,
                0.3 + 1.8 * a2 as f32 / GRID_A2 as f32,
            )
        })
        .collect()
}

/// Golden solver, op-for-op the IR kernel.
pub fn solve(x: f32, y: f32) -> (f32, f32) {
    let z = (x * x + y * y - L1 * L1 - L2 * L2) / (2.0 * L1 * L2);
    let z = z.clamp(-0.999999, 0.999999);
    let s = (1.0 - z * z).sqrt();
    let theta2 = std::f32::consts::FRAC_PI_2 - (z / s).atan();
    let theta1 = (y / x).atan() - (L2 * s / (L1 + L2 * z)).atan();
    (theta1, theta2)
}

impl Benchmark for Inversek2j {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "inversek2j",
            suite: "AxBench",
            domain: "Robotics",
            description: "Calculates the angles of a two-joint arm",
            dataset: "targets from a quantised angle grid with sub-truncation jitter",
            input_bytes: &[8],
            truncated_bits: &[TRUNC],
            metric: Metric::Numeric,
        }
    }

    fn data_width(&self) -> DataWidth {
        DataWidth::W8
    }

    fn program(&self, scale: Scale) -> (Program, Vec<RegionSpec>) {
        let n = count(scale) as u64;
        let lut = LutId::new(0).unwrap();
        let mut b = ProgramBuilder::new();
        b.movi(1, 0).movi(2, n).movi(3, IN_BASE).movi(4, OUT_BASE);
        let top = b.label("top");
        b.bind(top);
        b.alu(IAluOp::Shl, 5, 1, Operand::Imm(3)); // 8 bytes per input pair
        b.alu(IAluOp::Add, 5, 5, Operand::Reg(3));
        b.alu(IAluOp::Shl, 6, 1, Operand::Imm(3)); // 8 bytes per output pair
        b.alu(IAluOp::Add, 6, 6, Operand::Reg(4));
        let load0 = b.here();
        b.ld(MemWidth::B4, 10, 5, 0); // x
        b.ld(MemWidth::B4, 11, 5, 4); // y
        b.region_begin(1);
        // z = (x² + y² − l1² − l2²) / (2 l1 l2) -> r20
        b.fbin(FBinOp::Mul, 20, 10, 10);
        b.fbin(FBinOp::Mul, 21, 11, 11);
        b.fbin(FBinOp::Add, 20, 20, 21);
        b.movf(21, L1 * L1 + L2 * L2);
        b.fbin(FBinOp::Sub, 20, 20, 21);
        b.movf(21, 2.0 * L1 * L2);
        b.fbin(FBinOp::Div, 20, 20, 21);
        // clamp z to (-1, 1)
        b.movf(21, 0.999999);
        b.fbin(FBinOp::Min, 20, 20, 21);
        b.movf(21, -0.999999);
        b.fbin(FBinOp::Max, 20, 20, 21);
        // s = sqrt(1 - z²) -> r22
        b.fbin(FBinOp::Mul, 22, 20, 20);
        b.movf(21, 1.0);
        b.fbin(FBinOp::Sub, 22, 21, 22);
        b.fun(FUnOp::Sqrt, 22, 22);
        // θ2 = π/2 − atan(z/s) -> r23
        b.fbin(FBinOp::Div, 23, 20, 22);
        b.fun(FUnOp::Atan, 23, 23);
        b.movf(21, std::f32::consts::FRAC_PI_2);
        b.fbin(FBinOp::Sub, 23, 21, 23);
        // θ1 = atan(y/x) − atan(l2 s / (l1 + l2 z)) -> r24
        b.fbin(FBinOp::Div, 24, 11, 10);
        b.fun(FUnOp::Atan, 24, 24);
        b.movf(21, L2);
        b.fbin(FBinOp::Mul, 25, 21, 22);
        b.fbin(FBinOp::Mul, 26, 21, 20);
        b.movf(21, L1);
        b.fbin(FBinOp::Add, 26, 26, 21);
        b.fbin(FBinOp::Div, 25, 25, 26);
        b.fun(FUnOp::Atan, 25, 25);
        b.fbin(FBinOp::Sub, 24, 24, 25);
        // pack (θ1, θ2) -> r30
        b.alu(IAluOp::PackLo32, 30, 24, Operand::Reg(23));
        b.region_end(1);
        // unpack & store
        b.alu(IAluOp::And, 24, 30, Operand::Imm(0xFFFF_FFFF));
        b.alu(IAluOp::Shr, 23, 30, Operand::Imm(32));
        b.st(MemWidth::B4, 24, 6, 0);
        b.st(MemWidth::B4, 23, 6, 4);
        b.alu(IAluOp::Add, 1, 1, Operand::Imm(1));
        b.branch(Cond::LtS, 1, Operand::Reg(2), top);
        b.halt();
        let program = b.build().expect("inversek2j builds");
        let specs = vec![RegionSpec {
            region: 1,
            lut,
            input_loads: vec![
                InputLoad {
                    index: load0,
                    trunc: TRUNC,
                },
                InputLoad {
                    index: load0 + 1,
                    trunc: TRUNC,
                },
            ],
            reg_inputs: vec![],
            output: 30,
        }];
        (program, specs)
    }

    fn setup(&self, scale: Scale, dataset: Dataset) -> Machine {
        let n = count(scale);
        let mut machine = Machine::new(OUT_BASE as usize + n * 8 + 4096);
        let mut rng = Rng::new(dataset.seed() ^ 0x1A2u64);
        // Jitter below the truncation step (trunc 8 on f32 ≈ 2^-15
        // relative) on targets drawn from the pose grid.
        let poses = pose_table();
        let mut targets = Vec::with_capacity(2 * n);
        for _ in 0..n {
            let a1 = rng.index(GRID_A1);
            let a2 = rng.index(GRID_A2);
            let (x, y) = poses[a1 * GRID_A2 + a2];
            let jx = x * (1.0 + 4e-6 * rng.f32());
            let jy = y * (1.0 + 4e-6 * rng.f32());
            targets.extend([jx.max(0.05), jy]);
        }
        store_f32s(&mut machine, IN_BASE, &targets);
        machine
    }

    fn outputs(&self, machine: &Machine, scale: Scale) -> Vec<f64> {
        load_f64s(machine, OUT_BASE, 2 * count(scale))
    }

    fn golden(&self, machine: &Machine, scale: Scale) -> Vec<f64> {
        let targets = load_f32s(machine, IN_BASE, 2 * count(scale));
        let mut out = Vec::with_capacity(targets.len());
        for xy in targets.chunks_exact(2) {
            let (t1, t2) = solve(xy[0], xy[1]);
            out.push(f64::from(t1));
            out.push(f64::from(t2));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::test_support::{check_golden, check_memoized};

    #[test]
    fn solver_round_trips_forward_kinematics() {
        // Pick joint angles, run forward kinematics, solve back.
        for &(a1, a2) in &[(0.4f32, 0.9f32), (0.8, 1.2), (1.1, 0.5)] {
            let (x, y) = forward(a1, a2);
            let (t1, t2) = solve(x, y);
            assert!((t1 - a1).abs() < 1e-2, "θ1 {t1} vs {a1}");
            assert!((t2 - a2).abs() < 1e-2, "θ2 {t2} vs {a2}");
        }
    }

    #[test]
    fn ir_matches_golden() {
        check_golden(&Inversek2j, 1e-3);
    }

    #[test]
    fn memoized_run_is_accurate_and_hits() {
        let hit_rate = check_memoized(&Inversek2j, 1e-3);
        // 384 poses, jitter collapsed by truncation.
        assert!(hit_rate > 0.4, "hit rate {hit_rate}");
    }
}
