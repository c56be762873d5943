//! LavaMD — short-range particle interactions (Rodinia).
//!
//! For each (home, neighbour) particle pair the kernel evaluates a
//! Gaussian-kernel pairwise potential from the relative displacement:
//! the memoized block takes (dx, dy, dz) = 3 × f32 = 12 bytes (Table 2),
//! computes r² and u = e^(−2·r²), and returns the potential
//! contribution. Truncation 0: LavaMD's reuse comes from *exactly*
//! repeating displacement vectors, because particles sit on a jittered
//! lattice whose jitter repeats per cell pattern — the paper likewise
//! applies no truncation here (Table 2) yet still reports gains
//! (Fig. 11 shows lavamd barely changes without approximation).
//!
//! The displacement differences are computed outside the region (plain
//! subtracts); the expensive exponential chain is inside.

use super::{load_f32s, load_f64s, store_f32s};
use crate::gen::Rng;
use crate::meta::{Metric, WorkloadMeta};
use crate::{Benchmark, Dataset, Scale};
use axmemo_compiler::{RegInput, RegionSpec};
use axmemo_core::ids::LutId;
use axmemo_sim::builder::ProgramBuilder;
use axmemo_sim::cpu::Machine;
use axmemo_sim::ir::{Cond, FBinOp, FUnOp, IAluOp, MemWidth, Operand, Program};

const POS_BASE: u64 = 0x1_0000;
const OUT_BASE: u64 = 0x40_0000;

fn dims(scale: Scale) -> (usize, usize) {
    // (particles, neighbours per particle)
    match scale {
        Scale::Tiny => (64, 16),
        Scale::Small => (400, 32),
        Scale::Full => (1600, 100),
    }
}

/// The lavamd benchmark.
#[derive(Debug, Clone, Copy)]
pub struct LavaMd;

/// Golden pairwise potential (op-for-op the IR region).
pub fn potential(dx: f32, dy: f32, dz: f32) -> f32 {
    let r2 = dx * dx + dy * dy + dz * dz;
    let u = (-2.0 * r2).exp();
    u * (1.0 + r2)
}

impl Benchmark for LavaMd {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "lavamd",
            suite: "Rodinia",
            domain: "Molecular Dynamics",
            description: "Particle interactions under a cutoff potential",
            dataset: "particles on a jittered lattice with repeating cell pattern",
            input_bytes: &[12],
            truncated_bits: &[0],
            metric: Metric::Numeric,
        }
    }

    fn program(&self, scale: Scale) -> (Program, Vec<RegionSpec>) {
        let (n, k) = dims(scale);
        let lut = LutId::new(0).unwrap();
        let mut b = ProgramBuilder::new();
        // r1 = i (home), r2 = j (neighbour slot)
        b.movi(1, 0);
        let i_top = b.label("i");
        b.bind(i_top);
        // home position -> r10..r12 ; accumulator r25 = 0
        b.movi(0, 12);
        b.alu(IAluOp::Mul, 5, 1, Operand::Reg(0));
        b.alu(IAluOp::Add, 5, 5, Operand::Imm(POS_BASE as i64));
        b.ld(MemWidth::B4, 10, 5, 0);
        b.ld(MemWidth::B4, 11, 5, 4);
        b.ld(MemWidth::B4, 12, 5, 8);
        b.movf(25, 0.0);
        b.movi(2, 0);
        let j_top = b.label("j");
        b.bind(j_top);
        // neighbour index = (i + j + 1) % n -> position r13..r15
        b.alu(IAluOp::Add, 6, 1, Operand::Reg(2));
        b.alu(IAluOp::Add, 6, 6, Operand::Imm(1));
        b.movi(0, n as u64);
        b.alu(IAluOp::Rem, 6, 6, Operand::Reg(0));
        b.movi(0, 12);
        b.alu(IAluOp::Mul, 6, 6, Operand::Reg(0));
        b.alu(IAluOp::Add, 6, 6, Operand::Imm(POS_BASE as i64));
        b.ld(MemWidth::B4, 13, 6, 0);
        b.ld(MemWidth::B4, 14, 6, 4);
        b.ld(MemWidth::B4, 15, 6, 8);
        // displacement (outside the region)
        b.fbin(FBinOp::Sub, 16, 13, 10);
        b.fbin(FBinOp::Sub, 17, 14, 11);
        b.fbin(FBinOp::Sub, 18, 15, 12);
        b.region_begin(1);
        // r² -> r20 ; u = exp(-2 r²) ; pot = u (1 + r²) -> r30
        b.fbin(FBinOp::Mul, 20, 16, 16);
        b.fbin(FBinOp::Mul, 21, 17, 17);
        b.fbin(FBinOp::Add, 20, 20, 21);
        b.fbin(FBinOp::Mul, 21, 18, 18);
        b.fbin(FBinOp::Add, 20, 20, 21);
        b.movf(21, -2.0);
        b.fbin(FBinOp::Mul, 21, 21, 20);
        b.fun(FUnOp::Exp, 21, 21);
        b.movf(22, 1.0);
        b.fbin(FBinOp::Add, 22, 22, 20);
        b.fbin(FBinOp::Mul, 30, 21, 22);
        b.region_end(1);
        b.fbin(FBinOp::Add, 25, 25, 30);
        b.alu(IAluOp::Add, 2, 2, Operand::Imm(1));
        b.branch(Cond::LtS, 2, Operand::Imm(k as i64), j_top);
        // store accumulated potential for particle i
        b.alu(IAluOp::Shl, 5, 1, Operand::Imm(2));
        b.alu(IAluOp::Add, 5, 5, Operand::Imm(OUT_BASE as i64));
        b.st(MemWidth::B4, 25, 5, 0);
        b.alu(IAluOp::Add, 1, 1, Operand::Imm(1));
        b.branch(Cond::LtS, 1, Operand::Imm(n as i64), i_top);
        b.halt();
        let program = b.build().expect("lavamd builds");
        let specs = vec![RegionSpec {
            region: 1,
            lut,
            input_loads: vec![],
            reg_inputs: [16u8, 17, 18]
                .iter()
                .map(|&reg| RegInput {
                    reg,
                    width: MemWidth::B4,
                    trunc: 0,
                })
                .collect(),
            output: 30,
        }];
        (program, specs)
    }

    fn setup(&self, scale: Scale, dataset: Dataset) -> Machine {
        let (n, _) = dims(scale);
        let mut machine = Machine::new(OUT_BASE as usize + n * 4 + 4096);
        let mut rng = Rng::new(dataset.seed() ^ 0x1AD);
        // Periodic jittered chain: particle i sits at x = 0.3·i plus a
        // per-phase 3-D jitter that repeats every 8 particles (a crystal
        // unit cell). The displacement between particles i and i+d then
        // depends only on (d, i mod 8) — a small set of exactly
        // repeating vectors, which is why LavaMD hits without any
        // truncation (Table 2's 0 bits).
        let jitter: Vec<[f32; 3]> = (0..8)
            .map(|_| {
                [
                    rng.range(0.0, 0.2),
                    rng.range(0.0, 0.2),
                    rng.range(0.0, 0.2),
                ]
            })
            .collect();
        // x is periodic with period 16 (folded chain) so that f32
        // rounding cannot perturb the displacement pattern as i grows.
        let positions: Vec<f32> = (0..n)
            .flat_map(|i| {
                let j = jitter[i % 8];
                [(i % 16) as f32 * 0.25 + j[0], j[1], j[2]]
            })
            .collect();
        store_f32s(&mut machine, POS_BASE, &positions);
        machine
    }

    fn outputs(&self, machine: &Machine, scale: Scale) -> Vec<f64> {
        load_f64s(machine, OUT_BASE, dims(scale).0)
    }

    fn golden(&self, machine: &Machine, scale: Scale) -> Vec<f64> {
        let (n, k) = dims(scale);
        let positions = load_f32s(machine, POS_BASE, 3 * n);
        let pos = |i: usize| [positions[3 * i], positions[3 * i + 1], positions[3 * i + 2]];
        (0..n)
            .map(|i| {
                let h = pos(i);
                let mut acc = 0.0f32;
                for j in 0..k {
                    let nb = pos((i + j + 1) % n);
                    acc += potential(nb[0] - h[0], nb[1] - h[1], nb[2] - h[2]);
                }
                f64::from(acc)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::test_support::{check_golden, check_memoized};

    #[test]
    fn potential_decays_with_distance() {
        let near = potential(0.1, 0.0, 0.0);
        let far = potential(2.0, 0.0, 0.0);
        assert!(near > far);
        assert!(far < 0.01);
    }

    #[test]
    fn potential_is_radially_symmetric() {
        assert!((potential(1.0, 0.0, 0.0) - potential(0.0, 1.0, 0.0)).abs() < 1e-7);
    }

    #[test]
    fn ir_matches_golden() {
        check_golden(&LavaMd, 1e-3);
    }

    #[test]
    fn memoized_run_is_accurate_and_hits_without_truncation() {
        // Exact displacement repeats from the lattice structure.
        let hit_rate = check_memoized(&LavaMd, 1e-3);
        assert!(hit_rate > 0.5, "hit rate {hit_rate}");
    }
}
