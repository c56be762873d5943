//! K-means — pixel clustering (AxBench).
//!
//! The memoized block is the per-pixel cluster assignment: given an RGB
//! pixel (3 × f32 = 12 bytes, Table 2) it computes squared distances to
//! k = 4 fixed centroids and returns the argmin index, branchlessly via
//! `CmpLt` selects. Truncation 16: pixels within ~0.8% of each other
//! assign identically, which is exactly the approximation k-means
//! tolerates.
//!
//! The LUT caches the pixel→cluster map for the *current* centroids;
//! when centroids move between iterations the map is stale, which is
//! where the `invalidate` instruction earns its keep (exercised in the
//! `invalidate_between_iterations` test and the failure-injection
//! integration tests).

use super::{load_f32s, load_f64s, store_f32s};
use crate::gen::{Rng, SmoothField};
use crate::meta::{Metric, WorkloadMeta};
use crate::{Benchmark, Dataset, Scale};
use axmemo_compiler::{InputLoad, RegionSpec};
use axmemo_core::ids::LutId;
use axmemo_sim::builder::ProgramBuilder;
use axmemo_sim::cpu::Machine;
use axmemo_sim::ir::{Cond, FBinOp, IAluOp, MemWidth, Operand, Program};

const IN_BASE: u64 = 0x1_0000;
const OUT_BASE: u64 = 0x40_0000;
const TRUNC: u8 = 16;
/// Fixed centroids (k = 4) in RGB space.
pub const CENTROIDS: [[f32; 3]; 4] = [
    [0.15, 0.15, 0.15],
    [0.45, 0.40, 0.35],
    [0.65, 0.70, 0.60],
    [0.90, 0.85, 0.95],
];

fn count(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 32 * 32,
        Scale::Small => 128 * 128,
        Scale::Full => 512 * 512,
    }
}

/// The kmeans benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Kmeans;

/// Golden assignment (matches the IR's branchless select chain).
pub fn assign(r: f32, g: f32, bch: f32) -> f32 {
    let mut best = f32::MAX;
    let mut idx = 0.0f32;
    for (j, c) in CENTROIDS.iter().enumerate() {
        let d = (r - c[0]).powi(2) + (g - c[1]).powi(2) + (bch - c[2]).powi(2);
        // Same select the IR performs: strict less-than updates.
        if d < best {
            best = d;
            idx = j as f32;
        }
    }
    idx
}

impl Benchmark for Kmeans {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "kmeans",
            suite: "AxBench",
            domain: "Machine Learning",
            description: "K-means clustering of image pixels",
            dataset: "smooth synthetic RGB image",
            input_bytes: &[12],
            truncated_bits: &[TRUNC],
            metric: Metric::Image,
        }
    }

    fn program(&self, scale: Scale) -> (Program, Vec<RegionSpec>) {
        let n = count(scale) as u64;
        let lut = LutId::new(0).unwrap();
        let mut b = ProgramBuilder::new();
        b.movi(1, 0).movi(2, n).movi(3, IN_BASE).movi(4, OUT_BASE);
        let top = b.label("top");
        b.bind(top);
        b.movi(0, 12);
        b.alu(IAluOp::Mul, 5, 1, Operand::Reg(0));
        b.alu(IAluOp::Add, 5, 5, Operand::Reg(3));
        b.alu(IAluOp::Shl, 6, 1, Operand::Imm(2));
        b.alu(IAluOp::Add, 6, 6, Operand::Reg(4));
        let load0 = b.here();
        b.ld(MemWidth::B4, 10, 5, 0); // r
        b.ld(MemWidth::B4, 11, 5, 4); // g
        b.ld(MemWidth::B4, 12, 5, 8); // b
        b.region_begin(1);
        // best = +inf (r20), idx = 0.0 (r30)
        b.movf(20, f32::MAX);
        b.movf(30, 0.0);
        for (j, c) in CENTROIDS.iter().enumerate() {
            // d = (r-cr)² + (g-cg)² + (b-cb)² -> r21
            b.movf(22, c[0]);
            b.fbin(FBinOp::Sub, 21, 10, 22);
            b.fbin(FBinOp::Mul, 21, 21, 21);
            b.movf(22, c[1]);
            b.fbin(FBinOp::Sub, 23, 11, 22);
            b.fbin(FBinOp::Mul, 23, 23, 23);
            b.fbin(FBinOp::Add, 21, 21, 23);
            b.movf(22, c[2]);
            b.fbin(FBinOp::Sub, 23, 12, 22);
            b.fbin(FBinOp::Mul, 23, 23, 23);
            b.fbin(FBinOp::Add, 21, 21, 23);
            // c = d < best ; best = min ; idx += c * (j - idx)
            b.fbin(FBinOp::CmpLt, 24, 21, 20);
            b.fbin(FBinOp::Min, 20, 20, 21);
            b.movf(22, j as f32);
            b.fbin(FBinOp::Sub, 22, 22, 30);
            b.fbin(FBinOp::Mul, 22, 22, 24);
            b.fbin(FBinOp::Add, 30, 30, 22);
        }
        b.region_end(1);
        b.st(MemWidth::B4, 30, 6, 0);
        b.alu(IAluOp::Add, 1, 1, Operand::Imm(1));
        b.branch(Cond::LtS, 1, Operand::Reg(2), top);
        b.halt();
        let program = b.build().expect("kmeans builds");
        let specs = vec![RegionSpec {
            region: 1,
            lut,
            input_loads: (0..3)
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
        let n = count(scale);
        let d = (n as f64).sqrt() as usize;
        let mut machine = Machine::new(OUT_BASE as usize + n * 4 + 4096);
        let mut rng = Rng::new(dataset.seed() ^ 0x4B3);
        let field = SmoothField {
            w: d,
            h: d,
            cycles: 2.0,
            noise: 0.004,
            offset: 0.05,
            amplitude: 0.9,
        };
        let luma = field.generate(&mut rng);
        let pixels: Vec<f32> = (0..n)
            .map(|i| luma[i % luma.len()])
            .flat_map(|v| [v, v * 0.95 + 0.01, v * 0.9 + 0.03])
            .collect();
        store_f32s(&mut machine, IN_BASE, &pixels);
        machine
    }

    fn outputs(&self, machine: &Machine, scale: Scale) -> Vec<f64> {
        load_f64s(machine, OUT_BASE, count(scale))
    }

    fn golden(&self, machine: &Machine, scale: Scale) -> Vec<f64> {
        load_f32s(machine, IN_BASE, 3 * count(scale))
            .chunks_exact(3)
            .map(|p| f64::from(assign(p[0], p[1], p[2])))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::test_support::{check_golden, check_memoized};

    #[test]
    fn assignment_picks_nearest_centroid() {
        assert_eq!(assign(0.14, 0.16, 0.15), 0.0);
        assert_eq!(assign(0.9, 0.85, 0.95), 3.0);
        assert_eq!(assign(0.46, 0.41, 0.34), 1.0);
    }

    #[test]
    fn ir_matches_golden() {
        check_golden(&Kmeans, 1e-6);
    }

    #[test]
    fn memoized_run_is_accurate_and_hits() {
        // Cluster indices tolerate truncation well; smooth image gives
        // heavy pixel-level reuse after 16-bit truncation.
        let hit_rate = check_memoized(&Kmeans, 0.02);
        assert!(hit_rate > 0.5, "hit rate {hit_rate}");
    }
}
