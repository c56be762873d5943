//! FFT — radix-2 Cooley-Tukey (AxBench).
//!
//! The memoized block is the twiddle-factor computation: given the
//! butterfly angle θ it produces (cos θ, sin θ). The paper notes FFT is
//! the case where memoization inputs are *not* loads ("all the inputs to
//! the memoization are not load instructions"), so the angle enters the
//! hash via `reg_crc`. Input: 1 × f32 = 4 bytes, truncation 0 (Table 2);
//! output: two f32 packed into an 8-byte LUT entry (the 4-way/8-byte
//! LUT configuration of §3.3).
//!
//! sin/cos inside the region are computed with an inline degree-13
//! Taylor polynomial after shifting θ ∈ [-2π, 0] to [-π, π] — modelling
//! the multi-instruction libm sequence a real binary would execute, so
//! that the dynamic-instruction reduction (Fig. 8) is meaningful.
//!
//! Angle reuse is structural: every butterfly angle is a multiple of
//! 2π/N, giving ~N/2 distinct values across N−1 twiddle computations per
//! frame, and full reuse across frames — the source of FFT's >90% hit
//! rate in the paper.

use super::{load_f32s, store_f32s};
use crate::gen::Rng;
use crate::meta::{Metric, WorkloadMeta};
use crate::{Benchmark, Dataset, Scale};
use axmemo_compiler::{RegInput, RegionSpec};
use axmemo_core::config::DataWidth;
use axmemo_core::ids::LutId;
use axmemo_sim::builder::ProgramBuilder;
use axmemo_sim::cpu::Machine;
use axmemo_sim::ir::{Cond, FBinOp, FUnOp, IAluOp, MemWidth, Operand, Program};

const RE_BASE: u64 = 0x1_0000;
const IM_BASE: u64 = 0x10_0000;

fn dims(scale: Scale) -> (usize, usize) {
    // (points per frame, frames)
    match scale {
        Scale::Tiny => (64, 2),
        Scale::Small => (256, 8),
        Scale::Full => (1024, 16),
    }
}

/// The fft benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Fft;

/// Degree-13 Taylor sin on [-π, π] (matches the IR polynomial exactly).
fn poly_sin(x: f32) -> f32 {
    let x2 = x * x;
    x * (1.0
        + x2 * (-1.0 / 6.0
            + x2 * (1.0 / 120.0
                + x2 * (-1.0 / 5040.0
                    + x2 * (1.0 / 362880.0
                        + x2 * (-1.0 / 39916800.0 + x2 * (1.0 / 6227020800.0)))))))
}

/// Degree-12 Taylor cos on [-π, π].
fn poly_cos(x: f32) -> f32 {
    let x2 = x * x;
    1.0 + x2
        * (-0.5
            + x2 * (1.0 / 24.0
                + x2 * (-1.0 / 720.0
                    + x2 * (1.0 / 40320.0 + x2 * (-1.0 / 3628800.0 + x2 * (1.0 / 479001600.0))))))
}

/// Golden twiddle for θ ∈ [-2π, 0] via the same shift + polynomials.
pub fn twiddle(theta: f32) -> (f32, f32) {
    let x = theta + std::f32::consts::PI; // into [-π, π]
    (-poly_cos(x), -poly_sin(x))
}

/// Golden FFT matching the IR program structure step-for-step.
fn golden_fft(re: &mut [f32], im: &mut [f32]) {
    let n = re.len();
    let bits = n.trailing_zeros();
    for i in 0..n {
        let mut rev = 0usize;
        let mut t = i;
        for _ in 0..bits {
            rev = (rev << 1) | (t & 1);
            t >>= 1;
        }
        if i < rev {
            re.swap(i, rev);
            im.swap(i, rev);
        }
    }
    let mut m = 2;
    while m <= n {
        let half = m / 2;
        for j in 0..half {
            let theta = -std::f32::consts::TAU * j as f32 / m as f32;
            let (wr, wi) = twiddle(theta);
            let mut i = j;
            while i < n {
                let k = i + half;
                let tr = wr * re[k] - wi * im[k];
                let ti = wr * im[k] + wi * re[k];
                re[k] = re[i] - tr;
                im[k] = im[i] - ti;
                re[i] += tr;
                im[i] += ti;
                i += m;
            }
        }
        m <<= 1;
    }
}

/// Emit Horner evaluation of Σ cᵢ (x²)ⁱ into `out`, given x² in `x2`.
fn emit_even_poly(b: &mut ProgramBuilder, coeffs: &[f32], x2: u8, out: u8, tmp: u8) {
    b.movf(out, *coeffs.last().unwrap());
    for &c in coeffs.iter().rev().skip(1) {
        b.fbin(FBinOp::Mul, out, out, x2);
        b.movf(tmp, c);
        b.fbin(FBinOp::Add, out, out, tmp);
    }
}

const COS_COEFFS: [f32; 7] = [
    1.0,
    -0.5,
    1.0 / 24.0,
    -1.0 / 720.0,
    1.0 / 40320.0,
    -1.0 / 3628800.0,
    1.0 / 479001600.0,
];
const SIN_COEFFS: [f32; 7] = [
    1.0,
    -1.0 / 6.0,
    1.0 / 120.0,
    -1.0 / 5040.0,
    1.0 / 362880.0,
    -1.0 / 39916800.0,
    1.0 / 6227020800.0,
];

impl Benchmark for Fft {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "fft",
            suite: "AxBench",
            domain: "Signal Processing",
            description: "Radix-2 Cooley-Tukey FFT",
            dataset: "random complex frames (twiddle reuse is structural)",
            input_bytes: &[4],
            truncated_bits: &[0],
            metric: Metric::Numeric,
        }
    }

    fn data_width(&self) -> DataWidth {
        DataWidth::W8
    }

    fn program(&self, scale: Scale) -> (Program, Vec<RegionSpec>) {
        let (n, frames) = dims(scale);
        let bits = n.trailing_zeros() as i64;
        let lut = LutId::new(0).unwrap();
        let mut b = ProgramBuilder::new();
        // r1 = frame, r3/r4 = frame re/im base
        b.movi(1, 0);
        let frame_top = b.label("frame");
        b.bind(frame_top);
        b.movi(0, (n * 4) as u64);
        b.alu(IAluOp::Mul, 3, 1, Operand::Reg(0));
        b.alu(IAluOp::Add, 4, 3, Operand::Imm(IM_BASE as i64));
        b.alu(IAluOp::Add, 3, 3, Operand::Imm(RE_BASE as i64));

        // --- bit-reversal permutation ---
        b.movi(5, 0); // i
        let rev_top = b.label("rev_top");
        let rev_skip = b.label("rev_skip");
        b.bind(rev_top);
        b.movi(6, 0); // rev
        b.mov(7, 5); // t = i
        b.movi(8, 0); // bit index
        let rl = b.label("rev_loop");
        b.bind(rl);
        b.alu(IAluOp::Shl, 6, 6, Operand::Imm(1));
        b.alu(IAluOp::And, 9, 7, Operand::Imm(1));
        b.alu(IAluOp::Or, 6, 6, Operand::Reg(9));
        b.alu(IAluOp::Shr, 7, 7, Operand::Imm(1));
        b.alu(IAluOp::Add, 8, 8, Operand::Imm(1));
        b.branch(Cond::LtS, 8, Operand::Imm(bits), rl);
        b.branch(Cond::GeS, 5, Operand::Reg(6), rev_skip);
        // swap re[i] <-> re[rev]; im[i] <-> im[rev]
        b.alu(IAluOp::Shl, 9, 5, Operand::Imm(2));
        b.alu(IAluOp::Add, 9, 9, Operand::Reg(3));
        b.alu(IAluOp::Shl, 10, 6, Operand::Imm(2));
        b.alu(IAluOp::Add, 10, 10, Operand::Reg(3));
        b.ld(MemWidth::B4, 11, 9, 0);
        b.ld(MemWidth::B4, 12, 10, 0);
        b.st(MemWidth::B4, 12, 9, 0);
        b.st(MemWidth::B4, 11, 10, 0);
        b.alu(IAluOp::Shl, 9, 5, Operand::Imm(2));
        b.alu(IAluOp::Add, 9, 9, Operand::Reg(4));
        b.alu(IAluOp::Shl, 10, 6, Operand::Imm(2));
        b.alu(IAluOp::Add, 10, 10, Operand::Reg(4));
        b.ld(MemWidth::B4, 11, 9, 0);
        b.ld(MemWidth::B4, 12, 10, 0);
        b.st(MemWidth::B4, 12, 9, 0);
        b.st(MemWidth::B4, 11, 10, 0);
        b.bind(rev_skip);
        b.alu(IAluOp::Add, 5, 5, Operand::Imm(1));
        b.branch(Cond::LtS, 5, Operand::Imm(n as i64), rev_top);

        // --- butterfly stages ---
        b.movi(5, 2); // m
        let stage_top = b.label("stage");
        b.bind(stage_top);
        b.alu(IAluOp::Shr, 6, 5, Operand::Imm(1)); // half
        b.movi(7, 0); // j
        let j_top = b.label("j_loop");
        b.bind(j_top);
        // theta = -τ * j / m -> r10
        b.fun(FUnOp::FromInt, 8, 7);
        b.fun(FUnOp::FromInt, 9, 5);
        b.fbin(FBinOp::Div, 10, 8, 9);
        b.movf(9, -std::f32::consts::TAU);
        b.fbin(FBinOp::Mul, 10, 10, 9);
        // --- memoized twiddle: r10 -> packed (wr, wi) in r30 ---
        b.region_begin(1);
        b.movf(11, std::f32::consts::PI);
        b.fbin(FBinOp::Add, 11, 10, 11); // x in [-π, π]
        b.fbin(FBinOp::Mul, 12, 11, 11); // x²
        emit_even_poly(&mut b, &COS_COEFFS, 12, 13, 15);
        b.fun(FUnOp::Neg, 13, 13); // wr = -cos(x)
        emit_even_poly(&mut b, &SIN_COEFFS, 12, 14, 15);
        b.fbin(FBinOp::Mul, 14, 14, 11);
        b.fun(FUnOp::Neg, 14, 14); // wi = -sin(x)
        b.alu(IAluOp::PackLo32, 30, 13, Operand::Reg(14));
        b.region_end(1);
        b.alu(IAluOp::And, 13, 30, Operand::Imm(0xFFFF_FFFF));
        b.alu(IAluOp::Shr, 14, 30, Operand::Imm(32));

        // inner loop: for i = j; i < n; i += m
        b.mov(15, 7);
        let i_top = b.label("i_loop");
        let i_done = b.label("i_done");
        b.bind(i_top);
        b.branch(Cond::GeS, 15, Operand::Imm(n as i64), i_done);
        b.alu(IAluOp::Add, 16, 15, Operand::Reg(6)); // k
        b.alu(IAluOp::Shl, 17, 15, Operand::Imm(2));
        b.alu(IAluOp::Add, 18, 17, Operand::Reg(3)); // &re[i]
        b.alu(IAluOp::Add, 19, 17, Operand::Reg(4)); // &im[i]
        b.alu(IAluOp::Shl, 17, 16, Operand::Imm(2));
        b.alu(IAluOp::Add, 20, 17, Operand::Reg(3)); // &re[k]
        b.alu(IAluOp::Add, 21, 17, Operand::Reg(4)); // &im[k]
        b.ld(MemWidth::B4, 22, 20, 0);
        b.ld(MemWidth::B4, 23, 21, 0);
        b.fbin(FBinOp::Mul, 24, 13, 22);
        b.fbin(FBinOp::Mul, 25, 14, 23);
        b.fbin(FBinOp::Sub, 24, 24, 25); // tr
        b.fbin(FBinOp::Mul, 25, 13, 23);
        b.fbin(FBinOp::Mul, 26, 14, 22);
        b.fbin(FBinOp::Add, 25, 25, 26); // ti
        b.ld(MemWidth::B4, 22, 18, 0);
        b.ld(MemWidth::B4, 23, 19, 0);
        b.fbin(FBinOp::Sub, 26, 22, 24);
        b.st(MemWidth::B4, 26, 20, 0);
        b.fbin(FBinOp::Sub, 26, 23, 25);
        b.st(MemWidth::B4, 26, 21, 0);
        b.fbin(FBinOp::Add, 26, 22, 24);
        b.st(MemWidth::B4, 26, 18, 0);
        b.fbin(FBinOp::Add, 26, 23, 25);
        b.st(MemWidth::B4, 26, 19, 0);
        b.alu(IAluOp::Add, 15, 15, Operand::Reg(5));
        b.jump(i_top);
        b.bind(i_done);
        b.alu(IAluOp::Add, 7, 7, Operand::Imm(1));
        b.branch(Cond::LtS, 7, Operand::Reg(6), j_top);
        b.alu(IAluOp::Shl, 5, 5, Operand::Imm(1));
        b.branch(Cond::LtS, 5, Operand::Imm(n as i64 + 1), stage_top); // m <= n

        // next frame
        b.alu(IAluOp::Add, 1, 1, Operand::Imm(1));
        b.branch(Cond::LtS, 1, Operand::Imm(frames as i64), frame_top);
        b.halt();

        let program = b.build().expect("fft builds");
        let specs = vec![RegionSpec {
            region: 1,
            lut,
            input_loads: vec![],
            reg_inputs: vec![RegInput {
                reg: 10,
                width: MemWidth::B4,
                trunc: 0,
            }],
            output: 30,
        }];
        (program, specs)
    }

    fn setup(&self, scale: Scale, dataset: Dataset) -> Machine {
        let (n, frames) = dims(scale);
        let total = n * frames;
        let mut machine = Machine::new(IM_BASE as usize + total * 4 + 4096);
        let mut rng = Rng::new(dataset.seed() ^ 0xFF7);
        let (mut re, mut im) = (Vec::with_capacity(total), Vec::with_capacity(total));
        for _ in 0..total {
            re.push(rng.range(-1.0, 1.0));
            im.push(rng.range(-1.0, 1.0));
        }
        store_f32s(&mut machine, RE_BASE, &re);
        store_f32s(&mut machine, IM_BASE, &im);
        machine
    }

    fn outputs(&self, machine: &Machine, scale: Scale) -> Vec<f64> {
        let (n, frames) = dims(scale);
        let total = n * frames;
        let re = load_f32s(machine, RE_BASE, total);
        let im = load_f32s(machine, IM_BASE, total);
        re.into_iter()
            .zip(im)
            .flat_map(|(r, i)| [f64::from(r), f64::from(i)])
            .collect()
    }

    fn golden(&self, machine: &Machine, scale: Scale) -> Vec<f64> {
        let (n, frames) = dims(scale);
        let mut out = Vec::with_capacity(2 * n * frames);
        for f in 0..frames {
            let at = 4 * (f * n) as u64;
            let mut re = load_f32s(machine, RE_BASE + at, n);
            let mut im = load_f32s(machine, IM_BASE + at, n);
            golden_fft(&mut re, &mut im);
            for i in 0..n {
                out.push(f64::from(re[i]));
                out.push(f64::from(im[i]));
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
    fn poly_trig_is_accurate_on_range() {
        for i in 0..=64 {
            let x = -std::f32::consts::PI + std::f32::consts::TAU * i as f32 / 64.0;
            assert!((poly_sin(x) - x.sin()).abs() < 2e-3, "sin({x})");
            assert!((poly_cos(x) - x.cos()).abs() < 2e-3, "cos({x})");
        }
    }

    #[test]
    fn twiddle_matches_true_trig() {
        for i in 0..32 {
            let theta = -std::f32::consts::TAU * i as f32 / 32.0;
            let (wr, wi) = twiddle(theta);
            assert!((wr - theta.cos()).abs() < 3e-3, "cos {theta}");
            assert!((wi - theta.sin()).abs() < 3e-3, "sin {theta}");
        }
    }

    #[test]
    fn golden_fft_of_impulse_is_flat() {
        let mut re = vec![0.0f32; 16];
        let mut im = vec![0.0f32; 16];
        re[0] = 1.0;
        golden_fft(&mut re, &mut im);
        for i in 0..16 {
            assert!((re[i] - 1.0).abs() < 1e-2, "bin {i}: {}", re[i]);
            assert!(im[i].abs() < 1e-2);
        }
    }

    #[test]
    fn ir_matches_golden() {
        check_golden(&Fft, 1e-3);
    }

    #[test]
    fn memoized_run_is_accurate_and_hits() {
        let hit_rate = check_memoized(&Fft, 1e-4);
        // 2 frames × 63 twiddles, ~32 distinct angles per frame.
        assert!(hit_rate > 0.6, "hit rate {hit_rate}");
    }
}
