//! Blackscholes — European option pricing (AxBench / PARSEC).
//!
//! Per option the kernel prices a European call/put via the
//! Black-Scholes closed form with the Abramowitz-Stegun polynomial
//! approximation of the cumulative normal distribution. Memoization
//! input: 6 × f32 = 24 bytes (spot, strike, rate, volatility, expiry,
//! option-type flag), truncation 0 (Table 2). Output: the option price
//! (one f32, 4-byte LUT data).
//!
//! Dataset: the paper uses 200K options from the PARSEC input, which
//! exhibit heavy repetition ("repetitive input patterns needed for
//! quantitative financial analysis"). We synthesise options from a small
//! parameter grid (spot × strike × expiry, two (r, v) pairs), giving a
//! few hundred distinct tuples — matching the paper's observation that a
//! small LUT already captures blackscholes' reuse.

use super::{load_f32s, load_f64s, store_f32s};
use crate::gen::{QuantizedGrid, Rng};
use crate::meta::{Metric, WorkloadMeta};
use crate::{Benchmark, Dataset, Scale};
use axmemo_compiler::{InputLoad, RegionSpec};
use axmemo_core::ids::LutId;
use axmemo_sim::builder::ProgramBuilder;
use axmemo_sim::cpu::Machine;
use axmemo_sim::ir::{Cond, FBinOp, FUnOp, IAluOp, MemWidth, Operand, Program};

const IN_BASE: u64 = 0x1_0000;
const OUT_BASE: u64 = 0x60_0000; // clear of 200K x 24B of inputs
const OPTION_BYTES: u64 = 4 * OPTION_FIELDS as u64;
/// f32 fields per option record.
const OPTION_FIELDS: usize = 6;

fn count(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 1024,
        Scale::Small => 20_000,
        Scale::Full => 200_000,
    }
}

/// The blackscholes benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Blackscholes;

/// Golden cumulative-normal-distribution approximation (A&S 26.2.17),
/// matching the IR kernel op-for-op.
#[allow(clippy::excessive_precision)] // canonical A&S coefficients
fn cndf(d: f32) -> f32 {
    let sign = d < 0.0;
    let x = d.abs();
    let k = 1.0 / (1.0 + 0.2316419 * x);
    let poly = k
        * (0.319381530
            + k * (-0.356563782 + k * (1.781477937 + k * (-1.821255978 + k * 1.330274429))));
    let pdf = (-0.5 * x * x).exp() * 0.3989423;
    let n = 1.0 - pdf * poly;
    if sign {
        1.0 - n
    } else {
        n
    }
}

/// Golden price computation (branch-free form used by the IR kernel).
pub fn price(s: f32, k: f32, r: f32, v: f32, t: f32, otype: f32) -> f32 {
    let sqrt_t = t.sqrt();
    let d1 = ((s / k).ln() + (r + 0.5 * v * v) * t) / (v * sqrt_t);
    let d2 = d1 - v * sqrt_t;
    let disc = (-r * t).exp();
    let call = s * cndf(d1) - k * disc * cndf(d2);
    let put = k * disc * (1.0 - cndf(d2)) - s * (1.0 - cndf(d1));
    otype * put + (1.0 - otype) * call
}

/// Emit the branch-free CNDF into `out` from `d`, using temps t0..t3.
/// Implements the sign fold with |d| and a CmpLt-based select.
#[allow(clippy::excessive_precision)] // canonical A&S coefficients
fn emit_cndf(b: &mut ProgramBuilder, d: u8, out: u8, t: [u8; 4]) {
    let [t0, t1, t2, t3] = t;
    // t0 = |d|
    b.fun(FUnOp::Abs, t0, d);
    // t1 = k = 1 / (1 + 0.2316419 * |d|)
    b.movf(t1, 0.2316419);
    b.fbin(FBinOp::Mul, t1, t1, t0);
    b.movf(t2, 1.0);
    b.fbin(FBinOp::Add, t1, t1, t2);
    b.movf(t2, 1.0);
    b.fbin(FBinOp::Div, t1, t2, t1);
    // t2 = poly(k) via Horner
    b.movf(t2, 1.330274429);
    b.fbin(FBinOp::Mul, t2, t2, t1);
    b.movf(t3, -1.821255978);
    b.fbin(FBinOp::Add, t2, t2, t3);
    b.fbin(FBinOp::Mul, t2, t2, t1);
    b.movf(t3, 1.781477937);
    b.fbin(FBinOp::Add, t2, t2, t3);
    b.fbin(FBinOp::Mul, t2, t2, t1);
    b.movf(t3, -0.356563782);
    b.fbin(FBinOp::Add, t2, t2, t3);
    b.fbin(FBinOp::Mul, t2, t2, t1);
    b.movf(t3, 0.319381530);
    b.fbin(FBinOp::Add, t2, t2, t3);
    b.fbin(FBinOp::Mul, t2, t2, t1);
    // t1 = pdf = exp(-0.5 x²) * 0.3989423
    b.fbin(FBinOp::Mul, t1, t0, t0);
    b.movf(t3, -0.5);
    b.fbin(FBinOp::Mul, t1, t1, t3);
    b.fun(FUnOp::Exp, t1, t1);
    b.movf(t3, 0.3989423);
    b.fbin(FBinOp::Mul, t1, t1, t3);
    // out = 1 - pdf*poly
    b.fbin(FBinOp::Mul, t1, t1, t2);
    b.movf(t3, 1.0);
    b.fbin(FBinOp::Sub, out, t3, t1);
    // sign fold: c = (d < 0); out = c*(1-out) + (1-c)*out = out + c*(1-2*out)
    b.movf(t3, 0.0);
    b.fbin(FBinOp::CmpLt, t0, d, t3); // t0 = c
    b.movf(t3, -2.0);
    b.fbin(FBinOp::Mul, t1, out, t3); // t1 = -2*out
    b.movf(t3, 1.0);
    b.fbin(FBinOp::Add, t1, t1, t3); // t1 = 1 - 2*out
    b.fbin(FBinOp::Mul, t1, t1, t0); // t1 = c * (1 - 2*out)
    b.fbin(FBinOp::Add, out, out, t1);
}

impl Benchmark for Blackscholes {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "blackscholes",
            suite: "AxBench",
            domain: "Financial Analysis",
            description: "Calculates the price of European-style options",
            dataset: "options drawn from a quantised parameter grid",
            input_bytes: &[24],
            truncated_bits: &[0],
            metric: Metric::Numeric,
        }
    }

    fn program(&self, scale: Scale) -> (Program, Vec<RegionSpec>) {
        let n = count(scale) as u64;
        let lut = LutId::new(0).unwrap();
        let mut b = ProgramBuilder::new();
        // r1 = i, r2 = n, r3 = in base, r4 = out base
        b.movi(1, 0).movi(2, n).movi(3, IN_BASE).movi(4, OUT_BASE);
        let top = b.label("top");
        b.bind(top);
        // r5 = &input[i], r6 = &output[i]
        b.movi(0, OPTION_BYTES);
        b.alu(IAluOp::Mul, 5, 1, Operand::Reg(0));
        b.alu(IAluOp::Add, 5, 5, Operand::Reg(3));
        b.alu(IAluOp::Shl, 6, 1, Operand::Imm(2));
        b.alu(IAluOp::Add, 6, 6, Operand::Reg(4));
        // 6 input loads (become ld_crc).
        let load0 = b.here();
        b.ld(MemWidth::B4, 10, 5, 0); // S
        b.ld(MemWidth::B4, 11, 5, 4); // K
        b.ld(MemWidth::B4, 12, 5, 8); // r
        b.ld(MemWidth::B4, 13, 5, 12); // v
        b.ld(MemWidth::B4, 14, 5, 16); // T
        b.ld(MemWidth::B4, 15, 5, 20); // otype
        b.region_begin(1);
        // sqrt_t = sqrt(T) -> r20
        b.fun(FUnOp::Sqrt, 20, 14);
        // d1 = (ln(S/K) + (r + v²/2) T) / (v sqrt_t) -> r21
        b.fbin(FBinOp::Div, 21, 10, 11);
        b.fun(FUnOp::Log, 21, 21);
        b.fbin(FBinOp::Mul, 22, 13, 13);
        b.movf(23, 0.5);
        b.fbin(FBinOp::Mul, 22, 22, 23);
        b.fbin(FBinOp::Add, 22, 22, 12);
        b.fbin(FBinOp::Mul, 22, 22, 14);
        b.fbin(FBinOp::Add, 21, 21, 22);
        b.fbin(FBinOp::Mul, 22, 13, 20);
        b.fbin(FBinOp::Div, 21, 21, 22);
        // d2 = d1 - v sqrt_t -> r24
        b.fbin(FBinOp::Sub, 24, 21, 22);
        // disc = exp(-r T) -> r25
        b.fbin(FBinOp::Mul, 25, 12, 14);
        b.fun(FUnOp::Neg, 25, 25);
        b.fun(FUnOp::Exp, 25, 25);
        // n1 = CNDF(d1) -> r26 ; n2 = CNDF(d2) -> r27
        emit_cndf(&mut b, 21, 26, [7, 8, 9, 0]);
        emit_cndf(&mut b, 24, 27, [7, 8, 9, 0]);
        // call = S n1 - K disc n2 -> r28
        b.fbin(FBinOp::Mul, 28, 10, 26);
        b.fbin(FBinOp::Mul, 29, 11, 25);
        b.fbin(FBinOp::Mul, 29, 29, 27);
        b.fbin(FBinOp::Sub, 28, 28, 29);
        // put = K disc (1-n2) - S (1-n1) -> r29
        b.movf(0, 1.0);
        b.fbin(FBinOp::Sub, 7, 0, 27); // 1-n2
        b.fbin(FBinOp::Sub, 8, 0, 26); // 1-n1
        b.fbin(FBinOp::Mul, 7, 7, 25);
        b.fbin(FBinOp::Mul, 7, 7, 11);
        b.fbin(FBinOp::Mul, 8, 8, 10);
        b.fbin(FBinOp::Sub, 29, 7, 8);
        // price = otype*put + (1-otype)*call -> r30
        b.fbin(FBinOp::Mul, 29, 29, 15);
        b.fbin(FBinOp::Sub, 0, 0, 15); // 1-otype (r0 still 1.0)
        b.fbin(FBinOp::Mul, 28, 28, 0);
        b.fbin(FBinOp::Add, 30, 28, 29);
        b.region_end(1);
        b.st(MemWidth::B4, 30, 6, 0);
        b.alu(IAluOp::Add, 1, 1, Operand::Imm(1));
        b.branch(Cond::LtS, 1, Operand::Reg(2), top);
        b.halt();
        let program = b.build().expect("blackscholes builds");
        let specs = vec![RegionSpec {
            region: 1,
            lut,
            input_loads: (0..6)
                .map(|k| InputLoad {
                    index: load0 + k,
                    trunc: 0,
                })
                .collect(),
            reg_inputs: vec![],
            output: 30,
        }];
        (program, specs)
    }

    fn setup(&self, scale: Scale, dataset: Dataset) -> Machine {
        let n = count(scale);
        let mut machine = Machine::new(
            (IN_BASE + OPTION_BYTES * n as u64).max(OUT_BASE + 4 * n as u64) as usize + 4096,
        );
        let mut rng = Rng::new(dataset.seed() ^ 0xB5);
        let spot = QuantizedGrid {
            lo: 40.0,
            hi: 120.0,
            levels: 8,
            jitter_rel: 0.0,
        };
        let strike = QuantizedGrid {
            lo: 50.0,
            hi: 110.0,
            levels: 4,
            jitter_rel: 0.0,
        };
        let expiry = QuantizedGrid {
            lo: 0.25,
            hi: 2.0,
            levels: 4,
            jitter_rel: 0.0,
        };
        let mut options = Vec::with_capacity(OPTION_FIELDS * n);
        for _ in 0..n {
            let (r, v) = if rng.index(2) == 0 {
                (0.02f32, 0.3f32)
            } else {
                (0.05, 0.4)
            };
            let s = spot.sample(&mut rng);
            let k = strike.sample(&mut rng);
            let t = expiry.sample(&mut rng);
            options.extend([s, k, r, v, t, rng.index(2) as f32]);
        }
        store_f32s(&mut machine, IN_BASE, &options);
        machine
    }

    fn outputs(&self, machine: &Machine, scale: Scale) -> Vec<f64> {
        load_f64s(machine, OUT_BASE, count(scale))
    }

    fn golden(&self, machine: &Machine, scale: Scale) -> Vec<f64> {
        load_f32s(machine, IN_BASE, OPTION_FIELDS * count(scale))
            .chunks_exact(OPTION_FIELDS)
            .map(|o| f64::from(price(o[0], o[1], o[2], o[3], o[4], o[5])))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::test_support::{check_golden, check_memoized};

    #[test]
    fn cndf_matches_reference_points() {
        assert!((cndf(0.0) - 0.5).abs() < 1e-4);
        assert!((cndf(1.0) - 0.8413).abs() < 1e-3);
        assert!((cndf(-1.0) - 0.1587).abs() < 1e-3);
        assert!(cndf(4.0) > 0.9999);
    }

    #[test]
    fn price_is_sane() {
        // Deep in-the-money call ≈ S - K·disc.
        let p = price(100.0, 50.0, 0.02, 0.3, 1.0, 0.0);
        assert!(p > 49.0 && p < 60.0, "price {p}");
        // Put-call parity rough check.
        let c = price(100.0, 100.0, 0.02, 0.3, 1.0, 0.0);
        let put = price(100.0, 100.0, 0.02, 0.3, 1.0, 1.0);
        let parity = c - put - (100.0 - 100.0 * (-0.02f32).exp());
        assert!(parity.abs() < 0.1, "parity {parity}");
    }

    #[test]
    fn ir_matches_golden() {
        check_golden(&Blackscholes, 1e-4);
    }

    #[test]
    fn memoized_run_is_accurate_and_hits() {
        let hit_rate = check_memoized(&Blackscholes, 1e-4);
        // Grid dataset: far fewer distinct tuples than options.
        assert!(hit_rate > 0.4, "hit rate {hit_rate}");
    }
}
