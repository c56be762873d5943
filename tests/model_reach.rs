//! Every timing and energy parameter a config sets must reach an output.
//! Each test perturbs one field on a short run and asserts that the
//! observable DESIGN.md's "Model constants" table names for it moves:
//! simulated cycles for `LatencyModel`, `CacheConfig` and the predictor
//! switch, energy for `EnergyModel`. The default-config observables are
//! pinned, so changing the default of a field that a probe reaches fails
//! here even when no figure golden moves.

use axmemo_core::config::MemoConfig;
use axmemo_core::faults::{FaultConfig, Protection};
use axmemo_sim::energy::EnergyModel;
use axmemo_sim::ir::{Cond, FBinOp, FUnOp, IAluOp, MemWidth, Operand};
use axmemo_sim::predictor::PredictorConfig;
use axmemo_sim::{Machine, Program, ProgramBuilder, RunStats, SimConfig, Simulator};
use axmemo_workloads::runner::PreparedProgram;
use axmemo_workloads::{benchmark_by_name, Dataset, Scale};

/// Memory of the stream probe: its highest stream ends below 1.25 MB.
const STREAM_MEM_BYTES: usize = 1280 * 1024;

/// The stream probe's cycles and the two probes' total energy (pJ) under
/// the default configuration.
const PINNED_CYCLES: u64 = 147_164;
const PINNED_ENERGY_PJ: f64 = 7_126_927.402_000_001;

/// A named change to one config field.
type Perturbation = (&'static str, fn(&mut SimConfig));

/// A named `EnergyModel` field.
type EnergyField = (&'static str, fn(&mut EnergyModel) -> &mut f64);

/// `passes` passes over `lines` 8-byte loads `stride` bytes apart from
/// `base`, using `x5` and `x10`–`x12`.
fn stream(b: &mut ProgramBuilder, base: u64, stride: i64, lines: i64, passes: i64) {
    b.movi(12, 0);
    let pass = b.label("pass");
    let line = b.label("line");
    b.bind(pass);
    b.movi(10, base).movi(11, base + (stride * lines) as u64);
    b.bind(line);
    b.ld(MemWidth::B8, 5, 10, 0);
    // Memory holds zeros: adding the loaded value puts each load's
    // latency on the critical path.
    b.alu(IAluOp::Add, 10, 10, Operand::Reg(5));
    b.alu(IAluOp::Add, 10, 10, Operand::Imm(stride));
    b.branch(Cond::LtU, 10, Operand::Reg(11), line);
    b.alu(IAluOp::Add, 12, 12, Operand::Imm(1));
    b.branch(Cond::LtS, 12, Operand::Imm(passes), pass);
}

/// A short program that reaches every core and cache parameter: a
/// dependent chain through each functional-unit class, then three
/// streams. 24 KB read twice fits the 32 KB L1D but not a 16 KB one;
/// 48 KB read twice misses the L1D and hits the 1 MB L2 but not a 32 KB
/// one; and 17 lines 64 KB apart share one set of both caches, one line
/// more than the L2's 16 ways hold.
fn stream_probe() -> Program {
    let mut b = ProgramBuilder::new();
    b.movi(1, 7)
        .movf(2, 1.5)
        .movf(3, 0.75)
        .movi(6, 0)
        .movi(13, 0);
    let chain = b.label("chain");
    b.bind(chain);
    b.alu(IAluOp::Mul, 1, 1, Operand::Imm(3));
    b.alu(IAluOp::Div, 1, 1, Operand::Imm(2));
    b.alu(IAluOp::Add, 1, 1, Operand::Imm(1));
    b.fbin(FBinOp::Add, 2, 2, 3);
    b.fbin(FBinOp::Div, 2, 2, 3);
    b.fun(FUnOp::Sin, 2, 2);
    b.st(MemWidth::B8, 1, 6, 0);
    b.alu(IAluOp::Add, 13, 13, Operand::Imm(1));
    b.branch(Cond::LtS, 13, Operand::Imm(16), chain);
    stream(&mut b, 0, 64, 384, 2);
    stream(&mut b, 64 * 1024, 64, 768, 2);
    stream(&mut b, 128 * 1024, 64 * 1024, 17, 4);
    b.halt();
    b.build().expect("well-formed probe")
}

/// Cycles of the stream probe on a baseline core configured by `tweak`.
fn stream_cycles(program: &Program, tweak: impl Fn(&mut SimConfig)) -> u64 {
    let mut cfg = SimConfig::baseline();
    tweak(&mut cfg);
    run(program, cfg, Machine::new(STREAM_MEM_BYTES)).cycles
}

fn run(program: &Program, cfg: SimConfig, mut machine: Machine) -> RunStats {
    let mut sim = Simulator::new(cfg).expect("valid config");
    sim.run(program, &mut machine).expect("probe runs")
}

/// The memo probe: one tiny benchmark under 8K+512K with ECC, so every
/// memo-unit energy event occurs. Returns its stats and energy model.
fn memo_probe() -> (RunStats, EnergyModel) {
    let bench = benchmark_by_name("kmeans").expect("registered");
    let b = bench.as_ref();
    let memo = MemoConfig {
        data_width: b.data_width(),
        faults: FaultConfig {
            protection: Protection::EccProtected,
            ..FaultConfig::default()
        },
        ..MemoConfig::l1_l2(8 * 1024, 512 * 1024)
    };
    let model = EnergyModel::for_l1_lut(memo.l1_bytes);
    let prepared = PreparedProgram::compile(b, Scale::Tiny, false).expect("tiny codegen");
    let mut sim = Simulator::new(SimConfig::with_memo(memo)).expect("valid config");
    let mut machine = b.setup(Scale::Tiny, Dataset::Eval);
    let stats = sim
        .run_prepared_threaded(&prepared.memo, &mut machine)
        .expect("probe runs");
    (stats, model)
}

#[test]
fn core_and_cache_parameters_move_cycles() {
    let program = stream_probe();
    let default = stream_cycles(&program, |_| {});
    assert_eq!(default, PINNED_CYCLES, "default-config stream cycles");
    let perturbations: [Perturbation; 15] = [
        ("latency.int_alu", |c| c.latency.int_alu += 1),
        ("latency.int_mul", |c| c.latency.int_mul += 1),
        ("latency.int_div", |c| c.latency.int_div += 1),
        ("latency.fp_op", |c| c.latency.fp_op += 1),
        ("latency.fp_div", |c| c.latency.fp_div += 1),
        ("latency.fp_libm", |c| c.latency.fp_libm += 1),
        ("latency.taken_branch_bubble", |c| {
            c.latency.taken_branch_bubble += 1
        }),
        ("cache.l1d_latency", |c| c.cache.l1d_latency += 1),
        ("cache.l2_latency", |c| c.cache.l2_latency += 1),
        ("cache.dram_latency", |c| c.cache.dram_latency += 1),
        ("cache.l1d_bytes", |c| c.cache.l1d_bytes = 16 * 1024),
        ("cache.l1d_ways", |c| c.cache.l1d_ways = 32),
        ("cache.l2_bytes", |c| c.cache.l2_bytes = 32 * 1024),
        ("cache.l2_ways", |c| c.cache.l2_ways = 32),
        ("cache.line_bytes", |c| c.cache.line_bytes = 128),
    ];
    for (field, perturb) in perturbations {
        let cycles = stream_cycles(&program, perturb);
        assert_ne!(cycles, default, "{field} moves no cycle");
    }
    let predicted = stream_cycles(&program, |c| c.predictor = Some(PredictorConfig::default()));
    assert_ne!(predicted, default, "the predictor switch moves no cycle");
}

#[test]
fn energy_constants_move_energy() {
    let stream = run(
        &stream_probe(),
        SimConfig::baseline(),
        Machine::new(STREAM_MEM_BYTES),
    );
    let (memo, model) = memo_probe();
    let energy = |m: &EnergyModel| m.total_pj(&stream.energy) + m.total_pj(&memo.energy);
    let default = energy(&model);
    assert_eq!(default, PINNED_ENERGY_PJ, "default-config energy");
    let fields: [EnergyField; 16] = [
        ("per_instruction", |m| &mut m.per_instruction),
        ("int_alu", |m| &mut m.int_alu),
        ("int_mul", |m| &mut m.int_mul),
        ("int_div", |m| &mut m.int_div),
        ("fp_op", |m| &mut m.fp_op),
        ("fp_div", |m| &mut m.fp_div),
        ("fp_libm", |m| &mut m.fp_libm),
        ("l1d_access", |m| &mut m.l1d_access),
        ("l2_access", |m| &mut m.l2_access),
        ("dram_access", |m| &mut m.dram_access),
        ("crc_beat", |m| &mut m.crc_beat),
        ("hash_register", |m| &mut m.hash_register),
        ("l1_lut_access", |m| &mut m.l1_lut_access),
        ("l2_lut_access", |m| &mut m.l2_lut_access),
        ("quality_compare", |m| &mut m.quality_compare),
        ("ecc_check", |m| &mut m.ecc_check),
    ];
    for (field, get) in fields {
        let mut perturbed = model;
        *get(&mut perturbed) *= 2.0;
        assert_ne!(energy(&perturbed), default, "{field} moves no energy");
    }
}
