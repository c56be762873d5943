//! The full compiler workflow of §5 on a small program: trace capture →
//! DDDG construction → candidate-subgraph search → truncation profiling
//! → code generation → simulated execution of the memoized binary.
//!
//! Run with: `cargo run --release --example compiler_pipeline`

use axmemo_compiler::codegen::memoize;
use axmemo_compiler::dddg::Dddg;
use axmemo_compiler::report::CompilationReport;
use axmemo_compiler::trace::TraceCapture;
use axmemo_compiler::truncation::{select_truncation, NUMERIC_ERROR_BOUND};
use axmemo_compiler::{analyze, candidates, InputLoad, RegionSpec, SearchConfig};
use axmemo_core::config::MemoConfig;
use axmemo_core::ids::LutId;
use axmemo_sim::builder::ProgramBuilder;
use axmemo_sim::cpu::{Machine, SimConfig, Simulator};
use axmemo_sim::ir::{Cond, FBinOp, FUnOp, IAluOp, MemWidth, Operand, Program};
use axmemo_sim::pipeline::LatencyModel;

/// A toy "sensor calibration" kernel: y = exp(-x²) · √x + log(1 + x).
fn build_program(n: u64) -> (Program, usize) {
    let mut b = ProgramBuilder::new();
    b.movi(1, 0).movi(2, n).movi(3, 0x1000).movi(4, 0x8_0000);
    let top = b.label("top");
    b.bind(top);
    b.alu(IAluOp::Shl, 5, 1, Operand::Imm(2));
    b.alu(IAluOp::Add, 5, 5, Operand::Reg(3));
    b.alu(IAluOp::Shl, 6, 1, Operand::Imm(2));
    b.alu(IAluOp::Add, 6, 6, Operand::Reg(4));
    let load_at = b.here();
    b.ld(MemWidth::B4, 10, 5, 0);
    b.region_begin(1);
    b.fbin(FBinOp::Mul, 20, 10, 10);
    b.fun(FUnOp::Neg, 20, 20);
    b.fun(FUnOp::Exp, 20, 20);
    b.fun(FUnOp::Sqrt, 21, 10);
    b.fbin(FBinOp::Mul, 20, 20, 21);
    b.movf(21, 1.0);
    b.fbin(FBinOp::Add, 21, 21, 10);
    b.fun(FUnOp::Log, 21, 21);
    b.fbin(FBinOp::Add, 30, 20, 21);
    b.region_end(1);
    b.st(MemWidth::B4, 30, 6, 0);
    b.alu(IAluOp::Add, 1, 1, Operand::Imm(1));
    b.branch(Cond::LtS, 1, Operand::Reg(2), top);
    b.halt();
    (b.build().expect("program builds"), load_at)
}

fn setup(n: u64) -> Machine {
    let mut m = Machine::new(1 << 20);
    for i in 0..n {
        // Sensor readings from a coarse grid with sub-LSB jitter.
        let v = 0.5 + 0.05 * (i % 40) as f32 + 1e-6 * (i % 7) as f32;
        m.store_f32(0x1000 + 4 * i, v);
    }
    m
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const N: u64 = 4000;
    let (program, load_at) = build_program(N);

    // 1-2: trace on a sample input set and build the DDDG.
    let mut sim = Simulator::new(SimConfig::baseline())?;
    let mut machine = setup(512);
    let (small_program, _) = (build_program(512).0, ());
    let mut cap = TraceCapture::with_limit(100_000);
    sim.run_reference(&small_program, &mut machine, Some(&mut cap))?;
    let graph = Dddg::from_trace(cap.events(), &LatencyModel::default());
    println!(
        "DDDG: {} vertices, total weight {}",
        graph.len(),
        graph.total_weight()
    );

    // 3: candidate search.
    let summary = analyze(&graph, &SearchConfig::default());
    println!(
        "candidates: {} dynamic, {} unique, CI_Ratio {:.1}, coverage {:.1}%",
        summary.total_dynamic_subgraphs,
        summary.unique_subgraphs,
        summary.mean_ci_ratio,
        100.0 * summary.coverage
    );
    // Export the best candidate's neighbourhood as Graphviz dot (the
    // Fig. 6 view) for inspection.
    let unique = candidates::filter_unique(&candidates::find_candidates(
        &graph,
        &SearchConfig::default(),
    ));
    if let Some(best) = unique.first() {
        let dot = graph.to_dot(&best.vertices);
        std::fs::write("/tmp/axmemo_dddg.dot", &dot)?;
        println!(
            "wrote candidate subgraph to /tmp/axmemo_dddg.dot ({} bytes)",
            dot.len()
        );
    }

    // 4: truncation-bit selection against the 0.1% output-error bound.
    let kernel = |xs: &[f32]| {
        let x = xs[0];
        vec![(-x * x).exp() * x.sqrt() + (1.0 + x).ln()]
    };
    let samples: Vec<Vec<f32>> = (0..256)
        .map(|i| vec![0.5 + 0.05 * (i % 40) as f32 + 1e-6 * (i % 7) as f32])
        .collect();
    let bits = select_truncation(&kernel, &samples, 20, NUMERIC_ERROR_BOUND);
    println!("selected truncation: {bits} bits (error bound 0.1%)");

    // 5: codegen + run both versions.
    let spec = RegionSpec {
        region: 1,
        lut: LutId::new(0).expect("LUT 0"),
        input_loads: vec![InputLoad {
            index: load_at,
            trunc: bits as u8,
        }],
        reg_inputs: vec![],
        output: 30,
    };
    let report = CompilationReport::new(
        "sensor-calibration",
        summary.clone(),
        &unique,
        std::slice::from_ref(&spec),
        0.001,
    );
    print!("{report}");
    let memoized = memoize(&program, &[spec])?;

    let mut base_sim = Simulator::new(SimConfig::baseline())?;
    let mut base_machine = setup(N);
    let base = base_sim.run(&program, &mut base_machine)?;

    let mut memo_sim = Simulator::new(SimConfig::with_memo(MemoConfig::l1_only(8 * 1024)))?;
    let mut memo_machine = setup(N);
    let memo = memo_sim.run(&memoized, &mut memo_machine)?;

    let unit = memo_sim.memo_unit().expect("memo config");
    println!(
        "baseline: {} cycles, {} insts",
        base.cycles, base.dynamic_insts
    );
    println!(
        "memoized: {} cycles, {} insts, hit rate {:.1}%",
        memo.cycles,
        memo.dynamic_insts,
        100.0 * unit.lut().total_hit_rate()
    );
    println!(
        "speedup: {:.2}x, instruction reduction {:.1}%",
        base.cycles as f64 / memo.cycles as f64,
        100.0 * (1.0 - memo.dynamic_insts as f64 / base.dynamic_insts as f64)
    );
    assert!(memo.cycles < base.cycles, "memoization must win here");
    Ok(())
}
