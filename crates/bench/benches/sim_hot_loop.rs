//! Interpreter hot-loop throughput: dynamic instructions per second on
//! a representative kernel (blackscholes tiny), baseline and memoized,
//! on both execution tiers (`--dispatch legacy|threaded`).
//! The timed region is `reset` + `run` only: blackscholes
//! initialises every register before reading it and only writes
//! recomputed values to its output buffer, so re-running on the same
//! machine is bit-identical and no per-iteration state restore (a ~6 MB
//! memcpy that would swamp the interpreter) is needed. That idempotence
//! is asserted before timing starts.
//! Uses the in-tree harness (`axmemo_bench::timing`); prints MIPS so
//! perf PRs have a stable before/after number to cite (EXPERIMENTS.md).

use axmemo_bench::timing::bench;
use axmemo_compiler::codegen::memoize;
use axmemo_core::config::MemoConfig;
use axmemo_sim::cpu::{DispatchTier, SimConfig, Simulator};
use axmemo_sim::Program;
use axmemo_sim::{DecodedProgram, ThreadedProgram};
use axmemo_telemetry::Telemetry;
use axmemo_workloads::{benchmark_by_name, Benchmark, Dataset, Scale};
use std::hint::black_box;

/// Measure one (config, program) pair; returns MIPS and prints it
/// alongside the per-iteration time. The threaded tier goes through
/// `run_prepared_threaded` with a program lowered once up front — the
/// shape the benchmark runner and sweep orchestrator use in
/// production. With `profile` on, a cycle-attribution profiler rides
/// an otherwise disabled telemetry handle — exactly the
/// `--profile-out` configuration — so the delta against the unprofiled
/// leg is the profiling overhead EXPERIMENTS.md documents.
fn measure(
    name: &str,
    cfg: &SimConfig,
    bench_def: &dyn Benchmark,
    program: &Program,
    profile: bool,
) -> f64 {
    let threaded = (cfg.dispatch == DispatchTier::Threaded)
        .then(|| ThreadedProgram::compile(&DecodedProgram::compile(program, &cfg.latency)));
    let mut sim = Simulator::new(cfg.clone()).unwrap();
    if profile {
        let mut tel = Telemetry::off();
        tel.profiler_mut().enable();
        sim.set_telemetry(tel);
    }
    let mut machine = bench_def.setup(Scale::Tiny, Dataset::Eval);
    let run = |sim: &mut Simulator, machine: &mut _| {
        sim.reset();
        match &threaded {
            Some(t) => sim.run_prepared_threaded(t, machine),
            None => sim.run(program, machine),
        }
        .unwrap()
    };
    let first = run(&mut sim, &mut machine);
    let again = run(&mut sim, &mut machine);
    assert_eq!(
        first, again,
        "{name}: workload is not re-run idempotent; restore machine state per iteration"
    );
    let insts = first.dynamic_insts;
    let mut best = bench(name, || {
        black_box(run(&mut sim, &mut machine));
    });
    // Shared hosts jitter batch-to-batch by 10–20%; the minimum over a
    // few batches is the closest estimate of the true cost (noise only
    // ever adds time).
    for _ in 1..ROUNDS {
        let m = bench(name, || {
            black_box(run(&mut sim, &mut machine));
        });
        if m.ns_per_iter < best.ns_per_iter {
            best = m;
        }
    }
    let mips = insts as f64 / best.ns_per_iter * 1e3;
    println!("{best}  [{insts} insts, {mips:.1} MIPS]");
    mips
}

/// Timed batches per leg; the fastest is reported.
const ROUNDS: usize = 5;

fn main() {
    let bench_def = benchmark_by_name("blackscholes").expect("blackscholes registered");
    let (program, specs) = bench_def.program(Scale::Tiny);
    let memoized = memoize(&program, &specs).expect("codegen");
    let memo_cfg = MemoConfig {
        data_width: bench_def.data_width(),
        ..MemoConfig::l1_l2(8 * 1024, 256 * 1024)
    };

    let base_cfg = |dispatch| SimConfig {
        dispatch,
        ..SimConfig::baseline()
    };
    let memo_cfg_for = |dispatch| SimConfig {
        dispatch,
        ..SimConfig::with_memo(memo_cfg.clone())
    };

    println!("sim_hot_loop_blackscholes_tiny");
    let b = bench_def.as_ref();
    let mut base = [0.0f64; 2];
    let mut memo = [0.0f64; 2];
    for (i, tier) in DispatchTier::ALL.into_iter().enumerate() {
        base[i] = measure(
            &format!("hot/baseline/{}", tier.name()),
            &base_cfg(tier),
            b,
            &program,
            false,
        );
        memo[i] = measure(
            &format!("hot/memoized/{}", tier.name()),
            &memo_cfg_for(tier),
            b,
            &memoized,
            false,
        );
    }
    let [legacy, threaded] = base;
    let [legacy_m, threaded_m] = memo;
    println!(
        "threaded speedup over legacy: baseline {:.2}x, memoized {:.2}x",
        threaded / legacy,
        threaded_m / legacy_m
    );

    // The profiled legs: same simulations with the cycle-attribution
    // profiler enabled (phase leaves + per-block attribution). The
    // overhead target is ≤10% MIPS regression; profiling-off is 0% by
    // construction (the legs above never construct a profiler).
    let cfg = base_cfg(DispatchTier::Threaded);
    let threaded_p = measure("hot/baseline/threaded+prof", &cfg, b, &program, true);
    let cfg = memo_cfg_for(DispatchTier::Threaded);
    let threaded_mp = measure("hot/memoized/threaded+prof", &cfg, b, &memoized, true);
    println!(
        "profiling overhead: baseline {:.1}% ({threaded:.1} -> {threaded_p:.1} MIPS), \
         memoized {:.1}% ({threaded_m:.1} -> {threaded_mp:.1} MIPS)",
        (1.0 - threaded_p / threaded) * 100.0,
        (1.0 - threaded_mp / threaded_m) * 100.0,
    );
}
