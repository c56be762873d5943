//! Multi-core study (§3.4 / §6.1: one private memoization unit per
//! core, no LUT coherence): shard one workload's input range across
//! 1/2/4 cores and measure makespan scaling plus the duplicated warm-up
//! misses the coherence-free design pays.
//!
//! Takes no flags; the scale comes from `AXMEMO_SCALE`.

use axmemo_bench::scale_from_env;
use axmemo_compiler::codegen::memoize;
use axmemo_core::config::MemoConfig;
use axmemo_sim::cpu::SimConfig;
use axmemo_sim::multicore::MultiCore;
use axmemo_workloads::{benchmark_by_name, Dataset, Scale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("error: multicore_scaling takes no arguments (got {arg:?})");
        eprintln!("usage: multicore_scaling (set AXMEMO_SCALE=tiny|small|full)");
        std::process::exit(2);
    }
    let scale = scale_from_env();
    // Use kmeans: its per-pixel kernel shards trivially and its LUT
    // contents (pixel -> cluster) are identical across shards, so the
    // duplicate-warm-up cost of private LUTs is visible.
    let bench = benchmark_by_name("kmeans").ok_or(
        "benchmark \"kmeans\" is not registered in this build; \
         the multi-core study requires it",
    )?;
    let (program, specs) = bench.program(match scale {
        Scale::Full => Scale::Small, // keep the 4-core case tractable
        s => s,
    });
    let memoized = memoize(&program, &specs)?;
    let cfg = SimConfig::with_memo(MemoConfig {
        data_width: bench.data_width(),
        ..MemoConfig::l1_l2(8 * 1024, 256 * 1024)
    });

    println!("Multi-core scaling (kmeans, private coherence-free units)");
    println!(
        "{:>5} | {:>12} | {:>10} | {:>12} | {:>16}",
        "cores", "makespan", "agg. hit", "total insts", "dup warm misses"
    );
    let (mut single_makespan, mut quad_makespan) = (0u64, 0u64);
    for cores in [1usize, 2, 4] {
        let mut mc = MultiCore::new(cores, &cfg)?;
        // Every core runs the same program over the same shard size:
        // a weak-scaling experiment (N pixels per core).
        let mut jobs: Vec<_> = (0..cores)
            .map(|_| {
                (
                    memoized.clone(),
                    bench.setup(
                        match scale {
                            Scale::Full => Scale::Small,
                            s => s,
                        },
                        Dataset::Eval,
                    ),
                )
            })
            .collect();
        let stats = mc.run(&mut jobs)?;
        match cores {
            1 => single_makespan = stats.makespan,
            4 => quad_makespan = stats.makespan,
            _ => {}
        }
        println!(
            "{:>5} | {:>12} | {:>9.1}% | {:>12} | {:>16}",
            cores,
            stats.makespan,
            100.0 * stats.aggregate_hit_rate(),
            stats.total_insts(),
            stats.duplicate_miss_estimate()
        );
    }
    println!();
    println!(
        "weak scaling: 4x work at {:.2}x the 1-core makespan (cores are independent; no coherence traffic to model)",
        quad_makespan as f64 / single_makespan as f64
    );
    Ok(())
}
