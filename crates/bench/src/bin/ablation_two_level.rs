//! Ablation: two-level LUT vs. a single level at the same total
//! capacity (design decision 2 in DESIGN.md).
//!
//! The two-level split buys a cheap common case (2-cycle L1) while the
//! LLC partition supplies capacity; this sweep quantifies what a single
//! flat level of equal capacity would have to cost to match.

use axmemo_bench::{geomean, run_cell, scale_from_env, BaselineCache, BenchArgs, SnapshotPlan};
use axmemo_core::config::MemoConfig;
use axmemo_telemetry::Telemetry;
use axmemo_workloads::all_benchmarks;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = BenchArgs::parse();
    let scale = scale_from_env();
    // Six configurations share each benchmark's single baseline run.
    let cache = BaselineCache::new();
    println!("Ablation: L1-only vs two-level at matched capacities, scale {scale:?}");
    // 16 KB is the dedicated-SRAM ceiling (§3.3); capacity beyond that
    // is only reachable through the LLC partition.
    let configs: Vec<(&str, MemoConfig)> = vec![
        ("L1 4KB (flat)", MemoConfig::l1_only(4 * 1024)),
        ("L1 8KB (flat)", MemoConfig::l1_only(8 * 1024)),
        (
            "L1 16KB (flat, SRAM ceiling)",
            MemoConfig::l1_only(16 * 1024),
        ),
        ("L1 8KB + L2 64KB", MemoConfig::l1_l2(8 * 1024, 64 * 1024)),
        ("L1 8KB + L2 256KB", MemoConfig::l1_l2(8 * 1024, 256 * 1024)),
        ("L1 8KB + L2 512KB", MemoConfig::l1_l2(8 * 1024, 512 * 1024)),
    ];
    println!(
        "{:<30} | {:>10} | {:>10}",
        "configuration", "geo speedup", "mean hit"
    );
    for (name, cfg) in configs {
        let mut speedups = Vec::new();
        let mut hits = Vec::new();
        for bench in all_benchmarks() {
            let r = run_cell(
                bench.as_ref(),
                scale,
                &cfg,
                Telemetry::off(),
                &cache,
                args.run_options(),
                &SnapshotPlan::default(),
            )?
            .result;
            speedups.push(r.speedup);
            hits.push(r.hit_rate);
        }
        println!(
            "{:<30} | {:>9.2}x | {:>9.1}%",
            name,
            geomean(&speedups),
            100.0 * hits.iter().sum::<f64>() / hits.len() as f64
        );
    }
    println!();
    println!("Expectation: capacity beyond the 16 KB SRAM ceiling is only");
    println!("reachable via the L2 partition — the two-level design recovers");
    println!("the flat-LUT hit rate without growing the dedicated array.");
    Ok(())
}
