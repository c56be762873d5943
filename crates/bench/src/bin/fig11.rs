//! Figure 11: effectiveness of approximation — speedup and energy
//! saving of AxMemo with truncation versus exact memoization (no
//! truncation), both on the L1(8KB)+L2(512KB) configuration.

use axmemo_bench::{
    geomean, mean, run_cell, scale_from_env, BaselineCache, BenchArgs, ReportMode, RunOptions,
    SnapshotPlan, Table,
};
use axmemo_core::config::MemoConfig;
use axmemo_workloads::all_benchmarks;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = BenchArgs::parse();
    let mut tel = args.telemetry()?;
    let scale = scale_from_env();
    let cfg = MemoConfig::l1_l2(8 * 1024, 512 * 1024);
    let mut table = Table::new(
        format!(
            "Figure 11: with vs without approximation (truncation), L1(8KB)+L2(512KB), scale {scale:?}"
        ),
        &[
            "Benchmark",
            "speedup(ax)",
            "speedup(ex)",
            "energy(ax)",
            "energy(ex)",
            "hit(ax)",
            "hit(ex)",
        ],
    );
    let mut ax_speed = Vec::new();
    let mut ex_speed = Vec::new();
    let mut ax_hits = Vec::new();
    let mut ex_hits = Vec::new();
    // The truncated and exact runs of a benchmark share its baseline.
    let cache = BaselineCache::new();
    let plan = SnapshotPlan::default();
    let opts = args.run_options();
    let exact_opts = RunOptions {
        zero_trunc: true,
        ..opts
    };
    for bench in all_benchmarks() {
        let ax_report = run_cell(bench.as_ref(), scale, &cfg, tel, &cache, opts, &plan)?;
        tel = ax_report.telemetry;
        let ax = &ax_report.result;
        let ex_report = run_cell(bench.as_ref(), scale, &cfg, tel, &cache, exact_opts, &plan)?;
        tel = ex_report.telemetry;
        let ex = &ex_report.result;
        table.row(vec![
            bench.meta().name.to_string(),
            format!("{:.2}x", ax.speedup),
            format!("{:.2}x", ex.speedup),
            format!("{:.2}x", ax.energy_reduction),
            format!("{:.2}x", ex.energy_reduction),
            format!("{:.1}%", 100.0 * ax.hit_rate),
            format!("{:.1}%", 100.0 * ex.hit_rate),
        ]);
        ax_speed.push(ax.speedup);
        ex_speed.push(ex.speedup);
        ax_hits.push(ax.hit_rate);
        ex_hits.push(ex.hit_rate);
    }
    table.summary(
        "geomean speedup",
        format!(
            "{:.2}x with approximation vs {:.2}x exact ({:+.1}% from truncation)",
            geomean(&ax_speed),
            geomean(&ex_speed),
            100.0 * (geomean(&ax_speed) / geomean(&ex_speed) - 1.0)
        ),
    );
    table.summary(
        "mean hit rate",
        format!(
            "{:.1}% with approximation vs {:.1}% exact (paper: 76.1% vs 47.2%)",
            100.0 * mean(&ax_hits),
            100.0 * mean(&ex_hits)
        ),
    );
    println!("{}", table.render(args.report));
    if let Some(profile) = tel.take_profile() {
        args.write_profile(&profile)?;
    }
    tel.flush();
    if tel.is_enabled() && args.report == ReportMode::Text {
        println!("{}", tel.text_report());
    }
    Ok(())
}
