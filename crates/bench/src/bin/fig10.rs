//! Figure 10: (a) whole-application quality loss per benchmark and
//! configuration; (b) CDF of element-wise relative error for the
//! L1(8KB)+L2(512KB) configuration; plus the software-LUT contender's
//! higher-collision error.

use axmemo_bench::{
    collect_events_cached, paper_configs, run_cell, scale_from_env, software_lut_outcome,
    BaselineCache, BenchArgs, ReportMode, SnapshotPlan, Table,
};
use axmemo_core::config::MemoConfig;
use axmemo_workloads::all_benchmarks;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = BenchArgs::parse();
    let mut tel = args.telemetry()?;
    let scale = scale_from_env();
    let configs = paper_configs();
    // One shared baseline per benchmark across all configurations and
    // the contender-input collection.
    let cache = BaselineCache::new();

    let mut columns = vec!["Benchmark"];
    let config_names: Vec<&str> = configs.iter().map(|(n, _)| n.as_str()).collect();
    columns.extend(config_names.iter().copied());
    columns.push("SW LUT collisions");
    let mut table = Table::new(
        format!(
            "Figure 10a: whole-application quality loss (Eq. 2; misclassification for jmeint), scale {scale:?}"
        ),
        &columns,
    );

    let big = MemoConfig::l1_l2(8 * 1024, 512 * 1024);
    let mut cdf_sources = Vec::new();
    for bench in all_benchmarks() {
        let mut cells = vec![bench.meta().name.to_string()];
        for (_, cfg) in &configs {
            let report = run_cell(
                bench.as_ref(),
                scale,
                cfg,
                tel,
                &cache,
                args.run_options(),
                &SnapshotPlan::default(),
            )?;
            tel = report.telemetry;
            let r = &report.result;
            cells.push(format!("{:.4}%", 100.0 * r.error.output_error));
            if *cfg == big {
                cdf_sources.push((bench.meta().name, r.error.elementwise.clone()));
            }
        }
        let inputs = collect_events_cached(bench.as_ref(), scale, Some(&cache))?;
        let sw = software_lut_outcome(&inputs);
        cells.push(format!("{:.2}%", 100.0 * sw.collision_rate()));
        table.row(cells);
    }
    println!("{}", table.render(args.report));

    let mut cdf = Table::new(
        "Figure 10b: CDF of element-wise relative error, L1(8KB)+L2(512KB)",
        &["Benchmark", "p50", "p90", "p99", "p99.9", "max"],
    );
    for (name, mut errs) in cdf_sources {
        errs.sort_by(f64::total_cmp);
        let q = |p: f64| -> f64 {
            if errs.is_empty() {
                return 0.0;
            }
            let i = ((errs.len() - 1) as f64 * p) as usize;
            errs[i]
        };
        cdf.row(vec![
            name.to_string(),
            format!("{:.2e}", q(0.5)),
            format!("{:.2e}", q(0.9)),
            format!("{:.2e}", q(0.99)),
            format!("{:.2e}", q(0.999)),
            format!("{:.2e}", errs.last().copied().unwrap_or(0.0)),
        ]);
    }
    println!("{}", cdf.render(args.report));
    if let Some(profile) = tel.take_profile() {
        args.write_profile(&profile)?;
    }
    tel.flush();
    if tel.is_enabled() && args.report == ReportMode::Text {
        println!("{}", tel.text_report());
    }
    Ok(())
}
