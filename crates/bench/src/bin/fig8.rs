//! Figure 8: dynamic instruction count of the memoized run normalised
//! to the baseline, with the memoization-instruction share (the black
//! bar segment), per benchmark and LUT configuration; plus the
//! software-LUT contender's instruction ratio (~2x in the paper).

use axmemo_bench::{
    collect_events_cached, mean, paper_configs, run_cell, scale_from_env, software_lut_outcome,
    BaselineCache, BenchArgs, ReportMode, SnapshotPlan, Table,
};
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
    columns.push("Software LUT");
    let mut table = Table::new(
        format!("Figure 8: normalised dynamic instruction count (memo share in parens), scale {scale:?}"),
        &columns,
    );

    let mut totals: Vec<Vec<f64>> = vec![Vec::new(); configs.len()];
    let mut sw_ratios = Vec::new();
    for bench in all_benchmarks() {
        let mut cells = vec![bench.meta().name.to_string()];
        for (i, (_, cfg)) in configs.iter().enumerate() {
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
            cells.push(format!(
                "{:.3} ({:.1}%)",
                r.dyn_inst_ratio,
                100.0 * r.memo_inst_fraction
            ));
            totals[i].push(r.dyn_inst_ratio);
        }
        let inputs = collect_events_cached(bench.as_ref(), scale, Some(&cache))?;
        let sw = software_lut_outcome(&inputs);
        cells.push(format!("{:.3}", sw.inst_ratio));
        sw_ratios.push(sw.inst_ratio);
        table.row(cells);
    }

    for (i, (name, _)) in configs.iter().enumerate() {
        table.summary(
            name.clone(),
            format!(
                "mean dynamic-instruction reduction {:.1}%",
                100.0 * (1.0 - mean(&totals[i]))
            ),
        );
    }
    table.summary(
        "Software LUT",
        format!(
            "mean instruction ratio {:.2}x (paper: ~2.0x)",
            mean(&sw_ratios)
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
