//! Figure 9: LUT hit rate per benchmark across the four hardware
//! configurations plus the software-LUT contender.

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
    let mut table = Table::new(format!("Figure 9: LUT hit rate, scale {scale:?}"), &columns);

    let mut per_config: Vec<Vec<f64>> = vec![Vec::new(); configs.len()];
    let mut sw_rates = Vec::new();
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
            cells.push(format!("{:.1}%", 100.0 * r.hit_rate));
            per_config[i].push(r.hit_rate);
        }
        let inputs = collect_events_cached(bench.as_ref(), scale, Some(&cache))?;
        let sw = software_lut_outcome(&inputs);
        cells.push(format!("{:.1}%", 100.0 * sw.hit_rate()));
        sw_rates.push(sw.hit_rate());
        table.row(cells);
    }

    for (i, (name, _)) in configs.iter().enumerate() {
        table.summary(
            name.clone(),
            format!("mean hit rate {:.1}%", 100.0 * mean(&per_config[i])),
        );
    }
    table.summary(
        "Software LUT",
        format!(
            "mean hit rate {:.1}% (paper: 81.1%)",
            100.0 * mean(&sw_rates)
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
