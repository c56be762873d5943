//! Figure 7: (a) whole-application speedup and (b) energy saving per
//! benchmark across the four LUT configurations, plus the software-LUT
//! contender, all normalised to the non-memoized baseline.

use axmemo_bench::{
    collect_events_cached, geomean, paper_configs, run_cell, scale_from_env, software_lut_outcome,
    BaselineCache, BenchArgs, ReportMode, Table,
};
use axmemo_workloads::all_benchmarks;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = BenchArgs::parse();
    let mut tel = args.telemetry()?;
    let scale = scale_from_env();
    let configs = paper_configs();
    // One shared baseline per benchmark across all four configurations
    // and the contender-input collection.
    let cache = BaselineCache::new();

    let mut columns = vec!["Benchmark", "Metric"];
    let config_names: Vec<&str> = configs.iter().map(|(n, _)| n.as_str()).collect();
    columns.extend(config_names.iter().copied());
    columns.push("Software LUT");
    let mut table = Table::new(
        format!("Figure 7a (speedup) / 7b (energy saving), scale {scale:?}"),
        &columns,
    );

    let mut speedups: Vec<Vec<f64>> = vec![Vec::new(); configs.len()];
    let mut energies: Vec<Vec<f64>> = vec![Vec::new(); configs.len()];
    let mut sw_speedups = Vec::new();

    for bench in all_benchmarks() {
        let name = bench.meta().name.to_string();
        // Warm persistence (--snapshot-out / --restore-from) is
        // per-benchmark; the empty default plan is a plain run.
        let plan = args.snapshot_plan_for(&name);
        let mut speed_cells = vec![name.clone(), "speedup".to_string()];
        let mut energy_cells = vec![name, "energy".to_string()];
        for (i, (_, cfg)) in configs.iter().enumerate() {
            let report = run_cell(
                bench.as_ref(),
                scale,
                cfg,
                tel,
                &cache,
                args.run_options(),
                &plan,
            )
            .unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(1);
            });
            tel = report.telemetry;
            let r = &report.result;
            speed_cells.push(format!("{:.2}x", r.speedup));
            energy_cells.push(format!("{:.2}x", r.energy_reduction));
            speedups[i].push(r.speedup);
            energies[i].push(r.energy_reduction);
        }
        let inputs = collect_events_cached(bench.as_ref(), scale, Some(&cache))?;
        let sw = software_lut_outcome(&inputs);
        speed_cells.push(format!("{:.2}x", sw.speedup));
        energy_cells.push(format!("{:.2}x", sw.energy_ratio));
        sw_speedups.push(sw.speedup);
        table.row(speed_cells).row(energy_cells);
    }

    for (i, (name, _)) in configs.iter().enumerate() {
        table.summary(
            name.clone(),
            format!(
                "geomean speedup {:.2}x, geomean energy reduction {:.2}x",
                geomean(&speedups[i]),
                geomean(&energies[i])
            ),
        );
    }
    table.summary(
        "Software LUT",
        format!(
            "geomean speedup {:.2}x (paper: 0.94x slowdown)",
            geomean(&sw_speedups)
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
