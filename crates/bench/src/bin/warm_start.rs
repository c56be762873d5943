//! Cold-vs-warm hit-rate curves: run each benchmark for several
//! *generations*, snapshotting the warm LUT image after every run and
//! restoring the next generation from it — the measurement behind the
//! snapshot/restore subsystem (`core::snapshot`).
//!
//! Generation 0 is an ordinary cold run that only writes its snapshot;
//! generation `k` warm-starts from generation `k-1`'s file. Because the
//! evaluation dataset is deterministic, a restored LUT already holds
//! the block signatures the run is about to look up, so the first-touch
//! misses of the cold run turn into hits and the hit-rate delta
//! directly measures what persistence buys.
//!
//! Extra flags (before the shared ones):
//!
//! * `--state-dir <dir>` — where the per-generation `.axmsnap` files
//!   live (default: `axmemo-warm-start` under the OS temp directory).
//! * `--generations <n>` — runs per benchmark, `>= 2` (default 3).
//! * `--benches a,b,c` — comma-separated benchmark subset (default:
//!   all). An unknown name exits 2 and is named on stderr.
//!
//! `--state-dir` sets every snapshot path, so the shared
//! `--snapshot-out` and `--restore-from` flags exit 2 here.
//!
//! The report contains no filesystem paths, so two runs with the same
//! flags (any `--state-dir`) are byte-identical — the property the CI
//! crash-recovery job diffs.

use axmemo_bench::{
    run_cell, scale_from_env, BaselineCache, BenchArgs, ReportMode, SnapshotPlan, Table,
};
use axmemo_core::config::MemoConfig;
use axmemo_workloads::all_benchmarks;
use std::path::PathBuf;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Split off the warm-start flags, hand the rest to the shared
    // parser (fault_sweep's idiom for binary-specific flags).
    let mut benches: Vec<String> = Vec::new();
    let mut state_dir: Option<PathBuf> = None;
    let mut generations: usize = 3;
    let mut shared = Vec::new();
    let usage = || -> ! {
        eprintln!(
            "usage: warm_start [--state-dir <dir>] [--generations <n>] [--benches a,b,c] \
             [--trace-out <path>] [--report text|json] [--seed <n>] [--jobs <n>] \
             [--dispatch legacy|threaded] \
             [--restore-policy oldest|mru] \
             [--profile-out <path>] [--profile folded|json|text]"
        );
        std::process::exit(2);
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--benches" => {
                let Some(list) = it.next() else {
                    eprintln!("error: --benches requires a comma-separated list");
                    usage();
                };
                benches = list.split(',').map(str::to_string).collect();
            }
            "--state-dir" => {
                let Some(dir) = it.next() else {
                    eprintln!("error: --state-dir requires a directory argument");
                    usage();
                };
                state_dir = Some(PathBuf::from(dir));
            }
            "--snapshot-out" | "--restore-from" => {
                eprintln!(
                    "error: warm_start does not take {arg}; --state-dir sets the snapshot paths"
                );
                usage();
            }
            "--generations" => {
                let value = it.next().unwrap_or_default();
                match value.parse() {
                    Ok(n) if n >= 2 => generations = n,
                    _ => {
                        eprintln!("error: --generations must be an integer >= 2, got {value:?}");
                        usage();
                    }
                }
            }
            _ => shared.push(arg),
        }
    }
    let args = BenchArgs::try_from_iter(shared).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        usage();
    });
    let known: Vec<String> = all_benchmarks()
        .iter()
        .map(|b| b.meta().name.to_string())
        .collect();
    let unknown: Vec<&str> = benches
        .iter()
        .filter(|b| !known.contains(b))
        .map(String::as_str)
        .collect();
    if !unknown.is_empty() {
        eprintln!(
            "error: --benches names unknown benchmark(s) {}; known: {}",
            unknown.join(","),
            known.join(",")
        );
        usage();
    }
    if benches.is_empty() {
        benches = known;
    }
    let state_dir = state_dir.unwrap_or_else(|| std::env::temp_dir().join("axmemo-warm-start"));

    let mut tel = args.telemetry()?;
    let scale = scale_from_env();
    let cache = BaselineCache::new();
    // One mid-size configuration: large enough to hold useful warm
    // state, small enough that a single run does not trivially saturate
    // it (the regime where persistence matters).
    let memo = MemoConfig::l1_only(8 * 1024);

    let mut table = Table::new(
        format!("Warm-start hit-rate curves, {generations} generations, scale {scale:?}"),
        &[
            "Benchmark",
            "Gen",
            "Start",
            "Hit rate",
            "Speedup",
            "Restored",
            "dHit vs cold",
        ],
    );

    let mut deltas: Vec<f64> = Vec::new();
    let mut warmer = 0usize;
    for bench in all_benchmarks() {
        let name = bench.meta().name.to_string();
        if !benches.contains(&name) {
            continue;
        }
        let snap_path =
            |generation: usize| state_dir.join(format!("{name}.gen{generation}.axmsnap"));
        let mut cold_hit_rate = 0.0;
        for generation in 0..generations {
            let plan = SnapshotPlan {
                restore_from: (generation > 0).then(|| snap_path(generation - 1)),
                snapshot_out: Some(snap_path(generation)),
                restore_policy: args.restore_policy,
            };
            let report = run_cell(
                bench.as_ref(),
                scale,
                &memo,
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
            if generation == 0 {
                cold_hit_rate = r.hit_rate;
            }
            let (start, restored) = match &report.recovery {
                Some(rec) => (
                    match rec.outcome {
                        axmemo_core::snapshot::RecoveryOutcome::Restored => "warm",
                        axmemo_core::snapshot::RecoveryOutcome::ColdStart => "cold",
                    },
                    rec.applied
                        .map(|a| a.l1_restored + a.l2_restored)
                        .unwrap_or(0),
                ),
                None => ("cold", 0),
            };
            let delta = r.hit_rate - cold_hit_rate;
            table.row(vec![
                name.clone(),
                generation.to_string(),
                start.to_string(),
                format!("{:.4}", r.hit_rate),
                format!("{:.2}x", r.speedup),
                restored.to_string(),
                format!("{delta:+.4}"),
            ]);
            if generation + 1 == generations {
                deltas.push(delta);
                if delta > 0.0 {
                    warmer += 1;
                }
            }
        }
    }

    table.summary(
        "benchmarks warmer than cold",
        format!("{warmer}/{}", deltas.len()),
    );
    table.summary(
        "mean final hit-rate delta",
        format!(
            "{:+.4}",
            if deltas.is_empty() {
                0.0
            } else {
                deltas.iter().sum::<f64>() / deltas.len() as f64
            }
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
