//! Run every experiment (tables 1/2/4/5, figures 7-11, the ATM
//! comparison, the L2-size sensitivity, the ablations, and the
//! full-matrix fault sweep) by invoking their binaries on the
//! `bench::orchestrator` worker pool. Useful for regenerating
//! EXPERIMENTS.md data in one go:
//!
//! ```text
//! AXMEMO_SCALE=small cargo run --release -p axmemo-bench --bin all_experiments -- --jobs 4
//! ```
//!
//! Each binary's stdout/stderr is captured and printed in the fixed
//! experiment order regardless of which finishes first, so the combined
//! output is identical for any `--jobs` value. `--seed`/`--report` are
//! forwarded to every child.
//!
//! `--profile-out <path>` forwards per-child profile collection to the
//! profiler-wired children (figures 7-11 and the fault sweep) as JSON
//! part-files, merges the parts in fixed experiment order, and writes
//! one aggregated profile to `<path>` in the `--profile` format. The
//! merge is element-wise addition in a fixed order, so the aggregate is
//! identical for any `--jobs` value.

use std::process::Command;

use axmemo_bench::orchestrator::parallel_map;
use axmemo_bench::{BenchArgs, ReportMode};
use axmemo_telemetry::Profile;

/// Children that collect cycle-attribution profiles when asked.
const PROFILED_BINS: [&str; 6] = ["fig7", "fig8", "fig9", "fig10", "fig11", "fault_sweep"];

fn main() {
    let args = BenchArgs::parse();
    let bins = [
        "table1",
        "table2",
        "table4_5",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "atm_compare",
        "l2_sensitivity",
        "ablation_crc",
        "ablation_two_level",
        "ablation_branch_predictor",
        "fault_sweep",
    ];
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("error: cannot locate the all_experiments executable (needed to find its sibling binaries): {e}");
        std::process::exit(1);
    });
    let dir = exe.parent().unwrap_or_else(|| {
        eprintln!(
            "error: executable path {} has no parent directory to find sibling binaries in",
            exe.display()
        );
        std::process::exit(1);
    });
    let mut forwarded = vec!["--seed".to_string(), args.seed.to_string()];
    if args.report == ReportMode::Json {
        forwarded.extend(["--report".to_string(), "json".to_string()]);
    }
    // Children get the pool's worker slots one at a time; the expensive
    // sweep child parallelises internally only when this driver runs
    // serially, otherwise the host would be oversubscribed.
    let child_jobs = if args.effective_jobs() > 1 { 1 } else { 0 };

    let profile_part = |bin: &str| -> Option<String> {
        let out = args.profile_out.as_deref()?;
        PROFILED_BINS
            .contains(&bin)
            .then(|| format!("{out}.{bin}.part.json"))
    };

    let outputs = parallel_map(args.effective_jobs(), bins.len(), |i| {
        let bin = bins[i];
        let mut cmd = Command::new(dir.join(bin));
        cmd.args(&forwarded);
        if bin == "fault_sweep" && child_jobs > 0 {
            cmd.args(["--jobs", "1"]);
        }
        if let Some(part) = profile_part(bin) {
            cmd.args(["--profile-out", &part, "--profile", "json"]);
        }
        cmd.output()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"))
    });

    let mut failed = false;
    for (bin, output) in bins.iter().zip(&outputs) {
        println!("\n==================== {bin} ====================");
        print!("{}", String::from_utf8_lossy(&output.stdout));
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        if !output.status.success() {
            eprintln!("{bin} exited with {}", output.status);
            failed = true;
        }
    }
    // Merge the children's profile part-files in fixed experiment
    // order and write the aggregate where `--profile-out` asked.
    if args.profiling() {
        let mut merged: Option<Profile> = None;
        for bin in &bins {
            let Some(part) = profile_part(bin) else {
                continue;
            };
            let Ok(json) = std::fs::read_to_string(&part) else {
                // The child failed before writing its part (already
                // reported above); merge what exists.
                continue;
            };
            match Profile::from_json(&json) {
                Ok(profile) => match &mut merged {
                    Some(m) => m.merge(&profile),
                    None => merged = Some(profile),
                },
                Err(e) => {
                    eprintln!("{bin}: unreadable profile part {part}: {e}");
                    failed = true;
                }
            }
            let _ = std::fs::remove_file(&part);
        }
        if let Some(profile) = merged {
            if let Err(e) = args.write_profile(&profile) {
                eprintln!("{e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
