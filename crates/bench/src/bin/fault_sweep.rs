//! Full-matrix fault-injection sweep: output quality, LUT hit rate, and
//! speedup as bit-flip rates rise, across **all ten benchmarks**, the
//! three fault domains ({L1-only, L2-only, L1+L2} flips), and
//! unprotected vs. parity+SECDED LUT arrays.
//!
//! The paper's reliability argument (§3.4) is qualitative — LUT faults
//! only perturb *approximate* results, so memoization degrades quality
//! instead of crashing. This sweep quantifies that claim over the whole
//! matrix. Jobs run on the `bench::orchestrator` worker pool: `--jobs N`
//! selects the worker count (default: available parallelism) and the
//! report is byte-identical for any worker count and a fixed `--seed`.
//! Each job runs under a cycle watchdog with panics caught, so a cell
//! that trips the watchdog or panics shows up as a structured failure
//! row instead of killing the sweep.
//!
//! Extra flag (before the shared ones): `--benches a,b,c` restricts the
//! matrix to a comma-separated benchmark subset (CI smoke runs use
//! this; the default is all ten). Sweep cells never snapshot or
//! restore, so `--snapshot-out`, `--restore-from` and
//! `--restore-policy` exit 2.
//!
//! Every cell of the matrix normalises against the same fault-free
//! baseline, so the sweep shares one baseline simulation per benchmark
//! (19 cells → 1 baseline) through the orchestrator's `BaselineCache`
//! and derives each benchmark's cycle watchdog from its measured
//! baseline. A cell makes one attempt; a failed fault-injected cell
//! makes one more with faults cleared, reported as `ok*` if it passes.

use axmemo_bench::orchestrator::{merge_profiles, Orchestrator};
use axmemo_bench::{scale_from_env, sweep, BenchArgs, ReportMode};
use axmemo_workloads::all_benchmarks;

const USAGE: &str = "usage: fault_sweep [--benches a,b,c] [--trace-out <path>] \
                     [--report text|json] [--seed <n>] [--jobs <n>] \
                     [--dispatch legacy|threaded] \
                     [--profile-out <path>] [--profile folded|json|text]";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Split off the sweep-specific `--benches` flag, hand the rest to
    // the shared parser.
    let mut benches: Vec<String> = Vec::new();
    let mut shared = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        if arg == "--benches" {
            let list = it.next().unwrap_or_else(|| {
                eprintln!("error: --benches requires a comma-separated list");
                std::process::exit(2);
            });
            benches = list.split(',').map(str::to_string).collect();
        } else if matches!(
            arg.as_str(),
            "--snapshot-out" | "--restore-from" | "--restore-policy"
        ) {
            eprintln!(
                "error: fault_sweep does not take {arg}: sweep cells never snapshot or restore"
            );
            eprintln!("{USAGE}");
            std::process::exit(2);
        } else {
            shared.push(arg);
        }
    }
    let args = BenchArgs::try_from_iter(shared).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        eprintln!("{USAGE}");
        std::process::exit(2);
    });
    if benches.is_empty() {
        benches = all_benchmarks()
            .iter()
            .map(|b| b.meta().name.to_string())
            .collect();
    }

    let mut tel = args.telemetry()?;
    let scale = scale_from_env();
    let (matrix, metas) = sweep::matrix(args.seed, &benches);
    let outcomes = Orchestrator::new(scale)
        .jobs(args.effective_jobs())
        .progress(true)
        .dispatch(args.dispatch)
        .profile(args.profiling())
        .run_with_telemetry(&matrix, &mut tel);
    let table = sweep::table(scale, args.seed, &metas, &outcomes);
    if let Some(profile) = merge_profiles(&outcomes) {
        args.write_profile(&profile)?;
    }

    println!("{}", table.render(args.report));
    tel.flush();
    if tel.is_enabled() && args.report == ReportMode::Text {
        println!("{}", tel.text_report());
    }
    Ok(())
}
