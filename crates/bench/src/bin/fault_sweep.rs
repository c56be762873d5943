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
//! `--restore-policy` exit 2, as for every experiment but fig7–fig10.
//!
//! Every cell of the matrix normalises against the same fault-free
//! baseline, so the sweep shares one baseline simulation per benchmark
//! (19 cells → 1 baseline) through the orchestrator's `BaselineCache`
//! and derives each benchmark's cycle watchdog from its measured
//! baseline. A cell makes one attempt; a failed fault-injected cell
//! makes one more with faults cleared, reported as `ok*` if it passes.

use axmemo_bench::experiments::{experiment, fault_sweep};

fn main() {
    // Split off the sweep-specific `--benches` flag; the driver parses
    // the rest.
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
        } else {
            shared.push(arg);
        }
    }
    experiment("fault_sweep").main_with(shared, |ctx, tel| fault_sweep(ctx, tel, &benches));
}
