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
//! this; the default is all ten). An unknown name exits 2 and is named
//! on stderr. Sweep cells run cold: only `warm_start` writes or
//! restores LUT snapshots, so the snapshot flags exit 2 here as on
//! every other binary. `--seed` and `--jobs` are read here (and through
//! `all_experiments`) and nowhere else.
//!
//! Every cell of the matrix normalises against the same fault-free
//! baseline, so the sweep shares one baseline simulation per benchmark
//! (19 cells → 1 baseline) through the orchestrator's `BaselineCache`
//! and derives each benchmark's cycle watchdog from its measured
//! baseline. A cell makes one attempt: the simulator is deterministic,
//! so a retry would fail identically.

use axmemo_bench::experiments::{experiment, fault_sweep};
use axmemo_bench::select_benches;

fn main() {
    // Split off the sweep-specific `--benches` flag; the driver parses
    // the rest.
    let sweep = &experiment("fault_sweep").bin;
    let ([benches], shared) = sweep.split_flags(std::env::args().skip(1), ["--benches"]);
    let benches = select_benches(benches.as_deref()).unwrap_or_else(|msg| sweep.usage_error(&msg));
    sweep.main_with(shared, |ctx, tel| fault_sweep(ctx, tel, &benches));
}
