//! Run every experiment (tables 1/2/4/5, figures 7-11, the ATM
//! comparison, the L2-size sensitivity, the ablations, and the
//! full-matrix fault sweep) in one process. Useful for regenerating
//! EXPERIMENTS.md data in one go:
//!
//! ```text
//! AXMEMO_SCALE=small cargo run --release -p axmemo-bench --bin all_experiments -- --jobs 4
//! ```
//!
//! Experiments run on the `bench::orchestrator` worker pool and share
//! one baseline cache and one paper matrix, so figures 7-10 and the
//! contender comparisons simulate their common cells once. Each
//! experiment's output is printed in the fixed experiment order
//! regardless of which finishes first, so the combined output is
//! identical for any `--jobs` value. `--seed`, `--report` and
//! `--dispatch` apply to every experiment.
//!
//! `--profile-out <path>` merges every experiment's cycle-attribution
//! profile in fixed experiment order and writes the aggregate to
//! `<path>` in the `--profile` format; each simulated run is counted
//! once. `--trace-out` and the snapshot flags exit 2.

fn main() {
    axmemo_bench::experiments::all_experiments();
}
