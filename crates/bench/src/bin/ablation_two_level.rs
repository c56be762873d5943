//! Ablation: two-level LUT vs. a single level at the same total
//! capacity (design decision 2 in DESIGN.md).
//!
//! The two-level split buys a cheap common case (2-cycle L1) while the
//! LLC partition supplies capacity; this sweep quantifies what a single
//! flat level of equal capacity would have to cost to match.

fn main() {
    axmemo_bench::experiments::experiment("ablation_two_level").main();
}
