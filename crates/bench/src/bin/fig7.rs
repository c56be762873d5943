//! Figure 7: (a) whole-application speedup and (b) energy saving per
//! benchmark across the four LUT configurations, plus the software-LUT
//! contender, all normalised to the non-memoized baseline.

fn main() {
    axmemo_bench::experiments::experiment("fig7").main();
}
