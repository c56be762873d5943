//! Figure 11: effectiveness of approximation — speedup and energy
//! saving of AxMemo with truncation versus exact memoization (no
//! truncation), both on the L1(8KB)+L2(512KB) configuration.

fn main() {
    axmemo_bench::experiments::experiment("fig11").main();
}
