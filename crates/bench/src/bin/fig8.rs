//! Figure 8: dynamic instruction count of the memoized run normalised
//! to the baseline, with the memoization-instruction share (the black
//! bar segment), per benchmark and LUT configuration; plus the
//! software-LUT contender's instruction ratio (~2x in the paper).

fn main() {
    axmemo_bench::experiments::experiment("fig8").main();
}
