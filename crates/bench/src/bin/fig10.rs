//! Figure 10: (a) whole-application quality loss per benchmark and
//! configuration; (b) CDF of element-wise relative error for the
//! L1(8KB)+L2(512KB) configuration; plus the software-LUT contender's
//! higher-collision error.

fn main() {
    axmemo_bench::experiments::experiment("fig10").main();
}
