//! Figure 9: LUT hit rate per benchmark across the four hardware
//! configurations plus the software-LUT contender.

fn main() {
    axmemo_bench::experiments::experiment("fig9").main();
}
