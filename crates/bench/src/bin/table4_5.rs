//! Tables 4 & 5: ISA timing parameters and the synthesised hardware's
//! area / energy / latency figures, including the §6.1 area-overhead
//! claim (memoization hardware ≈ 2% of the two-core HPI processor).

fn main() {
    axmemo_bench::experiments::experiment("table4_5").main();
}
