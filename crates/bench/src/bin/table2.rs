//! Table 2: benchmark inventory — domain, description, dataset,
//! memoization input sizes, and truncated bits per memoized block.

fn main() {
    axmemo_bench::experiments::experiment("table2").main();
}
