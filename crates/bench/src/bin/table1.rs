//! Table 1: DDDG analysis of the benchmarks — total dynamic candidate
//! subgraphs, unique subgraphs after filtering, mean compute-to-input
//! ratio, and memoization coverage.
//!
//! Per §5 the analysis runs on the *sample* input set (disjoint from
//! evaluation) and a bounded trace window.

fn main() {
    axmemo_bench::experiments::experiment("table1").main();
}
