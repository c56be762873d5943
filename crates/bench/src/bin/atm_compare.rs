//! §6.2 "Comparison with prior work": per-benchmark speedup of our ATM
//! (Approximate Task Memoization) reimplementation, normalised to the
//! baseline. The paper reports speedups only for blackscholes, fft,
//! inversek2j and kmeans, with slowdowns elsewhere and a geomean of
//! 0.8x.

fn main() {
    axmemo_bench::experiments::experiment("atm_compare").main();
}
