//! §6.2 L2-cache-size sensitivity: with a 256 KB L2 LUT, shrink the
//! total L2 cache from 1 MB to 512 KB (caching capacity 768 KB →
//! 256 KB) and measure the performance degradation. The paper reports a
//! 0.44% average slowdown (hotspot worst at 1.55%) — the L2 LUT earns
//! far more than the lost caching capacity costs.

fn main() {
    axmemo_bench::experiments::experiment("l2_sensitivity").main();
}
