//! Table 2 metadata for each benchmark.

/// Quality metric used for a benchmark's output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Equation 2 relative output error with the 0.1% compile-time bound.
    Numeric,
    /// Equation 2 with the 1% image bound.
    Image,
    /// Misclassification rate (jmeint's boolean output).
    Misclassification,
}

impl Metric {
    /// The compile-time error bound used for truncation selection (§5).
    pub fn bound(self) -> f64 {
        match self {
            Metric::Numeric => 0.001,
            Metric::Image => 0.01,
            // jmeint uses the same numeric bound on misclassification.
            Metric::Misclassification => 0.001,
        }
    }
}

/// Static description of a benchmark (one Table 2 row).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadMeta {
    /// Benchmark name.
    pub name: &'static str,
    /// Suite of origin.
    pub suite: &'static str,
    /// Application domain (Table 2 column 2).
    pub domain: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Description of the (synthetic) input dataset.
    pub dataset: &'static str,
    /// Total memoization input size in bytes per logical LUT (Table 2
    /// column 5). Multiple memoized blocks list one entry each.
    pub input_bytes: &'static [usize],
    /// Truncated bits per input for each memoized block (Table 2 last
    /// column).
    pub truncated_bits: &'static [u8],
    /// Quality metric.
    pub metric: Metric,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_bounds_match_paper() {
        assert_eq!(Metric::Numeric.bound(), 0.001);
        assert_eq!(Metric::Image.bound(), 0.01);
    }
}
