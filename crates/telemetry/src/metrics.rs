//! Metrics registry: monotonic counters, gauges, and fixed-bucket
//! histograms with quantile readout.
//!
//! Names are `&'static str` so the hot path never allocates; the
//! registry uses `BTreeMap` so every readout (text report, JSON
//! snapshot) is deterministically ordered.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::escape_json;

/// Default histogram bucket upper bounds (powers of two up to 64k) —
/// suitable for cycle latencies and queue occupancies alike.
pub const DEFAULT_BUCKETS: &[f64] = &[
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 4096.0, 16384.0, 65536.0,
];

/// A fixed-bucket histogram.
///
/// `bounds` are the inclusive upper bounds of each bucket; one implicit
/// overflow bucket catches everything above the last bound. Quantiles
/// are read out as the upper bound of the bucket containing the q-th
/// sample (clamped to the observed max for the overflow bucket), which
/// is exact for integer-valued observations that land on bounds and
/// conservative otherwise.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// Histogram with the given inclusive upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            total: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation. Counts saturate at `u64::MAX` rather
    /// than wrapping (a long sweep or an accumulated merge can outlive
    /// any counter headroom assumption).
    pub fn observe(&mut self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] = self.counts[idx].saturating_add(1);
        self.total = self.total.saturating_add(1);
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Quantile readout for `q` in `[0, 1]`: the upper bound of the
    /// bucket containing the ⌈q·N⌉-th observation, clamped to the
    /// observed max (exact for the overflow bucket). Returns 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                let bound = self.bounds.get(i).copied().unwrap_or(f64::INFINITY);
                return bound.min(self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts (last entry is the overflow bucket).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }
}

/// The metrics registry owned by a `Telemetry` handle.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to the counter `name` (auto-registered at 0).
    /// Saturates at `u64::MAX` instead of overflowing — a long run must
    /// degrade its telemetry, not panic (debug) or wrap to a nonsense
    /// value (release).
    pub fn counter_add(&mut self, name: &'static str, n: u64) {
        let c = self.counters.entry(name).or_insert(0);
        *c = c.saturating_add(n);
    }

    /// Current value of counter `name` (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set gauge `name` to `v`.
    pub fn gauge_set(&mut self, name: &'static str, v: f64) {
        self.gauges.insert(name, v);
    }

    /// Current gauge value.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Register a histogram with explicit bucket bounds. No-op if the
    /// name already exists (the original bounds win).
    pub fn register_histogram(&mut self, name: &'static str, bounds: &[f64]) {
        self.histograms
            .entry(name)
            .or_insert_with(|| Histogram::new(bounds));
    }

    /// Record an observation into histogram `name`, auto-registering it
    /// with [`DEFAULT_BUCKETS`] on first use.
    pub fn observe(&mut self, name: &'static str, v: f64) {
        self.histograms
            .entry(name)
            .or_insert_with(|| Histogram::new(DEFAULT_BUCKETS))
            .observe(v);
    }

    /// Read a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.gauges.iter().map(|(k, v)| (*k, *v))
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(k, v)| (*k, v))
    }

    /// Fold another registry into this one: counters add, gauges take
    /// the other's value, histograms merge bucket-wise when the bounds
    /// agree (and are replaced otherwise).
    pub fn merge(&mut self, other: &Registry) {
        for (k, v) in &other.counters {
            let c = self.counters.entry(k).or_insert(0);
            *c = c.saturating_add(*v);
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k, *v);
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) if mine.bounds == h.bounds => {
                    for (c, o) in mine.counts.iter_mut().zip(&h.counts) {
                        *c = c.saturating_add(*o);
                    }
                    mine.total = mine.total.saturating_add(h.total);
                    mine.sum += h.sum;
                    mine.min = mine.min.min(h.min);
                    mine.max = mine.max.max(h.max);
                }
                _ => {
                    self.histograms.insert(k, h.clone());
                }
            }
        }
    }

    /// Deterministic JSON object with `counters`, `gauges` and
    /// histogram summaries.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_json(k, &mut out);
            let _ = write!(out, "\":{v}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_json(k, &mut out);
            if v.is_finite() {
                let _ = write!(out, "\":{v}");
            } else {
                out.push_str("\":null");
            }
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_json(k, &mut out);
            let _ = write!(
                out,
                "\":{{\"count\":{},\"mean\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                h.count(),
                h.mean(),
                h.min(),
                h.max(),
                h.p50(),
                h.p90(),
                h.p99()
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut r = Registry::new();
        assert_eq!(r.counter("a"), 0);
        r.counter_add("a", 2);
        r.counter_add("a", 3);
        assert_eq!(r.counter("a"), 5);
    }

    #[test]
    fn gauges_overwrite() {
        let mut r = Registry::new();
        r.gauge_set("occ", 1.0);
        r.gauge_set("occ", 7.5);
        assert_eq!(r.gauge("occ"), Some(7.5));
        assert_eq!(r.gauge("missing"), None);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper() {
        let mut h = Histogram::new(&[1.0, 10.0, 100.0]);
        h.observe(1.0); // bucket 0 (<= 1)
        h.observe(1.5); // bucket 1
        h.observe(10.0); // bucket 1 (<= 10)
        h.observe(10.1); // bucket 2
        h.observe(1000.0); // overflow
        assert_eq!(h.bucket_counts(), &[1, 2, 1, 1]);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn histogram_quantiles_read_bucket_upper_bounds() {
        let mut h = Histogram::new(&[1.0, 2.0, 4.0, 8.0]);
        // 90 observations of 1, 9 of 3, 1 of 7: p50=1, p90=1, p99=4.
        for _ in 0..90 {
            h.observe(1.0);
        }
        for _ in 0..9 {
            h.observe(3.0);
        }
        h.observe(7.0);
        assert_eq!(h.p50(), 1.0);
        assert_eq!(h.p90(), 1.0);
        assert_eq!(h.p99(), 4.0);
        assert_eq!(h.quantile(1.0), 7.0); // clamped to the observed max
    }

    #[test]
    fn histogram_empty_reads_zero() {
        let h = Histogram::new(&[1.0]);
        assert_eq!(h.p50(), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn histogram_overflow_quantile_clamps_to_max() {
        let mut h = Histogram::new(&[1.0]);
        h.observe(500.0);
        h.observe(900.0);
        assert_eq!(h.p99(), 900.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    fn registry_merge_adds_counters_and_buckets() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        a.counter_add("x", 1);
        b.counter_add("x", 2);
        b.counter_add("y", 5);
        a.register_histogram("h", &[1.0, 2.0]);
        b.register_histogram("h", &[1.0, 2.0]);
        a.observe("h", 1.0);
        b.observe("h", 2.0);
        a.merge(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.counter("y"), 5);
        let h = a.histogram("h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.bucket_counts(), &[1, 1, 0]);
    }

    #[test]
    fn counter_add_saturates_instead_of_overflowing() {
        let mut r = Registry::new();
        r.counter_add("c", u64::MAX - 1);
        r.counter_add("c", 5);
        assert_eq!(r.counter("c"), u64::MAX);
        r.counter_add("c", 1);
        assert_eq!(r.counter("c"), u64::MAX);
    }

    #[test]
    fn merge_saturates_counters_and_histogram_totals() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        a.counter_add("c", u64::MAX);
        b.counter_add("c", 7);
        a.merge(&b);
        assert_eq!(a.counter("c"), u64::MAX);

        let mut h = Histogram::new(&[1.0]);
        h.observe(0.5);
        // Force the saturated regime directly: totals pinned at MAX
        // must stay there through observe and merge.
        h.total = u64::MAX;
        h.counts[0] = u64::MAX;
        h.observe(0.5);
        assert_eq!(h.count(), u64::MAX);
        assert_eq!(h.bucket_counts()[0], u64::MAX);
        let mut mine = Registry::new();
        mine.register_histogram("h", &[1.0]);
        mine.observe("h", 0.5);
        let mut theirs = Registry::new();
        theirs.register_histogram("h", &[1.0]);
        theirs.observe("h", 0.5);
        theirs.histograms.get_mut("h").unwrap().total = u64::MAX;
        theirs.histograms.get_mut("h").unwrap().counts[0] = u64::MAX;
        mine.merge(&theirs);
        assert_eq!(mine.histogram("h").unwrap().count(), u64::MAX);
    }

    #[test]
    fn registry_json_is_deterministic() {
        let mut r = Registry::new();
        r.counter_add("b", 1);
        r.counter_add("a", 2);
        r.gauge_set("g", 0.5);
        let j = r.to_json();
        assert!(j.starts_with("{\"counters\":{\"a\":2,\"b\":1}"), "{j}");
        assert!(j.contains("\"gauges\":{\"g\":0.5}"), "{j}");
    }
}
