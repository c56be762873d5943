//! Metrics registry: monotonic counters.
//!
//! Names are `&'static str` so the hot path never allocates; the
//! registry uses `BTreeMap` so every readout (text report, JSON
//! snapshot) is deterministically ordered.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::escape_json;

/// The metrics registry owned by a `Telemetry` handle.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: BTreeMap<&'static str, u64>,
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

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// Deterministic JSON object `{"counters":{…}}`, names in order.
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
    fn counter_add_saturates_instead_of_overflowing() {
        let mut r = Registry::new();
        r.counter_add("c", u64::MAX - 1);
        r.counter_add("c", 5);
        assert_eq!(r.counter("c"), u64::MAX);
        r.counter_add("c", 1);
        assert_eq!(r.counter("c"), u64::MAX);
    }

    #[test]
    fn registry_json_is_deterministic() {
        let mut r = Registry::new();
        r.counter_add("b", 1);
        r.counter_add("a", 2);
        assert_eq!(r.to_json(), "{\"counters\":{\"a\":2,\"b\":1}}");
    }
}
