//! The benchmark definition in `BENCHMARK.json` at the repository root:
//! workload names, end-to-end metrics with their regression bounds, and
//! per-layer metric names. It is compiled into the binary so the ledger,
//! its diff and its smoke test all read the same bounds.

use crate::json::Json;

/// `BENCHMARK.json`, as committed.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric declared in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name as printed by the ledger.
    pub name: String,
    /// Unit as printed by the ledger.
    pub unit: String,
    /// `true` for `"better": "higher"`.
    pub higher_is_better: bool,
    /// Allowed worsening as a share of the parent's median
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed benchmark definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Seconds of timed passes one run measures.
    pub run_seconds: f64,
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// End-to-end metrics (each with a bound).
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics (no bounds).
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// Parse a `BENCHMARK.json` document.
    ///
    /// # Errors
    ///
    /// Names the first missing or mistyped field.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("BENCHMARK.json: missing array {key:?}"))
        };
        let workloads = list("workloads")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| "BENCHMARK.json: workload without a name".to_string())
            })
            .collect::<Result<_, _>>()?;
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .ok_or_else(|| format!("BENCHMARK.json: {key} entry without {f:?}"))
                    };
                    Ok(MetricSpec {
                        name: field("name")?.to_string(),
                        unit: field("unit")?.to_string(),
                        higher_is_better: field("better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: missing number \"run_seconds\"")?,
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The committed definition.
    ///
    /// # Panics
    ///
    /// Panics if the committed `BENCHMARK.json` does not parse, which
    /// the crate's own tests rule out.
    pub fn committed() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("committed BENCHMARK.json parses")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_definition_is_well_formed() {
        let spec = Spec::committed();
        assert!(spec.workloads.len() >= 2);
        assert!((1.0..=60.0).contains(&spec.run_seconds));
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| (0.0..=0.25).contains(&b))));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is declared");
        assert_eq!(setup.unit, "s");
        assert!(!setup.higher_is_better);
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
