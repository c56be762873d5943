//! Human-readable compilation report — what the AxMemo compiler
//! selected and why (the "compiler explain" view of the §5 workflow).
//!
//! [`CompilationReport`] aggregates the analysis artefacts (DDDG
//! statistics, surviving candidates with their CI ratios, chosen
//! truncation levels) and renders them as text, so a user can audit
//! which code became a LUT and under what error budget.

use crate::candidates::{AnalysisSummary, Candidate};
use crate::codegen::RegionSpec;
use core::fmt;

/// One selected region in the report.
#[derive(Debug, Clone)]
pub struct SelectedRegion {
    /// Region id in the program.
    pub region: u32,
    /// Candidate statistics backing the selection.
    pub ci_ratio: f64,
    /// Vertices replaced per invocation.
    pub vertices: usize,
    /// External inputs.
    pub inputs: usize,
    /// Chosen truncation bits per input.
    pub truncation: Vec<u8>,
    /// The error bound the truncation was profiled against.
    pub error_bound: f64,
}

/// The full report.
#[derive(Debug, Clone)]
pub struct CompilationReport {
    /// Program / benchmark name.
    pub name: String,
    /// DDDG-level summary (Table 1 row).
    pub analysis: AnalysisSummary,
    /// Selected regions.
    pub regions: Vec<SelectedRegion>,
}

impl CompilationReport {
    /// Assemble a report from analysis artefacts.
    pub fn new(
        name: impl Into<String>,
        analysis: AnalysisSummary,
        candidates: &[Candidate],
        specs: &[RegionSpec],
        error_bound: f64,
    ) -> Self {
        let regions = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let cand = candidates.get(i);
                let mut truncation: Vec<u8> = spec.input_loads.iter().map(|l| l.trunc).collect();
                truncation.extend(spec.reg_inputs.iter().map(|r| r.trunc));
                SelectedRegion {
                    region: spec.region,
                    ci_ratio: cand.map(Candidate::ci_ratio).unwrap_or(0.0),
                    vertices: cand.map(|c| c.vertices.len()).unwrap_or(0),
                    inputs: spec.input_loads.len() + spec.reg_inputs.len(),
                    truncation,
                    error_bound,
                }
            })
            .collect();
        Self {
            name: name.into(),
            analysis,
            regions,
        }
    }
}

impl fmt::Display for CompilationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "AxMemo compilation report: {}", self.name)?;
        writeln!(
            f,
            "  DDDG: {} dynamic candidates -> {} unique, mean CI_Ratio {:.2}, coverage {:.1}%",
            self.analysis.total_dynamic_subgraphs,
            self.analysis.unique_subgraphs,
            self.analysis.mean_ci_ratio,
            100.0 * self.analysis.coverage
        )?;
        for r in &self.regions {
            writeln!(
                f,
                "  region {}: {} inputs, {} vertices replaced, CI_Ratio {:.2}",
                r.region, r.inputs, r.vertices, r.ci_ratio
            )?;
            writeln!(
                f,
                "    truncation: {:?} bits (error bound {:.2}%)",
                r.truncation,
                100.0 * r.error_bound
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::{InputLoad, RegInput};
    use axmemo_core::ids::LutId;
    use axmemo_sim::ir::MemWidth;

    fn sample() -> CompilationReport {
        let analysis = AnalysisSummary {
            total_dynamic_subgraphs: 1000,
            unique_subgraphs: 2,
            mean_ci_ratio: 42.5,
            coverage: 0.87,
        };
        let candidates = vec![Candidate {
            vertices: vec![1, 2, 3, 4],
            output: 4,
            num_inputs: 2,
            weight: 100,
            signature: vec![10, 11, 12, 13],
        }];
        let specs = vec![RegionSpec {
            region: 1,
            lut: LutId::new(0).unwrap(),
            input_loads: vec![InputLoad { index: 5, trunc: 8 }],
            reg_inputs: vec![RegInput {
                reg: 3,
                width: MemWidth::B4,
                trunc: 8,
            }],
            output: 30,
        }];
        CompilationReport::new("demo", analysis, &candidates, &specs, 0.001)
    }

    #[test]
    fn report_aggregates_fields() {
        let r = sample();
        assert_eq!(r.regions.len(), 1);
        assert_eq!(r.regions[0].inputs, 2);
        assert_eq!(r.regions[0].truncation, vec![8, 8]);
        assert!((r.regions[0].ci_ratio - 50.0).abs() < 1e-9);
    }

    #[test]
    fn display_is_complete_and_nonempty() {
        let text = sample().to_string();
        assert!(text.contains("demo"));
        assert!(text.contains("coverage 87.0%"));
        assert!(text.contains("region 1"));
        assert!(text.contains("error bound 0.10%"));
    }
}
