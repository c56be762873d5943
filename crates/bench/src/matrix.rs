//! The paper matrix behind Figures 7–10: every benchmark under the four
//! [`paper_configs`] plus its software-contender inputs, simulated once
//! and rendered four ways.
//!
//! The four figures print different columns of the same 10 × 4 cells
//! and the same event-recording runs. Each cell is a deterministic
//! function of its inputs, so the harness computes the matrix once and
//! every figure reads it into its [`Table`]s.

use axmemo_baselines::ContenderOutcome;
use axmemo_core::config::MemoConfig;
use axmemo_telemetry::Telemetry;
use axmemo_workloads::runner::BenchmarkResult;
use axmemo_workloads::{all_benchmarks, Scale};

use crate::{
    collect_events_cached, geomean, mean, paper_configs, run_cell, software_lut_outcome,
    BaselineCache, ContenderInputs, RunOptions, SnapshotPlan, Table,
};

/// One benchmark's row of the matrix.
#[derive(Debug)]
pub struct MatrixRow {
    /// Benchmark name.
    pub bench: &'static str,
    /// One result per configuration, in [`PaperMatrix::configs`] order.
    pub cells: Vec<BenchmarkResult>,
    /// Recorded lookup events, baseline stats and kernel profile for
    /// the software contenders.
    pub contender: ContenderInputs,
    /// The software-LUT contender evaluated on [`Self::contender`].
    pub software_lut: ContenderOutcome,
}

/// Figures 7–10's shared data: every benchmark under every
/// [`paper_configs`] configuration, plus each benchmark's
/// [`ContenderInputs`].
#[derive(Debug)]
pub struct PaperMatrix {
    /// Scale the matrix ran at.
    pub scale: Scale,
    /// The four hardware configurations of §6.2, in column order.
    pub configs: Vec<(String, MemoConfig)>,
    /// One row per benchmark, in `all_benchmarks()` order.
    pub rows: Vec<MatrixRow>,
}

impl PaperMatrix {
    /// Simulate the matrix benchmark by benchmark: the four
    /// configurations through [`run_cell`] with `tel` threaded through
    /// every memoized run, then the contender inputs. Baselines and
    /// compiled programs come from `cache`. Every cell is a cold run:
    /// no figure writes or restores a snapshot.
    ///
    /// # Errors
    ///
    /// Propagates the first cell or contender-run failure.
    pub fn compute(
        scale: Scale,
        cache: &BaselineCache,
        tel: &mut Telemetry,
    ) -> Result<Self, Box<dyn std::error::Error>> {
        let configs = paper_configs();
        let mut rows = Vec::new();
        for bench in all_benchmarks() {
            let name = bench.meta().name;
            let mut cells = Vec::with_capacity(configs.len());
            for (_, cfg) in &configs {
                let handle = std::mem::replace(tel, Telemetry::off());
                let report = run_cell(
                    bench.as_ref(),
                    scale,
                    cfg,
                    handle,
                    cache,
                    RunOptions::default(),
                    &SnapshotPlan::default(),
                )?;
                *tel = report.telemetry;
                cells.push(report.result);
            }
            let contender = collect_events_cached(bench.as_ref(), scale, Some(cache))?;
            let software_lut = software_lut_outcome(&contender);
            rows.push(MatrixRow {
                bench: name,
                cells,
                contender,
                software_lut,
            });
        }
        Ok(Self {
            scale,
            configs,
            rows,
        })
    }

    fn columns<'a>(&'a self, first: &[&'a str], last: &'a str) -> Vec<&'a str> {
        let mut columns = first.to_vec();
        columns.extend(self.configs.iter().map(|(n, _)| n.as_str()));
        columns.push(last);
        columns
    }

    /// Per-configuration columns of one metric.
    fn per_config(&self, metric: impl Fn(&BenchmarkResult) -> f64) -> Vec<Vec<f64>> {
        (0..self.configs.len())
            .map(|i| self.rows.iter().map(|r| metric(&r.cells[i])).collect())
            .collect()
    }

    /// Figure 7: (a) whole-application speedup and (b) energy saving
    /// per benchmark and configuration, plus the software-LUT
    /// contender, all normalised to the non-memoized baseline.
    pub fn fig7(&self) -> Table {
        let mut table = Table::new(
            format!(
                "Figure 7a (speedup) / 7b (energy saving), scale {:?}",
                self.scale
            ),
            &self.columns(&["Benchmark", "Metric"], "Software LUT"),
        );
        for row in &self.rows {
            let mut speed = vec![row.bench.to_string(), "speedup".to_string()];
            let mut energy = vec![row.bench.to_string(), "energy".to_string()];
            for r in &row.cells {
                speed.push(format!("{:.2}x", r.speedup));
                energy.push(format!("{:.2}x", r.energy_reduction));
            }
            speed.push(format!("{:.2}x", row.software_lut.speedup));
            energy.push(format!("{:.2}x", row.software_lut.energy_ratio));
            table.row(speed).row(energy);
        }
        let speedups = self.per_config(|r| r.speedup);
        let energies = self.per_config(|r| r.energy_reduction);
        for (i, (name, _)) in self.configs.iter().enumerate() {
            table.summary(
                name.clone(),
                format!(
                    "geomean speedup {:.2}x, geomean energy reduction {:.2}x",
                    geomean(&speedups[i]),
                    geomean(&energies[i])
                ),
            );
        }
        let sw: Vec<f64> = self.rows.iter().map(|r| r.software_lut.speedup).collect();
        table.summary(
            "Software LUT",
            format!(
                "geomean speedup {:.2}x (paper: 0.94x slowdown)",
                geomean(&sw)
            ),
        );
        table
    }

    /// Figure 8: dynamic instruction count of the memoized run
    /// normalised to the baseline, with the memoization-instruction
    /// share (the black bar segment), plus the software-LUT contender's
    /// instruction ratio (~2x in the paper).
    pub fn fig8(&self) -> Table {
        let mut table = Table::new(
            format!(
                "Figure 8: normalised dynamic instruction count (memo share in parens), scale {:?}",
                self.scale
            ),
            &self.columns(&["Benchmark"], "Software LUT"),
        );
        for row in &self.rows {
            let mut cells = vec![row.bench.to_string()];
            for r in &row.cells {
                cells.push(format!(
                    "{:.3} ({:.1}%)",
                    r.dyn_inst_ratio,
                    100.0 * r.memo_inst_fraction
                ));
            }
            cells.push(format!("{:.3}", row.software_lut.inst_ratio));
            table.row(cells);
        }
        let totals = self.per_config(|r| r.dyn_inst_ratio);
        for (i, (name, _)) in self.configs.iter().enumerate() {
            table.summary(
                name.clone(),
                format!(
                    "mean dynamic-instruction reduction {:.1}%",
                    100.0 * (1.0 - mean(&totals[i]))
                ),
            );
        }
        let sw: Vec<f64> = self
            .rows
            .iter()
            .map(|r| r.software_lut.inst_ratio)
            .collect();
        table.summary(
            "Software LUT",
            format!("mean instruction ratio {:.2}x (paper: ~2.0x)", mean(&sw)),
        );
        table
    }

    /// Figure 9: LUT hit rate per benchmark and configuration, plus the
    /// software-LUT contender.
    pub fn fig9(&self) -> Table {
        let mut table = Table::new(
            format!("Figure 9: LUT hit rate, scale {:?}", self.scale),
            &self.columns(&["Benchmark"], "Software LUT"),
        );
        for row in &self.rows {
            let mut cells = vec![row.bench.to_string()];
            for r in &row.cells {
                cells.push(format!("{:.1}%", 100.0 * r.hit_rate));
            }
            cells.push(format!("{:.1}%", 100.0 * row.software_lut.hit_rate()));
            table.row(cells);
        }
        let rates = self.per_config(|r| r.hit_rate);
        for (i, (name, _)) in self.configs.iter().enumerate() {
            table.summary(
                name.clone(),
                format!("mean hit rate {:.1}%", 100.0 * mean(&rates[i])),
            );
        }
        let sw: Vec<f64> = self
            .rows
            .iter()
            .map(|r| r.software_lut.hit_rate())
            .collect();
        table.summary(
            "Software LUT",
            format!("mean hit rate {:.1}% (paper: 81.1%)", 100.0 * mean(&sw)),
        );
        table
    }

    /// Figure 10: (a) whole-application quality loss per benchmark and
    /// configuration, plus the software-LUT contender's collision rate;
    /// (b) CDF of element-wise relative error for the
    /// L1(8KB)+L2(512KB) configuration.
    pub fn fig10(&self) -> Vec<Table> {
        let mut table = Table::new(
            format!(
                "Figure 10a: whole-application quality loss (Eq. 2; misclassification for jmeint), scale {:?}",
                self.scale
            ),
            &self.columns(&["Benchmark"], "SW LUT collisions"),
        );
        for row in &self.rows {
            let mut cells = vec![row.bench.to_string()];
            for r in &row.cells {
                cells.push(format!("{:.4}%", 100.0 * r.error.output_error));
            }
            cells.push(format!("{:.2}%", 100.0 * row.software_lut.collision_rate()));
            table.row(cells);
        }

        let big = MemoConfig::l1_l2(8 * 1024, 512 * 1024);
        let mut cdf = Table::new(
            "Figure 10b: CDF of element-wise relative error, L1(8KB)+L2(512KB)",
            &["Benchmark", "p50", "p90", "p99", "p99.9", "max"],
        );
        for row in &self.rows {
            for (i, (_, cfg)) in self.configs.iter().enumerate() {
                if *cfg != big {
                    continue;
                }
                let mut errs = row.cells[i].error.elementwise.to_vec();
                errs.sort_by(f64::total_cmp);
                let q = |p: f64| -> f64 {
                    if errs.is_empty() {
                        return 0.0;
                    }
                    errs[((errs.len() - 1) as f64 * p) as usize]
                };
                cdf.row(vec![
                    row.bench.to_string(),
                    format!("{:.2e}", q(0.5)),
                    format!("{:.2e}", q(0.9)),
                    format!("{:.2e}", q(0.99)),
                    format!("{:.2e}", q(0.999)),
                    format!("{:.2e}", errs.last().copied().unwrap_or(0.0)),
                ]);
            }
        }
        vec![table, cdf]
    }
}
