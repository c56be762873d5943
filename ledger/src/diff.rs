//! `bench_ledger diff`: compare ledger runs of a parent commit with runs
//! of a change, per (workload, end-to-end metric), with the bounds of
//! `BENCHMARK.json`.
//!
//! The verdict rule:
//!
//! * **unresolved** — either side's quartile spread, as a share of its
//!   median, is wider than the bound, and the change does not read
//!   better than the parent on every run of both sides over at least
//!   [`MIN_PAIRS`] pairs;
//! * **worse** — the change's median is worse than the parent's by more
//!   than the bound;
//! * **better** — over at least [`MIN_PAIRS`] index-paired runs (run `i`
//!   of each side; alternate which side runs first), the change wins at
//!   least nine tenths of the pairs, ties counting for neither, and the
//!   medians differ by more than the parent's quartile spread;
//! * **unchanged** — otherwise.

use crate::json::Json;
use crate::spec::Spec;
use crate::stats::{median, quartiles};

/// Fewest run pairs a gain may be claimed on: with fewer, a change wins
/// every pair by chance too often.
pub const MIN_PAIRS: usize = 10;

/// Outcome of one comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Shown to be better.
    Better,
    /// Worse than the bound allows.
    Worse,
    /// Within the bound, and no gain shown.
    Unchanged,
    /// The runs spread wider than the bound.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median and quartiles of one side's runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of runs.
    pub n: usize,
}

impl Summary {
    /// Summarise `values`.
    pub fn of(values: &[f64]) -> Self {
        let (q1, q3) = quartiles(values);
        Self {
            median: median(values),
            q1,
            q3,
            n: values.len(),
        }
    }

    fn spread(&self) -> f64 {
        if self.median == 0.0 {
            if self.q3 == self.q1 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// One row of a diff.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Metric unit.
    pub unit: String,
    /// Parent side.
    pub parent: Summary,
    /// Change side.
    pub change: Summary,
    /// Change median over parent median.
    pub ratio: f64,
    /// Share of index-paired runs the change won.
    pub win_share: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judge one metric from each side's per-run values.
pub fn judge(parent: &[f64], change: &[f64], higher_is_better: bool, bound: f64) -> (Verdict, f64) {
    let better = |c: f64, p: f64| if higher_is_better { c > p } else { c < p };
    let (p, c) = (Summary::of(parent), Summary::of(change));
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(&pv, &cv)| better(cv, pv))
        .count();
    let win_share = if pairs == 0 {
        0.0
    } else {
        wins as f64 / pairs as f64
    };
    let worse_by = if p.median == 0.0 {
        if c.median == p.median {
            0.0
        } else if better(c.median, p.median) {
            f64::NEG_INFINITY
        } else {
            f64::INFINITY
        }
    } else if higher_is_better {
        (p.median - c.median) / p.median.abs()
    } else {
        (c.median - p.median) / p.median.abs()
    };
    let every_run_better = parent
        .iter()
        .all(|&pv| change.iter().all(|&cv| better(cv, pv)));
    let verdict = if p.spread().max(c.spread()) > bound {
        if every_run_better && pairs >= MIN_PAIRS {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else if better(c.median, p.median)
        && pairs >= MIN_PAIRS
        && win_share >= 0.9
        && (c.median - p.median).abs() > p.q3 - p.q1
    {
        Verdict::Better
    } else {
        Verdict::Unchanged
    };
    (verdict, win_share)
}

/// The per-run values of `workload`/`metric` across ledger documents
/// (documents that did not run the workload are skipped).
fn values(docs: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    docs.iter()
        .filter_map(|d| {
            d.get("workloads")?
                .get(workload)?
                .get("end_to_end")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// Compare every (workload, end-to-end metric) pair of `spec` that both
/// sides measured.
pub fn compare(spec: &Spec, parents: &[Json], changes: &[Json]) -> Vec<Comparison> {
    let mut rows = Vec::new();
    for workload in &spec.workloads {
        for m in &spec.end_to_end {
            let (p, c) = (
                values(parents, workload, &m.name),
                values(changes, workload, &m.name),
            );
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let (verdict, win_share) = judge(&p, &c, m.higher_is_better, m.bound.unwrap_or(0.0));
            let (parent, change) = (Summary::of(&p), Summary::of(&c));
            rows.push(Comparison {
                workload: workload.clone(),
                metric: m.name.clone(),
                unit: m.unit.clone(),
                ratio: change.median / parent.median,
                parent,
                change,
                win_share,
                verdict,
            });
        }
    }
    rows
}

/// Pick the ledger document out of a file holding a ledger's standard
/// output (the document is the line with a `workloads` member).
///
/// # Errors
///
/// When no line of `text` is a ledger document.
pub fn document(text: &str) -> Result<Json, String> {
    text.lines()
        .filter(|l| l.trim_start().starts_with('{'))
        .filter_map(|l| Json::parse(l).ok())
        .find(|d| d.get("workloads").is_some())
        .ok_or_else(|| "no ledger document found".to_string())
}

/// Render comparisons as an aligned table.
pub fn render(rows: &[Comparison]) -> String {
    let side = |s: &Summary| format!("{:.6} [{:.6}, {:.6}] n={}", s.median, s.q1, s.q3, s.n);
    let mut lines = vec![[
        "workload".to_string(),
        "metric".to_string(),
        "parent median [q1, q3]".to_string(),
        "change median [q1, q3]".to_string(),
        "ratio".to_string(),
        "wins".to_string(),
        "verdict".to_string(),
    ]];
    for r in rows {
        lines.push([
            r.workload.clone(),
            format!("{} ({})", r.metric, r.unit),
            side(&r.parent),
            side(&r.change),
            format!("{:.4}", r.ratio),
            format!("{:.0}%", 100.0 * r.win_share),
            r.verdict.label().to_string(),
        ]);
    }
    let mut widths = [0usize; 7];
    for line in &lines {
        for (w, cell) in widths.iter_mut().zip(line) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    for line in &lines {
        let cells: Vec<String> = line
            .iter()
            .zip(widths)
            .map(|(cell, w)| format!("{cell:<w$}"))
            .collect();
        out.push_str(cells.join("  ").trim_end());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_runs_are_unchanged() {
        let runs = [1.0, 1.02, 0.98, 1.01];
        assert_eq!(judge(&runs, &runs, false, 0.1).0, Verdict::Unchanged);
        assert_eq!(judge(&[3.0], &[3.0], true, 0.0).0, Verdict::Unchanged);
    }

    #[test]
    fn clear_gain_is_better_and_clear_loss_is_worse() {
        let parent = [1.00, 1.01, 0.99, 1.02, 1.00, 0.98, 1.01, 1.00, 0.99, 1.01];
        let faster: Vec<f64> = parent.iter().map(|x| x * 0.8).collect();
        let slower: Vec<f64> = parent.iter().map(|x| x * 1.3).collect();
        assert_eq!(judge(&parent, &faster, false, 0.1).0, Verdict::Better);
        assert_eq!(judge(&parent, &slower, false, 0.1).0, Verdict::Worse);
        // The same numbers read as throughput flip direction.
        assert_eq!(judge(&parent, &faster, true, 0.1).0, Verdict::Worse);
        // Too few pairs to claim the gain; a loss still shows.
        assert_eq!(
            judge(&parent[..3], &faster[..3], false, 0.1).0,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&parent[..3], &slower[..3], false, 0.1).0,
            Verdict::Worse
        );
    }

    #[test]
    fn small_gain_within_noise_is_unchanged_and_wide_spread_is_unresolved() {
        let parent = [1.00, 1.03, 0.97, 1.02, 0.98];
        let change = [0.99, 1.04, 0.96, 1.01, 0.99];
        assert_eq!(judge(&parent, &change, false, 0.1).0, Verdict::Unchanged);
        let noisy = [1.0, 1.5, 0.7, 1.3, 0.8];
        assert_eq!(judge(&noisy, &noisy, false, 0.1).0, Verdict::Unresolved);
    }

    #[test]
    fn documents_are_found_among_output_lines() {
        let out = "progress\n{\"ledger\":1,\"workloads\":{\"w\":{\"end_to_end\":{\"m\":{\"value\":2}}}}}\n{\"correct\":true}\n";
        let doc = document(out).unwrap();
        assert_eq!(values(&[doc], "w", "m"), vec![2.0]);
        assert!(document("{\"correct\":true}").is_err());
    }
}
