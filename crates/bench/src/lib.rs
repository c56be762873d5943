//! # axmemo-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation (see DESIGN.md's experiment index). Each binary is a shim
//! over one function in [`experiments`]; figures 7–10 read one
//! [`matrix::PaperMatrix`], and `all_experiments` runs the whole suite
//! in one process. Every experiment returns its report as [`Table`]s,
//! which the drivers render in the `--report` format.
//!
//! Scale is selected with the `AXMEMO_SCALE` environment variable
//! (`tiny` | `small` | `full`, default `small`; any other value exits
//! 2). `tiny` is a smoke setting; `small` reproduces the trends in
//! seconds; `full` approaches the paper's dataset sizes.
//!
//! Sweep binaries (`fault_sweep`, `all_experiments`) run their job
//! matrices through [`orchestrator`], a deterministic `std::thread`
//! worker pool: `--jobs N` selects the worker count (default: available
//! parallelism; `1` reproduces the old serial behaviour bit-for-bit)
//! and the aggregated report is byte-identical for any worker count.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod matrix;
pub mod orchestrator;
pub mod sweep;

use axmemo_baselines::cost::kernel_profile;
use axmemo_baselines::{AtmModel, ContenderOutcome, SoftwareLut};
use axmemo_core::config::MemoConfig;
use axmemo_core::unit::LookupEvent;
use axmemo_sim::cpu::{Machine, SimConfig, Simulator};
use axmemo_sim::stats::RunStats;
use axmemo_telemetry::{escape_json, JsonlSink, Profile, Telemetry};
pub use axmemo_workloads::runner::RunOptions;
pub use axmemo_workloads::runner::SnapshotPlan;
use axmemo_workloads::runner::{run_benchmark_report_snap, RunReport};
use axmemo_workloads::{all_benchmarks, Benchmark, Dataset, Scale};

pub use axmemo_workloads::BaselineCache;

/// Output format selected with `--report`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReportMode {
    /// Human-readable aligned columns (the default).
    #[default]
    Text,
    /// One JSON object per table, one per line.
    Json,
}

/// Output format for `--profile` (the rendering of the aggregated
/// cycle-attribution profile written to `--profile-out`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProfileMode {
    /// Inferno-compatible folded stacks, one `path value` line per
    /// phase (the default — pipe through `inferno-flamegraph` or any
    /// `flamegraph.pl`-style tool).
    #[default]
    Folded,
    /// One JSON object (machine-readable).
    Json,
    /// Human-readable phase tree plus hot-block tables.
    Text,
}

/// Command-line options shared by every figure/table binary.
///
/// * `--trace-out <path>` — write the telemetry event stream (LUT
///   probes, quality decisions, spans, …) to `path` as JSON Lines.
/// * `--profile-out <path>` — collect a cycle-attribution profile
///   (phase tree + hot basic blocks) over every simulated run and
///   write the deterministic aggregate to `path`. Default-off; the
///   off path is byte-identical to a build without the profiler.
/// * `--profile folded|json|text` — profile rendering (default
///   `folded`).
/// * `--report text|json` — output format (default `text`).
/// * `--seed <n>` — seed of `fault_sweep`'s injection streams (also
///   through `all_experiments`); default 0. Every other binary has no
///   seeded model and rejects it with exit 2.
/// * `--jobs <n>` — worker threads for orchestrated sweeps (default:
///   available parallelism; `1` forces the serial path). Only
///   `fault_sweep` and `all_experiments` read it; every other binary
///   rejects it with exit 2.
///
/// LUT snapshots are written and restored by `warm_start` alone, through
/// its own `--state-dir` and `--restore-policy` flags.
#[derive(Debug, Clone, Default)]
pub struct BenchArgs {
    /// JSONL event-trace destination, when requested.
    pub trace_out: Option<String>,
    /// Output format.
    pub report: ReportMode,
    /// Seed for stochastic models (fault injection); 0 by default.
    pub seed: u64,
    /// Requested worker count; 0 means "auto" (available parallelism).
    pub jobs: usize,
    /// Cycle-attribution profile destination (`--profile-out`); `None`
    /// keeps profiling fully off.
    pub profile_out: Option<String>,
    /// Profile rendering selected with `--profile` (default folded).
    pub profile_mode: ProfileMode,
}

impl BenchArgs {
    /// Parse an argument list (without the program name). The
    /// [`experiments`] drivers call this and exit 2 on an error.
    ///
    /// # Errors
    ///
    /// Returns a usage message for unknown flags or missing values.
    pub fn try_from_iter<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = Self::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--trace-out" => {
                    out.trace_out = Some(it.next().ok_or("--trace-out requires a path argument")?);
                }
                "--seed" => {
                    let value = it.next().ok_or("--seed requires a number argument")?;
                    out.seed = value.parse().map_err(|_| {
                        format!("--seed must be a non-negative integer, got {value}")
                    })?;
                }
                "--jobs" => {
                    let value = it.next().ok_or("--jobs requires a number argument")?;
                    out.jobs = value
                        .parse()
                        .map_err(|_| format!("--jobs must be a positive integer, got {value}"))?;
                    if out.jobs == 0 {
                        return Err("--jobs must be at least 1".to_string());
                    }
                }
                "--profile-out" => {
                    out.profile_out =
                        Some(it.next().ok_or("--profile-out requires a path argument")?);
                }
                "--profile" => match it.next().as_deref() {
                    Some("folded") => out.profile_mode = ProfileMode::Folded,
                    Some("json") => out.profile_mode = ProfileMode::Json,
                    Some("text") => out.profile_mode = ProfileMode::Text,
                    Some(other) => {
                        return Err(format!("--profile must be folded|json|text, got {other}"))
                    }
                    None => return Err("--profile requires folded|json|text".to_string()),
                },
                "--report" => match it.next().as_deref() {
                    Some("text") => out.report = ReportMode::Text,
                    Some("json") => out.report = ReportMode::Json,
                    Some(other) => return Err(format!("--report must be text|json, got {other}")),
                    None => return Err("--report requires text|json".to_string()),
                },
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(out)
    }

    /// Worker count for orchestrated sweeps: the `--jobs` value, or the
    /// host's available parallelism when the flag was not given.
    pub fn effective_jobs(&self) -> usize {
        if self.jobs > 0 {
            self.jobs
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        }
    }

    /// Build the telemetry handle the flags ask for: enabled with a
    /// JSONL sink when `--trace-out` was given, otherwise disabled
    /// (zero hot-path cost). `--profile-out` additionally enables the
    /// cycle-attribution profiler, which rides the handle independently
    /// of its enabled/disabled state — so profiling alone leaves the
    /// event stream, counters, and spans exactly as they are today.
    ///
    /// # Errors
    ///
    /// Propagates trace-file creation failure.
    pub fn telemetry(&self) -> std::io::Result<Telemetry> {
        let mut tel = match &self.trace_out {
            Some(path) => {
                let mut tel = Telemetry::enabled();
                let sink = JsonlSink::create(path).map_err(|e| {
                    std::io::Error::new(e.kind(), format!("--trace-out {path}: {e}"))
                })?;
                tel.add_sink(Box::new(sink));
                tel
            }
            None => Telemetry::off(),
        };
        if self.profiling() {
            tel.profiler_mut().enable();
        }
        Ok(tel)
    }

    /// Whether `--profile-out` asked for a cycle-attribution profile.
    pub fn profiling(&self) -> bool {
        self.profile_out.is_some()
    }

    /// Render `profile` in the `--profile` format and write it to the
    /// `--profile-out` path. A no-op when profiling was not requested.
    ///
    /// # Errors
    ///
    /// Propagates profile-file creation/write failure.
    pub fn write_profile(&self, profile: &Profile) -> std::io::Result<()> {
        let Some(path) = &self.profile_out else {
            return Ok(());
        };
        let rendered = match self.profile_mode {
            ProfileMode::Folded => profile.render_folded(),
            ProfileMode::Json => {
                let mut s = profile.to_json();
                s.push('\n');
                s
            }
            ProfileMode::Text => profile.render_text(),
        };
        std::fs::write(path, rendered)
            .map_err(|e| std::io::Error::new(e.kind(), format!("--profile-out {path}: {e}")))
    }
}

/// The one report format: a titled table plus `label: value` summary
/// lines, rendered as aligned columns (no separators) or as one JSON
/// object on one line. Every experiment returns its report as tables,
/// and [`experiments::Output::render`] renders them in the `--report`
/// format.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
    summary: Vec<(String, String)>,
    text_notes: Vec<(String, String)>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Self {
            title: title.into(),
            columns: columns.iter().map(|c| (*c).to_string()).collect(),
            rows: Vec::new(),
            summary: Vec::new(),
            text_notes: Vec::new(),
        }
    }

    /// Append a data row (short rows are padded with empty cells).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// Append a summary line rendered after the table body.
    pub fn summary(&mut self, label: impl Into<String>, value: impl Into<String>) -> &mut Self {
        self.summary.push((label.into(), value.into()));
        self
    }

    /// Append a note rendered **only** in the text report, never in
    /// JSON. For host-dependent observations (wall-clock totals, load
    /// hints) that would break byte-identical JSON goldens if they
    /// entered the structured output.
    pub fn text_note(&mut self, label: impl Into<String>, value: impl Into<String>) -> &mut Self {
        self.text_notes.push((label.into(), value.into()));
        self
    }

    /// Render in the requested format.
    pub fn render(&self, mode: ReportMode) -> String {
        match mode {
            ReportMode::Text => self.render_text(),
            ReportMode::Json => self.render_json(),
        }
    }

    fn render_text(&self) -> String {
        let cols = self.columns.len().max(1);
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        widths.resize(cols, 0);
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&self.title);
            out.push('\n');
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut parts = Vec::with_capacity(cols);
            for (i, &width) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                // First column is the row label: left-aligned; the
                // rest are values: right-aligned.
                if i == 0 {
                    parts.push(format!("{cell:<width$}"));
                } else {
                    parts.push(format!("{cell:>width$}"));
                }
            }
            parts.join("  ").trim_end().to_string()
        };
        if !self.columns.is_empty() {
            out.push_str(&fmt_row(&self.columns));
            out.push('\n');
            out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
            out.push('\n');
        }
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        if !self.summary.is_empty() {
            out.push('\n');
            for (label, value) in &self.summary {
                out.push_str(&format!("{label}: {value}\n"));
            }
        }
        if !self.text_notes.is_empty() {
            out.push('\n');
            for (label, value) in &self.text_notes {
                out.push_str(&format!("{label}: {value}\n"));
            }
        }
        out
    }

    fn render_json(&self) -> String {
        let push_str_list = |out: &mut String, items: &[String]| {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                escape_json(item, out);
                out.push('"');
            }
            out.push(']');
        };
        let mut out = String::from("{\"title\":\"");
        escape_json(&self.title, &mut out);
        out.push_str("\",\"columns\":");
        push_str_list(&mut out, &self.columns);
        out.push_str(",\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_str_list(&mut out, row);
        }
        out.push_str("],\"summary\":{");
        for (i, (label, value)) in self.summary.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_json(label, &mut out);
            out.push_str("\":\"");
            escape_json(value, &mut out);
            out.push('"');
        }
        out.push_str("}}");
        out
    }
}

/// Read the scale from `AXMEMO_SCALE`: `tiny`, `small` or `full`, and
/// `small` when unset.
///
/// # Errors
///
/// Any other value, named in the message, so that a typo never runs a
/// different experiment.
pub fn scale_from_env() -> Result<Scale, String> {
    let Some(value) = std::env::var_os("AXMEMO_SCALE") else {
        return Ok(Scale::Small);
    };
    match value.to_str() {
        Some("tiny") => Ok(Scale::Tiny),
        Some("small") => Ok(Scale::Small),
        Some("full") => Ok(Scale::Full),
        _ => Err(format!(
            "AXMEMO_SCALE must be tiny|small|full, got {:?}",
            value.to_string_lossy()
        )),
    }
}

/// The benchmarks a `--benches a,b,c` value selects, in list order;
/// every registered benchmark when `list` is `None`.
///
/// # Errors
///
/// A message naming every unknown benchmark and listing the known
/// ones; the binaries print it and exit 2.
pub fn select_benches(list: Option<&str>) -> Result<Vec<String>, String> {
    let known: Vec<String> = all_benchmarks()
        .iter()
        .map(|b| b.meta().name.to_string())
        .collect();
    let Some(list) = list else {
        return Ok(known);
    };
    let names: Vec<String> = list.split(',').map(str::to_string).collect();
    let unknown: Vec<&str> = names
        .iter()
        .filter(|b| !known.contains(b))
        .map(String::as_str)
        .collect();
    if !unknown.is_empty() {
        return Err(format!(
            "--benches names unknown benchmark(s) {}; known: {}",
            unknown.join(","),
            known.join(",")
        ));
    }
    Ok(names)
}

/// The four hardware configurations of §6.2, labelled as in the
/// figures.
pub fn paper_configs() -> Vec<(String, MemoConfig)> {
    MemoConfig::paper_sweep()
}

/// Run one (benchmark × config) cell on the evaluation dataset, with
/// its baseline and compiled programs from `cache` (a figure binary
/// that runs one benchmark under several configurations simulates its
/// baseline once) and the snapshot persistence of `plan` (only
/// `warm_start` passes a non-empty plan; the empty plan is a plain
/// run). The memoized run executes under a `run:<name>` span with `tel`
/// threaded through the simulator; the handle comes back inside the
/// [`RunReport`] so the caller can pass it to the next cell.
///
/// # Errors
///
/// Propagates simulator/codegen failures, cached baseline failures, and
/// snapshot I/O failures (which name the offending path). A corrupt
/// snapshot file is not an error; it degrades to a reported cold start.
pub fn run_cell(
    bench: &dyn Benchmark,
    scale: Scale,
    memo: &MemoConfig,
    tel: Telemetry,
    cache: &BaselineCache,
    opts: RunOptions,
    plan: &SnapshotPlan,
) -> Result<RunReport, Box<dyn std::error::Error>> {
    run_benchmark_report_snap(
        bench,
        scale,
        Dataset::Eval,
        memo,
        opts,
        tel,
        Some(cache),
        plan,
    )
}

/// Everything the software contenders need: the recorded lookup-event
/// stream, the baseline stats, and the kernel profile.
#[derive(Debug)]
pub struct ContenderInputs {
    /// Lookup events recorded from the memoized hardware run.
    pub events: Vec<LookupEvent>,
    /// Baseline (no memoization) run statistics.
    pub baseline: RunStats,
    /// Static kernel profile of the memoized region(s).
    pub profile: axmemo_baselines::KernelProfile,
}

/// Collect contender inputs for one benchmark: run the baseline for
/// stats, then run the memoized binary with a *very large* LUT and no
/// quality sampling so the event stream reflects the workload's true
/// reuse, recording every lookup.
/// Kept in this shape because `ledger/` (the benchmark) calls it.
///
/// # Errors
///
/// Propagates simulator/codegen failures.
pub fn collect_events(
    bench: &dyn Benchmark,
    scale: Scale,
) -> Result<ContenderInputs, Box<dyn std::error::Error>> {
    collect_events_cached(bench, scale, None)
}

/// [`collect_events`] taking the compiled program, the input image and
/// the baseline-stats leg from `cache` (the event-recording memoized
/// run is unique to this collection and always executes). A figure binary that
/// has already run the benchmark's cells skips one whole baseline
/// simulation here. `None` uses a call-local cache; the `Option` stays
/// because `ledger/` (the benchmark) calls this shape.
///
/// # Errors
///
/// Propagates simulator failures and cached compile or baseline
/// failures.
pub fn collect_events_cached(
    bench: &dyn Benchmark,
    scale: Scale,
    cache: Option<&BaselineCache>,
) -> Result<ContenderInputs, Box<dyn std::error::Error>> {
    let local;
    let cache = match cache {
        Some(cache) => cache,
        None => {
            local = BaselineCache::new();
            &local
        }
    };
    let prepared = cache.program(bench, scale, false)?;
    let baseline = cache.baseline(bench, scale, Dataset::Eval, u64::MAX)?.stats;

    let cfg = MemoConfig {
        data_width: bench.data_width(),
        quality_monitoring: false,
        ..MemoConfig::l1_l2(16 * 1024, 512 * 1024)
    };
    let mut sim = Simulator::new(SimConfig::with_memo(cfg))?;
    sim.memo_unit_mut()
        .expect("memo configured")
        .enable_event_log();
    let mut machine = Machine::clone(&*cache.inputs(bench, scale, Dataset::Eval)?);
    sim.run_prepared_threaded(&prepared.memo, &mut machine)?;
    let events = sim
        .memo_unit_mut()
        .expect("memo configured")
        .take_event_log();

    let input_bytes: u64 = bench
        .meta()
        .input_bytes
        .iter()
        .map(|&b| b as u64)
        .sum::<u64>()
        / bench.meta().input_bytes.len().max(1) as u64;
    let profile = kernel_profile(&prepared.base_program, input_bytes);
    Ok(ContenderInputs {
        events,
        baseline,
        profile,
    })
}

/// Evaluate the software-LUT contender for one benchmark.
pub fn software_lut_outcome(inputs: &ContenderInputs) -> ContenderOutcome {
    SoftwareLut::new().evaluate(&inputs.baseline, &inputs.profile, &inputs.events)
}

/// Evaluate the ATM contender for one benchmark.
pub fn atm_outcome(inputs: &ContenderInputs) -> ContenderOutcome {
    AtmModel::default().evaluate(&inputs.baseline, &inputs.profile, &inputs.events)
}

/// Geometric mean (the paper's summary statistic for speedups).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Arithmetic mean.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn mean_basics() {
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn bench_args_parse_flags() {
        let args = BenchArgs::try_from_iter(
            ["--trace-out", "/tmp/t.jsonl", "--report", "json"]
                .iter()
                .map(|s| (*s).to_string()),
        )
        .unwrap();
        assert_eq!(args.trace_out.as_deref(), Some("/tmp/t.jsonl"));
        assert_eq!(args.report, ReportMode::Json);
        assert!(BenchArgs::try_from_iter(["--report".to_string()]).is_err());
        assert!(BenchArgs::try_from_iter(["--bogus".to_string()]).is_err());
        let default = BenchArgs::try_from_iter(std::iter::empty()).unwrap();
        assert!(default.trace_out.is_none());
        assert_eq!(default.report, ReportMode::Text);
        assert_eq!(default.seed, 0);
    }

    #[test]
    fn bench_args_parse_seed() {
        let args =
            BenchArgs::try_from_iter(["--seed", "42"].iter().map(|s| (*s).to_string())).unwrap();
        assert_eq!(args.seed, 42);
        assert!(BenchArgs::try_from_iter(["--seed".to_string()]).is_err());
        assert!(
            BenchArgs::try_from_iter(["--seed", "many"].iter().map(|s| (*s).to_string())).is_err()
        );
    }

    #[test]
    fn bench_args_reject_removed_spellings() {
        // Removed tiers and flags fail loudly instead of falling back.
        // The legacy interpreter is `Simulator::run_reference`, which
        // only tests call; snapshot paths and the restore policy are
        // `warm_start`'s own flags.
        for removed in [
            &["--dispatch", "legacy"][..],
            &["--dispatch", "threaded"],
            &["--dispatch", "predecode"],
            &["--dispatch", "batched"],
            &["--batch-lanes", "4"],
            &["--no-predecode"],
            &["--no-baseline-cache"],
            &["--snapshot-out", "w"],
            &["--restore-from", "w"],
            &["--restore-policy", "mru"],
        ] {
            let err = BenchArgs::try_from_iter(removed.iter().map(|s| s.to_string()))
                .expect_err("removed spelling must be rejected");
            assert!(err.contains(removed[0]), "{removed:?}: {err}");
        }
    }

    #[test]
    fn bench_args_parse_profile_flags() {
        let default = BenchArgs::try_from_iter(std::iter::empty()).unwrap();
        assert!(default.profile_out.is_none(), "profiling is off by default");
        assert!(!default.profiling());
        assert_eq!(default.profile_mode, ProfileMode::Folded);
        assert!(
            default.write_profile(&Profile::default()).is_ok(),
            "no-op without --profile-out"
        );
        let args = BenchArgs::try_from_iter(
            ["--profile-out", "/tmp/p.folded", "--profile", "json"]
                .iter()
                .map(|s| (*s).to_string()),
        )
        .unwrap();
        assert_eq!(args.profile_out.as_deref(), Some("/tmp/p.folded"));
        assert!(args.profiling());
        assert_eq!(args.profile_mode, ProfileMode::Json);
        assert!(args.telemetry().unwrap().profiler().is_enabled());
        assert!(!args.telemetry().unwrap().is_enabled(), "events stay off");
        assert!(BenchArgs::try_from_iter(["--profile-out".to_string()]).is_err());
        assert!(BenchArgs::try_from_iter(["--profile".to_string()]).is_err());
        assert!(
            BenchArgs::try_from_iter(["--profile", "xml"].iter().map(|s| (*s).to_string()))
                .is_err()
        );
    }

    #[test]
    fn bench_args_parse_jobs() {
        let args =
            BenchArgs::try_from_iter(["--jobs", "4"].iter().map(|s| (*s).to_string())).unwrap();
        assert_eq!(args.jobs, 4);
        assert_eq!(args.effective_jobs(), 4);
        assert!(BenchArgs::try_from_iter(["--jobs".to_string()]).is_err());
        assert!(
            BenchArgs::try_from_iter(["--jobs", "0"].iter().map(|s| (*s).to_string())).is_err()
        );
        assert!(
            BenchArgs::try_from_iter(["--jobs", "lots"].iter().map(|s| (*s).to_string())).is_err()
        );
        let auto = BenchArgs::default();
        assert_eq!(auto.jobs, 0);
        assert!(auto.effective_jobs() >= 1);
    }

    #[test]
    fn table_text_alignment_and_summary() {
        let mut t = Table::new("Demo", &["Benchmark", "Speedup"]);
        t.row(vec!["fft".to_string(), "1.20x".to_string()]);
        t.row(vec!["kmeans-long-name".to_string(), "10.00x".to_string()]);
        t.summary("geomean", "3.46x");
        let text = t.render(ReportMode::Text);
        assert!(text.starts_with("Demo\n"));
        assert!(
            text.contains("fft               "),
            "label column padded:\n{text}"
        );
        assert!(text.contains("geomean: 3.46x"));
    }

    #[test]
    fn table_json_is_escaped_and_structured() {
        let mut t = Table::new("T \"q\"", &["a"]);
        t.row(vec!["v\n".to_string()]);
        t.summary("s", "1");
        let json = t.render(ReportMode::Json);
        assert!(json.contains("\"title\":\"T \\\"q\\\"\""));
        assert!(json.contains("\"rows\":[[\"v\\n\"]]"));
        assert!(json.contains("\"summary\":{\"s\":\"1\"}"));
    }

    #[test]
    fn scale_env_parsing_defaults_to_small() {
        // No env mutation here (tests run in parallel); just exercise
        // the default path. `tests/bin_flags.rs` drives a bad value.
        let s = scale_from_env().expect("a valid AXMEMO_SCALE or none");
        assert!(matches!(s, Scale::Tiny | Scale::Small | Scale::Full));
    }
}
