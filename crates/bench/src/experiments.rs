//! Every experiment of the suite as a library function, plus the two
//! drivers that run them: one experiment per binary
//! ([`Experiment::main`]) or the whole suite in one process
//! ([`all_experiments`]).
//!
//! An experiment reads a shared [`Context`] (flags, scale, one
//! [`BaselineCache`], and the lazily computed [`PaperMatrix`]) and
//! returns its [`Table`]s plus an optional profile. Nothing is printed
//! while it runs, so the suite driver can run experiments on the
//! [`parallel_map`] pool and still print them in a fixed order; both
//! drivers render the tables in the `--report` format through
//! [`Output::render`], the only place that reads it.

use std::error::Error;
use std::path::PathBuf;
use std::sync::OnceLock;

use axmemo_compiler::dddg::Dddg;
use axmemo_compiler::trace::TraceCapture;
use axmemo_compiler::{analyze, SearchConfig};
use axmemo_core::config::MemoConfig;
use axmemo_core::crc::{CrcWidth, TableCrc};
use axmemo_core::snapshot::RecoveryOutcome;
use axmemo_core::RestorePolicy;
use axmemo_sim::cache::CacheConfig;
use axmemo_sim::cpu::{Machine, SimConfig, Simulator};
use axmemo_sim::energy::{l1_lut_energy, AreaModel, EnergyModel};
use axmemo_sim::memo::{
    CRC_BYTES_PER_CYCLE, INVALIDATE_CYCLES_PER_WAY, LOOKUP_L1_CYCLES, LOOKUP_L2_CYCLES,
    UPDATE_CYCLES,
};
use axmemo_sim::pipeline::LatencyModel;
use axmemo_sim::predictor::PredictorConfig;
use axmemo_telemetry::{Profile, Telemetry};
use axmemo_workloads::{all_benchmarks, Benchmark, Dataset, Scale};

use crate::matrix::PaperMatrix;
use crate::orchestrator::{merge_profiles, parallel_map, Orchestrator};
use crate::{
    atm_outcome, geomean, mean, run_cell, scale_from_env, sweep, BaselineCache, BenchArgs,
    ReportMode, RunOptions, SnapshotPlan, Table,
};

type Result<T> = std::result::Result<T, Box<dyn Error>>;

/// What one experiment produced.
#[derive(Debug)]
pub struct Output {
    /// The experiment's report, in print order.
    pub tables: Vec<Table>,
    /// A profile collected outside the experiment's telemetry handle
    /// (the fault sweep's per-job profiles). The drivers merge it with
    /// the handle's own profile.
    pub profile: Option<Profile>,
}

impl From<Vec<Table>> for Output {
    fn from(tables: Vec<Table>) -> Self {
        Self {
            tables,
            profile: None,
        }
    }
}

impl Output {
    /// Every table in `mode`, each followed by a blank line: what the
    /// experiment prints on stdout.
    pub fn render(&self, mode: ReportMode) -> String {
        self.tables.iter().map(|t| t.render(mode) + "\n").collect()
    }
}

/// State shared by the experiments of one process: the parsed flags,
/// the scale, one [`BaselineCache`] and the [`PaperMatrix`], computed
/// by the first experiment that asks for it.
#[derive(Debug)]
pub struct Context {
    /// Parsed command-line flags.
    pub args: BenchArgs,
    /// Scale from `AXMEMO_SCALE`.
    pub scale: Scale,
    /// Baselines and compiled programs shared by every run.
    pub cache: BaselineCache,
    matrix: OnceLock<std::result::Result<PaperMatrix, String>>,
}

impl Context {
    /// Context for `args` at the `AXMEMO_SCALE` scale. An invalid
    /// `AXMEMO_SCALE` prints the error and exits 2.
    pub fn new(args: BenchArgs) -> Self {
        let scale = scale_from_env().unwrap_or_else(|msg| {
            eprintln!("error: {msg}");
            std::process::exit(2)
        });
        Self {
            args,
            scale,
            cache: BaselineCache::new(),
            matrix: OnceLock::new(),
        }
    }

    /// The paper matrix, computed on first use with `tel` threaded
    /// through its runs; later callers (on any thread) reuse it.
    ///
    /// # Errors
    ///
    /// The computation's failure, reported to every caller.
    pub fn matrix(&self, tel: &mut Telemetry) -> Result<&PaperMatrix> {
        self.matrix
            .get_or_init(|| {
                PaperMatrix::compute(self.scale, &self.cache, tel).map_err(|e| e.to_string())
            })
            .as_ref()
            .map_err(|e| e.clone().into())
    }
}

/// The body of an experiment.
pub type Body = fn(&Context, &mut Telemetry) -> Result<Output>;

/// The command line of one binary: which shared flags it takes and
/// the usage of those only it parses.
#[derive(Debug)]
pub struct Binary {
    /// Binary name, also the section header in [`all_experiments`].
    pub name: &'static str,
    /// Whether it runs the seeded, orchestrated fault sweep: only then
    /// does it read `--seed` and `--jobs`; every other binary refuses
    /// them.
    seeded_sweep: bool,
    /// Usage text for flags only this binary parses.
    extra_usage: &'static str,
}

/// One experiment of the suite: the binary it is named after and its
/// body.
#[derive(Debug)]
pub struct Experiment {
    /// The experiment's binary.
    pub bin: Binary,
    body: Body,
}

/// The shared flags only the seeded sweep reads.
const SWEEP_FLAGS: [&str; 2] = ["--seed", "--jobs"];

/// Usage fragment of every shared flag, keyed by the flag.
const FLAG_USAGE: [(&str, &str); 6] = [
    ("--trace-out", "[--trace-out <path>]"),
    ("--report", "[--report text|json]"),
    ("--seed", "[--seed <n>]"),
    ("--jobs", "[--jobs <n>]"),
    ("--profile-out", "[--profile-out <path>]"),
    ("--profile", "[--profile folded|json|text]"),
];

/// The usage line of `bin`, listing every shared flag it does not
/// refuse.
fn usage(bin: &str, extra: &str, refused: &[&str]) -> String {
    let flags: Vec<&str> = FLAG_USAGE
        .iter()
        .filter(|(flag, _)| !refused.contains(flag))
        .map(|(_, text)| *text)
        .collect();
    format!("usage: {bin} {extra}{}", flags.join(" "))
}

/// Parse `raw` for `bin`. A flag in `refused` or a bad flag prints the
/// error and the usage line and exits 2.
fn parse_or_exit(
    bin: &str,
    extra: &str,
    refused: &[&str],
    raw: impl IntoIterator<Item = String>,
) -> BenchArgs {
    let raw: Vec<String> = raw.into_iter().collect();
    let parsed = match raw.iter().find(|a| refused.contains(&a.as_str())) {
        Some(flag) => Err(format!("{bin} does not take {flag}")),
        None => BenchArgs::try_from_iter(raw),
    };
    parsed.unwrap_or_else(|msg| usage_exit(bin, extra, refused, &msg))
}

/// Print `msg` and the usage line of `bin`, and exit 2.
fn usage_exit(bin: &str, extra: &str, refused: &[&str], msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{}", usage(bin, extra, refused));
    std::process::exit(2);
}

impl Binary {
    /// The shared flags this binary refuses.
    fn refused(&self) -> &'static [&'static str] {
        if self.seeded_sweep {
            &[]
        } else {
            &SWEEP_FLAGS
        }
    }

    /// Print `msg` and this binary's usage line, and exit 2: for a bad
    /// value of a flag only the binary itself parses.
    pub fn usage_error(&self, msg: &str) -> ! {
        usage_exit(self.name, self.extra_usage, self.refused(), msg)
    }

    /// Split `raw` into the values of the flags in `own`, which only
    /// this binary parses (each takes one value; a repeat overrides),
    /// and the shared flags left for [`Self::main_with`]. A flag of
    /// `own` without a value exits 2 with the usage line.
    pub fn split_flags<const N: usize>(
        &self,
        raw: impl IntoIterator<Item = String>,
        own: [&str; N],
    ) -> ([Option<String>; N], Vec<String>) {
        let mut values = std::array::from_fn(|_| None);
        let mut shared = Vec::new();
        let mut it = raw.into_iter();
        while let Some(arg) = it.next() {
            match own.iter().position(|flag| *flag == arg) {
                Some(i) => {
                    let value = it
                        .next()
                        .unwrap_or_else(|| self.usage_error(&format!("{arg} requires a value")));
                    values[i] = Some(value);
                }
                None => shared.push(arg),
            }
        }
        (values, shared)
    }

    /// Run `body` as this binary: parse `raw` (exit 2 on a bad or
    /// refused flag), run, print the rendered output, write the profile
    /// `--profile-out` asked for, and append the telemetry report in
    /// text mode under `--trace-out`. A failure prints `error: ...` and
    /// exits 1.
    pub fn main_with(
        &self,
        raw: impl IntoIterator<Item = String>,
        body: impl FnOnce(&Context, &mut Telemetry) -> Result<Output>,
    ) {
        let args = parse_or_exit(self.name, self.extra_usage, self.refused(), raw);
        let ctx = Context::new(args);
        let run = || -> Result<()> {
            let mut tel = ctx.args.telemetry()?;
            let out = body(&ctx, &mut tel)?;
            print!("{}", out.render(ctx.args.report));
            if let Some(profile) = merge(tel.take_profile(), out.profile) {
                ctx.args.write_profile(&profile)?;
            }
            tel.flush();
            if tel.is_enabled() && ctx.args.report == ReportMode::Text {
                println!("{}", tel.text_report());
            }
            Ok(())
        };
        if let Err(e) = run() {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

impl Experiment {
    /// Run this experiment as its own binary with the process
    /// arguments.
    pub fn main(&self) {
        self.bin.main_with(std::env::args().skip(1), self.body);
    }

    /// Run inside [`all_experiments`]: a fresh telemetry handle (the
    /// profiler only), a caught panic reported as an error.
    fn run_in(&self, ctx: &Context) -> std::result::Result<Output, String> {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut tel = ctx.args.telemetry().map_err(|e| e.to_string())?;
            let mut out = (self.body)(ctx, &mut tel).map_err(|e| e.to_string())?;
            out.profile = merge(tel.take_profile(), out.profile);
            Ok(out)
        }));
        caught.unwrap_or_else(|panic| {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            Err(format!("panicked: {msg}"))
        })
    }
}

fn merge(a: Option<Profile>, b: Option<Profile>) -> Option<Profile> {
    match (a, b) {
        (Some(mut a), Some(b)) => {
            a.merge(&b);
            Some(a)
        }
        (a, b) => a.or(b),
    }
}

/// The experiment named `name`.
///
/// # Panics
///
/// Panics if no experiment has that name.
pub fn experiment(name: &str) -> &'static Experiment {
    EXPERIMENTS
        .iter()
        .find(|e| e.bin.name == name)
        .unwrap_or_else(|| panic!("no experiment named {name}"))
}

/// An experiment without the seeded sweep or flags of its own.
const fn plain(name: &'static str, body: Body) -> Experiment {
    Experiment {
        bin: Binary {
            name,
            seeded_sweep: false,
            extra_usage: "",
        },
        body,
    }
}

/// The suite, in the order [`all_experiments`] prints it.
pub static EXPERIMENTS: [Experiment; 14] = [
    plain("table1", table1),
    plain("table2", table2),
    plain("table4_5", table4_5),
    plain("fig7", |c, t| Ok(vec![c.matrix(t)?.fig7()].into())),
    plain("fig8", |c, t| Ok(vec![c.matrix(t)?.fig8()].into())),
    plain("fig9", |c, t| Ok(vec![c.matrix(t)?.fig9()].into())),
    plain("fig10", |c, t| Ok(c.matrix(t)?.fig10().into())),
    plain("fig11", fig11),
    plain("atm_compare", atm_compare),
    plain("l2_sensitivity", l2_sensitivity),
    plain("ablation_crc", ablation_crc),
    plain("ablation_two_level", ablation_two_level),
    plain("ablation_branch_predictor", ablation_branch_predictor),
    Experiment {
        bin: Binary {
            name: "fault_sweep",
            seeded_sweep: true,
            extra_usage: "[--benches a,b,c] ",
        },
        body: |c, t| fault_sweep(c, t, &[]),
    },
];

/// The `warm_start` binary: not an experiment of [`EXPERIMENTS`] (it
/// writes snapshot files, so [`all_experiments`] leaves it out), and
/// its body is [`warm_start`] with the flags the binary parses. It is
/// the only binary that writes or restores LUT snapshots:
/// `--state-dir` sets every snapshot path and `--restore-policy` the
/// restore order.
pub static WARM_START: Binary = Binary {
    name: "warm_start",
    seeded_sweep: false,
    extra_usage:
        "[--state-dir <dir>] [--generations <n>] [--benches a,b,c] [--restore-policy oldest|mru] ",
};

/// Run every experiment of [`EXPERIMENTS`] in this process and print
/// each one's output under a `==== <name> ====` header in suite order,
/// whatever order they finish in. `--jobs N` runs N experiments at
/// once on [`parallel_map`]; all of them share one [`Context`], so the
/// paper matrix and each baseline are simulated once. Under `--jobs 1`
/// the fault sweep uses the host's available parallelism instead.
///
/// `--profile-out` writes the merge of every experiment's profile, in
/// suite order. `--trace-out` exits 2. Exits 1 after printing
/// everything if any experiment failed.
pub fn all_experiments() {
    let args = parse_or_exit(
        "all_experiments",
        "",
        &["--trace-out"],
        std::env::args().skip(1),
    );
    let jobs = args.effective_jobs();
    let ctx = Context::new(BenchArgs {
        jobs: if jobs > 1 { 1 } else { 0 },
        ..args.clone()
    });
    let outputs = parallel_map(jobs, EXPERIMENTS.len(), |i| EXPERIMENTS[i].run_in(&ctx));

    let mut failed = false;
    let mut profile = None;
    for (Experiment { bin, .. }, output) in EXPERIMENTS.iter().zip(outputs) {
        println!("\n==================== {} ====================", bin.name);
        match output {
            Ok(out) => {
                print!("{}", out.render(args.report));
                profile = merge(profile, out.profile);
            }
            Err(e) => {
                eprintln!("{}: error: {e}", bin.name);
                failed = true;
            }
        }
    }
    if let Some(profile) = profile {
        if let Err(e) = args.write_profile(&profile) {
            eprintln!("error: {e}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Table 1: DDDG analysis of the benchmarks — total dynamic candidate
/// subgraphs, unique subgraphs after filtering, mean compute-to-input
/// ratio, and memoization coverage. Per §5 the analysis runs on the
/// *sample* input set (disjoint from evaluation) over a bounded trace
/// window, always at tiny scale.
fn table1(_: &Context, _: &mut Telemetry) -> Result<Output> {
    // Enough dynamic instructions to cover many kernel invocations
    // without ballooning graph construction.
    const TRACE_CAP: usize = 200_000;
    let mut table = Table::new(
        "Table 1: dynamic data dependence graph (DDDG) analysis",
        &["Benchmark", "# dynamic", "# unique", "CI_Ratio", "Coverage"],
    );
    for bench in all_benchmarks() {
        let (program, _) = bench.program(Scale::Tiny);
        let mut machine = bench.setup(Scale::Tiny, Dataset::Sample);
        let mut sim = Simulator::new(SimConfig::baseline())?;
        let mut cap = TraceCapture::with_limit(TRACE_CAP);
        sim.run_reference(&program, &mut machine, Some(&mut cap))?;
        let graph = Dddg::from_trace(cap.events(), &LatencyModel::default());
        let summary = analyze(&graph, &SearchConfig::default());
        table.row(vec![
            bench.meta().name.to_string(),
            summary.total_dynamic_subgraphs.to_string(),
            summary.unique_subgraphs.to_string(),
            format!("{:.2}", summary.mean_ci_ratio),
            format!("{:.2}%", 100.0 * summary.coverage),
        ]);
    }
    Ok(vec![table].into())
}

/// Table 2: benchmark inventory — domain, description, dataset,
/// memoization input sizes, and truncated bits per memoized block.
fn table2(_: &Context, _: &mut Telemetry) -> Result<Output> {
    let mut table = Table::new(
        "Table 2: evaluated benchmarks",
        &[
            "Benchmark",
            "Domain",
            "Dataset (synthetic stand-in)",
            "Input bytes",
            "Trunc bits",
        ],
    );
    fn join<T: ToString>(xs: &[T]) -> String {
        xs.iter().map(T::to_string).collect::<Vec<_>>().join(", ")
    }
    for bench in all_benchmarks() {
        let m = bench.meta();
        table.row(vec![
            m.name.to_string(),
            m.domain.to_string(),
            m.dataset.to_string(),
            join(m.input_bytes),
            join(m.truncated_bits),
        ]);
    }
    Ok(vec![table].into())
}

/// Tables 4 & 5: ISA timing parameters and the synthesised hardware's
/// area / energy / latency figures, including the §6.1 area-overhead
/// claim (memoization hardware ≈ 2% of the two-core HPI processor).
fn table4_5(_: &Context, _: &mut Telemetry) -> Result<Output> {
    let mut t4 = Table::new(
        "Table 4: AxMemo ISA timing parameters",
        &["instruction", "latency"],
    );
    t4.row(vec![
        "ld_crc / reg_crc".to_string(),
        format!(
            "{CRC_BYTES_PER_CYCLE} bytes per cycle (no CPU stall unless the input queue is full)"
        ),
    ]);
    t4.row(vec![
        "lookup".to_string(),
        format!("{LOOKUP_L1_CYCLES} cycles (L1 LUT) / {LOOKUP_L2_CYCLES} cycles (L2 LUT)"),
    ]);
    t4.row(vec![
        "update".to_string(),
        format!("{UPDATE_CYCLES} cycles"),
    ]);
    t4.row(vec![
        "invalidate".to_string(),
        format!("{INVALIDATE_CYCLES_PER_WAY} cycle per way in a set"),
    ]);

    let mut t5 = Table::new(
        "Table 5: area, energy and latency at 32 nm",
        &["unit", "area (mm^2)", "energy (pJ)"],
    );
    for (label, bytes) in [
        ("LUT (4KB)", 4096),
        ("LUT (8KB)", 8192),
        ("LUT (16KB)", 16384),
    ] {
        let a = AreaModel::for_l1_lut(bytes);
        t5.row(vec![
            label.to_string(),
            format!("{:.4}", a.l1_lut),
            format!("{:.4}", l1_lut_energy(bytes)),
        ]);
    }
    let a = AreaModel::for_l1_lut(16 * 1024);
    let e = EnergyModel::for_l1_lut(16 * 1024);
    t5.row(vec![
        "CRC32 unit".to_string(),
        format!("{:.4}", a.crc_unit),
        format!("{:.4}", e.crc_beat),
    ]);
    t5.row(vec![
        "hash registers".to_string(),
        format!("{:.4}", a.hash_registers),
        format!("{:.4}", e.hash_register),
    ]);
    t5.summary(
        "Area overhead (2 cores, 16KB L1 LUTs)",
        format!(
            "{:.3} mm^2 = {:.2}% of the {:.2} mm^2 HPI processor",
            a.memoization_area(2),
            100.0 * a.overhead_fraction(2),
            a.processor
        ),
    );
    Ok(vec![t4, t5].into())
}

/// Figure 11: effectiveness of approximation — speedup and energy
/// saving of AxMemo with truncation versus exact memoization (no
/// truncation), both on the L1(8KB)+L2(512KB) configuration.
fn fig11(ctx: &Context, tel: &mut Telemetry) -> Result<Output> {
    let scale = ctx.scale;
    let cfg = MemoConfig::l1_l2(8 * 1024, 512 * 1024);
    let mut table = Table::new(
        format!(
            "Figure 11: with vs without approximation (truncation), L1(8KB)+L2(512KB), scale {scale:?}"
        ),
        &[
            "Benchmark",
            "speedup(ax)",
            "speedup(ex)",
            "energy(ax)",
            "energy(ex)",
            "hit(ax)",
            "hit(ex)",
        ],
    );
    let mut ax_speed = Vec::new();
    let mut ex_speed = Vec::new();
    let mut ax_hits = Vec::new();
    let mut ex_hits = Vec::new();
    let plan = SnapshotPlan::default();
    let mut run = |bench: &dyn Benchmark, zero_trunc| -> Result<_> {
        let opts = RunOptions { zero_trunc };
        let handle = std::mem::replace(tel, Telemetry::off());
        let report = run_cell(bench, scale, &cfg, handle, &ctx.cache, opts, &plan)?;
        *tel = report.telemetry;
        Ok(report.result)
    };
    for bench in all_benchmarks() {
        let ax = run(bench.as_ref(), false)?;
        let ex = run(bench.as_ref(), true)?;
        table.row(vec![
            bench.meta().name.to_string(),
            format!("{:.2}x", ax.speedup),
            format!("{:.2}x", ex.speedup),
            format!("{:.2}x", ax.energy_reduction),
            format!("{:.2}x", ex.energy_reduction),
            format!("{:.1}%", 100.0 * ax.hit_rate),
            format!("{:.1}%", 100.0 * ex.hit_rate),
        ]);
        ax_speed.push(ax.speedup);
        ex_speed.push(ex.speedup);
        ax_hits.push(ax.hit_rate);
        ex_hits.push(ex.hit_rate);
    }
    table.summary(
        "geomean speedup",
        format!(
            "{:.2}x with approximation vs {:.2}x exact ({:+.1}% from truncation)",
            geomean(&ax_speed),
            geomean(&ex_speed),
            100.0 * (geomean(&ax_speed) / geomean(&ex_speed) - 1.0)
        ),
    );
    table.summary(
        "mean hit rate",
        format!(
            "{:.1}% with approximation vs {:.1}% exact (paper: 76.1% vs 47.2%)",
            100.0 * mean(&ax_hits),
            100.0 * mean(&ex_hits)
        ),
    );
    Ok(vec![table].into())
}

/// §6.2 "Comparison with prior work": per-benchmark speedup of the ATM
/// (Approximate Task Memoization) reimplementation, normalised to the
/// baseline, from the paper matrix's contender inputs. The paper
/// reports speedups only for blackscholes, fft, inversek2j and kmeans,
/// with slowdowns elsewhere and a geomean of 0.8x.
fn atm_compare(ctx: &Context, tel: &mut Telemetry) -> Result<Output> {
    let mut table = Table::new(
        format!(
            "ATM comparison (software task memoization), scale {:?}",
            ctx.scale
        ),
        &[
            "Benchmark",
            "speedup",
            "hit rate",
            "false-hit rate",
            "inst ratio",
        ],
    );
    let mut speedups = Vec::new();
    for row in &ctx.matrix(tel)?.rows {
        let atm = atm_outcome(&row.contender);
        table.row(vec![
            row.bench.to_string(),
            format!("{:.2}x", atm.speedup),
            format!("{:.1}%", 100.0 * atm.hit_rate()),
            format!("{:.2}%", 100.0 * atm.collision_rate()),
            format!("{:.2}", atm.inst_ratio),
        ]);
        speedups.push(atm.speedup);
    }
    table.summary(
        "ATM geomean speedup",
        format!("{:.2}x (paper: 0.8x)", geomean(&speedups)),
    );
    Ok(vec![table].into())
}

/// §6.2 L2-cache-size sensitivity: with a 256 KB L2 LUT, shrink the
/// total L2 cache from 1 MB to 512 KB (caching capacity 768 KB →
/// 256 KB) and measure the performance degradation. The paper reports
/// a 0.44% average slowdown (hotspot worst at 1.55%) — the L2 LUT earns
/// far more than the lost caching capacity costs.
fn l2_sensitivity(ctx: &Context, _: &mut Telemetry) -> Result<Output> {
    let scale = ctx.scale;
    let memo = MemoConfig::l1_l2(8 * 1024, 256 * 1024);
    let mut table = Table::new(
        format!("L2 size sensitivity with a 256 KB L2 LUT, scale {scale:?}"),
        &[
            "Benchmark",
            "cycles @1MB L2",
            "cycles @512KB",
            "degradation",
        ],
    );
    let mut degradations = Vec::new();
    for bench in all_benchmarks() {
        let memo_leg = ctx.cache.memo_leg(bench.as_ref(), scale, false)?;
        let inputs = ctx.cache.inputs(bench.as_ref(), scale, Dataset::Eval)?;
        let mut cycles = [0u64; 2];
        for (i, l2_bytes) in [1024 * 1024usize, 512 * 1024].into_iter().enumerate() {
            let cfg = SimConfig {
                memo: Some(MemoConfig {
                    data_width: bench.data_width(),
                    ..memo.clone()
                }),
                cache: CacheConfig {
                    l2_bytes,
                    ..CacheConfig::default()
                },
                ..SimConfig::default()
            };
            let mut sim = Simulator::new(cfg)?;
            let mut machine = Machine::clone(&inputs);
            cycles[i] = sim.run_prepared_threaded(&memo_leg, &mut machine)?.cycles;
        }
        let degradation = cycles[1] as f64 / cycles[0] as f64 - 1.0;
        degradations.push(degradation);
        table.row(vec![
            bench.meta().name.to_string(),
            cycles[0].to_string(),
            cycles[1].to_string(),
            format!("{:.2}%", 100.0 * degradation),
        ]);
    }
    table.summary(
        "average degradation",
        format!(
            "{:.2}% (paper: 0.44%, worst 1.55%)",
            100.0 * mean(&degradations)
        ),
    );
    Ok(vec![table].into())
}

/// Tag collisions of one event stream under `hash`: inputs of the same
/// LUT that differ from the first input seen with their hash value.
fn collisions(events: &[(u8, Vec<u8>)], hash: impl Fn(&[u8]) -> u64) -> u64 {
    // (lut, hash) -> representative input
    let mut seen: std::collections::HashMap<(u8, u64), &[u8]> = Default::default();
    let mut collided = 0u64;
    for (lut, bytes) in events {
        let first = *seen.entry((*lut, hash(bytes))).or_insert(bytes);
        if first != bytes.as_slice() {
            collided += 1;
        }
    }
    collided
}

/// The cheap alternative to a CRC: every 4-byte little-endian word
/// (the last one zero-padded) xored into 32 bits.
fn xor_fold(data: &[u8]) -> u64 {
    let mut acc = 0u32;
    for chunk in data.chunks(4) {
        let mut w = [0u8; 4];
        w[..chunk.len()].copy_from_slice(chunk);
        acc ^= u32::from_le_bytes(w);
    }
    u64::from(acc)
}

/// ATM-style input sampling: the first 8 bytes (zero-padded) stand for
/// the whole input.
fn sample8(data: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    let n = data.len().min(8);
    w[..n].copy_from_slice(&data[..n]);
    u64::from_le_bytes(w)
}

/// Ablation: CRC width vs. collision rate on real workload input
/// streams. §6 claims "32-bit CRC is generally large enough to avoid
/// collision"; this replays each benchmark's recorded lookup events
/// (the paper matrix's contender inputs) and re-hashes the raw input
/// bytes at 16/32/64 bits, and with the two cheaper keys the paper
/// argues against: a 32-bit xor-fold and ATM-style 8-byte sampling.
/// The footer is computed from the counts.
fn ablation_crc(ctx: &Context, tel: &mut Telemetry) -> Result<Output> {
    const KEYS: [&str; 5] = ["CRC16", "CRC32", "CRC64", "xor-fold", "sample8"];
    let mut table = Table::new(
        format!(
            "Ablation: CRC width vs collision rate, scale {:?}",
            ctx.scale
        ),
        &[
            "Benchmark",
            "lookups",
            "CRC16 collide",
            "CRC32 collide",
            "CRC64 collide",
            "xor-fold collide",
            "sample8 collide",
        ],
    );
    let crcs = [CrcWidth::W16, CrcWidth::W32, CrcWidth::W64].map(TableCrc::new);
    let mut lookups = 0usize;
    let mut totals = [0u64; KEYS.len()];
    for row in &ctx.matrix(tel)?.rows {
        let stream: Vec<(u8, Vec<u8>)> = row
            .contender
            .events
            .iter()
            .map(|e| (e.lut.raw(), e.input_bytes.clone()))
            .collect();
        let counts = [
            collisions(&stream, |d| crcs[0].checksum(d)),
            collisions(&stream, |d| crcs[1].checksum(d)),
            collisions(&stream, |d| crcs[2].checksum(d)),
            collisions(&stream, xor_fold),
            collisions(&stream, sample8),
        ];
        let mut cells = vec![row.bench.to_string(), stream.len().to_string()];
        cells.extend(counts.iter().map(u64::to_string));
        table.row(cells);
        lookups += stream.len();
        for (total, count) in totals.iter_mut().zip(counts) {
            *total += count;
        }
    }
    table.summary("lookups", lookups.to_string());
    for (key, total) in KEYS.iter().zip(totals) {
        table.summary(format!("{key} collisions"), total.to_string());
    }
    let crc32 = match totals[1] {
        0 => "is collision-free".to_string(),
        n => format!("collides on {n} of {lookups} lookups"),
    };
    table.summary(
        "expectation (§6)",
        format!("32-bit CRC is generally large enough to avoid collision; here CRC32 {crc32}"),
    );
    table.summary(
        "birthday bound",
        "CRC16's 65536-value space collides once distinct tuples approach ~300",
    );
    Ok(vec![table].into())
}

/// Ablation: two-level LUT vs. a single level at the same total
/// capacity (design decision 2 in DESIGN.md). The two-level split buys
/// a cheap common case (2-cycle L1) while the LLC partition supplies
/// capacity; this sweep quantifies what a single flat level of equal
/// capacity would have to cost to match.
fn ablation_two_level(ctx: &Context, _: &mut Telemetry) -> Result<Output> {
    let mut table = Table::new(
        format!(
            "Ablation: L1-only vs two-level at matched capacities, scale {:?}",
            ctx.scale
        ),
        &["configuration", "geo speedup", "mean hit"],
    );
    // 16 KB is the dedicated-SRAM ceiling (§3.3); capacity beyond that
    // is only reachable through the LLC partition.
    let configs: Vec<(&str, MemoConfig)> = vec![
        ("L1 4KB (flat)", MemoConfig::l1_only(4 * 1024)),
        ("L1 8KB (flat)", MemoConfig::l1_only(8 * 1024)),
        (
            "L1 16KB (flat, SRAM ceiling)",
            MemoConfig::l1_only(16 * 1024),
        ),
        ("L1 8KB + L2 64KB", MemoConfig::l1_l2(8 * 1024, 64 * 1024)),
        ("L1 8KB + L2 256KB", MemoConfig::l1_l2(8 * 1024, 256 * 1024)),
        ("L1 8KB + L2 512KB", MemoConfig::l1_l2(8 * 1024, 512 * 1024)),
    ];
    for (name, cfg) in configs {
        let mut speedups = Vec::new();
        let mut hits = Vec::new();
        for bench in all_benchmarks() {
            let r = run_cell(
                bench.as_ref(),
                ctx.scale,
                &cfg,
                Telemetry::off(),
                &ctx.cache,
                RunOptions::default(),
                &SnapshotPlan::default(),
            )?
            .result;
            speedups.push(r.speedup);
            hits.push(r.hit_rate);
        }
        table.row(vec![
            name.to_string(),
            format!("{:.2}x", geomean(&speedups)),
            format!("{:.1}%", 100.0 * mean(&hits)),
        ]);
    }
    table.summary(
        "expectation",
        "capacity beyond the 16 KB SRAM ceiling is only reachable via the L2 partition — \
         the two-level design recovers the flat-LUT hit rate without growing the dedicated array",
    );
    Ok(vec![table].into())
}

/// Ablation: fixed taken-branch bubble vs. a real branch predictor. The
/// default timing model charges a fixed bubble per taken branch; the
/// gem5 HPI model the paper uses has a predictor. The *ratios* the
/// paper reports (speedup = baseline cycles / memoized cycles) are
/// insensitive to that choice — both runs profit from prediction
/// equally.
fn ablation_branch_predictor(ctx: &Context, _: &mut Telemetry) -> Result<Output> {
    let scale = ctx.scale;
    let mut table = Table::new(
        format!("Ablation: fixed-bubble vs bimodal-predictor front end, scale {scale:?}"),
        &["Benchmark", "speedup (bubble)", "speedup (pred.)", "delta"],
    );
    for bench in all_benchmarks() {
        let base = ctx.cache.base_program(bench.as_ref(), scale)?;
        let memo_leg = ctx.cache.memo_leg(bench.as_ref(), scale, false)?;
        let inputs = ctx.cache.inputs(bench.as_ref(), scale, Dataset::Eval)?;
        let memo_cfg = MemoConfig {
            data_width: bench.data_width(),
            ..MemoConfig::l1_l2(8 * 1024, 512 * 1024)
        };
        let mut speedups = [0.0f64; 2];
        for (i, predictor) in [None, Some(PredictorConfig::default())]
            .into_iter()
            .enumerate()
        {
            let base_cycles = if predictor.is_none() {
                // The fixed-bubble baseline is the run the cache shares.
                ctx.cache
                    .baseline(bench.as_ref(), scale, Dataset::Eval, u64::MAX)?
                    .stats
                    .cycles
            } else {
                let mut base_sim = Simulator::new(SimConfig {
                    predictor,
                    ..SimConfig::baseline()
                })?;
                let mut mb = Machine::clone(&inputs);
                base_sim
                    .run_prepared_threaded(&base.lowered, &mut mb)?
                    .cycles
            };
            let memo_sim_cfg = SimConfig {
                predictor,
                ..SimConfig::with_memo(memo_cfg.clone())
            };
            let mut memo = Simulator::new(memo_sim_cfg)?;
            let mut mm = Machine::clone(&inputs);
            let ms = memo.run_prepared_threaded(&memo_leg, &mut mm)?;
            speedups[i] = base_cycles as f64 / ms.cycles.max(1) as f64;
        }
        table.row(vec![
            bench.meta().name.to_string(),
            format!("{:.2}x", speedups[0]),
            format!("{:.2}x", speedups[1]),
            format!("{:+.1}%", 100.0 * (speedups[1] / speedups[0] - 1.0)),
        ]);
    }
    Ok(vec![table].into())
}

/// Full-matrix fault-injection sweep over `benches` (empty: all ten)
/// on the [`Orchestrator`] pool with `--jobs` workers, sharing the
/// context's baselines. See the `fault_sweep` binary for the matrix.
/// A failed cell is a structured row of the report, never an error.
/// An empty `benches` means all ten; the binary has already checked
/// the names (see [`crate::select_benches`]).
pub fn fault_sweep(ctx: &Context, tel: &mut Telemetry, benches: &[String]) -> Result<Output> {
    let benches: Vec<String> = if benches.is_empty() {
        all_benchmarks()
            .iter()
            .map(|b| b.meta().name.to_string())
            .collect()
    } else {
        benches.to_vec()
    };
    let args = &ctx.args;
    let (matrix, metas) = sweep::matrix(args.seed, &benches);
    let outcomes = Orchestrator::new(ctx.scale)
        .jobs(args.effective_jobs())
        .progress(true)
        .profile(args.profiling())
        .run_with_telemetry(&matrix, &ctx.cache, tel);
    let table = sweep::table(ctx.scale, args.seed, &metas, &outcomes);
    Ok(Output {
        tables: vec![table],
        profile: merge_profiles(&outcomes),
    })
}

/// `warm_start`'s own flags.
#[derive(Debug, Clone)]
pub struct WarmStart {
    /// Where the per-generation `.axmsnap` files live.
    pub state_dir: PathBuf,
    /// Runs per benchmark, at least 2.
    pub generations: usize,
    /// Benchmarks to run, in suite order (empty: all of them).
    pub benches: Vec<String>,
    /// Order and admission of restored entries (`--restore-policy`).
    pub restore_policy: RestorePolicy,
}

impl Default for WarmStart {
    fn default() -> Self {
        Self {
            state_dir: std::env::temp_dir().join("axmemo-warm-start"),
            generations: 3,
            benches: Vec::new(),
            restore_policy: RestorePolicy::default(),
        }
    }
}

/// Cold-vs-warm hit-rate curves on an 8 KB L1 LUT: generation 0 of
/// each benchmark is a cold run that only writes its snapshot,
/// generation `k` warm-starts from generation `k-1`'s file. The report
/// names no paths, so it is the same for any `state_dir`.
///
/// # Errors
///
/// Failure to create `state_dir` (naming `--state-dir`), then the first
/// run's failure, snapshot I/O included.
pub fn warm_start(ctx: &Context, tel: &mut Telemetry, warm: &WarmStart) -> Result<Output> {
    let (scale, generations) = (ctx.scale, warm.generations);
    let dir = &warm.state_dir;
    std::fs::create_dir_all(dir).map_err(|e| format!("--state-dir {}: {e}", dir.display()))?;
    // One mid-size configuration: large enough to hold useful warm
    // state, small enough that a single run does not trivially saturate
    // it (the regime where persistence matters).
    let memo = MemoConfig::l1_only(8 * 1024);
    let mut table = Table::new(
        format!("Warm-start hit-rate curves, {generations} generations, scale {scale:?}"),
        &[
            "Benchmark",
            "Gen",
            "Start",
            "Hit rate",
            "Speedup",
            "Restored",
            "dHit vs cold",
        ],
    );
    let mut deltas: Vec<f64> = Vec::new();
    let mut warmer = 0usize;
    for bench in all_benchmarks() {
        let name = bench.meta().name.to_string();
        if !warm.benches.is_empty() && !warm.benches.contains(&name) {
            continue;
        }
        let snap_path = |generation: usize| dir.join(format!("{name}.gen{generation}.axmsnap"));
        let mut cold_hit_rate = 0.0;
        for generation in 0..generations {
            let plan = SnapshotPlan {
                restore_from: (generation > 0).then(|| snap_path(generation - 1)),
                snapshot_out: Some(snap_path(generation)),
                restore_policy: warm.restore_policy,
            };
            let report = run_cell(
                bench.as_ref(),
                scale,
                &memo,
                std::mem::take(tel),
                &ctx.cache,
                RunOptions::default(),
                &plan,
            )?;
            *tel = report.telemetry;
            let r = &report.result;
            if generation == 0 {
                cold_hit_rate = r.hit_rate;
            }
            let (start, restored) = match &report.recovery {
                Some(rec) => (
                    match rec.outcome {
                        RecoveryOutcome::Restored => "warm",
                        RecoveryOutcome::ColdStart => "cold",
                    },
                    rec.applied
                        .map(|a| a.l1_restored + a.l2_restored)
                        .unwrap_or(0),
                ),
                None => ("cold", 0),
            };
            let delta = r.hit_rate - cold_hit_rate;
            table.row(vec![
                name.clone(),
                generation.to_string(),
                start.to_string(),
                format!("{:.4}", r.hit_rate),
                format!("{:.2}x", r.speedup),
                restored.to_string(),
                format!("{delta:+.4}"),
            ]);
            if generation + 1 == generations {
                deltas.push(delta);
                if delta > 0.0 {
                    warmer += 1;
                }
            }
        }
    }
    table.summary(
        "benchmarks warmer than cold",
        format!("{warmer}/{}", deltas.len()),
    );
    table.summary(
        "mean final hit-rate delta",
        format!(
            "{:+.4}",
            if deltas.is_empty() {
                0.0
            } else {
                deltas.iter().sum::<f64>() / deltas.len() as f64
            }
        ),
    );
    Ok(vec![table].into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collisions_count_distinct_inputs_sharing_a_key_per_lut() {
        let a = vec![1, 2, 3, 4, 5, 6, 7, 8, 9];
        let b = vec![1, 2, 3, 4, 5, 6, 7, 8, 0]; // differs past byte 8
        let c = vec![9, 2, 3, 4, 5, 6, 7, 8, 1]; // same xor-fold as `a`
        let stream = vec![(0, a.clone()), (0, b.clone()), (0, c), (1, b), (0, a)];
        assert_eq!(collisions(&stream, sample8), 1, "b aliases a");
        assert_eq!(collisions(&stream, xor_fold), 1, "c aliases a");
        let crc = TableCrc::new(CrcWidth::W32);
        assert_eq!(collisions(&stream, |d| crc.checksum(d)), 0);
    }

    #[test]
    fn output_renders_each_table_followed_by_a_blank_line() {
        let (a, b) = (Table::new("a", &["x"]), Table::new("b", &["y"]));
        let out = Output::from(vec![a.clone(), b.clone()]);
        for mode in [ReportMode::Text, ReportMode::Json] {
            let expected = format!("{}\n{}\n", a.render(mode), b.render(mode));
            assert_eq!(out.render(mode), expected);
        }
    }

    #[test]
    fn no_experiment_takes_a_snapshot_flag() {
        let usage_of = |b: &Binary| usage(b.name, b.extra_usage, b.refused());
        let lines: Vec<String> = EXPERIMENTS
            .iter()
            .map(|e| &e.bin)
            .chain([&WARM_START])
            .map(usage_of)
            .collect();
        for line in &lines {
            for flag in ["--snapshot-out", "--restore-from", "--dispatch"] {
                assert!(!line.contains(flag), "{line}");
            }
        }
        let taking = |flag: &str| -> Vec<&str> {
            EXPERIMENTS
                .iter()
                .filter(|e| !e.bin.refused().contains(&flag))
                .map(|e| e.bin.name)
                .collect()
        };
        assert_eq!(taking("--seed"), ["fault_sweep"]);
        assert_eq!(taking("--jobs"), ["fault_sweep"]);
        let line = usage_of(&experiment("fig7").bin);
        assert_eq!(
            line,
            "usage: fig7 [--trace-out <path>] [--report text|json] \
             [--profile-out <path>] [--profile folded|json|text]"
        );
        let line = usage_of(&experiment("fault_sweep").bin);
        assert!(line.starts_with("usage: fault_sweep [--benches a,b,c] "));
        assert!(line.contains("[--seed <n>] [--jobs <n>]"), "{line}");
        // The restore policy is warm_start's own flag, and no other
        // usage line lists it.
        let warm = &lines[EXPERIMENTS.len()];
        assert!(warm.starts_with("usage: warm_start [--state-dir <dir>] "));
        assert!(warm.contains("[--restore-policy oldest|mru]"), "{warm}");
        assert!(
            !warm.contains("--seed") && !warm.contains("--jobs"),
            "{warm}"
        );
        for line in &lines[..EXPERIMENTS.len()] {
            assert!(!line.contains("--restore-policy"), "{line}");
        }
    }
}
