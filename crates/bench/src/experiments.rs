//! Every experiment of the suite as a library function, plus the two
//! drivers that run them: one experiment per binary
//! ([`Experiment::main`]) or the whole suite in one process
//! ([`all_experiments`]).
//!
//! An experiment reads a shared [`Context`] (flags, scale, one
//! [`BaselineCache`], and the lazily computed [`PaperMatrix`]) and
//! returns its stdout as a string plus an optional profile. Nothing is
//! printed while it runs, so the suite driver can run experiments on
//! the [`parallel_map`] pool and still print them in a fixed order.

use std::error::Error;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::OnceLock;

use axmemo_compiler::dddg::Dddg;
use axmemo_compiler::trace::TraceCapture;
use axmemo_compiler::{analyze, SearchConfig};
use axmemo_core::config::MemoConfig;
use axmemo_core::crc::{CrcWidth, TableCrc};
use axmemo_core::snapshot::RecoveryOutcome;
use axmemo_core::unit::{UnitTiming, CRC_BYTES_PER_CYCLE};
use axmemo_sim::cache::CacheConfig;
use axmemo_sim::cpu::{DispatchTier, Machine, SimConfig, Simulator};
use axmemo_sim::energy::{l1_lut_energy, AreaModel, EnergyModel};
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
    /// Everything the experiment prints on stdout.
    pub stdout: String,
    /// A profile collected outside the experiment's telemetry handle
    /// (the fault sweep's per-job profiles). The drivers merge it with
    /// the handle's own profile.
    pub profile: Option<Profile>,
}

impl From<String> for Output {
    fn from(stdout: String) -> Self {
        Self {
            stdout,
            profile: None,
        }
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
    /// Context for `args` at the `AXMEMO_SCALE` scale.
    pub fn new(args: BenchArgs) -> Self {
        Self {
            args,
            scale: scale_from_env(),
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
                PaperMatrix::compute(&self.args, self.scale, &self.cache, tel)
                    .map_err(|e| e.to_string())
            })
            .as_ref()
            .map_err(|e| e.clone().into())
    }
}

/// The body of an experiment.
pub type Body = fn(&Context, &mut Telemetry) -> Result<Output>;

/// One experiment: the binary it is named after and its body.
#[derive(Debug)]
pub struct Experiment {
    /// Binary name, also the section header in [`all_experiments`].
    pub name: &'static str,
    /// Shared flags it rejects: the snapshot flags, except on the
    /// matrix figures and `warm_start` (which takes only
    /// `--restore-policy`).
    refused: &'static [&'static str],
    /// Usage text for flags only its own binary parses.
    extra_usage: &'static str,
    body: Body,
}

/// Flags that only snapshot-aware experiments take.
const SNAPSHOT_FLAGS: [&str; 3] = ["--snapshot-out", "--restore-from", "--restore-policy"];

/// Usage fragment of every shared flag, keyed by the flag.
const FLAG_USAGE: [(&str, &str); 9] = [
    ("--trace-out", "[--trace-out <path>]"),
    ("--report", "[--report text|json]"),
    ("--seed", "[--seed <n>]"),
    ("--jobs", "[--jobs <n>]"),
    ("--profile-out", "[--profile-out <path>]"),
    ("--profile", "[--profile folded|json|text]"),
    ("--snapshot-out", "[--snapshot-out <dir>]"),
    ("--restore-from", "[--restore-from <dir>]"),
    ("--restore-policy", "[--restore-policy oldest|mru]"),
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

impl Experiment {
    /// Print `msg` and this binary's usage line, and exit 2: for a bad
    /// value of a flag only the binary itself parses.
    pub fn usage_error(&self, msg: &str) -> ! {
        usage_exit(self.name, self.extra_usage, self.refused, msg)
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

    /// Run this experiment as its own binary with the process
    /// arguments.
    pub fn main(&self) {
        self.main_with(std::env::args().skip(1), self.body);
    }

    /// Run `body` as this experiment's binary: parse `raw` (exit 2 on a
    /// bad or refused flag), run, print the output, write the profile
    /// `--profile-out` asked for, and append the telemetry report in
    /// text mode under `--trace-out`. A failure prints `error: ...` and
    /// exits 1.
    pub fn main_with(
        &self,
        raw: impl IntoIterator<Item = String>,
        body: impl FnOnce(&Context, &mut Telemetry) -> Result<Output>,
    ) {
        let args = parse_or_exit(self.name, self.extra_usage, self.refused, raw);
        let ctx = Context::new(args);
        let run = || -> Result<()> {
            let mut tel = ctx.args.telemetry()?;
            let out = body(&ctx, &mut tel)?;
            print!("{}", out.stdout);
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
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("no experiment named {name}"))
}

const fn plain(name: &'static str, body: Body) -> Experiment {
    Experiment {
        name,
        refused: &SNAPSHOT_FLAGS,
        extra_usage: "",
        body,
    }
}

const fn figure(name: &'static str, body: Body) -> Experiment {
    Experiment {
        refused: &[],
        ..plain(name, body)
    }
}

/// The suite, in the order [`all_experiments`] prints it.
pub static EXPERIMENTS: [Experiment; 14] = [
    plain("table1", table1),
    plain("table2", table2),
    plain("table4_5", table4_5),
    figure("fig7", |c, t| Ok(c.matrix(t)?.fig7(c.args.report).into())),
    figure("fig8", |c, t| Ok(c.matrix(t)?.fig8(c.args.report).into())),
    figure("fig9", |c, t| Ok(c.matrix(t)?.fig9(c.args.report).into())),
    figure("fig10", |c, t| Ok(c.matrix(t)?.fig10(c.args.report).into())),
    plain("fig11", fig11),
    plain("atm_compare", atm_compare),
    plain("l2_sensitivity", l2_sensitivity),
    plain("ablation_crc", ablation_crc),
    plain("ablation_two_level", ablation_two_level),
    plain("ablation_branch_predictor", ablation_branch_predictor),
    Experiment {
        extra_usage: "[--benches a,b,c] ",
        ..plain("fault_sweep", |c, t| fault_sweep(c, t, &[]))
    },
];

/// The `warm_start` binary: not part of [`EXPERIMENTS`] (it writes
/// snapshot files, so [`all_experiments`] leaves it out). `--state-dir`
/// sets every snapshot path, so it refuses `--snapshot-out` and
/// `--restore-from`; `--restore-policy` picks the restore order.
pub static WARM_START: Experiment = Experiment {
    name: "warm_start",
    refused: &["--snapshot-out", "--restore-from"],
    extra_usage: "[--state-dir <dir>] [--generations <n>] [--benches a,b,c] ",
    body: |c, t| warm_start(c, t, &WarmStart::default()),
};

/// Run every experiment of [`EXPERIMENTS`] in this process and print
/// each one's output under a `==== <name> ====` header in suite order,
/// whatever order they finish in. `--jobs N` runs N experiments at
/// once on [`parallel_map`]; all of them share one [`Context`], so the
/// paper matrix and each baseline are simulated once. Under `--jobs 1`
/// the fault sweep uses the host's available parallelism instead.
///
/// `--profile-out` writes the merge of every experiment's profile, in
/// suite order. `--trace-out` and the snapshot flags exit 2. Exits 1
/// after printing everything if any experiment failed.
pub fn all_experiments() {
    let bin = "all_experiments";
    let refused = [&SNAPSHOT_FLAGS[..], &["--trace-out"]].concat();
    let args = parse_or_exit(bin, "", &refused, std::env::args().skip(1));
    let jobs = args.effective_jobs();
    let ctx = Context::new(BenchArgs {
        jobs: if jobs > 1 { 1 } else { 0 },
        ..args.clone()
    });
    let outputs = parallel_map(jobs, EXPERIMENTS.len(), |i| EXPERIMENTS[i].run_in(&ctx));

    let mut failed = false;
    let mut profile = None;
    for (exp, output) in EXPERIMENTS.iter().zip(outputs) {
        println!("\n==================== {} ====================", exp.name);
        match output {
            Ok(out) => {
                print!("{}", out.stdout);
                profile = merge(profile, out.profile);
            }
            Err(e) => {
                eprintln!("{}: error: {e}", exp.name);
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
fn table1(ctx: &Context, _: &mut Telemetry) -> Result<Output> {
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
        sim.run_traced(&program, &mut machine, Some(&mut cap))?;
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
    Ok(format!("{}\n", table.render(ctx.args.report)).into())
}

/// Table 2: benchmark inventory — domain, description, dataset,
/// memoization input sizes, and truncated bits per memoized block.
fn table2(ctx: &Context, _: &mut Telemetry) -> Result<Output> {
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
    Ok(format!("{}\n", table.render(ctx.args.report)).into())
}

/// Tables 4 & 5: ISA timing parameters and the synthesised hardware's
/// area / energy / latency figures, including the §6.1 area-overhead
/// claim (memoization hardware ≈ 2% of the two-core HPI processor).
fn table4_5(ctx: &Context, _: &mut Telemetry) -> Result<Output> {
    let t = UnitTiming::default();
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
        format!(
            "{} cycles (L1 LUT) / {} cycles (L2 LUT)",
            t.lookup_l1, t.lookup_l2
        ),
    ]);
    t4.row(vec!["update".to_string(), format!("{} cycles", t.update)]);
    t4.row(vec![
        "invalidate".to_string(),
        format!("{} cycle per way in a set", t.invalidate_per_way),
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
    let mode = ctx.args.report;
    Ok(format!("{}\n{}\n", t4.render(mode), t5.render(mode)).into())
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
    let opts = RunOptions::default();
    let exact_opts = RunOptions {
        zero_trunc: true,
        ..opts
    };
    let mut run = |bench: &dyn Benchmark, opts| -> Result<_> {
        let handle = std::mem::replace(tel, Telemetry::off());
        let report = run_cell(bench, scale, &cfg, handle, &ctx.cache, opts, &plan)?;
        *tel = report.telemetry;
        Ok(report.result)
    };
    for bench in all_benchmarks() {
        let ax = run(bench.as_ref(), opts)?;
        let ex = run(bench.as_ref(), exact_opts)?;
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
    Ok(format!("{}\n", table.render(ctx.args.report)).into())
}

/// §6.2 "Comparison with prior work": per-benchmark speedup of the ATM
/// (Approximate Task Memoization) reimplementation, normalised to the
/// baseline, from the paper matrix's contender inputs. The paper
/// reports speedups only for blackscholes, fft, inversek2j and kmeans,
/// with slowdowns elsewhere and a geomean of 0.8x.
fn atm_compare(ctx: &Context, tel: &mut Telemetry) -> Result<Output> {
    let mut out = String::new();
    writeln!(
        out,
        "ATM comparison (software task memoization), scale {:?}",
        ctx.scale
    )?;
    writeln!(
        out,
        "{:<14} | {:>10} | {:>10} | {:>14} | {:>12}",
        "Benchmark", "speedup", "hit rate", "false-hit rate", "inst ratio"
    )?;
    let mut speedups = Vec::new();
    for row in &ctx.matrix(tel)?.rows {
        let atm = atm_outcome(&row.contender);
        writeln!(
            out,
            "{:<14} | {:>9.2}x | {:>9.1}% | {:>13.2}% | {:>12.2}",
            row.bench,
            atm.speedup,
            100.0 * atm.hit_rate(),
            100.0 * atm.collision_rate(),
            atm.inst_ratio,
        )?;
        speedups.push(atm.speedup);
    }
    writeln!(out)?;
    writeln!(
        out,
        "ATM geomean speedup: {:.2}x (paper: 0.8x)",
        geomean(&speedups)
    )?;
    Ok(out.into())
}

/// §6.2 L2-cache-size sensitivity: with a 256 KB L2 LUT, shrink the
/// total L2 cache from 1 MB to 512 KB (caching capacity 768 KB →
/// 256 KB) and measure the performance degradation. The paper reports
/// a 0.44% average slowdown (hotspot worst at 1.55%) — the L2 LUT earns
/// far more than the lost caching capacity costs.
fn l2_sensitivity(ctx: &Context, _: &mut Telemetry) -> Result<Output> {
    let scale = ctx.scale;
    let memo = MemoConfig::l1_l2(8 * 1024, 256 * 1024);
    let mut out = String::new();
    writeln!(
        out,
        "L2 size sensitivity with a 256 KB L2 LUT, scale {scale:?}"
    )?;
    writeln!(
        out,
        "{:<14} | {:>14} | {:>14} | {:>12}",
        "Benchmark", "cycles @1MB L2", "cycles @512KB", "degradation"
    )?;
    let mut degradations = Vec::new();
    for bench in all_benchmarks() {
        let prepared = ctx.cache.program(bench.as_ref(), scale, false)?;
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
            cycles[i] = prepared
                .memo
                .run(&mut sim, DispatchTier::default(), &mut machine)?
                .cycles;
        }
        let degradation = cycles[1] as f64 / cycles[0] as f64 - 1.0;
        degradations.push(degradation);
        writeln!(
            out,
            "{:<14} | {:>14} | {:>14} | {:>11.2}%",
            bench.meta().name,
            cycles[0],
            cycles[1],
            100.0 * degradation
        )?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "average degradation: {:.2}% (paper: 0.44%, worst 1.55%)",
        100.0 * mean(&degradations)
    )?;
    Ok(out.into())
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
    let mut out = String::new();
    writeln!(
        out,
        "Ablation: CRC width vs collision rate, scale {:?}",
        ctx.scale
    )?;
    writeln!(
        out,
        "{:<14} | {:>10} | {:>14} | {:>14} | {:>14} | {:>16} | {:>16}",
        "Benchmark",
        "lookups",
        "CRC16 collide",
        "CRC32 collide",
        "CRC64 collide",
        "xor-fold collide",
        "sample8 collide"
    )?;
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
        writeln!(
            out,
            "{:<14} | {:>10} | {:>14} | {:>14} | {:>14} | {:>16} | {:>16}",
            row.bench,
            stream.len(),
            counts[0],
            counts[1],
            counts[2],
            counts[3],
            counts[4]
        )?;
        lookups += stream.len();
        for (total, count) in totals.iter_mut().zip(counts) {
            *total += count;
        }
    }
    writeln!(out)?;
    let observed: Vec<String> = KEYS
        .iter()
        .zip(totals)
        .map(|(key, total)| format!("{key} {total}"))
        .collect();
    writeln!(
        out,
        "Collisions in {lookups} lookups: {}.",
        observed.join(", ")
    )?;
    let crc32 = match totals[1] {
        0 => "is collision-free".to_string(),
        n => format!("collides on {n} of {lookups} lookups"),
    };
    writeln!(
        out,
        "Expectation (§6): 32-bit CRC is generally large enough to avoid collision; here CRC32 {crc32}."
    )?;
    writeln!(
        out,
        "CRC16's 65536-value space collides once distinct tuples approach ~300 (birthday bound)."
    )?;
    Ok(out.into())
}

/// Ablation: two-level LUT vs. a single level at the same total
/// capacity (design decision 2 in DESIGN.md). The two-level split buys
/// a cheap common case (2-cycle L1) while the LLC partition supplies
/// capacity; this sweep quantifies what a single flat level of equal
/// capacity would have to cost to match.
fn ablation_two_level(ctx: &Context, _: &mut Telemetry) -> Result<Output> {
    let mut out = String::new();
    writeln!(
        out,
        "Ablation: L1-only vs two-level at matched capacities, scale {:?}",
        ctx.scale
    )?;
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
    writeln!(
        out,
        "{:<30} | {:>10} | {:>10}",
        "configuration", "geo speedup", "mean hit"
    )?;
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
        writeln!(
            out,
            "{:<30} | {:>9.2}x | {:>9.1}%",
            name,
            geomean(&speedups),
            100.0 * hits.iter().sum::<f64>() / hits.len() as f64
        )?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "Expectation: capacity beyond the 16 KB SRAM ceiling is only"
    )?;
    writeln!(
        out,
        "reachable via the L2 partition — the two-level design recovers"
    )?;
    writeln!(
        out,
        "the flat-LUT hit rate without growing the dedicated array."
    )?;
    Ok(out.into())
}

/// Ablation: fixed taken-branch bubble vs. a real branch predictor. The
/// default timing model charges a fixed bubble per taken branch; the
/// gem5 HPI model the paper uses has a predictor. The *ratios* the
/// paper reports (speedup = baseline cycles / memoized cycles) are
/// insensitive to that choice — both runs profit from prediction
/// equally.
fn ablation_branch_predictor(ctx: &Context, _: &mut Telemetry) -> Result<Output> {
    let scale = ctx.scale;
    let mut out = String::new();
    writeln!(
        out,
        "Ablation: fixed-bubble vs bimodal-predictor front end, scale {scale:?}"
    )?;
    writeln!(
        out,
        "{:<14} | {:>16} | {:>16} | {:>10}",
        "Benchmark", "speedup (bubble)", "speedup (pred.)", "delta"
    )?;
    for bench in all_benchmarks() {
        let prepared = ctx.cache.program(bench.as_ref(), scale, false)?;
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
            let base_cfg = SimConfig {
                predictor,
                ..SimConfig::baseline()
            };
            let memo_sim_cfg = SimConfig {
                predictor,
                ..SimConfig::with_memo(memo_cfg.clone())
            };
            let mut base = Simulator::new(base_cfg)?;
            let mut mb = Machine::clone(&inputs);
            let bs = prepared
                .base
                .run(&mut base, DispatchTier::default(), &mut mb)?;
            let mut memo = Simulator::new(memo_sim_cfg)?;
            let mut mm = Machine::clone(&inputs);
            let ms = prepared
                .memo
                .run(&mut memo, DispatchTier::default(), &mut mm)?;
            speedups[i] = bs.cycles as f64 / ms.cycles.max(1) as f64;
        }
        writeln!(
            out,
            "{:<14} | {:>15.2}x | {:>15.2}x | {:>+9.1}%",
            bench.meta().name,
            speedups[0],
            speedups[1],
            100.0 * (speedups[1] / speedups[0] - 1.0)
        )?;
    }
    Ok(out.into())
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
        stdout: format!("{}\n", table.render(args.report)),
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
}

impl Default for WarmStart {
    fn default() -> Self {
        Self {
            state_dir: std::env::temp_dir().join("axmemo-warm-start"),
            generations: 3,
            benches: Vec::new(),
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
/// The first run's failure, snapshot I/O included.
pub fn warm_start(ctx: &Context, tel: &mut Telemetry, warm: &WarmStart) -> Result<Output> {
    let (scale, generations) = (ctx.scale, warm.generations);
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
        let snap_path = |generation: usize| {
            warm.state_dir
                .join(format!("{name}.gen{generation}.axmsnap"))
        };
        let mut cold_hit_rate = 0.0;
        for generation in 0..generations {
            let plan = SnapshotPlan {
                restore_from: (generation > 0).then(|| snap_path(generation - 1)),
                snapshot_out: Some(snap_path(generation)),
                restore_policy: ctx.args.restore_policy,
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
    Ok(format!("{}\n", table.render(ctx.args.report)).into())
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
    fn only_the_matrix_figures_take_snapshot_flags() {
        let snapshot: Vec<&str> = EXPERIMENTS
            .iter()
            .filter(|e| e.refused.is_empty())
            .map(|e| e.name)
            .collect();
        assert_eq!(snapshot, ["fig7", "fig8", "fig9", "fig10"]);
        let fig11 = experiment("fig11");
        let line = usage(fig11.name, fig11.extra_usage, fig11.refused);
        assert!(line.starts_with("usage: fig11 [--trace-out"), "{line}");
        assert!(!line.contains("--dispatch"), "{line}");
        assert!(!line.contains("--snapshot-out"), "{line}");
        let sweep = experiment("fault_sweep");
        let line = usage(sweep.name, sweep.extra_usage, sweep.refused);
        assert!(line.starts_with("usage: fault_sweep [--benches a,b,c] "));
        let fig7 = experiment("fig7");
        let line = usage(fig7.name, fig7.extra_usage, fig7.refused);
        assert!(line.ends_with("[--restore-policy oldest|mru]"), "{line}");
        // warm_start sets its own snapshot paths but takes the policy.
        let warm = &WARM_START;
        let line = usage(warm.name, warm.extra_usage, warm.refused);
        assert!(line.starts_with("usage: warm_start [--state-dir <dir>] "));
        assert!(line.ends_with("[--restore-policy oldest|mru]"), "{line}");
        assert!(!line.contains("--snapshot-out") && !line.contains("--restore-from"));
    }
}
