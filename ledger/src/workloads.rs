//! The four ledger workloads. Each pass drives the repository's public
//! APIs the way the matching figure binary does, with a span around
//! every layer call, and returns per-cell digests of every simulated
//! result plus the deterministic counters the per-layer metrics use.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use axmemo_bench::orchestrator::{merge_profiles, Orchestrator};
use axmemo_bench::{
    collect_events_cached, geomean, mean, paper_configs, software_lut_outcome, sweep, ReportMode,
    Table,
};
use axmemo_compiler::codegen::memoize;
use axmemo_core::config::MemoConfig;
use axmemo_core::snapshot::RecoveryOutcome;
use axmemo_sim::pipeline::LatencyModel;
use axmemo_sim::{
    DecodedProgram, DispatchTier, Machine, RunStats, SimConfig, SimError, Simulator,
    ThreadedProgram,
};
use axmemo_telemetry::{PhaseId, Profile, Telemetry};
use axmemo_workloads::runner::{
    run_benchmark_report_cached, run_benchmark_report_snap, BaselineCache, BenchmarkResult,
    RunOptions, RunReport, SnapshotPlan,
};
use axmemo_workloads::{all_benchmarks, Benchmark, Dataset, Scale};

use axmemo_ledger::stats::Fnv;
use axmemo_ledger::trace::Tracer;

/// Generations per benchmark in `warm_start` (the `warm_start` bin's
/// default).
const GENERATIONS: usize = 3;

/// Paper reference values (EXPERIMENTS.md headline): geomean speedup and
/// energy reduction of L1 8K + L2 512K, and the mean L1-4K hit rate.
pub const PAPER_SPEEDUP: f64 = 2.82;
/// See [`PAPER_SPEEDUP`].
pub const PAPER_ENERGY: f64 = 2.72;
/// See [`PAPER_SPEEDUP`]; percent.
pub const PAPER_HIT_PCT: f64 = 37.1;

/// A ledger workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 7: ten benchmarks × four paper LUT configurations plus the
    /// software-LUT contender, serial.
    Fig7,
    /// The 190-cell fault matrix through the orchestrator pool.
    FaultSweep,
    /// Baseline programs only, full scale, already lowered.
    SimBase,
    /// Cold→warm generations with snapshot write and restore.
    WarmStart,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Fig7,
        Workload::FaultSweep,
        Workload::SimBase,
        Workload::WarmStart,
    ];

    /// Name as used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig7 => "fig7",
            Workload::FaultSweep => "fault_sweep",
            Workload::SimBase => "sim_base",
            Workload::WarmStart => "warm_start",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requested seconds per timed pass: roughly one pass's host time,
    /// with what runs around it, on the host the bounds were set on
    /// (README, "How a run measures").
    pub fn pass_seconds(self) -> f64 {
        match self {
            Workload::Fig7 | Workload::WarmStart => 0.5,
            Workload::FaultSweep => 0.7,
            Workload::SimBase => 0.8,
        }
    }

    /// The scale the workload runs at; `--smoke` runs everything tiny.
    pub fn scale(self, smoke: bool) -> Scale {
        match (smoke, self) {
            (true, _) => Scale::Tiny,
            (false, Workload::SimBase) => Scale::Full,
            (false, _) => Scale::Small,
        }
    }
}

/// Lower-case scale name.
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Full => "full",
    }
}

/// Host time of one set-up repetition, per layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `Benchmark::setup` (input generation), all benchmarks.
    pub inputs_ms: f64,
    /// `Benchmark::program`, all benchmarks.
    pub program_ms: f64,
    /// `codegen::memoize`, all benchmarks.
    pub memoize_ms: f64,
    /// `DecodedProgram::compile` + `ThreadedProgram::compile` of both
    /// legs, all benchmarks.
    pub lower_ms: f64,
}

impl SetupTimes {
    /// Total seconds.
    pub fn total_s(&self) -> f64 {
        (self.inputs_ms + self.program_ms + self.memoize_ms + self.lower_ms) / 1e3
    }
}

/// State a pass needs beyond its arguments.
#[derive(Debug)]
pub struct Ctx {
    /// Workload scale.
    pub scale: Scale,
    /// Fault-injection seed (`fault_sweep` only).
    pub seed: u64,
    /// Orchestrator workers.
    pub jobs: usize,
    /// Directory for `warm_start`'s snapshot files.
    pub state_dir: PathBuf,
    /// Lowered baseline programs, for `sim_base`.
    pub base_programs: BasePrograms,
}

/// Every benchmark with its lowered baseline program.
pub type BasePrograms = Vec<(Box<dyn Benchmark>, ThreadedProgram)>;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One set-up repetition: build, memoize and lower every benchmark's
/// programs and generate its evaluation inputs at `scale`. Returns the
/// per-layer times and the lowered baseline programs.
///
/// # Errors
///
/// A codegen failure, naming the benchmark.
pub fn set_up(scale: Scale) -> Result<(SetupTimes, BasePrograms), String> {
    let latency = LatencyModel::default();
    let mut times = SetupTimes::default();
    let mut programs = Vec::new();
    for bench in all_benchmarks() {
        let t = Instant::now();
        let (program, specs) = bench.program(scale);
        times.program_ms += ms_since(t);
        let t = Instant::now();
        let memo_program =
            memoize(&program, &specs).map_err(|e| format!("{}: {e}", bench.meta().name))?;
        times.memoize_ms += ms_since(t);
        let t = Instant::now();
        let base = ThreadedProgram::compile(&DecodedProgram::compile(&program, &latency));
        let memo = ThreadedProgram::compile(&DecodedProgram::compile(&memo_program, &latency));
        times.lower_ms += ms_since(t);
        let t = Instant::now();
        let machine = bench.setup(scale, Dataset::Eval);
        times.inputs_ms += ms_since(t);
        std::hint::black_box((&memo, &machine));
        programs.push((bench, base));
    }
    Ok((times, programs))
}

/// One checked result of a pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Stable identifier, e.g. `fft/cfg2` or `sobel:L1/none@500ppm`.
    pub id: String,
    /// FNV digest of the cell's simulated result.
    pub digest: u64,
    /// The result depends on `--seed`.
    pub seeded: bool,
    /// The cell errored, hit a watchdog or panicked.
    pub errored: bool,
}

/// Host-time shape of one orchestrated sweep.
#[derive(Debug, Clone, Default)]
pub struct OrchTiming {
    /// Wall milliseconds of every job.
    pub job_ms: Vec<f64>,
    /// Worker count.
    pub workers: usize,
}

/// The fig7 fidelity numbers the paper reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fidelity {
    /// Geomean speedup of L1 8K + L2 512K.
    pub speedup: f64,
    /// Geomean energy reduction of L1 8K + L2 512K.
    pub energy: f64,
    /// Mean L1-4K hit rate, percent.
    pub hit_pct: f64,
}

/// Everything one pass returns.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host seconds of the timed region.
    pub wall_s: f64,
    /// Checked results, in a fixed order.
    pub cells: Vec<Cell>,
    /// Deterministic per-layer counters.
    pub counts: BTreeMap<&'static str, u64>,
    /// Orchestrator timing (`fault_sweep`).
    pub orch: Option<OrchTiming>,
    /// Cycle-attribution profile (profiled passes).
    pub profile: Option<Profile>,
    /// Σ reported cycles of the runs the profile covers.
    pub profiled_cycles: u64,
    /// The report table as the matching bin prints it with
    /// `--report json`.
    pub report_json: Option<String>,
    /// Paper-fidelity numbers (`fig7`).
    pub fidelity: Option<Fidelity>,
}

impl Pass {
    fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Account one simulated leg.
    fn add_leg(&mut self, s: &RunStats) {
        self.count("sim.insts", s.dynamic_insts);
        self.count("sim.cycles", s.cycles);
        self.count("sim.l1d_accesses", s.energy.l1d_accesses);
        self.count("sim.l2_accesses", s.energy.l2_accesses);
        self.count("sim.dram_accesses", s.energy.dram_accesses);
        self.count("sim.branch_bubbles", s.branch_bubbles);
        self.count("sim.memo_stall_cycles", s.memo_stall_cycles);
        self.count("sim.crc_beats", s.energy.crc_beats);
    }

    /// Account one baseline leg run inside a `sim.base` span.
    fn add_base_leg(&mut self, s: &RunStats) {
        self.add_leg(s);
        self.count("sim.base_insts", s.dynamic_insts);
    }

    /// Account one memoized leg with its unit and LUT statistics.
    fn add_memo_report(&mut self, r: &RunReport) {
        self.add_leg(&r.result.memo_stats);
        self.count("runner.memo_insts", r.result.memo_stats.dynamic_insts);
        self.profiled_cycles += r.result.memo_stats.cycles;
        let u = &r.unit_stats;
        self.count("runner.memo_legs", 1);
        self.count("core.lookups", u.lookups);
        self.count("core.reported_hits", u.reported_hits);
        self.count("core.l2_hits", u.l2_hits);
        self.count("core.sampled_misses", u.sampled_misses);
        self.count("core.updates", u.updates);
        self.count("core.input_bytes", u.input_bytes);
        self.count("core.invalidates", u.invalidates);
        self.count("core.l1_evictions", r.l1_lut.evictions);
        self.count("core.l2_evictions", r.l2_lut.evictions);
    }

    fn add_cache(&mut self, cache: &BaselineCache) {
        self.count("runner.baselines_computed", cache.computed());
        self.count("runner.baselines_reused", cache.reused());
        self.count("runner.programs_compiled", cache.programs_compiled());
        self.count("runner.programs_reused", cache.programs_reused());
    }

    fn cell(&mut self, id: String, digest: u64, seeded: bool) {
        self.cells.push(Cell {
            id,
            digest,
            seeded,
            errored: false,
        });
    }

    fn fail(&mut self, id: String, why: &str) {
        eprintln!("bench_ledger: cell {id} failed: {why}");
        self.cells.push(Cell {
            id,
            digest: 0,
            seeded: false,
            errored: true,
        });
    }

    /// A counter, 0 when the pass never touched it.
    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }
}

fn stats_digest(h: &mut Fnv, s: &RunStats) {
    let e = &s.energy;
    for x in [
        s.cycles,
        s.dynamic_insts,
        s.memo_insts,
        s.memo_stall_cycles,
        s.branch_bubbles,
        e.instructions,
        e.int_alu_ops,
        e.int_mul_ops,
        e.int_div_ops,
        e.fp_ops,
        e.fp_div_ops,
        e.fp_libm_ops,
        e.l1d_accesses,
        e.l2_accesses,
        e.dram_accesses,
        e.crc_beats,
        e.hvr_accesses,
        e.l1_lut_accesses,
        e.l2_lut_accesses,
        e.quality_compares,
        e.ecc_checks,
    ] {
        h.u64(x);
    }
}

fn result_digest(h: &mut Fnv, r: &BenchmarkResult) {
    h.str(&r.name).str(&r.config);
    for x in [
        r.speedup,
        r.energy_reduction,
        r.dyn_inst_ratio,
        r.memo_inst_fraction,
        r.hit_rate,
        r.error.output_error,
    ] {
        h.f64(x);
    }
    h.u64(r.error.non_finite);
    for &x in &r.error.elementwise {
        h.f64(x);
    }
    stats_digest(h, &r.baseline_stats);
    stats_digest(h, &r.memo_stats);
}

fn report_digest(r: &RunReport) -> Fnv {
    let mut h = Fnv::default();
    result_digest(&mut h, &r.result);
    let u = &r.unit_stats;
    for x in [
        u.lookups,
        u.reported_hits,
        u.l1_hits,
        u.l2_hits,
        u.sampled_misses,
        u.updates,
        u.input_bytes,
        u.invalidates,
    ] {
        h.u64(x);
    }
    for l in [&r.l1_lut, &r.l2_lut] {
        for x in [l.hits, l.misses, l.inserts, l.evictions, l.invalidations] {
            h.u64(x);
        }
    }
    h
}

/// A telemetry handle with only the cycle-attribution profiler on, or
/// fully off.
fn telemetry(profiled: bool) -> Telemetry {
    let mut tel = Telemetry::off();
    if profiled {
        tel.profiler_mut().enable();
    }
    tel
}

/// Run one pass of `w`. `profiled` turns the simulator's profiler on
/// (the traced passes); `tr` records the layer spans when it is on.
pub fn run_pass(w: Workload, ctx: &Ctx, tr: &mut Tracer, profiled: bool) -> Pass {
    match w {
        Workload::Fig7 => fig7(ctx, tr, profiled),
        Workload::FaultSweep => fault_sweep(ctx, ctx.seed, &all_names(), tr, profiled),
        Workload::SimBase => sim_base(ctx, tr, profiled),
        Workload::WarmStart => warm_start(ctx, tr, profiled),
    }
}

fn all_names() -> Vec<String> {
    all_benchmarks()
        .iter()
        .map(|b| b.meta().name.to_string())
        .collect()
}

/// Figure 7, exactly as the `fig7` bin builds it (same cells, same
/// shared baseline cache, same table).
fn fig7(ctx: &Ctx, tr: &mut Tracer, profiled: bool) -> Pass {
    let scale = ctx.scale;
    let mut pass = Pass::default();
    let started = Instant::now();
    tr.enter("ledger.pass", "");
    let cache = BaselineCache::new();
    let configs = paper_configs();
    let mut tel = telemetry(profiled);
    let mut columns = vec!["Benchmark", "Metric"];
    columns.extend(configs.iter().map(|(n, _)| n.as_str()));
    columns.push("Software LUT");
    let mut table = Table::new(
        format!("Figure 7a (speedup) / 7b (energy saving), scale {scale:?}"),
        &columns,
    );
    let mut speedups: Vec<Vec<f64>> = vec![Vec::new(); configs.len()];
    let mut energies: Vec<Vec<f64>> = vec![Vec::new(); configs.len()];
    let mut hit_rates = Vec::new();
    let mut sw_speedups = Vec::new();

    for bench in all_benchmarks() {
        let b = bench.as_ref();
        let name = b.meta().name;
        tr.time("compiler.prepare", name, || cache.prepared(b, scale));
        match tr.time("sim.base", name, || {
            cache.get_or_compute(b, scale, Dataset::Eval, u64::MAX, DispatchTier::default())
        }) {
            Ok(base) => pass.add_base_leg(&base.stats),
            Err(e) => pass.fail(format!("{name}/base"), &e.to_string()),
        }
        let mut speed_cells = vec![name.to_string(), "speedup".to_string()];
        let mut energy_cells = vec![name.to_string(), "energy".to_string()];
        for (i, (_, cfg)) in configs.iter().enumerate() {
            let cell = format!("{name}/cfg{i}");
            let t = std::mem::take(&mut tel);
            let run = tr.time("runner.memo_leg", &cell, || {
                run_benchmark_report_cached(
                    b,
                    scale,
                    Dataset::Eval,
                    cfg,
                    RunOptions::default(),
                    t,
                    Some(&cache),
                )
            });
            match run {
                Ok(mut report) => {
                    tel = std::mem::take(&mut report.telemetry);
                    let r = &report.result;
                    speed_cells.push(format!("{:.2}x", r.speedup));
                    energy_cells.push(format!("{:.2}x", r.energy_reduction));
                    speedups[i].push(r.speedup);
                    energies[i].push(r.energy_reduction);
                    if i == 0 {
                        hit_rates.push(r.hit_rate);
                    }
                    pass.add_memo_report(&report);
                    pass.cell(cell, report_digest(&report).finish(), false);
                }
                Err(e) => {
                    tel = telemetry(profiled);
                    speed_cells.push("-".to_string());
                    energy_cells.push("-".to_string());
                    pass.fail(cell, &e.to_string());
                }
            }
        }
        match tr.time("baselines.events", name, || {
            collect_events_cached(b, scale, Some(&cache))
        }) {
            Ok(inputs) => {
                let sw = tr.time("baselines.swlut", name, || software_lut_outcome(&inputs));
                speed_cells.push(format!("{:.2}x", sw.speedup));
                energy_cells.push(format!("{:.2}x", sw.energy_ratio));
                sw_speedups.push(sw.speedup);
                pass.count("baselines.events", inputs.events.len() as u64);
                let mut h = Fnv::default();
                h.u64(inputs.events.len() as u64)
                    .u64(sw.lookups)
                    .u64(sw.hits)
                    .u64(sw.wrong_hits);
                for x in [
                    sw.insts,
                    sw.cycles,
                    sw.speedup,
                    sw.inst_ratio,
                    sw.energy_ratio,
                ] {
                    h.f64(x);
                }
                pass.cell(format!("{name}/swlut"), h.finish(), false);
            }
            Err(e) => pass.fail(format!("{name}/swlut"), &e.to_string()),
        }
        table.row(speed_cells).row(energy_cells);
    }

    let json = tr.time("bench.report", "", || {
        for (i, (name, _)) in configs.iter().enumerate() {
            table.summary(
                name.clone(),
                format!(
                    "geomean speedup {:.2}x, geomean energy reduction {:.2}x",
                    geomean(&speedups[i]),
                    geomean(&energies[i])
                ),
            );
        }
        table.summary(
            "Software LUT",
            format!(
                "geomean speedup {:.2}x (paper: 0.94x slowdown)",
                geomean(&sw_speedups)
            ),
        );
        table.render(ReportMode::Json)
    });
    tr.exit();
    pass.wall_s = started.elapsed().as_secs_f64();

    pass.add_cache(&cache);
    pass.cell(
        "table".to_string(),
        Fnv::default().str(&json).finish(),
        false,
    );
    pass.report_json = Some(json);
    let last = configs.len() - 1;
    pass.fidelity = Some(Fidelity {
        speedup: geomean(&speedups[last]),
        energy: geomean(&energies[last]),
        hit_pct: 100.0 * mean(&hit_rates),
    });
    pass.profile = tel.take_profile();
    pass
}

/// The fault matrix over `benches`, exactly as the `fault_sweep` bin
/// runs it (same matrix, orchestrator defaults, and table).
pub fn fault_sweep(
    ctx: &Ctx,
    seed: u64,
    benches: &[String],
    tr: &mut Tracer,
    profiled: bool,
) -> Pass {
    let scale = ctx.scale;
    let mut pass = Pass::default();
    let started = Instant::now();
    tr.enter("ledger.pass", "");
    let (matrix, metas) = tr.time("bench.report", "", || sweep::matrix(seed, benches));
    let orchestrator = Orchestrator::new(scale).jobs(ctx.jobs).profile(profiled);
    let (outcomes, cache) = tr.time("orchestrator.run", "", || orchestrator.run_inner(&matrix));
    let json = tr.time("bench.report", "", || {
        sweep::table(scale, seed, &metas, &outcomes).render(ReportMode::Json)
    });
    tr.exit();
    pass.wall_s = started.elapsed().as_secs_f64();

    let mut baselines_seen: Vec<&str> = Vec::new();
    for (outcome, meta) in outcomes.iter().zip(&metas) {
        let id = format!("{}:{}", outcome.spec.benchmark, outcome.spec.label);
        pass.count("orchestrator.jobs", 1);
        pass.count("orchestrator.retries", u64::from(outcome.attempts - 1));
        pass.count(
            "orchestrator.faults_cleared",
            u64::from(outcome.faults_cleared),
        );
        match &outcome.result {
            Ok(r) => {
                if !baselines_seen.contains(&outcome.spec.benchmark.as_str()) {
                    baselines_seen.push(&outcome.spec.benchmark);
                    pass.add_leg(&r.baseline_stats);
                }
                pass.add_leg(&r.memo_stats);
                pass.count("runner.memo_legs", 1);
                pass.profiled_cycles += r.memo_stats.cycles;
                let mut h = Fnv::default();
                h.u64(u64::from(outcome.attempts))
                    .u64(u64::from(outcome.faults_cleared))
                    .u64(outcome.sim_cycles);
                result_digest(&mut h, r);
                pass.cell(id, h.finish(), meta.ppm != 0);
            }
            Err(f) => pass.fail(id, &f.to_string()),
        }
    }
    if let Some(cache) = &cache {
        pass.add_cache(cache);
    }
    pass.orch = Some(OrchTiming {
        job_ms: outcomes.iter().map(|o| o.wall_ms as f64).collect(),
        workers: ctx.jobs,
    });
    pass.cell(
        "table".to_string(),
        Fnv::default().str(&json).finish(),
        true,
    );
    pass.report_json = Some(json);
    pass.profile = merge_profiles(&outcomes);
    pass
}

/// Run one lowered baseline program on a fresh baseline core, with the
/// profiler bracketed the way the runner brackets a memoized leg.
fn run_base(
    name: &str,
    program: &ThreadedProgram,
    machine: &mut Machine,
    mut tel: Telemetry,
) -> (Result<RunStats, SimError>, Telemetry) {
    let mut sim = Simulator::new(SimConfig::baseline())
        .expect("the baseline config has no memo unit to reject");
    tel.profiler_mut().set_label(name);
    tel.profiler_mut().enter(PhaseId::Run);
    sim.set_telemetry(tel);
    sim.reset();
    let run = sim.run_prepared_threaded(program, machine);
    let mut tel = sim.take_telemetry();
    match &run {
        Ok(stats) => tel.profiler_mut().exit_cycles(stats.cycles),
        Err(_) => {
            tel.close_open_spans();
        }
    }
    (run, tel)
}

/// The ten baseline programs, lowered in set-up, on fresh inputs. Input
/// generation and output checks stay outside the timed region.
fn sim_base(ctx: &Ctx, tr: &mut Tracer, profiled: bool) -> Pass {
    let mut pass = Pass::default();
    let mut machines: Vec<Machine> = ctx
        .base_programs
        .iter()
        .map(|(b, _)| b.setup(ctx.scale, Dataset::Eval))
        .collect();
    let mut tel = telemetry(profiled);
    let mut runs = Vec::with_capacity(machines.len());
    let started = Instant::now();
    tr.enter("ledger.pass", "");
    for ((b, program), machine) in ctx.base_programs.iter().zip(&mut machines) {
        let name = b.meta().name;
        let t = std::mem::take(&mut tel);
        let (run, t) = tr.time("sim.base", name, || run_base(name, program, machine, t));
        tel = t;
        runs.push(run);
    }
    tr.exit();
    pass.wall_s = started.elapsed().as_secs_f64();

    for (((b, _), machine), run) in ctx.base_programs.iter().zip(&machines).zip(runs) {
        let name = b.meta().name.to_string();
        match run {
            Ok(stats) => {
                pass.add_base_leg(&stats);
                pass.profiled_cycles += stats.cycles;
                let mut h = Fnv::default();
                stats_digest(&mut h, &stats);
                for x in b.outputs(machine, ctx.scale) {
                    h.f64(x);
                }
                pass.cell(name, h.finish(), false);
            }
            Err(e) => pass.fail(name, &e.to_string()),
        }
    }
    pass.profile = tel.take_profile();
    pass
}

fn snapshot_path(dir: &Path, bench: &str, generation: usize) -> PathBuf {
    dir.join(format!("{bench}.gen{generation}.axmsnap"))
}

/// Cold→warm generations on an 8 KB L1 LUT, as the `warm_start` bin
/// runs them: generation 0 only writes its snapshot, generation `k`
/// restores generation `k-1`'s file.
fn warm_start(ctx: &Ctx, tr: &mut Tracer, profiled: bool) -> Pass {
    let scale = ctx.scale;
    let mut pass = Pass::default();
    let memo = MemoConfig::l1_only(8 * 1024);
    let mut tel = telemetry(profiled);
    let mut written = Vec::new();
    let started = Instant::now();
    tr.enter("ledger.pass", "");
    let cache = BaselineCache::new();
    for bench in all_benchmarks() {
        let b = bench.as_ref();
        let name = b.meta().name;
        tr.time("compiler.prepare", name, || cache.prepared(b, scale));
        // Warm cells key their own baseline slot, as in the bin.
        for warm in [false, true] {
            match tr.time("sim.base", name, || {
                cache.get_or_compute_keyed(
                    b,
                    scale,
                    Dataset::Eval,
                    u64::MAX,
                    DispatchTier::default(),
                    warm,
                )
            }) {
                Ok(base) => pass.add_base_leg(&base.stats),
                Err(e) => pass.fail(format!("{name}/base"), &e.to_string()),
            }
        }
        for generation in 0..GENERATIONS {
            let plan = SnapshotPlan {
                restore_from: (generation > 0)
                    .then(|| snapshot_path(&ctx.state_dir, name, generation - 1)),
                snapshot_out: Some(snapshot_path(&ctx.state_dir, name, generation)),
                restore_policy: Default::default(),
            };
            let cell = format!("{name}/gen{generation}");
            let t = std::mem::take(&mut tel);
            let run = tr.time("runner.memo_leg", &cell, || {
                run_benchmark_report_snap(
                    b,
                    scale,
                    Dataset::Eval,
                    &memo,
                    RunOptions::default(),
                    t,
                    Some(&cache),
                    &plan,
                )
            });
            match run {
                Ok(mut report) => {
                    tel = std::mem::take(&mut report.telemetry);
                    pass.add_memo_report(&report);
                    let mut h = report_digest(&report);
                    if let Some(rec) = &report.recovery {
                        pass.count("snapshot.entries_restored", rec.entries_restored());
                        pass.count("snapshot.entries_discarded", rec.entries_discarded());
                        h.u64(u64::from(rec.outcome == RecoveryOutcome::Restored))
                            .u64(rec.entries_restored())
                            .u64(rec.entries_discarded())
                            .u64(u64::from(rec.torn_tail));
                    }
                    written.push((pass.cells.len(), plan.snapshot_out.clone()));
                    pass.cell(cell, h.finish(), false);
                }
                Err(e) => {
                    tel = telemetry(profiled);
                    pass.fail(cell, &e.to_string());
                }
            }
        }
    }
    tr.exit();
    pass.wall_s = started.elapsed().as_secs_f64();

    pass.add_cache(&cache);
    // The snapshot files are deterministic too: fold their bytes into
    // the cell that wrote them.
    for (index, path) in written {
        let Some(path) = path else { continue };
        match std::fs::read(&path) {
            Ok(bytes) => {
                pass.count("snapshot.bytes", bytes.len() as u64);
                let cell = &mut pass.cells[index];
                cell.digest = Fnv::default().u64(cell.digest).bytes(&bytes).finish();
            }
            Err(e) => {
                eprintln!("bench_ledger: read {}: {e}", path.display());
                pass.cells[index].errored = true;
            }
        }
    }
    pass.profile = tel.take_profile();
    pass
}
