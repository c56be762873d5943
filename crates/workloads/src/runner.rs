//! One-stop harness: run a benchmark baseline and memoized under a
//! given LUT configuration and report the paper's metrics (speedup,
//! energy reduction, dynamic-instruction ratio, hit rate, output error).

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::meta::Metric;
use crate::{Benchmark, Dataset, Scale};
use axmemo_compiler::codegen::memoize;
use axmemo_core::config::MemoConfig;
use axmemo_core::faults::FaultConfig;
use axmemo_core::lut::LutStats;
use axmemo_core::snapshot::{MemoSnapshot, RecoveryOutcome, RecoveryReport};
use axmemo_core::unit::UnitStats;
use axmemo_core::RestorePolicy;
use axmemo_sim::cpu::{DispatchTier, SimConfig, SimError, Simulator};
use axmemo_sim::decoded::DecodedProgram;
use axmemo_sim::energy::EnergyModel;
use axmemo_sim::pipeline::LatencyModel;
use axmemo_sim::stats::RunStats;
use axmemo_sim::threaded::ThreadedProgram;
use axmemo_sim::Program;
use axmemo_telemetry::{escape_json, PhaseId, Telemetry};

/// Per-element relative errors (for the Fig. 10b CDF) plus aggregates.
#[derive(Debug, Clone, Default)]
pub struct ErrorReport {
    /// Equation 2 whole-output error (or misclassification rate).
    pub output_error: f64,
    /// Element-wise relative errors, for CDF plotting.
    pub elementwise: Vec<f64>,
    /// Output elements where the exact or approximate value was NaN or
    /// infinite. Such pairs are clamped to [`NON_FINITE_ERROR`] (unless
    /// bit-identical) so aggregates stay finite instead of silently
    /// poisoning every downstream mean with NaN.
    pub non_finite: u64,
}

/// Everything the figures need for one (benchmark, config) cell.
#[derive(Debug, Clone)]
pub struct BenchmarkResult {
    /// Benchmark name.
    pub name: String,
    /// LUT configuration label.
    pub config: String,
    /// Baseline cycles / memoized cycles (Fig. 7a).
    pub speedup: f64,
    /// Baseline energy / memoized energy (Fig. 7b).
    pub energy_reduction: f64,
    /// Memoized dynamic instructions / baseline (Fig. 8, total bar).
    pub dyn_inst_ratio: f64,
    /// Fraction of the memoized run's instructions that are memoization
    /// overhead (Fig. 8, black segment).
    pub memo_inst_fraction: f64,
    /// Total LUT hit rate across levels (Fig. 9).
    pub hit_rate: f64,
    /// Output quality loss (Fig. 10a).
    pub error: ErrorReport,
    /// Raw stats for deeper analysis.
    pub baseline_stats: RunStats,
    /// Raw stats of the memoized run.
    pub memo_stats: RunStats,
}

/// [`BenchmarkResult`] plus the observability surface of the memoized
/// run: memoization-unit counters, per-level LUT statistics, and the
/// telemetry handle (metrics registry, completed spans, event sinks)
/// that was threaded through the simulator.
#[derive(Debug)]
pub struct RunReport {
    /// The paper metrics (what the figures consume).
    pub result: BenchmarkResult,
    /// Memoization-unit counters of the memoized run.
    pub unit_stats: UnitStats,
    /// L1 LUT statistics of the memoized run.
    pub l1_lut: LutStats,
    /// L2 LUT statistics (all zero for single-level configurations).
    pub l2_lut: LutStats,
    /// The telemetry handle after the run. Disabled (and empty) when
    /// the caller passed a disabled handle.
    pub telemetry: Telemetry,
    /// Recovery account when the run warm-started from a snapshot
    /// (`None` for ordinary cold runs — the default-off path is
    /// byte-identical, including in [`Self::to_json`]).
    pub recovery: Option<RecoveryReport>,
}

impl RunReport {
    /// One machine-readable JSON object with the paper metrics, the
    /// LUT-level statistics, and the telemetry metrics registry.
    pub fn to_json(&self) -> String {
        let r = &self.result;
        let mut s = String::with_capacity(512);
        s.push('{');
        s.push_str("\"name\":\"");
        escape_json(&r.name, &mut s);
        s.push_str("\",\"config\":\"");
        escape_json(&r.config, &mut s);
        s.push_str("\",");
        s.push_str(&format!("\"speedup\":{},", r.speedup));
        s.push_str(&format!("\"energy_reduction\":{},", r.energy_reduction));
        s.push_str(&format!("\"dyn_inst_ratio\":{},", r.dyn_inst_ratio));
        s.push_str(&format!("\"memo_inst_fraction\":{},", r.memo_inst_fraction));
        s.push_str(&format!("\"hit_rate\":{},", r.hit_rate));
        s.push_str(&format!("\"output_error\":{},", r.error.output_error));
        s.push_str(&format!(
            "\"baseline\":{{\"cycles\":{},\"insts\":{}}},",
            r.baseline_stats.cycles, r.baseline_stats.dynamic_insts
        ));
        s.push_str(&format!(
            "\"memoized\":{{\"cycles\":{},\"insts\":{},\"memo_insts\":{}}},",
            r.memo_stats.cycles, r.memo_stats.dynamic_insts, r.memo_stats.memo_insts
        ));
        let u = &self.unit_stats;
        s.push_str(&format!(
            "\"unit\":{{\"lookups\":{},\"reported_hits\":{},\"l1_hits\":{},\"l2_hits\":{},\"sampled_misses\":{},\"updates\":{},\"invalidates\":{}}},",
            u.lookups, u.reported_hits, u.l1_hits, u.l2_hits, u.sampled_misses, u.updates, u.invalidates
        ));
        for (label, l) in [("l1_lut", &self.l1_lut), ("l2_lut", &self.l2_lut)] {
            s.push_str(&format!(
                "\"{label}\":{{\"hits\":{},\"misses\":{},\"inserts\":{},\"evictions\":{}}},",
                l.hits, l.misses, l.inserts, l.evictions
            ));
        }
        if let Some(rec) = &self.recovery {
            s.push_str(&format!(
                "\"recovery\":{{\"outcome\":\"{}\",\"entries_restored\":{},\"entries_discarded\":{},\"torn_tail\":{}}},",
                match rec.outcome {
                    RecoveryOutcome::Restored => "restored",
                    RecoveryOutcome::ColdStart => "cold_start",
                },
                rec.entries_restored(),
                rec.entries_discarded(),
                rec.torn_tail
            ));
        }
        s.push_str(&format!(
            "\"metrics\":{}",
            self.telemetry.registry().to_json()
        ));
        s.push('}');
        s
    }
}

/// Per-run switches orthogonal to the LUT configuration.
///
/// `Default` matches [`run_benchmark`]: truncation as specified by the
/// benchmark, threaded superblock interpreter on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunOptions {
    /// Disable input truncation (exact memoization) for the Fig. 11
    /// approximation-effectiveness comparison.
    pub zero_trunc: bool,
    /// Execution tier for both legs (default
    /// [`DispatchTier::Threaded`]). The slower tiers produce
    /// bit-identical results (pinned by the decode-equivalence tests),
    /// so they exist as escape hatches and as the reference sides of
    /// golden diffs.
    pub dispatch: DispatchTier,
}

/// Persistence plan for one run: where to restore warm LUT state from
/// before executing and where to write the end-of-run snapshot.
///
/// Kept separate from [`RunOptions`] (which stays `Copy` and keys the
/// baseline/program caches) because paths are per-cell, not per-sweep.
/// The empty plan is the default and reproduces a plain run
/// byte-for-byte — persistence is an escape hatch with the same
/// default-off discipline as `--dispatch legacy`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SnapshotPlan {
    /// Snapshot file to warm-start from, if any. The file is recovered
    /// with the total [`MemoSnapshot::recover`] path: a corrupt or torn
    /// file degrades to a reported cold start, never an error — only
    /// I/O failures (missing file, permissions) abort the run.
    pub restore_from: Option<PathBuf>,
    /// Path to atomically write the end-of-run warm image to, if any.
    pub snapshot_out: Option<PathBuf>,
    /// Order/admission policy for the restore. The default
    /// (`OldestFirst`) reproduces pre-policy restores byte-for-byte;
    /// `MruFirst` bounds restore pollution for scan-dominated
    /// workloads (sobel/jmeint — see EXPERIMENTS.md). Inert without
    /// `restore_from`.
    pub restore_policy: RestorePolicy,
}

impl SnapshotPlan {
    /// `true` when the plan does nothing (the byte-identical default).
    /// The policy alone never makes a plan non-empty: it only shapes a
    /// restore that `restore_from` requests.
    pub fn is_empty(&self) -> bool {
        self.restore_from.is_none() && self.snapshot_out.is_none()
    }

    /// `true` when the run warm-starts from a snapshot — the property
    /// that must reach the [`BaselineCache`] keys so warm cells never
    /// share compiled programs or baselines with cold ones.
    pub fn warm(&self) -> bool {
        self.restore_from.is_some()
    }
}

/// A benchmark's programs compiled once and shared across every run
/// that uses default truncation: the baseline and memoized [`Program`]s
/// plus their threaded-superblock forms (lowered against
/// [`LatencyModel::default`], the latency every runner-constructed
/// [`SimConfig`] uses).
///
/// Zero-truncation runs rebuild their specs (different codegen output),
/// so they never consume a `PreparedProgram`.
#[derive(Debug)]
pub struct PreparedProgram {
    /// The baseline program.
    pub program: Program,
    /// The memoized program (default truncation).
    pub memo_program: Program,
    /// Threaded-superblock baseline program.
    pub threaded_base: ThreadedProgram,
    /// Threaded-superblock memoized program.
    pub threaded_memo: ThreadedProgram,
}

impl PreparedProgram {
    /// Build and superblock-lower both legs of `bench` at
    /// `scale`.
    ///
    /// # Errors
    ///
    /// Propagates codegen failures as a boxed error.
    pub fn compile(
        bench: &dyn Benchmark,
        scale: Scale,
    ) -> Result<Self, Box<dyn std::error::Error>> {
        let (program, specs) = bench.program(scale);
        let memo_program = memoize(&program, &specs)?;
        let latency = LatencyModel::default();
        let threaded_base = ThreadedProgram::compile(&DecodedProgram::compile(&program, &latency));
        let threaded_memo =
            ThreadedProgram::compile(&DecodedProgram::compile(&memo_program, &latency));
        Ok(Self {
            program,
            memo_program,
            threaded_base,
            threaded_memo,
        })
    }
}

/// Run `bench` on `scale`/`dataset`, baseline vs. memoized with `memo`
/// LUT configuration (data width is overridden by the benchmark's
/// requirement).
///
/// # Errors
///
/// Propagates simulator faults and codegen failures as a boxed error.
pub fn run_benchmark(
    bench: &dyn Benchmark,
    scale: Scale,
    dataset: Dataset,
    memo: &MemoConfig,
) -> Result<BenchmarkResult, Box<dyn std::error::Error>> {
    run_benchmark_report_cached(
        bench,
        scale,
        dataset,
        memo,
        RunOptions::default(),
        Telemetry::off(),
        None,
    )
    .map(|report| report.result)
}

/// [`run_benchmark`] with [`RunOptions`] switches and a telemetry handle
/// threaded through the memoized run, which executes under a
/// `run:<name>` span; the handle comes back inside the [`RunReport`].
/// The baseline and compiled programs come from `cache`, so a caller
/// that runs one benchmark under several configurations simulates its
/// deterministic baseline once. `None` uses a call-local cache.
/// `cache` stays an `Option` because `ledger/` (the benchmark) calls
/// this shape.
///
/// # Errors
///
/// Propagates simulator faults and codegen failures as a boxed error,
/// including a cached [`BaselineFailure`] when the shared baseline run
/// itself failed.
pub fn run_benchmark_report_cached(
    bench: &dyn Benchmark,
    scale: Scale,
    dataset: Dataset,
    memo: &MemoConfig,
    opts: RunOptions,
    tel: Telemetry,
    cache: Option<&BaselineCache>,
) -> Result<RunReport, Box<dyn std::error::Error>> {
    let plan = SnapshotPlan::default();
    run_benchmark_report_snap(bench, scale, dataset, memo, opts, tel, cache, &plan)
}

/// Like [`run_benchmark_report_cached`], with a [`SnapshotPlan`]: the
/// memoization unit is warm-started from `plan.restore_from` (if set)
/// before the run and its end-of-run warm image is written atomically
/// to `plan.snapshot_out` (if set). An empty plan reproduces
/// [`run_benchmark_report_cached`] byte-for-byte. `cache` stays an
/// `Option` (`None` = a call-local cache) because `ledger/` (the
/// benchmark) calls this shape.
///
/// Warm-started runs use restore-keyed [`BaselineCache`] slots
/// (`warm = true`), so their baselines and compiled programs never mix
/// with cold cells sharing the same cache.
///
/// # Errors
///
/// Propagates simulator faults, codegen failures, cached
/// [`BaselineFailure`]s, and snapshot *I/O* failures
/// ([`axmemo_core::snapshot::SnapshotError`], which names the offending
/// path) as a boxed error. A corrupt or torn snapshot file is **not**
/// an error: recovery degrades to a cold start recorded in
/// [`RunReport::recovery`].
#[allow(clippy::too_many_arguments)]
pub fn run_benchmark_report_snap(
    bench: &dyn Benchmark,
    scale: Scale,
    dataset: Dataset,
    memo: &MemoConfig,
    opts: RunOptions,
    mut tel: Telemetry,
    cache: Option<&BaselineCache>,
    plan: &SnapshotPlan,
) -> Result<RunReport, Box<dyn std::error::Error>> {
    let local;
    let cache = match cache {
        Some(cache) => cache,
        None => {
            local = BaselineCache::new();
            &local
        }
    };
    let warm = plan.warm();
    let prepared = cache.prepared_for(bench, scale, opts, warm);
    let baseline =
        cache.get_or_compute_keyed(bench, scale, dataset, u64::MAX, opts.dispatch, warm)?;
    let mut report = run_benchmark_inner(
        bench,
        scale,
        dataset,
        memo,
        opts,
        &mut tel,
        u64::MAX,
        &baseline,
        prepared.as_deref(),
        plan,
    )?;
    report.telemetry = tel;
    Ok(report)
}

/// The fault-free reference leg of a benchmark run: the baseline
/// [`RunStats`] every speedup/energy/instruction ratio is normalised
/// against, plus the exact output vector quality metrics compare to.
///
/// Depends only on `(benchmark, scale, dataset)` — the memoization
/// configuration (LUT geometry, faults, truncation) never touches the
/// baseline core — which is what makes it shareable across every cell
/// of a sweep via [`BaselineCache`].
#[derive(Debug, Clone)]
pub struct BaselineRun {
    /// Statistics of the non-memoized baseline run.
    pub stats: RunStats,
    /// Exact outputs read back from the finished baseline machine.
    pub exact: Vec<f64>,
}

/// Simulate the baseline leg of `bench` (no memoization) under a cycle
/// watchdog. When `prepared` carries the shared lowered forms, the
/// threaded tier runs them directly; otherwise the program is built
/// here and `dispatch` decides which interpreter [`Simulator::run`]
/// dispatches to internally.
fn baseline_leg(
    bench: &dyn Benchmark,
    scale: Scale,
    dataset: Dataset,
    max_cycles: u64,
    dispatch: DispatchTier,
    prepared: Option<&PreparedProgram>,
) -> Result<BaselineRun, Box<dyn std::error::Error>> {
    let built;
    let program = match prepared {
        Some(p) => &p.program,
        None => {
            built = bench.program(scale).0;
            &built
        }
    };
    let mut base_sim = Simulator::new(SimConfig {
        max_cycles,
        dispatch,
        ..SimConfig::baseline()
    })?;
    let mut base_machine = bench.setup(scale, dataset);
    base_sim.reset();
    let stats = match (prepared, dispatch) {
        (Some(p), DispatchTier::Threaded) => {
            base_sim.run_prepared_threaded(&p.threaded_base, &mut base_machine)?
        }
        _ => base_sim.run(program, &mut base_machine)?,
    };
    let exact = bench.outputs(&base_machine, scale);
    Ok(BaselineRun { stats, exact })
}

/// Why a shared baseline run failed, in a cloneable form every cell
/// waiting on the same cache slot can receive.
#[derive(Debug, Clone)]
pub struct BaselineFailure {
    /// Failure class (watchdog trip, panic, or ordinary error) —
    /// classified exactly as a memoized-leg failure is.
    pub kind: FailureKind,
    /// Human-readable message (panic payload or error display).
    pub message: String,
}

impl std::fmt::Display for BaselineFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "baseline run failed ({:?}): {}", self.kind, self.message)
    }
}

impl std::error::Error for BaselineFailure {}

/// Classify a boxed run error into a [`FailureKind`].
fn classify_error(e: &(dyn std::error::Error + 'static)) -> FailureKind {
    match e.downcast_ref::<SimError>() {
        Some(SimError::CycleLimit { .. }) => FailureKind::Watchdog,
        _ => FailureKind::Error,
    }
}

type BaselineSlot = Arc<OnceLock<Result<Arc<BaselineRun>, BaselineFailure>>>;
type PreparedSlot = Arc<OnceLock<Option<Arc<PreparedProgram>>>>;
/// Baseline slot key: `(benchmark, scale, dataset, dispatch, warm)`.
type BaselineKey = (String, Scale, Dataset, DispatchTier, bool);

/// Thread-safe once-per-key map of shared baseline runs, keyed by
/// `(benchmark, scale, dataset, dispatch)`: the only place any run gets
/// its baseline and compiled programs from. Callers without a
/// sweep-wide cache use a call-local one.
///
/// A sweep's fault matrix runs every benchmark under many (domain ×
/// protection × rate) cells, but the fault-free baseline those cells
/// normalise against is identical for all of them — the memoization
/// configuration never reaches the baseline core. This cache computes
/// each baseline exactly once per sweep (the first cell to ask performs
/// the simulation; concurrent askers block on the same [`OnceLock`] and
/// then share the [`Arc`]) and counts computations vs. reuses so
/// orchestrators can export `orchestrator.baseline.{computed,reused}`
/// telemetry.
///
/// Baseline *failures* (watchdog trip, panic, simulator error) are
/// cached too: the simulation is deterministic, so re-running it for
/// every sibling cell would fail identically 19 more times.
/// In addition to baseline runs, the cache shares *compiled programs*:
/// building, memoizing, predecoding and superblock-lowering a benchmark
/// is deterministic and identical for every cell with default
/// truncation, so the cache holds one [`PreparedProgram`] per
/// `(benchmark, scale)` and every threaded run executes it via
/// [`Simulator::run_prepared_threaded`] instead of recompiling per
/// attempt.
///
/// Both maps carry a `warm` flag in their keys: a cell warm-started
/// from a snapshot ([`SnapshotPlan::warm`]) keys separate slots, so a
/// restore can never poison the shared baselines or compiled programs
/// that cold cells normalise against (today the baseline core never
/// sees the restored LUT, but the key keeps that an invariant of the
/// cache rather than a property callers must re-verify).
#[derive(Debug, Default)]
pub struct BaselineCache {
    slots: Mutex<HashMap<BaselineKey, BaselineSlot>>,
    programs: Mutex<HashMap<(String, Scale, bool), PreparedSlot>>,
    computed: AtomicU64,
    reused: AtomicU64,
    programs_compiled: AtomicU64,
    programs_reused: AtomicU64,
}

impl BaselineCache {
    /// Empty cache.
    /// Kept in this shape because `ledger/` (the benchmark) calls it.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared baseline for `(bench, scale, dataset, dispatch)`,
    /// simulating it under `max_cycles` on first request and serving the
    /// cached run (or cached failure) afterwards. Panics inside the
    /// baseline run are caught and cached as [`FailureKind::Panic`]
    /// failures. The execution tier is part of the key so a
    /// `--dispatch legacy` run genuinely exercises the legacy loop
    /// instead of reusing a fast-path baseline (they are bit-identical,
    /// but the golden diffs exist to prove exactly that).
    /// Kept in this shape because `ledger/` (the benchmark) calls it.
    ///
    /// # Errors
    ///
    /// Returns the (possibly cached) [`BaselineFailure`] when the
    /// baseline simulation failed.
    pub fn get_or_compute(
        &self,
        bench: &dyn Benchmark,
        scale: Scale,
        dataset: Dataset,
        max_cycles: u64,
        dispatch: DispatchTier,
    ) -> Result<Arc<BaselineRun>, BaselineFailure> {
        self.get_or_compute_keyed(bench, scale, dataset, max_cycles, dispatch, false)
    }

    /// [`Self::get_or_compute`] with the warm-start flag in the key:
    /// cells restoring from a snapshot get their own slots (see the
    /// type-level docs).
    /// Kept in this shape because `ledger/` (the benchmark) calls it.
    ///
    /// # Errors
    ///
    /// Returns the (possibly cached) [`BaselineFailure`] when the
    /// baseline simulation failed.
    pub fn get_or_compute_keyed(
        &self,
        bench: &dyn Benchmark,
        scale: Scale,
        dataset: Dataset,
        max_cycles: u64,
        dispatch: DispatchTier,
        warm: bool,
    ) -> Result<Arc<BaselineRun>, BaselineFailure> {
        let key = (
            bench.meta().name.to_string(),
            scale,
            dataset,
            dispatch,
            warm,
        );
        let slot = {
            let mut slots = self.slots.lock().expect("baseline cache poisoned");
            Arc::clone(slots.entry(key).or_default())
        };
        let mut fresh = false;
        let result = slot.get_or_init(|| {
            fresh = true;
            // Fast-path baselines reuse the shared compiled program
            // when available; a `None` (codegen failed) builds the
            // program here so the error is reproduced and classified.
            let prepared = if dispatch != DispatchTier::Legacy {
                self.prepared_keyed(bench, scale, warm)
            } else {
                None
            };
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                baseline_leg(
                    bench,
                    scale,
                    dataset,
                    max_cycles,
                    dispatch,
                    prepared.as_deref(),
                )
            }));
            match outcome {
                Ok(Ok(baseline)) => Ok(Arc::new(baseline)),
                Ok(Err(e)) => Err(BaselineFailure {
                    kind: classify_error(e.as_ref()),
                    message: e.to_string(),
                }),
                Err(payload) => Err(BaselineFailure {
                    kind: FailureKind::Panic,
                    message: panic_message(payload.as_ref()),
                }),
            }
        });
        if fresh {
            self.computed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.reused.fetch_add(1, Ordering::Relaxed);
        }
        result.clone()
    }

    /// The shared compiled-and-lowered programs for `(bench, scale)`,
    /// built once per key. Returns `None` when compilation failed (by
    /// error or panic); callers then compile the program themselves,
    /// which reproduces the failure with full context.
    /// Kept in this shape because `ledger/` (the benchmark) calls it.
    pub fn prepared(&self, bench: &dyn Benchmark, scale: Scale) -> Option<Arc<PreparedProgram>> {
        self.prepared_keyed(bench, scale, false)
    }

    /// [`Self::prepared`] with the warm-start flag in the key.
    fn prepared_keyed(
        &self,
        bench: &dyn Benchmark,
        scale: Scale,
        warm: bool,
    ) -> Option<Arc<PreparedProgram>> {
        let key = (bench.meta().name.to_string(), scale, warm);
        let slot = {
            let mut programs = self.programs.lock().expect("program cache poisoned");
            Arc::clone(programs.entry(key).or_default())
        };
        let mut fresh = false;
        let result = slot.get_or_init(|| {
            fresh = true;
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                PreparedProgram::compile(bench, scale)
            }))
            .ok()
            .and_then(Result::ok)
            .map(Arc::new)
        });
        if fresh {
            self.programs_compiled.fetch_add(1, Ordering::Relaxed);
        } else {
            self.programs_reused.fetch_add(1, Ordering::Relaxed);
        }
        result.clone()
    }

    /// [`Self::prepared_keyed`] gated on the options that make it
    /// usable: a prepared program is compiled with default truncation
    /// for the fast-path interpreter, so zero-truncation or legacy runs
    /// get `None` and compile inline.
    fn prepared_for(
        &self,
        bench: &dyn Benchmark,
        scale: Scale,
        opts: RunOptions,
        warm: bool,
    ) -> Option<Arc<PreparedProgram>> {
        if opts.dispatch != DispatchTier::Legacy && !opts.zero_trunc {
            self.prepared_keyed(bench, scale, warm)
        } else {
            None
        }
    }

    /// Prepared-program compilations actually performed (one per
    /// distinct `(benchmark, scale)`).
    /// Kept in this shape because `ledger/` (the benchmark) calls it.
    pub fn programs_compiled(&self) -> u64 {
        self.programs_compiled.load(Ordering::Relaxed)
    }

    /// Prepared-program requests served from an existing slot.
    /// Kept in this shape because `ledger/` (the benchmark) calls it.
    pub fn programs_reused(&self) -> u64 {
        self.programs_reused.load(Ordering::Relaxed)
    }

    /// Baseline simulations actually performed (one per distinct key).
    /// Kept in this shape because `ledger/` (the benchmark) calls it.
    pub fn computed(&self) -> u64 {
        self.computed.load(Ordering::Relaxed)
    }

    /// Requests served from an already-computed (or in-flight) slot.
    /// Kept in this shape because `ledger/` (the benchmark) calls it.
    pub fn reused(&self) -> u64 {
        self.reused.load(Ordering::Relaxed)
    }
}

/// One memoized run against an already computed `baseline`: only the
/// memoized leg is simulated, under `max_cycles`. `prepared` optionally
/// supplies the shared compiled-and-lowered programs; it is only
/// consumed when the options allow (non-legacy tier, default
/// truncation), otherwise the memoized program is built here.
///
/// The telemetry handle is borrowed so it *survives* the error path:
/// the sim-side spans and phase frames a failed run leaves open are
/// drained via [`Telemetry::close_open_spans`] before returning, and
/// the caller (sweep jobs and their faults-off attempt) keeps its
/// registry, sinks, and profiler across attempts. The returned
/// [`RunReport`] carries a disabled placeholder handle; the by-value
/// wrappers move the real one back in.
///
/// `plan` adds snapshot persistence: restore the warm image before the
/// memoized run, arm the end-of-run capture, and write the image
/// atomically after the metrics are collected. The empty plan leaves
/// the run byte-identical to the plain path.
#[allow(clippy::too_many_arguments)]
fn run_benchmark_inner(
    bench: &dyn Benchmark,
    scale: Scale,
    dataset: Dataset,
    memo: &MemoConfig,
    opts: RunOptions,
    tel: &mut Telemetry,
    max_cycles: u64,
    baseline: &BaselineRun,
    prepared: Option<&PreparedProgram>,
    plan: &SnapshotPlan,
) -> Result<RunReport, Box<dyn std::error::Error>> {
    let prepared = prepared.filter(|_| opts.dispatch != DispatchTier::Legacy && !opts.zero_trunc);
    // Load and recover the warm image first, while the telemetry handle
    // is still in hand (it moves into the simulator below): recovery
    // decisions land in the same registry/sinks as the run itself.
    // Only I/O failures abort; corrupt bytes degrade to a reported cold
    // start.
    let plan = Some(plan).filter(|p| !p.is_empty());
    let mut recovery: Option<RecoveryReport> = None;
    let mut warm_image: Option<MemoSnapshot> = None;
    if let Some(path) = plan.and_then(|p| p.restore_from.as_deref()) {
        let (snap, report) = MemoSnapshot::load_tel(path, tel)?;
        warm_image = snap;
        recovery = Some(report);
    }
    let built;
    let memo_program: &Program = match prepared {
        Some(p) => &p.memo_program,
        None => {
            let (program, mut specs) = bench.program(scale);
            if opts.zero_trunc {
                for spec in &mut specs {
                    for il in &mut spec.input_loads {
                        il.trunc = 0;
                    }
                    for ri in &mut spec.reg_inputs {
                        ri.trunc = 0;
                    }
                }
            }
            built = memoize(&program, &specs)?;
            &built
        }
    };
    let memo_cfg = MemoConfig {
        data_width: bench.data_width(),
        ..memo.clone()
    };

    let base_stats = &baseline.stats;
    let exact = &baseline.exact;

    // Memoized run, under a `run:<name>` span with the telemetry
    // handle installed in the simulator (it reaches the memoization
    // unit and the LUT hierarchy from there).
    let mut memo_sim = Simulator::new(SimConfig {
        max_cycles,
        dispatch: opts.dispatch,
        ..SimConfig::with_memo(memo_cfg.clone())
    })?;
    let mut memo_machine = bench.setup(scale, dataset);
    tel.set_cycle(0);
    tel.span_enter(&format!("run:{}", bench.meta().name));
    tel.profiler_mut().set_label(bench.meta().name);
    tel.profiler_mut().enter(PhaseId::Run);
    memo_sim.set_telemetry(std::mem::take(tel));
    memo_sim.reset();
    // Warm-start after reset (reset wipes the unit) and arm the
    // end-of-run capture: compiled programs invalidate every LUT before
    // halting, so the warm image is grabbed at the first invalidate,
    // not after the wipe.
    if let Some(plan) = plan {
        if let Some(unit) = memo_sim.memo_unit_mut() {
            if let Some(image) = &warm_image {
                let summary = unit.restore_warm_with(image, plan.restore_policy);
                if let Some(rec) = recovery.as_mut() {
                    rec.applied = Some(summary);
                }
            }
            if plan.snapshot_out.is_some() {
                unit.arm_warm_capture();
            }
        }
    }
    let memo_stats = match prepared {
        Some(p) => memo_sim.run_prepared_threaded(&p.threaded_memo, &mut memo_machine),
        None => memo_sim.run(memo_program, &mut memo_machine),
    };
    *tel = memo_sim.take_telemetry();
    let memo_stats = match memo_stats {
        Ok(stats) => stats,
        Err(e) => {
            // Watchdog trips and sim errors abandon the run mid-span;
            // drain the open span/phase stacks so the handle stays
            // balanced for the caller's next attempt.
            tel.close_open_spans();
            tel.flush();
            return Err(e.into());
        }
    };
    tel.set_cycle(memo_stats.cycles);
    tel.span_exit();
    tel.profiler_mut().exit_cycles(memo_stats.cycles);
    tel.flush();
    let approx = bench.outputs(&memo_machine, scale);

    // Metrics.
    let energy_model = EnergyModel::for_l1_lut(memo_cfg.l1_bytes);
    let base_energy = energy_model.total_pj(&base_stats.energy);
    let memo_energy = energy_model.total_pj(&memo_stats.energy);
    let hit_rate = memo_sim
        .memo_unit()
        .map(|u| u.lut().total_hit_rate())
        .unwrap_or(0.0);
    let error = compute_error(bench.meta().metric, exact, &approx);

    let result = BenchmarkResult {
        name: bench.meta().name.to_string(),
        config: format!("{memo:?}"),
        speedup: base_stats.cycles as f64 / memo_stats.cycles.max(1) as f64,
        energy_reduction: base_energy / memo_energy.max(f64::MIN_POSITIVE),
        dyn_inst_ratio: memo_stats.dynamic_insts as f64 / base_stats.dynamic_insts.max(1) as f64,
        memo_inst_fraction: memo_stats.memo_fraction(),
        hit_rate,
        error,
        baseline_stats: *base_stats,
        memo_stats,
    };
    let (unit_stats, l1_lut, l2_lut) = match memo_sim.memo_unit() {
        Some(u) => (u.stats(), u.lut().l1_stats(), u.lut().l2_stats()),
        None => Default::default(),
    };
    // Persist the end-of-run warm image last, so a snapshot only ever
    // describes a run that completed (a failed run returns above and
    // leaves any prior snapshot file untouched).
    if let Some(path) = plan.and_then(|p| p.snapshot_out.as_deref()) {
        let image = memo_sim
            .memo_unit_mut()
            .and_then(|u| u.take_warm_image())
            .unwrap_or_default();
        image.write_atomic_tel(path, tel)?;
    }
    Ok(RunReport {
        result,
        unit_stats,
        l1_lut,
        l2_lut,
        telemetry: Telemetry::off(),
        recovery,
    })
}

/// Why a supervised benchmark run failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The run panicked; the panic was caught so sibling benchmarks in a
    /// sweep keep running.
    Panic,
    /// The watchdog cycle budget expired
    /// ([`axmemo_sim::cpu::SimError::CycleLimit`]): the program did not
    /// terminate — or did not terminate fast enough — under this
    /// configuration.
    Watchdog,
    /// The simulator or code generator reported an ordinary error.
    Error,
}

/// Structured failure from [`run_job`].
#[derive(Debug, Clone)]
pub struct RunFailure {
    /// Benchmark that failed.
    pub benchmark: String,
    /// Failure class of the *final* attempt.
    pub kind: FailureKind,
    /// Human-readable message (panic payload or error display).
    pub message: String,
    /// Attempts made: 1, or 2 when the faults-off attempt also ran.
    pub attempts: u32,
}

impl std::fmt::Display for RunFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} failed ({:?}, {} attempt{}): {}",
            self.benchmark,
            self.kind,
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
            self.message
        )
    }
}

impl std::error::Error for RunFailure {}

/// A job's memoized leg may run at most this many times its baseline's
/// cycles before the watchdog trips (see [`memo_watchdog`]).
pub const WATCHDOG_MARGIN: u64 = 8;

/// The memoized-leg watchdog never drops below this many cycles: tiny
/// baselines leave no headroom for fixed memoization overheads
/// otherwise.
pub const WATCHDOG_FLOOR_CYCLES: u64 = 1_000_000;

/// The memoized-leg watchdog of a job whose baseline measured
/// `baseline_cycles`: [`WATCHDOG_MARGIN`] × baseline, at least
/// [`WATCHDOG_FLOOR_CYCLES`], clamped to `ceiling`. A memoized run that
/// is 8× slower than its own baseline is pathological whatever the
/// benchmark's absolute cost, so one margin gives tight watchdogs on
/// kernels whose costs differ by ~30× (jpeg vs. blackscholes).
pub fn memo_watchdog(baseline_cycles: u64, ceiling: u64) -> u64 {
    WATCHDOG_MARGIN
        .saturating_mul(baseline_cycles)
        .max(WATCHDOG_FLOOR_CYCLES)
        .min(ceiling)
}

/// Successful outcome of [`run_job`].
#[derive(Debug, Clone)]
pub struct SupervisedRun {
    /// The paper metrics of the successful attempt.
    pub result: BenchmarkResult,
    /// Attempts made, including the successful one (1 or 2).
    pub attempts: u32,
    /// The successful attempt ran with fault injection cleared (the
    /// attempt with the requested fault configuration failed).
    pub faults_cleared: bool,
}

/// One sweep job: a supervised run of `bench` on the evaluation
/// dataset that never panics and never runs away.
///
/// - The baseline comes from `cache`, simulated once per distinct key
///   under the `max_cycles` ceiling. A cached baseline *failure* fails
///   the job with that failure, without re-simulating.
/// - The memoized leg runs under [`memo_watchdog`] of the measured
///   baseline, clamped to `max_cycles`.
/// - Panics are caught and become [`FailureKind::Panic`] failures.
/// - The job makes one attempt. When that attempt fails under a
///   fault-injecting configuration, one more attempt runs with all
///   fault injection cleared, isolating "the fault model broke it" from
///   "the benchmark is broken". The simulator is deterministic, so any
///   other retry would fail identically.
///
/// `tel` is caller-owned and survives every attempt, panics and
/// watchdog trips included:
///
/// - After a failed attempt the span and phase stacks are drained
///   ([`Telemetry::close_open_spans`]), so a panicking benchmark
///   followed by a healthy one yields a balanced span tree.
/// - If a panic fires while the handle is installed in the simulator,
///   the handle itself is forfeited with the unwound stack; an enabled
///   replacement is restored (accumulated sinks are lost — they
///   unwound with the attempt) and the profiler is re-enabled.
/// - Profile data from a failed attempt is discarded
///   ([`axmemo_telemetry::Profiler::clear`]), so the profile of a
///   successful return describes exactly one successful run.
///
/// # Errors
///
/// Returns a [`RunFailure`] describing the final failed attempt.
pub fn run_job(
    bench: &dyn Benchmark,
    scale: Scale,
    memo: &MemoConfig,
    max_cycles: u64,
    cache: &BaselineCache,
    opts: RunOptions,
    tel: &mut Telemetry,
) -> Result<SupervisedRun, RunFailure> {
    let was_enabled = tel.is_enabled();
    let was_profiling = tel.profiler().is_enabled();
    let dataset = Dataset::Eval;
    let baseline = cache.get_or_compute(bench, scale, dataset, max_cycles, opts.dispatch);
    // Compiled programs are shared across attempts (and across sibling
    // cells through the cache); an attempt only re-simulates.
    let prepared = cache.prepared_for(bench, scale, opts, false);
    let memo_max_cycles = match &baseline {
        Ok(run) => memo_watchdog(run.stats.cycles, max_cycles),
        Err(_) => max_cycles,
    };
    let attempt =
        |cfg: &MemoConfig, tel: &mut Telemetry| -> Result<BenchmarkResult, (FailureKind, String)> {
            let shared = match &baseline {
                Ok(run) => run,
                Err(fail) => return Err((fail.kind, fail.message.clone())),
            };
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_benchmark_inner(
                    bench,
                    scale,
                    dataset,
                    cfg,
                    opts,
                    tel,
                    memo_max_cycles,
                    shared,
                    prepared.as_deref(),
                    &SnapshotPlan::default(),
                )
                .map(|report| report.result)
            }));
            let failure = match outcome {
                Ok(Ok(result)) => return Ok(result),
                Ok(Err(e)) => (classify_error(e.as_ref()), e.to_string()),
                Err(payload) => (FailureKind::Panic, panic_message(payload.as_ref())),
            };
            // Failed-attempt hygiene: drain whatever the abandoned run
            // left open, restore the handle if the panic forfeited it
            // mid-simulation, and drop the attempt's profile data so a
            // later success profiles exactly one run.
            tel.close_open_spans();
            if was_enabled && !tel.is_enabled() {
                *tel = Telemetry::enabled();
            }
            if was_profiling && !tel.profiler().is_enabled() {
                tel.profiler_mut().enable();
            }
            tel.profiler_mut().clear();
            Err(failure)
        };

    let first = match attempt(memo, tel) {
        Ok(result) => {
            return Ok(SupervisedRun {
                result,
                attempts: 1,
                faults_cleared: false,
            })
        }
        Err(failure) => failure,
    };
    let no_faults = FaultConfig::default();
    let (attempts, (kind, message)) = if memo.faults == no_faults {
        (1, first)
    } else {
        let degraded = MemoConfig {
            faults: no_faults,
            ..memo.clone()
        };
        match attempt(&degraded, tel) {
            Ok(result) => {
                return Ok(SupervisedRun {
                    result,
                    attempts: 2,
                    faults_cleared: true,
                })
            }
            Err(second) => (2, second),
        }
    };
    Err(RunFailure {
        benchmark: bench.meta().name.to_string(),
        kind,
        message,
        attempts,
    })
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Relative error recorded for a non-finite output pair (finite, so CDF
/// plots and window means remain well-defined).
pub const NON_FINITE_ERROR: f64 = 1e9;

/// Replace non-finite output pairs with a finite maximal-error pair
/// `(1.0, 1.0 + NON_FINITE_ERROR)` — or a zero-error pair when the two
/// values are bit-identical (the approximation reproduced the NaN/inf
/// exactly). Returns `None` vectors when everything was already finite
/// so the common path allocates nothing.
fn sanitize_outputs(exact: &[f64], approx: &[f64]) -> (Option<Vec<f64>>, Option<Vec<f64>>, u64) {
    let non_finite = exact
        .iter()
        .zip(approx)
        .filter(|(x, xh)| !x.is_finite() || !xh.is_finite())
        .count() as u64;
    if non_finite == 0 {
        return (None, None, 0);
    }
    let mut e = exact.to_vec();
    let mut a = approx.to_vec();
    for (x, xh) in e.iter_mut().zip(a.iter_mut()) {
        if x.is_finite() && xh.is_finite() {
            continue;
        }
        if x.to_bits() == xh.to_bits() {
            *x = 1.0;
            *xh = 1.0;
        } else {
            *x = 1.0;
            *xh = 1.0 + NON_FINITE_ERROR;
        }
    }
    (Some(e), Some(a), non_finite)
}

/// Compute the quality metric between exact and approximate outputs.
/// NaN/infinite elements (possible under fault injection — a corrupted
/// LUT word can decode to any f32 bit pattern) are counted and clamped
/// rather than propagated; see [`ErrorReport::non_finite`].
pub fn compute_error(metric: Metric, exact: &[f64], approx: &[f64]) -> ErrorReport {
    let (exact_s, approx_s, non_finite) = sanitize_outputs(exact, approx);
    let exact = exact_s.as_deref().unwrap_or(exact);
    let approx = approx_s.as_deref().unwrap_or(approx);
    match metric {
        Metric::Numeric | Metric::Image => {
            let output_error = axmemo_compiler::output_error(exact, approx);
            let elementwise = exact
                .iter()
                .zip(approx)
                .map(|(x, xh)| {
                    let d = x.abs().max(1e-9);
                    (xh - x).abs() / d
                })
                .collect();
            ErrorReport {
                output_error,
                elementwise,
                non_finite,
            }
        }
        Metric::Misclassification => {
            let wrong: Vec<f64> = exact
                .iter()
                .zip(approx)
                .map(|(x, xh)| if (x - xh).abs() > 0.5 { 1.0 } else { 0.0 })
                .collect();
            let rate = wrong.iter().sum::<f64>() / wrong.len().max(1) as f64;
            ErrorReport {
                output_error: rate,
                elementwise: wrong,
                non_finite,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axmemo_sim::cpu::Machine;

    #[test]
    fn misclassification_error_path() {
        let e = compute_error(
            Metric::Misclassification,
            &[1.0, 0.0, 1.0],
            &[1.0, 1.0, 1.0],
        );
        assert!((e.output_error - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn numeric_error_path() {
        let e = compute_error(Metric::Numeric, &[3.0, 4.0], &[3.0, 5.0]);
        assert!((e.output_error - 0.04).abs() < 1e-12);
        assert_eq!(e.elementwise.len(), 2);
        assert_eq!(e.non_finite, 0);
    }

    #[test]
    fn non_finite_outputs_are_counted_and_clamped() {
        let e = compute_error(
            Metric::Numeric,
            &[3.0, 4.0, f64::NAN, 5.0],
            &[3.0, f64::NAN, f64::NAN, f64::INFINITY],
        );
        // Three pairs involved a non-finite value...
        assert_eq!(e.non_finite, 3);
        // ...but every aggregate stays finite.
        assert!(e.output_error.is_finite());
        assert!(e.elementwise.iter().all(|v| v.is_finite()));
        // Bit-identical NaNs mean the approximation reproduced the
        // exact output: zero error for that element.
        assert_eq!(e.elementwise[2], 0.0);
        // Mismatched non-finite pairs clamp to the penalty value.
        assert_eq!(e.elementwise[1], NON_FINITE_ERROR);
        assert_eq!(e.elementwise[3], NON_FINITE_ERROR);
        // Misclassification treats clamped pairs as wrong answers.
        let m = compute_error(Metric::Misclassification, &[1.0, f64::NAN], &[1.0, 0.0]);
        assert_eq!(m.non_finite, 1);
        assert!((m.output_error - 0.5).abs() < 1e-12);
    }

    /// A benchmark whose program construction panics (models a bug in
    /// one kernel that must not take down a whole sweep).
    #[derive(Debug)]
    struct PanickyBench;

    impl crate::Benchmark for PanickyBench {
        fn meta(&self) -> crate::meta::WorkloadMeta {
            crate::meta::WorkloadMeta {
                name: "panicky",
                suite: "test",
                domain: "test",
                description: "",
                dataset: "",
                input_bytes: &[4],
                truncated_bits: &[0],
                metric: Metric::Numeric,
            }
        }
        fn program(
            &self,
            _scale: crate::Scale,
        ) -> (axmemo_sim::Program, Vec<axmemo_compiler::RegionSpec>) {
            panic!("synthetic benchmark bug");
        }
        fn setup(&self, _scale: crate::Scale, _dataset: crate::Dataset) -> Machine {
            Machine::new(64)
        }
        fn outputs(&self, _machine: &Machine, _scale: crate::Scale) -> Vec<f64> {
            Vec::new()
        }
        fn golden(&self, _machine: &Machine, _scale: crate::Scale) -> Vec<f64> {
            Vec::new()
        }
    }

    /// One job at tiny scale with a fresh cache.
    fn job(
        bench: &dyn crate::Benchmark,
        memo: &MemoConfig,
        max_cycles: u64,
        tel: &mut Telemetry,
    ) -> Result<SupervisedRun, RunFailure> {
        run_job(
            bench,
            crate::Scale::Tiny,
            memo,
            max_cycles,
            &BaselineCache::new(),
            RunOptions::default(),
            tel,
        )
    }

    /// Every memory access spikes by 100k cycles, so a memoized run
    /// under it blows any watchdog the tests set, while the same run
    /// with faults cleared fits comfortably.
    fn storm() -> MemoConfig {
        use axmemo_core::faults::PPM;
        MemoConfig {
            faults: FaultConfig {
                seed: 3,
                latency_spike_ppm: PPM,
                latency_spike_cycles: 100_000,
                ..FaultConfig::default()
            },
            ..MemoConfig::l1_only(4096)
        }
    }

    #[test]
    fn supervised_runner_catches_panics() {
        let fail = job(
            &PanickyBench,
            &MemoConfig::l1_only(4096),
            u64::MAX,
            &mut Telemetry::off(),
        )
        .unwrap_err();
        assert_eq!(fail.kind, FailureKind::Panic);
        assert_eq!(fail.benchmark, "panicky");
        assert!(fail.message.contains("synthetic benchmark bug"));
        assert_eq!(fail.attempts, 1);
    }

    #[test]
    fn supervised_runner_watchdog_bounds_cycles() {
        let bench = crate::benchmark_by_name("blackscholes").unwrap();
        let fail = job(
            bench.as_ref(),
            &MemoConfig::l1_only(4096),
            1_000, // far below what even Tiny needs
            &mut Telemetry::off(),
        )
        .unwrap_err();
        assert_eq!(fail.kind, FailureKind::Watchdog);
        assert!(fail.message.contains("cycle limit"), "{}", fail.message);
        assert_eq!(fail.attempts, 1, "no fault config, so no retry");
    }

    #[test]
    fn supervised_runner_retries_without_faults() {
        let bench = crate::benchmark_by_name("blackscholes").unwrap();
        let run = job(bench.as_ref(), &storm(), 2_000_000, &mut Telemetry::off())
            .expect("degraded retry must succeed");
        assert!(run.result.speedup > 0.0);
        // The storm attempt failed; only the faults-off attempt passed.
        assert!(run.faults_cleared);
        assert_eq!(run.attempts, 2);
    }

    #[test]
    fn panicking_benchmark_leaves_shared_handle_clean() {
        // Satellite regression: a caught panic must not leave the
        // caller's telemetry handle with unbalanced open spans — the
        // next (healthy) benchmark through the same handle must record
        // a clean span tree and a one-run profile.
        let mut tel = Telemetry::enabled();
        tel.profiler_mut().enable();
        let memo = MemoConfig::l1_only(4096);
        let fail = job(&PanickyBench, &memo, u64::MAX, &mut tel).unwrap_err();
        assert_eq!(fail.kind, FailureKind::Panic);
        // The handle survived the panic, balanced and still profiling.
        assert!(tel.is_enabled());
        assert!(tel.profiler().is_enabled());
        assert_eq!(tel.close_open_spans(), 0, "no spans left open");

        let bench = crate::benchmark_by_name("blackscholes").unwrap();
        job(bench.as_ref(), &memo, u64::MAX, &mut tel).expect("healthy benchmark after a panic");
        assert_eq!(tel.close_open_spans(), 0, "span tree balanced");
        let runs: Vec<_> = tel
            .spans()
            .iter()
            .filter(|s| s.path.starts_with("run:"))
            .collect();
        assert_eq!(runs.len(), 1, "exactly one completed run span");
        assert_eq!(runs[0].path, "run:blackscholes");
        assert_eq!(runs[0].depth, 0);
        let profile = tel.take_profile().expect("profiler enabled");
        let run = &profile.phases["run"];
        assert_eq!(run.count, 1, "profile describes exactly one run");
        assert!(run.total > 0);
    }

    #[test]
    fn watchdog_failure_recovers_span_stack() {
        // A watchdog trip abandons the run mid-span (inside the
        // simulator); the job runner must drain the open stack so the
        // handle stays balanced, then a degraded-config success must
        // profile exactly one run.
        let bench = crate::benchmark_by_name("blackscholes").unwrap();
        let mut tel = Telemetry::enabled();
        tel.profiler_mut().enable();
        let run = job(bench.as_ref(), &storm(), 2_000_000, &mut tel)
            .expect("degraded retry must succeed");
        assert!(run.faults_cleared);
        assert_eq!(run.attempts, 2);
        assert_eq!(tel.close_open_spans(), 0, "span tree balanced");
        // The failed fault-injected attempt's profile was discarded:
        // only the successful run remains.
        let profile = tel.take_profile().expect("profiler enabled");
        assert_eq!(profile.phases["run"].count, 1);
    }
}
